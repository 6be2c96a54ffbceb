//! A UDP stack with loopback delivery and a machine-egress path.
//!
//! Models the slice of the network stack the paper's UDP-loopback benchmark
//! exercises (§9.2): socket creation and teardown, datagram send with
//! checksum and copy costs, and loopback delivery into the destination
//! socket's receive queue. Real bytes flow end-to-end, so tests verify
//! payloads.
//!
//! Beyond loopback, [`NetStack::send_to`] addresses another *machine*
//! ([`MachineAddr`]): the datagram is queued on the stack's egress ring
//! instead of being delivered locally, and whoever owns the device end
//! (the fleet's [`NetFabric`](crate::net::fabric::NetFabric)) drains the
//! ring with [`NetStack::drain_egress_into`] and routes it. Machine
//! addresses are a fleet-level namespace: two machines binding the same
//! [`Port`] never collide, because each machine owns a whole stack.

use crate::cost::Cost;
use crate::service::OpCx;
use k2_sim::hash::FastMap;
use k2_sim::span::TraceCtx;
use std::collections::VecDeque;
use std::fmt;

/// Maximum payload of one datagram (no fragmentation modelled).
pub const MAX_DATAGRAM: usize = 65_507;

/// A bound UDP port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Port(pub u16);

/// Network-stack errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// The port is already bound.
    PortInUse,
    /// No ephemeral ports left.
    NoPorts,
    /// Destination port has no socket (ICMP port-unreachable territory).
    Unreachable,
    /// Payload exceeds [`MAX_DATAGRAM`].
    TooBig,
    /// Operation on an unbound port.
    NotBound,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetError::PortInUse => "port already in use",
            NetError::NoPorts => "no ephemeral ports available",
            NetError::Unreachable => "destination port unreachable",
            NetError::TooBig => "datagram too large",
            NetError::NotBound => "socket not bound",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

/// A received datagram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Datagram {
    /// Sender's port.
    pub src: Port,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Causal trace context carried over the wire
    /// ([`TraceCtx::NONE`] for untraced traffic). Observability only:
    /// never read by protocol logic, never folded into sim digests.
    pub trace: TraceCtx,
}

/// The address of one machine on the simulated inter-machine fabric.
///
/// Ports are per-machine: `(MachineAddr, Port)` is the globally unique
/// endpoint, so the same port number bound on two machines is not a
/// collision.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineAddr(pub u16);

impl fmt::Display for MachineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A datagram queued for transmission beyond this machine, waiting on the
/// egress ring for the fabric to pick it up.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EgressDatagram {
    /// Destination machine.
    pub dst: MachineAddr,
    /// Destination port on that machine.
    pub dst_port: Port,
    /// Sending socket's port (the reply-to port on the *sending* machine;
    /// the wire does not carry the sender's machine address — peers that
    /// want replies embed it in the payload, as real protocols do).
    pub src_port: Port,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Causal trace context stamped by the sender and carried verbatim
    /// through the fabric to the receiving stack.
    pub trace: TraceCtx,
}

#[derive(Clone, Debug)]
struct Socket {
    rx: VecDeque<Datagram>,
    state_page: u32,
}

/// The UDP stack (a shadowed service in K2's classification).
///
/// State-page map: page 0 is the port hash table; each socket gets its own
/// page for its receive queue and counters.
///
/// # Examples
///
/// ```
/// use k2_kernel::net::udp::NetStack;
/// use k2_kernel::service::OpCx;
///
/// # fn main() -> Result<(), k2_kernel::net::udp::NetError> {
/// let mut cx = OpCx::new();
/// let mut net = NetStack::new();
/// let a = net.bind(None, &mut cx)?;
/// let b = net.bind(None, &mut cx)?;
/// net.send(a, b, b"ping", &mut cx)?;
/// let dg = net.recv(b, &mut cx)?.expect("delivered");
/// assert_eq!(dg.payload, b"ping");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct NetStack {
    sockets: FastMap<u16, Socket>,
    next_ephemeral: u16,
    next_state_page: u32,
    sent_datagrams: u64,
    sent_bytes: u64,
    egress: VecDeque<EgressDatagram>,
    egress_datagrams: u64,
    egress_bytes: u64,
}

impl NetStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        NetStack {
            sockets: FastMap::default(),
            next_ephemeral: 32_768,
            next_state_page: 1,
            sent_datagrams: 0,
            sent_bytes: 0,
            egress: VecDeque::new(),
            egress_datagrams: 0,
            egress_bytes: 0,
        }
    }

    /// Binds a socket to `port`, or to a fresh ephemeral port if `None`.
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] or [`NetError::NoPorts`].
    pub fn bind(&mut self, port: Option<Port>, cx: &mut OpCx) -> Result<Port, NetError> {
        cx.charge(Cost::instr(900) + Cost::mem(18)); // socket alloc + hash insert
        cx.write(0);
        let port = match port {
            Some(p) => {
                if self.sockets.contains_key(&p.0) {
                    return Err(NetError::PortInUse);
                }
                p
            }
            None => {
                let start = self.next_ephemeral;
                loop {
                    let candidate = self.next_ephemeral;
                    self.next_ephemeral = self.next_ephemeral.checked_add(1).unwrap_or(32_768);
                    if !self.sockets.contains_key(&candidate) {
                        break Port(candidate);
                    }
                    if self.next_ephemeral == start {
                        return Err(NetError::NoPorts);
                    }
                }
            }
        };
        let state_page = self.next_state_page;
        self.next_state_page += 1;
        cx.alloc(state_page);
        self.sockets.insert(
            port.0,
            Socket {
                rx: VecDeque::new(),
                state_page,
            },
        );
        Ok(port)
    }

    /// Closes a socket, dropping queued datagrams.
    ///
    /// # Errors
    ///
    /// [`NetError::NotBound`].
    pub fn close(&mut self, port: Port, cx: &mut OpCx) -> Result<(), NetError> {
        cx.charge(Cost::instr(600) + Cost::mem(12));
        cx.write(0);
        let s = self.sockets.remove(&port.0).ok_or(NetError::NotBound)?;
        cx.write(s.state_page);
        Ok(())
    }

    /// Sends a datagram from `src` to `dst` over loopback.
    ///
    /// # Errors
    ///
    /// [`NetError::NotBound`], [`NetError::Unreachable`], or
    /// [`NetError::TooBig`].
    pub fn send(
        &mut self,
        src: Port,
        dst: Port,
        payload: &[u8],
        cx: &mut OpCx,
    ) -> Result<(), NetError> {
        if payload.len() > MAX_DATAGRAM {
            return Err(NetError::TooBig);
        }
        if !self.sockets.contains_key(&src.0) {
            return Err(NetError::NotBound);
        }
        // Syscall + skb alloc + checksum + copy in; loopback re-delivers
        // without a device, as on Linux's lo.
        cx.charge(Cost::instr(1_800) + Cost::mem(40) + Cost::bulk(2 * payload.len() as u64));
        cx.read(0);
        let dst_sock = self.sockets.get_mut(&dst.0).ok_or(NetError::Unreachable)?;
        cx.write(dst_sock.state_page);
        dst_sock.rx.push_back(Datagram {
            src,
            payload: payload.to_vec(),
            trace: TraceCtx::NONE,
        });
        self.sent_datagrams += 1;
        self.sent_bytes += payload.len() as u64;
        Ok(())
    }

    /// Sends a datagram from local socket `src` to `dst_port` on another
    /// machine: the datagram goes onto the egress ring for the fabric to
    /// route, not into any local socket. Charges the same syscall/copy
    /// path as [`NetStack::send`] plus the device-queue handoff a real
    /// NIC transmit ring costs.
    ///
    /// # Errors
    ///
    /// [`NetError::NotBound`] or [`NetError::TooBig`]. An unknown
    /// `dst` machine is *not* an error here — like a real first hop, the
    /// sender cannot know; the fabric drops it and counts it.
    pub fn send_to(
        &mut self,
        src: Port,
        dst: MachineAddr,
        dst_port: Port,
        payload: &[u8],
        cx: &mut OpCx,
    ) -> Result<(), NetError> {
        self.send_to_traced(src, dst, dst_port, payload, TraceCtx::NONE, cx)
    }

    /// [`NetStack::send_to`] carrying an explicit trace context on the
    /// wire. Identical costs and semantics; the context rides the
    /// datagram so the receiving machine can stitch the causal tree.
    ///
    /// # Errors
    ///
    /// Same as [`NetStack::send_to`].
    pub fn send_to_traced(
        &mut self,
        src: Port,
        dst: MachineAddr,
        dst_port: Port,
        payload: &[u8],
        trace: TraceCtx,
        cx: &mut OpCx,
    ) -> Result<(), NetError> {
        if payload.len() > MAX_DATAGRAM {
            return Err(NetError::TooBig);
        }
        if !self.sockets.contains_key(&src.0) {
            return Err(NetError::NotBound);
        }
        // Syscall + skb alloc + checksum + copy in, then the transmit-ring
        // doorbell instead of loopback re-delivery.
        cx.charge(Cost::instr(2_000) + Cost::mem(44) + Cost::bulk(payload.len() as u64));
        cx.read(0);
        cx.write(0);
        self.egress.push_back(EgressDatagram {
            dst,
            dst_port,
            src_port: src,
            payload: payload.to_vec(),
            trace,
        });
        self.sent_datagrams += 1;
        self.sent_bytes += payload.len() as u64;
        self.egress_datagrams += 1;
        self.egress_bytes += payload.len() as u64;
        Ok(())
    }

    /// Moves every queued egress datagram into `buf` (appending, in send
    /// order). The device end of the transmit ring: the fabric calls this
    /// with a reused scratch buffer, so steady-state draining allocates
    /// nothing.
    pub fn drain_egress_into(&mut self, buf: &mut Vec<EgressDatagram>) {
        buf.extend(self.egress.drain(..));
    }

    /// Datagrams currently queued on the egress ring.
    pub fn egress_pending(&self) -> usize {
        self.egress.len()
    }

    /// Datagrams ever queued for another machine.
    pub fn egress_datagrams(&self) -> u64 {
        self.egress_datagrams
    }

    /// Payload bytes ever queued for another machine.
    pub fn egress_bytes(&self) -> u64 {
        self.egress_bytes
    }

    /// Receives the next queued datagram on `port`, if any.
    ///
    /// # Errors
    ///
    /// [`NetError::NotBound`].
    pub fn recv(&mut self, port: Port, cx: &mut OpCx) -> Result<Option<Datagram>, NetError> {
        let sock = self.sockets.get_mut(&port.0).ok_or(NetError::NotBound)?;
        cx.read(0);
        cx.read(sock.state_page);
        match sock.rx.pop_front() {
            Some(dg) => {
                cx.write(sock.state_page);
                // Copy out to userspace + skb free.
                cx.charge(Cost::instr(1_200) + Cost::mem(30) + Cost::bulk(dg.payload.len() as u64));
                Ok(Some(dg))
            }
            None => {
                cx.charge(Cost::instr(300) + Cost::mem(6));
                Ok(None)
            }
        }
    }

    /// Delivers a datagram arriving from the network device into `port`'s
    /// receive queue (called from the NET interrupt's handler). `src` is
    /// the remote peer's port.
    ///
    /// # Errors
    ///
    /// [`NetError::Unreachable`] if no socket is bound to `port`.
    pub fn deliver_external(
        &mut self,
        port: Port,
        src: Port,
        payload: Vec<u8>,
        cx: &mut OpCx,
    ) -> Result<(), NetError> {
        self.deliver_external_traced(port, src, payload, TraceCtx::NONE, cx)
    }

    /// [`NetStack::deliver_external`] preserving the trace context the
    /// datagram carried over the fabric, so `recv` hands it to the
    /// application for causal stitching.
    ///
    /// # Errors
    ///
    /// Same as [`NetStack::deliver_external`].
    pub fn deliver_external_traced(
        &mut self,
        port: Port,
        src: Port,
        payload: Vec<u8>,
        trace: TraceCtx,
        cx: &mut OpCx,
    ) -> Result<(), NetError> {
        // Device ring processing + IP/UDP demux + enqueue.
        cx.charge(Cost::instr(1_400) + Cost::mem(30) + Cost::bulk(payload.len() as u64));
        cx.read(0);
        let sock = self.sockets.get_mut(&port.0).ok_or(NetError::Unreachable)?;
        cx.write(sock.state_page);
        sock.rx.push_back(Datagram {
            src,
            payload,
            trace,
        });
        Ok(())
    }

    /// Queued datagrams on a port.
    pub fn pending(&self, port: Port) -> usize {
        self.sockets.get(&port.0).map_or(0, |s| s.rx.len())
    }

    /// Number of bound sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Datagrams sent so far.
    pub fn sent_datagrams(&self) -> u64 {
        self.sent_datagrams
    }

    /// Payload bytes sent so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx() -> OpCx {
        OpCx::new()
    }

    #[test]
    fn send_to_queues_on_the_egress_ring_in_order() {
        let mut n = NetStack::new();
        let a = n.bind(Some(Port(1000)), &mut cx()).unwrap();
        for i in 0..3u8 {
            n.send_to(a, MachineAddr(7), Port(443), &[i], &mut cx())
                .unwrap();
        }
        assert_eq!(n.egress_pending(), 3);
        assert_eq!(n.egress_datagrams(), 3);
        assert_eq!(n.egress_bytes(), 3);
        assert_eq!(n.sent_datagrams(), 3, "egress counts as sent traffic");
        let mut buf = Vec::new();
        n.drain_egress_into(&mut buf);
        assert_eq!(n.egress_pending(), 0);
        let order: Vec<u8> = buf.iter().map(|d| d.payload[0]).collect();
        assert_eq!(order, vec![0, 1, 2], "egress preserves send order");
        assert!(buf
            .iter()
            .all(|d| d.dst == MachineAddr(7) && d.dst_port == Port(443) && d.src_port == a));
        // Draining again appends nothing.
        n.drain_egress_into(&mut buf);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn send_to_validates_like_send() {
        let mut n = NetStack::new();
        assert_eq!(
            n.send_to(Port(9), MachineAddr(0), Port(443), b"x", &mut cx()),
            Err(NetError::NotBound)
        );
        let a = n.bind(None, &mut cx()).unwrap();
        let big = vec![0u8; MAX_DATAGRAM + 1];
        assert_eq!(
            n.send_to(a, MachineAddr(0), Port(443), &big, &mut cx()),
            Err(NetError::TooBig)
        );
        assert_eq!(n.egress_pending(), 0, "failed sends queue nothing");
    }

    #[test]
    fn same_port_on_two_machines_is_not_a_collision() {
        // Two machines = two stacks; (MachineAddr, Port) is the endpoint.
        let mut a = NetStack::new();
        let mut b = NetStack::new();
        a.bind(Some(Port(4433)), &mut cx()).unwrap();
        b.bind(Some(Port(4433)), &mut cx()).unwrap();
        // Each delivers external traffic into its own socket.
        a.deliver_external(Port(4433), Port(1), b"to-a".to_vec(), &mut cx())
            .unwrap();
        b.deliver_external(Port(4433), Port(2), b"to-b".to_vec(), &mut cx())
            .unwrap();
        let da = a.recv(Port(4433), &mut cx()).unwrap().unwrap();
        let db = b.recv(Port(4433), &mut cx()).unwrap().unwrap();
        assert_eq!(da.payload, b"to-a");
        assert_eq!(db.payload, b"to-b");
    }

    #[test]
    fn loopback_delivers_payload() {
        let mut n = NetStack::new();
        let a = n.bind(Some(Port(1000)), &mut cx()).unwrap();
        let b = n.bind(Some(Port(2000)), &mut cx()).unwrap();
        n.send(a, b, b"hello k2", &mut cx()).unwrap();
        let dg = n.recv(b, &mut cx()).unwrap().unwrap();
        assert_eq!(dg.payload, b"hello k2");
        assert_eq!(dg.src, a);
        assert!(n.recv(b, &mut cx()).unwrap().is_none());
    }

    #[test]
    fn fifo_order() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        for i in 0..5u8 {
            n.send(a, b, &[i], &mut cx()).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(n.recv(b, &mut cx()).unwrap().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn ephemeral_ports_unique() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        assert_ne!(a, b);
        assert_eq!(n.socket_count(), 2);
    }

    #[test]
    fn double_bind_refused() {
        let mut n = NetStack::new();
        n.bind(Some(Port(53)), &mut cx()).unwrap();
        assert_eq!(n.bind(Some(Port(53)), &mut cx()), Err(NetError::PortInUse));
    }

    #[test]
    fn send_to_unbound_port_unreachable() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        assert_eq!(
            n.send(a, Port(9), b"x", &mut cx()),
            Err(NetError::Unreachable)
        );
    }

    #[test]
    fn close_drops_queue_and_frees_port() {
        let mut n = NetStack::new();
        let a = n.bind(Some(Port(7)), &mut cx()).unwrap();
        let b = n.bind(Some(Port(8)), &mut cx()).unwrap();
        n.send(a, b, b"x", &mut cx()).unwrap();
        n.close(b, &mut cx()).unwrap();
        assert_eq!(n.recv(b, &mut cx()), Err(NetError::NotBound));
        // Port can be rebound (fresh queue).
        let b2 = n.bind(Some(Port(8)), &mut cx()).unwrap();
        assert_eq!(n.pending(b2), 0);
    }

    #[test]
    fn oversized_datagram_refused() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        let big = vec![0u8; MAX_DATAGRAM + 1];
        assert_eq!(n.send(a, b, &big, &mut cx()), Err(NetError::TooBig));
    }

    #[test]
    fn send_cost_scales_with_payload() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        let mut c1 = OpCx::new();
        n.send(a, b, &[0u8; 100], &mut c1).unwrap();
        let mut c2 = OpCx::new();
        n.send(a, b, &[0u8; 10_000], &mut c2).unwrap();
        assert!(c2.cost().bulk_bytes > c1.cost().bulk_bytes);
    }

    #[test]
    fn state_pages_recorded_per_socket() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        let mut c = OpCx::new();
        n.send(a, b, b"z", &mut c).unwrap();
        // Port table read + destination socket page write.
        assert!(c.reads().iter().any(|p| p.0 == 0));
        assert_eq!(c.writes().len(), 1);
    }

    #[test]
    fn external_delivery_reaches_the_socket() {
        let mut n = NetStack::new();
        let rx = n.bind(Some(Port(9000)), &mut cx()).unwrap();
        n.deliver_external(rx, Port(443), b"response".to_vec(), &mut cx())
            .unwrap();
        let dg = n.recv(rx, &mut cx()).unwrap().unwrap();
        assert_eq!(dg.payload, b"response");
        assert_eq!(dg.src, Port(443));
        // Unbound port: the device handler drops it.
        assert_eq!(
            n.deliver_external(Port(1), Port(2), vec![], &mut cx()),
            Err(NetError::Unreachable)
        );
    }

    #[test]
    fn counters_track_traffic() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        n.send(a, b, &[0u8; 256], &mut cx()).unwrap();
        assert_eq!(n.sent_datagrams(), 1);
        assert_eq!(n.sent_bytes(), 256);
    }

    #[test]
    fn max_datagram_boundary_is_exact() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        // Exactly MAX_DATAGRAM is deliverable in one piece (no IP
        // fragmentation is modeled below this bound)...
        let exact = vec![0xABu8; MAX_DATAGRAM];
        n.send(a, b, &exact, &mut cx()).unwrap();
        let dg = n.recv(b, &mut cx()).unwrap().unwrap();
        assert_eq!(dg.payload.len(), MAX_DATAGRAM);
        // ...and one byte more is refused before any counter moves.
        let before = (n.sent_datagrams(), n.sent_bytes());
        let over = vec![0u8; MAX_DATAGRAM + 1];
        assert_eq!(n.send(a, b, &over, &mut cx()), Err(NetError::TooBig));
        assert_eq!((n.sent_datagrams(), n.sent_bytes()), before);
        assert_eq!(n.pending(b), 0, "the refused datagram was not queued");
    }

    #[test]
    fn oversize_check_precedes_unbound_source_check() {
        let mut n = NetStack::new();
        let b = n.bind(None, &mut cx()).unwrap();
        let over = vec![0u8; MAX_DATAGRAM + 1];
        // Both the source and the size are wrong; the size wins.
        assert_eq!(
            n.send(Port(9999), b, &over, &mut cx()),
            Err(NetError::TooBig)
        );
        // With a legal size, the unbound source is reported.
        assert_eq!(
            n.send(Port(9999), b, b"x", &mut cx()),
            Err(NetError::NotBound)
        );
    }

    #[test]
    fn zero_length_datagrams_are_real_datagrams() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        n.send(a, b, &[], &mut cx()).unwrap();
        assert_eq!(n.pending(b), 1, "an empty datagram still queues");
        let dg = n.recv(b, &mut cx()).unwrap().unwrap();
        assert!(dg.payload.is_empty());
        assert_eq!(dg.src, a);
        assert_eq!(n.sent_datagrams(), 1);
        assert_eq!(n.sent_bytes(), 0);
    }

    #[test]
    fn recv_on_empty_socket_is_not_an_error() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        assert_eq!(n.recv(a, &mut cx()), Ok(None));
        // Repeatedly: polling an empty queue never errors or consumes.
        assert_eq!(n.recv(a, &mut cx()), Ok(None));
    }

    #[test]
    fn close_then_operate_reports_not_bound() {
        let mut n = NetStack::new();
        let a = n.bind(None, &mut cx()).unwrap();
        let b = n.bind(None, &mut cx()).unwrap();
        n.close(a, &mut cx()).unwrap();
        assert_eq!(n.close(a, &mut cx()), Err(NetError::NotBound));
        assert_eq!(n.send(a, b, b"x", &mut cx()), Err(NetError::NotBound));
        assert_eq!(n.recv(a, &mut cx()), Err(NetError::NotBound));
        // Sends *to* the closed port are unreachable, not NotBound.
        assert_eq!(n.send(b, a, b"x", &mut cx()), Err(NetError::Unreachable));
    }

    #[test]
    fn rebound_port_does_not_leak_old_traffic() {
        let mut n = NetStack::new();
        let a = n.bind(Some(Port(40)), &mut cx()).unwrap();
        let b = n.bind(Some(Port(41)), &mut cx()).unwrap();
        n.send(a, b, b"stale", &mut cx()).unwrap();
        n.close(b, &mut cx()).unwrap();
        let b2 = n.bind(Some(Port(41)), &mut cx()).unwrap();
        assert_eq!(b2, b, "same port number");
        assert_eq!(n.recv(b2, &mut cx()), Ok(None), "fresh queue after rebind");
        // New traffic flows normally.
        n.send(a, b2, b"fresh", &mut cx()).unwrap();
        assert_eq!(n.recv(b2, &mut cx()).unwrap().unwrap().payload, b"fresh");
    }
}
