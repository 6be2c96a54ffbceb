//! # k2-sim — deterministic discrete-event simulation core
//!
//! The foundation of the K2 reproduction: simulated time, a deterministic
//! event queue, a dependency-free PRNG, and statistics accumulators.
//!
//! Everything above this crate (the SoC model, the kernel substrate, K2
//! itself) expresses its behaviour as events on [`queue::EventQueue`] and
//! instants/durations from [`time`]. Determinism is a design requirement:
//! same seed, same event order, same results — see `DESIGN.md` §5.
//!
//! # Examples
//!
//! ```
//! use k2_sim::queue::EventQueue;
//! use k2_sim::time::{SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! let mut now = SimTime::ZERO;
//! q.schedule(now + SimDuration::from_us(5), "mailbox delivery");
//! while let Some((at, what)) = q.pop() {
//!     now = at;
//!     assert_eq!(what, "mailbox delivery");
//! }
//! assert_eq!(now, SimTime::from_ns(5_000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod digest;
pub mod explore;
pub mod export;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod sink;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::{InvariantAuditor, Violation};
pub use digest::Fnv64;
pub use explore::{ChoicePoint, EventClass, ScheduleChooser};
pub use export::ChromeTraceWriter;
pub use hash::{FastMap, FastSet};
pub use json::{IoAdapter, Json, JsonWriter};
pub use metrics::{Key, Registry, ShardedCounter, Tag, TimeWeightedGauge};
pub use queue::{EventKey, EventQueue};
pub use rng::SimRng;
pub use sink::{DisabledSink, FullSink, RingBufferSink, SinkMode, TraceSink};
pub use span::{Span, SpanArgs, SpanId, SpanTracker};
pub use stats::{Counter, Histogram, Summary};
pub use time::{cycles_to_duration, SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord};
