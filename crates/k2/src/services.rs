//! Service classification (paper §5.3, Table 2).
//!
//! Refactoring Linux into K2 means deciding, for every OS service, how it
//! is adopted across kernels. The paper's four-step procedure:
//!
//! 1. Core-specific / domain-local services stay **private** per kernel.
//! 2. Complicated, rarely-used global operations stay **private to the
//!    main kernel** only.
//! 3. High-performance-impact services become **independent** per-kernel
//!    instances coordinated by K2.
//! 4. Everything else — the majority, including drivers, filesystems and
//!    the network stack — becomes **shadowed**, with K2 maintaining state
//!    coherence transparently.

use std::fmt;

/// How a service is adopted across kernels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ServiceClass {
    /// Per-kernel implementation and state (e.g. core power management).
    Private,
    /// Exists only in the main kernel (e.g. platform initialisation).
    MainOnly,
    /// Independent per-kernel instances, coordinated at the meta level
    /// (e.g. the page allocator, interrupt management).
    Independent,
    /// One logical instance, state kept coherent by the DSM (e.g. device
    /// drivers, filesystems).
    Shadowed,
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceClass::Private => "private",
            ServiceClass::MainOnly => "main-only",
            ServiceClass::Independent => "independent",
            ServiceClass::Shadowed => "shadowed",
        };
        f.write_str(s)
    }
}

/// One classified service, with the classification rationale.
#[derive(Clone, Debug)]
pub struct ClassifiedService {
    /// Service name.
    pub name: &'static str,
    /// Its class.
    pub class: ServiceClass,
    /// Which refactoring step (1–4) classified it.
    pub step: u8,
    /// Why.
    pub rationale: &'static str,
}

/// The classification of every service in this reproduction, mirroring the
/// paper's examples.
pub fn classification() -> Vec<ClassifiedService> {
    vec![
        ClassifiedService {
            name: "core power management",
            class: ServiceClass::Private,
            step: 1,
            rationale: "specific to one core type; manages domain-local resources",
        },
        ClassifiedService {
            name: "exception handling",
            class: ServiceClass::Private,
            step: 1,
            rationale: "ISA-specific vectors; hosts the DSM fault entry and Undef dispatch",
        },
        ClassifiedService {
            name: "platform initialisation",
            class: ServiceClass::MainOnly,
            step: 2,
            rationale: "complicated, rarely-used global operation",
        },
        ClassifiedService {
            name: "page allocator",
            class: ServiceClass::Independent,
            step: 3,
            rationale: "hottest OS state; sharing it costs 4-5 DSM faults per allocation (§9.3)",
        },
        ClassifiedService {
            name: "interrupt management",
            class: ServiceClass::Independent,
            step: 3,
            rationale: "per-domain controllers; coordinated by masking rules (§7)",
        },
        ClassifiedService {
            name: "scheduler",
            class: ServiceClass::Independent,
            step: 3,
            rationale: "per-domain run queues; NightWatch protocol coordinates (§8)",
        },
        ClassifiedService {
            name: "DMA driver",
            class: ServiceClass::Shadowed,
            step: 4,
            rationale: "moderate performance impact; reused unmodified under the DSM",
        },
        ClassifiedService {
            name: "ext2 filesystem",
            class: ServiceClass::Shadowed,
            step: 4,
            rationale: "metadata shared at millisecond timescales; tolerant of DSM latency",
        },
        ClassifiedService {
            name: "network stack (UDP)",
            class: ServiceClass::Shadowed,
            step: 4,
            rationale: "socket state shared across domains; tolerant of DSM latency",
        },
    ]
}

/// Line-count inventory of this reproduction, the analogue of the paper's
/// Table 2 (which counted changes against Linux 3.4).
#[derive(Clone, Copy, Debug)]
pub struct InventoryRow {
    /// Component name.
    pub component: &'static str,
    /// Whether the paper counted it as changed-existing or new code.
    pub kind: &'static str,
}

/// The components Table 2 reports, for `k2-eval table2-refactoring` to
/// pair with live line counts of this repository.
pub fn table2_components() -> Vec<InventoryRow> {
    vec![
        InventoryRow {
            component: "Exception handling (changed)",
            kind: "changed",
        },
        InventoryRow {
            component: "Page allocator, interrupt, scheduler (changed)",
            kind: "changed",
        },
        InventoryRow {
            component: "DSM (new)",
            kind: "new",
        },
        InventoryRow {
            component: "Memory management (new)",
            kind: "new",
        },
        InventoryRow {
            component: "Bootstrap (new)",
            kind: "new",
        },
        InventoryRow {
            component: "SoC-specific weak-core support (new)",
            kind: "new",
        },
        InventoryRow {
            component: "Debugging etc. (new)",
            kind: "new",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_is_shadowed() {
        // §5.3: shadowing "is the largest category".
        let c = classification();
        let shadowed = c
            .iter()
            .filter(|s| s.class == ServiceClass::Shadowed)
            .count();
        let independent = c
            .iter()
            .filter(|s| s.class == ServiceClass::Independent)
            .count();
        assert!(shadowed >= independent);
        assert!(shadowed >= 3);
    }

    #[test]
    fn page_allocator_is_independent() {
        let c = classification();
        let pa = c.iter().find(|s| s.name == "page allocator").unwrap();
        assert_eq!(pa.class, ServiceClass::Independent);
        assert_eq!(pa.step, 3);
    }

    #[test]
    fn steps_are_in_range() {
        for s in classification() {
            assert!((1..=4).contains(&s.step), "{} has step {}", s.name, s.step);
            // Step and class must be consistent.
            let expect = match s.step {
                1 => ServiceClass::Private,
                2 => ServiceClass::MainOnly,
                3 => ServiceClass::Independent,
                _ => ServiceClass::Shadowed,
            };
            assert_eq!(s.class, expect, "{}", s.name);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ServiceClass::Shadowed.to_string(), "shadowed");
        assert_eq!(ServiceClass::Independent.to_string(), "independent");
    }

    #[test]
    fn table2_lists_both_kinds() {
        let rows = table2_components();
        assert!(rows.iter().any(|r| r.kind == "changed"));
        assert!(rows.iter().any(|r| r.kind == "new"));
    }
}
