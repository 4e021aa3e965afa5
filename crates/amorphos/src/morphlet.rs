//! Morphlets: the AmorphOS process-extension abstraction for FPGA execution (§2.2).
//!
//! A Morphlet couples a protection domain (the tenant/process that owns it) with
//! the application it runs and how that application quiesces. Where it sits on
//! the fabric, and whether it fits at all, is the fabric's record, not the
//! Morphlet's.

use serde::{Deserialize, Serialize};

/// A tenant / protection domain identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId(pub u64);

/// A Morphlet identifier, unique within one hull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MorphletId(pub u64);

/// Whether the Morphlet implements the quiescence interface (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quiescence {
    /// SYNERGY manages all state transparently (`non_volatile` by default).
    Transparent,
    /// The application asserts `$yield` and manages volatile state itself.
    ApplicationManaged,
}

/// A Morphlet: one application's presence inside the AmorphOS hull.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Morphlet {
    /// Identifier within the hull.
    pub id: MorphletId,
    /// Owning protection domain.
    pub domain: DomainId,
    /// Human-readable application name.
    pub name: String,
    /// Quiescence mode.
    pub quiescence: Quiescence,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<MorphletId> = [MorphletId(3), MorphletId(1)].into_iter().collect();
        assert_eq!(set.iter().next(), Some(&MorphletId(1)));
    }
}
