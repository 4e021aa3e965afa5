//! The AmorphOS hull: the isolation boundary around one fabric.
//!
//! The hull mediates OS-managed resources for the Morphlets sharing a fabric
//! (§2.2). It enforces cross-domain protection: a Morphlet can only touch its own
//! control-register window. What fits on the fabric, and at which shared clock,
//! is the fabric's decision (`synergy_fpga::Fabric`); the hull records who owns
//! each admitted Morphlet and how it quiesces (§5.3), and forgets a Morphlet
//! when it retires.

use crate::morphlet::{DomainId, Morphlet, MorphletId, Quiescence};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by the hull.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HullError {
    /// The referenced Morphlet does not exist.
    UnknownMorphlet(u64),
    /// A protection-domain violation was attempted.
    ProtectionViolation {
        /// The domain that attempted the access.
        accessor: u64,
        /// The domain that owns the target.
        owner: u64,
    },
}

impl fmt::Display for HullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HullError::UnknownMorphlet(id) => write!(f, "unknown morphlet {}", id),
            HullError::ProtectionViolation { accessor, owner } => write!(
                f,
                "protection violation: domain {} attempted to access domain {}",
                accessor, owner
            ),
        }
    }
}

impl std::error::Error for HullError {}

/// The AmorphOS hull around one fabric.
#[derive(Debug, Default)]
pub struct Hull {
    morphlets: BTreeMap<MorphletId, Morphlet>,
    /// The last id handed out; ids start at 1 and are never reused.
    next_id: u64,
}

impl Hull {
    /// Creates an empty hull.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new Morphlet owned by `domain`. Call it once the fabric has
    /// admitted the Morphlet's design.
    pub fn register(
        &mut self,
        domain: DomainId,
        name: impl Into<String>,
        quiescence: Quiescence,
    ) -> MorphletId {
        self.next_id += 1;
        let id = MorphletId(self.next_id);
        self.morphlets.insert(
            id,
            Morphlet {
                id,
                domain,
                name: name.into(),
                quiescence,
            },
        );
        id
    }

    /// Retires a Morphlet: it is dropped, and its id is unknown from then on.
    ///
    /// # Errors
    ///
    /// Returns [`HullError::UnknownMorphlet`] if the id is not registered.
    pub fn retire(&mut self, id: MorphletId) -> Result<(), HullError> {
        self.morphlets
            .remove(&id)
            .map(|_| ())
            .ok_or(HullError::UnknownMorphlet(id.0))
    }

    /// Looks up a Morphlet.
    ///
    /// # Errors
    ///
    /// Returns [`HullError::UnknownMorphlet`] if the id is not registered.
    pub fn morphlet(&self, id: MorphletId) -> Result<&Morphlet, HullError> {
        self.morphlets
            .get(&id)
            .ok_or(HullError::UnknownMorphlet(id.0))
    }

    /// All registered Morphlets, in id order.
    pub fn active(&self) -> Vec<&Morphlet> {
        self.morphlets.values().collect()
    }

    /// Checks a cross-domain access: `accessor` may only touch Morphlets in its own
    /// protection domain. This is the isolation property Synergy inherits from
    /// AmorphOS when sharing fabric (§4.3).
    ///
    /// # Errors
    ///
    /// Returns [`HullError::ProtectionViolation`] when the domains differ, or
    /// [`HullError::UnknownMorphlet`] if the target does not exist.
    pub fn check_access(&self, accessor: DomainId, target: MorphletId) -> Result<(), HullError> {
        let m = self.morphlet(target)?;
        if m.domain != accessor {
            return Err(HullError::ProtectionViolation {
                accessor: accessor.0,
                owner: m.domain.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_domain_access_is_denied() {
        let mut h = Hull::new();
        let a = h.register(DomainId(1), "a", Quiescence::Transparent);
        h.check_access(DomainId(1), a).unwrap();
        let err = h.check_access(DomainId(2), a).unwrap_err();
        assert!(matches!(
            err,
            HullError::ProtectionViolation {
                accessor: 2,
                owner: 1
            }
        ));
    }

    #[test]
    fn unknown_morphlet_errors() {
        let h = Hull::new();
        assert!(matches!(
            h.morphlet(MorphletId(42)),
            Err(HullError::UnknownMorphlet(42))
        ));
    }

    #[test]
    fn retiring_drops_the_morphlet() {
        let mut h = Hull::new();
        let a = h.register(DomainId(1), "a", Quiescence::Transparent);
        let b = h.register(DomainId(2), "b", Quiescence::Transparent);
        h.retire(a).unwrap();
        assert_eq!(
            h.check_access(DomainId(1), a),
            Err(HullError::UnknownMorphlet(a.0))
        );
        assert_eq!(h.retire(a), Err(HullError::UnknownMorphlet(a.0)));
        assert_eq!(h.active().len(), 1);
        let c = h.register(DomainId(1), "c", Quiescence::Transparent);
        assert!(c > b, "ids are not reused");
    }

    #[test]
    fn morphlets_keep_their_quiescence_class() {
        let mut h = Hull::new();
        let t = h.register(DomainId(1), "transparent", Quiescence::Transparent);
        let m = h.register(DomainId(2), "managed", Quiescence::ApplicationManaged);
        assert_eq!(h.morphlet(t).unwrap().quiescence, Quiescence::Transparent);
        assert_eq!(
            h.morphlet(m).unwrap().quiescence,
            Quiescence::ApplicationManaged
        );
    }
}
