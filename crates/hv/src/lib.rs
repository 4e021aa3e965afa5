//! # synergy-hv
//!
//! The SYNERGY hypervisor layer (§4 of the paper): program coalescing, fabric
//! admission under the AmorphOS hull, the state-safe compilation handshake, spatial and temporal multiplexing,
//! parallel round scheduling across host cores, and cross-device workload
//! migration over a cluster of heterogeneous FPGAs.
#![warn(missing_docs)]

mod cluster;
mod control;
mod hypervisor;
mod jobs;
pub mod sched;

pub use cluster::{Cluster, NodeId};
pub use control::{
    ControlConfig, ControlEvent, ControlPlane, FaultEvent, FaultKind, FaultPlan, RecoveryReport,
    TenantInfo, TenantSpec,
};
pub use hypervisor::{AppId, DeployOutcome, EngineId, HvError, Hypervisor, RoundStats};
pub use sched::{DeficitRoundRobin, PoolStats, SchedPolicy};
