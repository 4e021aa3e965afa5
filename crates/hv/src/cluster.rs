//! Multi-device clusters and cross-device workload migration.
//!
//! The paper's evaluation spans a cluster of DE10 SoCs and F1 cloud instances
//! (§6.1): programs are suspended on one node and resumed on another, without
//! exposing the architectural differences between the platforms. A [`Cluster`]
//! holds one [`Hypervisor`] per node (all sharing a bitstream cache) and provides
//! the migration primitive used by Figures 9 and 10. Deciding *where* a tenant
//! goes is not the cluster's job: placement is [`crate::ControlPlane::admit`].

use crate::hypervisor::{AppId, DeployOutcome, HvError, Hypervisor};
use crate::sched::SchedPolicy;
use serde::{Deserialize, Serialize};
use synergy_amorphos::DomainId;
use synergy_fpga::{BitstreamCache, Device};
use synergy_runtime::{EnginePolicy, Runtime};
use synergy_telemetry::{Namespace, Registry};

/// Identifies a node (one device + hypervisor) within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A cluster of hypervisor-managed devices sharing one compilation cache.
pub struct Cluster {
    nodes: Vec<Hypervisor>,
    cache: BitstreamCache,
    policy: EnginePolicy,
    sched: SchedPolicy,
    round_tick_cap: Option<u64>,
    /// Armed deterministic migration faults: while non-zero, the next
    /// [`Cluster::live_migrate`] calls fail after the wire crossing
    /// (exercising the rebuild-and-reconnect recovery path) and decrement
    /// the counter. Chaos-plan plumbing; see [`crate::FaultPlan`].
    migration_faults: u64,
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Cluster {
            nodes: Vec::new(),
            cache: BitstreamCache::new(),
            policy: EnginePolicy::Interpreter,
            sched: SchedPolicy::Sequential,
            round_tick_cap: None,
            migration_faults: 0,
        }
    }

    /// Builds a hypervisor carrying every cluster-wide knob (the shared
    /// constructor behind [`Cluster::add_node`] and [`Cluster::reset_node`]).
    fn build_node(&self, device: Device) -> Hypervisor {
        let mut hv = Hypervisor::with_cache(device, self.cache.clone());
        hv.set_engine_policy(self.policy);
        if let Some(cap) = self.round_tick_cap {
            hv.set_round_tick_cap(cap);
        }
        hv.set_sched_policy(self.sched);
        hv
    }

    /// Adds a node managing the given device.
    pub fn add_node(&mut self, device: Device) -> NodeId {
        let hv = self.build_node(device);
        self.nodes.push(hv);
        NodeId(self.nodes.len() - 1)
    }

    /// Replaces a node's hypervisor with a fresh, empty one managing the
    /// same device (all connected tenants and fabric state are dropped on
    /// the floor) — the crash primitive behind
    /// [`crate::FaultKind::KillNode`], also usable as the rollback step of
    /// coordinated recovery. Cluster-wide knobs are re-applied; the shared
    /// bitstream cache survives (it models the cluster-wide artifact store,
    /// not node memory).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownNode`] for an out-of-range id.
    pub fn reset_node(&mut self, id: NodeId) -> Result<(), HvError> {
        let device = self.try_node(id)?.device().clone();
        self.nodes[id.0] = self.build_node(device);
        Ok(())
    }

    /// Arms `n` deterministic migration faults: each subsequent
    /// [`Cluster::live_migrate`] fails with [`HvError::Injected`] *after*
    /// the tenant has been serialized to wire bytes — the worst spot, which
    /// forces the rebuild-from-wire recovery path — until the counter
    /// drains.
    pub fn inject_migration_failures(&mut self, n: u64) {
        self.migration_faults += n;
    }

    /// Sets the software-engine selection policy on every current and future
    /// node (see [`Hypervisor::set_engine_policy`]).
    pub fn set_engine_policy(&mut self, policy: EnginePolicy) {
        self.policy = policy;
        for node in &mut self.nodes {
            node.set_engine_policy(policy);
        }
    }

    /// Sets the round-scheduling policy on every current and future node
    /// (see [`Hypervisor::set_sched_policy`]).
    pub fn set_sched_policy(&mut self, sched: SchedPolicy) {
        self.sched = sched;
        for node in &mut self.nodes {
            node.set_sched_policy(sched);
        }
    }

    /// Caps per-tenant round tick budgets on every current and future node
    /// (see [`Hypervisor::set_round_tick_cap`]).
    pub fn set_round_tick_cap(&mut self, cap: u64) {
        self.round_tick_cap = Some(cap);
        for node in &mut self.nodes {
            node.set_round_tick_cap(cap);
        }
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The shared bitstream cache.
    pub fn cache(&self) -> &BitstreamCache {
        &self.cache
    }

    /// Every node id, in index order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// Fallible access to a node's hypervisor — the form every control-plane
    /// path that takes an external id uses.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownNode`] for an out-of-range id.
    pub fn try_node(&self, id: NodeId) -> Result<&Hypervisor, HvError> {
        self.nodes.get(id.0).ok_or(HvError::UnknownNode(id.0))
    }

    /// Fallible mutable access to a node's hypervisor.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownNode`] for an out-of-range id.
    pub fn try_node_mut(&mut self, id: NodeId) -> Result<&mut Hypervisor, HvError> {
        self.nodes.get_mut(id.0).ok_or(HvError::UnknownNode(id.0))
    }

    /// Access to a node's hypervisor.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range; prefer [`Cluster::try_node`]
    /// when the id comes from outside.
    pub fn node(&self, id: NodeId) -> &Hypervisor {
        self.try_node(id).expect("node id in range")
    }

    /// Mutable access to a node's hypervisor.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range; prefer
    /// [`Cluster::try_node_mut`] when the id comes from outside.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Hypervisor {
        self.try_node_mut(id).expect("node id in range")
    }

    /// A fleet-wide metrics snapshot: every node's [`Hypervisor::metrics`]
    /// registry merged under a `node=<index>` label. The deterministic
    /// namespace inherits the per-node contract — bit-identical across
    /// scheduling policies for the same fleet and rounds.
    pub fn metrics(&self) -> Registry {
        let mut out = Registry::default();
        for (idx, node) in self.nodes.iter().enumerate() {
            out.merge_labeled(&node.metrics(), "node", &idx.to_string());
        }
        out
    }

    /// Migrates a running application from one node to another *in process*:
    /// the source node suspends it (state capture through `$save`-style get
    /// requests), the target node deploys the same program and restores the
    /// captured state, and execution continues there (the Figure 9 /
    /// Figure 10 flow).
    ///
    /// This is the in-memory reference path; production migration is
    /// [`Cluster::live_migrate`], which moves the tenant through the durable
    /// checkpoint wire format instead of handing the `Runtime` object across
    /// — the differential suite asserts the two are bit-identical.
    ///
    /// Returns the application's id on the target node together with the target's
    /// deployment outcome.
    ///
    /// # Errors
    ///
    /// Returns an error if the application is unknown on the source node or the
    /// target cannot deploy it.
    pub fn migrate(
        &mut self,
        from: NodeId,
        app: AppId,
        to: NodeId,
        domain: DomainId,
        io_bound: bool,
    ) -> Result<(AppId, DeployOutcome), HvError> {
        self.try_node(to)?;
        let runtime: Runtime = self.try_node_mut(from)?.disconnect(app)?;
        let target = self.node_mut(to);
        let new_id = target.connect(runtime, domain, io_bound);
        let outcome = target.deploy(new_id)?;
        Ok((new_id, outcome))
    }

    /// Migrates a running application from one node to another through the
    /// durable checkpoint **wire format**: the source node suspends and
    /// disconnects the tenant, its entire state is serialized to bytes
    /// ([`Runtime::save_checkpoint`]), a fresh `Runtime` is rebuilt from
    /// those bytes on the target node, and the target deploys it. The byte
    /// stream is exactly what an on-disk checkpoint holds, so cross-node
    /// migration, crash recovery, and the CI golden gate all exercise one
    /// code path — and the result is bit-identical to the in-process
    /// [`Cluster::migrate`].
    ///
    /// Returns the application's id on the target node together with the
    /// target's deployment outcome.
    ///
    /// # Errors
    ///
    /// Returns an error if the application is unknown on the source node,
    /// the checkpoint cannot be rebuilt ([`HvError::Checkpoint`]), or the
    /// target cannot deploy it. On any failure *after* the wire crossing the
    /// tenant is rebuilt from the wire bytes and reconnected (and, if it was
    /// deployed before, redeployed best-effort) on the source node — a failed
    /// migration never loses the tenant.
    pub fn live_migrate(
        &mut self,
        from: NodeId,
        app: AppId,
        to: NodeId,
        domain: DomainId,
        io_bound: bool,
    ) -> Result<(AppId, DeployOutcome), HvError> {
        self.try_node(to)?;
        let (src_domain, src_io, was_deployed) = self.try_node(from)?.slot_meta(app)?;
        let runtime: Runtime = self.node_mut(from).disconnect(app)?;
        // The wire crossing: everything the tenant is becomes bytes...
        let wire = runtime.save_checkpoint();
        drop(runtime);
        // ...and a brand-new runtime (as in a different process) comes back.
        let restored = if self.migration_faults > 0 {
            self.migration_faults -= 1;
            Err(HvError::Injected(format!(
                "live_migrate app={} {}->{}: injected wire-crossing fault",
                app.0, from.0, to.0
            )))
        } else {
            Runtime::restore_checkpoint(&wire).map_err(HvError::from)
        };
        let failure = match restored {
            Ok(restored) => {
                let target = self.node_mut(to);
                let new_id = target.connect(restored, domain, io_bound);
                match target.deploy(new_id) {
                    Ok(outcome) => return self.finish_live_migrate(to, new_id, &wire, outcome),
                    Err(e) => {
                        // Evict the half-migrated tenant from the target; the
                        // wire bytes are the authoritative copy from here on.
                        drop(self.node_mut(to).disconnect(new_id)?);
                        e
                    }
                }
            }
            Err(e) => e,
        };
        // Recovery: the tenant still exists as wire bytes — rebuild it and
        // hand it back to the source node, surfacing the original error.
        let rebuilt = Runtime::restore_checkpoint(&wire)?;
        let source = self.node_mut(from);
        let back_id = source.connect(rebuilt, src_domain, src_io);
        if was_deployed {
            // Best-effort: the fabric slot was freed by the disconnect above,
            // so this succeeds in practice; if it doesn't, the tenant is
            // still connected (software-resident) and nothing is lost.
            let _ = source.deploy(back_id);
        }
        if synergy_telemetry::enabled() {
            let rounds = source.rounds();
            let t = source.telemetry_mut();
            t.registry
                .counter_add(Namespace::Det, "cluster_migration_failures_total", &[], 1);
            t.recorder.record(
                rounds,
                "live_migrate_rollback",
                format!("app={} target_node={} error={}", back_id.0, to.0, failure),
            );
        }
        Err(failure)
    }

    /// Success tail of [`Cluster::live_migrate`]: records the migration
    /// metrics on the node that now hosts the tenant.
    fn finish_live_migrate(
        &mut self,
        to: NodeId,
        new_id: AppId,
        wire: &[u8],
        outcome: DeployOutcome,
    ) -> Result<(AppId, DeployOutcome), HvError> {
        let target = self.node_mut(to);
        // Downtime is the simulated latency of re-admission on the target —
        // deterministic (virtual) time, so it lives in the Det namespace on
        // the node that now hosts the tenant.
        if synergy_telemetry::enabled() {
            let rounds = target.rounds();
            let t = target.telemetry_mut();
            t.registry
                .counter_add(Namespace::Det, "cluster_migrations_total", &[], 1);
            t.registry.counter_add(
                Namespace::Det,
                "cluster_migration_bytes_total",
                &[],
                wire.len() as u64,
            );
            t.registry.counter_add(
                Namespace::Det,
                "cluster_migration_downtime_ns_total",
                &[],
                outcome.latency_ns,
            );
            t.recorder.record(
                rounds,
                "live_migrate_in",
                format!(
                    "app={} bytes={} downtime_ns={}",
                    new_id.0,
                    wire.len(),
                    outcome.latency_ns
                ),
            );
        }
        Ok((new_id, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = r#"
        module Counter(input wire clock, output wire [31:0] out);
            reg [31:0] count = 0;
            always @(posedge clock) count <= count + 1;
            assign out = count;
        endmodule
    "#;

    fn counter_runtime(name: &str) -> Runtime {
        Runtime::new(name, COUNTER, "Counter", "clock").unwrap()
    }

    #[test]
    fn migration_between_heterogeneous_nodes_preserves_state() {
        let mut cluster = Cluster::new();
        let de10 = cluster.add_node(Device::de10());
        let f1 = cluster.add_node(Device::f1());

        let app = cluster
            .node_mut(de10)
            .connect(counter_runtime("mips"), DomainId(1), false);
        cluster.node_mut(de10).deploy(app).unwrap();
        cluster.node_mut(de10).run_round(0.0002).unwrap();
        let before = cluster
            .node(de10)
            .app(app)
            .unwrap()
            .get_bits("count")
            .unwrap()
            .to_u64();
        assert!(before > 0);

        let (new_app, outcome) = cluster.migrate(de10, app, f1, DomainId(1), false).unwrap();
        assert_eq!(outcome.global_clock_hz, 250_000_000);
        let after_migration = cluster
            .node(f1)
            .app(new_app)
            .unwrap()
            .get_bits("count")
            .unwrap()
            .to_u64();
        assert_eq!(after_migration, before, "state is preserved across devices");

        cluster.node_mut(f1).run_round(0.0002).unwrap();
        let after_run = cluster
            .node(f1)
            .app(new_app)
            .unwrap()
            .get_bits("count")
            .unwrap()
            .to_u64();
        assert!(after_run > before);
        // The source node no longer knows the application.
        assert!(cluster.node(de10).app(app).is_err());
    }

    #[test]
    fn live_migrate_matches_in_process_migration_bit_for_bit() {
        let build = || {
            let mut cluster = Cluster::new();
            let de10 = cluster.add_node(Device::de10());
            let f1 = cluster.add_node(Device::f1());
            let app = cluster
                .node_mut(de10)
                .connect(counter_runtime("c"), DomainId(1), false);
            cluster.node_mut(de10).deploy(app).unwrap();
            cluster.node_mut(de10).run_round(0.0002).unwrap();
            (cluster, de10, f1, app)
        };

        let (mut in_proc, de10_a, f1_a, app_a) = build();
        let (mut wire, de10_b, f1_b, app_b) = build();
        let (new_a, out_a) = in_proc
            .migrate(de10_a, app_a, f1_a, DomainId(2), false)
            .unwrap();
        let (new_b, out_b) = wire
            .live_migrate(de10_b, app_b, f1_b, DomainId(2), false)
            .unwrap();
        assert_eq!(out_a, out_b, "deployment outcomes must match");

        // Identical state right after migration, and identical onward
        // execution — the wire crossing is invisible.
        assert_eq!(
            in_proc.node(f1_a).app(new_a).unwrap().peek_state(),
            wire.node(f1_b).app(new_b).unwrap().peek_state(),
        );
        in_proc.node_mut(f1_a).run_round(0.0002).unwrap();
        wire.node_mut(f1_b).run_round(0.0002).unwrap();
        assert_eq!(
            in_proc.node(f1_a).app(new_a).unwrap().peek_state(),
            wire.node(f1_b).app(new_b).unwrap().peek_state(),
        );
        assert_eq!(
            in_proc.node(f1_a).app(new_a).unwrap().now_ns(),
            wire.node(f1_b).app(new_b).unwrap().now_ns(),
        );
    }

    #[test]
    fn failed_live_migrate_reconnects_the_tenant_to_the_source() {
        let mut cluster = Cluster::new();
        let de10 = cluster.add_node(Device::de10());
        // Target too small to deploy anything: the wire crossing succeeds but
        // the target `deploy` fails, which used to drop the tenant forever.
        let tiny = cluster.add_node(Device {
            name: "tiny".into(),
            lut_capacity: 10,
            ff_capacity: 10,
            bram_bits: 10,
            ..Device::de10()
        });

        let app = cluster
            .node_mut(de10)
            .connect(counter_runtime("c"), DomainId(1), false);
        cluster.node_mut(de10).deploy(app).unwrap();
        cluster.node_mut(de10).run_round(0.0002).unwrap();
        let before = cluster
            .node(de10)
            .app(app)
            .unwrap()
            .get_bits("count")
            .unwrap()
            .to_u64();
        assert!(before > 0);

        let err = cluster
            .live_migrate(de10, app, tiny, DomainId(1), false)
            .unwrap_err();
        assert!(matches!(err, HvError::Fabric(_)), "got {err}");

        // The tenant survived the failed migration: back on the source node,
        // state intact, still runnable.
        assert!(cluster.node(tiny).apps().is_empty());
        let homed = cluster.node(de10).apps();
        assert_eq!(homed.len(), 1);
        let back = homed[0];
        let after = cluster
            .node(de10)
            .app(back)
            .unwrap()
            .get_bits("count")
            .unwrap()
            .to_u64();
        assert_eq!(after, before, "state survives the rollback");
        cluster.node_mut(de10).run_round(0.0002).unwrap();
        assert!(
            cluster
                .node(de10)
                .app(back)
                .unwrap()
                .get_bits("count")
                .unwrap()
                .to_u64()
                > before
        );
        assert!(cluster
            .node(de10)
            .flight_dump()
            .contains("live_migrate_rollback"));
    }

    #[test]
    fn injected_migration_fault_rolls_back_then_drains() {
        let mut cluster = Cluster::new();
        let a = cluster.add_node(Device::de10());
        let b = cluster.add_node(Device::de10());
        let app = cluster
            .node_mut(a)
            .connect(counter_runtime("c"), DomainId(1), false);
        cluster.node_mut(a).deploy(app).unwrap();
        cluster.node_mut(a).run_round(0.0002).unwrap();

        cluster.inject_migration_failures(1);
        let err = cluster
            .live_migrate(a, app, b, DomainId(1), false)
            .unwrap_err();
        assert!(matches!(err, HvError::Injected(_)), "got {err}");
        assert_eq!(cluster.node(a).apps().len(), 1);
        assert!(cluster.node(b).apps().is_empty());

        // The fault was consumed: the retry goes through.
        let back = cluster.node(a).apps()[0];
        cluster
            .live_migrate(a, back, b, DomainId(1), false)
            .unwrap();
        assert!(cluster.node(a).apps().is_empty());
        assert_eq!(cluster.node(b).apps().len(), 1);
    }

    #[test]
    fn try_node_returns_typed_errors_for_out_of_range_ids() {
        let mut cluster = Cluster::new();
        let only = cluster.add_node(Device::de10());
        assert!(matches!(
            cluster.try_node(NodeId(7)),
            Err(HvError::UnknownNode(7))
        ));
        assert!(matches!(
            cluster.try_node_mut(NodeId(7)),
            Err(HvError::UnknownNode(7))
        ));
        // A migration towards a bad node fails fast, before the tenant is
        // disturbed on the source.
        let app = cluster
            .node_mut(only)
            .connect(counter_runtime("c"), DomainId(1), false);
        cluster.node_mut(only).deploy(app).unwrap();
        let err = cluster
            .live_migrate(only, app, NodeId(9), DomainId(1), false)
            .unwrap_err();
        assert!(matches!(err, HvError::UnknownNode(9)));
        assert!(cluster.node(only).app(app).is_ok());
    }

    #[test]
    fn shared_cache_spans_nodes_of_the_same_device_type() {
        let mut cluster = Cluster::new();
        let a = cluster.add_node(Device::de10());
        let b = cluster.add_node(Device::de10());
        let app_a = cluster
            .node_mut(a)
            .connect(counter_runtime("x"), DomainId(1), false);
        let first = cluster.node_mut(a).deploy(app_a).unwrap();
        let app_b = cluster
            .node_mut(b)
            .connect(counter_runtime("y"), DomainId(1), false);
        let second = cluster.node_mut(b).deploy(app_b).unwrap();
        assert!(!first.cache_hit);
        assert!(
            second.cache_hit,
            "bitstreams are shared across identical nodes"
        );
    }
}
