//! The cluster control plane: load-aware placement, background rebalancing,
//! periodic fleet checkpoints, seeded fault injection, and crash recovery.
//!
//! The paper's cluster evaluation (§6.1, Figures 9–10) suspends tenants on one
//! node and resumes them on another; [`ControlPlane`] is the loop that *drives*
//! those primitives as a serving system. It owns a [`Cluster`] and advances it
//! in discrete control rounds ([`ControlPlane::step`]):
//!
//! 1. **fault injection** — the armed [`FaultPlan`] (seeded, deterministic)
//!    kills nodes, arms migration failures, and corrupts checkpoint bytes;
//! 2. **crash recovery** — coordinated rollback of the whole fleet to the
//!    newest restorable checkpoint in the ring, relocation of the dead node's
//!    tenants onto survivors, and deterministic replay of the admission /
//!    departure journal plus the missing scheduling rounds;
//! 3. **one scheduling round** on every node;
//! 4. **periodic fleet checkpoints** into a bounded ring;
//! 5. **rebalancing** — when a node's load exceeds the high watermark, victims
//!    are [`Cluster::live_migrate`]d to nodes below the low watermark, with a
//!    virtual-time backoff per tenant on failure.
//!
//! ## Determinism contract
//!
//! Every control decision keys off deterministic inputs only: tenant counts,
//! fabric occupancy, virtual round/tick counters, and the seeded fault plan —
//! never host time, host-ns telemetry, or map iteration over unordered
//! containers. Two control planes driven identically are bit-identical in
//! every decision regardless of [`SchedPolicy`](crate::SchedPolicy).
//!
//! ## Recovery invariants
//!
//! * A compute-bound tenant whose [`ControlConfig::round_tick_cap`] budget
//!   binds executes exactly its DRR grant per round, so its register state
//!   depends only on rounds lived, not on placement. This is what makes
//!   rollback-and-replay converge: a recovered fleet reaches register states
//!   bit-identical to a fleet that never crashed. The cap binds only on a
//!   rung fast enough to reach it within `round_dt`: the fabric, or the
//!   compiled engine (1 MHz × the default 1 ms = 1,000 ticks ≥ the default
//!   256). The interpreter — the default [`synergy_runtime::EnginePolicy`]
//!   — runs at 50 kHz, i.e. 50 ticks a default round, so a tenant left there
//!   is `round_dt`-bound and its state *does* depend on placement.
//!   Convergence therefore holds because every tenant gets its fabric seat
//!   back wherever recovery lands it (admission capacity is never enforced
//!   on a node), or because it sits on a cap-bound rung.
//! * Tenants are identified by **name** across crashes (application ids are
//!   per-node and change on relocation).
//! * A tenant is never silently lost: a failed migration rolls back to the
//!   source node ([`Cluster::live_migrate`]), recovery relocates every tenant
//!   of a dead node (quarantined ones stay quarantined, with a postmortem
//!   noting the crash), and only [`HvError::RecoveryExhausted`] — after the
//!   bounded retry budget, with the journal-backed genesis replay as the
//!   final fallback — can leave the fleet degraded, and even then the loss
//!   ledger names every tenant involved.

use crate::cluster::{Cluster, NodeId};
use crate::hypervisor::{AppId, HvError, Hypervisor};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use synergy_amorphos::DomainId;
use synergy_fpga::Device;
use synergy_runtime::{Runtime, StateSnapshot};

/// Fleet checkpoints retained in the ring (rollback candidates).
const CHECKPOINT_RING: usize = 2;

/// Migrations the rebalancer may make per control round.
const MIGRATIONS_PER_ROUND: usize = 2;

/// Rounds a tenant sits out of rebalancing after a failed migration.
const BACKOFF_ROUNDS: u64 = 4;

/// Restore attempts (ring entries, then genesis replay) before recovery
/// reports [`HvError::RecoveryExhausted`].
const RECOVERY_ATTEMPTS: u32 = 4;

/// Knobs governing the control loop. All figures are virtual (rounds, ticks,
/// permille of capacity) — nothing here depends on host time.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Simulated seconds handed to every node's scheduling round. The
    /// placement-independence invariant above needs
    /// [`ControlConfig::round_tick_cap`] to be the binding budget: the
    /// default 1 ms is 1,000 ticks on the compiled engine (1 MHz) but only
    /// 50 on the interpreter (50 kHz), below the default cap of 256.
    pub round_dt: f64,
    /// Per-tenant DRR tick budget per round (forwarded to every node).
    pub round_tick_cap: u64,
    /// Software tenant capacity per node: an admission rule only.
    /// [`ControlPlane::admit`] skips a node holding this many tenants, and
    /// the load score divides by it. Recovery relocation and migration may
    /// fill a node past it; nodes themselves never check it. `None` is
    /// unlimited, which disables software-load-based rebalancing.
    pub software_capacity: Option<usize>,
    /// Rounds between periodic fleet checkpoints.
    pub checkpoint_interval: u64,
    /// A node whose load permille exceeds this sheds tenants.
    pub high_watermark: u32,
    /// Only nodes below this load permille receive shed tenants.
    pub low_watermark: u32,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            round_dt: 0.001,
            round_tick_cap: 256,
            software_capacity: None,
            checkpoint_interval: 4,
            high_watermark: 800,
            low_watermark: 600,
        }
    }
}

/// Everything needed to (re)build a tenant — admissions are journaled as
/// specs so crash recovery can replay them deterministically.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name — the identity that survives crashes and
    /// migrations (application ids are per-node).
    pub name: String,
    /// Verilog source of the tenant's program.
    pub source: String,
    /// Top module name.
    pub top: String,
    /// Clock input port name.
    pub clock: String,
    /// Protection domain for the AmorphOS hull.
    pub domain: u64,
    /// Whether the tenant contends on the shared IO path. Io-bound tenants
    /// are temporally multiplexed per node, which makes their executed ticks
    /// placement-dependent — keep serving tenants compute-bound when the
    /// bit-identical recovery contract matters.
    pub io_bound: bool,
}

/// One deterministic fault to inject at a control round boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the node: its hypervisor (tenants, fabric state, scheduler) is
    /// dropped on the floor, as a power loss would.
    KillNode(usize),
    /// Arm the next [`Cluster::live_migrate`] to fail after the wire
    /// crossing, exercising the rollback-to-source path.
    FailMigration,
    /// Flip a byte in the newest retained fleet checkpoint, exercising the
    /// fall-back-to-older-checkpoint path of recovery.
    CorruptCheckpoint,
}

/// A [`FaultKind`] scheduled for a specific control round.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Control round (completed-round count) at whose boundary the fault
    /// fires.
    pub round: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of faults. The same seed always yields
/// the same plan, so chaos runs are reproducible bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// The xorshift* generator used across the repo's seeded sweeps — no
/// external crates, stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` at `round`, keeping the plan sorted by round.
    pub fn push(&mut self, round: u64, kind: FaultKind) {
        self.events.push(FaultEvent { round, kind });
        self.events.sort_by_key(|e| e.round);
    }

    /// A deterministic plan for a `rounds`-long run over `nodes` nodes:
    /// a seeded mix of node kills, migration failures, and checkpoint
    /// corruption, spread across the middle of the run (faults in round 0
    /// would precede the first checkpoint and state, which is legal but
    /// uninteresting).
    pub fn seeded(seed: u64, rounds: u64, nodes: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut plan = FaultPlan::default();
        let span = rounds.max(4);
        let faults = 1 + rng.below(3); // 1..=3 faults per plan
        for _ in 0..faults {
            let round = 2 + rng.below(span.saturating_sub(2).max(1));
            let kind = match rng.below(4) {
                0 => FaultKind::FailMigration,
                1 => FaultKind::CorruptCheckpoint,
                _ => FaultKind::KillNode(rng.below(nodes.max(1) as u64) as usize),
            };
            plan.push(round, kind);
        }
        plan
    }

    /// The scheduled faults, sorted by round.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// What happened during one crash-recovery pass.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Control round at which the crash was detected.
    pub round: u64,
    /// Restore attempts consumed (ring entries tried, plus genesis).
    pub attempts: u32,
    /// Round of the checkpoint the fleet rolled back to; `None` when every
    /// retained checkpoint was unrestorable and recovery replayed the full
    /// journal from genesis.
    pub restored_from_round: Option<u64>,
    /// Scheduling rounds re-executed during journal replay.
    pub replayed_rounds: u64,
    /// Tenants alive after recovery.
    pub recovered_tenants: usize,
    /// Tenants relocated off dead nodes onto survivors.
    pub relocated_tenants: usize,
}

/// One entry of the control plane's decision log — observability for tests,
/// benchmarks, and postmortems. Deterministic content only.
#[derive(Debug, Clone)]
pub struct ControlEvent {
    /// Control round the event belongs to.
    pub round: u64,
    /// Machine-readable tag (`admit`, `kill_node`, `recovered`, ...).
    pub tag: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// A tenant as the control plane sees it.
#[derive(Debug, Clone)]
pub struct TenantInfo {
    /// The tenant's durable identity.
    pub name: String,
    /// Node currently hosting it.
    pub node: NodeId,
    /// Its application id on that node (changes across migrations).
    pub app: AppId,
    /// Whether the node has it quarantined.
    pub quarantined: bool,
    /// Whether it currently occupies fabric (vs. software engine).
    pub deployed: bool,
}

/// An admission or departure, journaled for crash replay.
#[derive(Debug, Clone)]
enum JournalOp {
    Admit(TenantSpec),
    Depart(String),
}

#[derive(Debug, Clone)]
struct JournalEntry {
    round: u64,
    op: JournalOp,
}

/// One retained fleet checkpoint: every node's fleet frame, captured at the
/// same round boundary.
struct FleetSnapshot {
    round: u64,
    frames: Vec<Vec<u8>>,
}

/// The cluster control plane. See the module docs for the loop structure and
/// invariants.
pub struct ControlPlane {
    cluster: Cluster,
    cfg: ControlConfig,
    /// Completed scheduling rounds.
    round: u64,
    /// Full admission/departure history from genesis — the final fallback
    /// when every retained checkpoint is unrestorable.
    journal: Vec<JournalEntry>,
    ring: VecDeque<FleetSnapshot>,
    plan: FaultPlan,
    plan_cursor: usize,
    /// Nodes killed by a fault and awaiting recovery.
    crashed: BTreeSet<usize>,
    /// Tenant name → first round it may be picked for rebalancing again.
    backoff: BTreeMap<String, u64>,
    events: Vec<ControlEvent>,
    recoveries: Vec<RecoveryReport>,
    /// Tenants recovery could not rebuild (only non-empty after
    /// [`HvError::RecoveryExhausted`]) — named, never silently dropped.
    lost: Vec<String>,
    migrations: u64,
    migration_failures: u64,
    migration_downtime_ns: u64,
}

impl ControlPlane {
    /// Creates a control plane over an empty cluster with the given knobs.
    pub fn new(cfg: ControlConfig) -> Self {
        let mut cluster = Cluster::new();
        cluster.set_round_tick_cap(cfg.round_tick_cap);
        ControlPlane {
            cluster,
            cfg,
            round: 0,
            journal: Vec::new(),
            ring: VecDeque::new(),
            plan: FaultPlan::none(),
            plan_cursor: 0,
            crashed: BTreeSet::new(),
            backoff: BTreeMap::new(),
            events: Vec::new(),
            recoveries: Vec::new(),
            lost: Vec::new(),
            migrations: 0,
            migration_failures: 0,
            migration_downtime_ns: 0,
        }
    }

    /// Adds a node before serving starts. Nodes are fixed for the lifetime of
    /// the plane (a killed node is reset and rejoins empty — it models a
    /// replacement machine at the same slot).
    pub fn add_node(&mut self, device: Device) -> NodeId {
        self.cluster.add_node(device)
    }

    /// Arms a fault plan. Faults fire at the scheduled round boundaries of
    /// subsequent [`ControlPlane::step`] calls.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.plan_cursor = 0;
    }

    /// Sets the round-scheduling policy on every node. Control decisions and
    /// tenant states are bit-identical across policies — the chaos
    /// differential suite pins this.
    pub fn set_sched_policy(&mut self, sched: crate::sched::SchedPolicy) {
        self.cluster.set_sched_policy(sched);
    }

    /// Sets the software-engine selection policy on every node.
    pub fn set_engine_policy(&mut self, policy: synergy_runtime::EnginePolicy) {
        self.cluster.set_engine_policy(policy);
    }

    /// Read access to the underlying cluster (tests and benchmarks).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Completed scheduling rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The decision log.
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Every crash-recovery pass performed so far.
    pub fn recoveries(&self) -> &[RecoveryReport] {
        &self.recoveries
    }

    /// Tenants recovery could not rebuild (empty unless a step returned
    /// [`HvError::RecoveryExhausted`]).
    pub fn lost_tenants(&self) -> &[String] {
        &self.lost
    }

    /// Successful live migrations driven by rebalancing.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Failed (rolled-back) migrations, injected or organic.
    pub fn migration_failures(&self) -> u64 {
        self.migration_failures
    }

    /// Total simulated downtime of rebalancing migrations: the virtual
    /// latency of re-admission on the target node, summed over successful
    /// migrations (deterministic nanoseconds, not host time).
    pub fn migration_downtime_ns(&self) -> u64 {
        self.migration_downtime_ns
    }

    fn log(&mut self, tag: &'static str, detail: String) {
        self.events.push(ControlEvent {
            round: self.round,
            tag,
            detail,
        });
    }

    /// Deterministic load score for a node, in permille: the software side
    /// (tenants vs. capacity) and the fabric side (LUT occupancy) each map
    /// to 0..=1000, and the node's load is the max of the two.
    fn load_permille(&self, node: &Hypervisor) -> u32 {
        let soft = match self.cfg.software_capacity {
            Some(cap) if cap > 0 => ((node.tenant_count() * 1000) / cap) as u32,
            _ => 0,
        };
        let hard = (node.fabric_utilization().lut_fraction * 1000.0) as u32;
        soft.max(hard)
    }

    /// Nodes ordered best-first for admission: lowest load, then fewest
    /// recent round ticks, then lowest index — all deterministic.
    fn placement_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cluster.len()).collect();
        order.sort_by_key(|&i| {
            let node = self.cluster.node(NodeId(i));
            (
                self.load_permille(node),
                node.last_round_ticks(),
                node.tenant_count(),
                i,
            )
        });
        order
    }

    /// Places a tenant built from `spec` on the best-scored node below
    /// [`ControlConfig::software_capacity`] — the one place that capacity is
    /// checked. The tenant is then offered to the fabric; if no fabric slot
    /// fits it stays software-resident (the paper's synthesis-latency-hiding
    /// shape).
    fn place(&mut self, spec: &TenantSpec) -> Result<(NodeId, AppId), HvError> {
        let runtime = Runtime::new(spec.name.clone(), &spec.source, &spec.top, &spec.clock)?;
        let cap = self.cfg.software_capacity.unwrap_or(usize::MAX);
        let order = self.placement_order();
        let count = |i: usize| self.cluster.node(NodeId(i)).tenant_count();
        let Some(idx) = order.iter().copied().find(|&i| count(i) < cap) else {
            return Err(HvError::SoftwareCapacity {
                tenants: order.last().map_or(0, |&i| count(i)),
                capacity: self.cfg.software_capacity.unwrap_or(0),
            });
        };
        let node = self.cluster.node_mut(NodeId(idx));
        let app = node.connect(runtime, DomainId(spec.domain), spec.io_bound);
        // Fabric is best-effort at admission: a rejection leaves the tenant
        // on the software engine.
        let seat = match node.deploy(app) {
            Ok(_) => "fabric".to_string(),
            Err(e) => format!("software ({})", e),
        };
        self.log(
            "admit",
            format!("tenant={} node={} app={} {}", spec.name, idx, app.0, seat),
        );
        Ok((NodeId(idx), app))
    }

    /// Admits a new tenant: places it on the best-scored node with room
    /// (lowest load, below [`ControlConfig::software_capacity`]) and
    /// journals the admission for crash replay.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::Compile`] for an unparseable spec and
    /// [`HvError::SoftwareCapacity`] when every node is full.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<(NodeId, AppId), HvError> {
        let placed = self.place(&spec)?;
        self.journal.push(JournalEntry {
            round: self.round,
            op: JournalOp::Admit(spec),
        });
        Ok(placed)
    }

    /// Finds a tenant by name. Deterministic scan: node order, then
    /// application-id order.
    pub fn find_tenant(&self, name: &str) -> Option<(NodeId, AppId)> {
        for id in self.cluster.node_ids() {
            let node = self.cluster.node(id);
            for app in node.apps() {
                if node.app(app).map(|r| r.name() == name).unwrap_or(false) {
                    return Some((id, app));
                }
            }
        }
        None
    }

    /// Every tenant in the fleet, in deterministic (node, app) order.
    pub fn tenants(&self) -> Vec<TenantInfo> {
        let mut out = Vec::new();
        for id in self.cluster.node_ids() {
            let node = self.cluster.node(id);
            for app in node.apps() {
                let Ok(rt) = node.app(app) else { continue };
                let deployed = node
                    .slot_meta(app)
                    .map(|(_, _, deployed)| deployed)
                    .unwrap_or(false);
                out.push(TenantInfo {
                    name: rt.name().to_string(),
                    node: id,
                    app,
                    quarantined: node.quarantine_report(app).is_some(),
                    deployed,
                });
            }
        }
        out
    }

    /// The register state of the named tenant, or `None` if it is not in the
    /// fleet. The chaos differential compares these across fleets.
    pub fn tenant_state(&self, name: &str) -> Option<StateSnapshot> {
        let (node, app) = self.find_tenant(name)?;
        self.cluster
            .node(node)
            .app(app)
            .ok()
            .map(|r| r.peek_state())
    }

    fn remove_tenant(&mut self, name: &str) -> Result<(), HvError> {
        let (node, app) = self
            .find_tenant(name)
            .ok_or_else(|| HvError::Restore(format!("unknown tenant '{}'", name)))?;
        drop(self.cluster.node_mut(node).disconnect(app)?);
        Ok(())
    }

    /// Removes a tenant from the fleet and journals the departure.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::Restore`] if no tenant has that name.
    pub fn depart(&mut self, name: &str) -> Result<(), HvError> {
        self.remove_tenant(name)?;
        self.journal.push(JournalEntry {
            round: self.round,
            op: JournalOp::Depart(name.to_string()),
        });
        self.log("depart", format!("tenant={}", name));
        Ok(())
    }

    /// Advances the fleet by one control round: faults, recovery, one
    /// scheduling round everywhere, periodic checkpoint, rebalancing.
    ///
    /// # Errors
    ///
    /// Individual tenant failures quarantine, and node crashes recover —
    /// neither surfaces here. An error means the fleet itself degraded:
    /// [`HvError::RecoveryExhausted`] when no retained checkpoint nor the
    /// genesis replay could rebuild the fleet (the loss ledger names the
    /// casualties), or a scheduling-round error bubbled up from a node.
    pub fn step(&mut self) -> Result<(), HvError> {
        self.apply_faults();
        if !self.crashed.is_empty() {
            self.recover()?;
        }
        for id in self.cluster.node_ids() {
            self.cluster.node_mut(id).run_round(self.cfg.round_dt)?;
        }
        self.round += 1;
        if self.cfg.checkpoint_interval > 0
            && self.round.is_multiple_of(self.cfg.checkpoint_interval)
        {
            self.capture_checkpoint();
        }
        self.rebalance();
        Ok(())
    }

    /// Runs `rounds` control rounds (no churn — callers drive admissions and
    /// departures between steps).
    ///
    /// # Errors
    ///
    /// Propagates the first [`ControlPlane::step`] error.
    pub fn run(&mut self, rounds: u64) -> Result<(), HvError> {
        for _ in 0..rounds {
            self.step()?;
        }
        Ok(())
    }

    fn apply_faults(&mut self) {
        while self.plan_cursor < self.plan.events.len()
            && self.plan.events[self.plan_cursor].round <= self.round
        {
            let event = self.plan.events[self.plan_cursor].clone();
            self.plan_cursor += 1;
            match event.kind {
                FaultKind::KillNode(idx) => {
                    if idx < self.cluster.len() && self.cluster.reset_node(NodeId(idx)).is_ok() {
                        self.crashed.insert(idx);
                        self.log("kill_node", format!("node={}", idx));
                    }
                }
                FaultKind::FailMigration => {
                    self.cluster.inject_migration_failures(1);
                    self.log("fail_migration", "armed".to_string());
                }
                FaultKind::CorruptCheckpoint => {
                    // Flip a byte in the middle of the first node's frame:
                    // past the magic/version header, inside the payload the
                    // CRC covers.
                    let hit = self.ring.back_mut().and_then(|snap| {
                        snap.frames.first_mut().map(|frame| {
                            let at = frame.len() / 2;
                            frame[at] ^= 0xFF;
                            (snap.round, at)
                        })
                    });
                    match hit {
                        Some((round, at)) => {
                            self.log("corrupt_checkpoint", format!("round={} byte={}", round, at))
                        }
                        None => {
                            self.log("corrupt_checkpoint", "no checkpoint retained".to_string())
                        }
                    }
                }
            }
        }
    }

    fn capture_checkpoint(&mut self) {
        let frames: Vec<Vec<u8>> = self
            .cluster
            .node_ids()
            .iter()
            .map(|&id| self.cluster.node(id).checkpoint_fleet())
            .collect();
        let bytes: usize = frames.iter().map(Vec::len).sum();
        self.ring.push_back(FleetSnapshot {
            round: self.round,
            frames,
        });
        while self.ring.len() > CHECKPOINT_RING {
            self.ring.pop_front();
        }
        self.log(
            "checkpoint",
            format!("round={} bytes={}", self.round, bytes),
        );
    }

    /// Coordinated crash recovery: rollback → relocate → replay. Tries ring
    /// checkpoints newest-first, then a genesis replay of the full journal;
    /// each candidate costs one of [`RECOVERY_ATTEMPTS`].
    fn recover(&mut self) -> Result<(), HvError> {
        let dead: Vec<usize> = std::mem::take(&mut self.crashed).into_iter().collect();
        let target = self.round;
        let mut attempts = 0u32;
        let mut last_err: Option<HvError> = None;

        // Candidate rollback points: ring entries newest-first, then `None`
        // (genesis: empty fleet + full journal replay).
        let mut candidates: Vec<Option<usize>> = (0..self.ring.len()).rev().map(Some).collect();
        candidates.push(None);

        for candidate in candidates {
            if attempts >= RECOVERY_ATTEMPTS {
                break;
            }
            attempts += 1;
            match self.try_recover_from(candidate, &dead, target) {
                Ok(mut report) => {
                    report.attempts = attempts;
                    self.log(
                        "recovered",
                        format!(
                            "dead={:?} from={:?} replayed={} tenants={}",
                            dead,
                            report.restored_from_round,
                            report.replayed_rounds,
                            report.recovered_tenants
                        ),
                    );
                    self.recoveries.push(report);
                    return Ok(());
                }
                Err(e) => {
                    self.log(
                        "recovery_attempt_failed",
                        format!("candidate={:?} error={}", candidate, e),
                    );
                    last_err = Some(e);
                }
            }
        }

        // Exhausted: the fleet keeps serving whatever survived the last
        // attempt, and every tenant the journal says should exist but does
        // not is recorded by name — degradation, not silent loss.
        let present: BTreeSet<String> = self.tenants().into_iter().map(|t| t.name).collect();
        for name in self.expected_tenants(target) {
            if !present.contains(&name) {
                self.lost.push(name);
            }
        }
        let detail = last_err
            .map(|e| e.to_string())
            .unwrap_or_else(|| "no rollback candidates".to_string());
        self.log(
            "recovery_exhausted",
            format!("attempts={} lost={:?}", attempts, self.lost),
        );
        Err(HvError::RecoveryExhausted { attempts, detail })
    }

    /// Tenant names the journal implies should be alive after `target`
    /// completed rounds.
    fn expected_tenants(&self, target: u64) -> Vec<String> {
        let mut alive: BTreeSet<String> = BTreeSet::new();
        for entry in &self.journal {
            if entry.round > target {
                break;
            }
            match &entry.op {
                JournalOp::Admit(spec) => {
                    alive.insert(spec.name.clone());
                }
                JournalOp::Depart(name) => {
                    alive.remove(name);
                }
            }
        }
        alive.into_iter().collect()
    }

    /// One recovery attempt from `candidate` (a ring index, or `None` for
    /// genesis). On error the fleet is left partially rolled back; the next
    /// attempt resets everything again before restoring.
    fn try_recover_from(
        &mut self,
        candidate: Option<usize>,
        dead: &[usize],
        target: u64,
    ) -> Result<RecoveryReport, HvError> {
        // Rollback: every node starts from scratch — recovery is a
        // fleet-wide coordinated restore, not a per-node patch.
        for id in self.cluster.node_ids() {
            self.cluster.reset_node(id)?;
        }

        let mut relocated = 0usize;
        let snap_round = match candidate {
            Some(idx) => {
                let round = self.ring[idx].round;
                // Survivors first (restore requires an empty node), then the
                // dead nodes' tenants drain into them.
                for i in 0..self.cluster.len() {
                    if dead.contains(&i) {
                        continue;
                    }
                    let frame = self.ring[idx].frames[i].clone();
                    self.cluster.node_mut(NodeId(i)).restore_fleet(&frame)?;
                    // Quarantine postmortems are observability and are not
                    // on the wire; note the gap rather than leaving the
                    // report empty.
                    let node = self.cluster.node_mut(NodeId(i));
                    for app in node.quarantined() {
                        node.force_quarantine(
                            app,
                            format!(
                                "postmortem lost in crash recovery \
                                 (restored from fleet checkpoint at round {})",
                                round
                            ),
                        )?;
                    }
                }
                for &i in dead {
                    // Restore-on-another-node: the dead node's frame is
                    // rebuilt off to the side and its tenants relocate.
                    let frame = self.ring[idx].frames[i].clone();
                    relocated += self.relocate_frame(&frame, i, dead)?;
                }
                Some(round)
            }
            None => None,
        };

        // Replay: journal operations and scheduling rounds from the rollback
        // point to the crash round, in the original order. Tenant state
        // depends only on rounds lived, so replayed placement decisions are
        // free to differ from the original run.
        let from = snap_round.unwrap_or(0);
        let mut cursor = 0usize;
        let journal = std::mem::take(&mut self.journal);
        let replay = (|| -> Result<(), HvError> {
            for r in from..=target {
                while cursor < journal.len() && journal[cursor].round < r {
                    cursor += 1;
                }
                while cursor < journal.len() && journal[cursor].round == r {
                    match &journal[cursor].op {
                        JournalOp::Admit(spec) => {
                            // Ops tagged `< from` are inside the checkpoint
                            // (skipped by the cursor); a name that somehow
                            // already exists (depart + re-admit in one
                            // round) is left alone.
                            if self.find_tenant(&spec.name).is_none() {
                                self.place(spec)?;
                            }
                            cursor += 1;
                        }
                        JournalOp::Depart(name) => {
                            if self.find_tenant(name).is_some() {
                                self.remove_tenant(name)?;
                            }
                            cursor += 1;
                        }
                    }
                }
                if r == target {
                    break;
                }
                for id in self.cluster.node_ids() {
                    self.cluster.node_mut(id).run_round(self.cfg.round_dt)?;
                }
            }
            Ok(())
        })();
        self.journal = journal;
        replay?;

        Ok(RecoveryReport {
            round: target,
            attempts: 0, // filled by the caller
            restored_from_round: snap_round,
            replayed_rounds: target - from,
            recovered_tenants: self.tenants().len(),
            relocated_tenants: relocated,
        })
    }

    /// Rebuilds a dead node's fleet frame in a scratch hypervisor and drains
    /// every tenant onto surviving nodes. Quarantined tenants stay
    /// quarantined, with a postmortem naming the crash.
    fn relocate_frame(
        &mut self,
        frame: &[u8],
        dead_idx: usize,
        dead: &[usize],
    ) -> Result<usize, HvError> {
        let device = self.cluster.node(NodeId(dead_idx)).device().clone();
        let mut scratch = Hypervisor::with_cache(device, self.cluster.cache().clone());
        let apps = scratch.restore_fleet(frame)?;
        let mut moved = 0usize;
        for app in apps {
            let (domain, io_bound, was_deployed) = scratch.slot_meta(app)?;
            let quarantined = scratch.quarantine_report(app).is_some();
            let runtime = scratch.disconnect(app)?;
            let name = runtime.name().to_string();
            // Deterministic survivor choice: fewest tenants, lowest index.
            let survivor = self
                .cluster
                .node_ids()
                .into_iter()
                .filter(|id| !dead.contains(&id.0))
                .min_by_key(|&id| (self.cluster.node(id).tenant_count(), id.0))
                // Every node died at once: node 0 doubles as the survivor.
                .unwrap_or(NodeId(0));
            let target = self.cluster.node_mut(survivor);
            let new_id = target.connect(runtime, domain, io_bound);
            if was_deployed {
                // Best-effort: with no fabric room on the survivor the
                // tenant stays on its software engine, which is bit-exact
                // only on a cap-bound rung (not the 50 kHz interpreter).
                let _ = target.deploy(new_id);
            }
            if quarantined {
                target.force_quarantine(
                    new_id,
                    format!(
                        "postmortem lost when node {} crashed; \
                         restored from fleet checkpoint",
                        dead_idx
                    ),
                )?;
            }
            self.log(
                "relocate",
                format!(
                    "tenant={} from_node={} to_node={}",
                    name, dead_idx, survivor.0
                ),
            );
            moved += 1;
        }
        Ok(moved)
    }

    /// Sheds load from nodes above the high watermark onto nodes below the
    /// low watermark via live migration, bounded per round, with per-tenant
    /// backoff after failures.
    fn rebalance(&mut self) {
        self.backoff.retain(|_, until| *until > self.round);
        let mut budget = MIGRATIONS_PER_ROUND;
        for idx in 0..self.cluster.len() {
            if budget == 0 {
                break;
            }
            loop {
                if budget == 0 {
                    break;
                }
                let load = self.load_permille(self.cluster.node(NodeId(idx)));
                if load <= self.cfg.high_watermark {
                    break;
                }
                let Some(target) = self
                    .cluster
                    .node_ids()
                    .into_iter()
                    .filter(|&id| {
                        id.0 != idx
                            && self.load_permille(self.cluster.node(id)) < self.cfg.low_watermark
                    })
                    .min_by_key(|&id| (self.load_permille(self.cluster.node(id)), id.0))
                else {
                    break;
                };
                // Victim: the newest non-quarantined tenant not in backoff
                // (highest app id — deterministic, and biased towards tenants
                // with the least accumulated placement history).
                let node = self.cluster.node(NodeId(idx));
                let victim = node
                    .apps()
                    .into_iter()
                    .rev()
                    .filter(|&app| node.quarantine_report(app).is_none())
                    .find(|&app| {
                        node.app(app)
                            .map(|r| !self.backoff.contains_key(r.name()))
                            .unwrap_or(false)
                    });
                let Some(victim) = victim else { break };
                let Ok((domain, io_bound, _)) = node.slot_meta(victim) else {
                    break;
                };
                let name = node
                    .app(victim)
                    .map(|r| r.name().to_string())
                    .unwrap_or_default();
                match self
                    .cluster
                    .live_migrate(NodeId(idx), victim, target, domain, io_bound)
                {
                    Ok((new_id, outcome)) => {
                        self.migrations += 1;
                        self.migration_downtime_ns += outcome.latency_ns;
                        budget -= 1;
                        self.log(
                            "rebalance",
                            format!(
                                "tenant={} from={} to={} app={}",
                                name, idx, target.0, new_id.0
                            ),
                        );
                    }
                    Err(e) => {
                        self.migration_failures += 1;
                        self.backoff
                            .insert(name.clone(), self.round + BACKOFF_ROUNDS);
                        self.log(
                            "rebalance_failed",
                            format!("tenant={} from={} to={} error={}", name, idx, target.0, e),
                        );
                        break;
                    }
                }
            }
        }
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

    fn spec(name: &str, domain: u64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            source: COUNTER.to_string(),
            top: "Counter".to_string(),
            clock: "clock".to_string(),
            domain,
            io_bound: false,
        }
    }

    fn plane(nodes: usize, capacity: usize) -> ControlPlane {
        let mut cp = ControlPlane::new(ControlConfig {
            software_capacity: Some(capacity),
            checkpoint_interval: 2,
            ..ControlConfig::default()
        });
        for _ in 0..nodes {
            cp.add_node(Device::de10());
        }
        cp
    }

    /// Tenant register states keyed by name — what the chaos differential
    /// compares (`StateSnapshot::time` is placement-dependent ns; the
    /// register values are not).
    fn states(cp: &ControlPlane) -> BTreeMap<String, BTreeMap<String, synergy_interp::Value>> {
        cp.tenants()
            .into_iter()
            .map(|t| {
                let snap = cp.tenant_state(&t.name).expect("tenant state");
                (t.name, snap.values)
            })
            .collect()
    }

    #[test]
    fn admission_spreads_tenants_across_nodes() {
        let mut cp = plane(2, 8);
        for i in 0..4 {
            cp.admit(spec(&format!("t{}", i), i + 1)).unwrap();
        }
        assert_eq!(cp.cluster().node(NodeId(0)).tenant_count(), 2);
        assert_eq!(cp.cluster().node(NodeId(1)).tenant_count(), 2);
    }

    #[test]
    fn admission_rejects_only_when_every_node_is_full() {
        let mut cp = plane(2, 1);
        cp.admit(spec("a", 1)).unwrap();
        cp.admit(spec("b", 2)).unwrap();
        let err = cp.admit(spec("c", 3)).unwrap_err();
        assert!(matches!(err, HvError::SoftwareCapacity { .. }), "got {err}");
        assert_eq!(cp.tenants().len(), 2);
    }

    #[test]
    fn a_design_no_fabric_fits_is_admitted_in_software_and_keeps_ticking() {
        let tiny = Device {
            name: "tiny".into(),
            lut_capacity: 10,
            ff_capacity: 10,
            bram_bits: 10,
            ..Device::de10()
        };
        let mut cp = ControlPlane::new(ControlConfig::default());
        cp.add_node(tiny.clone());
        cp.add_node(tiny);
        cp.admit(spec("first", 1)).unwrap();
        // Node 0 now holds a tenant, so node 1 scores best.
        let (node, app) = cp.admit(spec("big", 2)).unwrap();
        assert_eq!(node, NodeId(1));
        let admit = cp.events().last().unwrap();
        assert_eq!(admit.tag, "admit");
        assert!(
            admit
                .detail
                .starts_with("tenant=big node=1 app=1 software (fabric error"),
            "{}",
            admit.detail
        );
        assert!(cp.tenants().iter().all(|t| !t.deployed));
        let count = |cp: &ControlPlane| {
            let rt = cp.cluster().node(node).app(app).unwrap();
            rt.get_bits("count").unwrap().to_u64()
        };
        let before = count(&cp);
        cp.run(2).unwrap();
        assert!(count(&cp) > before, "the software tenant keeps ticking");
    }

    #[test]
    fn crash_recovery_converges_to_the_never_crashed_fleet() {
        let drive = |plan: FaultPlan| {
            let mut cp = plane(2, 8);
            cp.set_fault_plan(plan);
            for i in 0..4 {
                cp.admit(spec(&format!("t{}", i), i + 1)).unwrap();
            }
            cp.run(3).unwrap();
            cp.admit(spec("late", 9)).unwrap();
            cp.depart("t1").unwrap();
            cp.run(5).unwrap();
            cp
        };

        let reference = drive(FaultPlan::none());
        let mut plan = FaultPlan::none();
        plan.push(5, FaultKind::KillNode(0));
        let chaos = drive(plan);

        assert_eq!(chaos.recoveries().len(), 1);
        assert!(chaos.lost_tenants().is_empty());
        let report = &chaos.recoveries()[0];
        assert_eq!(report.restored_from_round, Some(4));
        assert!(report.relocated_tenants > 0);
        assert_eq!(states(&reference), states(&chaos));
    }

    #[test]
    fn a_tenant_panic_is_a_tenant_fault_to_the_control_plane() {
        let mut cp = plane(1, 8);
        for name in ["a", "victim", "b"] {
            cp.admit(spec(name, 1)).unwrap();
        }
        cp.run(2).unwrap();
        // One round in which the victim's engine panics on its node...
        let dt = cp.cfg.round_dt;
        cp.cluster
            .node_mut(NodeId(0))
            .run_round_with(dt, |rt, dt_ns, budget| {
                assert!(rt.name() != "victim", "engine bug");
                crate::hypervisor::run_round_job(rt, dt_ns, budget)
            })
            .unwrap();
        // ...and the plane keeps serving: the victim is still a tenant, in
        // quarantine, through a checkpoint (round 4) and onward rounds.
        let before = states(&cp);
        cp.run(2).unwrap();
        let info = cp.tenants();
        let quarantined: Vec<&str> = info
            .iter()
            .filter(|t| t.quarantined)
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!((info.len(), quarantined), (3, vec!["victim"]));
        let after = states(&cp);
        assert_eq!(
            after["victim"], before["victim"],
            "quarantined tenants idle"
        );
        assert_ne!(after["a"], before["a"], "siblings keep ticking");
        assert!(cp.lost_tenants().is_empty() && cp.recoveries().is_empty());
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_the_older_one() {
        let drive = |plan: FaultPlan| {
            let mut cp = plane(2, 8);
            cp.set_fault_plan(plan);
            for i in 0..3 {
                cp.admit(spec(&format!("t{}", i), i + 1)).unwrap();
            }
            cp.run(7).unwrap();
            cp
        };

        let reference = drive(FaultPlan::none());
        let mut plan = FaultPlan::none();
        // Checkpoints land after rounds 2, 4, 6 (interval 2, history 2).
        plan.push(5, FaultKind::CorruptCheckpoint); // corrupts the round-4 entry
        plan.push(5, FaultKind::KillNode(1));
        let chaos = drive(plan);

        let report = &chaos.recoveries()[0];
        assert!(
            report.attempts >= 2,
            "first attempt must fail on the corrupt frame"
        );
        assert_eq!(report.restored_from_round, Some(2));
        assert!(chaos.lost_tenants().is_empty());
        assert_eq!(states(&reference), states(&chaos));
    }

    #[test]
    fn every_checkpoint_corrupt_recovers_through_genesis_replay() {
        let drive = |plan: FaultPlan| {
            let mut cp = plane(2, 8);
            cp.set_fault_plan(plan);
            for i in 0..3 {
                cp.admit(spec(&format!("t{}", i), i + 1)).unwrap();
            }
            cp.run(4).unwrap();
            cp
        };

        let reference = drive(FaultPlan::none());
        let mut plan = FaultPlan::none();
        // One retained checkpoint (round 2) by round 3; corrupt it, then
        // kill a node: only the journal can rebuild the fleet.
        plan.push(3, FaultKind::CorruptCheckpoint);
        plan.push(3, FaultKind::KillNode(0));
        let chaos = drive(plan);

        let report = &chaos.recoveries()[0];
        assert_eq!(report.restored_from_round, None, "genesis replay");
        assert!(chaos.lost_tenants().is_empty());
        assert_eq!(states(&reference), states(&chaos));
    }

    #[test]
    fn injected_migration_failure_backs_off_and_retries_later() {
        let mut cp = ControlPlane::new(ControlConfig {
            software_capacity: Some(4),
            high_watermark: 700,
            low_watermark: 500,
            ..ControlConfig::default()
        });
        cp.add_node(Device::de10());
        cp.add_node(Device::de10());
        // Overload node 0 past the high watermark (3/4 = 750‰) while node 1
        // stays empty, then arm a migration fault: the first rebalance
        // attempt fails (tenant rolled back), and the same tenant moves once
        // its backoff is over.
        for i in 0..3 {
            let (node, _) = cp.admit(spec(&format!("t{}", i), i + 1)).unwrap();
            // Admission alternates nodes; drag everyone onto node 0 for the
            // overload setup via the journal-transparent primitive.
            if node != NodeId(0) {
                let (_, app) = cp.find_tenant(&format!("t{}", i)).unwrap();
                cp.cluster
                    .live_migrate(node, app, NodeId(0), DomainId(i + 1), false)
                    .unwrap();
            }
        }
        // Only the newest tenant is a rebalancing victim, so nothing else
        // moves while it backs off.
        for name in ["t0", "t1"] {
            let (node, app) = cp.find_tenant(name).unwrap();
            let hv = cp.cluster.node_mut(node);
            hv.force_quarantine(app, String::new()).unwrap();
        }
        let mut plan = FaultPlan::none();
        plan.push(0, FaultKind::FailMigration);
        cp.set_fault_plan(plan);
        cp.run(1 + BACKOFF_ROUNDS + 2).unwrap();
        let moves: Vec<(u64, &str, &str)> = cp
            .events()
            .iter()
            .filter(|e| e.tag.starts_with("rebalance"))
            .map(|e| (e.round, e.tag, e.detail.split(' ').next().unwrap()))
            .collect();
        assert_eq!(
            moves,
            [
                (1, "rebalance_failed", "tenant=t2"),
                (1 + BACKOFF_ROUNDS, "rebalance", "tenant=t2"),
            ]
        );
        assert_eq!((cp.migration_failures(), cp.migrations()), (1, 1));
        assert_eq!(cp.tenants().len(), 3, "no tenant lost on the way");
        assert!(
            cp.cluster().node(NodeId(0)).tenant_count() <= 2,
            "node 0 shed load"
        );
    }

    #[test]
    fn seeded_fault_plans_are_reproducible() {
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, 20, 4);
            let b = FaultPlan::seeded(seed, 20, 4);
            assert_eq!(a.events().len(), b.events().len());
            for (x, y) in a.events().iter().zip(b.events()) {
                assert_eq!(x.round, y.round);
                assert_eq!(x.kind, y.kind);
            }
            assert!(!a.events().is_empty());
            assert!(a.events().windows(2).all(|w| w[0].round <= w[1].round));
        }
    }
}
