//! The SYNERGY hypervisor (§4 of the paper).
//!
//! The hypervisor sits between runtime instances and the physical fabric. Each
//! instance's compiler connects to the hypervisor, ships the source of its
//! transformed sub-program, and receives an engine identifier; the hypervisor
//! coalesces every connected sub-program into a single monolithic design, places it
//! on the fabric, registers it with the AmorphOS hull, and schedules ABI requests. Destructive
//! events (recompiling the combined program) go through the state-safe handshake of
//! Figure 7: every connected instance saves its state between logical clock ticks
//! before the device is reprogrammed and restores it afterwards.
//!
//! Spatial multiplexing falls out of coalescing; temporal multiplexing serialises
//! instances that contend on a shared IO path (Figure 11); and co-tenancy can lower
//! the shared global clock (Figure 12).

use crate::sched::{self, DeficitRoundRobin, PoolStats, SchedPolicy};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use synergy_amorphos::{DomainId, Hull, HullError, MorphletId, Quiescence};
use synergy_fpga::{Bitstream, BitstreamCache, Device, Fabric, FabricError, LoadOutcome, SimClock};
use synergy_runtime::{CheckpointError, EnginePolicy, ExecMode, RunReport, Runtime, RuntimeEvent};
use synergy_snapshot::{decode_frame_of, Reader, SnapshotError, Writer, KIND_FLEET};
use synergy_telemetry::{Namespace, Registry, Telemetry, POW2_BUCKETS};
use synergy_vlog::{VlogError, VlogResult};

/// Identifier the hypervisor assigns to a connected application instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppId(pub u64);

/// Identifier for an engine placed on the fabric (step 3 of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EngineId(pub u64);

/// Errors raised by hypervisor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HvError {
    /// The application id is not connected.
    UnknownApp(u64),
    /// The node id does not name a node of the cluster (see
    /// [`crate::Cluster::try_node`]).
    UnknownNode(usize),
    /// Every node is at the control plane's software tenant capacity
    /// ([`crate::ControlConfig::software_capacity`]): what
    /// [`crate::ControlPlane::admit`] returns when no node has room.
    SoftwareCapacity {
        /// Tenants connected to the last node the admission tried.
        tenants: usize,
        /// The configured per-node capacity.
        capacity: usize,
    },
    /// A deterministic fault injected by a chaos plan (see
    /// [`crate::FaultPlan`]); carries the injection site.
    Injected(String),
    /// Crash recovery ran out of restorable checkpoints or retry budget;
    /// the fleet keeps serving but the dead node's tenants could not be
    /// rebuilt (each is recorded in the control plane's loss ledger —
    /// never silently dropped).
    RecoveryExhausted {
        /// Recovery attempts made before giving up.
        attempts: u32,
        /// The last underlying failure, rendered.
        detail: String,
    },
    /// The fabric rejected the placement.
    Fabric(FabricError),
    /// The protection layer rejected the operation.
    Hull(HullError),
    /// Compilation of the sub-program failed.
    Compile(VlogError),
    /// The application is not currently deployed to hardware.
    NotDeployed(u64),
    /// A durable checkpoint could not be decoded or rebuilt
    /// (see [`synergy_runtime::CheckpointError`]).
    Checkpoint(CheckpointError),
    /// A fleet restore was attempted in an invalid configuration (e.g. into
    /// a hypervisor that already has connected tenants).
    Restore(String),
    /// A checkpointed tenant that was deployed to hardware no longer fits on
    /// the restoring device — a checkpoint taken on a large device (`f1`)
    /// must not silently land in software when restored onto a small one
    /// (`de10`); the caller decides whether to restore elsewhere.
    RestoreCapacity {
        /// The tenant that failed re-admission.
        app: u64,
        /// The device that rejected it.
        device: String,
        /// Human-readable shortfall description.
        detail: String,
    },
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvError::UnknownApp(id) => write!(f, "unknown application {}", id),
            HvError::UnknownNode(id) => write!(f, "unknown node {}", id),
            HvError::SoftwareCapacity { tenants, capacity } => write!(
                f,
                "node is at software capacity ({} tenants, capacity {})",
                tenants, capacity
            ),
            HvError::Injected(site) => write!(f, "injected fault: {}", site),
            HvError::RecoveryExhausted { attempts, detail } => write!(
                f,
                "crash recovery exhausted after {} attempt(s): {}",
                attempts, detail
            ),
            HvError::Fabric(e) => write!(f, "fabric error: {}", e),
            HvError::Hull(e) => write!(f, "protection error: {}", e),
            HvError::Compile(e) => write!(f, "compilation error: {}", e),
            HvError::NotDeployed(id) => write!(f, "application {} is not deployed", id),
            HvError::Checkpoint(e) => write!(f, "checkpoint error: {}", e),
            HvError::Restore(what) => write!(f, "fleet restore rejected: {}", what),
            HvError::RestoreCapacity {
                app,
                device,
                detail,
            } => write!(
                f,
                "checkpointed application {} does not fit device '{}': {}",
                app, device, detail
            ),
        }
    }
}

impl std::error::Error for HvError {}

impl From<CheckpointError> for HvError {
    fn from(e: CheckpointError) -> Self {
        HvError::Checkpoint(e)
    }
}

impl From<SnapshotError> for HvError {
    fn from(e: SnapshotError) -> Self {
        HvError::Checkpoint(CheckpointError::Decode(e))
    }
}

impl From<FabricError> for HvError {
    fn from(e: FabricError) -> Self {
        HvError::Fabric(e)
    }
}

impl From<HullError> for HvError {
    fn from(e: HullError) -> Self {
        HvError::Hull(e)
    }
}

impl From<VlogError> for HvError {
    fn from(e: VlogError) -> Self {
        HvError::Compile(e)
    }
}

/// The result of deploying an application to the fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployOutcome {
    /// Engine identifier assigned by the hypervisor.
    pub engine: u64,
    /// Total simulated latency of the deployment in nanoseconds, summed in
    /// [`Hypervisor::deploy`]: the admission's bitstream-cache lookup
    /// (synthesis latency on a miss, 1 ms on a hit) + the state-safe
    /// handshake (a quarter reconfiguration when any co-resident had to
    /// quiesce, else 0) + the fabric reconfiguration + what
    /// [`Runtime::migrate_to_hardware`] returns for the tenant's own seat
    /// (its cache lookup — a 1 ms hit by then — + the device
    /// reconfiguration + the state transfer). Zero for an already-deployed
    /// application.
    pub latency_ns: u64,
    /// Whether the bitstream came from the compilation cache.
    pub cache_hit: bool,
    /// The fabric's global clock after deployment.
    pub global_clock_hz: u64,
    /// Whether this deployment forced the global clock down (Figure 12).
    pub clock_lowered: bool,
}

/// Per-application statistics for one scheduling round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// The application.
    pub app: u64,
    /// Whether the app actually executed this round (false when descheduled by
    /// temporal multiplexing, quarantined, or already finished).
    pub ran: bool,
    /// Virtual clock ticks executed this round.
    pub ticks: u64,
    /// Task traps serviced this round.
    pub tasks: u64,
    /// Runtime events ($save/$restart/$yield/$finish) raised this round, in
    /// execution order. Reported in stable tenant order regardless of the
    /// scheduling policy.
    pub events: Vec<RuntimeEvent>,
    /// Engine error raised mid-round, if any. The tenant is quarantined (it
    /// idles in subsequent rounds) rather than aborting the other tenants'
    /// round; see [`Hypervisor::quarantined`].
    pub error: Option<String>,
    /// The erroring tenant's flight-recorder dump at the moment of failure
    /// (`None` when there was no error or the recorder was empty, e.g. with
    /// telemetry disabled). Deterministic content — virtual ticks and event
    /// details only — so round stats stay bit-identical across scheduling
    /// policies. The same dump is stored in the quarantine entry; see
    /// [`Hypervisor::quarantine_report`].
    pub postmortem: Option<String>,
}

impl RoundStats {
    fn idle(app: AppId) -> Self {
        RoundStats {
            app: app.0,
            ran: false,
            ticks: 0,
            tasks: 0,
            events: Vec::new(),
            error: None,
            postmortem: None,
        }
    }
}

struct AppSlot {
    id: AppId,
    runtime: Runtime,
    domain: DomainId,
    io_bound: bool,
    /// Set while the tenant is deployed: its engine (the fabric holds the
    /// design as `engine_<id>`) and its Morphlet in the hull.
    engine: Option<(EngineId, MorphletId)>,
}

/// The SYNERGY hypervisor for one device.
pub struct Hypervisor {
    device: Device,
    fabric: Fabric,
    cache: BitstreamCache,
    hull: Hull,
    apps: BTreeMap<AppId, AppSlot>,
    next_app: u64,
    next_engine: u64,
    clock: SimClock,
    io_cursor: usize,
    handshakes: u64,
    round_tick_cap: u64,
    policy: EnginePolicy,
    sched: SchedPolicy,
    /// How this node's parallel rounds landed on threads so far; `None`
    /// until the first one.
    pool: Option<PoolStats>,
    drr: DeficitRoundRobin,
    /// Quarantined tenants, each with the flight-recorder postmortem captured
    /// when the engine error occurred (empty string when the recorder had
    /// nothing, e.g. telemetry disabled). Only the app ids enter the fleet
    /// wire format — postmortems do not survive a checkpoint/restore.
    quarantined: BTreeMap<AppId, String>,
    /// Virtual ticks the whole fleet executed in the most recent round —
    /// deterministic (the cluster control plane keys placement and
    /// rebalancing decisions off it), unconditionally updated regardless of
    /// the telemetry gate.
    last_round_ticks: u64,
    /// Hypervisor-level telemetry: scheduler/placement metrics plus a flight
    /// recorder of scheduling decisions and errors. Behind a `Mutex` so
    /// `&self` accessors can record; never contended (the hypervisor itself
    /// is single-threaded — only round jobs fan out).
    telem: Mutex<Telemetry>,
    /// Scheduling rounds run so far (also the virtual timestamp given to
    /// hypervisor-level trace events).
    rounds: u64,
}

impl Hypervisor {
    /// Creates a hypervisor managing one device, with a fresh bitstream cache.
    pub fn new(device: Device) -> Self {
        Self::with_cache(device, BitstreamCache::new())
    }

    /// Creates a hypervisor that shares an existing bitstream cache (e.g. with
    /// other hypervisors in a cluster).
    pub fn with_cache(device: Device, cache: BitstreamCache) -> Self {
        Hypervisor {
            fabric: Fabric::new(device.clone()),
            device,
            cache,
            hull: Hull::new(),
            apps: BTreeMap::new(),
            next_app: 1,
            next_engine: 1,
            clock: SimClock::new(),
            io_cursor: 0,
            handshakes: 0,
            round_tick_cap: 100_000,
            policy: EnginePolicy::Interpreter,
            sched: SchedPolicy::Sequential,
            pool: None,
            drr: DeficitRoundRobin::new(),
            quarantined: BTreeMap::new(),
            last_round_ticks: 0,
            telem: Mutex::new(Telemetry::default()),
            rounds: 0,
        }
    }

    /// Locks the hypervisor's telemetry block, shrugging off poison.
    fn telem_lock(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        self.telem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Direct telemetry access for sibling modules (the cluster records
    /// migration/placement metrics on the node that hosts the tenant).
    pub(crate) fn telemetry_mut(&mut self) -> &mut Telemetry {
        self.telem.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// A connected tenant's placement metadata: `(domain, io_bound,
    /// deployed)`. The cluster captures this before disconnecting a tenant
    /// for migration so a failed migration can reconnect it faithfully.
    pub(crate) fn slot_meta(&self, id: AppId) -> Result<(DomainId, bool, bool), HvError> {
        self.apps
            .get(&id)
            .map(|s| (s.domain, s.io_bound, s.engine.is_some()))
            .ok_or(HvError::UnknownApp(id.0))
    }

    /// Scheduling rounds completed so far (the virtual timestamp of
    /// hypervisor-level trace events).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Records `e` into the hypervisor's flight recorder on the way out, so
    /// every [`HvError`] leaves trace context behind for postmortems.
    fn noted(&self, e: HvError) -> HvError {
        let rounds = self.rounds;
        self.telem_lock()
            .recorder
            .record(rounds, "hv_error", e.to_string());
        e
    }

    /// Sets how scheduling rounds execute tenants: [`SchedPolicy::Sequential`]
    /// (the default) ticks them in tenant order on the calling thread;
    /// [`SchedPolicy::Parallel`] adds threads scoped to each round that
    /// drain the same job queue. Both produce bit-identical stats, events,
    /// and tenant state — rounds are joined in stable tenant order, and no
    /// thread outlives the round that spawned it.
    pub fn set_sched_policy(&mut self, sched: SchedPolicy) {
        self.sched = sched;
    }

    /// The current round-scheduling policy.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.sched
    }

    /// Applications currently quarantined after an engine error (they idle in
    /// scheduling rounds until [`Hypervisor::clear_quarantine`]).
    pub fn quarantined(&self) -> Vec<AppId> {
        self.quarantined.keys().copied().collect()
    }

    /// The flight-recorder postmortem captured when `id` was quarantined:
    /// the tenant's last trace events up to and including the engine error,
    /// one `#seq @tick span: detail` line per event. `None` when the tenant
    /// is not quarantined; empty when the recorder had nothing to say
    /// (telemetry disabled, or the entry was restored from a fleet
    /// checkpoint — postmortems are observability, not architectural state,
    /// and do not survive the wire).
    pub fn quarantine_report(&self, id: AppId) -> Option<&str> {
        self.quarantined.get(&id).map(String::as_str)
    }

    /// Releases an application from quarantine so it is scheduled again.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownApp`] if the id is not connected.
    pub fn clear_quarantine(&mut self, id: AppId) -> Result<(), HvError> {
        if !self.apps.contains_key(&id) {
            return Err(HvError::UnknownApp(id.0));
        }
        self.quarantined.remove(&id);
        Ok(())
    }

    /// Sets the software-engine selection policy for programs that are not
    /// (or not yet) resident on the fabric: under any policy other than
    /// [`EnginePolicy::Interpreter`] the hypervisor upgrades software-resident
    /// programs to the compiled engine — immediately for already-connected
    /// programs, and from then on at connect and undeploy time.
    ///
    /// The hypervisor never refuses a program, so the upgrade is best-effort:
    /// designs outside the compilable envelope keep the interpreter. An
    /// internal lowering failure also leaves the tenant interpreting, but
    /// counted in its `runtime_engine_fallbacks_total{reason}` and noted in
    /// this node's flight recorder: a codegen regression cannot silently
    /// park a fleet on the interpreter.
    pub fn set_engine_policy(&mut self, policy: EnginePolicy) {
        self.policy = policy;
        let failures: Vec<VlogError> = self
            .apps
            .values_mut()
            .filter(|slot| slot.engine.is_none())
            .filter_map(|slot| upgrade_software_resident(policy, &mut slot.runtime).err())
            .collect();
        for e in failures {
            self.noted(HvError::Compile(e));
        }
    }

    /// Caps how many virtual ticks one application may execute per scheduling
    /// round. The cap bounds host-side simulation cost for very fast designs; an
    /// application that hits it simply idles for the rest of the round.
    pub fn set_round_tick_cap(&mut self, cap: u64) {
        self.round_tick_cap = cap.max(1);
    }

    /// The device this hypervisor manages.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The shared bitstream cache.
    pub fn cache(&self) -> &BitstreamCache {
        &self.cache
    }

    /// Simulated wall-clock time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// The fabric's current global clock in Hz.
    pub fn global_clock_hz(&self) -> u64 {
        self.fabric.global_clock_hz()
    }

    /// Number of state-safe handshakes performed (Figure 7).
    pub fn handshakes(&self) -> u64 {
        self.handshakes
    }

    /// Number of connected tenants (cheaper than `apps().len()`).
    pub fn tenant_count(&self) -> usize {
        self.apps.len()
    }

    /// Virtual ticks the fleet executed in the most recent scheduling round.
    /// Deterministic — bit-identical across [`SchedPolicy`] — and always
    /// tracked (not gated on the telemetry switch), so control-plane
    /// placement decisions can key off it.
    pub fn last_round_ticks(&self) -> u64 {
        self.last_round_ticks
    }

    /// Current fabric occupancy (LUT/FF/BRAM usage and LUT fraction) —
    /// deterministic placement input for the cluster control plane.
    pub fn fabric_utilization(&self) -> synergy_fpga::Utilization {
        self.fabric.utilization()
    }

    /// Puts a connected tenant into quarantine with an explicit postmortem,
    /// exactly as if its engine had errored mid-round. The cluster control
    /// plane uses this to re-establish quarantine for tenants that crossed
    /// nodes during crash recovery (quarantine travels by app id inside one
    /// fleet frame, but recovery re-admits tenants under fresh ids).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownApp`] if the id is not connected.
    pub fn force_quarantine(&mut self, id: AppId, postmortem: String) -> Result<(), HvError> {
        if !self.apps.contains_key(&id) {
            return Err(HvError::UnknownApp(id.0));
        }
        self.quarantined.insert(id, postmortem);
        Ok(())
    }

    /// Connects a runtime instance to the hypervisor (step 1 of Figure 6).
    ///
    /// `io_bound` marks streaming applications that contend on the off-device IO
    /// path and are therefore subject to temporal multiplexing (Figure 11).
    /// Infallible (the interpreter always works): a failed upgrade is noted
    /// as [`Hypervisor::set_engine_policy`] describes; undeploy returns it.
    pub fn connect(&mut self, mut runtime: Runtime, domain: DomainId, io_bound: bool) -> AppId {
        if let Err(e) = upgrade_software_resident(self.policy, &mut runtime) {
            self.noted(HvError::Compile(e));
        }
        let id = AppId(self.next_app);
        self.next_app += 1;
        self.apps.insert(
            id,
            AppSlot {
                id,
                runtime,
                domain,
                io_bound,
                engine: None,
            },
        );
        id
    }

    /// Access to a connected application's runtime.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownApp`] if the id is not connected.
    pub fn app(&self, id: AppId) -> Result<&Runtime, HvError> {
        self.apps
            .get(&id)
            .map(|s| &s.runtime)
            .ok_or(HvError::UnknownApp(id.0))
    }

    /// Mutable access to a connected application's runtime.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownApp`] if the id is not connected.
    pub fn app_mut(&mut self, id: AppId) -> Result<&mut Runtime, HvError> {
        self.apps
            .get_mut(&id)
            .map(|s| &mut s.runtime)
            .ok_or(HvError::UnknownApp(id.0))
    }

    /// Ids of all connected applications.
    pub fn apps(&self) -> Vec<AppId> {
        self.apps.keys().copied().collect()
    }

    /// The coalesced monolithic program: each deployed tenant's own
    /// transformed sub-program, in engine-id order, with requests routed by
    /// engine identifier (§4.1).
    pub fn monolithic_source(&self) -> String {
        let mut deployed: Vec<_> = self
            .apps
            .values()
            .filter_map(|s| Some((s.engine?.0, s.id, s.runtime.transformed()?)))
            .collect();
        deployed.sort_by_key(|&(engine, _, _)| engine);
        let mut out = String::new();
        for (engine, app, transformed) in deployed {
            out.push_str(&format!("// engine {} (app {})\n", engine.0, app.0));
            out.push_str(&transformed.source);
            out.push('\n');
        }
        out
    }

    /// Deploys a connected application onto the fabric: has the runtime prepare
    /// its sub-program ([`Runtime::prepare_hardware`]: its own transform, compiled
    /// through the cache), runs the state-safe handshake with the other
    /// residents, reprograms the device, and migrates the instance's engine from
    /// software to hardware (steps 2-5 of Figure 6).
    ///
    /// # Errors
    ///
    /// Returns an error if the application is unknown, the transformation fails,
    /// or the fabric cannot admit the design.
    pub fn deploy(&mut self, id: AppId) -> Result<DeployOutcome, HvError> {
        match self.deploy_inner(id) {
            Ok(out) => {
                if synergy_telemetry::enabled() {
                    let rounds = self.rounds;
                    let t = self.telem.get_mut().unwrap_or_else(|e| e.into_inner());
                    t.registry.counter_add(
                        Namespace::Det,
                        "hv_admissions_total",
                        &[("cache", if out.cache_hit { "hit" } else { "miss" })],
                        1,
                    );
                    if out.clock_lowered {
                        t.registry
                            .counter_add(Namespace::Det, "hv_clock_lowerings_total", &[], 1);
                    }
                    t.recorder.record(
                        rounds,
                        "deploy",
                        format!(
                            "app={} engine={} cache_hit={} clock_hz={}",
                            id.0, out.engine, out.cache_hit, out.global_clock_hz
                        ),
                    );
                }
                Ok(out)
            }
            Err(e) => Err(self.noted(e)),
        }
    }

    fn deploy_inner(&mut self, id: AppId) -> Result<DeployOutcome, HvError> {
        let slot = self.apps.get_mut(&id).ok_or(HvError::UnknownApp(id.0))?;
        if let Some((engine, _)) = slot.engine {
            // Already deployed; report the current state.
            return Ok(DeployOutcome {
                engine: engine.0,
                latency_ns: 0,
                cache_hit: true,
                global_clock_hz: self.fabric.global_clock_hz(),
                clock_lowered: false,
            });
        }

        // The instance's compiler sends its sub-program to the hypervisor,
        // which produces a target-specific engine (steps 1-2): the runtime
        // prepares, so what is admitted here is what it will execute.
        let (_, outcome) = slot.runtime.prepare_hardware(&self.device, &self.cache)?;

        // Changing the monolithic program is destructive: run the handshake so
        // every connected instance is between ticks with saved state (Figure 7).
        let handshake_ns = self.state_safe_handshake(Some(id));

        // Reprogram the fabric with the new coalesced design.
        let engine_id = EngineId(self.next_engine);
        self.next_engine += 1;
        let (load, morphlet) = self.admit_engine(engine_id, id, outcome.bitstream)?;

        // Migrate the application itself onto hardware.
        let slot = self.apps.get_mut(&id).expect("slot exists");
        let migrate_ns = slot
            .runtime
            .migrate_to_hardware(&self.device, &self.cache)
            .map_err(HvError::Compile)?;
        slot.engine = Some((engine_id, morphlet));

        // The shared clock may have dropped.
        self.propagate_global_clock();

        self.clock.advance_ns(load.reconfig_latency_ns);
        Ok(DeployOutcome {
            engine: engine_id.0,
            latency_ns: outcome.latency_ns + handshake_ns + load.reconfig_latency_ns + migrate_ns,
            cache_hit: outcome.cache_hit,
            global_clock_hz: load.global_clock_hz,
            clock_lowered: load.clock_lowered,
        })
    }

    /// The admission tail shared by [`Hypervisor::deploy`] and
    /// [`Hypervisor::restore_fleet`], for a connected `app` whose runtime
    /// has been prepared ([`Runtime::prepare_hardware`]): the fabric loads
    /// the bitstream — its check is the only capacity check — and the hull
    /// registers the tenant's Morphlet, `$yield` deciding its quiescence
    /// class. A fabric rejection leaves the hull untouched.
    fn admit_engine(
        &mut self,
        engine_id: EngineId,
        app: AppId,
        bitstream: Bitstream,
    ) -> Result<(LoadOutcome, MorphletId), HvError> {
        let load = self
            .fabric
            .load(&format!("engine_{}", engine_id.0), bitstream)?;
        let slot = &self.apps[&app];
        let transformed = slot.runtime.transformed().expect("runtime prepared");
        let quiescence = if transformed.state.uses_yield {
            Quiescence::ApplicationManaged
        } else {
            Quiescence::Transparent
        };
        let morphlet = self
            .hull
            .register(slot.domain, slot.runtime.name(), quiescence);
        Ok((load, morphlet))
    }

    /// Pushes the fabric's global clock to every hardware resident (it moves
    /// whenever the set of loaded designs changes, §4.1 / Figure 12).
    fn propagate_global_clock(&mut self) {
        let global = self.fabric.global_clock_hz();
        for slot in self.apps.values_mut() {
            if slot.engine.is_some() {
                slot.runtime.set_clock_hz(global);
            }
        }
    }

    /// Removes an application's engine from the fabric (flag-for-removal semantics
    /// of §4.1) and moves its execution back to software.
    ///
    /// # Errors
    ///
    /// Returns an error if the application is unknown or not deployed.
    pub fn undeploy(&mut self, id: AppId) -> Result<(), HvError> {
        match self.undeploy_inner(id) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.noted(e)),
        }
    }

    fn undeploy_inner(&mut self, id: AppId) -> Result<(), HvError> {
        let slot = self.apps.get_mut(&id).ok_or(HvError::UnknownApp(id.0))?;
        let (engine, morphlet) = slot.engine.take().ok_or(HvError::NotDeployed(id.0))?;
        // Land on the best software engine the policy allows, in one hop.
        slot.runtime.seat_software(self.policy)?;
        // Release: hull `retire` → fabric `unload` → the global clock. Every
        // step runs even if an earlier one fails; the first failure returns.
        let retired = self.hull.retire(morphlet);
        let unloaded = self.fabric.unload(&format!("engine_{}", engine.0));
        self.propagate_global_clock();
        retired?;
        Ok(unloaded?)
    }

    /// Disconnects an application entirely, undeploying it first if necessary.
    ///
    /// # Errors
    ///
    /// Returns an error if the application is unknown.
    pub fn disconnect(&mut self, id: AppId) -> Result<Runtime, HvError> {
        if self
            .apps
            .get(&id)
            .ok_or(HvError::UnknownApp(id.0))?
            .engine
            .is_some()
        {
            self.undeploy(id)?;
        }
        let slot = self.apps.remove(&id).ok_or(HvError::UnknownApp(id.0))?;
        self.quarantined.remove(&id);
        self.drr.forget(id.0);
        Ok(slot.runtime)
    }

    /// Runs the Figure-7 handshake: every connected instance (other than the one
    /// being deployed, which is still in software) schedules an interrupt between
    /// logical clock ticks, saves its state, and blocks until reprogramming
    /// finishes. Returns the simulated latency added to the deployment.
    fn state_safe_handshake(&mut self, excluding: Option<AppId>) -> u64 {
        let mut latency = 0u64;
        let reconfig = self.device.reconfig_latency_ns;
        let mut any = false;
        for slot in self.apps.values_mut() {
            if Some(slot.id) == excluding || slot.engine.is_none() {
                continue;
            }
            any = true;
            // Save state through get requests, stall for the reconfiguration, then
            // restore through set requests.
            let runtime = &mut slot.runtime;
            let snapshot = runtime.save("__handshake");
            runtime.idle_for_ns(reconfig);
            runtime.restore(&snapshot);
        }
        if any {
            self.handshakes += 1;
            latency += reconfig / 4;
        }
        latency
    }

    /// Runs one scheduling round of `dt` simulated seconds.
    ///
    /// Applications that share the off-device IO path (marked `io_bound` at connect
    /// time) are time-slice scheduled round-robin when more than one of them is
    /// deployed; everything else runs spatially in parallel. Per-tenant tick
    /// budgets come from the deficit-round-robin fairness layer
    /// ([`DeficitRoundRobin`]), and the scheduled tenants' jobs are drained
    /// from one queue by as many workers as [`Hypervisor::set_sched_policy`]
    /// asks for — with bit-identical results whatever the count. Returns
    /// per-app statistics for the round, in stable tenant order.
    ///
    /// A tenant's failure stays that tenant's. Whether its engine returns an
    /// error or **panics** mid-round, the round completes for everyone else:
    /// the failure is surfaced in its [`RoundStats::error`] (a panic as
    /// `engine panicked: <message>`), and the tenant is quarantined with its
    /// flight-recorder postmortem — it keeps its slot and its fabric region,
    /// and idles in subsequent rounds until [`Hypervisor::clear_quarantine`]
    /// or [`Hypervisor::disconnect`]. A panicking tenant is charged no ticks
    /// and its clock is idled to the round boundary; what state its engine
    /// was left in is unspecified. No tenant panic is ever re-raised here.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept for API stability.
    pub fn run_round(&mut self, dt: f64) -> Result<Vec<RoundStats>, HvError> {
        self.run_round_with(dt, run_round_job)
    }

    /// [`Hypervisor::run_round`] with the body of a tenant's job supplied by
    /// the caller — the seam through which tests make a chosen tenant panic.
    pub(crate) fn run_round_with(
        &mut self,
        dt: f64,
        job: impl Fn(&mut Runtime, u64, u64) -> RoundJobResult + Sync,
    ) -> Result<Vec<RoundStats>, HvError> {
        let dt_ns = (dt * 1e9) as u64;
        // Which io-bound apps are deployed and still running? (A quarantined
        // tenant must not occupy a time slice it cannot use — that would
        // idle every healthy io-bound tenant on its turns.)
        let io_apps: Vec<AppId> = self
            .apps
            .values()
            .filter(|s| {
                s.io_bound
                    && s.engine.is_some()
                    && s.runtime.finished().is_none()
                    && !self.quarantined.contains_key(&s.id)
            })
            .map(|s| s.id)
            .collect();
        let io_pick = if io_apps.len() >= 2 {
            let pick = io_apps[self.io_cursor % io_apps.len()];
            self.io_cursor = (self.io_cursor + 1) % io_apps.len();
            Some(pick)
        } else {
            None
        };

        // Plan phase, in tenant order: decide who runs and grant DRR tick
        // budgets. Deterministic and sequential, so every worker count
        // executes the exact same schedule. A scheduled tenant's job borrows
        // its runtime; `planned` remembers whose it is and when it started.
        let mut planned: Vec<(AppId, u64)> = Vec::new();
        let mut jobs: Vec<(&mut Runtime, u64)> = Vec::new();
        let mut granted_ticks = 0u64;
        for slot in self.apps.values_mut() {
            if self.quarantined.contains_key(&slot.id) || slot.runtime.finished().is_some() {
                continue;
            }
            // Runnable *and* descheduled tenants accrue quantum: a tenant
            // descheduled by temporal multiplexing carries its allowance
            // forward (bounded) instead of losing it.
            let budget = self.drr.grant(slot.id.0, self.round_tick_cap);
            granted_ticks += budget;
            let descheduled = io_pick.is_some()
                && slot.io_bound
                && slot.engine.is_some()
                && Some(slot.id) != io_pick;
            if !descheduled {
                planned.push((slot.id, slot.runtime.now_ns()));
                jobs.push((&mut slot.runtime, budget));
            }
        }

        // Execution phase: the one arm. Outcomes come back in `planned`
        // order whichever thread ran which tenant.
        let (outcomes, landed) =
            sched::run_jobs(self.sched.workers(), jobs, |(runtime, budget)| {
                job(runtime, dt_ns, budget)
            });
        if self.sched != SchedPolicy::Sequential {
            self.pool
                .get_or_insert_with(PoolStats::default)
                .absorb(landed);
        }

        // Join phase, in stable tenant order: charge DRR, quarantine failed
        // tenants, idle everyone who did not run, and assemble stats.
        let mut host_ns: Vec<(u64, u64)> = Vec::new();
        let mut outcomes = planned.into_iter().zip(outcomes).peekable();
        let mut stats = Vec::new();
        let mut round_ticks = 0u64;
        let mut round_tasks = 0u64;
        let mut quarantine_events: Vec<(u64, String)> = Vec::new();
        for slot in self.apps.values_mut() {
            let Some(((_, start_ns), (outcome, busy_ns))) =
                outcomes.next_if(|((id, _), _)| *id == slot.id)
            else {
                slot.runtime.idle_for_ns(dt_ns);
                stats.push(RoundStats::idle(slot.id));
                continue;
            };
            // A panic is a tenant fault like any other: it becomes the
            // tenant's round error, having ticked nothing it can be charged
            // for, with its clock idled to where the round ends.
            let result = outcome.unwrap_or_else(|payload| {
                let error = format!("engine panicked: {}", sched::panic_message(&*payload));
                slot.runtime.record_event("engine_panic", error.clone());
                let behind = (start_ns + dt_ns).saturating_sub(slot.runtime.now_ns());
                slot.runtime.idle_for_ns(behind);
                RoundJobResult {
                    report: RunReport::default(),
                    events: Vec::new(),
                    error: Some(error),
                }
            });
            self.drr.charge(slot.id.0, result.report.ticks);
            round_ticks += result.report.ticks;
            round_tasks += result.report.tasks_handled;
            // A failed tenant's postmortem is its flight-recorder dump at
            // the moment of the error — it travels on the round stats *and*
            // the quarantine entry.
            let postmortem = result.error.as_ref().and_then(|error| {
                let dump = slot.runtime.flight_dump();
                self.quarantined.insert(slot.id, dump.clone());
                quarantine_events.push((slot.id.0, error.clone()));
                Some(dump).filter(|d| !d.is_empty())
            });
            host_ns.push((slot.id.0, busy_ns));
            stats.push(RoundStats {
                app: slot.id.0,
                ran: result.report.ticks > 0,
                ticks: result.report.ticks,
                tasks: result.report.tasks_handled,
                events: result.events,
                error: result.error,
                postmortem,
            });
        }
        self.clock.advance_ns(dt_ns);
        self.rounds += 1;
        self.last_round_ticks = round_ticks;
        if synergy_telemetry::enabled() {
            let planned = host_ns.len() as u64;
            let joined = stats.len() as u64;
            let rounds = self.rounds;
            let banked: u64 = self.drr.entries().iter().map(|(_, d)| *d).sum();
            let t = self.telem.get_mut().unwrap_or_else(|e| e.into_inner());
            let r = &mut t.registry;
            r.counter_add(Namespace::Det, "hv_rounds_total", &[], 1);
            r.counter_add(Namespace::Det, "hv_round_ticks_total", &[], round_ticks);
            r.counter_add(Namespace::Det, "hv_round_tasks_total", &[], round_tasks);
            // Phase costs in virtual units: plan touches every runnable
            // tenant, join assembles one stat per tenant. Dispatch's cost is
            // the ticks it executed and charged, `hv_round_ticks_total`.
            r.counter_add(
                Namespace::Det,
                "hv_phase_cost_total",
                &[("phase", "plan")],
                planned,
            );
            r.counter_add(
                Namespace::Det,
                "hv_phase_cost_total",
                &[("phase", "join")],
                joined,
            );
            r.counter_add(
                Namespace::Det,
                "hv_drr_granted_ticks_total",
                &[],
                granted_ticks,
            );
            r.gauge_set(Namespace::Det, "hv_drr_banked_ticks", &[], banked as i64);
            if !quarantine_events.is_empty() {
                r.counter_add(
                    Namespace::Det,
                    "hv_quarantines_total",
                    &[],
                    quarantine_events.len() as u64,
                );
            }
            r.observe(
                Namespace::Det,
                "hv_round_latency_ticks",
                &[],
                POW2_BUCKETS,
                round_ticks,
            );
            // Host-side job costs are wall time — non-deterministic by
            // nature, so they live in the quarantined namespace.
            for (app, ns) in &host_ns {
                r.counter_add(
                    Namespace::NonDet,
                    "hv_host_round_ns_total",
                    &[("app", &app.to_string())],
                    *ns,
                );
            }
            t.recorder.record(
                rounds,
                "run_round",
                format!(
                    "tenants={} ticks={} quarantined={}",
                    planned,
                    round_ticks,
                    quarantine_events.len()
                ),
            );
            for (app, error) in &quarantine_events {
                t.recorder
                    .record(rounds, "quarantine", format!("app={}: {}", app, error));
            }
        }
        Ok(stats)
    }

    /// How this node's rounds under [`SchedPolicy::Parallel`] landed on
    /// threads, summed over all of them (`None` until the first one).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool
    }

    /// A point-in-time snapshot of this node's full metrics registry:
    /// hypervisor-level scheduler/placement metrics, occupancy gauges sampled
    /// now, and every tenant's runtime registry merged in under a
    /// `tenant=<id>:<name>` label.
    ///
    /// The deterministic namespace of the snapshot is **bit-identical**
    /// between [`SchedPolicy::Sequential`] and [`SchedPolicy::Parallel`] for
    /// the same fleet and rounds (compare with
    /// [`synergy_telemetry::Registry::det_text`]); host-time data — per-job
    /// wall time, worker-pool steal/park counts — is confined to the
    /// non-deterministic namespace (`hv_host_round_ns_total{app}` accumulates
    /// each tenant's round-job nanoseconds; per-round values are deltas of
    /// it).
    pub fn metrics(&self) -> Registry {
        let mut out = self.telem_lock().registry.clone();
        // Occupancy is a property of "now", not of any one event: sample it
        // at snapshot time rather than trying to keep gauges in step with
        // every deploy/undeploy.
        let u = self.fabric.utilization();
        out.gauge_set(Namespace::Det, "hv_fabric_luts", &[], u.luts as i64);
        out.gauge_set(Namespace::Det, "hv_fabric_ffs", &[], u.ffs as i64);
        out.gauge_set(
            Namespace::Det,
            "hv_fabric_bram_bits",
            &[],
            u.bram_bits as i64,
        );
        out.gauge_set(
            Namespace::Det,
            "hv_fabric_lut_permille",
            &[],
            (u.lut_fraction * 1000.0) as i64,
        );
        out.gauge_set(
            Namespace::Det,
            "hv_hull_active_morphlets",
            &[],
            self.hull.active().len() as i64,
        );
        out.gauge_set(Namespace::Det, "hv_tenants", &[], self.apps.len() as i64);
        out.gauge_set(
            Namespace::Det,
            "hv_quarantined",
            &[],
            self.quarantined.len() as i64,
        );
        for slot in self.apps.values() {
            let label = format!("{}:{}", slot.id.0, slot.runtime.name());
            out.merge_labeled(&slot.runtime.metrics(), "tenant", &label);
        }
        if let Some(ps) = self.pool_stats() {
            out.gauge_set(
                Namespace::NonDet,
                "hv_pool_jobs_executed",
                &[],
                ps.executed as i64,
            );
            out.gauge_set(Namespace::NonDet, "hv_pool_steals", &[], ps.steals as i64);
            out.gauge_set(Namespace::NonDet, "hv_pool_parks", &[], ps.parks as i64);
        }
        out
    }

    /// The hypervisor's own flight-recorder dump (scheduling rounds, deploys,
    /// quarantines, errors), oldest event first.
    pub fn flight_dump(&self) -> String {
        self.telem_lock().recorder.dump()
    }

    /// Serializes the whole fleet — every tenant's durable checkpoint plus
    /// the hypervisor's scheduler state (DRR deficits, temporal-multiplexing
    /// cursor, quarantine set, id counters, engine policy, and
    /// the simulated clock) — into one `synergy-snapshot` fleet frame.
    ///
    /// Call between scheduling rounds, when every tenant is quiesced at a
    /// tick boundary. The round-scheduling policy is deliberately *not*
    /// captured: a restored fleet runs under whatever [`SchedPolicy`] the
    /// restoring hypervisor has (rounds are bit-identical either way).
    ///
    /// ## Fleet payload layout (wire-format version 1)
    ///
    /// | field | encoding |
    /// |-------|----------|
    /// | source device name | string (diagnostics only) |
    /// | engine policy | `u8`: 0 interpreter, 2 auto; 1, the retired strict compiled policy, restores as auto |
    /// | retired tier knob | `u8`: written as 0; 0, 1 and 2 accepted and ignored |
    /// | round tick cap, io cursor, handshakes, next app, next engine, clock ns | 6 × `u64` |
    /// | quarantined | `u32` n × `u64` app id |
    /// | DRR deficits | `u32` n × (`u64` app, `u64` deficit) |
    /// | tenants | `u32` n × (`u64` id, `u64` domain, `bool` io-bound, `bool` deployed (+ `u64` engine id), runtime-checkpoint blob) |
    ///
    /// Each tenant blob is byte-for-byte a [`Runtime::save_checkpoint`]
    /// frame — the same bytes an on-disk single-tenant checkpoint (or
    /// `Cluster::live_migrate`) uses — written in place by
    /// [`Runtime::put_checkpoint`]: the fleet frame neither copies a tenant
    /// frame nor CRCs it a second time.
    pub fn checkpoint_fleet(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.device.name);
        w.put_u8(match self.policy {
            EnginePolicy::Interpreter => 0,
            EnginePolicy::Auto => 2,
        });
        // The retired node-tier knob: always what a default build wrote.
        w.put_u8(0);
        w.put_u64(self.round_tick_cap);
        w.put_u64(self.io_cursor as u64);
        w.put_u64(self.handshakes);
        w.put_u64(self.next_app);
        w.put_u64(self.next_engine);
        w.put_u64(self.clock.now_ns());
        w.put_u32(self.quarantined.len() as u32);
        for id in self.quarantined.keys() {
            w.put_u64(id.0);
        }
        let drr = self.drr.entries();
        w.put_u32(drr.len() as u32);
        for (app, deficit) in drr {
            w.put_u64(app);
            w.put_u64(deficit);
        }
        w.put_u32(self.apps.len() as u32);
        for slot in self.apps.values() {
            w.put_u64(slot.id.0);
            w.put_u64(slot.domain.0);
            w.put_bool(slot.io_bound);
            match slot.engine {
                None => w.put_bool(false),
                Some((engine, _)) => {
                    w.put_bool(true);
                    w.put_u64(engine.0);
                }
            }
            slot.runtime.put_checkpoint(&mut w);
        }
        w.into_frame(KIND_FLEET)
    }

    /// Restores a fleet checkpoint into this (empty) hypervisor: every
    /// tenant is rebuilt from its embedded runtime checkpoint, tenants that
    /// were deployed are re-admitted through synthesis, the AmorphOS hull,
    /// and fabric placement — re-validating capacity on *this* device — and
    /// the scheduler state (DRR, quarantine, io cursor, clocks) is restored
    /// so subsequent rounds are bit-identical to the uninterrupted fleet.
    ///
    /// The restoring hypervisor keeps its own [`SchedPolicy`]: a fleet
    /// checkpointed under a sequential scheduler restarts cleanly into a
    /// parallel one and vice versa.
    ///
    /// Returns the restored application ids in tenant order.
    ///
    /// # Errors
    ///
    /// * [`HvError::Restore`] if this hypervisor already has tenants.
    /// * [`HvError::Checkpoint`] for undecodable or unrebuildable bytes
    ///   (truncation, corruption, unknown version — always typed), and as
    ///   `Malformed` for a frame that repeats a tenant id or holds an id its
    ///   own next-app or next-engine counter would hand out again.
    /// * [`HvError::RestoreCapacity`] when a tenant deployed at capture time
    ///   no longer fits this device's fabric — the checkpoint is *not*
    ///   silently degraded to software execution.
    pub fn restore_fleet(&mut self, bytes: &[u8]) -> Result<Vec<AppId>, HvError> {
        match self.restore_fleet_inner(bytes) {
            Ok(ids) => Ok(ids),
            Err(e) => Err(self.noted(e)),
        }
    }

    fn restore_fleet_inner(&mut self, bytes: &[u8]) -> Result<Vec<AppId>, HvError> {
        if !self.apps.is_empty() {
            return Err(HvError::Restore(format!(
                "hypervisor already has {} connected tenant(s)",
                self.apps.len()
            )));
        }
        let payload = decode_frame_of(bytes, KIND_FLEET)?;
        let mut r = Reader::new(payload);
        // The fleet is rebuilt in a scratch hypervisor on the same device and
        // cache and moved into `self` only when all of it restored, so a
        // failed restore leaves `self` untouched and the checkpoint
        // retryable elsewhere.
        let mut hv = Hypervisor::with_cache(self.device.clone(), self.cache.clone());
        let _source_device = r.get_str().map_err(HvError::from)?;
        // Tag 1 was the strict compiled policy, which a node applied exactly
        // as auto.
        hv.policy = match r.get_u8()? {
            0 => EnginePolicy::Interpreter,
            1 | 2 => EnginePolicy::Auto,
            tag => {
                return Err(SnapshotError::Malformed(format!("unknown policy tag {}", tag)).into())
            }
        };
        // The retired node-tier knob (0 unset, 1 stack, 2 regalloc): validated
        // as before, then ignored — there is one compiled executor.
        match r.get_u8()? {
            0..=2 => {}
            tag => {
                return Err(SnapshotError::Malformed(format!("unknown tier tag {}", tag)).into())
            }
        }
        hv.round_tick_cap = r.get_u64()?;
        hv.io_cursor = r.get_u64()? as usize;
        hv.handshakes = r.get_u64()?;
        hv.next_app = r.get_u64()?;
        hv.next_engine = r.get_u64()?;
        hv.clock.advance_ns(r.get_u64()?);
        // The wire carries ids only; postmortems are observability and start
        // empty after a restore.
        for _ in 0..r.get_count(8)? {
            hv.quarantined.insert(AppId(r.get_u64()?), String::new());
        }
        let n_drr = r.get_count(16)?;
        let mut drr = Vec::with_capacity(n_drr);
        for _ in 0..n_drr {
            drr.push((r.get_u64()?, r.get_u64()?));
        }
        hv.drr.restore_entries(drr);
        for _ in 0..r.get_count(19)? {
            let id = AppId(r.get_u64()?);
            let domain = DomainId(r.get_u64()?);
            let io_bound = r.get_bool()?;
            let engine = if r.get_bool()? {
                Some(EngineId(r.get_u64()?))
            } else {
                None
            };
            // Ids are the frame's to keep consistent: a repeated tenant would
            // replace the first, and an id at or past its counter would be
            // handed out again by the next `connect` or `deploy`.
            let malformed = if hv.apps.contains_key(&id) {
                Some(format!("tenant id {} repeats", id.0))
            } else if id.0 >= hv.next_app {
                Some(format!(
                    "tenant id {} is not below next app id {}",
                    id.0, hv.next_app
                ))
            } else {
                engine.filter(|e| e.0 >= hv.next_engine).map(|e| {
                    format!(
                        "engine id {} is not below next engine id {}",
                        e.0, hv.next_engine
                    )
                })
            };
            if let Some(what) = malformed {
                return Err(SnapshotError::Malformed(what).into());
            }
            let runtime = Runtime::restore_checkpoint(r.get_blob()?)?;
            hv.apps.insert(
                id,
                AppSlot {
                    id,
                    runtime,
                    domain,
                    io_bound,
                    engine: None,
                },
            );
            // A tenant that was deployed is re-admitted through its own
            // transform + synthesis and this device's fabric: a fleet
            // checkpointed on a large device must not silently restore its
            // hardware tenants into software on a smaller one.
            if let Some(engine_id) = engine {
                let runtime = &mut hv.apps.get_mut(&id).expect("just inserted").runtime;
                let (_, outcome) = runtime.prepare_hardware(&hv.device, &hv.cache)?;
                let (_, morphlet) =
                    hv.admit_engine(engine_id, id, outcome.bitstream)
                        .map_err(|e| match e {
                            HvError::Fabric(FabricError::InsufficientResources { detail }) => {
                                HvError::RestoreCapacity {
                                    app: id.0,
                                    device: hv.device.name.clone(),
                                    detail,
                                }
                            }
                            e => e,
                        })?;
                // Re-seat the tenant's engine on *this* device without
                // advancing simulated time (restore is not a simulated
                // event; the checkpoint already carries the timeline) —
                // unless the checkpoint was taken on the same device type,
                // in which case the engine `restore_checkpoint` built is
                // already correct.
                let slot = hv.apps.get_mut(&id).expect("just inserted");
                slot.engine = Some((engine_id, morphlet));
                let runtime = &mut slot.runtime;
                if runtime.mode() != ExecMode::Hardware(hv.device.name.clone()) {
                    runtime
                        .rehome_hardware(&hv.device, &hv.cache)
                        .map_err(HvError::Compile)?;
                }
            }
        }
        r.finish().map_err(HvError::from)?;
        hv.propagate_global_clock();

        // Commit. Host policy, telemetry and the round count stay this
        // hypervisor's; everything else is the restored fleet's.
        let ids = hv.apps();
        *self = Hypervisor {
            sched: self.sched,
            pool: self.pool,
            last_round_ticks: self.last_round_ticks,
            telem: std::mem::take(&mut self.telem),
            rounds: self.rounds,
            ..hv
        };
        Ok(ids)
    }
}

/// Moves an interpreting runtime up to the best software rung `policy`
/// allows; one that arrives compiled or self-seated on hardware keeps that.
fn upgrade_software_resident(policy: EnginePolicy, runtime: &mut Runtime) -> VlogResult<()> {
    if runtime.mode() == ExecMode::Software {
        runtime.seat_software(policy)?;
    }
    Ok(())
}

/// Everything one tenant's round job produced. Errors are carried as data —
/// a hostile or broken tenant must not abort the other tenants' round.
pub(crate) struct RoundJobResult {
    report: RunReport,
    events: Vec<RuntimeEvent>,
    error: Option<String>,
}

/// Runs a runtime until roughly `dt_ns` of its simulated time has elapsed or
/// its DRR tick budget is exhausted (whichever comes first), then idles it to
/// the end of the round so every tenant's simulated clock stays aligned.
///
/// This is the body of a scheduling-round job: it owns no hypervisor state,
/// so it runs identically on the calling thread (sequential policy) and on a
/// pool worker (parallel policy).
pub(crate) fn run_round_job(runtime: &mut Runtime, dt_ns: u64, tick_budget: u64) -> RoundJobResult {
    // The per-tenant "run_round" span: one flight-recorder event per round
    // this tenant executes, shared verbatim by the sequential and parallel
    // paths (both funnel through this function), so recorder contents stay
    // policy-independent.
    if synergy_telemetry::enabled() {
        runtime.record_event(
            "run_round",
            format!(
                "tenant={} dt_ns={} budget={}",
                runtime.name(),
                dt_ns,
                tick_budget
            ),
        );
    }
    let mut total = RunReport::default();
    let mut events = Vec::new();
    let mut error = None;
    // Probe with a small batch to estimate per-tick cost, then run the rest.
    let mut remaining = dt_ns;
    let mut batch = 16u64.min(tick_budget.max(1));
    while remaining > 0 && runtime.finished().is_none() && total.ticks < tick_budget {
        let report = match runtime.run_ticks(batch) {
            Ok((report, mut batch_events)) => {
                events.append(&mut batch_events);
                report
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        };
        total.ticks += report.ticks;
        total.native_cycles += report.native_cycles;
        total.abi_requests += report.abi_requests;
        total.tasks_handled += report.tasks_handled;
        total.elapsed_ns += report.elapsed_ns;
        if report.ticks == 0 || report.elapsed_ns == 0 {
            break;
        }
        if report.elapsed_ns >= remaining {
            break;
        }
        remaining -= report.elapsed_ns;
        let per_tick = (report.elapsed_ns / report.ticks).max(1);
        // Adaptive refinement: size the next hardware batch to fill the remaining
        // quantum without overshooting too far (§6.2).
        batch = (remaining / per_tick)
            .clamp(1, 8192)
            .min(tick_budget - total.ticks);
    }
    if total.elapsed_ns < dt_ns {
        runtime.idle_for_ns(dt_ns - total.elapsed_ns);
    }
    RoundJobResult {
        report: total,
        events,
        error,
    }
}

impl fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypervisor")
            .field("device", &self.device.name)
            .field("apps", &self.apps.len())
            .field("morphlets", &self.hull.active().len())
            .field("global_clock_hz", &self.fabric.global_clock_hz())
            .finish()
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

    const STREAMER: &str = r#"
        module Stream(input wire clock, output wire [31:0] out);
            integer fd = $fopen("stream.bin");
            reg [31:0] r = 0;
            reg [31:0] reads = 0;
            always @(posedge clock) begin
                $fread(fd, r);
                if (!$feof(fd)) reads <= reads + 1;
            end
            assign out = reads;
        endmodule
    "#;

    fn counter_runtime(name: &str) -> Runtime {
        Runtime::new(name, COUNTER, "Counter", "clock").unwrap()
    }

    fn streamer_runtime(name: &str, items: u64) -> Runtime {
        let mut rt = Runtime::new(name, STREAMER, "Stream", "clock").unwrap();
        rt.add_file("stream.bin", (0..items).collect());
        // Run a couple of software ticks so $fopen executes before migration.
        rt.run_ticks(2).unwrap();
        rt
    }

    use synergy_runtime::ExecMode;

    #[test]
    fn connect_and_deploy_single_app() {
        let mut hv = Hypervisor::new(Device::f1());
        let app = hv.connect(counter_runtime("counter"), DomainId(1), false);
        let outcome = hv.deploy(app).unwrap();
        assert!(outcome.latency_ns > 0);
        assert!(!outcome.cache_hit);
        assert_eq!(hv.app(app).unwrap().mode(), ExecMode::Hardware("f1".into()));
        assert!(hv.monolithic_source().contains("Counter__synergy"));
    }

    #[test]
    fn spatial_multiplexing_coalesces_programs() {
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        let b = hv.connect(counter_runtime("b"), DomainId(2), false);
        hv.deploy(a).unwrap();
        hv.deploy(b).unwrap();
        // Both engines are in the combined program.
        let mono = hv.monolithic_source();
        assert_eq!(mono.matches("module Counter__synergy").count(), 2);
        // Both make progress in the same round.
        let stats = hv.run_round(0.0002).unwrap();
        assert!(stats.iter().all(|s| s.ran));
        assert!(hv.app(a).unwrap().get_bits("count").unwrap().to_u64() > 0);
        assert!(hv.app(b).unwrap().get_bits("count").unwrap().to_u64() > 0);
    }

    #[test]
    fn second_deploy_triggers_handshake() {
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        let b = hv.connect(counter_runtime("b"), DomainId(2), false);
        hv.deploy(a).unwrap();
        assert_eq!(hv.handshakes(), 0, "no residents to quiesce yet");
        hv.deploy(b).unwrap();
        assert_eq!(
            hv.handshakes(),
            1,
            "resident instance a must reach a safe state"
        );
    }

    #[test]
    fn deploying_same_app_twice_is_idempotent() {
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        let first = hv.deploy(a).unwrap();
        let second = hv.deploy(a).unwrap();
        assert_eq!(first.engine, second.engine);
        assert_eq!(second.latency_ns, 0);
    }

    #[test]
    fn undeploy_returns_app_to_software_and_frees_fabric() {
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        hv.deploy(a).unwrap();
        hv.run_round(0.0002).unwrap();
        let before = hv.app(a).unwrap().get_bits("count").unwrap().to_u64();
        hv.undeploy(a).unwrap();
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Software);
        // State survives the move back to software.
        assert_eq!(
            hv.app(a).unwrap().get_bits("count").unwrap().to_u64(),
            before
        );
        assert!(hv.monolithic_source().is_empty());
        assert!(matches!(hv.undeploy(a), Err(HvError::NotDeployed(_))));
    }

    #[test]
    fn temporal_multiplexing_deschedules_contending_streams() {
        let mut hv = Hypervisor::new(Device::de10());
        let a = hv.connect(streamer_runtime("regex", 1_000_000), DomainId(1), true);
        let b = hv.connect(streamer_runtime("nw", 1_000_000), DomainId(2), true);
        hv.deploy(a).unwrap();
        hv.deploy(b).unwrap();
        // With two IO-bound apps deployed, each round only one of them runs.
        let r1 = hv.run_round(0.005).unwrap();
        let ran1: Vec<u64> = r1.iter().filter(|s| s.ran).map(|s| s.app).collect();
        let r2 = hv.run_round(0.005).unwrap();
        let ran2: Vec<u64> = r2.iter().filter(|s| s.ran).map(|s| s.app).collect();
        assert_eq!(ran1.len(), 1);
        assert_eq!(ran2.len(), 1);
        assert_ne!(ran1[0], ran2[0], "round-robin alternates the IO path");
    }

    #[test]
    fn single_stream_is_not_descheduled() {
        let mut hv = Hypervisor::new(Device::de10());
        let a = hv.connect(streamer_runtime("regex", 100_000), DomainId(1), true);
        hv.deploy(a).unwrap();
        let stats = hv.run_round(0.005).unwrap();
        assert!(stats[0].ran);
    }

    #[test]
    fn disconnect_returns_the_runtime() {
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        hv.deploy(a).unwrap();
        let rt = hv.disconnect(a).unwrap();
        assert_eq!(rt.name(), "a");
        assert!(hv.apps().is_empty());
        assert!(matches!(hv.app(a), Err(HvError::UnknownApp(_))));
    }

    #[test]
    fn a_tenant_is_admitted_from_its_own_transform() {
        // The combined program shows what the tenant's engine executes, and a
        // redeploy admits the same program again.
        let mut hv = Hypervisor::new(Device::f1());
        let id = hv.connect(streamer_runtime("s", 8), DomainId(1), true);
        hv.deploy(id).unwrap();
        let own = hv.app(id).unwrap().transformed().unwrap().source.clone();
        assert_eq!(hv.monolithic_source().matches(&own).count(), 1);
        hv.undeploy(id).unwrap();
        hv.deploy(id).unwrap();
        assert_eq!(hv.app(id).unwrap().transformed().unwrap().source, own);
        assert_eq!(hv.monolithic_source().matches(&own).count(), 1);
    }

    #[test]
    fn deploy_timeline_is_pinned_cold_warm_and_across_a_quiet_rehome() {
        // Literals captured before the seating recipe was unified: the
        // hypervisor's admission and the runtime's seat each consult the
        // cache once, so a cold deploy pays synthesis + a 1 ms hit, a warm
        // one two 1 ms hits; the tenant's clock advances by its own seat
        // only, the hypervisor's by the fabric reconfiguration.
        let cache = BitstreamCache::new();
        let mut cold = Hypervisor::with_cache(Device::f1(), cache.clone());
        let a = cold.connect(counter_runtime("a"), DomainId(1), false);
        let out = cold.deploy(a).unwrap();
        assert!(!out.cache_hit);
        assert_eq!(out.latency_ns, 16_006_360_550);
        assert_eq!(cold.app(a).unwrap().now_ns(), 4_001_000_550);
        assert_eq!(cold.now_secs(), 4.0);

        let mut warm = Hypervisor::with_cache(Device::f1(), cache.clone());
        let b = warm.connect(counter_runtime("b"), DomainId(1), false);
        let out = warm.deploy(b).unwrap();
        assert!(out.cache_hit);
        assert_eq!(out.latency_ns, 8_002_000_550);
        assert_eq!(warm.app(b).unwrap().now_ns(), 4_001_000_550);
        assert_eq!(warm.now_secs(), 4.0);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 3));

        // Restoring onto another device type re-homes the engine without
        // touching the tenant's timeline.
        let before = warm.app(b).unwrap().now_ns();
        let mut other = Hypervisor::with_cache(Device::de10(), cache.clone());
        let ids = other.restore_fleet(&warm.checkpoint_fleet()).unwrap();
        let restored = other.app(ids[0]).unwrap();
        assert_eq!(restored.mode(), ExecMode::Hardware("de10".into()));
        assert_eq!(restored.now_ns(), before);
        assert_eq!((cache.stats().misses, cache.stats().hits), (2, 4));
    }

    #[test]
    fn fabric_rejection_leaves_no_morphlet_behind() {
        let mut hv = Hypervisor::new(Device {
            lut_capacity: 10,
            ..Device::f1()
        });
        let id = hv.connect(counter_runtime("c"), DomainId(1), false);
        assert!(matches!(hv.deploy(id), Err(HvError::Fabric(_))));
        assert!(hv.hull.active().is_empty());
        assert!(hv.monolithic_source().is_empty());
        assert_eq!(hv.app(id).unwrap().mode(), ExecMode::Software);
    }

    /// The Morphlet a deployed tenant holds in the hull.
    fn morphlet_of(hv: &Hypervisor, id: AppId) -> MorphletId {
        hv.apps[&id].engine.expect("deployed").1
    }

    #[test]
    fn a_retired_morphlet_is_gone() {
        let mut hv = Hypervisor::new(Device::f1());
        let id = hv.connect(counter_runtime("c"), DomainId(1), false);
        hv.deploy(id).unwrap();
        let first = morphlet_of(&hv, id);
        hv.hull.check_access(DomainId(1), first).unwrap();
        hv.undeploy(id).unwrap();
        assert_eq!(
            hv.hull.check_access(DomainId(1), first),
            Err(HullError::UnknownMorphlet(first.0))
        );

        // Churn on one node leaves nothing behind in the hull.
        let mut retired = vec![first];
        for _ in 0..1_000 {
            hv.deploy(id).unwrap();
            retired.push(morphlet_of(&hv, id));
            hv.undeploy(id).unwrap();
        }
        assert!(hv.hull.active().is_empty());
        assert_eq!(hv.fabric_utilization().luts, 0);
        assert!(retired
            .iter()
            .all(|&m| hv.hull.morphlet(m) == Err(HullError::UnknownMorphlet(m.0))));
    }

    /// A design too large for two copies to share a DE10: its 64 Kbit memory
    /// becomes flip-flops and mux logic under the transformation.
    const MEMORY: &str = r#"
        module Mem(input wire clock, output wire [31:0] out);
            reg [31:0] mem [0:2047];
            reg [10:0] i = 0;
            always @(posedge clock) begin
                mem[i] <= mem[i] + i;
                i <= i + 1;
            end
            assign out = mem[0];
        endmodule
    "#;

    /// One node's three records of what it has deployed agree: the tenants
    /// holding an engine, the hull's Morphlets (one per such tenant, in its
    /// domain, under its name) and the fabric's LUTs (the sum of those
    /// tenants' bitstreams).
    fn assert_one_ledger(hv: &mut Hypervisor) {
        let deployed: Vec<(AppId, MorphletId)> = hv
            .apps
            .values()
            .filter_map(|s| Some((s.id, s.engine?.1)))
            .collect();
        let mut morphlets: Vec<MorphletId> = deployed.iter().map(|&(_, m)| m).collect();
        morphlets.sort();
        let in_hull: Vec<MorphletId> = hv.hull.active().iter().map(|m| m.id).collect();
        assert_eq!(in_hull, morphlets);
        let (device, cache) = (hv.device.clone(), hv.cache.clone());
        let mut luts = 0;
        for &(app, m) in &deployed {
            let (morphlet, slot) = (hv.hull.morphlet(m).unwrap(), &hv.apps[&app]);
            assert_eq!(morphlet.domain, slot.domain);
            assert_eq!(morphlet.name, slot.runtime.name());
            let rt = hv.app_mut(app).unwrap();
            luts += rt
                .prepare_hardware(&device, &cache)
                .unwrap()
                .1
                .bitstream
                .report
                .luts;
        }
        assert_eq!(hv.fabric_utilization().luts, luts);
        let gauge = hv
            .metrics()
            .gauge_value(Namespace::Det, "hv_hull_active_morphlets", &[]);
        assert_eq!(gauge, Some(deployed.len() as i64));
    }

    #[test]
    fn the_hull_the_fabric_and_the_deployed_tenants_agree_at_every_step() {
        let cache = BitstreamCache::new();
        let mut hv = Hypervisor::with_cache(Device::de10(), cache.clone());
        let make = |n: u64| -> Runtime {
            let name = format!("t{}", n);
            match n % 3 {
                0 => Runtime::new(&name, MEMORY, "Mem", "clock").unwrap(),
                1 => counter_runtime(&name),
                _ => streamer_runtime(&name, 64),
            }
        };
        for n in 0..5 {
            hv.connect(make(n), DomainId(n), n % 3 == 2);
        }
        let mut rng = 0x5eed_u64;
        let mut pick = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        // Steps taken: admitted, rejected, undeployed, disconnected, restored.
        let mut steps = [0; 5];
        let mut next = 5;
        for _ in 0..80 {
            let apps = hv.apps();
            let deployed: Vec<AppId> = apps
                .iter()
                .copied()
                .filter(|id| hv.apps[id].engine.is_some())
                .collect();
            match pick(6) {
                3 if !deployed.is_empty() => {
                    hv.undeploy(deployed[pick(deployed.len())]).unwrap();
                    steps[2] += 1;
                }
                4 => {
                    hv.disconnect(apps[pick(apps.len())]).unwrap();
                    hv.connect(make(next), DomainId(next), next % 3 == 2);
                    next += 1;
                    steps[3] += 1;
                }
                5 => {
                    let mut fresh = Hypervisor::with_cache(Device::de10(), cache.clone());
                    assert_eq!(fresh.restore_fleet(&hv.checkpoint_fleet()).unwrap(), apps);
                    hv = fresh;
                    steps[4] += 1;
                }
                _ => match hv.deploy(apps[pick(apps.len())]) {
                    Ok(_) => steps[0] += 1,
                    Err(HvError::Fabric(FabricError::InsufficientResources { .. })) => {
                        steps[1] += 1
                    }
                    Err(e) => panic!("deploy failed: {}", e),
                },
            }
            assert_one_ledger(&mut hv);
        }
        assert!(
            steps.iter().all(|&n| n > 0),
            "every kind of step ran: {:?}",
            steps
        );
    }

    #[test]
    fn engine_policy_upgrades_software_residents() {
        let mut hv = Hypervisor::new(Device::f1());
        hv.set_engine_policy(EnginePolicy::Auto);
        // Connect upgrades the interpreter to the compiled engine...
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Compiled);
        // ...deploy moves it on to hardware...
        hv.deploy(a).unwrap();
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Hardware("f1".into()));
        hv.run_round(0.0002).unwrap();
        let before = hv.app(a).unwrap().get_bits("count").unwrap().to_u64();
        assert!(before > 0);
        // ...and undeploy lands back on the compiled engine, state intact.
        hv.undeploy(a).unwrap();
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Compiled);
        assert_eq!(
            hv.app(a).unwrap().get_bits("count").unwrap().to_u64(),
            before
        );
    }

    #[test]
    fn engine_policy_upgrades_already_connected_apps() {
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(counter_runtime("a"), DomainId(1), false);
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Software);
        // Setting the policy after connect upgrades software residents too.
        hv.set_engine_policy(EnginePolicy::Auto);
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Compiled);
    }

    #[test]
    fn a_tenant_is_optimised_once_however_often_it_is_re_seated() {
        synergy_telemetry::set_enabled(true);
        let auto =
            || Runtime::with_policy("a", COUNTER, "Counter", "clock", EnginePolicy::Auto).unwrap();
        let removed = |rt: &Runtime| {
            rt.metrics()
                .counter_value(Namespace::Det, "opt_ops_removed_total", &[])
        };
        let once = removed(&auto());

        let mut hv = Hypervisor::new(Device::f1());
        hv.set_engine_policy(EnginePolicy::Auto);
        let a = hv.connect(auto(), DomainId(1), false);
        for _ in 0..2 {
            hv.deploy(a).unwrap();
            hv.run_round(0.0002).unwrap();
            hv.undeploy(a).unwrap();
            assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Compiled);
        }
        // Optimiser telemetry describes the optimisation, not the seats.
        let rt = hv.app(a).unwrap();
        assert_eq!(removed(rt), once);
        assert_eq!(rt.flight_dump().matches(" optimize: ").count(), 1);
    }

    #[test]
    fn a_failed_upgrade_leaves_the_tenant_interpreting_and_a_trace_behind() {
        synergy_telemetry::set_enabled(true);
        // No input called `clk`: the interpreter only finds out when ticked,
        // the compiled engine when seated — an internal failure, not an
        // uncompilable design.
        let broken = || Runtime::new("broken", COUNTER, "Counter", "clk").unwrap();
        let mut hv = Hypervisor::new(Device::f1());
        let late = hv.connect(broken(), DomainId(1), false);
        hv.set_engine_policy(EnginePolicy::Auto);
        let early = hv.connect(broken(), DomainId(1), false);
        for id in [late, early] {
            let rt = hv.app(id).unwrap();
            assert_eq!(rt.mode(), ExecMode::Software);
            assert_eq!(
                rt.metrics().counter_value(
                    Namespace::Det,
                    "runtime_engine_fallbacks_total",
                    &[("reason", "elaboration error: no such variable 'clk'")]
                ),
                1
            );
        }
        assert_eq!(
            hv.flight_dump()
                .matches("hv_error: compilation error: elaboration error: no such variable 'clk'")
                .count(),
            2
        );
    }

    #[test]
    fn engine_policy_falls_back_for_streaming_designs_that_compile() {
        // Streaming programs (file IO) are compilable too; the compiled
        // engine services their traps through the same SystemEnv.
        let mut hv = Hypervisor::new(Device::de10());
        hv.set_engine_policy(EnginePolicy::Auto);
        let a = hv.connect(streamer_runtime("s", 10_000), DomainId(1), true);
        assert_eq!(hv.app(a).unwrap().mode(), ExecMode::Compiled);
        hv.run_round(0.001).unwrap();
        assert!(hv.app(a).unwrap().get_bits("reads").unwrap().to_u64() > 0);
    }

    #[test]
    fn mixed_engine_tenants_progress_fairly_in_shared_rounds() {
        // One tenant compiles (Auto → compiled engine); the other has a
        // multiply-driven net (the agreeing-drivers flavour the interpreter
        // settles but the lowering rejects), stays on the interpreter
        // fallback, and must still get its fair share of every scheduling
        // round with stable per-app stats.
        let mut hv = Hypervisor::new(Device::f1());
        hv.set_engine_policy(EnginePolicy::Auto);
        let fast = hv.connect(counter_runtime("fast"), DomainId(1), false);
        let dual_src = r#"module Dual(input wire clock, output wire [31:0] out);
                              reg [31:0] count = 0;
                              wire [31:0] o;
                              assign o = count + 1;
                              assign o = count + 1;
                              always @(posedge clock) count <= count + 1;
                              assign out = o;
                          endmodule"#;
        let slow = hv.connect(
            Runtime::new("dual", dual_src, "Dual", "clock").unwrap(),
            DomainId(2),
            false,
        );
        assert_eq!(hv.app(fast).unwrap().mode(), ExecMode::Compiled);
        assert_eq!(
            hv.app(slow).unwrap().mode(),
            ExecMode::Software,
            "uncompilable tenant must keep the interpreter under Auto"
        );

        let mut fast_ticks = 0;
        let mut slow_ticks = 0;
        for _ in 0..3 {
            let stats = hv.run_round(0.0005).unwrap();
            assert_eq!(stats.len(), 2, "every tenant reports each round");
            assert_eq!(stats[0].app, fast.0);
            assert_eq!(stats[1].app, slow.0);
            for s in &stats {
                assert!(s.ran, "software-resident tenants are never descheduled");
                assert!(s.ticks > 0, "both tenants make progress every round");
                assert_eq!(s.tasks, 0);
            }
            fast_ticks += stats[0].ticks;
            slow_ticks += stats[1].ticks;
        }
        assert_eq!(
            hv.app(fast).unwrap().get_bits("count").unwrap().to_u64(),
            fast_ticks
        );
        assert_eq!(
            hv.app(slow).unwrap().get_bits("count").unwrap().to_u64(),
            slow_ticks
        );
        // The engine ladder is visible in shared virtual time: the compiled
        // tenant's modelled clock runs faster than the interpreter's.
        assert!(
            fast_ticks > slow_ticks,
            "compiled tenant should out-tick the interpreter tenant ({} vs {})",
            fast_ticks,
            slow_ticks
        );
    }

    use synergy_workloads::HOSTILE_DESIGN;

    fn hostile_runtime(name: &str) -> Runtime {
        Runtime::new(name, HOSTILE_DESIGN, "Hostile", "clock").unwrap()
    }

    #[test]
    fn parallel_rounds_are_bit_identical_to_sequential() {
        let build = || {
            let mut hv = Hypervisor::new(Device::f1());
            hv.set_engine_policy(EnginePolicy::Auto);
            // Mixed engines: compiled counter, interpreter-bound dual driver,
            // and a compiled streamer.
            hv.connect(counter_runtime("a"), DomainId(1), false);
            let dual = r#"module Dual(input wire clock, output wire [31:0] out);
                              reg [31:0] count = 0;
                              wire [31:0] o;
                              assign o = count + 1;
                              assign o = count + 1;
                              always @(posedge clock) count <= count + 1;
                              assign out = o;
                          endmodule"#;
            hv.connect(
                Runtime::new("dual", dual, "Dual", "clock").unwrap(),
                DomainId(2),
                false,
            );
            hv.connect(streamer_runtime("s", 50_000), DomainId(3), true);
            hv
        };

        let mut seq = build();
        seq.set_sched_policy(SchedPolicy::Sequential);
        let mut par = build();
        par.set_sched_policy(SchedPolicy::Parallel { workers: 4 });
        assert_eq!(par.sched_policy(), SchedPolicy::Parallel { workers: 4 });

        for _ in 0..4 {
            let s = seq.run_round(0.0004).unwrap();
            let p = par.run_round(0.0004).unwrap();
            assert_eq!(s, p, "stats (incl. events and errors) must match");
        }
        for app in seq.apps() {
            assert_eq!(
                seq.app(app).unwrap().peek_state(),
                par.app(app).unwrap().peek_state(),
                "tenant {} state must be bit-identical",
                app.0
            );
            assert_eq!(
                seq.app(app).unwrap().now_ns(),
                par.app(app).unwrap().now_ns(),
            );
        }
        let pool = par.pool_stats().expect("parallel rounds are counted");
        assert_eq!(pool.executed, 4 * 3, "every tenant's job, every round");
        assert!(seq.pool_stats().is_none(), "sequential rounds are not");
    }

    #[test]
    fn erring_tenant_is_quarantined_and_the_round_continues() {
        let mut hv = Hypervisor::new(Device::f1());
        let good = hv.connect(counter_runtime("good"), DomainId(1), false);
        let bad = hv.connect(hostile_runtime("bad"), DomainId(2), false);

        // The round completes despite the hostile tenant...
        let stats = hv.run_round(0.0002).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].ran && stats[0].error.is_none());
        let err = stats[1].error.as_ref().expect("hostile tenant errored");
        assert!(err.contains("did not converge"), "error surfaced: {}", err);
        assert!(stats[1].ticks == 0 && !stats[1].ran);
        let good_before = hv.app(good).unwrap().get_bits("count").unwrap().to_u64();
        assert!(good_before > 0, "the good tenant made progress");
        assert_eq!(hv.quarantined(), vec![bad]);

        // ...and the quarantined tenant idles (no error spam) afterwards.
        let stats = hv.run_round(0.0002).unwrap();
        assert!(stats[0].ran);
        assert!(!stats[1].ran && stats[1].error.is_none());
        assert!(hv.app(good).unwrap().get_bits("count").unwrap().to_u64() > good_before);
        // Virtual time still advances for the quarantined tenant (two full
        // rounds of idling; running tenants may overshoot dt slightly).
        assert_eq!(hv.app(bad).unwrap().now_ns(), 2 * 200_000);

        // Quarantine clears explicitly; the tenant is scheduled (and errors)
        // again.
        hv.clear_quarantine(bad).unwrap();
        assert!(hv.quarantined().is_empty());
        let stats = hv.run_round(0.0002).unwrap();
        assert!(stats[1].error.is_some());
        assert!(matches!(
            hv.clear_quarantine(AppId(99)),
            Err(HvError::UnknownApp(99))
        ));
        // Disconnect drops the quarantine entry.
        hv.disconnect(bad).unwrap();
        assert!(hv.quarantined().is_empty());
    }

    // Parallel-vs-sequential quarantine equivalence lives in
    // tests/hv_parallel.rs (hostile_tenants_quarantine_identically_under_
    // parallelism), which exercises it with a larger mixed fleet.

    #[test]
    fn hostile_tenant_postmortem_names_the_failing_site() {
        synergy_telemetry::set_enabled(true);
        let mut hv = Hypervisor::new(Device::f1());
        let bad = hv.connect(hostile_runtime("bad"), DomainId(1), false);
        let stats = hv.run_round(0.0002).unwrap();
        assert!(stats[0].error.is_some());
        // The flight-recorder postmortem rides on the round stats and the
        // quarantine entry, and names the non-converging nb target (`f` in
        // HOSTILE_DESIGN) — even though the error message itself stays
        // engine-identical and generic.
        let postmortem = stats[0].postmortem.as_deref().expect("postmortem dump");
        assert!(
            postmortem.contains("non-convergent non-blocking targets: f"),
            "postmortem names the failing site: {}",
            postmortem
        );
        assert!(postmortem.contains("engine_error"));
        assert!(postmortem.contains("run_round"), "span context retained");
        assert_eq!(hv.quarantine_report(bad), Some(postmortem));
        assert_eq!(hv.quarantine_report(AppId(99)), None);
        // The hypervisor's own recorder logged the quarantine decision.
        assert!(hv.flight_dump().contains("quarantine"));
        // The same failure is visible on the compiled engine through the
        // shared fault channel (exercised directly in synergy-codegen); here
        // the hostile design is interpreter-resident because `always @(f)`
        // is outside the compilable envelope.
        let metrics = hv.metrics();
        assert_eq!(
            metrics.counter_value(
                synergy_telemetry::Namespace::Det,
                "hv_quarantines_total",
                &[]
            ),
            1
        );
    }

    #[test]
    fn a_tenant_panic_is_contained_to_that_tenant_under_either_policy() {
        synergy_telemetry::set_enabled(true);
        const CAP: u64 = 64;
        const DT: f64 = 0.001;
        // Two compiled counters around two deployed tenants: a counter (the
        // victim) and an io-bound stream.
        let build = |sched| {
            let mut hv = Hypervisor::new(Device::f1());
            hv.set_sched_policy(sched);
            hv.set_engine_policy(EnginePolicy::Auto);
            hv.set_round_tick_cap(CAP);
            let ids = [
                hv.connect(counter_runtime("first"), DomainId(1), false),
                hv.connect(counter_runtime("victim"), DomainId(2), false),
                hv.connect(streamer_runtime("stream", 100_000), DomainId(3), true),
                hv.connect(counter_runtime("last"), DomainId(4), false),
            ];
            hv.deploy(ids[1]).unwrap();
            hv.deploy(ids[2]).unwrap();
            hv
        };
        // Rounds 0 and 1 are ordinary; in round 2 the victim's job panics
        // (in `faulty` fleets); round 3 is ordinary again.
        let drive = |hv: &mut Hypervisor, faulty: bool| -> Vec<Vec<RoundStats>> {
            (0..4)
                .map(|round| {
                    hv.run_round_with(DT, |rt, dt_ns, budget| {
                        if faulty && round == 2 && rt.name() == "victim" {
                            panic!("boom in {}", rt.name());
                        }
                        run_round_job(rt, dt_ns, budget)
                    })
                    .expect("a tenant panic is not a round error")
                })
                .collect()
        };
        let mut healthy = build(SchedPolicy::Sequential);
        drive(&mut healthy, false);

        let mut seq = build(SchedPolicy::Sequential);
        let mut par = build(SchedPolicy::Parallel { workers: 3 });
        let seq_stats = drive(&mut seq, true);
        assert_eq!(seq_stats, drive(&mut par, true), "same stats either way");
        assert_eq!(par.pool_stats().unwrap().executed, 4 + 4 + 4 + 3);

        let victim = AppId(2);
        let hit = &seq_stats[2][1];
        assert_eq!(
            hit.error.as_deref(),
            Some("engine panicked: boom in victim")
        );
        assert_eq!((hit.ran, hit.ticks), (false, 0));
        let postmortem = hit.postmortem.as_deref().expect("postmortem dump");
        assert!(postmortem.contains("engine_panic: engine panicked: boom in victim"));
        assert!(seq_stats[2].iter().all(|s| s.app == victim.0 || s.ran));
        // The next round ran: the victim idled, its siblings ticked.
        assert!(seq_stats[3]
            .iter()
            .all(|s| s.error.is_none() && s.ran == (s.app != victim.0)));

        for hv in [&mut seq, &mut par] {
            assert_eq!(hv.quarantined(), vec![victim]);
            assert_eq!(hv.quarantine_report(victim), Some(postmortem));
            let quarantines =
                hv.metrics()
                    .counter_value(Namespace::Det, "hv_quarantines_total", &[]);
            assert_eq!(quarantines, 1);
            assert_eq!(hv.drr.deficit(victim.0), CAP, "charged nothing");
            // Siblings are where they would be had nothing panicked, and
            // every clock — the victim's too — sits on the round boundary.
            for app in hv.apps() {
                let (got, want) = (hv.app(app).unwrap(), healthy.app(app).unwrap());
                assert_eq!(got.now_ns(), want.now_ns(), "tenant {} clock", app.0);
                if app != victim {
                    assert_eq!(got.peek_state(), want.peek_state(), "tenant {}", app.0);
                }
            }
            // The victim keeps its slot and its fabric region until it is
            // disconnected, which works as for any tenant.
            assert_eq!(hv.fabric_utilization(), healthy.fabric_utilization());
            assert_eq!(hv.hull.active().len(), 2);
            let rt = hv.disconnect(victim).unwrap();
            assert_eq!(rt.name(), "victim");
            assert!(hv.fabric_utilization().luts < healthy.fabric_utilization().luts);
            assert_eq!(hv.hull.active().len(), 1);
            assert!(hv.quarantined().is_empty());
        }
    }

    #[test]
    fn quarantined_stream_frees_its_temporal_multiplexing_slice() {
        // Two io-bound *deployed* tenants; one errors and is quarantined.
        // The healthy stream must then run every round — the quarantined
        // tenant must not keep occupying io time slices (which would idle
        // the healthy stream on every other round).
        let mut hv = Hypervisor::new(Device::de10());
        let good = hv.connect(streamer_runtime("good", 1_000_000), DomainId(1), true);
        let bad = hv.connect(hostile_runtime("bad"), DomainId(2), true);
        hv.deploy(good).unwrap();
        // The hostile tenant errors on its first software round (settle cap)
        // and lands in quarantine...
        let stats = hv.run_round(0.001).unwrap();
        assert!(stats[1].error.is_some(), "hostile tenant errored");
        assert_eq!(hv.quarantined(), vec![bad]);
        // ...and is then deployed anyway (deployment does not tick), putting
        // a quarantined tenant on the shared IO path.
        hv.deploy(bad).unwrap();
        for _ in 0..3 {
            let stats = hv.run_round(0.001).unwrap();
            assert!(
                stats[0].ran,
                "healthy stream must run every round once the co-tenant is quarantined"
            );
            assert!(!stats[1].ran);
        }
        assert!(hv.app(good).unwrap().get_bits("reads").unwrap().to_u64() > 0);
    }

    #[test]
    fn round_stats_carry_runtime_events() {
        let src = r#"module M(input wire clock, input wire do_save);
                         reg [31:0] n = 0;
                         always @(posedge clock) begin
                             if (do_save) $save("ckpt");
                             n <= n + 1;
                         end
                     endmodule"#;
        let mut hv = Hypervisor::new(Device::f1());
        let a = hv.connect(
            Runtime::new("saver", src, "M", "clock").unwrap(),
            DomainId(1),
            false,
        );
        let stats = hv.run_round(0.0002).unwrap();
        assert!(stats[0].events.is_empty());
        hv.app_mut(a)
            .unwrap()
            .set("do_save", synergy_vlog::Bits::from_u64(1, 1))
            .unwrap();
        let stats = hv.run_round(0.0002).unwrap();
        assert!(
            stats[0]
                .events
                .iter()
                .any(|e| matches!(e, synergy_runtime::RuntimeEvent::Saved(t) if t == "ckpt")),
            "the $save event surfaces in the round stats"
        );
        assert!(hv.app(a).unwrap().checkpoints().contains_key("ckpt"));
    }

    #[test]
    fn descheduled_stream_bursts_with_its_carried_deficit() {
        let mut hv = Hypervisor::new(Device::de10());
        hv.set_round_tick_cap(50);
        let a = hv.connect(streamer_runtime("a", 1_000_000), DomainId(1), true);
        let b = hv.connect(streamer_runtime("b", 1_000_000), DomainId(2), true);
        hv.deploy(a).unwrap();
        hv.deploy(b).unwrap();
        // Round 1: one stream runs, capped at one quantum (50 ticks); the
        // other is descheduled and carries its allowance forward.
        let r1 = hv.run_round(0.1).unwrap();
        let (ran1, idle1) = if r1[0].ran { (0, 1) } else { (1, 0) };
        assert_eq!(r1[ran1].ticks, 50, "first round is capped at one quantum");
        assert_eq!(r1[idle1].ticks, 0);
        // Round 2: the previously descheduled stream wakes with two quanta.
        let r2 = hv.run_round(0.1).unwrap();
        assert!(r2[idle1].ran, "round-robin alternates");
        assert_eq!(
            r2[idle1].ticks, 100,
            "carried deficit doubles the waking stream's budget"
        );
    }

    #[test]
    fn unknown_app_operations_error() {
        let mut hv = Hypervisor::new(Device::f1());
        assert!(matches!(hv.deploy(AppId(99)), Err(HvError::UnknownApp(99))));
        assert!(matches!(hv.app(AppId(99)), Err(HvError::UnknownApp(99))));
        assert!(matches!(
            hv.disconnect(AppId(99)),
            Err(HvError::UnknownApp(99))
        ));
    }

    /// Builds a mixed fleet (hardware counter, compiled counter, deployed
    /// stream, quarantined hostile tenant) with some scheduler history.
    fn mixed_fleet() -> Hypervisor {
        let mut hv = Hypervisor::new(Device::f1());
        hv.set_engine_policy(EnginePolicy::Auto);
        hv.set_round_tick_cap(200);
        let hw = hv.connect(counter_runtime("hw"), DomainId(1), false);
        hv.deploy(hw).unwrap();
        hv.connect(counter_runtime("sw"), DomainId(2), false);
        let stream = hv.connect(streamer_runtime("stream", 100_000), DomainId(3), true);
        hv.deploy(stream).unwrap();
        hv.connect(hostile_runtime("bad"), DomainId(4), false);
        for _ in 0..3 {
            hv.run_round(0.0003).unwrap();
        }
        hv
    }

    #[test]
    fn fleet_checkpoint_restores_bit_identically_under_any_sched_policy() {
        let mut original = mixed_fleet();
        let bytes = original.checkpoint_fleet();

        // Restore into a fresh hypervisor running the *parallel* scheduler:
        // the checkpoint deliberately does not pin a SchedPolicy.
        let mut restored = Hypervisor::new(Device::f1());
        restored.set_sched_policy(SchedPolicy::Parallel { workers: 4 });
        let ids = restored.restore_fleet(&bytes).unwrap();
        assert_eq!(ids, original.apps());
        assert_eq!(restored.quarantined(), original.quarantined());
        assert_eq!(restored.handshakes(), original.handshakes());
        assert_eq!(restored.global_clock_hz(), original.global_clock_hz());

        for app in original.apps() {
            assert_eq!(
                restored.app(app).unwrap().peek_state(),
                original.app(app).unwrap().peek_state(),
                "tenant {} state must survive the wire",
                app.0
            );
            assert_eq!(
                restored.app(app).unwrap().mode(),
                original.app(app).unwrap().mode(),
                "tenant {} engine placement must survive the wire",
                app.0
            );
            assert_eq!(
                restored.app(app).unwrap().now_ns(),
                original.app(app).unwrap().now_ns(),
            );
        }

        // Onward rounds are bit-identical: DRR deficits, the io cursor, and
        // quarantine all resumed exactly where the checkpoint left them.
        for _ in 0..3 {
            let a = original.run_round(0.0003).unwrap();
            let b = restored.run_round(0.0003).unwrap();
            assert_eq!(a, b, "round stats diverged after restore");
        }
        for app in original.apps() {
            assert_eq!(
                restored.app(app).unwrap().peek_state(),
                original.app(app).unwrap().peek_state(),
            );
        }

        // New connects after restore get fresh ids (the id counter is part
        // of the checkpoint).
        let next = restored.connect(counter_runtime("late"), DomainId(9), false);
        assert!(!original.apps().contains(&next));
    }

    #[test]
    fn fleet_restore_rejects_non_empty_hypervisors_and_bad_bytes() {
        let original = mixed_fleet();
        let bytes = original.checkpoint_fleet();

        // Occupied target.
        let mut occupied = Hypervisor::new(Device::f1());
        occupied.connect(counter_runtime("resident"), DomainId(1), false);
        assert!(matches!(
            occupied.restore_fleet(&bytes),
            Err(HvError::Restore(_))
        ));

        // Truncated, corrupted, and wrong-kind bytes are typed errors.
        let mut fresh = Hypervisor::new(Device::f1());
        assert!(matches!(
            fresh.restore_fleet(&bytes[..bytes.len() / 2]),
            Err(HvError::Checkpoint(_))
        ));
        let mut corrupt = bytes.clone();
        corrupt[60] ^= 0x40;
        assert!(matches!(
            fresh.restore_fleet(&corrupt),
            Err(HvError::Checkpoint(_))
        ));
        let tenant_frame = original.app(AppId(1)).unwrap().save_checkpoint();
        assert!(matches!(
            fresh.restore_fleet(&tenant_frame),
            Err(HvError::Checkpoint(_))
        ));
        // The failed attempts left the hypervisor usable.
        assert!(fresh.restore_fleet(&bytes).is_ok());
    }

    #[test]
    fn fleet_restore_revalidates_device_capacity() {
        // A fleet checkpointed with a hardware tenant on the (huge) f1 must
        // not silently restore onto a device it no longer fits: the restore
        // returns a typed capacity error instead of degrading to software.
        let mut original = Hypervisor::new(Device::f1());
        // A software co-tenant records first in the fleet: a capacity
        // failure on the *later* hardware tenant must not leave it behind.
        original.connect(counter_runtime("sw"), DomainId(1), false);
        let app = original.connect(counter_runtime("big"), DomainId(2), false);
        original.deploy(app).unwrap();
        original.run_round(0.0002).unwrap();
        let bytes = original.checkpoint_fleet();

        let tiny = Device {
            name: "tiny".into(),
            lut_capacity: 10,
            ff_capacity: 10,
            bram_bits: 10,
            ..Device::f1()
        };
        let mut target = Hypervisor::new(tiny);
        match target.restore_fleet(&bytes) {
            Err(HvError::RestoreCapacity {
                app: failed,
                device,
                detail,
            }) => {
                assert_eq!(failed, app.0);
                assert_eq!(device, "tiny");
                assert!(detail.contains("LUT"), "detail is diagnostic: {}", detail);
            }
            other => panic!("expected RestoreCapacity, got {:?}", other.map(|_| ())),
        }
        // The failed restore left the target completely untouched (no
        // half-restored tenants or scheduler state), so the same checkpoint
        // can be retried — and fails the same way, not with
        // HvError::Restore("already has tenants").
        assert!(
            target.apps().is_empty(),
            "no tenant may survive a failed restore"
        );
        assert!(target.quarantined().is_empty());
        assert!(matches!(
            target.restore_fleet(&bytes),
            Err(HvError::RestoreCapacity { .. })
        ));

        // The same checkpoint restores fine onto a device with capacity.
        let mut ok = Hypervisor::new(Device::f1());
        ok.restore_fleet(&bytes).unwrap();
        assert_eq!(
            ok.app(app).unwrap().mode(),
            ExecMode::Hardware("f1".into()),
            "hardware residency is re-established, not silently dropped"
        );
    }

    #[test]
    fn fleet_restore_rejects_tenants_that_fit_alone_but_not_together() {
        let mut original = Hypervisor::new(Device::f1());
        let first = original.connect(counter_runtime("first"), DomainId(1), false);
        let second = original.connect(counter_runtime("second"), DomainId(2), false);
        original.deploy(first).unwrap();
        original.deploy(second).unwrap();
        // Room for one counter and a half: the fabric's own check turns the
        // second one away, and nothing of the first stays behind.
        let mut snug = Hypervisor::new(Device {
            name: "snug".into(),
            lut_capacity: original.fabric_utilization().luts * 3 / 4,
            ..Device::f1()
        });
        assert!(matches!(
            snug.restore_fleet(&original.checkpoint_fleet()),
            Err(HvError::RestoreCapacity { app, .. }) if app == second.0
        ));
        assert!(snug.apps().is_empty() && snug.hull.active().is_empty());
        assert_eq!(snug.fabric_utilization().luts, 0);
        let next = snug.connect(counter_runtime("c"), DomainId(1), false);
        assert_eq!(next, AppId(1), "the id counter was not restored either");
    }

    /// A fleet frame on f1 under policy tag `policy`, written field by field:
    /// one counter tenant per `(app id, engine id if deployed)`, and the
    /// given id counters.
    fn fleet_frame(policy: u8, next: (u64, u64), tenants: &[(u64, Option<u64>)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("f1");
        w.put_u8(policy);
        w.put_u8(0); // retired tier knob
        for v in [100_000, 0, 0, next.0, next.1, 0] {
            w.put_u64(v); // tick cap, io cursor, handshakes, counters, clock
        }
        w.put_u32(0); // quarantined
        w.put_u32(0); // DRR deficits
        w.put_u32(tenants.len() as u32);
        for &(id, engine) in tenants {
            w.put_u64(id);
            w.put_u64(id); // domain
            w.put_bool(false);
            w.put_bool(engine.is_some());
            if let Some(engine) = engine {
                w.put_u64(engine);
            }
            counter_runtime(&format!("t{}", id)).put_checkpoint(&mut w);
        }
        w.into_frame(KIND_FLEET)
    }

    /// Asserts `bytes` is refused as malformed and `hv` is left as new.
    fn assert_refused_untouched(hv: &mut Hypervisor, bytes: &[u8]) {
        match hv.restore_fleet(bytes) {
            Err(HvError::Checkpoint(CheckpointError::Decode(SnapshotError::Malformed(_)))) => {}
            other => panic!("expected Malformed, got {:?}", other),
        }
        assert!(hv.apps().is_empty() && hv.hull.active().is_empty());
        assert_eq!(hv.fabric_utilization().luts, 0);
        let next = hv.connect(counter_runtime("c"), DomainId(1), false);
        assert_eq!(next, AppId(1));
        hv.deploy(next).unwrap();
        assert_eq!(hv.apps[&next].engine.unwrap().0, EngineId(1));
        hv.disconnect(next).unwrap();
    }

    #[test]
    fn fleet_restore_rejects_a_repeated_tenant_id() {
        // The frame writer builds what `checkpoint_fleet` does.
        let mut hv = Hypervisor::new(Device::f1());
        let sound = fleet_frame(0, (3, 2), &[(1, Some(1)), (2, None)]);
        assert_eq!(hv.restore_fleet(&sound).unwrap(), [AppId(1), AppId(2)]);
        assert_eq!(
            hv.app(AppId(1)).unwrap().mode(),
            ExecMode::Hardware("f1".into())
        );

        // The second tenant 1 would replace the first, whose `engine_1`
        // region and Morphlet would stay behind.
        for tenants in [[(1, Some(1)), (1, None)], [(1, None), (1, Some(1))]] {
            let mut hv = Hypervisor::new(Device::f1());
            assert_refused_untouched(&mut hv, &fleet_frame(0, (3, 2), &tenants));
        }
    }

    #[test]
    fn fleet_restore_rejects_ids_its_counters_would_hand_out_again() {
        let refused = |next, tenants: &[(u64, Option<u64>)]| {
            let mut hv = Hypervisor::new(Device::f1());
            assert_refused_untouched(&mut hv, &fleet_frame(0, next, tenants));
        };
        // The next `connect` would overwrite tenant 3, or tenant 1.
        refused((3, 1), &[(3, None)]);
        refused((1, 1), &[(1, None)]);
        // The next `deploy` would find `engine_2` loaded, after running the
        // handshake.
        refused((2, 2), &[(1, Some(2))]);
        refused((3, 2), &[(1, Some(1)), (2, Some(5))]);
    }

    #[test]
    fn a_fleet_under_the_retired_compiled_policy_restores_under_auto() {
        // Tag 1 was the strict compiled policy, which a node applied as auto.
        let mut hv = Hypervisor::new(Device::f1());
        let ids = hv
            .restore_fleet(&fleet_frame(1, (3, 2), &[(1, Some(1)), (2, None)]))
            .unwrap();
        assert_eq!(hv.policy, EnginePolicy::Auto);
        // Software tenants are seated compiled: an undeployed one, and one
        // that connects interpreting.
        hv.undeploy(ids[0]).unwrap();
        assert_eq!(hv.app(ids[0]).unwrap().mode(), ExecMode::Compiled);
        let late = hv.connect(counter_runtime("late"), DomainId(3), false);
        assert_eq!(hv.app(late).unwrap().mode(), ExecMode::Compiled);
        // And it is written back as auto.
        let bytes = hv.checkpoint_fleet();
        let payload = decode_frame_of(&bytes, KIND_FLEET).unwrap();
        let mut r = Reader::new(payload);
        r.get_str().unwrap();
        assert_eq!(r.get_u8().unwrap(), 2);
    }
}
