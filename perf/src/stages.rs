//! The five lifecycle stages every run goes through. A workload is a traffic
//! mix: it decides how much of `--seconds` each stage gets (see
//! `main::WORKLOADS`), never what a stage does — so every run reports every
//! metric, and a change aimed at one stage shows on the others too.
//!
//! A stage is a fixed-work *epoch*; the driver (`main::drive`) runs whole
//! epochs only, interleaving the stages so that each gets its share of the
//! time. Fixed work makes the simulated results — which the digests cover —
//! independent of how fast the host is. Interleaving makes every stage sample
//! the whole length of the run, so a slow spell on a shared host costs each
//! stage a part of its samples instead of costing one stage all of them.
//!
//! Inside an epoch the samples fall into *batches* (`Report::close_batch`): a
//! pass over the tenants, a few rounds. A batch is the same operations every
//! time, so a median over one compares like with like; the run reports the
//! good decile of its batch medians (`stats::Series`). Load is closed-loop
//! with one client (this thread) under `SchedPolicy::Sequential`.

use crate::inputs::{Inputs, Source};
use crate::rng::Rng;
use crate::stats::Series;
use crate::trace::Tracer;
use crate::verify::{idle_reason, state_digest, Digest};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use synergy::runtime::StateSnapshot;
use synergy::{
    Cluster, ControlConfig, ControlPlane, Device, DomainId, EnginePolicy, ExecMode, FaultKind,
    FaultPlan, Hypervisor, Runtime, TenantSpec,
};

/// The stages, in the order they run.
pub const STAGES: [&str; 5] = ["admit", "compiled", "fabric", "control", "lifecycle"];

/// Simulated seconds handed to every scheduling round: generous, so that the
/// tick cap is what ends a tenant's turn.
const ROUND_DT: f64 = 1.0;

/// A software-resident or a fabric-resident steady fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Tenants stay on the compiled engine (stage `compiled`).
    Compiled,
    /// Tenants are deployed to the fabric (stage `fabric`).
    Fabric,
}

impl Residency {
    /// Index into the per-residency sample arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
    fn stage(self) -> &'static str {
        STAGES[1 + self.idx()]
    }
    /// Copies of each Table-1 design in the fleet. Four is the shape cohort
    /// batching needs; the fabric fleet is half the size because a fabric
    /// tick costs fifty times a compiled one.
    fn copies(self) -> usize {
        [4, 2][self.idx()]
    }
    fn tick_cap(self) -> u64 {
        [1024, 64][self.idx()]
    }
    fn rounds(self) -> u64 {
        [16, 4][self.idx()]
    }
    /// Rounds to a batch: about an eighth of a second of either fleet.
    fn batch_rounds(self) -> u64 {
        [4, 1][self.idx()]
    }
    /// Ticks a tenant has behind it when an epoch ends. A fabric tenant runs
    /// one tick in software first: a tenant deployed before its first tick
    /// never runs its `initial` block, its stream never opens, and it idles.
    fn epoch_ticks(self) -> u64 {
        self.rounds() * self.tick_cap() + [0, 1][self.idx()]
    }
}

/// Everything a run measured, before it is turned into metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations started (admission cycles, rounds, control calls,
    /// suspend/resumes, migrations, fleet checkpoints and restores).
    pub attempted: u64,
    /// Operations that failed, were refused without reason, or left wrong
    /// state behind.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// `VmHWM` once every stage has run its first epoch, in MB. Fixed work, so
    /// the same allocations in the same order on every run; the high-water
    /// mark at the end of a run also depends on how many epochs the time
    /// allowed, and moved 12 % between identical runs.
    pub peak_rss_mb: Option<f64>,
    /// Wall nanoseconds per stage (in [`STAGES`] order), over whole epochs.
    pub stage_wall_ns: [u64; 5],
    /// Operations per stage.
    pub stage_ops: [u64; 5],
    /// Epochs completed per stage.
    pub epochs: [u64; 5],

    /// Source text → first tick done, per admission.
    pub admit_ms: Series,
    /// The `deploy` call, per deployment that succeeded.
    pub fabric_ready_ms: Series,
    /// Admit → deploy → depart cycles a second, per pass over the sources.
    pub admits_per_s: Series,
    /// Deployments whose bitstream came from the cache.
    pub cache_hits: u64,
    /// Deployments.
    pub deploys: u64,
    /// Deployments the transform refused, as set-up predicted.
    pub expected_refusals: u64,

    /// `run_round` wall per round, by residency.
    pub round_ms: [Series; 2],
    /// Virtual ticks a second of round wall, per batch, by residency (every
    /// tenant spends its whole tick cap; the end-of-epoch check holds each to
    /// that).
    pub ticks_per_s: [Series; 2],

    /// Control steps that did not recover.
    pub control_step_ms: Series,
    /// Of those, the steps that also captured a fleet checkpoint.
    pub control_step_ckpt_ms: Vec<f64>,
    /// Control steps that recovered from a node kill.
    pub recover_ms: Series,
    /// `ControlPlane::admit`.
    pub control_admit_ms: Vec<f64>,
    /// `ControlPlane::depart`.
    pub control_depart_ms: Vec<f64>,
    /// Rounds re-executed by recoveries.
    pub replayed_rounds: u64,
    /// Rebalancing migrations the control plane made.
    pub migrations: u64,
    /// Of those, the ones that failed and rolled back.
    pub migration_failures: u64,
    /// Tenants found quarantined.
    pub quarantined: u64,

    /// `save_checkpoint` + `restore_checkpoint`, per tenant.
    pub suspend_resume_ms: Series,
    /// `save_checkpoint` alone, microseconds.
    pub save_us: Vec<f64>,
    /// `restore_checkpoint` alone, microseconds.
    pub restore_us: Vec<f64>,
    /// Checkpoint sizes, KiB.
    pub checkpoint_kb: Vec<f64>,
    /// `live_migrate`, per hop.
    pub migrate_ms: Series,
    /// Of those, tenants whose checkpoint is under 64 KiB.
    pub migrate_small_ms: Vec<f64>,
    /// And the rest (the streaming designs, about a MiB each).
    pub migrate_large_ms: Vec<f64>,
    /// `checkpoint_fleet`, per call.
    pub fleet_checkpoint_ms: Vec<f64>,
    /// `restore_fleet`, per call.
    pub fleet_restore_ms: Vec<f64>,
    /// Size of each fleet frame written and read back, MB.
    pub fleet_mb: Vec<f64>,
    /// Fleet frame MB a second of `checkpoint_fleet`, per call.
    pub fleet_checkpoint_mb_per_s: Series,
    /// Fleet frame MB a second of `restore_fleet`, per call.
    pub fleet_restore_mb_per_s: Series,

    /// Digests of seed-independent simulated state, by name; compared with
    /// `perf/expected/states.json`.
    pub pinned: BTreeMap<String, String>,
    /// Digest over every stage's first-epoch simulated state.
    pub state_digest: Digest,
    /// Digest over every stage's first-epoch deterministic telemetry.
    pub det_digest: Digest,

    next_op: u64,
    references: BTreeMap<(String, u64), StateSnapshot>,
}

impl Report {
    fn op(&mut self, stage: usize) -> u64 {
        self.attempted += 1;
        self.stage_ops[stage] += 1;
        self.next_op += 1;
        self.next_op
    }

    /// Counts a failed operation — or a condition of the run as a whole that
    /// makes its numbers unusable.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn pin(&mut self, name: String, digest: u64) {
        let hex = format!("{:016x}", digest);
        if let Some(old) = self.pinned.insert(name.clone(), hex.clone()) {
            if old != hex {
                self.fail(format!("{}: state differs between epochs or copies", name));
            }
        }
    }

    /// Opens an epoch of `stage`: its span and its clock.
    fn begin(&mut self, stage: usize, tr: &mut Tracer) -> (u32, Instant) {
        const SPANS: [&str; 5] = [
            "stage.admit",
            "stage.compiled",
            "stage.fabric",
            "stage.control",
            "stage.lifecycle",
        ];
        (tr.enter(SPANS[stage], 0), Instant::now())
    }

    /// Closes an epoch: its clock, its span, and its last batch.
    fn end(&mut self, stage: usize, epoch: (u32, Instant), tr: &mut Tracer) {
        tr.exit(epoch.0);
        self.stage_wall_ns[stage] += epoch.1.elapsed().as_nanos() as u64;
        self.epochs[stage] += 1;
        self.close_batch();
    }

    /// Ends a batch: a part of an epoch that is the same operations in every
    /// epoch (a pass over the tenants, a few rounds), so that the medians over
    /// batches compare like with like. The samples made since the last call
    /// become one median a series.
    fn close_batch(&mut self) {
        let [round_compiled, round_fabric] = &mut self.round_ms;
        let [ticks_compiled, ticks_fabric] = &mut self.ticks_per_s;
        for series in [
            &mut self.admit_ms,
            &mut self.fabric_ready_ms,
            &mut self.admits_per_s,
            round_compiled,
            round_fabric,
            ticks_compiled,
            ticks_fabric,
            &mut self.control_step_ms,
            &mut self.recover_ms,
            &mut self.suspend_resume_ms,
            &mut self.migrate_ms,
            &mut self.fleet_checkpoint_mb_per_s,
            &mut self.fleet_restore_mb_per_s,
        ] {
            series.close_batch();
        }
    }

    /// Whether `stage` is in its first epoch — the one whose simulated results
    /// the run's digests cover.
    fn first_epoch(&self, stage: usize) -> bool {
        self.epochs[stage] == 0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `Runtime::with_policy` + input file, as two spans; the nanoseconds of
/// both.
fn new_runtime(
    src: &Source,
    name: String,
    op: u64,
    tr: &mut Tracer,
) -> (Result<Runtime, String>, u64) {
    let (rt, ns_new) = tr.call("runtime.with_policy", op, || {
        Runtime::with_policy(name, &src.text, &src.top, &src.clock, EnginePolicy::Auto)
    });
    let mut rt = match rt {
        Ok(rt) => rt,
        Err(e) => return (Err(format!("{}: with_policy: {}", src.name, e)), ns_new),
    };
    let ((), ns_file) = tr.call("runtime.add_file", op, || {
        if let Some((path, data)) = &src.input {
            rt.add_file(path.clone(), data.clone());
        }
    });
    (Ok(rt), ns_new + ns_file)
}

/// The stages of one run: the inputs, the seed, and what the admission stage
/// keeps from pass to pass.
pub struct Stages<'a> {
    inp: &'a Inputs,
    seed: u64,
    /// The admission node lives across passes, so that its bitstream cache
    /// sees the repeats.
    admit_node: Hypervisor,
    admit_rng: Rng,
}

impl<'a> Stages<'a> {
    /// The stages of a run over `inp` with `seed`.
    pub fn new(inp: &'a Inputs, seed: u64) -> Self {
        let mut admit_node = Hypervisor::new(Device::f1());
        admit_node.set_engine_policy(EnginePolicy::Auto);
        Stages {
            inp,
            seed,
            admit_node,
            admit_rng: Rng::new(seed, 2),
        }
    }

    /// Runs one epoch of stage `stage` (an index into [`STAGES`]).
    pub fn epoch(&mut self, stage: usize, tr: &mut Tracer, r: &mut Report) {
        let epoch = r.begin(stage, tr);
        match stage {
            0 => self.admit(tr, r),
            1 => self.steady(Residency::Compiled, tr, r),
            2 => self.steady(Residency::Fabric, tr, r),
            3 => self.control(tr, r),
            _ => self.lifecycle(tr, r),
        }
        r.end(stage, epoch, tr);
    }

    /// Stage `admit`: one pass of admission cycles on one F1 node — source
    /// text → `Runtime::with_policy(Auto)` → one tick → `connect` → `deploy`
    /// → `disconnect` — over the 64-source working set in a seeded order. The
    /// compile path does all the work and the tick loop none; every pass
    /// after the first repeats sources, so shared work shows (bitstream-cache
    /// hits today, a software compile cache tomorrow).
    fn admit(&mut self, tr: &mut Tracer, r: &mut Report) {
        const STAGE: usize = 0;
        let hv = &mut self.admit_node;
        let mut order: Vec<usize> = (0..self.inp.admit_set.len()).collect();
        self.admit_rng.shuffle(&mut order);
        let mut digest = Digest::default();
        let mut pass_ns = 0u64;
        for &i in &order {
            let src = &self.inp.admit_set[i];
            let op = r.op(STAGE);
            let (rt, mut cycle_ns) = new_runtime(src, format!("{}#{}", src.name, op), op, tr);
            let mut rt = match rt {
                Ok(rt) => rt,
                Err(e) => {
                    r.fail(e);
                    continue;
                }
            };
            let (ticked, ns) = tr.call("runtime.run_ticks", op, || rt.run_ticks(1));
            cycle_ns += ns;
            r.admit_ms.push(ms(cycle_ns));
            if let Err(e) = ticked {
                r.fail(format!("{}: first tick: {}", src.name, e));
                continue;
            }
            let (state, _) = tr.call("bench.verify", op, || rt.peek_state());
            if state != src.first_tick {
                r.fail(format!("{}: wrong state after the first tick", src.name));
            }
            let (id, ns) = tr.call("hv.connect", op, || hv.connect(rt, DomainId(op), false));
            cycle_ns += ns;
            let (deployed, ns) = tr.call("hv.deploy", op, || hv.deploy(id));
            cycle_ns += ns;
            let outcome = match (&deployed, src.fabric_ok) {
                (Ok(out), true) => {
                    r.fabric_ready_ms.push(ms(ns));
                    r.deploys += 1;
                    r.cache_hits += out.cache_hit as u64;
                    if out.cache_hit {
                        "hit"
                    } else {
                        "miss"
                    }
                }
                (Err(_), false) => {
                    r.expected_refusals += 1;
                    "software"
                }
                (Ok(_), false) => {
                    r.fail(format!(
                        "{}: deployed a design set-up found unsupported",
                        src.name
                    ));
                    "unexpected"
                }
                (Err(e), true) => {
                    r.fail(format!("{}: deploy refused: {}", src.name, e));
                    "refused"
                }
            };
            let (gone, ns) = tr.call("hv.disconnect", op, || hv.disconnect(id));
            cycle_ns += ns;
            if let Err(e) = gone {
                r.fail(format!("{}: disconnect: {}", src.name, e));
            }
            pass_ns += cycle_ns;
            digest.str(&src.name);
            digest.u64(state_digest(&state));
            digest.str(outcome);
        }
        r.admits_per_s
            .push(order.len() as f64 / (pass_ns as f64 / 1e9));
        if r.first_epoch(STAGE) {
            r.state_digest.str(&digest.hex());
            r.det_digest.str(&hv.metrics().det_text());
        }
    }

    /// Builds a steady fleet on one F1 node, tenants in a seeded order.
    fn build_fleet(&self, res: Residency, tr: &mut Tracer, r: &mut Report) -> Hypervisor {
        let span = tr.enter("bench.build_fleet", 0);
        let mut hv = Hypervisor::new(Device::f1());
        hv.set_engine_policy(EnginePolicy::Auto);
        hv.set_round_tick_cap(res.tick_cap());
        let designs = self.inp.table1.len();
        let mut tenants: Vec<(usize, usize)> = (0..res.copies())
            .flat_map(|c| (0..designs).map(move |d| (d, c)))
            .collect();
        Rng::new(self.seed, 3 + res.idx() as u64).shuffle(&mut tenants);
        for (d, c) in tenants {
            let src = &self.inp.table1[d];
            let name = format!("{}.{}", src.name, c);
            let (rt, _) = new_runtime(src, name.clone(), 0, tr);
            let mut rt = match rt {
                Ok(rt) => rt,
                Err(e) => {
                    r.fail(e);
                    continue;
                }
            };
            if res == Residency::Fabric {
                if let (Err(e), _) = tr.call("runtime.run_ticks", 0, || rt.run_ticks(1)) {
                    r.fail(format!("{}: software tick before deploy: {}", name, e));
                }
            }
            let domain = DomainId(1 + d as u64);
            let (id, _) = tr.call("hv.connect", 0, || hv.connect(rt, domain, false));
            if res == Residency::Fabric {
                if let (Err(e), _) = tr.call("hv.deploy", 0, || hv.deploy(id)) {
                    r.fail(format!("{}: deploy: {}", name, e));
                }
            }
        }
        tr.exit(span);
        hv
    }

    /// Stages `compiled` and `fabric`: steady rounds over a resident fleet,
    /// built afresh every epoch.
    ///
    /// `compiled`: 24 software-resident tenants (6 Table-1 × 4), tick cap
    /// 1,024, 16 rounds — the word executor under `Runtime::run_ticks` does
    /// all the work, compile and snapshot none. No fuzz designs: their heavy
    /// tail would make the aggregate a function of the seed draw.
    ///
    /// `fabric`: 12 deployed tenants (6 × 2), tick cap 64, 4 rounds — the
    /// paper's virtualised path: transformed state machine, sub-tick traps,
    /// hull, shared clock. The same `hv` and `runtime` layers as `compiled`,
    /// used differently: a compiled-executor win must not show here, and a
    /// win here must not cost there.
    fn steady(&mut self, res: Residency, tr: &mut Tracer, r: &mut Report) {
        let stage = res.stage();
        let mut hv = self.build_fleet(res, tr, r);
        let mut batch_ns = 0u64;
        for round in 1..=res.rounds() {
            let op = r.op(1 + res.idx());
            let (stats, ns) = tr.call("hv.run_round", op, || hv.run_round(ROUND_DT));
            match stats {
                Ok(stats) => {
                    for s in stats.iter().filter(|s| s.error.is_some()) {
                        r.fail(format!("{}: tenant {} errored in a round", stage, s.app));
                    }
                }
                Err(e) => r.fail(format!("{}: run_round: {}", stage, e)),
            }
            r.round_ms[res.idx()].push(ms(ns));
            batch_ns += ns;
            if round % res.batch_rounds() == 0 {
                let ticks = hv.tenant_count() as u64 * res.tick_cap() * res.batch_rounds();
                r.ticks_per_s[res.idx()].push(ticks as f64 / (batch_ns as f64 / 1e9));
                batch_ns = 0;
                r.close_batch();
            }
        }
        let verify = tr.enter("bench.verify", 0);
        check_fleet(res, &hv, r);
        if r.first_epoch(1 + res.idx()) {
            let mut d = Digest::default();
            for id in hv.apps() {
                let rt = hv.app(id).expect("listed app is connected");
                d.str(rt.name());
                d.u64(state_digest(&rt.peek_state()));
            }
            r.state_digest.str(&d.hex());
            r.det_digest.str(&hv.metrics().det_text());
        }
        tr.exit(verify);
    }

    /// Stage `control`: a `ControlPlane` over 3 DE10 + 1 F1 serving 24
    /// tenants for 24 control rounds; every round one seeded tenant departs
    /// and a new one is admitted, a fleet checkpoint lands every fourth
    /// round, and two rounds after each a seeded node is killed, so that
    /// recovery rolls back and replays. Recovery, admission and rebalancing
    /// dominate; ticks do not.
    fn control(&mut self, tr: &mut Tracer, r: &mut Report) {
        const STAGE: usize = 3;
        let inp = self.inp;
        let mut rng = Rng::new(self.seed, 5);
        let mut cp = ControlPlane::new(ControlConfig {
            round_dt: ROUND_DT,
            round_tick_cap: CONTROL_TICK_CAP,
            // Six tenants a node is 300‰ of this capacity: an even fleet is
            // left alone, but the eight a node carries after its neighbour
            // died (400‰) trip the rebalancer, which then re-packs the
            // revived, empty node — so self-healing migrations are measured.
            software_capacity: Some(20),
            high_watermark: 350,
            low_watermark: 200,
            checkpoint_interval: CONTROL_CHECKPOINT_EVERY,
            ..ControlConfig::default()
        });
        cp.set_engine_policy(EnginePolicy::Auto);
        for i in 0..4 {
            cp.add_node(if i == 3 { Device::f1() } else { Device::de10() });
        }
        // The nodes die in a seeded order, round robin: every seed kills every
        // node, so the mix of recoveries is as near the same on every seed as
        // six kills over four nodes can be (free draws moved `recover_ms_p50`
        // 6 % between seeds).
        let mut victims = [0, 1, 2, 3];
        rng.shuffle(&mut victims);
        let mut plan = FaultPlan::none();
        for (n, round) in (2..CONTROL_ROUNDS)
            .step_by(CONTROL_CHECKPOINT_EVERY as usize)
            .enumerate()
        {
            plan.push(round, FaultKind::KillNode(victims[n % victims.len()]));
        }
        cp.set_fault_plan(plan);

        // The benchmark's own journal: who is alive, and since which round.
        let mut alive: Vec<(String, usize, u64)> = Vec::new();
        let mut next = 0usize;
        let mut admit = |cp: &mut ControlPlane,
                         alive: &mut Vec<(String, usize, u64)>,
                         tr: &mut Tracer,
                         r: &mut Report| {
            let src = control_source(inp, next);
            let spec = TenantSpec {
                name: format!("t{:03}", next),
                source: src.text.clone(),
                top: src.top.clone(),
                clock: src.clock.clone(),
                domain: next as u64 + 1,
                io_bound: false,
            };
            let op = r.op(STAGE);
            let name = spec.name.clone();
            let (placed, ns) = tr.call("hv.control_admit", op, || cp.admit(spec));
            r.control_admit_ms.push(ms(ns));
            match placed {
                Ok(_) => alive.push((name, next, cp.round())),
                Err(e) => r.fail(format!("control: admit {}: {}", name, e)),
            }
            next += 1;
        };
        for _ in 0..CONTROL_FLEET {
            admit(&mut cp, &mut alive, tr, r);
        }
        for _ in 0..CONTROL_ROUNDS {
            let (name, _, _) = alive.remove(rng.below(alive.len()));
            let op = r.op(STAGE);
            let (gone, ns) = tr.call("hv.control_depart", op, || cp.depart(&name));
            r.control_depart_ms.push(ms(ns));
            if let Err(e) = gone {
                r.fail(format!("control: depart {}: {}", name, e));
            }
            admit(&mut cp, &mut alive, tr, r);

            let recoveries = cp.recoveries().len();
            let op = r.op(STAGE);
            let (stepped, ns) = tr.call("hv.control_step", op, || cp.step());
            if let Err(e) = stepped {
                r.fail(format!("control: step {}: {}", cp.round(), e));
            }
            if cp.recoveries().len() > recoveries {
                r.recover_ms.push(ms(ns));
            } else {
                r.control_step_ms.push(ms(ns));
                if cp.round().is_multiple_of(CONTROL_CHECKPOINT_EVERY) {
                    r.control_step_ckpt_ms.push(ms(ns));
                }
            }
        }

        // Survival against the journal, and every survivor's state against a
        // bare runtime that ran the same ticks with no hypervisor, no
        // checkpoint and no recovery in its way.
        let verify = tr.enter("bench.verify", 0);
        let survivors: BTreeSet<String> = cp.tenants().into_iter().map(|t| t.name).collect();
        let expected: BTreeSet<String> = alive.iter().map(|(n, _, _)| n.clone()).collect();
        if survivors != expected || !cp.lost_tenants().is_empty() {
            r.fail(format!(
                "control: {} of {} tenants survive, {} lost",
                survivors.intersection(&expected).count(),
                expected.len(),
                cp.lost_tenants().len()
            ));
        }
        let mut d = Digest::default();
        for (name, spec, since) in &alive {
            let ticks = CONTROL_TICK_CAP * (CONTROL_ROUNDS - since);
            let src = control_source(inp, *spec);
            let Some(state) = cp.tenant_state(name) else {
                continue;
            };
            let key = (src.name.clone(), ticks);
            if !r.references.contains_key(&key) {
                let reference = src.runtime(format!("ref_{}", src.name)).and_then(|mut rt| {
                    rt.run_ticks(ticks)?;
                    Ok(rt.peek_state())
                });
                match reference {
                    Ok(state) => {
                        r.references.insert(key.clone(), state);
                    }
                    Err(e) => r.fail(format!("control: reference for {}: {}", src.name, e)),
                }
            }
            if r.references.get(&key).map(|s| &s.values) != Some(&state.values) {
                r.fail(format!(
                    "control: {} ({}) does not hold the state of {} ticks",
                    name, src.name, ticks
                ));
            }
            d.str(name);
            d.u64(state_digest(&state));
        }
        let quarantined = cp.tenants().iter().filter(|t| t.quarantined).count() as u64;
        if quarantined > 0 {
            r.fail(format!("control: {} tenants quarantined", quarantined));
        }
        r.quarantined += quarantined;
        r.replayed_rounds += cp
            .recoveries()
            .iter()
            .map(|x| x.replayed_rounds)
            .sum::<u64>();
        r.migrations += cp.migrations();
        r.migration_failures += cp.migration_failures();
        if r.first_epoch(STAGE) {
            r.state_digest.str(&d.hex());
            r.det_digest.str(&cp.cluster().metrics().det_text());
        }
        tr.exit(verify);
    }

    /// Stage `lifecycle`: suspend/resume, migration and fleet checkpoints on
    /// two F1 nodes over 18 tenants — each Table-1 design once on the fabric
    /// and once in software, plus six counters; state runs from 0.1 KiB to
    /// over a MiB with stream images. Every tenant is saved and restored
    /// through the wire format three times, migrated to the other node and
    /// back, and the whole fleet is checkpointed and restored into a fresh
    /// hypervisor three times. Encode (write) and decode + rebuild (read) are
    /// timed apart, so that a gain for one that costs the other shows.
    ///
    /// Six counters, so that the median of a pass over the 18 is the mean of
    /// two tenants of a kind — the designs that run in software and carry no
    /// stream, half a millisecond to suspend and resume — and the median hop
    /// likewise. With seven the median was the cheapest of that group alone,
    /// and which tenant that was changed with the seed: 9–12 % spread over
    /// ten seeds, against 3–8 % for the mean of two. A pass, a migration
    /// direction and a fleet checkpoint + restore are a batch each.
    fn lifecycle(&mut self, tr: &mut Tracer, r: &mut Report) {
        const STAGE: usize = 4;
        /// Checkpoints under this many bytes are "small" (no stream image).
        const SMALL: usize = 64 << 10;
        let inp = self.inp;
        let build = tr.enter("bench.build_fleet", 0);
        let mut cl = Cluster::new();
        cl.set_engine_policy(EnginePolicy::Auto);
        cl.set_round_tick_cap(LIFECYCLE_TICK_CAP);
        let (a, b) = (cl.add_node(Device::f1()), cl.add_node(Device::f1()));
        let mut fleet: Vec<Resident> = Vec::new();
        let plan = (0..inp.table1.len())
            .flat_map(|d| [(&inp.table1[d], "hw"), (&inp.table1[d], "sw")])
            .chain((0..6).map(|_| (&inp.counter, "sw")));
        for (i, (src, place)) in plan.enumerate() {
            let name = format!("{}.{}.{}", src.name, place, i);
            let domain = DomainId(i as u64 + 1);
            let (rt, _) = new_runtime(src, name.clone(), 0, tr);
            let mut rt = match rt {
                Ok(rt) => rt,
                Err(e) => {
                    r.fail(e);
                    continue;
                }
            };
            if let (Err(e), _) = tr.call("runtime.run_ticks", 0, || rt.run_ticks(1)) {
                r.fail(format!("{}: first tick: {}", name, e));
            }
            let (id, _) = tr.call("hv.connect", 0, || {
                cl.node_mut(a).connect(rt, domain, false)
            });
            if place == "hw" {
                if let (Err(e), _) = tr.call("hv.deploy", 0, || cl.node_mut(a).deploy(id)) {
                    r.fail(format!("{}: deploy: {}", name, e));
                }
            }
            fleet.push(Resident {
                name,
                id,
                domain,
                streams: src.input.is_some(),
                checkpoint_bytes: 0,
            });
        }
        for _ in 0..2 {
            if let (Err(e), _) = tr.call("hv.run_round", 0, || cl.node_mut(a).run_round(ROUND_DT)) {
                r.fail(format!("lifecycle: run_round: {}", e));
            }
        }
        tr.exit(build);
        // The seed orders the tenants, but those without a stream image come
        // first: the median tenant is one of them, and what a half-millisecond
        // suspend costs depends on whether a MiB-sized neighbour went just
        // before it (12 % between two seeds, when the order was free).
        let mut rng = Rng::new(self.seed, 6);
        let (mut order, mut streaming): (Vec<usize>, Vec<usize>) =
            (0..fleet.len()).partition(|&i| !fleet[i].streams);
        rng.shuffle(&mut order);
        rng.shuffle(&mut streaming);
        order.append(&mut streaming);

        // Suspend and resume through the wire format.
        for (n, &i) in order.iter().cycle().take(3 * order.len()).enumerate() {
            if n > 0 && n % order.len() == 0 {
                r.close_batch();
            }
            let op = r.op(STAGE);
            let rt = cl.node(a).app(fleet[i].id).expect("tenant is on node a");
            let (bytes, ns_save) = tr.call("runtime.save_checkpoint", op, || rt.save_checkpoint());
            let (back, ns_restore) = tr.call("runtime.restore_checkpoint", op, || {
                Runtime::restore_checkpoint(&bytes)
            });
            r.suspend_resume_ms.push(ms(ns_save + ns_restore));
            r.save_us.push(ns_save as f64 / 1e3);
            r.restore_us.push(ns_restore as f64 / 1e3);
            r.checkpoint_kb.push(bytes.len() as f64 / 1024.0);
            let (ok, _) = tr.call("bench.verify", op, || match &back {
                Ok(back) => same_state(back, &rt.peek_state(), rt.ticks()),
                Err(_) => false,
            });
            fleet[i].checkpoint_bytes = bytes.len();
            if !ok {
                r.fail(format!(
                    "{}: restore did not give the saved state back",
                    fleet[i].name
                ));
            }
        }

        // Migrate every tenant to the other node, then home again.
        for (from, to) in [(a, b), (b, a)] {
            r.close_batch();
            for &i in &order {
                let op = r.op(STAGE);
                let (before, ticks) = {
                    let rt = cl
                        .node(from)
                        .app(fleet[i].id)
                        .expect("tenant is on its node");
                    (rt.peek_state(), rt.ticks())
                };
                let (id, domain) = (fleet[i].id, fleet[i].domain);
                let (moved, ns) = tr.call("hv.live_migrate", op, || {
                    cl.live_migrate(from, id, to, domain, false)
                });
                r.migrate_ms.push(ms(ns));
                if fleet[i].checkpoint_bytes < SMALL {
                    r.migrate_small_ms.push(ms(ns));
                } else {
                    r.migrate_large_ms.push(ms(ns));
                }
                match moved {
                    Ok((new_id, _)) => {
                        fleet[i].id = new_id;
                        let rt = cl
                            .node(to)
                            .app(new_id)
                            .expect("migrated tenant is on the target");
                        if !same_state(rt, &before, ticks) {
                            r.fail(format!("{}: migration changed its state", fleet[i].name));
                        }
                    }
                    Err(e) => r.fail(format!("{}: live_migrate: {}", fleet[i].name, e)),
                }
            }
        }

        // Checkpoint the fleet and restore it into a fresh hypervisor.
        let mut restored = None;
        for _ in 0..3 {
            r.close_batch();
            let op = r.op(STAGE);
            let (bytes, ns) = tr.call("hv.checkpoint_fleet", op, || cl.node(a).checkpoint_fleet());
            let mb = bytes.len() as f64 / 1e6;
            r.fleet_checkpoint_ms.push(ms(ns));
            r.fleet_mb.push(mb);
            r.fleet_checkpoint_mb_per_s.push(mb / (ns as f64 / 1e9));
            let op = r.op(STAGE);
            let mut fresh = Hypervisor::new(Device::f1());
            fresh.set_engine_policy(EnginePolicy::Auto);
            let (ids, ns) = tr.call("hv.restore_fleet", op, || fresh.restore_fleet(&bytes));
            r.fleet_restore_ms.push(ms(ns));
            r.fleet_restore_mb_per_s.push(mb / (ns as f64 / 1e9));
            match ids {
                Ok(ids) if ids.len() == fleet.len() => restored = Some(fresh),
                Ok(ids) => r.fail(format!(
                    "lifecycle: restored {} of {}",
                    ids.len(),
                    fleet.len()
                )),
                Err(e) => r.fail(format!("lifecycle: restore_fleet: {}", e)),
            }
        }

        // A restored fleet must resume exactly as the original does.
        let verify = tr.enter("bench.verify", 0);
        if let Some(mut fresh) = restored {
            let _ = cl.node_mut(a).run_round(ROUND_DT);
            let _ = fresh.run_round(ROUND_DT);
            let states = |hv: &Hypervisor| -> BTreeMap<String, StateSnapshot> {
                hv.apps()
                    .into_iter()
                    .filter_map(|id| hv.app(id).ok())
                    .map(|rt| (rt.name().to_string(), rt.peek_state()))
                    .collect()
            };
            let (orig, back) = (states(cl.node(a)), states(&fresh));
            if orig != back {
                r.fail("lifecycle: the restored fleet resumed differently".into());
            }
            let mut d = Digest::default();
            for (name, state) in &orig {
                r.pin(format!("{}.{}", STAGES[STAGE], name), state_digest(state));
                d.str(name);
                d.u64(state_digest(state));
            }
            for id in cl.node(a).apps() {
                if let Some(why) = idle_reason(cl.node(a).app(id).expect("listed app")) {
                    r.fail(why);
                }
            }
            if r.first_epoch(STAGE) {
                r.state_digest.str(&d.hex());
                r.det_digest.str(&cl.metrics().det_text());
            }
        }
        tr.exit(verify);
    }
}

/// Checks a steady fleet at the end of an epoch: every tenant ran exactly the
/// epoch's ticks on the engine the stage is about, none finished or ran dry,
/// and every copy of a design holds the pinned state.
fn check_fleet(res: Residency, hv: &Hypervisor, r: &mut Report) {
    for id in hv.apps() {
        let rt = hv.app(id).expect("listed app is connected");
        if rt.ticks() != res.epoch_ticks() {
            r.fail(format!(
                "{}: {} ticks, expected {}",
                rt.name(),
                rt.ticks(),
                res.epoch_ticks()
            ));
        }
        let resident = matches!(
            (res, rt.mode()),
            (Residency::Compiled, ExecMode::Compiled) | (Residency::Fabric, ExecMode::Hardware(_))
        );
        if !resident {
            r.fail(format!("{}: runs in {:?}", rt.name(), rt.mode()));
        }
        if let Some(why) = idle_reason(rt) {
            r.fail(why);
        }
        let design = rt.name().split('.').next().unwrap_or_default();
        r.pin(
            format!("{}.{}", res.stage(), design),
            state_digest(&rt.peek_state()),
        );
    }
}

/// Tenants alive in the control stage at any time.
const CONTROL_FLEET: usize = 24;
/// Control rounds per epoch.
const CONTROL_ROUNDS: u64 = 24;
/// Tick cap of the control stage: small, so that admission, checkpoints and
/// recovery dominate and ticking does not.
const CONTROL_TICK_CAP: u64 = 4;
/// Tick cap of the lifecycle stage's few rounds: they exist to give tenants
/// state worth moving and to show that a restored fleet resumes, not to be
/// measured.
const LIFECYCLE_TICK_CAP: u64 = 16;
/// Rounds between fleet checkpoints; a node dies two rounds after each.
const CONTROL_CHECKPOINT_EVERY: u64 = 4;

/// The designs the control stage admits, by position: half tiny counters,
/// half `bitcoin` and `df`. `ControlPlane` cannot attach an input file, so a
/// streaming design would idle; and it deploys a tenant before its first
/// tick, so `mips32` (whose `initial` block fills its memories) never gets
/// its contents.
fn control_source(inp: &Inputs, i: usize) -> &Source {
    match i % 4 {
        1 => &inp.table1[1],
        3 => &inp.table1[2],
        _ => &inp.counter,
    }
}

/// One tenant of the lifecycle stage.
struct Resident {
    name: String,
    id: synergy::AppId,
    domain: DomainId,
    /// Whether it carries an input stream (and so a MiB of stream image).
    streams: bool,
    /// Size of its checkpoint, as the suspend pass saw it.
    checkpoint_bytes: usize,
}

/// Compares a tenant with the state it must still hold.
fn same_state(rt: &Runtime, before: &StateSnapshot, ticks: u64) -> bool {
    rt.peek_state().values == before.values && rt.ticks() == ticks
}
