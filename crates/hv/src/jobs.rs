//! The bodies of a scheduling round's jobs: one tenant alone, or a cohort —
//! software-resident tenants of one compiled program whose ticks run in
//! lockstep (`synergy_codegen::Cohort`), one dispatch per word op for every
//! lane. A cohort job ends with every tenant exactly where its solo job
//! would have left it: state, output, events, stats, virtual clock and Det
//! telemetry (see "Cohorts" in `docs/ARCHITECTURE.md`).

use crate::sched;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use synergy_runtime::{
    lockstep, LaneJournal, Lockstep, NotReady, RunReport, Runtime, RuntimeEvent,
};
use synergy_vlog::VlogResult;

/// Everything one tenant's round job produced. Errors are carried as data —
/// a hostile or broken tenant must not abort the other tenants' round.
#[derive(Debug)]
pub(crate) struct RoundJobResult {
    pub(crate) report: RunReport,
    pub(crate) events: Vec<RuntimeEvent>,
    pub(crate) error: Option<String>,
}

/// How a tenant's round is cut into `run_ticks` batches: a small probe
/// batch to estimate the per-tick cost, then batches sized to fill what is
/// left of the round's simulated time, within the tick budget.
struct RoundPlan {
    remaining: u64,
    batch: u64,
    budget: u64,
    ticks: u64,
}

impl RoundPlan {
    fn new(dt_ns: u64, budget: u64) -> RoundPlan {
        RoundPlan {
            remaining: dt_ns,
            batch: 16u64.min(budget.max(1)),
            budget,
            ticks: 0,
        }
    }

    /// The next batch, while simulated time and budget remain.
    fn next(&self) -> Option<u64> {
        (self.remaining > 0 && self.ticks < self.budget).then_some(self.batch)
    }

    /// Takes a batch's report; `false` when the round is over.
    fn absorb(&mut self, report: &RunReport) -> bool {
        self.ticks += report.ticks;
        if report.ticks == 0 || report.elapsed_ns == 0 || report.elapsed_ns >= self.remaining {
            return false;
        }
        self.remaining -= report.elapsed_ns;
        let per_tick = (report.elapsed_ns / report.ticks).max(1);
        // Adaptive refinement: size the next hardware batch to fill the remaining
        // quantum without overshooting too far (§6.2).
        self.batch = (self.remaining / per_tick)
            .clamp(1, 8192)
            .min(self.budget - self.ticks);
        true
    }

    /// The batches a tenant whose every tick takes `tick_ns` and raises
    /// nothing runs.
    fn batches(dt_ns: u64, budget: u64, tick_ns: u64) -> Vec<u64> {
        let mut plan = RoundPlan::new(dt_ns, budget);
        let mut out = Vec::new();
        while let Some(n) = plan.next() {
            out.push(n);
            let report = RunReport {
                ticks: n,
                elapsed_ns: n * tick_ns,
                ..RunReport::default()
            };
            if !plan.absorb(&report) {
                break;
            }
        }
        out
    }
}

/// Runs a runtime until roughly `dt_ns` of its simulated time has elapsed or
/// its DRR tick budget is exhausted (whichever comes first), then idles it to
/// the end of the round so every tenant's simulated clock stays aligned.
///
/// This is the body of a scheduling-round job: it owns no hypervisor state,
/// so it runs identically on the calling thread (sequential policy) and on a
/// pool worker (parallel policy).
pub(crate) fn run_round_job(runtime: &mut Runtime, dt_ns: u64, tick_budget: u64) -> RoundJobResult {
    run_batches(runtime, dt_ns, tick_budget, &mut Ticks)
}

/// Where a round job's batches of ticks come from.
trait Batches {
    /// Whether the tenant can still tick.
    fn live(&self, rt: &Runtime) -> bool;
    /// Runs (or replays) `n` ticks.
    fn run(&mut self, rt: &mut Runtime, n: u64) -> VlogResult<(RunReport, Vec<RuntimeEvent>)>;
}

/// The engine's ticks.
struct Ticks;

impl Batches for Ticks {
    fn live(&self, rt: &Runtime) -> bool {
        rt.finished().is_none()
    }

    fn run(&mut self, rt: &mut Runtime, n: u64) -> VlogResult<(RunReport, Vec<RuntimeEvent>)> {
        rt.run_ticks(n)
    }
}

/// A committed lockstep run's ticks, then the engine's.
impl Batches for LaneJournal {
    fn live(&self, rt: &Runtime) -> bool {
        self.pending() || rt.finished().is_none()
    }

    fn run(&mut self, rt: &mut Runtime, n: u64) -> VlogResult<(RunReport, Vec<RuntimeEvent>)> {
        rt.replay_ticks(n, self)
    }
}

/// [`run_round_job`] with the batches taken from `batches`.
fn run_batches(
    runtime: &mut Runtime,
    dt_ns: u64,
    tick_budget: u64,
    batches: &mut impl Batches,
) -> RoundJobResult {
    // The per-tenant "run_round" span: one flight-recorder event per round
    // this tenant executes, shared verbatim by every path (all funnel
    // through this function), so recorder contents stay policy-independent.
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
    let mut plan = RoundPlan::new(dt_ns, tick_budget);
    while let Some(batch) = plan.next().filter(|_| batches.live(runtime)) {
        let report = match batches.run(runtime, batch) {
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
        if !plan.absorb(&report) {
            break;
        }
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

/// The bodies of a round's jobs — [`Hypervisor::run_round_with`]'s seam,
/// through which tests substitute a job that panics.
///
/// [`Hypervisor::run_round_with`]: crate::Hypervisor
pub(crate) trait RoundJobs: Sync {
    /// One tenant's job.
    fn solo(&self, rt: &mut Runtime, dt_ns: u64, budget: u64) -> RoundJobResult;

    /// The lockstep half of a cohort job (see [`run_cohort`]).
    fn lockstep(&self, lanes: &mut [&mut Runtime], plans: &[Vec<u64>]) -> VlogResult<Lockstep> {
        lockstep(lanes, plans)
    }
}

/// The production jobs: cohorts where they form, [`run_round_job`]
/// elsewhere.
pub(crate) struct Cohorts;

impl RoundJobs for Cohorts {
    fn solo(&self, rt: &mut Runtime, dt_ns: u64, budget: u64) -> RoundJobResult {
        run_round_job(rt, dt_ns, budget)
    }
}

/// One job of a round: a tenant alone, or a cohort.
pub(crate) enum Unit<'a> {
    Solo(&'a mut Runtime, u64),
    Cohort(Vec<(&'a mut Runtime, u64)>),
}

/// What a job produced per tenant it covers: its result, or the message it
/// panicked with.
pub(crate) enum UnitOutcome {
    Solo(LaneOutcome),
    Cohort(Vec<LaneOutcome>, Tally),
}

/// What cohorts did in a round, for the node's Det counters.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Lane ticks run in lockstep.
    pub(crate) lane_ticks: u64,
    /// Lanes that left a cohort (or could not join one), by reason.
    pub(crate) exits: BTreeMap<&'static str, u64>,
}

impl Tally {
    pub(crate) fn absorb(&mut self, other: Tally) {
        self.lane_ticks += other.lane_ticks;
        for (reason, n) in other.exits {
            *self.exits.entry(reason).or_insert(0) += n;
        }
    }
}

/// A tenant's outcome: its result, or the message its job panicked with.
pub(crate) type LaneOutcome = Result<RoundJobResult, String>;

/// A round's jobs: each with the positions (in the plan's tenant order) of
/// the tenants it covers, `members[spans[j].0..][..spans[j].1]` for job `j`.
pub(crate) struct Units<'a> {
    pub(crate) units: Vec<Unit<'a>>,
    pub(crate) members: Vec<usize>,
    pub(crate) spans: Vec<(usize, usize)>,
    pub(crate) tally: Tally,
}

/// Cuts a round's scheduled tenants (in tenant order) into jobs: tenants of
/// one compiled program that can join a cohort now run as one, up to
/// [`synergy_runtime::Cohort::MAX_LANES`] a cohort; everyone else alone. A
/// tenant that cannot join its program's cohort because its `initial`
/// blocks have not run is tallied (it runs alone this round).
pub(crate) fn plan_units(tenants: Vec<(&mut Runtime, u64)>) -> Units<'_> {
    let n = tenants.len();
    // Per tenant: its program when it can join a cohort now.
    let keys: Vec<Result<usize, NotReady>> =
        tenants.iter().map(|(rt, _)| rt.cohort_key()).collect();
    let mut chunk_of: Vec<Option<usize>> = vec![None; n];
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    let mut tally = Tally::default();
    for (i, key) in keys.iter().enumerate() {
        let Ok(key) = *key else { continue };
        if chunk_of[i].is_some() || keys[..i].contains(&Ok(key)) {
            continue;
        }
        let members: Vec<usize> = (i..n).filter(|&j| keys[j] == Ok(key)).collect();
        if members.len() < MIN_LANES {
            continue;
        }
        let n_chunks = members.len().div_ceil(synergy_runtime::Cohort::MAX_LANES);
        for chunk in members.chunks(members.len().div_ceil(n_chunks)) {
            for &j in chunk {
                chunk_of[j] = Some(chunks.len());
            }
            chunks.push(chunk.to_vec());
        }
        let waiting = Err(NotReady {
            reason: "initials",
            program: Some(key),
        });
        let initials = keys.iter().filter(|k| **k == waiting).count() as u64;
        if initials > 0 {
            *tally.exits.entry("initials").or_insert(0) += initials;
        }
    }
    let mut slots: Vec<Option<(&mut Runtime, u64)>> = tenants.into_iter().map(Some).collect();
    let mut out = Units {
        units: Vec::with_capacity(n),
        members: Vec::with_capacity(n),
        spans: Vec::with_capacity(n),
        tally,
    };
    let mut take = |j: usize| slots[j].take().expect("each tenant is planned once");
    for (i, chunk) in chunk_of.into_iter().enumerate() {
        let start = out.members.len();
        match chunk {
            None => {
                let (rt, budget) = take(i);
                out.units.push(Unit::Solo(rt, budget));
                out.members.push(i);
            }
            // A cohort is emitted where its first member stands.
            Some(c) if chunks[c][0] == i => {
                out.units
                    .push(Unit::Cohort(chunks[c].iter().map(|&j| take(j)).collect()));
                out.members.extend_from_slice(&chunks[c]);
            }
            Some(_) => continue,
        }
        out.spans.push((start, out.members.len() - start));
    }
    out
}

/// The fewest tenants that tick as a cohort: two lanes of a four-lane pass
/// already pay (see "Cohorts" in `docs/ARCHITECTURE.md`).
const MIN_LANES: usize = 2;

/// Runs one job.
pub(crate) fn run_unit(jobs: &impl RoundJobs, unit: Unit<'_>, dt_ns: u64) -> UnitOutcome {
    match unit {
        Unit::Solo(rt, budget) => UnitOutcome::Solo(Ok(jobs.solo(rt, dt_ns, budget))),
        Unit::Cohort(mut lanes) => {
            let (outcomes, tally) = run_cohort(jobs, &mut lanes, dt_ns);
            UnitOutcome::Cohort(outcomes, tally)
        }
    }
}

/// A cohort's job: plan every lane's batches as its solo job would cut
/// them, run them in lockstep, commit, and replay each lane's journal
/// through the solo job's own loop. If the lockstep run fails or panics,
/// every lane's environment is put back and each lane reruns alone from the
/// state its engine still holds — a fault lands on the tenant that caused it.
fn run_cohort(
    jobs: &impl RoundJobs,
    lanes: &mut [(&mut Runtime, u64)],
    dt_ns: u64,
) -> (Vec<LaneOutcome>, Tally) {
    let mut tally = Tally::default();
    let plans: Vec<Vec<u64>> = lanes
        .iter()
        .map(|(rt, budget)| RoundPlan::batches(dt_ns, *budget, rt.compiled_tick_ns()))
        .collect();
    let marks: Vec<_> = lanes.iter().map(|(rt, _)| rt.env.mark()).collect();
    let mut rts: Vec<&mut Runtime> = lanes.iter_mut().map(|(rt, _)| &mut **rt).collect();
    let run = catch_unwind(AssertUnwindSafe(|| jobs.lockstep(&mut rts, &plans)));
    match run {
        Ok(Ok(run)) => {
            let journals = run.commit(&mut rts);
            let outcomes = lanes
                .iter_mut()
                .zip(journals)
                .map(|((rt, budget), mut journal)| {
                    tally.lane_ticks += journal.lockstep_ticks();
                    if journal.stopped() {
                        *tally.exits.entry("effect").or_insert(0) += 1;
                    }
                    lane(|| run_batches(rt, dt_ns, *budget, &mut journal))
                })
                .collect();
            (outcomes, tally)
        }
        Ok(Err(_)) | Err(_) => {
            tally.exits.insert("fault", lanes.len() as u64);
            let outcomes = lanes
                .iter_mut()
                .zip(marks)
                .map(|((rt, budget), mark)| {
                    rt.env.rollback(mark);
                    lane(|| jobs.solo(rt, dt_ns, *budget))
                })
                .collect();
            (outcomes, tally)
        }
    }
}

/// One lane's job, its panic caught as that lane's outcome.
fn lane(job: impl FnOnce() -> RoundJobResult) -> LaneOutcome {
    catch_unwind(AssertUnwindSafe(job))
        .map_err(|payload| sched::panic_message(&*payload).to_string())
}

/// A per-tenant job function. Its cohorts decline the lockstep run, so
/// every tenant, a cohort's lanes too, runs the function.
#[cfg(test)]
pub(crate) struct Solo<F>(pub(crate) F);

#[cfg(test)]
impl<F: Fn(&mut Runtime, u64, u64) -> RoundJobResult + Sync> RoundJobs for Solo<F> {
    fn solo(&self, rt: &mut Runtime, dt_ns: u64, budget: u64) -> RoundJobResult {
        (self.0)(rt, dt_ns, budget)
    }

    fn lockstep(&self, _: &mut [&mut Runtime], _: &[Vec<u64>]) -> VlogResult<Lockstep> {
        Err(synergy_vlog::VlogError::Unsupported(
            "a per-tenant job function runs each lane alone".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppId, Hypervisor, RoundStats, SchedPolicy};
    use synergy_amorphos::DomainId;
    use synergy_fpga::Device;
    use synergy_runtime::EnginePolicy;
    use synergy_telemetry::Namespace;

    /// The production jobs, except that a job `victim` takes part in
    /// panics: its solo job, or the lockstep run of its cohort.
    struct Panicky(&'static str);

    impl RoundJobs for Panicky {
        fn solo(&self, rt: &mut Runtime, dt_ns: u64, budget: u64) -> RoundJobResult {
            if rt.name() == self.0 {
                panic!("boom in {}", rt.name());
            }
            run_round_job(rt, dt_ns, budget)
        }

        fn lockstep(&self, lanes: &mut [&mut Runtime], plans: &[Vec<u64>]) -> VlogResult<Lockstep> {
            if lanes.iter().any(|rt| rt.name() == self.0) {
                panic!("boom in the lockstep");
            }
            lockstep(lanes, plans)
        }
    }

    /// Four `df` tenants, one tick in, on one node.
    fn fleet(sched: SchedPolicy) -> Hypervisor {
        let bench = synergy_workloads::by_name("df").unwrap();
        let mut hv = Hypervisor::new(Device::f1());
        hv.set_sched_policy(sched);
        hv.set_engine_policy(EnginePolicy::Auto);
        hv.set_round_tick_cap(256);
        for i in 0..4 {
            let mut rt = Runtime::with_policy(
                format!("df.{}", i),
                &bench.source,
                &bench.top,
                &bench.clock,
                EnginePolicy::Auto,
            )
            .unwrap();
            rt.run_ticks(1 + i).unwrap();
            hv.connect(rt, DomainId(1 + i), false);
        }
        hv
    }

    fn exits(hv: &Hypervisor, reason: &str) -> u64 {
        hv.metrics().counter_value(
            Namespace::Det,
            "hv_cohort_exits_total",
            &[("reason", reason)],
        )
    }

    #[test]
    fn four_tick_grants_tick_as_a_cohort() {
        synergy_telemetry::set_enabled(true);
        let mut hv = fleet(SchedPolicy::Sequential);
        hv.set_round_tick_cap(4);
        for _ in 0..3 {
            hv.run_round(1.0).unwrap();
        }
        let lane_ticks =
            hv.metrics()
                .counter_value(Namespace::Det, "hv_cohort_lane_ticks_total", &[]);
        assert_eq!(lane_ticks, 3 * 4 * 4, "every grant ran in the cohort");
    }

    #[test]
    fn a_panic_in_a_cohort_lands_on_the_tenant_that_caused_it() {
        synergy_telemetry::set_enabled(true);
        let mut healthy = fleet(SchedPolicy::Sequential);
        let healthy_stats: Vec<Vec<RoundStats>> =
            (0..3).map(|_| healthy.run_round(1.0).unwrap()).collect();
        let victim = AppId(3);
        let mut seen = Vec::new();
        for sched in [
            SchedPolicy::Sequential,
            SchedPolicy::Parallel { workers: 3 },
        ] {
            let mut hv = fleet(sched);
            let stats: Vec<Vec<RoundStats>> = (0..3)
                .map(|round| {
                    if round == 1 {
                        hv.run_round_by(1.0, &Panicky("df.2")).unwrap()
                    } else {
                        hv.run_round(1.0).unwrap()
                    }
                })
                .collect();
            let hit = &stats[1][2];
            assert_eq!(hit.error.as_deref(), Some("engine panicked: boom in df.2"));
            assert_eq!((hit.ran, hit.ticks), (false, 0));
            assert_eq!(hv.quarantined(), vec![victim]);
            // The round the lockstep panicked in reran every lane alone from
            // where it stood: the siblings end where they would have.
            for round in 0..3 {
                for (got, want) in stats[round].iter().zip(&healthy_stats[round]) {
                    if got.app != victim.0 {
                        assert_eq!(got, want, "round {} app {}", round, got.app);
                    }
                }
            }
            for app in hv.apps().into_iter().filter(|&a| a != victim) {
                let (got, want) = (hv.app(app).unwrap(), healthy.app(app).unwrap());
                assert_eq!(got.peek_state(), want.peek_state());
                assert_eq!(got.env.output, want.env.output);
                assert_eq!(got.metrics().det_text(), want.metrics().det_text());
            }
            assert_eq!(exits(&hv, "fault"), 4, "every lane of the cohort fell back");
            seen.push((stats, hv.metrics().det_text()));
        }
        assert_eq!(seen[0], seen[1], "the same under either policy");
    }
}
