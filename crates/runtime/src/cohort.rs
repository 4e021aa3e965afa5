//! Cohorts at the runtime layer: tenants of one compiled program run their
//! ticks in lockstep ([`synergy_codegen::Cohort`]), and each tenant's
//! runtime then accounts its share exactly as its own `run_ticks` calls
//! would have.
//!
//! A lockstep run happens in two steps, so that a failure in the first
//! leaves every tenant where it was:
//!
//! 1. [`lockstep`] runs every lane's planned batches of ticks on the
//!    cohort's own copy of the lanes' state. Of the runtimes it touches only
//!    their environments (the files read, the output printed), which a
//!    caller can take back with [`synergy_interp::BufferEnv::rollback`]. It
//!    records, per lane and batch, the ticks run and the executor counters
//!    after them, in a [`LaneJournal`].
//! 2. [`Lockstep::commit`] copies the lanes' state into their engines; then
//!    each runtime's [`Runtime::replay_ticks`], called with the same batch
//!    sizes, accounts the journaled ticks — tick count, virtual clock,
//!    profiler, telemetry — as `run_ticks` would have, handles the effects
//!    of the tick a lane stopped at, and runs whatever is left of that batch
//!    on the engine.

use crate::engine::COMPILED_TICK;
use crate::runtime::{RunReport, Runtime, RuntimeEvent};
use std::collections::VecDeque;
use synergy_codegen::{Cohort, CompiledSim, ExecCounters};
use synergy_interp::SystemEnv;
use synergy_vlog::{VlogError, VlogResult};

/// What a lockstep run did for one lane, batch by batch.
#[derive(Debug, Clone, Default)]
pub struct LaneJournal {
    /// Per batch: the ticks run in lockstep and the counters after them.
    batches: VecDeque<(u64, ExecCounters)>,
    /// The counters before the next batch.
    before: ExecCounters,
    /// Whether the lane stopped (on an effect) in the last batch.
    stopped: bool,
    ticks: u64,
}

impl LaneJournal {
    /// Ticks the lane ran in lockstep.
    pub fn lockstep_ticks(&self) -> u64 {
        self.ticks
    }

    /// Whether the lane left the cohort early, after a tick that raised an
    /// effect.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Whether batches are left to replay. While they are, the lane's
    /// runtime has not reached the tick its engine stands at: its engine
    /// may already have finished.
    pub fn pending(&self) -> bool {
        !self.batches.is_empty()
    }
}

/// A finished lockstep run whose state is not yet in the lanes' engines.
pub struct Lockstep {
    cohort: Cohort,
    journals: Vec<LaneJournal>,
}

impl Lockstep {
    /// Copies every lane's state into its engine (`lanes` as given to
    /// [`lockstep`]) and hands out the journals to replay.
    pub fn commit(self, lanes: &mut [&mut Runtime]) -> Vec<LaneJournal> {
        let mut sims: Vec<&mut CompiledSim> = lanes
            .iter_mut()
            .map(|rt| &mut compiled_mut(rt).sim)
            .collect();
        self.cohort.scatter(&mut sims);
        self.journals
    }
}

fn compiled_mut(rt: &mut Runtime) -> &mut crate::CompiledEngine {
    rt.engine
        .as_compiled_mut()
        .expect("lockstep lanes run on the compiled engine")
}

/// Runs every lane's batches (`plans[l]`, in ticks) in lockstep.
///
/// # Errors
///
/// `Unsupported` when the lanes cannot form a cohort (see
/// [`Runtime::cohort_key`]); otherwise what a solo run would report. Either
/// way the lanes' engines are untouched; their environments may not be.
pub fn lockstep(lanes: &mut [&mut Runtime], plans: &[Vec<u64>]) -> VlogResult<Lockstep> {
    let sims: Vec<&CompiledSim> = lanes
        .iter()
        .filter_map(|rt| rt.engine.as_compiled().map(|e| &e.sim))
        .collect();
    let keys: Vec<_> = lanes.iter().map(|rt| rt.cohort_key()).collect();
    let mut cohort = match (sims.len() == lanes.len(), keys.first()) {
        (true, Some(Ok(k))) if keys.iter().all(|x| x.as_ref() == Ok(k)) => Cohort::gather(&sims),
        _ => None,
    }
    .ok_or_else(|| VlogError::Unsupported("these tenants cannot tick as one cohort".into()))?;
    let mut journals: Vec<LaneJournal> = sims
        .iter()
        .map(|s| LaneJournal {
            before: s.exec_counters(),
            ..LaneJournal::default()
        })
        .collect();
    let arena_regs: Vec<u64> = sims.iter().map(|s| s.exec_counters().arena_regs).collect();
    drop(sims);
    let mut envs: Vec<&mut dyn SystemEnv> = lanes
        .iter_mut()
        .map(|rt| &mut rt.env as &mut dyn SystemEnv)
        .collect();
    // Per lane: the batch it is in and the ticks it has run of it.
    let mut at = vec![(0usize, 0u64); plans.len()];
    let mut ticks = vec![0u64; plans.len()];
    loop {
        let mut mask = 0u32;
        let mut seg = u64::MAX;
        for (l, plan) in plans.iter().enumerate() {
            let (b, k) = at[l];
            if b < plan.len() && !journals[l].stopped {
                mask |= 1 << l;
                seg = seg.min(plan[b] - k);
            }
        }
        if mask == 0 {
            break;
        }
        ticks.iter_mut().for_each(|t| *t = 0);
        cohort.run(mask, seg, &mut envs, &mut ticks)?;
        for (l, plan) in plans.iter().enumerate() {
            if mask >> l & 1 == 0 {
                continue;
            }
            let (b, k) = &mut at[l];
            *k += ticks[l];
            let j = &mut journals[l];
            j.ticks += ticks[l];
            let stopped = cohort.stopped(l);
            if stopped || *k == plan[*b] {
                let counters = ExecCounters {
                    arena_regs: arena_regs[l],
                    ..cohort.counters(l)
                };
                j.batches.push_back((*k, counters));
                j.stopped = stopped;
                *b += 1;
                *k = 0;
            }
        }
    }
    Ok(Lockstep { cohort, journals })
}

/// Why a runtime cannot join a cohort now (see [`Runtime::cohort_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotReady {
    /// `"engine"` (not on the compiled engine), or what
    /// [`CompiledSim::cohort_refusal`] says.
    pub reason: &'static str,
    /// The key the runtime will have once it is ready, when its program is
    /// eligible.
    pub program: Option<usize>,
}

impl Runtime {
    /// Identifies the program this runtime ticks when it can join a cohort
    /// now: runtimes with equal keys may tick in lockstep. Otherwise why not.
    pub fn cohort_key(&self) -> Result<usize, NotReady> {
        let engine = self.engine.as_compiled().ok_or(NotReady {
            reason: "engine",
            program: None,
        })?;
        let eligible = engine.sim.cohort_clock() == Some(engine.clock);
        let key = engine.sim.cohort_key();
        let refusal = match engine.sim.cohort_refusal() {
            _ if !eligible => Some("ineligible"),
            None if self.finished().is_some() => Some("effect"),
            why => why,
        };
        match refusal {
            None => Ok(key),
            Some(reason) => Err(NotReady {
                reason,
                program: eligible.then_some(key),
            }),
        }
    }

    /// Why this runtime's program can never tick as a cohort, or `None`
    /// when it can (it runs on the compiled engine and its program is
    /// eligible).
    pub fn cohort_ineligibility(&self) -> Option<String> {
        match self.engine.as_compiled() {
            None => Some("not on the compiled engine".into()),
            Some(e) => e.sim.cohort_ineligibility().map(str::to_owned),
        }
    }

    /// Simulated nanoseconds one compiled tick takes on this runtime's
    /// clock: what `run_ticks` reports per tick while nothing traps.
    pub fn compiled_tick_ns(&self) -> u64 {
        self.tick_latency_ns(&COMPILED_TICK)
    }

    /// [`Runtime::run_ticks`] for a lane of a committed lockstep run: the
    /// journal's next batch (which ran `n` ticks, or stopped early) is
    /// accounted as `run_ticks(n)` would have; past the journal this is
    /// `run_ticks`.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors of the ticks run on the engine.
    pub fn replay_ticks(
        &mut self,
        n: u64,
        journal: &mut LaneJournal,
    ) -> VlogResult<(RunReport, Vec<RuntimeEvent>)> {
        let Some((k, after)) = journal.batches.pop_front() else {
            return self.run_ticks(n);
        };
        debug_assert!(k == n || (k < n && journal.batches.is_empty() && journal.stopped));
        let before = std::mem::replace(&mut journal.before, after);
        let mut report = RunReport::default();
        let mut events = Vec::new();
        self.account(&COMPILED_TICK, k, &mut report);
        let last = journal.batches.is_empty() && journal.stopped;
        let mut result = Ok(());
        if last {
            self.handle_effects(&mut events);
            result = self.tick_loop(n - k, &mut report, &mut events);
        }
        let after = if last {
            self.engine.exec_counters()
        } else {
            after
        };
        let result = result.map(|()| {
            self.profiler.record(self.sim.now_secs(), self.ticks);
            (report, events)
        });
        self.note_run_with(&before, &after, &result);
        result
    }
}
