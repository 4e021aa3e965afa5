//! Round scheduling for the hypervisor: who runs a round's jobs, and how
//! many ticks each tenant may spend.
//!
//! * `run_jobs` — the one execution arm of `Hypervisor::run_round`. A
//!   round's jobs sit behind one shared queue and [`SchedPolicy::workers`]
//!   workers drain it inside [`std::thread::scope`], so a job *borrows* its
//!   tenant's [`synergy_runtime::Runtime`] for the length of the round and
//!   nothing is shipped anywhere. The calling thread is always worker 0:
//!   under [`SchedPolicy::Sequential`] it is the only one and no thread is
//!   spawned. Extra workers live for one round; spawning and joining one
//!   costs 9–24 µs against rounds of milliseconds (see
//!   `docs/ARCHITECTURE.md`). Each job runs under `catch_unwind`, and
//!   outcomes come back in submission order whichever worker finished which
//!   job when — that is what keeps parallel rounds bit-identical to
//!   sequential ones, and what lets the hypervisor treat a tenant's panic as
//!   that tenant's fault instead of the node's.
//!
//! * [`DeficitRoundRobin`] — the fairness layer that assigns each tenant a
//!   per-round *tick budget*. IO-bound tenants typically consume only a
//!   fraction of their budget (they are bound by simulated transport time,
//!   not host ticks); the unspent deficit carries over (bounded) so they can
//!   burst later, while compute-bound tenants can never exceed their own
//!   budget to crowd the round. Budgets are computed *before* dispatch, in
//!   tenant order, so every worker count sees the same schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// How the hypervisor executes the tenants of one scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Tick every tenant on the calling thread, in tenant order (the
    /// drop-in-compatible default).
    #[default]
    Sequential,
    /// Execute independent tenants' rounds concurrently: the calling thread
    /// and `workers - 1` threads scoped to the round drain one job queue.
    /// Results are joined in stable tenant order, so stats, events, and
    /// state snapshots are bit-identical to [`SchedPolicy::Sequential`].
    Parallel {
        /// Number of workers, the calling thread included (clamped to at
        /// least 1).
        workers: usize,
    },
}

impl SchedPolicy {
    /// Worker count this policy asks for (1 for `Sequential`).
    pub fn workers(&self) -> usize {
        match self {
            SchedPolicy::Sequential => 1,
            SchedPolicy::Parallel { workers } => (*workers).max(1),
        }
    }
}

// ------------------------------------------------------------- round runner

/// How a hypervisor's parallel rounds landed on threads, summed since its
/// first one.
///
/// All three counters are host-scheduling artifacts — how work happened to
/// land on threads this run — so they belong in the *non-deterministic*
/// telemetry namespace (see `Hypervisor::metrics`), never in round stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Jobs executed.
    pub executed: u64,
    /// Jobs that ran on a worker other than their round-robin home (job
    /// `i`'s home is worker `i % workers`): how far a round strayed from
    /// the static split because some jobs were longer than others.
    pub steals: u64,
    /// Workers that were spawned and found the queue already empty — a
    /// spawn the round did not need.
    pub parks: u64,
}

impl PoolStats {
    /// Adds one round's figures to a running total.
    pub(crate) fn absorb(&mut self, round: PoolStats) {
        self.executed += round.executed;
        self.steals += round.steals;
        self.parks += round.parks;
    }
}

/// Runs independent jobs to completion on up to `workers` workers (the
/// caller is one of them) and returns their outcomes **in submission order**
/// with the host nanoseconds each spent executing, plus how the batch landed
/// on threads.
///
/// A panicking job does not take its worker, its siblings' results or the
/// caller down: the unwind is caught and returned as that job's `Err`
/// outcome. A worker that cannot be spawned is simply absent — the caller
/// drains whatever the others do not.
pub(crate) fn run_jobs<J: Send, T: Send>(
    workers: usize,
    jobs: Vec<J>,
    run: impl Fn(J) -> T + Sync,
) -> (Vec<(std::thread::Result<T>, u64)>, PoolStats) {
    let executed = jobs.len() as u64;
    let workers = workers.clamp(1, jobs.len().max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let drain = |me: usize| {
        let (mut done, mut steals) = (Vec::new(), 0u64);
        loop {
            // Taken and released per job: no job runs under the lock.
            let next = queue.lock().expect("no job runs under the lock").next();
            let Some((idx, job)) = next else {
                break (done, steals);
            };
            steals += u64::from(idx % workers != me);
            let start = Instant::now();
            // A job owns or exclusively borrows what it touches, so unwind
            // safety reduces to "the caller treats an Err outcome's data as
            // poisoned".
            let out = catch_unwind(AssertUnwindSafe(|| run(job)));
            done.push((idx, out, start.elapsed().as_nanos() as u64));
        }
    };
    let (mut done, steals, parks) = std::thread::scope(|scope| {
        let drain = &drain;
        let spawned: Vec<_> = (1..workers)
            .map_while(|me| {
                std::thread::Builder::new()
                    .name(format!("synergy-hv-worker-{}", me))
                    .spawn_scoped(scope, move || drain(me))
                    .ok()
            })
            .collect();
        let (mut done, mut steals) = drain(0);
        let mut parks = 0;
        for worker in spawned {
            let (theirs, stolen) = worker.join().expect("workers catch their jobs' panics");
            parks += u64::from(theirs.is_empty());
            steals += stolen;
            done.extend(theirs);
        }
        (done, steals, parks)
    });
    done.sort_unstable_by_key(|&(idx, ..)| idx);
    let outcomes = done.into_iter().map(|(_, out, ns)| (out, ns)).collect();
    let stats = PoolStats {
        executed,
        steals,
        parks,
    };
    (outcomes, stats)
}

/// What a caught panic said, for the `&str` and `String` payloads `panic!`
/// produces.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string payload)")
}

// ------------------------------------------------------- deficit round robin

/// Upper bound on accumulated deficit, in quanta: an idle or descheduled
/// tenant can burst at most this many rounds' worth of ticks when it wakes,
/// so a long-idle tenant cannot monopolise a round.
const MAX_BURST_QUANTA: u64 = 4;

/// Deficit-round-robin tick budgeting (fairness layer of the scheduler).
///
/// Each runnable tenant receives one quantum of ticks per round (the
/// hypervisor's round tick cap). Ticks it does not consume — IO-bound
/// tenants spend their round waiting on simulated transport, not ticking —
/// accumulate as *deficit*, bounded at `MAX_BURST_QUANTA` (4) quanta, and
/// are added to later budgets. Compute-bound tenants always exhaust their budget, so
/// their deficit stays at zero and they can never squeeze an IO-bound
/// tenant's share; conversely a starved IO-bound tenant wakes up with a
/// bounded burst allowance instead of a single quantum.
#[derive(Debug, Default, Clone)]
pub struct DeficitRoundRobin {
    deficits: std::collections::BTreeMap<u64, u64>,
}

impl DeficitRoundRobin {
    /// Creates an empty scheduler state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants this round's quantum to a runnable tenant and returns its tick
    /// budget (carried deficit + quantum, capped at the burst bound).
    pub fn grant(&mut self, app: u64, quantum: u64) -> u64 {
        let quantum = quantum.max(1);
        let deficit = self.deficits.entry(app).or_insert(0);
        *deficit = (*deficit + quantum).min(quantum.saturating_mul(MAX_BURST_QUANTA));
        *deficit
    }

    /// Charges the ticks a tenant actually executed against its deficit.
    pub fn charge(&mut self, app: u64, ticks: u64) {
        if let Some(deficit) = self.deficits.get_mut(&app) {
            *deficit = deficit.saturating_sub(ticks);
        }
    }

    /// Forgets a tenant (on disconnect).
    pub fn forget(&mut self, app: u64) {
        self.deficits.remove(&app);
    }

    /// Current deficit of a tenant (unspent tick allowance).
    pub fn deficit(&self, app: u64) -> u64 {
        self.deficits.get(&app).copied().unwrap_or(0)
    }

    /// All `(app, deficit)` entries in app order (fleet checkpointing).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.deficits.iter().map(|(&a, &d)| (a, d)).collect()
    }

    /// Replaces the scheduler state wholesale (fleet restore).
    pub fn restore_entries(&mut self, entries: impl IntoIterator<Item = (u64, u64)>) {
        self.deficits = entries.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let (results, stats) = run_jobs(4, jobs, |i| {
            // Vary the work so completion order scrambles.
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(results.len(), 64);
        for (idx, (out, _busy)) in results.into_iter().enumerate() {
            let Ok((i, _)) = out else {
                panic!("job {} failed", idx)
            };
            assert_eq!(i, idx as u64, "result order is submission order");
        }
        assert_eq!(stats.executed, 64);
    }

    #[test]
    fn stealing_rebalances_skewed_submission() {
        // One long job must not serialise the short ones behind it. Job 0
        // (home: worker 0) cannot finish until every other job has run, so
        // whichever worker takes it, the other one runs all seven short
        // jobs — at least three of them off their round-robin home.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let (results, stats) = run_jobs(2, (0..8usize).collect(), |i| {
            if i == 0 {
                let rx = rx.lock().unwrap();
                (1..8).for_each(|_| rx.recv().expect("a short job ran"));
            } else {
                tx.send(()).unwrap();
            }
            std::thread::current().id()
        });
        let ids: Vec<ThreadId> = results.into_iter().map(|(out, _)| out.unwrap()).collect();
        assert!(ids[1..].iter().all(|id| *id == ids[1] && *id != ids[0]));
        assert_eq!((stats.executed, stats.parks), (8, 0));
        assert!(stats.steals >= 3, "short jobs left their home worker");

        // With one worker nothing is spawned: every job runs on the caller.
        let me = std::thread::current().id();
        let (results, stats) = run_jobs(1, vec![(); 5], |()| std::thread::current().id());
        assert!(results.into_iter().all(|(id, _)| id.unwrap() == me));
        assert_eq!((stats.executed, stats.steals, stats.parks), (5, 0, 0));
    }

    #[test]
    fn panicking_job_is_an_err_outcome_and_pool_survives() {
        for workers in [1, 2] {
            let (mut results, _) = run_jobs(workers, vec![1u64, 0, 7, 8], |n| {
                assert!(n != 0, "tenant bug");
                n
            });
            assert_eq!(results.len(), 4, "siblings' results are not discarded");
            assert_eq!(results.remove(0).0.ok(), Some(1), "healthy job succeeded");
            let payload = results
                .remove(0)
                .0
                .expect_err("panic returned as Err outcome");
            assert_eq!(panic_message(&*payload), "tenant bug");
            // The workers survived the unwind: the jobs queued behind the
            // panicking one still ran.
            assert_eq!(results[0].0.as_ref().ok(), Some(&7));
            assert_eq!(results[1].0.as_ref().ok(), Some(&8));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (results, stats) = run_jobs(2, Vec::<u32>::new(), |n| n);
        assert!(results.is_empty());
        assert_eq!(stats, PoolStats::default());
    }

    #[test]
    fn drr_carries_unspent_budget_bounded() {
        let mut drr = DeficitRoundRobin::new();
        // Compute-bound: consumes everything, budget stays one quantum.
        assert_eq!(drr.grant(1, 100), 100);
        drr.charge(1, 100);
        assert_eq!(drr.grant(1, 100), 100);
        drr.charge(1, 100);
        assert_eq!(drr.deficit(1), 0);

        // IO-bound: consumes a sliver, deficit carries...
        assert_eq!(drr.grant(2, 100), 100);
        drr.charge(2, 5);
        assert_eq!(drr.grant(2, 100), 195);
        drr.charge(2, 5);
        // ...but is capped at MAX_BURST_QUANTA rounds' worth.
        for _ in 0..10 {
            drr.grant(2, 100);
            drr.charge(2, 0);
        }
        assert_eq!(drr.deficit(2), 400);
        assert_eq!(drr.grant(2, 100), 400);

        drr.forget(2);
        assert_eq!(drr.deficit(2), 0);
    }

    #[test]
    fn sched_policy_default_is_sequential() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::Sequential);
        assert_eq!(SchedPolicy::Sequential.workers(), 1);
        assert_eq!(SchedPolicy::Parallel { workers: 0 }.workers(), 1);
        assert_eq!(SchedPolicy::Parallel { workers: 8 }.workers(), 8);
    }
}
