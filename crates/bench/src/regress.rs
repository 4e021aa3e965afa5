//! The CI performance-regression gate.
//!
//! Re-measures the committed performance envelopes at smoke scale and
//! compares them against the checked-in `BENCH_*.json` baselines:
//!
//! * `BENCH_interp_vs_compiled.json` — per workload, the default
//!   (optimized) compiled engine's speedup over the interpreter (PR 1/2's
//!   tentpole win), the compiled engine's `regalloc_over_stack` ratio over
//!   the stack-bytecode oracle (PR 4's tentpole win), and the netlist
//!   optimizer's `opt_over_o0` ratio on the compiled engine (PR 8's
//!   tentpole win);
//! * `BENCH_telemetry.json` — the telemetry subsystem's overhead budget:
//!   enabling metrics + the flight recorder may not slow the compiled
//!   engine's hot loop by more than `allowed_overhead` (a hard bound, zero
//!   tolerance — see [`run_checks`]);
//! * `BENCH_cluster_serving.json` — the deterministic cluster-serving gate:
//!   the smoke-scale tenant-churn run (seeded churn + seeded fault plan)
//!   must reproduce the committed p99 round latency **exactly** and lose
//!   zero tenants (PR 9's tentpole win; zero tolerance, both directions).
//!
//! Only *ratios* are compared — absolute ticks/sec vary wildly across CI
//! runners, but the compiled/interpreted ratios are machine-stable. A metric
//! that drops more than its tolerance (usually [`TOLERANCE`]) below its
//! baseline fails the gate (exit code 1); the comparison table prints either
//! way.
//!
//! `SYNERGY_REGRESS_HANDICAP=<factor>` divides every measured ratio — the
//! knob used to verify the gate actually fails on an artificially slowed
//! build.

use crate::jsonish::{num_field, objects_in_array, str_field};
use std::time::Instant;

/// Allowed fractional drop below baseline before the gate fails.
pub const TOLERANCE: f64 = 0.25;

/// One gate check: a measured ratio against its committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Metric name (e.g. `interp_vs_compiled/nw`).
    pub name: String,
    /// Baseline value from the committed JSON.
    pub baseline: f64,
    /// Freshly measured value.
    pub measured: f64,
    /// Allowed fractional drop below baseline for *this* check (most checks
    /// use [`TOLERANCE`]; hard budgets like the telemetry overhead use 0.0).
    pub tolerance: f64,
}

impl Check {
    /// measured / baseline.
    pub fn ratio(&self) -> f64 {
        self.measured / self.baseline.max(1e-9)
    }

    /// `true` if the metric regressed beyond the check's tolerance.
    pub fn regressed(&self) -> bool {
        self.ratio() < 1.0 - self.tolerance
    }
}

/// Artificial slowdown factor for gate verification (defaults to 1.0).
fn handicap() -> f64 {
    std::env::var("SYNERGY_REGRESS_HANDICAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|f: &f64| *f > 0.0)
        .unwrap_or(1.0)
}

/// One workload prepared for measurement: the elaborated design, its
/// bytecode as lowered, and the same bytecode after the full optimization
/// pipeline (synergy-opt, the default at runtime).
fn lowered(
    bench: &synergy::Benchmark,
) -> (
    synergy::vlog::elaborate::ElabModule,
    synergy::CompiledProgram,
    synergy::CompiledProgram,
) {
    let design = synergy::vlog::compile(&bench.source, &bench.top).expect("workload compiles");
    let prog = synergy::codegen::compile(&design).expect("lowers");
    let mut oprog = prog.clone();
    let report = synergy::opt::optimize_with_passes(&mut oprog, &synergy::opt::PASS_NAMES);
    assert!(
        !report.any_reverted(),
        "optimizer pass reverted on {}",
        bench.name
    );
    (design, prog, oprog)
}

/// Times one workload on one executor: best of `reps` timings of `ticks`
/// ticks each (to shave runner noise), with construction kept *outside* the
/// timed region — each rep clones `base` and a fresh environment first — so
/// the measurement is steady-state. Returns nanoseconds **per tick**, so
/// callers may pick per-executor tick counts (interpreter samples are
/// expensive; compiled samples need to be long enough that a 50µs timed
/// region's noise doesn't flap a 25% gate).
fn measure_ticks_ns<S: Clone>(
    bench: &synergy::Benchmark,
    base: &S,
    tick: impl Fn(&mut S, &mut synergy::interp::BufferEnv) -> synergy::vlog::VlogResult<()>,
    ticks: usize,
    reps: usize,
) -> f64 {
    let input = bench.input_path.as_ref().map(|p| {
        (
            p.clone(),
            synergy::workloads::input_data(&bench.name, 4 * ticks),
        )
    });
    (0..reps)
        .map(|_| {
            let mut env = synergy::interp::BufferEnv::new();
            if let Some((path, data)) = &input {
                env.add_file(path.clone(), data.clone());
            }
            let mut sim = base.clone();
            let start = Instant::now();
            for _ in 0..ticks {
                tick(&mut sim, &mut env).expect("ticks");
            }
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one rep") as f64
        / ticks.max(1) as f64
}

/// Measures the optimizer's speedup on the compiled engine as a *paired*
/// interleaved ratio: O0 and optimized reps alternate within one process
/// and the ratio of minimums is returned. A ratio centred near 1.0 with a
/// 25% gate needs far less measurement noise than the big interp-vs-compiled
/// ratios tolerate, and interleaving cancels frequency scaling and runner
/// contention that separate 200-tick samples would inherit.
fn measure_opt_ratio(bench: &synergy::Benchmark, ticks: usize, reps: usize) -> f64 {
    let (_, prog, oprog) = lowered(bench);
    let o0 = synergy::codegen::CompiledSim::new(prog);
    let o1 = synergy::codegen::CompiledSim::new(oprog);
    let time_one = |base: &synergy::codegen::CompiledSim| {
        let mut env = synergy::interp::BufferEnv::new();
        if let Some(p) = &bench.input_path {
            env.add_file(
                p.clone(),
                synergy::workloads::input_data(&bench.name, 4 * ticks),
            );
        }
        let mut sim = base.clone();
        let start = Instant::now();
        for _ in 0..ticks {
            sim.tick(&bench.clock, &mut env).expect("ticks");
        }
        start.elapsed().as_nanos() as u64
    };
    let (mut best0, mut best1) = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        best0 = best0.min(time_one(&o0));
        best1 = best1.min(time_one(&o1));
    }
    best0 as f64 / best1.max(1) as f64
}

/// Measures the fractional slowdown of enabling telemetry on the compiled
/// engine: `calls` [`synergy::Runtime::run_ticks`]`(batch)` calls
/// timed with telemetry on vs off, as the median of `reps` paired ratios.
///
/// `batch` mirrors the hypervisor's call shape: `run_round` hands each
/// tenant one `run_ticks(tick_budget)` call per round, so the per-call
/// `note_run` epilogue (counter deltas, histogram observe) amortises over a
/// round's budget, never over a single tick. Each rep times an off/on pair
/// back-to-back (alternating order) and contributes one on/off ratio; the
/// median of the paired ratios cancels frequency scaling, thermal drift,
/// and contention spikes that a ratio-of-minimums would inherit from
/// whichever phase a spike happened to land on.
fn measure_telemetry_overhead(
    bench: &synergy::Benchmark,
    calls: u64,
    batch: u64,
    reps: usize,
) -> f64 {
    let one_run = |on: bool| {
        let mut rt = synergy::Runtime::with_policy(
            bench.name.clone(),
            &bench.source,
            &bench.top,
            &bench.clock,
            synergy::EnginePolicy::Compiled,
        )
        .expect("workload compiles");
        if let Some(path) = &bench.input_path {
            rt.add_file(
                path.clone(),
                synergy::workloads::input_data(&bench.name, 8 * (calls * batch) as usize),
            );
        }
        synergy::telemetry::set_enabled(on);
        let start = Instant::now();
        for _ in 0..calls {
            rt.run_ticks(batch).expect("ticks");
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        synergy::telemetry::set_enabled(false);
        elapsed
    };
    let mut ratios: Vec<f64> = (0..reps)
        .map(|rep| {
            let (off, on) = if rep % 2 == 0 {
                let off = one_run(false);
                let on = one_run(true);
                (off, on)
            } else {
                let on = one_run(true);
                let off = one_run(false);
                (off, on)
            };
            on as f64 / off.max(1) as f64
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

/// Runs every gate check against the committed baselines.
///
/// `interp_vs_compiled` / `telemetry` / `cluster_serving` are the baseline JSON
/// texts (the caller reads the files so the bin controls paths and error
/// reporting).
///
/// The telemetry check inverts the usual direction: `baseline` is the
/// *measured* overhead of enabling telemetry (clamped to ≥ 1.0) and
/// `measured` is the committed `allowed_overhead` budget, so the gate fails
/// — with zero tolerance — exactly when the measured overhead exceeds the
/// budget. The handicap divides the budget, which verifiably forces a
/// failure.
///
/// The cluster-serving checks exploit that the serving benchmark is fully
/// virtual and therefore bit-deterministic: the gate re-runs the committed
/// `gate` config and demands **exact equality** (zero tolerance, both
/// directions) on the p99 round latency, plus `survival == 1.0` (no tenant
/// lost to the seeded fault plan). Any drift in scheduling, placement,
/// checkpointing, or crash recovery fails the gate. The handicap divides
/// each measured side, which verifiably forces a failure.
pub fn run_checks(interp_vs_compiled: &str, telemetry: &str, cluster_serving: &str) -> Vec<Check> {
    let handicap = handicap();
    let mut checks = Vec::new();

    for obj in objects_in_array(interp_vs_compiled, "results") {
        let workload = str_field(obj, "workload").expect("baseline row names a workload");
        let baseline = num_field(obj, "speedup").expect("baseline row has a speedup");
        let bench = synergy::workloads::by_name(&workload)
            .unwrap_or_else(|| panic!("baseline names unknown workload '{}'", workload));
        let (design, prog, oprog) = lowered(&bench);
        let clock = bench.clock.as_str();
        let interp = synergy::interp::Interpreter::new(design);
        let interp_ns = measure_ticks_ns(&bench, &interp, |s, env| s.tick(clock, env), 200, 3);
        let stack = synergy::codegen::StackSim::new(prog.clone());
        let stack_ns = measure_ticks_ns(&bench, &stack, |s, env| s.tick(clock, env), 2000, 4);
        let o0 = synergy::codegen::CompiledSim::new(prog);
        let regalloc_ns = measure_ticks_ns(&bench, &o0, |s, env| s.tick(clock, env), 4000, 4);
        let o1 = synergy::codegen::CompiledSim::new(oprog);
        let opt_ns = measure_ticks_ns(&bench, &o1, |s, env| s.tick(clock, env), 4000, 4);
        // The headline speedup is the *default* compiled engine (optimized)
        // over the interpreter.
        checks.push(Check {
            name: format!("interp_vs_compiled/{}", workload),
            baseline,
            measured: interp_ns / opt_ns.max(1e-9) / handicap,
            tolerance: TOLERANCE,
        });
        // The compiled engine must also hold its ratio over the stack oracle
        // (PR 4's tentpole win; both at O0 so the ratio isolates the
        // regalloc translation).
        let baseline_stack =
            num_field(obj, "regalloc_over_stack").expect("baseline row has regalloc_over_stack");
        checks.push(Check {
            name: format!("compiled_vs_regalloc/{}", workload),
            baseline: baseline_stack,
            measured: stack_ns / regalloc_ns.max(1e-9) / handicap,
            tolerance: TOLERANCE,
        });
        // The optimizer must never pessimize the compiled engine (PR 8's
        // tentpole): measured optimized-over-O0 as a paired interleaved
        // ratio, baseline from the committed honest measurement. With the
        // shared TOLERANCE this fails closed when the pipeline makes any
        // workload ~25% slower than its committed ratio.
        let baseline_opt = num_field(obj, "opt_over_o0").expect("baseline row has opt_over_o0");
        checks.push(Check {
            name: format!("opt_over_o0/{}", workload),
            baseline: baseline_opt,
            measured: measure_opt_ratio(&bench, 4000, 4) / handicap,
            tolerance: TOLERANCE,
        });
    }

    let allowed =
        num_field(telemetry, "allowed_overhead").expect("telemetry baseline has allowed_overhead");
    let bench = synergy::workloads::by_name("nw").expect("nw workload exists");
    // 64-tick batches: the smallest round budget the hypervisor plausibly
    // hands out (round_tick_cap is 512 by default), i.e. the *most*
    // epilogue-heavy realistic shape.
    let overhead = measure_telemetry_overhead(&bench, 100, 64, 7);
    checks.push(Check {
        name: "telemetry/regalloc_overhead_budget".into(),
        baseline: overhead.max(1.0),
        measured: allowed / handicap,
        tolerance: 0.0,
    });

    let committed_p99 = num_field(cluster_serving, "gate_p99_round_ticks")
        .expect("cluster_serving baseline has gate_p99_round_ticks");
    let committed_survival = num_field(cluster_serving, "gate_survival")
        .expect("cluster_serving baseline has gate_survival");
    let fresh = crate::serving::run_serving(&crate::serving::ServingConfig::gate());
    // Exact-equality pin, both directions: the floor check fails when the
    // fresh p99 falls below the committed value, the ceiling check fails
    // when it rises above it. Together they demand bit-identical behaviour.
    checks.push(Check {
        name: "cluster_serving/p99_floor".into(),
        baseline: committed_p99,
        measured: fresh.p99_round_ticks as f64 / handicap,
        tolerance: 0.0,
    });
    checks.push(Check {
        name: "cluster_serving/p99_ceiling".into(),
        baseline: fresh.p99_round_ticks as f64,
        measured: committed_p99 / handicap,
        tolerance: 0.0,
    });
    // Zero tenant loss under the seeded fault plan, and the committed
    // artifact must claim the same.
    checks.push(Check {
        name: "cluster_serving/survival".into(),
        baseline: committed_survival.max(1.0),
        measured: fresh.survival / handicap,
        tolerance: 0.0,
    });

    checks
}

/// Renders the comparison table.
pub fn checks_table(checks: &[Check]) -> String {
    let mut out = String::from(
        "metric                                baseline   measured   measured/baseline   status\n",
    );
    for c in checks {
        out.push_str(&format!(
            "{:<36}  {:>8.2}   {:>8.2}   {:>17.2}   {}\n",
            c.name,
            c.baseline,
            c.measured,
            c.ratio(),
            if c.regressed() {
                "REGRESSED"
            } else if c.ratio() > 1.0 + TOLERANCE {
                "improved"
            } else {
                "ok"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_threshold_is_25_percent() {
        let ok = Check {
            name: "m".into(),
            baseline: 10.0,
            measured: 7.6,
            tolerance: TOLERANCE,
        };
        assert!(!ok.regressed());
        let bad = Check {
            name: "m".into(),
            baseline: 10.0,
            measured: 7.4,
            tolerance: TOLERANCE,
        };
        assert!(bad.regressed());
        let table = checks_table(&[ok, bad]);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("ok"));
    }

    #[test]
    fn hard_budget_checks_fail_on_any_overrun() {
        // The telemetry overhead check: baseline is the measured overhead,
        // measured is the budget, tolerance is zero — the slightest overrun
        // regresses.
        let within = Check {
            name: "telemetry/regalloc_overhead_budget".into(),
            baseline: 1.01,
            measured: 1.03,
            tolerance: 0.0,
        };
        assert!(!within.regressed());
        let overrun = Check {
            name: "telemetry/regalloc_overhead_budget".into(),
            baseline: 1.05,
            measured: 1.03,
            tolerance: 0.0,
        };
        assert!(overrun.regressed());
    }
}
