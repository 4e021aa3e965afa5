//! The CI telemetry-overhead gate.
//!
//! Host-time speed is judged by the `perf/` benchmark. This gate keeps the
//! one host-time *contract* that only CI checks: enabling telemetry (metrics
//! and the flight recorder) may slow the compiled engine's `run_ticks` loop
//! by at most [`ALLOWED_OVERHEAD`], with zero tolerance.
//!
//! `SYNERGY_REGRESS_HANDICAP=<factor>` divides the budget — the knob used to
//! verify the gate actually fails (CI runs it with `2.0`).

use std::time::Instant;

/// The budget: host time of a `run_ticks` call with telemetry on, over the
/// same call with telemetry off.
pub const ALLOWED_OVERHEAD: f64 = 1.03;

/// One gate run: the measured call's quiet-host time on each side, and the
/// budget their ratio is held to.
#[derive(Debug)]
pub struct Budget {
    /// Telemetry-off time of one `run_ticks` call, in ns.
    pub off_ns: u64,
    /// Telemetry-on time of one `run_ticks` call, in ns.
    pub on_ns: u64,
    /// [`ALLOWED_OVERHEAD`] divided by the handicap.
    pub allowed: f64,
}

impl Budget {
    /// on / off.
    pub fn overhead(&self) -> f64 {
        self.on_ns as f64 / self.off_ns.max(1) as f64
    }

    /// `true` if the overhead is over budget by any amount.
    pub fn exceeded(&self) -> bool {
        self.overhead() > self.allowed
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

/// Times 2,000 [`synergy::Runtime::run_ticks`]`(64)` calls of one compiled
/// nw runtime, telemetry switched off and on in the pattern off-on-on-off,
/// and holds each side's good decile (the first) to the budget.
///
/// 64 ticks mirrors the hypervisor's call shape: `run_round` hands each
/// tenant one `run_ticks(tick_budget)` call per round, so the per-call
/// `note_run` epilogue (counter deltas, histogram observe) amortises over a
/// round's budget, never over a single tick, and 64 is the smallest budget
/// it plausibly hands out (`round_tick_cap` is 512 by default). Neighbouring
/// calls of the two sides are a fraction of a millisecond apart, so a noise
/// spell on the host, which lasts far longer, lands on both sides alike.
/// Interference only ever adds time, so each side's good decile stays on its
/// undisturbed cost as long as a tenth of the calls ran undisturbed — where
/// a single minimum is one sample and moves by a few percent between runs.
pub fn telemetry_budget() -> Budget {
    const CALLS: u64 = 2000;
    const BATCH: u64 = 64;
    let bench = synergy::workloads::by_name("nw").expect("nw workload exists");
    let mut rt = synergy::Runtime::with_policy(
        bench.name.clone(),
        &bench.source,
        &bench.top,
        &bench.clock,
        synergy::EnginePolicy::Auto,
    )
    .expect("workload compiles");
    assert_eq!(rt.mode(), synergy::ExecMode::Compiled, "nw runs compiled");
    if let Some(path) = &bench.input_path {
        rt.add_file(
            path.clone(),
            synergy::workloads::input_data(&bench.name, 8 * (CALLS * BATCH) as usize),
        );
    }
    let mut ns: [Vec<u64>; 2] = Default::default();
    for call in 0..CALLS {
        let on = matches!(call % 4, 1 | 2);
        synergy::telemetry::set_enabled(on);
        let start = Instant::now();
        rt.run_ticks(BATCH).expect("ticks");
        ns[on as usize].push(start.elapsed().as_nanos() as u64);
    }
    synergy::telemetry::set_enabled(false);
    let [off_ns, on_ns] = ns.map(|mut side| {
        side.sort_unstable();
        side[side.len() / 10]
    });
    Budget {
        off_ns,
        on_ns,
        allowed: ALLOWED_OVERHEAD / handicap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_budget_checks_fail_on_any_overrun() {
        let at = |on_ns, allowed| Budget {
            off_ns: 1000,
            on_ns,
            allowed,
        };
        assert!(!at(1010, ALLOWED_OVERHEAD).exceeded());
        assert!(!at(1030, ALLOWED_OVERHEAD).exceeded(), "the budget is ≤");
        assert!(at(1031, ALLOWED_OVERHEAD).exceeded());
        // The handicap halves the budget below any real overhead.
        assert!(at(1000, ALLOWED_OVERHEAD / 2.0).exceeded());
    }
}
