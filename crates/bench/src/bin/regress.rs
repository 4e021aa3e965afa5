//! CI performance-regression gate: re-measures the committed performance
//! envelopes at smoke scale and fails (exit 1) if any metric drops more than
//! 25% below its `BENCH_*.json` baseline. Prints the comparison table either
//! way.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin regress
//! SYNERGY_REGRESS_HANDICAP=2.0 cargo run --release -p synergy-bench --bin regress  # must fail
//! ```

use synergy_bench::{checks_table, run_checks, TOLERANCE};

fn read_baseline(name: &str) -> String {
    let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed baseline {}: {}", path, e))
}

fn main() {
    let interp_vs_compiled = read_baseline("BENCH_interp_vs_compiled.json");
    let telemetry = read_baseline("BENCH_telemetry.json");
    let cluster_serving = read_baseline("BENCH_cluster_serving.json");
    let checks = run_checks(&interp_vs_compiled, &telemetry, &cluster_serving);
    print!("{}", checks_table(&checks));
    let regressions: Vec<_> = checks.iter().filter(|c| c.regressed()).collect();
    if regressions.is_empty() {
        println!(
            "\nperf gate: OK ({} metrics within {:.0}% of baseline)",
            checks.len(),
            TOLERANCE * 100.0
        );
    } else {
        println!(
            "\nperf gate: FAILED — {} metric(s) regressed more than {:.0}% below baseline:",
            regressions.len(),
            TOLERANCE * 100.0
        );
        for c in &regressions {
            println!(
                "  {} fell to {:.2} (baseline {:.2}, ratio {:.2})",
                c.name,
                c.measured,
                c.baseline,
                c.ratio()
            );
        }
        std::process::exit(1);
    }
}
