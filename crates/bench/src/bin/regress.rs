//! CI telemetry-overhead gate: times the compiled engine's `run_ticks` calls
//! with telemetry off and on, prints both and their ratio, and fails (exit 1)
//! if the ratio exceeds the budget by any amount.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin regress
//! SYNERGY_REGRESS_HANDICAP=2.0 cargo run --release -p synergy-bench --bin regress  # must fail
//! ```

fn main() {
    let b = synergy_bench::telemetry_budget();
    println!(
        "telemetry overhead (nw, run_ticks(64), good decile a side): \
         off {:.1} us, on {:.1} us, overhead {:.4}, budget {:.4}",
        b.off_ns as f64 / 1e3,
        b.on_ns as f64 / 1e3,
        b.overhead(),
        b.allowed
    );
    if b.exceeded() {
        println!("telemetry gate: FAILED");
        std::process::exit(1);
    }
    println!("telemetry gate: OK");
}
