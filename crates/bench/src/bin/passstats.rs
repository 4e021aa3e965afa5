//! Per-pass optimizer statistics for the Table-1 workloads.
//!
//! Compiles each workload, runs the full `synergy-opt` pipeline, and prints
//! two tables per workload: rewrites per pass, op counts before/after, and
//! whether the pass manager reverted anything; then the word program the
//! compiled engine actually ticks — its op count and a histogram by word
//! op, as lowered and as optimized. The measure of the optimizer is the
//! second table (a tee adds two stack ops while removing a load and often a
//! store, so the stack op count can rise while the word program shrinks),
//! and it is static: "which opcode mix dominates a tick" is answered here,
//! with no run-time counter. CI uploads the output as a workflow artifact so
//! a PR that changes pass behaviour shows up as a diff in rewrite counts and
//! opcode mix, not just a perf-gate ratio.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin passstats                  # stdout
//! cargo run --release -p synergy-bench --bin passstats -- artifacts/passstats.txt
//! ```

use std::fmt::Write as _;

use synergy::workloads;

fn main() {
    let out_path = std::env::args().nth(1);
    let mut out = String::new();
    for b in &workloads::all() {
        let design = synergy::vlog::compile(&b.source, &b.top)
            .unwrap_or_else(|e| panic!("{}: elaborate: {}", b.name, e));
        let mut prog = synergy::codegen::compile(&design)
            .unwrap_or_else(|e| panic!("{}: lower: {}", b.name, e));
        let lowered = synergy::codegen::CompiledSim::new(prog.clone());
        let report = synergy::opt::optimize_with_passes(&mut prog, &synergy::opt::PASS_NAMES);
        let before = report.passes.first().map(|p| p.ops_before).unwrap_or(0);
        let after = report.passes.last().map(|p| p.ops_after).unwrap_or(0);
        writeln!(
            out,
            "== {}: {} ops -> {} ops ({} rewrites{})",
            b.name,
            before,
            after,
            report.total_rewrites(),
            if report.any_reverted() {
                ", REVERTS PRESENT"
            } else {
                ""
            }
        )
        .unwrap();
        writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9}  rev",
            "pass", "rewrites", "before", "after"
        )
        .unwrap();
        for p in &report.passes {
            writeln!(
                out,
                "{:<12} {:>9} {:>9} {:>9}  {}",
                p.name,
                p.rewrites,
                p.ops_before,
                p.ops_after,
                if p.reverted { "YES" } else { "-" }
            )
            .unwrap();
        }
        let optimized = synergy::codegen::CompiledSim::new(prog);
        let (was, now) = (lowered.word_op_histogram(), optimized.word_op_histogram());
        writeln!(
            out,
            "-- {}: {} word ops -> {} word ops",
            b.name,
            lowered.word_op_count().unwrap_or(0),
            optimized.word_op_count().unwrap_or(0)
        )
        .unwrap();
        writeln!(out, "{:<20} {:>9} {:>9}", "word op", "before", "after").unwrap();
        let mut ops: Vec<&String> = was.keys().chain(now.keys()).collect();
        ops.sort_by_key(|&op| (std::cmp::Reverse(now.get(op).copied().unwrap_or(0)), op));
        ops.dedup();
        for op in ops {
            let count = |h: &std::collections::BTreeMap<String, usize>| *h.get(op).unwrap_or(&0);
            writeln!(out, "{:<20} {:>9} {:>9}", op, count(&was), count(&now)).unwrap();
        }
        writeln!(out).unwrap();
        // A revert on a Table-1 workload means a pass produced a structurally
        // invalid program on real code — the artifact stays useful, but CI
        // should go red.
        assert!(
            !report.any_reverted(),
            "{}: an optimization pass reverted",
            b.name
        );
    }
    print!("{}", out);
    if let Some(path) = out_path {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&path, &out).expect("write passstats output");
        eprintln!("wrote {}", path);
    }
}
