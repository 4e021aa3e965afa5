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
//! A pass ablation follows, over the compiled programs of the Table-1 designs
//! (plain) and of the fuzz designs of generator seeds 1000–1249 (the
//! benchmark's fuzz window): per pass, the summed word ops with the whole
//! pipeline, with that pass left out, and the pass's summed rewrites. The
//! counts are static, so a pass whose win is dynamic reads about zero.
//!
//! A last section says why the state-machine transformation refuses the fuzz
//! designs of the same window that it refuses: one line per `Unsupported`
//! reason, digits collapsed to `#`, with its count.
//!
//! The last section is host time, so it alone differs between runs: the five
//! fuzz designs of the window with the slowest steady tick on the compiled
//! engine (best of eight ticks after a warm one), by seed, in ns. It names a
//! tenant whose tick costs far more than its program suggests.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin passstats                  # stdout
//! cargo run --release -p synergy-bench --bin passstats -- artifacts/passstats.txt
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use synergy::interp::BufferEnv;
use synergy::opt::PASS_NAMES;
use synergy::workloads;
use synergy::{transform_design, CompiledProgram, CompiledSim, TransformOptions, VlogError};

/// The benchmark's fuzz window: the generator seeds `perf/` admits.
const FUZZ_SEEDS: std::ops::Range<u64> = 1000..1250;

fn main() {
    let out_path = std::env::args().nth(1);
    let mut out = String::new();
    for b in &workloads::all() {
        let mut prog = lower(&b.name, &b.source, &b.top);
        let lowered = CompiledSim::new(prog.clone());
        let report = synergy::opt::optimize(&mut prog);
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
        let optimized = CompiledSim::new(prog);
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
            let count = |h: &BTreeMap<String, usize>| *h.get(op).unwrap_or(&0);
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
    ablation(&mut out);
    refusals(&mut out);
    slowest_ticks(&mut out);
    print!("{}", out);
    if let Some(path) = out_path {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&path, &out).expect("write passstats output");
        eprintln!("wrote {}", path);
    }
}

/// What each pass is worth in word ops: over the compiled programs of the
/// Table-1 designs and of the fuzz window, the summed word-op count with the
/// whole pipeline and with one pass left out, and that pass's rewrites.
fn ablation(out: &mut String) {
    let table1: Vec<_> = workloads::all()
        .iter()
        .map(|b| lower(&b.name, &b.source, &b.top))
        .collect();
    let fuzz: Vec<_> = FUZZ_SEEDS
        .map(|seed| {
            let d = workloads::generate_fuzz_design(seed);
            lower(&format!("fuzz seed {}", seed), &d.source, &d.top)
        })
        .collect();
    writeln!(
        out,
        "== pass ablation: word ops of the compiled programs, counted statically \
         (a pass whose win is dynamic, like nbdirect's settle rounds, reads ~0)"
    )
    .unwrap();
    let fuzz_label = format!("fuzz seeds {}–{}", FUZZ_SEEDS.start, FUZZ_SEEDS.end - 1);
    for (label, progs) in [("Table-1 (plain)", table1), (fuzz_label.as_str(), fuzz)] {
        let (all, rewrites) = word_ops(&progs, &PASS_NAMES);
        writeln!(
            out,
            "-- {}: {} programs, {} word ops",
            label,
            progs.len(),
            all
        )
        .unwrap();
        writeln!(
            out,
            "{:<12} {:>9} {:>9} {:>9}",
            "pass", "all", "without", "rewrites"
        )
        .unwrap();
        for pass in PASS_NAMES.into_iter().filter(|&p| p != "relevel") {
            let rest: Vec<&str> = PASS_NAMES.into_iter().filter(|&p| p != pass).collect();
            let (without, _) = word_ops(&progs, &rest);
            let n = rewrites.get(pass).copied().unwrap_or(0);
            writeln!(out, "{:<12} {:>9} {:>9} {:>9}", pass, all, without, n).unwrap();
        }
    }
    writeln!(out).unwrap();
}

fn lower(name: &str, source: &str, top: &str) -> CompiledProgram {
    let design = synergy::vlog::compile(source, top)
        .unwrap_or_else(|e| panic!("{}: elaborate: {}", name, e));
    synergy::codegen::compile(&design).unwrap_or_else(|e| panic!("{}: lower: {}", name, e))
}

/// The summed word-op count of `progs` optimised with `passes`, and the
/// summed rewrites of each pass that ran.
fn word_ops(progs: &[CompiledProgram], passes: &[&str]) -> (usize, BTreeMap<&'static str, u64>) {
    let mut rewrites = BTreeMap::new();
    let mut total = 0;
    for prog in progs {
        let mut prog = prog.clone();
        let report = synergy::opt::optimize_with_passes(&mut prog, passes);
        for p in report.passes.iter().filter(|p| !p.reverted) {
            *rewrites.entry(p.name).or_default() += p.rewrites;
        }
        total += CompiledSim::new(prog).word_op_count().unwrap_or(0);
    }
    (total, rewrites)
}

/// The transformation's refusals over the benchmark's fuzz window, counted by
/// reason with digits collapsed (so one bound exceeded by different counts is
/// one line).
fn refusals(out: &mut String) {
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    for seed in FUZZ_SEEDS {
        let d = workloads::generate_fuzz_design(seed);
        let design = synergy::vlog::compile(&d.source, &d.top)
            .unwrap_or_else(|e| panic!("fuzz seed {}: elaborate: {}", seed, e));
        match transform_design(&design, TransformOptions::default()) {
            Ok(_) => {}
            Err(VlogError::Unsupported(reason)) => {
                let mut collapsed = String::new();
                for c in reason.chars() {
                    if !c.is_ascii_digit() {
                        collapsed.push(c);
                    } else if !collapsed.ends_with('#') {
                        collapsed.push('#');
                    }
                }
                *reasons.entry(collapsed).or_default() += 1;
            }
            Err(e) => panic!("fuzz seed {}: transform: {}", seed, e),
        }
    }
    let refused: usize = reasons.values().sum();
    writeln!(
        out,
        "== transform refusals (fuzz seeds {}–{}): {} of {}",
        FUZZ_SEEDS.start,
        FUZZ_SEEDS.end - 1,
        refused,
        FUZZ_SEEDS.end - FUZZ_SEEDS.start
    )
    .unwrap();
    let mut lines: Vec<_> = reasons.into_iter().collect();
    lines.sort_by_key(|(reason, n)| (std::cmp::Reverse(*n), reason.clone()));
    for (reason, n) in lines {
        writeln!(out, "{:>5}  {}", n, reason).unwrap();
    }
}

/// The five fuzz designs of the window whose steady tick on the compiled
/// engine is slowest: best of eight ticks after a warm one, in ns (NonDet).
fn slowest_ticks(out: &mut String) {
    const REPS: usize = 8;
    let mut ticks: Vec<(u128, u64)> = FUZZ_SEEDS
        .map(|seed| {
            let d = workloads::generate_fuzz_design(seed);
            let mut prog = lower(&format!("fuzz seed {}", seed), &d.source, &d.top);
            synergy::opt::optimize(&mut prog);
            let mut sim = CompiledSim::new(prog);
            let mut env = BufferEnv::new();
            if let Some(path) = &d.input_path {
                env.add_file(path.clone(), workloads::fuzz_input_data(seed, 64));
            }
            let mut tick = || {
                let start = Instant::now();
                sim.tick(&d.clock, &mut env)
                    .unwrap_or_else(|e| panic!("fuzz seed {}: tick: {}", seed, e));
                start.elapsed().as_nanos()
            };
            tick();
            ((0..REPS).map(|_| tick()).min().unwrap(), seed)
        })
        .collect();
    ticks.sort_by_key(|&(ns, seed)| (std::cmp::Reverse(ns), seed));
    writeln!(
        out,
        "== slowest fuzz ticks (NonDet host time; fuzz seeds {}–{}, compiled, best of {} steady ticks)",
        FUZZ_SEEDS.start,
        FUZZ_SEEDS.end - 1,
        REPS
    )
    .unwrap();
    writeln!(out, "{:>6} {:>12}", "seed", "tick ns").unwrap();
    for (ns, seed) in ticks.iter().take(5) {
        writeln!(out, "{:>6} {:>12}", seed, ns).unwrap();
    }
}
