//! Developer utility: sweep fuzz seeds differentially (interpreter vs the
//! stack oracle vs the compiled engine vs the optimized compiled engine,
//! four-way), print one seed's generated source, regenerate the
//! committed golden checkpoints, or sweep seeds through a checkpoint
//! round-trip (checkpoint mid-run, restore, lockstep-compare against the
//! uninterrupted run).
//!
//! ```text
//! cargo run --release -p synergy-workloads --example showseed -- 7                # print seed 7
//! cargo run --release -p synergy-workloads --example showseed -- 0 5000          # sweep seeds 0..5000
//! cargo run --release -p synergy-workloads --example showseed -- corpus dir      # dump the pinned corpus
//! cargo run --release -p synergy-workloads --example showseed -- golden tests/golden  # regenerate goldens
//! cargo run --release -p synergy-workloads --example showseed -- roundtrip 0 2048    # checkpoint round-trip sweep
//! ```

use synergy::golden::{golden_fleet, GOLDEN_FLEET_FILE};
use synergy_interp::{BufferEnv, Interpreter};
use synergy_runtime::{EnginePolicy, Runtime};
use synergy_workloads::golden::{golden_file_name, golden_matrix, golden_runtime};
use synergy_workloads::{fuzz_input_data, generate_fuzz_design, REGRESSION_CORPUS};

fn run_seed(seed: u64, ticks: usize) -> Result<(), String> {
    let d = generate_fuzz_design(seed);
    let design =
        synergy_vlog::compile(&d.source, &d.top).map_err(|e| format!("elaborate: {}", e))?;
    let prog = synergy_codegen::compile(&design).map_err(|e| format!("lower: {}", e))?;
    let mut oprog = prog.clone();
    let report = synergy_opt::optimize_with_passes(&mut oprog, &synergy_opt::PASS_NAMES);
    if report.any_reverted() {
        return Err(format!(
            "an optimization pass failed validation and reverted\n{}",
            d.source
        ));
    }
    let mut interp = Interpreter::new(design);
    let mut sim = synergy_codegen::CompiledSim::try_new(prog.clone())
        .map_err(|e| format!("regalloc translation: {}", e))?;
    let mut stack = synergy_codegen::StackSim::new(prog);
    let mut osim = synergy_codegen::CompiledSim::try_new(oprog)
        .map_err(|e| format!("optimized regalloc translation: {}", e))?;
    let mut ienv = BufferEnv::new();
    let mut cenv = BufferEnv::new();
    let mut senv = BufferEnv::new();
    let mut oenv = BufferEnv::new();
    if let Some(path) = &d.input_path {
        let data = fuzz_input_data(seed, ticks / 2);
        ienv.add_file(path.clone(), data.clone());
        senv.add_file(path.clone(), data.clone());
        oenv.add_file(path.clone(), data.clone());
        cenv.add_file(path.clone(), data);
    }
    for t in 0..ticks {
        // Error parity, same as tests/fuzz_differential.rs: a design all
        // engines reject with the same message is agreement, not a failure.
        let ir = interp.tick(&d.clock, &mut ienv);
        let cr = sim.tick(&d.clock, &mut cenv);
        let sr = stack.tick(&d.clock, &mut senv);
        let or = osim.tick(&d.clock, &mut oenv);
        match (&ir, &cr, &sr, &or) {
            (Ok(()), Ok(()), Ok(()), Ok(())) => {}
            (Err(a), Err(b), Err(c), Err(d))
                if a.to_string() == b.to_string()
                    && a.to_string() == c.to_string()
                    && a.to_string() == d.to_string() =>
            {
                break
            }
            _ => {
                return Err(format!(
                    "engines disagree at tick {} (interp: {:?}, regalloc: {:?}, stack: {:?}, optimized: {:?})",
                    t, ir, cr, sr, or
                ))
            }
        }
        let isnap = interp.save_state();
        if isnap != sim.save_state() {
            return Err(format!("regalloc snapshots diverge at tick {}", t));
        }
        if isnap != stack.save_state() {
            return Err(format!("stack snapshots diverge at tick {}", t));
        }
        if isnap != osim.save_state() {
            return Err(format!("optimized snapshots diverge at tick {}", t));
        }
        if interp.finished() != sim.finished()
            || interp.finished() != stack.finished()
            || interp.finished() != osim.finished()
        {
            return Err(format!("finish diverges at tick {}", t));
        }
        if interp.finished().is_some() {
            break;
        }
    }
    if ienv.output_text() != cenv.output_text()
        || ienv.output_text() != senv.output_text()
        || ienv.output_text() != oenv.output_text()
    {
        return Err("output diverges".into());
    }
    Ok(())
}

/// Writes every pinned regression-corpus seed's generated source into `dir`
/// (one `seed_NNN.v` per seed, plus an index), re-verifying each seed on the
/// way. CI uploads the directory as the fuzz-corpus workflow artifact.
fn dump_corpus(dir: &str) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    let mut index = String::from("seed\tfile\n");
    for &seed in REGRESSION_CORPUS {
        run_seed(seed, 24).unwrap_or_else(|e| panic!("corpus seed {} regressed: {}", seed, e));
        let file = format!("seed_{:03}.v", seed);
        std::fs::write(
            format!("{}/{}", dir, file),
            generate_fuzz_design(seed).source,
        )
        .expect("write corpus design");
        index.push_str(&format!("{}\t{}\n", seed, file));
    }
    std::fs::write(format!("{}/INDEX.tsv", dir), index).expect("write corpus index");
    println!(
        "dumped {} corpus designs to {}",
        REGRESSION_CORPUS.len(),
        dir
    );
}

/// Regenerates the committed golden checkpoints: one durable checkpoint per
/// Table-1 workload (the `*_regalloc.ckpt` files; the `*_stack.ckpt` and
/// `fleet_legacy_tier.ckpt` fixtures were written by an older build and are
/// not regenerable), captured by the shared
/// `synergy_workloads::golden` recipe (the same construction the CI
/// `snapshot-compat` gate replays as its fresh reference), plus the fleet
/// golden `fleet_mixed.ckpt` of `synergy::golden::golden_fleet`'s node. Run
/// this — and commit the result — whenever the wire format version is
/// deliberately bumped.
fn write_goldens(dir: &str) {
    std::fs::create_dir_all(dir).expect("create golden dir");
    let write = |file: &str, bytes: Vec<u8>| {
        std::fs::write(format!("{}/{}", dir, file), &bytes).expect("write golden");
        println!("wrote {}/{} ({} bytes)", dir, file, bytes.len());
    };
    for bench in golden_matrix() {
        let rt = golden_runtime(&bench)
            .unwrap_or_else(|e| panic!("golden {} failed to build: {}", bench.name, e));
        write(&golden_file_name(&bench), rt.save_checkpoint());
    }
    let fleet = golden_fleet().unwrap_or_else(|e| panic!("fleet golden failed to build: {}", e));
    write(GOLDEN_FLEET_FILE, fleet.checkpoint_fleet());
}

/// Runs one fuzz seed through a checkpoint round-trip: execute under
/// `EnginePolicy::Auto`, checkpoint at a tick boundary mid-run, restore from
/// the bytes, then lockstep-compare the restored lineage against the
/// uninterrupted one.
fn roundtrip_seed(seed: u64, warmup: u64, rest: u64) -> Result<(), String> {
    let d = generate_fuzz_design(seed);
    let mut rt = Runtime::with_policy(
        format!("fuzz{}", seed),
        &d.source,
        &d.top,
        &d.clock,
        EnginePolicy::Auto,
    )
    .map_err(|e| format!("build: {}", e))?;
    if let Some(path) = &d.input_path {
        rt.add_file(
            path.clone(),
            fuzz_input_data(seed, (warmup + rest) as usize),
        );
    }
    if rt.run_ticks(warmup).is_err() {
        // Designs both engines reject identically are covered by the
        // differential sweep; the round-trip leg only needs runnable ones.
        return Ok(());
    }
    let bytes = rt.save_checkpoint();
    let mut restored =
        Runtime::restore_checkpoint(&bytes).map_err(|e| format!("restore: {}", e))?;
    if restored.peek_state() != rt.peek_state() {
        return Err("state diverges immediately after restore".into());
    }
    let a = rt.run_ticks(rest);
    let b = restored.run_ticks(rest);
    match (&a, &b) {
        (Ok(_), Ok(_)) => {}
        (Err(x), Err(y)) if x.to_string() == y.to_string() => return Ok(()),
        _ => return Err(format!("onward results disagree ({:?} vs {:?})", a, b)),
    }
    if restored.peek_state() != rt.peek_state() {
        return Err(format!("state diverges {} ticks after restore", rest));
    }
    if restored.env.output_text() != rt.env.output_text() {
        return Err("output diverges after restore".into());
    }
    if restored.save_checkpoint() != rt.save_checkpoint() {
        return Err("re-checkpoint bytes diverge".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, dir] = args.as_slice() {
        if mode == "corpus" {
            dump_corpus(dir);
            return;
        }
        if mode == "golden" {
            write_goldens(dir);
            return;
        }
    }
    if let [mode, start, end] = args.as_slice() {
        if mode == "roundtrip" {
            let (start, end): (u64, u64) = (
                start.parse().expect("numeric seed"),
                end.parse().expect("numeric seed"),
            );
            let mut failures = 0;
            for seed in start..end {
                if let Err(e) = roundtrip_seed(seed, 12, 12) {
                    failures += 1;
                    eprintln!("seed {}: {}", seed, e);
                }
            }
            println!(
                "round-tripped {} seeds through the wire format, {} failures",
                end - start,
                failures
            );
            if failures > 0 {
                std::process::exit(1);
            }
            return;
        }
    }
    let nums: Vec<u64> = args
        .iter()
        .map(|a| a.parse().expect("numeric seed"))
        .collect();
    match nums.as_slice() {
        [seed] => println!("{}", generate_fuzz_design(*seed).source),
        [start, end] => {
            let mut failures = 0;
            for seed in *start..*end {
                if let Err(e) = run_seed(seed, 24) {
                    failures += 1;
                    eprintln!("seed {}: {}", seed, e);
                }
            }
            println!("swept {} seeds, {} failures", end - start, failures);
            if failures > 0 {
                std::process::exit(1);
            }
        }
        _ => eprintln!(
            "usage: showseed <seed> | showseed <start> <end> | showseed corpus <dir> \
             | showseed golden <dir> | showseed roundtrip <start> <end>"
        ),
    }
}
