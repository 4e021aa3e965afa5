//! Golden-checkpoint recipe for the CI `snapshot-compat` gate.
//!
//! A *golden* is a durable checkpoint of one Table-1 workload, captured
//! mid-run on the compiled engine, committed under `tests/golden/` as
//! `<workload>_regalloc.ckpt`. (The `<workload>_stack.ckpt` files beside them
//! are frozen fixtures written by an older build on the since-retired stack
//! tier; they are not regenerable and exist to prove old bytes still
//! restore.)
//! CI restores every golden and asserts the resumed run is bit-identical to
//! a fresh run fast-forwarded to the same tick — so any drift in the wire
//! format, the engines, or the workloads is caught against bytes produced by
//! an *older build*.
//!
//! The construction here is deliberately shared between the generator
//! (`cargo run -p synergy-workloads --example showseed -- golden
//! tests/golden`) and the compat test (`tests/snapshot_compat.rs` in the
//! facade crate): both call [`golden_runtime`], so the reference lineage in
//! CI is byte-for-byte the lineage the goldens were captured from. A
//! wire-format version bump makes every golden fail decoding with a typed
//! `UnknownVersion` error until the goldens are deliberately regenerated.
//! The fleet golden beside them, `fleet_mixed.ckpt`, is a hypervisor node
//! rather than a workload; its recipe is `synergy::golden::golden_fleet`.

use crate::benchmarks::{all, input_data, Benchmark};
use synergy_runtime::Runtime;
use synergy_vlog::VlogResult;

/// Input records generated for streaming goldens (small, CI-friendly).
pub const GOLDEN_STREAM_LEN: usize = 2048;

/// Virtual ticks executed on the compiled engine before capture.
pub const GOLDEN_WARMUP_TICKS: u64 = 96;

/// Virtual ticks the compat gate runs past the capture point on both the
/// restored and the fresh lineage before comparing state.
pub const GOLDEN_RESUME_TICKS: u64 = 64;

/// File name of one golden checkpoint, e.g. `bitcoin_regalloc.ckpt` (the
/// suffix predates the single compiled executor; the committed files keep
/// their names).
pub fn golden_file_name(bench: &Benchmark) -> String {
    format!("{}_regalloc.ckpt", bench.name)
}

/// Every workload the gate covers: the six Table-1 benchmarks.
pub fn golden_matrix() -> Vec<Benchmark> {
    all()
}

/// Deterministically constructs one workload runtime at the golden capture
/// point: launched exactly like `SynergyVm::launch_benchmark` (two software
/// ticks so `$fopen` runs in software, as the paper's workflow does), hopped
/// onto the compiled engine, and warmed up for [`GOLDEN_WARMUP_TICKS`].
///
/// # Errors
///
/// Propagates compilation/lowering errors (all Table-1 workloads are inside
/// the compiled envelope, so an error here is a build regression).
pub fn golden_runtime(bench: &Benchmark) -> VlogResult<Runtime> {
    let mut rt = Runtime::new(bench.name.clone(), &bench.source, &bench.top, &bench.clock)?;
    if let Some(path) = &bench.input_path {
        rt.add_file(path.clone(), input_data(&bench.name, GOLDEN_STREAM_LEN));
    }
    rt.run_ticks(2)?;
    rt.migrate_to_compiled()?;
    rt.run_ticks(GOLDEN_WARMUP_TICKS)?;
    Ok(rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_runtime::ExecMode;

    #[test]
    fn golden_runtimes_are_deterministic_and_compiled() {
        let bench = &golden_matrix()[1];
        let a = golden_runtime(bench).unwrap();
        let b = golden_runtime(bench).unwrap();
        assert_eq!(a.mode(), ExecMode::Compiled);
        assert_eq!(a.ticks(), 2 + GOLDEN_WARMUP_TICKS);
        assert_eq!(a.peek_state(), b.peek_state());
        assert_eq!(
            a.save_checkpoint(),
            b.save_checkpoint(),
            "golden bytes are reproducible"
        );
    }

    #[test]
    fn golden_matrix_covers_every_workload_once() {
        let names: std::collections::BTreeSet<String> =
            golden_matrix().iter().map(golden_file_name).collect();
        assert_eq!(names.len(), 6, "6 Table-1 workloads, unique file names");
    }
}
