//! # synergy-opt
//!
//! Netlist optimization pipeline for the SYNERGY reproduction: a pass
//! manager over the levelized [`CompiledProgram`] IR, run after lowering
//! and before the regalloc translation, so the compiled engine — and the
//! stack oracle, given the same program — execute the optimized bytecode.
//!
//! # Passes
//!
//! In canonical order (see [`PASS_NAMES`]):
//!
//! | name        | what it does |
//! |-------------|--------------|
//! | `finish`    | rewrites finish-flag checks in `always` bodies without `$finish` into unconditional control flow |
//! | `ifconvert` | converts pure branch diamonds into straight-line [`Select`](synergy_codegen::ir::Op::Select) code |
//! | `nbdirect`  | turns provably unobservable non-blocking latches into direct stores |
//! | `cse`       | block-local value numbering: expression reuse, reads of a slot the block wrote served from a temp, redundant-store elimination |
//! | `dse`       | removes stores definitely overwritten before any observation point, and pure producers that feed a `Pop` |
//! | `dce`       | removes comb nodes whose outputs nothing observes |
//! | `relevel`   | recomputes dependency tables and topological levels (always run last) |
//!
//! # Safety net
//!
//! The manager clones the program before each pass and validates the
//! result (stack discipline of every program, plus a full table/level
//! rebuild). A pass that produces an invalid program is **reverted** and
//! reported via [`PassStats::reverted`]. That check catches *invalid*
//! programs only: a pass that emits a valid program computing something
//! else passes it. Four miscompiles on record did: `dce`'s task-argument
//! roots, `cse`'s out-of-range element, and `fuse`'s store-width clamp and
//! `strength`'s `Select` width (both passes since retired). Semantic errors
//! are caught only by the differentials — the lockstep corpus in
//! `crates/opt/tests/differential.rs` and `tests/fuzz_differential.rs`.
//! Checking each pass's output against its input (translation validation)
//! is ROADMAP item 6. Optimization happens at
//! program-construction time only; checkpoint wire formats and engine
//! state snapshots are unaffected because snapshots capture registers
//! and time, which every pass preserves exactly.
//!
//! # Bisecting a pass
//!
//! [`optimize`] always runs the whole pipeline and reads nothing from the
//! environment: there is no off switch. To name the pass behind a suspected
//! miscompile, call [`optimize_with_passes`] with a subset of
//! [`PASS_NAMES`], as `showseed` and `crates/opt/tests/differential.rs` do.
//!
//! # Example
//!
//! ```
//! use synergy_opt::optimize;
//!
//! let design = synergy_vlog::compile(
//!     r#"module M(input wire clock, output wire [7:0] out);
//!            reg [7:0] count = 0;
//!            wire [7:0] unused = count ^ 8'h5a;
//!            always @(posedge clock) count <= count + 1;
//!            assign out = count;
//!        endmodule"#,
//!     "M",
//! )?;
//! let mut prog = synergy_codegen::compile(&design)?;
//! let before = prog.op_count();
//! let report = optimize(&mut prog);
//! // `nbdirect` turns the counter's latch into a direct store and `dce`
//! // deletes the driver of `unused`, which nothing reads.
//! assert!(report.total_rewrites() > 0);
//! assert!(prog.op_count() < before);
//! assert!(report.passes.iter().all(|p| !p.reverted));
//! # Ok::<(), synergy_vlog::VlogError>(())
//! ```

#![deny(missing_docs)]

mod analysis;
mod cse;
mod dce;
mod dse;
mod finish;
mod ifconvert;
mod nbdirect;
mod relevel;

use synergy_codegen::CompiledProgram;

/// Canonical pass order. [`optimize_with_passes`] runs the intersection of
/// its argument with this list, in this order.
pub const PASS_NAMES: [&str; 7] = [
    "finish",
    "ifconvert",
    "nbdirect",
    "cse",
    "dse",
    "dce",
    "relevel",
];

/// What one pass did to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name, from [`PASS_NAMES`].
    pub name: &'static str,
    /// Number of rewrites the pass performed (pass-specific unit: folds,
    /// converted diamonds, removed stores, deleted nodes, …).
    pub rewrites: u64,
    /// Total bytecode ops in the program before the pass.
    pub ops_before: u64,
    /// Total bytecode ops after the pass (after a revert, equals
    /// `ops_before`).
    pub ops_after: u64,
    /// `true` when post-pass validation failed and the pass was rolled
    /// back. Always worth investigating, never a correctness problem.
    pub reverted: bool,
}

/// The result of running the pipeline over one program.
///
/// ```
/// let design = synergy_vlog::compile(
///     "module M(input wire clock); reg [7:0] c; always @(posedge clock) c <= c + 8'd1; endmodule",
///     "M",
/// )?;
/// let mut prog = synergy_codegen::compile(&design)?;
/// let report = synergy_opt::optimize(&mut prog);
/// // One PassStats entry per pass that ran, in execution order; a clean
/// // run reverts nothing and (here) converts the counter's NB latch.
/// assert!(!report.any_reverted());
/// assert!(report.total_rewrites() > 0);
/// # Ok::<(), synergy_vlog::VlogError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Per-pass statistics, in execution order.
    pub passes: Vec<PassStats>,
}

impl OptReport {
    /// Total rewrites across all non-reverted passes.
    pub fn total_rewrites(&self) -> u64 {
        self.passes
            .iter()
            .filter(|p| !p.reverted)
            .map(|p| p.rewrites)
            .sum()
    }

    /// `true` when any pass had to be rolled back.
    pub fn any_reverted(&self) -> bool {
        self.passes.iter().any(|p| p.reverted)
    }
}

/// Optimizes `prog` in place with the full pipeline: every pass of
/// [`PASS_NAMES`], in order.
///
/// The program's observable behaviour — snapshots at tick boundaries,
/// output, effects, finish codes — is preserved exactly; see the
/// [crate docs](crate) for the validation story.
pub fn optimize(prog: &mut CompiledProgram) -> OptReport {
    optimize_with_passes(prog, &PASS_NAMES)
}

/// Optimizes `prog` in place, running only the named passes (in canonical
/// order, regardless of the order given). `relevel` always runs last so
/// the dependency tables are canonical for any subset.
///
/// ```
/// let design = synergy_vlog::compile(
///     "module M(input wire a, output wire o); assign o = a & 1'b1; endmodule",
///     "M",
/// )?;
/// let mut prog = synergy_codegen::compile(&design)?;
/// let report = synergy_opt::optimize_with_passes(&mut prog, &["cse", "dse"]);
/// assert_eq!(report.passes.last().unwrap().name, "relevel");
/// # Ok::<(), synergy_vlog::VlogError>(())
/// ```
pub fn optimize_with_passes(prog: &mut CompiledProgram, names: &[&str]) -> OptReport {
    let mut report = OptReport::default();
    for &name in PASS_NAMES.iter() {
        let forced_relevel = name == "relevel";
        if !forced_relevel && !names.contains(&name) {
            continue;
        }
        let ops_before = prog.op_count() as u64;
        let snapshot = prog.clone();
        let result: Result<u64, String> = match name {
            "finish" => Ok(finish::run(prog)),
            "ifconvert" => Ok(ifconvert::run(prog)),
            "nbdirect" => Ok(nbdirect::run(prog)),
            "cse" => Ok(cse::run(prog)),
            "dse" => Ok(dse::run(prog)),
            "dce" => Ok(dce::run(prog)),
            "relevel" => relevel::run(prog),
            _ => Ok(0),
        };
        let validated = result.and_then(|n| {
            analysis::check_program(prog)?;
            relevel::rebuild_tables(prog)?;
            Ok(n)
        });
        match validated {
            Ok(rewrites) => report.passes.push(PassStats {
                name: PASS_NAMES.iter().find(|&&n| n == name).unwrap(),
                rewrites,
                ops_before,
                ops_after: prog.op_count() as u64,
                reverted: false,
            }),
            Err(_) => {
                *prog = snapshot;
                report.passes.push(PassStats {
                    name: PASS_NAMES.iter().find(|&&n| n == name).unwrap(),
                    rewrites: 0,
                    ops_before,
                    ops_after: ops_before,
                    reverted: true,
                });
            }
        }
    }
    report
}
