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
//! | `constprop` | constant/copy propagation across comb driver groups plus local constant folding |
//! | `ifconvert` | converts pure branch diamonds into straight-line [`Select`](synergy_codegen::ir::Op::Select) code |
//! | `nbdirect`  | turns provably unobservable non-blocking latches into direct stores |
//! | `fuse`      | inlines single-reader comb drivers into their reader and deletes the node |
//! | `cse`       | block-local value numbering: expression reuse and redundant-store elimination |
//! | `strength`  | multiply/divide/modulo by powers of two become shifts and masks; identities vanish |
//! | `dse`       | removes stores definitely overwritten before any observation point |
//! | `dce`       | removes comb nodes whose outputs nothing observes |
//! | `relevel`   | recomputes dependency tables and topological levels (always run last) |
//!
//! # Safety net
//!
//! The manager clones the program before each pass and validates the
//! result (stack discipline of every program, plus a full table/level
//! rebuild). A pass that produces an invalid program is **reverted** and
//! reported via [`PassStats::reverted`] — a pass bug degrades to a missed
//! optimization, never a miscompile. Optimization happens at
//! program-construction time only; checkpoint wire formats and engine
//! state snapshots are unaffected because snapshots capture registers
//! and time, which every pass preserves exactly.
//!
//! # Knobs
//!
//! * `SYNERGY_OPT=0` (or `off`/`O0`) disables the pipeline — the [`OptLevel`]
//!   escape hatch.
//! * `SYNERGY_OPT_PASSES=cse,dse` runs only the named passes (unknown names
//!   are ignored; `relevel` is implicitly appended since the table rebuild
//!   is what re-canonicalizes the netlist).
//!
//! # Example
//!
//! ```
//! use synergy_opt::{optimize, OptLevel};
//!
//! let design = synergy_vlog::compile(
//!     r#"module M(input wire clock, output wire [7:0] out);
//!            reg [7:0] count = 0;
//!            wire [7:0] doubled = count * 2;
//!            always @(posedge clock) count <= count + 1;
//!            assign out = doubled + 0;
//!        endmodule"#,
//!     "M",
//! )?;
//! let mut prog = synergy_codegen::compile(&design)?;
//! let before = prog.op_count();
//! let report = optimize(&mut prog);
//! assert!(prog.op_count() <= before);
//! assert!(report.passes.iter().all(|p| !p.reverted));
//! assert_eq!(OptLevel::default(), OptLevel::O1);
//! # Ok::<(), synergy_vlog::VlogError>(())
//! ```

#![deny(missing_docs)]

mod analysis;
mod constprop;
mod cse;
mod dce;
mod dse;
mod finish;
mod fuse;
mod ifconvert;
mod nbdirect;
mod relevel;
mod strength;

use synergy_codegen::CompiledProgram;

/// Canonical pass order. [`optimize_with_passes`] runs the intersection of
/// its argument with this list, in this order.
pub const PASS_NAMES: [&str; 10] = [
    "finish",
    "constprop",
    "ifconvert",
    "nbdirect",
    "fuse",
    "cse",
    "strength",
    "dse",
    "dce",
    "relevel",
];

/// Whether the optimization pipeline runs at all.
///
/// Not part of any checkpoint wire format: programs are optimized when an
/// engine is constructed, and snapshots/migration carry architectural
/// state (registers and time) only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Run the program exactly as lowered.
    O0,
    /// Run the full pass pipeline (the default).
    #[default]
    O1,
}

impl OptLevel {
    /// The default level, honouring the `SYNERGY_OPT` escape hatch: `0`,
    /// `off`, or `o0` (case-insensitive) force [`OptLevel::O0`]; anything
    /// else — or the variable being unset — selects [`OptLevel::O1`].
    ///
    /// ```
    /// std::env::set_var("SYNERGY_OPT", "off");
    /// assert_eq!(synergy_opt::OptLevel::from_env(), synergy_opt::OptLevel::O0);
    /// std::env::remove_var("SYNERGY_OPT");
    /// assert_eq!(synergy_opt::OptLevel::from_env(), synergy_opt::OptLevel::O1);
    /// ```
    pub fn from_env() -> OptLevel {
        match std::env::var("SYNERGY_OPT") {
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("o0") => {
                OptLevel::O0
            }
            _ => OptLevel::O1,
        }
    }
}

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

/// The pass subset selected by `SYNERGY_OPT_PASSES` (comma-separated pass
/// names), or `None` when the variable is unset or empty. Unknown names
/// are ignored.
pub fn passes_from_env() -> Option<Vec<String>> {
    let v = std::env::var("SYNERGY_OPT_PASSES").ok()?;
    let names: Vec<String> = v
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| PASS_NAMES.contains(&s.as_str()))
        .collect();
    if v.trim().is_empty() {
        None
    } else {
        Some(names)
    }
}

/// Optimizes `prog` in place with the full pipeline, honouring the
/// `SYNERGY_OPT_PASSES` subset selection when set.
///
/// The program's observable behaviour — snapshots at tick boundaries,
/// output, effects, finish codes — is preserved exactly; see the
/// [crate docs](crate) for the validation story.
pub fn optimize(prog: &mut CompiledProgram) -> OptReport {
    match passes_from_env() {
        Some(names) => {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            optimize_with_passes(prog, &refs)
        }
        None => optimize_with_passes(prog, &PASS_NAMES),
    }
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
            "constprop" => Ok(constprop::run(prog)),
            "ifconvert" => Ok(ifconvert::run(prog)),
            "nbdirect" => Ok(nbdirect::run(prog)),
            "fuse" => Ok(fuse::run(prog)),
            "cse" => Ok(cse::run(prog)),
            "strength" => Ok(strength::run(prog)),
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
