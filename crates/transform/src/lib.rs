//! # synergy-transform
//!
//! The SYNERGY compiler transformations (§3 of the paper): the passes that turn an
//! arbitrary Verilog program into one that can yield control to software at
//! sub-clock-tick granularity without violating the semantics of the original
//! program.
//!
//! The pipeline is:
//!
//! 1. **Scheduling transformations** ([`schedule`], Figure 3) — `fork/join`
//!    elimination, block flattening, and merging every `always` block into a single
//!    *core* guarded by the union of their events.
//! 2. **Control + state-machine transformations** ([`statemachine`], Figures 4
//!    and 5) — edge detection from `set`-delivered values, and lowering of the core
//!    onto a state machine whose states end at unsynthesizable tasks, with `__task`
//!    / `__state` / `__done` ABI signalling and deferred non-blocking assignment.
//! 3. **State analysis** ([`statevars`], §5.3) — identification of program state
//!    for `$save`/`$restart` and the quiescence/volatile analysis behind the
//!    paper's §6.3 results.
//!
//! The crate also hosts the loop/expression normalization analyses
//! ([`normalize`]) shared with the compiled-engine lowering in
//! `synergy-codegen`: interpreter-exact constant folding and bounded-loop
//! unroll planning.
//!
//! The top-level entry point is [`transform`], which produces a [`Transformed`]
//! bundle: the generated module (AST, digest, and the elaboration made from that
//! AST, not from text), the state machine, the task table, and the state report.
//!
//! # Example
//!
//! ```
//! use synergy_transform::{transform, TransformOptions};
//! use synergy_vlog::compile;
//!
//! let design = compile(
//!     r#"module M(input wire clock);
//!            reg [31:0] n = 0;
//!            always @(posedge clock) begin
//!                $display(n);
//!                n <= n + 1;
//!            end
//!        endmodule"#,
//!     "M",
//! )?;
//! let t = transform(&design, TransformOptions::default())?;
//! assert_eq!(t.machine.tasks.len(), 1);
//! assert!(t.elab.vars.contains_key("__state"));
//! # Ok::<(), synergy_vlog::VlogError>(())
//! ```

#![deny(missing_docs)]

pub mod normalize;
pub mod schedule;
pub mod statemachine;
pub mod statevars;

use serde::{Deserialize, Serialize};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;
use synergy_vlog::ast::{Module, SourceFile};
use synergy_vlog::elaborate::{elaborate, ElabModule};
use synergy_vlog::VlogResult;

pub use normalize::{fold_expr, plan_unroll, stmt_writes, UnrollPlan};
pub use schedule::{merge_always, Core, CoreSection};
pub use statemachine::{
    emit_module, lower, lower_core, StateMachine, Terminator, TransformOptions, ABI_CONT, ABI_NONE,
    TASK_NONE,
};
pub use statevars::{analyze, StateReport, StateVar};

/// The result of running the full SYNERGY transformation pipeline on a design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transformed {
    /// Name of the original (untransformed) module.
    pub original_name: String,
    /// The generated module AST in the Figure-5 style.
    pub module: Module,
    /// Structural hash of `module`, taken once: the bitstream cache's key (§5.1).
    pub digest: u64,
    /// The generated module elaborated and ready for execution or synthesis
    /// (shared, never copied, with every engine that executes it).
    pub elab: Arc<ElabModule>,
    /// The lowered state machine and task table.
    pub machine: StateMachine,
    /// Program-state identification and volatile analysis.
    pub state: StateReport,
}

impl Transformed {
    /// Name of the generated module.
    pub fn name(&self) -> &str {
        &self.module.name
    }

    /// Number of native-clock state-machine states.
    pub fn num_states(&self) -> usize {
        self.machine.num_states()
    }
}

/// Runs the complete transformation pipeline on an elaborated design.
///
/// # Errors
///
/// Returns an error if the design contains constructs the state-machine lowering
/// cannot handle (see [`statemachine::lower`]) or if the generated module fails to
/// elaborate (which would indicate a bug in the emitter).
pub fn transform(module: &ElabModule, options: TransformOptions) -> VlogResult<Transformed> {
    let mut always = module.always.clone();
    if options.strip_tasks {
        for block in always.iter_mut() {
            block.body = statemachine::strip_system_tasks(&block.body);
        }
    }
    let core = merge_always(&always);
    let machine = lower_core(module, &core)?;
    let name = format!("{}__synergy", module.name);
    let generated = emit_module(module, &core, &machine, &name);
    let digest = BuildHasherDefault::<DefaultHasher>::default().hash_one(&generated);
    let mut file = SourceFile::default();
    file.modules.push(generated);
    let elab = Arc::new(elaborate(&file, &name)?);
    let state = analyze(module);
    Ok(Transformed {
        original_name: module.name.clone(),
        module: file.modules.swap_remove(0),
        digest,
        elab,
        machine,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_vlog::compile;
    use synergy_vlog::printer::print_module;

    const FILE_SUM: &str = r#"
        module M(input wire clock);
            integer fd = $fopen("data.bin");
            reg [31:0] r = 0;
            reg [127:0] sum = 0;
            always @(posedge clock) begin
                $fread(fd, r);
                if ($feof(fd)) begin
                    $display(sum);
                    $finish(0);
                end else
                    sum <= sum + r;
            end
        endmodule
    "#;

    #[test]
    fn transform_produces_elaborated_output() {
        let design = compile(FILE_SUM, "M").unwrap();
        let t = transform(&design, TransformOptions::default()).unwrap();
        assert_eq!(t.original_name, "M");
        assert_eq!(t.name(), "M__synergy");
        assert!(t.num_states() >= 5);
        assert_eq!(t.machine.tasks.len(), 3);
        // The generated source must contain the ABI plumbing of Figure 5.
        let text = print_module(&t.module);
        for needle in ["__state", "__task", "__done", "__abi", "__clk"] {
            assert!(text.contains(needle), "missing {} in:\n{}", needle, text);
        }
        // The elaborated output exposes the original program state untouched.
        assert!(t.elab.vars.contains_key("sum"));
        assert!(t.elab.vars.contains_key("r"));
    }

    #[test]
    fn strip_tasks_matches_cascade_baseline() {
        let design = compile(FILE_SUM, "M").unwrap();
        let cascade = transform(&design, TransformOptions { strip_tasks: true }).unwrap();
        let synergy = transform(&design, TransformOptions::default()).unwrap();
        assert!(cascade.machine.tasks.is_empty());
        assert!(cascade.num_states() < synergy.num_states());
    }

    #[test]
    fn state_report_travels_with_transform() {
        let design = compile(FILE_SUM, "M").unwrap();
        let t = transform(&design, TransformOptions::default()).unwrap();
        assert!(!t.state.uses_yield);
        // fd, r, sum are program state.
        assert_eq!(t.state.vars.len(), 3);
        assert_eq!(t.state.total_bits(), 32 + 32 + 128);
    }

    #[test]
    fn multiple_clock_domains_are_supported() {
        // §3.2: "these transformations are sound even for programs with multiple
        // clock domains."
        let design = compile(
            r#"module M(input wire clk_a, input wire clk_b);
                   reg [7:0] a = 0;
                   reg [7:0] b = 0;
                   always @(posedge clk_a) a <= a + 1;
                   always @(posedge clk_b) b <= b + 2;
               endmodule"#,
            "M",
        )
        .unwrap();
        let t = transform(&design, TransformOptions::default()).unwrap();
        let text = print_module(&t.module);
        assert!(text.contains("__trig_pos_clk_a"));
        assert!(text.contains("__trig_pos_clk_b"));
        assert!(t.elab.vars.contains_key("__prev_clk_a"));
        assert!(t.elab.vars.contains_key("__prev_clk_b"));
    }

    #[test]
    fn generated_module_round_trips_through_parser() {
        let design = compile(FILE_SUM, "M").unwrap();
        let t = transform(&design, TransformOptions::default()).unwrap();
        let text = print_module(&t.module);
        let reparsed = synergy_vlog::parse(&text).unwrap();
        assert_eq!(reparsed.modules, std::slice::from_ref(&t.module));
        // The printed text elaborates to exactly what the transform elaborated.
        assert_eq!(compile(&text, "M__synergy").unwrap(), *t.elab);
    }
}
