//! One tenant's program — the part that stays the same while the engine
//! under it changes (§2.1, §3.5) — and the one way to seat it on an engine.
//! Each artefact is built at most once; engines share them through `Arc`s.
//! See "Program ownership" in `docs/ARCHITECTURE.md`.

use crate::engine::{CompiledEngine, Engine, HardwareEngine, SoftwareEngine};
use crate::runtime::ExecMode;
use std::sync::Arc;
use synergy_telemetry::{Namespace, Telemetry};
use synergy_transform::{transform, TransformOptions, Transformed};
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::{VlogError, VlogResult};

/// Everything a [`Runtime`](crate::Runtime) derives from the source text.
pub(crate) struct Program {
    pub(crate) source: String,
    pub(crate) top: String,
    pub(crate) clock: String,
    pub(crate) design: Arc<ElabModule>,
    /// The key of `transformed`: whoever changes it drops that.
    pub(crate) transform_options: TransformOptions,
    /// The compiled rung's artefact, built on the first compiled seat: a
    /// pristine (never ticked) engine whose clones share its optimised
    /// program and word code and copy only the reset registers. Design and
    /// clock never change, so a failure to build it is remembered as well.
    pub(crate) compiled: Option<VlogResult<CompiledEngine>>,
    /// The hardware rung's artefact under the current `transform_options`.
    pub(crate) transformed: Option<Arc<Transformed>>,
}

impl Program {
    /// Parses and elaborates; the rest is built when a rung first asks.
    pub(crate) fn new(source: String, top: String, clock: String) -> VlogResult<Program> {
        let design = Arc::new(synergy_vlog::compile(&source, &top)?);
        Ok(Program {
            source,
            top,
            clock,
            design,
            transform_options: TransformOptions::default(),
            compiled: None,
            transformed: None,
        })
    }

    /// The one engine construction site: every rung, for every caller. The
    /// engine comes up in reset state; the caller moves captured state in.
    ///
    /// # Errors
    ///
    /// What building the rung's artefact reports (`Unsupported` for a design
    /// outside the compilable envelope); the interpreter always seats.
    pub(crate) fn seat(
        &mut self,
        rung: &ExecMode,
        telem: &mut Telemetry,
        ticks: u64,
    ) -> VlogResult<Box<dyn Engine>> {
        Ok(match rung {
            ExecMode::Software => Box::new(SoftwareEngine::new(
                Arc::clone(&self.design),
                self.clock.as_str(),
            )),
            ExecMode::Compiled => Box::new(self.seat_compiled(telem, ticks)?),
            ExecMode::Hardware(device) => Box::new(HardwareEngine::new(
                Arc::clone(self.transformed()?),
                device.as_str(),
                self.clock.as_str(),
            )),
        })
    }

    /// A clone of the pristine engine, which the first call builds. A seat
    /// that does not happen is counted, per attempt, under the bare
    /// `Unsupported` reason or, for an internal failure, the error.
    fn seat_compiled(&mut self, telem: &mut Telemetry, ticks: u64) -> VlogResult<CompiledEngine> {
        let (design, clock) = (&self.design, &self.clock);
        let pristine = self.compiled.get_or_insert_with(|| {
            seat_lowered(synergy_codegen::compile(design)?, clock, telem, ticks)
        });
        if let Err(e) = pristine {
            let reason = match e {
                VlogError::Unsupported(reason) => reason.clone(),
                other => other.to_string(),
            };
            telem.registry.counter_add(
                Namespace::Det,
                "runtime_engine_fallbacks_total",
                &[("reason", reason.as_str())],
                1,
            );
            telem.recorder.record(ticks, "engine_fallback", reason);
        }
        pristine.clone()
    }

    /// The transformed design under the current options, built on first
    /// use; a failed transformation caches nothing.
    pub(crate) fn transformed(&mut self) -> VlogResult<&Arc<Transformed>> {
        Ok(match &mut self.transformed {
            Some(t) => t,
            none => none.insert(Arc::new(transform(&self.design, self.transform_options)?)),
        })
    }
}

/// Optimises a lowered program and instantiates it. Optimiser telemetry
/// describes work done, so it is recorded here, once per [`Program`], not
/// per seat: rewrite and revert counters per pass plus the total op
/// shrinkage, in the deterministic namespace, for `fleetstat` to aggregate.
///
/// # Errors
///
/// A malformed program or a missing clock input is a typed error for this
/// one tenant; there is no second executor to fall back to.
pub(crate) fn seat_lowered(
    mut prog: synergy_codegen::CompiledProgram,
    clock: &str,
    telem: &mut Telemetry,
    ticks: u64,
) -> VlogResult<CompiledEngine> {
    let before = prog.op_count() as u64;
    let report = synergy_opt::optimize(&mut prog);
    let after = prog.op_count() as u64;
    for p in &report.passes {
        telem.registry.counter_add(
            Namespace::Det,
            "opt_pass_rewrites_total",
            &[("pass", p.name)],
            p.rewrites,
        );
        if p.reverted {
            telem.registry.counter_add(
                Namespace::Det,
                "opt_pass_reverts_total",
                &[("pass", p.name)],
                1,
            );
        }
    }
    telem.registry.counter_add(
        Namespace::Det,
        "opt_ops_removed_total",
        &[],
        before.saturating_sub(after),
    );
    telem.recorder.record(
        ticks,
        "optimize",
        format!(
            "{} -> {} ops, {} rewrites",
            before,
            after,
            report.total_rewrites()
        ),
    );
    CompiledEngine::from_program(prog, clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Runtime};
    use synergy_interp::BufferEnv;
    use synergy_vlog::VlogError;

    const COUNTER: &str = r#"
        module Counter(input wire clock, output wire [31:0] out);
            reg [31:0] count = 0;
            always @(posedge clock) count <= count + 1;
            assign out = count;
        endmodule
    "#;

    #[test]
    fn two_seats_share_one_program_and_diverge_in_state() {
        let mut program =
            Program::new(COUNTER.to_string(), "Counter".into(), "clock".into()).unwrap();
        let mut telem = Telemetry::default();
        let mut a = program.seat_compiled(&mut telem, 0).unwrap();
        let mut b = program.seat_compiled(&mut telem, 0).unwrap();
        // A seat is a clone of the pristine engine, so the word code is
        // shared too (`synergy-codegen` tests what a clone shares).
        assert!(std::ptr::eq(a.sim().program(), b.sim().program()));

        let mut env = BufferEnv::new();
        for _ in 0..3 {
            a.tick(&mut env).unwrap();
        }
        for _ in 0..7 {
            b.tick(&mut env).unwrap();
        }
        assert_eq!(a.get("count").unwrap().as_scalar().to_u64(), 3);
        assert_eq!(b.get("count").unwrap().as_scalar().to_u64(), 7);
        let c = program.seat_compiled(&mut telem, 0).unwrap();
        assert_eq!(c.get("count").unwrap().as_scalar().to_u64(), 0);
    }

    #[test]
    fn an_uncompilable_design_is_lowered_once_and_its_reason_remembered() {
        synergy_telemetry::set_enabled(true);
        // Multiply-driven nets are outside the compilable envelope.
        let src = r#"module M(input wire clock, output wire [7:0] o);
                         wire [7:0] a = 1;
                         assign o = a;
                         assign o = a + 1;
                     endmodule"#;
        let mut rt = Runtime::new("m", src, "M", "clock").unwrap();
        let first = rt.migrate_to_compiled().unwrap_err();
        let VlogError::Unsupported(reason) = &first else {
            panic!("expected Unsupported, got {:?}", first);
        };
        // Put a compilable design under the program: an attempt that
        // lowered again would now succeed.
        rt.program.design = Arc::new(synergy_vlog::compile(COUNTER, "Counter").unwrap());
        assert_eq!(rt.migrate_to_compiled().unwrap_err(), first);
        assert_eq!(rt.seat_software(crate::EnginePolicy::Auto), Ok(0));
        assert_eq!(rt.mode(), ExecMode::Software);
        // The fallback telemetry still fires per attempt.
        assert_eq!(
            rt.metrics().counter_value(
                Namespace::Det,
                "runtime_engine_fallbacks_total",
                &[("reason", reason.as_str())]
            ),
            3
        );
        assert_eq!(rt.flight_dump().matches("engine_fallback").count(), 3);
    }
}
