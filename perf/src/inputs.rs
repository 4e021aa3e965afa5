//! Set-up: the programs and input streams a run admits, generated here; the
//! library only ever sees these generated inputs. `--seed` decides the order
//! in which the stages use them (admission order, tenant order, who departs,
//! which node dies), not which programs there are: the compile cost of a fuzz
//! design is heavy-tailed (0.3–21 ms), and drawing the 58 per seed moved
//! `admits_per_s` by ±15 % between seeds — more than any regression bound.
//!
//! Set-up also does the reference cross-check that gives the compiled engine
//! its standing for the rest of the run: 1,000 ticks of every Table-1 design
//! on the compiled engine against the interpreter, state for state.

use synergy::interp::{BufferEnv, Interpreter};
use synergy::runtime::StateSnapshot;
use synergy::workloads::{self, fuzz_input_data, generate_fuzz_design};
use synergy::{transform_design, EnginePolicy, Runtime, TransformOptions, VlogError};

/// Words in every Table-1 input stream. `nw` reads two words a tick and the
/// longest epoch runs 16,384 ticks, so no stream drains.
pub const STREAM_WORDS: usize = 1 << 16;
/// Words in a fuzz design's stream (admissions tick them once).
const FUZZ_STREAM_WORDS: usize = 64;
/// The fuzz designs the benchmark uses are the generator's seeds
/// `FUZZ_BASE..FUZZ_BASE + FUZZ_WINDOW`; the admission set takes the first 58.
pub const FUZZ_BASE: u64 = 1000;
/// See [`FUZZ_BASE`].
pub const FUZZ_WINDOW: u64 = 250;
/// Sources the admission stage cycles through: six Table-1 + 58 fuzz.
pub const ADMIT_SET: usize = 64;
/// Ticks of the compiled-vs-interpreter cross-check.
const CROSS_CHECK_TICKS: u64 = 1_000;

/// The tiny tenant: cheap enough for hundred-tenant fleets, stateful enough
/// that a lost tick shows.
pub const COUNTER_SOURCE: &str = "
    module Worker(input wire clock, output wire [31:0] out);
        reg [31:0] acc = 0;
        always @(posedge clock) acc <= acc + 3;
        assign out = acc;
    endmodule
";

/// One program the benchmark can admit.
#[derive(Debug, Clone)]
pub struct Source {
    /// Design name (`nw`, `fuzz_1234`, `counter`).
    pub name: String,
    /// Verilog text.
    pub text: String,
    /// Top module.
    pub top: String,
    /// Clock input.
    pub clock: String,
    /// The file the design `$fopen`s, with its contents.
    pub input: Option<(String, Vec<u64>)>,
    /// Whether the transform accepts the design. A design it rejects as
    /// `Unsupported` stays in software; `deploy` refusing it is expected.
    pub fabric_ok: bool,
    /// The interpreter's state after one tick — what an admission must show.
    pub first_tick: StateSnapshot,
}

impl Source {
    /// A fresh system-task environment with the input file in place.
    pub fn env(&self) -> BufferEnv {
        let mut env = BufferEnv::new();
        if let Some((path, data)) = &self.input {
            env.add_file(path.clone(), data.clone());
        }
        env
    }

    /// A fresh runtime for this source under `EnginePolicy::Auto`, input
    /// file attached.
    pub fn runtime(&self, name: String) -> Result<Runtime, VlogError> {
        let mut rt =
            Runtime::with_policy(name, &self.text, &self.top, &self.clock, EnginePolicy::Auto)?;
        if let Some((path, data)) = &self.input {
            rt.add_file(path.clone(), data.clone());
        }
        Ok(rt)
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The six Table-1 designs in table order, streams attached.
    pub table1: Vec<Source>,
    /// The tiny counter tenant.
    pub counter: Source,
    /// The admission working set: Table-1 first, then 58 fuzz designs.
    pub admit_set: Vec<Source>,
}

fn source(
    name: String,
    text: &str,
    top: &str,
    clock: &str,
    input: Option<(String, Vec<u64>)>,
) -> Result<Source, String> {
    let design = synergy::vlog::compile(text, top)
        .map_err(|e| format!("{}: does not compile: {}", name, e))?;
    let fabric_ok = match transform_design(&design, TransformOptions::default()) {
        Ok(_) => true,
        Err(VlogError::Unsupported(_)) => false,
        Err(e) => return Err(format!("{}: transform failed: {}", name, e)),
    };
    let mut src = Source {
        name,
        text: text.to_string(),
        top: top.to_string(),
        clock: clock.to_string(),
        input,
        fabric_ok,
        first_tick: StateSnapshot::default(),
    };
    let mut interp = Interpreter::new(design);
    interp
        .tick(clock, &mut src.env())
        .map_err(|e| format!("{}: reference tick failed: {}", src.name, e))?;
    src.first_tick = interp.save_state();
    Ok(src)
}

/// The fuzz design of generator seed `fuzz_seed`, as a source.
pub fn fuzz_source(fuzz_seed: u64) -> Result<Source, String> {
    let d = generate_fuzz_design(fuzz_seed);
    let input = d
        .input_path
        .map(|p| (p, fuzz_input_data(fuzz_seed, FUZZ_STREAM_WORDS)));
    source(
        format!("fuzz_{}", fuzz_seed),
        &d.source,
        &d.top,
        &d.clock,
        input,
    )
}

/// Runs `CROSS_CHECK_TICKS` of `src` on the interpreter and on the engine
/// `EnginePolicy::Auto` picks, and compares the two states.
fn cross_check(src: &Source) -> Result<(), String> {
    let design = synergy::vlog::compile(&src.text, &src.top).map_err(|e| e.to_string())?;
    let mut interp = Interpreter::new(design);
    let mut env = src.env();
    for _ in 0..CROSS_CHECK_TICKS {
        interp
            .tick(&src.clock, &mut env)
            .map_err(|e| e.to_string())?;
    }
    let mut rt = src
        .runtime(format!("xcheck_{}", src.name))
        .map_err(|e| e.to_string())?;
    rt.run_ticks(CROSS_CHECK_TICKS).map_err(|e| e.to_string())?;
    if rt.mode() != synergy::ExecMode::Compiled {
        return Err(format!(
            "{}: Auto did not pick the compiled engine",
            src.name
        ));
    }
    if rt.peek_state() != interp.save_state() {
        return Err(format!(
            "{}: compiled engine and interpreter disagree after {} ticks",
            src.name, CROSS_CHECK_TICKS
        ));
    }
    Ok(())
}

impl Inputs {
    /// Builds the inputs and cross-checks the engines.
    ///
    /// # Errors
    ///
    /// A message naming the design whose reference run failed or whose
    /// engines disagree; the run must not go on to print metrics.
    pub fn build() -> Result<Inputs, String> {
        let mut table1 = Vec::new();
        for b in workloads::all() {
            let input = b
                .input_path
                .as_ref()
                .map(|p| (p.clone(), workloads::input_data(&b.name, STREAM_WORDS)));
            let src = source(b.name.clone(), &b.source, &b.top, &b.clock, input)?;
            if !src.fabric_ok {
                return Err(format!("{}: Table-1 design must transform", b.name));
            }
            cross_check(&src)?;
            table1.push(src);
        }
        let counter = source("counter".into(), COUNTER_SOURCE, "Worker", "clock", None)?;

        let mut admit_set = table1.clone();
        for fuzz_seed in (FUZZ_BASE..).take(ADMIT_SET - table1.len()) {
            admit_set.push(fuzz_source(fuzz_seed)?);
        }
        Ok(Inputs {
            table1,
            counter,
            admit_set,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_the_same_every_time() {
        let names = || {
            Inputs::build()
                .unwrap()
                .admit_set
                .iter()
                .map(|s| (s.name.clone(), s.fabric_ok))
                .collect::<Vec<_>>()
        };
        let a = names();
        assert_eq!(a, names());
        assert_eq!(a.len(), ADMIT_SET);
        assert_eq!(a[4].0, "nw", "Table-1 designs lead the set");
        assert_eq!(a[6].0, format!("fuzz_{}", FUZZ_BASE));
        assert!(
            a.iter().any(|(_, ok)| !ok),
            "some fuzz designs stay in software"
        );
    }
}
