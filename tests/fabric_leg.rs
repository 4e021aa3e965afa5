//! The fabric leg of the differentials (`differential.rs` for the Table-1
//! designs, `fuzz_differential.rs` for generated ones): the production
//! hardware engine — the compiled image of the transformed design — against
//! the same engine over the reference interpreter. The image is lowered,
//! optimised and register-allocated code, trusted only because it is checked
//! against what it was lowered from: every register and port of the
//! transformed module including the `__` helpers (a wire nothing observes may
//! be optimised away, as on the compiled software rung), the `TickReport` of
//! every tick, effects, exit codes and output text, for a tenant deployed
//! after a few software ticks (warm) and for one deployed before its first
//! (cold).

use std::collections::BTreeMap;
use synergy::interp::{BufferEnv, Value};
use synergy::runtime::{Engine, HardwareEngine, SoftwareEngine};
use synergy::{transform_design, TransformOptions, Transformed};

/// A design to run the leg on.
pub struct Design<'a> {
    /// For failure messages.
    pub label: String,
    pub source: &'a str,
    pub top: &'a str,
    pub clock: &'a str,
    /// The input file the program opens, if it streams.
    pub input: Option<(&'a str, Vec<u64>)>,
}

impl Design<'_> {
    pub fn env(&self) -> BufferEnv {
        let mut env = BufferEnv::new();
        if let Some((path, data)) = &self.input {
            env.add_file(*path, data.clone());
        }
        env
    }
}

fn copy_of(env: &BufferEnv) -> BufferEnv {
    BufferEnv::from_image(env.image())
}

/// Every register and port of the transformed module, `__` helpers included.
fn every_variable(engine: &dyn Engine, t: &Transformed) -> BTreeMap<String, Value> {
    t.elab
        .vars
        .iter()
        .filter(|(_, var)| var.is_register() || var.port.is_some())
        .map(|(name, _)| (name.clone(), engine.get(name).unwrap()))
        .collect()
}

/// Moves `from`'s state into `to` the way `Runtime`'s engine swap does.
pub fn hop(from: &dyn Engine, to: &mut dyn Engine) {
    to.restore_state(&from.save_state());
    if from.initials_run() {
        to.mark_initials_run();
    }
}

/// Runs `software_ticks` on the interpreter, deploys onto both fabrics, and
/// holds them together for `fabric_ticks`. Returns `false` for a design the
/// transformation refuses (there is no fabric to compare then).
pub fn fabric_matches_its_oracle(d: &Design, software_ticks: usize, fabric_ticks: usize) -> bool {
    let design = synergy::vlog::compile(d.source, d.top).unwrap();
    let Ok(t) = transform_design(&design, TransformOptions::default()) else {
        return false;
    };
    let t = std::sync::Arc::new(t);
    let ctx = |what: &str, tick: usize| {
        format!(
            "{}: {} at fabric tick {} after {} software ticks\n{}",
            d.label, what, tick, software_ticks, d.source
        )
    };
    let mut env = d.env();
    let mut software = SoftwareEngine::new(design, d.clock);
    for _ in 0..software_ticks {
        if software.tick(&mut env).is_err() {
            // The four software engines' own differential covers this.
            return true;
        }
    }
    let mut fabric = HardwareEngine::new(t.clone(), "f1", d.clock)
        .unwrap_or_else(|e| panic!("{}", ctx(&format!("no fabric image: {}", e), 0)));
    let mut oracle = HardwareEngine::oracle(t.clone(), "f1", d.clock).unwrap();
    hop(&software, &mut fabric);
    hop(&software, &mut oracle);
    let (mut fenv, mut oenv) = (copy_of(&env), copy_of(&env));
    for tick in 0..fabric_ticks {
        let reports = (fabric.tick(&mut fenv), oracle.tick(&mut oenv));
        assert_eq!(reports.0, reports.1, "{}", ctx("tick reports", tick));
        assert_eq!(
            every_variable(&fabric, &t),
            every_variable(&oracle, &t),
            "{}",
            ctx("variables", tick)
        );
        assert_eq!(
            fabric.take_effects(),
            oracle.take_effects(),
            "{}",
            ctx("effects", tick)
        );
        assert_eq!(
            fabric.finished(),
            oracle.finished(),
            "{}",
            ctx("exit", tick)
        );
        if reports.0.is_err() || fabric.finished().is_some() {
            break;
        }
    }
    assert_eq!(
        fenv.output_text(),
        oenv.output_text(),
        "{}",
        ctx("output", fabric_ticks)
    );
    true
}
