//! Finish-check elision: `always` bodies that contain no `$finish` can
//! never observe the finished flag mid-body (the engines stop launching
//! bodies once a design finishes, so in-body checks only fire after an
//! in-body `Finish`). For such bodies every `CheckFinished` is a no-op and
//! every `JumpIfNotFinished` is an unconditional jump. The regalloc
//! translation already performs this elision; rewriting the stored
//! bytecode extends it to the stack oracle and, more importantly, removes
//! the spurious control-flow edges that block if-conversion.

use crate::analysis::{apply_edits, Edit};
use synergy_codegen::ir::{CompiledProgram, Op};

/// Runs the pass; returns the number of ops elided or rewritten.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let mut rewrites = 0u64;
    for a in &mut prog.always {
        if a.body.iter().any(|op| matches!(op, Op::Finish)) {
            continue;
        }
        for op in a.body.iter_mut() {
            if let Op::JumpIfNotFinished(t) = op {
                *op = Op::Jump(*t);
                rewrites += 1;
            }
        }
        let checks: Vec<Edit> = a
            .body
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::CheckFinished(_)))
            .map(|(pc, _)| Edit {
                start: pc,
                end: pc + 1,
                repl: Vec::new(),
            })
            .collect();
        rewrites += apply_edits(&mut a.body, checks);
    }
    rewrites
}
