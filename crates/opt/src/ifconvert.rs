//! If-conversion: rewrites branch diamonds whose arms are pure, total, and
//! cheap into straight-line code ending in [`Op::Select`]. Straight-line
//! blocks dispatch with no branch misprediction, need no block-boundary
//! register reconciliation after regalloc translation, and open the door for
//! local value numbering and dead-store elimination across the former
//! join points.
//!
//! Recognized shapes (`cond` is already on the stack):
//!
//! * expression diamond — both arms push exactly one value;
//! * store diamond — both arms compute one value and end in the same
//!   store (`StoreNet`, `StoreMemConst`, or `NbSchedule` of sites with
//!   identical store programs);
//! * one-arm store — `if (c) n = e;` becomes `n = c ? e : n`, which the
//!   store layer turns into a compare-equal no-op on the untaken side.
//!
//! Both arms execute after conversion, so every arm op must satisfy
//! [`is_speculable`]: pure, total (division by zero and out-of-range
//! reads have defined results), and allocation-bounded (`ReplicateDyn` is
//! excluded). Conversion runs bottom-up to a fixpoint so nested diamonds
//! collapse from the inside out.
//!
//! Conversion is additionally *profitability-gated*: an arm longer than
//! [`MAX_SPEC_OPS`] ops stays a branch, because forcing a large arm onto
//! the formerly-untaken path increases the dynamically executed op count
//! (the interpreter's branch costs one dispatch, not a pipeline flush).

use crate::analysis::{apply_edits, is_speculable, stack_effect, Edit, Targets};
use synergy_codegen::ir::{Code, CompiledProgram, Op};

/// Profitability ceiling: the largest arm (in ops) a conversion may force
/// onto the formerly-untaken path. Branches on an interpreter are cheap
/// (~one dispatch), so executing a big arm unconditionally is a dynamic
/// pessimization even though the static op count shrinks; tiny arms win
/// because the select replaces two branch dispatches and unlocks CSE/DSE
/// across the former join point.
const MAX_SPEC_OPS: usize = 6;

/// Runs the pass; returns the number of diamonds converted.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let nb_sites = prog.nb_sites.clone();
    let mut rewrites = 0u64;
    for node in &mut prog.comb {
        rewrites += convert_code(&mut node.code, &nb_sites);
    }
    let mut always = std::mem::take(&mut prog.always);
    for a in &mut always {
        for (_, g) in &mut a.guards {
            rewrites += convert_code(g, &nb_sites);
        }
        rewrites += convert_code(&mut a.body, &nb_sites);
    }
    prog.always = always;
    let mut initials = std::mem::take(&mut prog.initials);
    for c in &mut initials {
        rewrites += convert_code(c, &nb_sites);
    }
    prog.initials = initials;
    let mut nb = std::mem::take(&mut prog.nb_sites);
    for c in &mut nb {
        rewrites += convert_code(c, &nb_sites);
    }
    prog.nb_sites = nb;
    if rewrites > 0 {
        let _ = crate::relevel::rebuild_tables(prog);
    }
    rewrites
}

/// What a validated arm computes.
enum Arm {
    /// Pure ops pushing exactly one value.
    Expr,
    /// Pure producer followed by a final store op.
    Store(Op),
}

/// Validates `code[s..e)` as a diamond arm: every op speculable except an
/// optional final store, stack never dips below entry, and the net effect
/// matches the arm kind.
fn classify_arm(code: &[Op], s: usize, e: usize) -> Option<Arm> {
    if s >= e {
        return None;
    }
    let mut depth: i64 = 0;
    for (i, op) in code[s..e].iter().enumerate() {
        let last = i == e - s - 1;
        if !is_speculable(op) {
            if !last {
                return None;
            }
            // A store arm: producer must have left exactly one value.
            if !matches!(
                op,
                Op::StoreNet(_) | Op::StoreMemConst { .. } | Op::NbSchedule(_)
            ) || depth != 1
            {
                return None;
            }
            return Some(Arm::Store(op.clone()));
        }
        let (pops, pushes) = stack_effect(op);
        depth -= pops as i64;
        if depth < 0 {
            return None;
        }
        depth += pushes as i64;
    }
    if depth == 1 {
        Some(Arm::Expr)
    } else {
        None
    }
}

/// The matching stores for a two-arm diamond, merged into one: both arms
/// must store to the same place. Two `NbSchedule` sites merge when their
/// store programs are identical (the lowerer allocates one site per
/// syntactic assignment, so `if/else` onto the same target yields two
/// sites with equal code).
fn merge_store(a: &Op, b: &Op, nb_sites: &[Code]) -> Option<Op> {
    match (a, b) {
        (Op::StoreNet(x), Op::StoreNet(y)) if x == y => Some(a.clone()),
        (Op::StoreMemConst { mem: m1, elem: e1 }, Op::StoreMemConst { mem: m2, elem: e2 })
            if m1 == m2 && e1 == e2 =>
        {
            Some(a.clone())
        }
        (Op::NbSchedule(s1), Op::NbSchedule(s2))
            if s1 == s2 || nb_sites[*s1 as usize] == nb_sites[*s2 as usize] =>
        {
            Some(Op::NbSchedule(*s1))
        }
        _ => None,
    }
}

/// The "unchanged" value push for a one-arm store: reading the store
/// target back, so the untaken side stores the current value (which the
/// compare-equal store layer treats as a no-op).
fn reread(store: &Op) -> Option<Op> {
    match store {
        Op::StoreNet(n) => Some(Op::PushNet(*n)),
        Op::StoreMemConst { mem, elem } => Some(Op::MemReadConst {
            mem: *mem,
            elem: *elem,
        }),
        // No way to express "leave the pending store queue alone".
        _ => None,
    }
}

fn convert_code(code: &mut Code, nb_sites: &[Code]) -> u64 {
    let mut rewrites = 0u64;
    loop {
        // One sweep proposes every convertible diamond. Arms are
        // branch-free, so two proposals never overlap; a diamond that only
        // becomes convertible once an inner one collapsed is picked up by
        // the next sweep.
        let targets = std::cell::OnceCell::new();
        let targets = || targets.get_or_init(|| Targets::of(code));
        let mut edits: Vec<Edit> = Vec::new();
        for j in 0..code.len() {
            let (t, jump_on_zero) = match code[j] {
                Op::JumpIfZero(t) => (t as usize, true),
                Op::JumpIfNonZero(t) => (t as usize, false),
                _ => continue,
            };
            if t <= j + 1 || t > code.len() {
                continue;
            }
            // Two-arm: `[j] cbranch t; [j+1..t-1) arm1; [t-1] Jump t_end;
            // [t..t_end) arm2`.
            if let Some(Op::Jump(te)) = code.get(t - 1) {
                let te = *te as usize;
                if te >= t && te <= code.len() {
                    if let (Some(a1), Some(a2)) =
                        (classify_arm(code, j + 1, t - 1), classify_arm(code, t, te))
                    {
                        // Each arm lands on the other's untaken path.
                        if (t - 1) - (j + 1) > MAX_SPEC_OPS || te - t > MAX_SPEC_OPS {
                            continue;
                        }
                        // arm1 runs when the branch does NOT jump.
                        let (nz, z) = if jump_on_zero {
                            ((j + 1, t - 1), (t, te))
                        } else {
                            ((t, te), (j + 1, t - 1))
                        };
                        let store = match (&a1, &a2) {
                            (Arm::Expr, Arm::Expr) => None,
                            (Arm::Store(s1), Arm::Store(s2)) => {
                                match merge_store(s1, s2, nb_sites) {
                                    Some(s) => Some(s),
                                    None => continue,
                                }
                            }
                            _ => continue,
                        };
                        if targets()
                            .entering(j, te)
                            .any(|src| src != j && src != t - 1)
                        {
                            continue;
                        }
                        let strip = |r: (usize, usize)| -> &[Op] {
                            let end = match store {
                                Some(_) => r.1 - 1,
                                None => r.1,
                            };
                            &code[r.0..end]
                        };
                        let mut repl: Vec<Op> = Vec::new();
                        repl.extend_from_slice(strip(nz));
                        repl.extend_from_slice(strip(z));
                        repl.push(Op::Select);
                        if let Some(s) = &store {
                            repl.push(s.clone());
                        }
                        edits.push(Edit {
                            start: j,
                            end: te,
                            repl,
                        });
                        continue;
                    }
                }
            }
            // One-arm: `[j] cbranch t; [j+1..t) arm`.
            if t - (j + 1) > MAX_SPEC_OPS {
                continue;
            }
            if let Some(Arm::Store(s)) = classify_arm(code, j + 1, t) {
                let Some(push_old) = reread(&s) else { continue };
                if targets().entering(j, t).any(|src| src != j) {
                    continue;
                }
                let arm = &code[j + 1..t - 1];
                let mut repl: Vec<Op> = Vec::new();
                if jump_on_zero {
                    // Arm runs when cond != 0: arm value is the "then".
                    repl.extend_from_slice(arm);
                    repl.push(push_old);
                } else {
                    // Arm runs when cond == 0: current value is the "then".
                    repl.push(push_old);
                    repl.extend_from_slice(arm);
                }
                repl.push(Op::Select);
                repl.push(s);
                edits.push(Edit {
                    start: j,
                    end: t,
                    repl,
                });
            }
        }
        let applied = apply_edits(code, edits);
        rewrites += applied;
        if applied == 0 {
            return rewrites;
        }
    }
}
