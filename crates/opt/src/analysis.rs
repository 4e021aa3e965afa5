//! Shared bytecode analyses for the optimization passes: stack-effect
//! tables, speculation legality, branch-target bookkeeping, basic-block
//! discovery, producer-range tracking, and the batch editor that keeps
//! branch targets consistent across structural rewrites.

use synergy_codegen::ir::{Code, CompiledProgram, Op};

/// `(pops, pushes)` for one bytecode instruction. Every [`Op`] has a fixed
/// stack effect.
pub(crate) fn stack_effect(op: &Op) -> (u32, u32) {
    match op {
        Op::PushConst(_)
        | Op::PushNet(_)
        | Op::PushMemElem0(_)
        | Op::PushTime
        | Op::PushValueReg
        | Op::MemReadConst { .. }
        | Op::PushTemp(_)
        | Op::Fopen(_)
        | Op::Random => (0, 1),
        Op::MemRead(_) | Op::SliceConst { .. } | Op::Unary(_) | Op::Resize(_) | Op::Feof => (1, 1),
        Op::BitSelect | Op::Binary(_) | Op::Concat2 | Op::ReplicateDyn => (2, 1),
        Op::SliceDyn => (3, 1),
        Op::Select => (3, 1),
        Op::Jump(_)
        | Op::JumpIfNotFinished(_)
        | Op::CheckFinished(_)
        | Op::LoopInit(_)
        | Op::LoopCheck(_)
        | Op::RepeatTest { .. }
        | Op::PrintStr(_)
        | Op::PrintFlush { .. }
        | Op::Effect(_) => (0, 0),
        Op::JumpIfZero(_)
        | Op::JumpIfNonZero(_)
        | Op::StoreTemp(_)
        | Op::Pop
        | Op::StoreNet(_)
        | Op::StoreMemConst { .. }
        | Op::NbSchedule(_)
        | Op::RepeatInit(_)
        | Op::Fread { .. }
        | Op::Fclose
        | Op::PrintVal
        | Op::Finish => (1, 0),
        Op::StoreMem(_) | Op::StoreBit(_) => (2, 0),
        Op::StoreSliceDyn(_) => (3, 0),
    }
}

/// `true` when `op` is pure, total, and cheap enough to evaluate
/// speculatively (both arms of an if-conversion run unconditionally, and a
/// deleted producer range must have had no side effects).
///
/// Notable exclusions: `ReplicateDyn` allocates an unbounded result from a
/// runtime count; `Random` advances RNG state; `StoreTemp` writes the shared
/// temp file; `Feof`/file ops touch the host environment.
pub(crate) fn is_speculable(op: &Op) -> bool {
    matches!(
        op,
        Op::PushConst(_)
            | Op::PushNet(_)
            | Op::PushMemElem0(_)
            | Op::PushTime
            | Op::PushValueReg
            | Op::PushTemp(_)
            | Op::MemRead(_)
            | Op::MemReadConst { .. }
            | Op::BitSelect
            | Op::SliceConst { .. }
            | Op::SliceDyn
            | Op::Unary(_)
            | Op::Binary(_)
            | Op::Concat2
            | Op::Resize(_)
            | Op::Select
    )
}

/// The branch target of `op`, if it has one.
pub(crate) fn branch_target(op: &Op) -> Option<u32> {
    match op {
        Op::Jump(t)
        | Op::JumpIfZero(t)
        | Op::JumpIfNonZero(t)
        | Op::JumpIfNotFinished(t)
        | Op::CheckFinished(t)
        | Op::RepeatTest { end: t, .. }
        | Op::Fread { skip: t, .. } => Some(*t),
        _ => None,
    }
}

fn target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jump(t)
        | Op::JumpIfZero(t)
        | Op::JumpIfNonZero(t)
        | Op::JumpIfNotFinished(t)
        | Op::CheckFinished(t)
        | Op::RepeatTest { end: t, .. }
        | Op::Fread { skip: t, .. } => Some(t),
        _ => None,
    }
}

/// Every branch of a program as `(target, pc of the branch)`, sorted: the
/// once-built index behind interior-target checks, so a sweep that proposes
/// many rewrites pays one scan of the code, not one per rewrite.
pub(crate) struct Targets(Vec<(usize, usize)>);

impl Targets {
    pub(crate) fn of(code: &[Op]) -> Targets {
        let mut all: Vec<(usize, usize)> = code
            .iter()
            .enumerate()
            .filter_map(|(pc, op)| branch_target(op).map(|t| (t as usize, pc)))
            .collect();
        all.sort_unstable();
        Targets(all)
    }

    /// The pcs of the branches that land strictly inside `(start, end)`.
    /// Rewrites that collapse a region must refuse when one of them survives
    /// the rewrite — an external entry into the interior would land
    /// mid-replacement.
    pub(crate) fn entering(&self, start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let lo = self.0.partition_point(|&(t, _)| t <= start);
        self.0[lo..]
            .iter()
            .take_while(move |&&(t, _)| t < end)
            .map(|&(_, src)| src)
    }
}

/// One structural rewrite: `code[start..end)` becomes `repl` (an insertion
/// when `start == end`). The replacement must be a stack-and-effect drop-in
/// for the region, and any branch inside it names its target in the
/// coordinates of the code the edit was computed on.
#[derive(Debug, Clone)]
pub(crate) struct Edit {
    pub start: usize,
    pub end: usize,
    pub repl: Vec<Op>,
}

/// Applies a set of edits in one rebuild of `code` and returns how many
/// were applied — the only place branch targets are remapped.
///
/// The edits are ordered by `(start, end)` (ties keep the caller's order),
/// and the result is what rewriting them one at a time from the last to the
/// first would give: a target at or before an edit's `start` is preserved,
/// one at or after its `end` shifts by the length delta (so a branch landing
/// exactly on an insertion point lands *after* the inserted ops), and an
/// edit is refused — skipped, everything else still applied — when it
/// overlaps an applied later edit or when a branch that survives lands
/// strictly inside its region. Cost: one sort of the edits, one scan and one
/// rebuild of the code, a binary search per edit and per branch.
pub(crate) fn apply_edits(code: &mut Code, mut edits: Vec<Edit>) -> u64 {
    if edits.is_empty() {
        return 0;
    }
    edits.sort_by_key(|e| (e.start, e.end));
    let targets = Targets::of(code);
    // Decide from the last edit down, as the one-at-a-time order would: by
    // the time an edit is considered, the branches inside applied later
    // regions are gone, and the branches those replacements brought are not.
    let mut keep = vec![false; edits.len()];
    let mut kept_later: Vec<usize> = Vec::new(); // indices into `edits`, descending
    let mut repl_targets: Vec<usize> = Vec::new();
    for i in (0..edits.len()).rev() {
        let e = &edits[i];
        let overlaps = kept_later.last().is_some_and(|&j| e.end > edits[j].start);
        let removed = |src: usize| {
            (e.start..e.end).contains(&src) || {
                // `kept_later` is descending by start; find the kept edit
                // whose region could hold `src`.
                let k = kept_later.partition_point(|&j| edits[j].start > src);
                kept_later
                    .get(k)
                    .is_some_and(|&j| (edits[j].start..edits[j].end).contains(&src))
            }
        };
        let entered = targets.entering(e.start, e.end).any(|src| !removed(src))
            || repl_targets.iter().any(|&t| t > e.start && t < e.end);
        if overlaps || e.start > e.end || e.end > code.len() || entered {
            continue;
        }
        keep[i] = true;
        kept_later.push(i);
        repl_targets.extend(
            e.repl
                .iter()
                .filter_map(|op| branch_target(op).map(|t| t as usize)),
        );
    }
    // Rebuild, recording after each kept edit the running length delta.
    let mut out: Code = Vec::with_capacity(code.len());
    let mut ends: Vec<usize> = Vec::with_capacity(kept_later.len());
    let mut deltas: Vec<i64> = Vec::with_capacity(kept_later.len());
    let mut delta = 0i64;
    let mut at = 0usize;
    let mut old = std::mem::take(code).into_iter();
    for (e, _) in edits.into_iter().zip(&keep).filter(|(_, &k)| k) {
        out.extend(old.by_ref().take(e.start - at));
        old.by_ref().take(e.end - e.start).for_each(drop);
        at = e.end;
        delta += e.repl.len() as i64 - (e.end - e.start) as i64;
        out.extend(e.repl);
        ends.push(e.end);
        deltas.push(delta);
    }
    out.extend(old);
    for op in out.iter_mut() {
        if let Some(t) = target_mut(op) {
            let passed = ends.partition_point(|&end| end <= *t as usize);
            if passed > 0 {
                *t = (*t as i64 + deltas[passed - 1]) as u32;
            }
        }
    }
    *code = out;
    ends.len() as u64
}

/// `true` when `op` ends a basic block (it branches, may branch, or may
/// abort the program mid-flight).
pub(crate) fn is_block_end(op: &Op) -> bool {
    branch_target(op).is_some() || matches!(op, Op::Finish | Op::Effect(_) | Op::LoopCheck(_))
}

/// Basic-block boundaries of `code`: every `(start, end)` half-open range
/// of straight-line ops. `Finish`/`Effect`/`LoopCheck` end blocks too (they
/// can abort or re-enter the program, which the block-local passes treat as
/// an observation barrier).
pub(crate) fn blocks(code: &[Op]) -> Vec<(usize, usize)> {
    let mut leaders = std::collections::BTreeSet::new();
    leaders.insert(0);
    for (pc, op) in code.iter().enumerate() {
        if let Some(t) = branch_target(op) {
            leaders.insert(t as usize);
        }
        if is_block_end(op) {
            leaders.insert(pc + 1);
        }
    }
    leaders.insert(code.len());
    let ls: Vec<usize> = leaders.into_iter().collect();
    ls.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Forward stack simulation over a straight-line range, tracking for each
/// live stack slot the pc where its producing instruction range starts.
/// `None` marks a slot whose producer is outside the range (or crosses an
/// impure instruction), which the passes treat as non-deletable.
pub(crate) struct StackSim {
    /// Producer-range start per live slot, bottom to top.
    pub starts: Vec<Option<usize>>,
}

impl StackSim {
    pub(crate) fn new() -> Self {
        StackSim { starts: Vec::new() }
    }

    /// Where the producing range of the `pops` topmost slots starts — the
    /// *deepest* popped slot's producer — or `None` when any of them was
    /// produced outside the range (or `pops` is zero).
    pub(crate) fn operands_start(&self, pops: u32) -> Option<usize> {
        let n = pops as usize;
        let len = self.starts.len();
        if n == 0 || len < n {
            return None;
        }
        self.starts[len - n..]
            .iter()
            .try_fold(usize::MAX, |acc, s| s.map(|v| acc.min(v)))
    }

    /// Advances over `op` at `pc`, merging popped producer ranges into the
    /// pushed slot (if any).
    pub(crate) fn step(&mut self, pc: usize, op: &Op) {
        let (pops, pushes) = stack_effect(op);
        let mut start = Some(pc);
        for _ in 0..pops {
            match self.starts.pop() {
                Some(Some(s)) => start = start.map(|cur| cur.min(s)),
                _ => start = None,
            }
        }
        for _ in 0..pushes {
            self.starts.push(start);
        }
    }
}

/// `true` when every instruction in `code[start..end)` is speculable — the
/// whole range can be deleted or duplicated without observable effects.
pub(crate) fn pure_range(code: &[Op], start: usize, end: usize) -> bool {
    code[start..end].iter().all(is_speculable)
}

/// Expected final stack depth of a program, by role.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProgKind {
    /// Guard expressions leave their value on the stack.
    Expr,
    /// Bodies, initials, comb nodes, and nb-site programs end balanced.
    Stmt,
}

/// Checks the stack discipline of one program: branch targets in bounds,
/// no underflow on any path, consistent depth at every join, and the
/// role-appropriate final depth. The pass manager runs this after every
/// pass and reverts the pass if it fails, so a pass bug degrades to a
/// missed optimization instead of a miscompile.
pub(crate) fn check_code(code: &[Op], kind: ProgKind) -> Result<(), String> {
    use std::collections::BTreeMap;
    for op in code {
        if let Some(t) = branch_target(op) {
            if t as usize > code.len() {
                return Err(format!("branch target {} out of bounds", t));
            }
        }
    }
    // Worklist depth analysis over block starts.
    let mut depth_in: BTreeMap<usize, i64> = BTreeMap::from([(0, 0)]);
    let mut work = vec![0usize];
    let mut final_depth: Option<i64> = None;
    let merge = |depth_in: &mut BTreeMap<usize, i64>,
                 work: &mut Vec<usize>,
                 pc: usize,
                 d: i64|
     -> Result<(), String> {
        match depth_in.get(&pc) {
            Some(&old) if old == d => Ok(()),
            Some(&old) => Err(format!("depth mismatch at pc {}: {} vs {}", pc, old, d)),
            None => {
                depth_in.insert(pc, d);
                work.push(pc);
                Ok(())
            }
        }
    };
    while let Some(start) = work.pop() {
        let mut d = depth_in[&start];
        let mut pc = start;
        while pc < code.len() {
            let op = &code[pc];
            let (pops, pushes) = stack_effect(op);
            d -= pops as i64;
            if d < 0 {
                return Err(format!("stack underflow at pc {}", pc));
            }
            d += pushes as i64;
            if let Some(t) = branch_target(op) {
                merge(&mut depth_in, &mut work, t as usize, d)?;
                if matches!(op, Op::Jump(_)) {
                    break;
                }
            }
            pc += 1;
            if pc < code.len()
                && depth_in.contains_key(&pc)
                && branch_target(&code[pc - 1]).is_some()
            {
                // Fall through into an already-seen block start.
                merge(&mut depth_in, &mut work, pc, d)?;
                break;
            }
        }
        if pc >= code.len() {
            match final_depth {
                Some(f) if f != d => {
                    return Err(format!("inconsistent final depth: {} vs {}", f, d))
                }
                _ => final_depth = Some(d),
            }
        }
    }
    let want = match kind {
        ProgKind::Expr => 1,
        ProgKind::Stmt => 0,
    };
    match final_depth {
        Some(d) if d != want => Err(format!("final stack depth {} (expected {})", d, want)),
        _ => Ok(()),
    }
}

/// Runs [`check_code`] over every program in `prog`.
pub(crate) fn check_program(prog: &CompiledProgram) -> Result<(), String> {
    for (i, node) in prog.comb.iter().enumerate() {
        check_code(&node.code, ProgKind::Stmt).map_err(|e| format!("comb node {}: {}", i, e))?;
    }
    for (i, a) in prog.always.iter().enumerate() {
        for (j, (_, g)) in a.guards.iter().enumerate() {
            check_code(g, ProgKind::Expr)
                .map_err(|e| format!("always {} guard {}: {}", i, j, e))?;
        }
        check_code(&a.body, ProgKind::Stmt).map_err(|e| format!("always {} body: {}", i, e))?;
    }
    for (i, c) in prog.initials.iter().enumerate() {
        check_code(c, ProgKind::Stmt).map_err(|e| format!("initial {}: {}", i, e))?;
    }
    for (i, c) in prog.nb_sites.iter().enumerate() {
        check_code(c, ProgKind::Stmt).map_err(|e| format!("nb site {}: {}", i, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The editor this module had before [`apply_edits`]: one edit, one scan
    /// for interior targets, one retarget of every branch. Kept as the
    /// independent reference the batch applier is checked against.
    fn reference_edit(code: &mut Code, start: usize, end: usize, repl: Vec<Op>) -> bool {
        let entered = code.iter().enumerate().any(|(pc, op)| {
            !(start..end).contains(&pc)
                && branch_target(op).is_some_and(|t| (t as usize) > start && (t as usize) < end)
        });
        if entered {
            return false;
        }
        let delta = repl.len() as i64 - (end - start) as i64;
        let tail = code.split_off(end);
        code.truncate(start);
        code.extend(repl);
        code.extend(tail);
        for op in code.iter_mut() {
            if let Some(t) = target_mut(op) {
                if *t as usize >= end {
                    *t = (*t as i64 + delta) as u32;
                }
            }
        }
        true
    }

    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n.max(1) as u64) as usize
        }
    }

    fn random_op(rng: &mut Rng, max_target: usize) -> Op {
        match rng.below(6) {
            0 => Op::Jump(rng.below(max_target + 1) as u32),
            1 => Op::CheckFinished(rng.below(max_target + 1) as u32),
            2 => Op::Pop,
            _ => Op::PushTime,
        }
    }

    #[test]
    fn batch_applier_matches_one_at_a_time_splicing() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut refused, mut applied) = (0u64, 0u64);
        for _ in 0..4000 {
            let n = 4 + rng.below(40);
            let code: Code = (0..n).map(|_| random_op(&mut rng, n)).collect();
            // Non-overlapping edits in ascending order; touching ranges and
            // several insertions at one point are allowed.
            let mut edits: Vec<Edit> = Vec::new();
            let mut at = 0usize;
            while at <= n && edits.len() < 12 {
                let start = at + rng.below(4);
                let end = start + [0, 0, 1, 1, 2, 3, 5][rng.below(7)];
                if end > n {
                    break;
                }
                // A replacement may branch, but only backward to before its
                // own start: that is the one direction whose coordinates
                // the one-at-a-time order leaves alone until the edit lands.
                let repl = (0..rng.below(4))
                    .map(|_| match start {
                        0 => Op::PushTime,
                        _ => random_op(&mut rng, start - 1),
                    })
                    .collect();
                edits.push(Edit { start, end, repl });
                at = end;
            }
            // The applier sorts; hand it the edits rotated (at a point that
            // splits no same-range tie, whose order is the caller's).
            let mut shuffled = edits.clone();
            let k = rng.below(edits.len() + 1);
            if k > 0 && k < edits.len() {
                let key = |e: &Edit| (e.start, e.end);
                if key(&edits[k - 1]) != key(&edits[k]) {
                    shuffled.rotate_left(k);
                }
            }
            let mut want = code.clone();
            let mut want_applied = 0u64;
            for e in edits.iter().rev() {
                if reference_edit(&mut want, e.start, e.end, e.repl.clone()) {
                    want_applied += 1;
                }
            }
            let mut got = code.clone();
            let got_applied = apply_edits(&mut got, shuffled);
            assert_eq!(got, want, "code {:?}\nedits {:?}", code, edits);
            assert_eq!(got_applied, want_applied);
            applied += want_applied;
            refused += edits.len() as u64 - want_applied;
        }
        // The generator must exercise both outcomes.
        assert!(applied > 10_000 && refused > 1_000, "{applied} {refused}");
    }

    #[test]
    fn overlapping_and_out_of_bounds_edits_are_refused() {
        let code: Code = vec![Op::PushTime, Op::Pop, Op::PushTime, Op::Pop];
        let edit = |start, end| Edit {
            start,
            end,
            repl: vec![Op::PushTime],
        };
        let mut got = code.clone();
        // The later edit lands; the one reaching into it does not.
        assert_eq!(apply_edits(&mut got, vec![edit(0, 3), edit(2, 4)]), 1);
        assert_eq!(got, vec![Op::PushTime, Op::Pop, Op::PushTime]);
        let mut got = code.clone();
        assert_eq!(apply_edits(&mut got, vec![edit(3, 9), edit(3, 2)]), 0);
        assert_eq!(got, code);
    }

    #[test]
    fn a_branch_onto_an_insertion_point_lands_after_the_inserted_ops() {
        let mut code: Code = vec![Op::Jump(1), Op::Pop];
        let insert = Edit {
            start: 1,
            end: 1,
            repl: vec![Op::PushTime],
        };
        assert_eq!(apply_edits(&mut code, vec![insert]), 1);
        assert_eq!(code, vec![Op::Jump(2), Op::PushTime, Op::Pop]);
    }
}
