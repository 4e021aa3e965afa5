//! Comb-node fusion: inlines a combinational driver whose program is a
//! pure expression into its sole reader, then deletes the driver node.
//!
//! A fused net stops being computed each settle — external `get()` on it
//! reads its init value. That is only legal for anonymous plumbing between
//! comb nodes, so fusion requires the net to be neither a register nor
//! observed by name (a port, a trapped task's argument), never read
//! procedurally (bodies, guards, `@*` lists, initials, nb-site programs),
//! and driven by a node that writes nothing else. The
//! inlined producer reads only nets driven by earlier nodes, so node order
//! stays topological and re-levelization succeeds.

use std::collections::BTreeSet;

use crate::analysis::{pure_range, splice};
use crate::relevel::{rebuild_tables, slot_use};
use synergy_codegen::ir::{CompiledProgram, Op, SlotRef};

/// Duplication budget: inlining into a reader with `k` reads copies the
/// producer `k - 1` extra times; skip when that exceeds this many ops.
const DUP_BUDGET: usize = 16;

/// Runs the pass; returns the number of nodes fused away.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let mut rewrites = 0u64;
    let max = prog.comb.len() + 1;
    for _ in 0..max {
        if fuse_one(prog) {
            rewrites += 1;
        } else {
            break;
        }
    }
    if rewrites > 0 {
        let _ = rebuild_tables(prog);
    }
    rewrites
}

/// Nets read anywhere outside the comb netlist.
fn procedural_reads(prog: &CompiledProgram) -> BTreeSet<u32> {
    let mut nets = BTreeSet::new();
    fn scan(code: &[Op], nets: &mut BTreeSet<u32>) {
        for op in code {
            if let Op::PushNet(n) = op {
                nets.insert(*n);
            }
        }
    }
    for a in &prog.always {
        for (_, g) in &a.guards {
            scan(g, &mut nets);
        }
        scan(&a.body, &mut nets);
        for s in &a.star {
            if let SlotRef::Net(n) = s {
                nets.insert(*n);
            }
        }
    }
    for c in &prog.initials {
        scan(c, &mut nets);
    }
    for c in &prog.nb_sites {
        scan(c, &mut nets);
    }
    nets
}

fn fuse_one(prog: &mut CompiledProgram) -> bool {
    let proc_reads = procedural_reads(prog);
    for n in 0..prog.nets.len() {
        let decl = &prog.nets[n];
        if decl.is_register || decl.observed || proc_reads.contains(&(n as u32)) {
            continue;
        }
        let Some(driver) = prog.net_driver[n] else {
            continue;
        };
        let readers = &prog.net_deps[n];
        if readers.len() != 1 {
            continue;
        }
        let j = readers[0] as usize;
        let node = &prog.comb[driver as usize];
        let Some(Op::StoreNet(sn)) = node.code.last() else {
            continue;
        };
        if *sn as usize != n {
            continue;
        }
        let plen = node.code.len() - 1;
        if !pure_range(&node.code, 0, plen) {
            continue;
        }
        let u = slot_use(&node.code);
        if u.write_nets.len() != 1 || !u.write_mems.is_empty() {
            continue;
        }
        let k = prog.comb[j]
            .code
            .iter()
            .filter(|op| matches!(op, Op::PushNet(m) if *m as usize == n))
            .count();
        if k == 0 || (k - 1) * plen > DUP_BUDGET {
            continue;
        }
        // Inline every read, then delete the producer node. The store
        // clamped the produced value to the net's declared width (truncating
        // or zero-extending) and the read returned that width — an explicit
        // slice reproduces both, since slicing past the value's width reads
        // zeros. Without it a reader sees the producer's natural width,
        // which changes subtraction borrow, reductions, and comparisons.
        let width = prog.nets[n].width;
        let mut producer: Vec<Op> = node.code[..plen].to_vec();
        if producer.last()
            != Some(&Op::SliceConst {
                hi: width - 1,
                lo: 0,
            })
        {
            producer.push(Op::SliceConst {
                hi: width - 1,
                lo: 0,
            });
        }
        loop {
            let code = &mut prog.comb[j].code;
            let Some(p) = code
                .iter()
                .position(|op| matches!(op, Op::PushNet(m) if *m as usize == n))
            else {
                break;
            };
            if !splice(code, p, p + 1, producer.clone()) {
                return false;
            }
        }
        prog.comb.remove(driver as usize);
        // Node indices shifted; recompute tables before the next candidate.
        // A failure here is squared away by the pass manager's validation.
        let _ = rebuild_tables(prog);
        return true;
    }
    false
}
