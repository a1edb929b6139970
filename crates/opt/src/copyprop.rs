//! Block-local copy propagation.
//!
//! Replaces uses of `dst` with `src` after a `dst = move src` within the
//! same block, as long as neither has been redefined. Inlining and scalar
//! replacement both introduce move chains; this pass lets DCE delete them.

use njc_ir::{BlockId, Function, Inst, VarId};

/// Statistics from one copy propagation application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CopyPropStats {
    /// Operand uses rewritten to the copy source.
    pub replaced_uses: usize,
}

fn subst(v: &mut VarId, copies: &[Option<VarId>], stats: &mut CopyPropStats) {
    if let Some(src) = copies[v.index()] {
        *v = src;
        stats.replaced_uses += 1;
    }
}

fn rewrite_inst(inst: &mut Inst, copies: &[Option<VarId>], stats: &mut CopyPropStats) {
    match inst {
        Inst::Const { .. } | Inst::New { .. } => {}
        Inst::Move { src, .. } => subst(src, copies, stats),
        Inst::BinOp { lhs, rhs, .. } | Inst::FCmp { lhs, rhs, .. } => {
            subst(lhs, copies, stats);
            subst(rhs, copies, stats);
        }
        Inst::Neg { src, .. } | Inst::Convert { src, .. } | Inst::IntrinsicOp { src, .. } => {
            subst(src, copies, stats)
        }
        Inst::NullCheck { var, .. } | Inst::Observe { var } => subst(var, copies, stats),
        Inst::BoundCheck { index, length } => {
            subst(index, copies, stats);
            subst(length, copies, stats);
        }
        Inst::GetField { obj, .. } => subst(obj, copies, stats),
        Inst::PutField { obj, value, .. } => {
            subst(obj, copies, stats);
            subst(value, copies, stats);
        }
        Inst::ArrayLength { arr, .. } => subst(arr, copies, stats),
        Inst::ArrayLoad { arr, index, .. } => {
            subst(arr, copies, stats);
            subst(index, copies, stats);
        }
        Inst::ArrayStore {
            arr, index, value, ..
        } => {
            subst(arr, copies, stats);
            subst(index, copies, stats);
            subst(value, copies, stats);
        }
        Inst::NewArray { len, .. } => subst(len, copies, stats),
        Inst::Call { receiver, args, .. } => {
            if let Some(r) = receiver {
                subst(r, copies, stats);
            }
            for a in args {
                subst(a, copies, stats);
            }
        }
    }
}

/// Runs block-local copy propagation on `func` in place. Only operands
/// change (through [`Function::insts_mut`] and
/// [`Function::term_uses_mut`]), so the CFG generation does not move.
pub fn run(func: &mut Function) -> CopyPropStats {
    let mut stats = CopyPropStats::default();
    let mut copies: Vec<Option<VarId>> = vec![None; func.num_vars()];
    for bi in 0..func.num_blocks() {
        let block_id = BlockId::new(bi);
        copies.fill(None);
        for inst in func.insts_mut(block_id) {
            rewrite_inst(inst, &copies, &mut stats);
            if let Some(d) = inst.def() {
                // The def invalidates copies of d and copies *to* d.
                for c in copies.iter_mut() {
                    if *c == Some(d) {
                        *c = None;
                    }
                }
                copies[d.index()] = None;
                if let Inst::Move { dst, src } = inst {
                    if dst != src {
                        copies[dst.index()] = Some(*src);
                    }
                }
            }
        }
        // Terminator operands.
        func.term_uses_mut(block_id, |v| subst(v, &copies, &mut stats));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::parse_function;

    #[test]
    fn copy_is_propagated_to_later_uses() {
        let mut f = parse_function(
            "func f(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = move v0\n  v2 = add.int v1, v1\n  return v2\n}",
        )
        .unwrap();
        let stats = run(&mut f);
        assert_eq!(stats.replaced_uses, 2);
        let s = f.to_string();
        assert!(s.contains("add.int v0, v0"), "{s}");
    }

    #[test]
    fn redefinition_of_source_stops_propagation() {
        let mut f = parse_function(
            "func f(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = move v0\n  v0 = add.int v0, v0\n  v2 = move v1\n  return v2\n}",
        )
        .unwrap();
        run(&mut f);
        let s = f.to_string();
        assert!(
            s.contains("v2 = move v1"),
            "v1's copy of old v0 must stay: {s}"
        );
    }

    #[test]
    fn chain_of_copies_collapses() {
        let mut f = parse_function(
            "func f(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = move v0\n  v2 = move v1\n  return v2\n}",
        )
        .unwrap();
        run(&mut f);
        let s = f.to_string();
        assert!(s.contains("return v0"), "{s}");
    }

    #[test]
    fn terminator_operands_rewritten() {
        let mut f = parse_function(
            "func f(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = move v0\n  if lt v1, v0 then bb1 else bb1\nbb1:\n  return v0\n}",
        )
        .unwrap();
        run(&mut f);
        let s = f.to_string();
        assert!(s.contains("if lt v0, v0"), "{s}");
    }
}
