//! Dead code elimination.
//!
//! Removes pure instructions whose results are never used, driven by a
//! global backward liveness analysis. Null checks, bounds checks, stores,
//! calls, allocations, and anything marked as an exception site are never
//! removed here — their effects are not value flow.

use njc_dataflow::{BitSet, Direction, Meet, Problem, SolverWorkspace};
use njc_ir::{BlockId, CfgCache, Function, Inst};

/// Statistics from one DCE application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DceStats {
    /// Instructions removed.
    pub removed: usize,
}

/// Whether the instruction may be deleted when its definition is dead.
fn is_removable(inst: &Inst) -> bool {
    if inst.is_exception_site() {
        // A marked site carries an implicit null check.
        return false;
    }
    match inst {
        Inst::Const { .. }
        | Inst::Move { .. }
        | Inst::Neg { .. }
        | Inst::Convert { .. }
        | Inst::FCmp { .. }
        | Inst::IntrinsicOp { .. }
        | Inst::GetField { .. }
        | Inst::ArrayLength { .. }
        | Inst::ArrayLoad { .. } => true,
        Inst::BinOp { op, ty, .. } => !op.can_throw(*ty),
        _ => false,
    }
}

/// Backward liveness over per-block summaries: `live_in = uses ∪
/// (live_out − defs)`, where `uses` are the block's upward-exposed reads
/// (terminator included) and `defs` every variable it writes. Built once
/// per solve, so a transfer is two word-wise set operations instead of a
/// walk over the block.
struct Liveness {
    num_vars: usize,
    uses: Vec<BitSet>,
    defs: Vec<BitSet>,
}

impl Liveness {
    fn new(func: &Function) -> Self {
        let nv = func.num_vars();
        let mut uses = Vec::with_capacity(func.num_blocks());
        let mut defs = Vec::with_capacity(func.num_blocks());
        for b in func.blocks() {
            let mut u = BitSet::new(nv);
            let mut d = BitSet::new(nv);
            b.term.for_each_use(|v| {
                u.insert(v.index());
            });
            for inst in b.insts.iter().rev() {
                if let Some(x) = inst.def() {
                    u.remove(x.index());
                    d.insert(x.index());
                }
                for r in inst.uses() {
                    u.insert(r.index());
                }
            }
            uses.push(u);
            defs.push(d);
        }
        Liveness {
            num_vars: nv,
            uses,
            defs,
        }
    }
}

impl Problem for Liveness {
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn meet(&self) -> Meet {
        Meet::Union
    }
    fn num_facts(&self) -> usize {
        self.num_vars
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        // input = live-out; output = live-in.
        output.subtract_from(input, &self.defs[block.index()]);
        output.union_with(&self.uses[block.index()]);
    }
}

/// Runs DCE to a fixpoint on `func` in place, solving over `cfg`
/// (revalidated first) in `solver`. Only instruction lists change, so the
/// cache stays fresh.
pub fn run(func: &mut Function, cfg: &mut CfgCache, solver: &mut SolverWorkspace) -> DceStats {
    let mut stats = DceStats::default();
    cfg.ensure(func);
    let mut keep = Vec::new();
    let mut live = BitSet::default();
    loop {
        let sol = solver.solve(func, cfg, &Liveness::new(func));
        let mut removed_this_round = 0;
        for (bi, live_out) in sol.outs.iter().enumerate() {
            live.clone_from(live_out);
            // For a backward problem the solver's `outs` hold the meet of
            // the successors (live-out). Walk back from it to know what is
            // live *after* each instruction.
            let block_id = BlockId::new(bi);
            let block = func.block(block_id);
            block.term.for_each_use(|v| {
                live.insert(v.index());
            });
            keep.clear();
            keep.resize(block.insts.len(), true);
            for (i, inst) in block.insts.iter().enumerate().rev() {
                let dead_def = inst
                    .def()
                    .map(|d| !live.contains(d.index()))
                    .unwrap_or(false);
                if dead_def && is_removable(inst) {
                    keep[i] = false;
                    removed_this_round += 1;
                    continue; // its uses do not become live
                }
                if let Some(d) = inst.def() {
                    live.remove(d.index());
                }
                for u in inst.uses() {
                    live.insert(u.index());
                }
            }
            if keep.contains(&false) {
                let mut it = keep.iter();
                func.insts_mut(block_id).retain(|_| *it.next().unwrap());
            }
        }
        solver.recycle(sol);
        stats.removed += removed_this_round;
        if removed_this_round == 0 {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::parse_function;

    #[test]
    fn unused_const_removed() {
        let mut f = parse_function(
            "func f(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = const 42\n  return v0\n}",
        )
        .unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.removed, 1);
        assert!(f.block(BlockId(0)).insts.is_empty());
    }

    #[test]
    fn chain_of_dead_code_removed_transitively() {
        let mut f = parse_function(
            "func f(v0: int) -> int {\n  locals v1: int v2: int v3: int\nbb0:\n  v1 = const 1\n  v2 = add.int v1, v0\n  v3 = add.int v2, v2\n  return v0\n}",
        )
        .unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.removed, 3);
    }

    #[test]
    fn null_checks_never_removed() {
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = const 0\n  return v1\n}",
        )
        .unwrap();
        run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert!(f
            .block(BlockId(0))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::NullCheck { .. })));
    }

    #[test]
    fn dead_load_removed_but_marked_site_kept() {
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: int v2: int v3: int\nbb0:\n  v1 = getfield v0, field0\n  v2 = getfield v0, field1 [site]\n  v3 = const 0\n  return v3\n}",
        )
        .unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.removed, 1, "{f}");
        assert!(f
            .block(BlockId(0))
            .insts
            .iter()
            .any(|i| i.is_exception_site()));
    }

    #[test]
    fn live_through_loop_kept() {
        let src = "\
func f(v0: int) -> int {
  locals v1: int v2: int
bb0:
  v1 = const 0
  goto bb1
bb1:
  v1 = add.int v1, v0
  if lt v1, v0 then bb1 else bb2
bb2:
  return v1
}";
        let mut f = parse_function(src).unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.removed, 0, "{f}");
    }

    #[test]
    fn stores_and_calls_kept() {
        let mut f = parse_function(
            "func f(v0: ref, v1: int) -> int {\nbb0:\n  putfield v0, field0, v1\n  v2 = call fn0(v1)\n  return v1\n}",
        )
        .unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.removed, 0, "call result dead but call kept: {f}");
    }
}
