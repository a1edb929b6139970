//! Phase 1 — the architecture *independent* null check optimization
//! (paper §4.1).
//!
//! Null checks are moved **backward** in the CFG to the earliest points
//! they can reach (§4.1.1), and checks that are then known to target
//! non-null references are eliminated (§4.1.2). The net effect is the
//! paper's Figure 3: a partially redundant check at a merge point is
//! replaced by one check on each incoming path, and — crucially — loop
//! invariant checks migrate to the loop preheader (Figure 4), unlocking
//! loop invariant code motion of the guarded accesses.
//!
//! ## Equations implemented (facts = checked variables)
//!
//! §4.1.1 backward motion (intersection meet — a check may move above a
//! join only if it is anticipated on *every* path):
//! ```text
//! Out_bwd(n) = ∩_{m ∈ Succ(n)} (In_bwd(m) - Edge_try(n, m))
//! In_bwd(n)  = (Out_bwd(n) - Kill_bwd(n)) ∪ Gen_bwd(n)
//! Earliest(n) = (∩_{m ∈ Pred(n)} ¬Out_bwd(m)) ∩ Out_bwd(n)
//! ```
//!
//! §4.1.2 forward non-nullness (intersection meet; the edge transfer adds
//! `Earliest(m)` — insertion points are assumed inserted — and the
//! `Edge(m, n)` facts from `ifnull`/`ifnonnull` branches):
//! ```text
//! In_fwd(n)  = ∩_{m ∈ Pred(n)} (Out_fwd(m) ∪ Earliest(m) ∪ Edge(m, n))
//! Out_fwd(n) = (In_fwd(n) - Kill_fwd(n)) ∪ Gen_fwd(n)
//! ```
//!
//! ## Exception-edge precision
//!
//! A fact in `Out_fwd(m)` may have been established *after* a throwing
//! instruction in `m`; the handler must not observe it. On exceptional
//! edges the non-nullness value is therefore masked to the facts valid at
//! **every** potentially-throwing point of `m` (no kill anywhere in the
//! block, and if generated, generated before the first throwing
//! instruction).

use njc_dataflow::{BitSet, Direction, Meet, Problem};
use njc_ir::{BlockId, CfgCache, Function, Inst, NullCheckKind, VarId};
use njc_observe::{CheckEvent, Recorder};

use crate::ctx::AnalysisCtx;
use crate::nonnull::eliminate_redundant;
use crate::Workspace;

/// Statistics from one phase 1 application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Phase1Stats {
    /// Null checks removed because their target was known non-null.
    pub eliminated: usize,
    /// The subset of `eliminated` only the value-numbered analysis could
    /// justify (zero unless [`run_recorded`] ran with `gvn`).
    pub gvn_eliminated: usize,
    /// Null checks inserted at earliest points (hoisted copies).
    pub inserted: usize,
    /// Solver convergence depth of the backward motion analysis.
    pub motion_iterations: usize,
    /// Solver convergence depth of the forward non-nullness analysis.
    pub nonnull_iterations: usize,
    /// Worklist pops spent by the backward motion analysis.
    pub motion_pops: usize,
    /// Worklist pops spent by the forward non-nullness analysis.
    pub nonnull_pops: usize,
}

impl Phase1Stats {
    /// Net reduction in static null check count.
    pub fn net_removed(&self) -> isize {
        self.eliminated as isize - self.inserted as isize
    }
}

/// Per-block Gen/Kill sets for the backward motion analysis.
struct MotionSets {
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

fn compute_motion_sets(ctx: &AnalysisCtx<'_>, func: &Function) -> MotionSets {
    let nv = func.num_vars();
    let mut gen = Vec::with_capacity(func.num_blocks());
    let mut kill = Vec::with_capacity(func.num_blocks());
    for b in func.blocks() {
        let in_try = b.try_region.is_some();
        let mut g = BitSet::new(nv);
        let mut k = BitSet::new(nv);
        let mut barrier_above = false;
        for inst in &b.insts {
            if let Inst::NullCheck { var, .. } = inst {
                // Gen_bwd: checks that can move to the entry of the block —
                // nothing above them kills.
                if !barrier_above && !k.contains(var.index()) {
                    g.insert(var.index());
                }
                continue;
            }
            if ctx.is_barrier(inst, in_try) {
                barrier_above = true;
            }
            if let Some(d) = inst.def() {
                k.insert(d.index());
            }
        }
        if barrier_above {
            // A side-effecting instruction kills *all* facts flowing up.
            k.set_all();
        }
        gen.push(g);
        kill.push(k);
    }
    MotionSets { gen, kill }
}

struct BackwardMotion<'a> {
    func: &'a Function,
    sets: MotionSets,
    num_facts: usize,
}

impl Problem for BackwardMotion<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn meet(&self) -> Meet {
        Meet::Intersect
    }
    fn num_facts(&self) -> usize {
        self.num_facts
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        // In_bwd = (Out_bwd - Kill) ∪ Gen.
        output.subtract_from(input, &self.sets.kill[block.index()]);
        output.union_with(&self.sets.gen[block.index()]);
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        // Edge_try: no check moves across a try region boundary.
        if self.func.edge_crosses_try(from, to) {
            set.clear();
        }
    }
}

/// Computes the `Earliest` insertion sets (§4.1.1), one per block, from the
/// backward motion fixed point and the cached predecessor lists.
fn compute_earliest(func: &Function, preds: &[Vec<BlockId>], outs: &[BitSet]) -> Vec<BitSet> {
    let mut earliest = Vec::with_capacity(func.num_blocks());
    for b in func.blocks() {
        let mut e = outs[b.id.index()].clone();
        // ∩ over preds of the complement of Out_bwd(pred): remove anything
        // still anticipated at some predecessor's exit.
        for &p in &preds[b.id.index()] {
            e.subtract(&outs[p.index()]);
        }
        earliest.push(e);
    }
    earliest
}

/// Runs phase 1 on `func`: moves null checks backward to their earliest
/// points and eliminates redundant ones. Computes the CFG structures on
/// the spot; the pipeline uses [`run_recorded`] with its own cache.
///
/// Returns statistics; the function is rewritten in place.
pub fn run(ctx: &AnalysisCtx<'_>, func: &mut Function) -> Phase1Stats {
    run_recorded(
        ctx,
        func,
        &mut CfgCache::new(),
        &mut Workspace::new(),
        &mut Recorder::disabled(),
        false,
    )
}

/// [`run`] with provenance, reusing (and revalidating) the caller's
/// [`CfgCache`] and solving in the caller's [`Workspace`]: eliminations
/// record the justifying `In_fwd` fact, insertions the earliest block they
/// were hoisted to, and inserted checks draw fresh ids from the recorder.
/// Phase 1 only rewrites instruction lists, so the cache stays valid for
/// the caller afterwards.
///
/// With `gvn` (`OptConfig::gvn`), the forward non-nullness also runs over
/// value numbers, as a witness beside the per-variable solution: the
/// elimination removes every check either solution justifies (a strict
/// superset of the per-variable kills), and an insertion point whose class
/// is already non-null at the block's exit is dropped. GVN-only kills are
/// attributed `Redundancy::Gvn`; the solver counters sum both forward
/// analyses.
pub fn run_recorded(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    cfg: &mut CfgCache,
    ws: &mut Workspace,
    rec: &mut Recorder,
    gvn: bool,
) -> Phase1Stats {
    let nv = func.num_vars();
    let mut stats = Phase1Stats::default();
    if nv == 0 {
        return stats;
    }
    cfg.ensure(func);

    // §4.1.1 — backward motion and insertion points. Motion is about check
    // *positions*, which the value numbering does not change.
    let motion = BackwardMotion {
        func,
        sets: compute_motion_sets(ctx, func),
        num_facts: nv,
    };
    let sol_bwd = ws.solver.solve(func, cfg, &motion);
    stats.motion_iterations = sol_bwd.iterations;
    stats.motion_pops = sol_bwd.worklist_pops;
    let mut earliest = compute_earliest(func, cfg.preds(), &sol_bwd.outs);

    // §4.1.2 — non-nullness assuming insertions, then elimination. With
    // interprocedural assumptions on the context, proven parameters seed
    // the entry boundary and proven call returns / field loads generate
    // facts; without them this is byte-identical to the plain analysis.
    let (sol_fwd, assumed) = ws.solve_nonnull(func, cfg, Some(ctx), Some(&earliest));
    let witness = gvn.then(|| ws.solve_gvn_nonnull(func, cfg, Some(ctx), Some(&earliest)));
    stats.nonnull_iterations = sol_fwd.iterations;
    stats.nonnull_pops = sol_fwd.worklist_pops;
    if let Some((_, sol)) = &witness {
        stats.nonnull_iterations += sol.iterations;
        stats.nonnull_pops += sol.worklist_pops;
    }

    // When tracing with assumptions that entered the problem, the solution
    // of the plain problem: an entry fact present only in the assumed
    // solution is attributed to the interprocedural fact that minted it.
    // Deliberately excluded from the solver statistics so traced and plain
    // runs report identically. When no assumption entered, the two
    // problems are the same problem and every kill keeps its
    // intraprocedural attribution without a second solve.
    let base_sol =
        (rec.is_enabled() && assumed).then(|| ws.solve_nonnull(func, cfg, None, Some(&earliest)).0);

    // Rewrite: remove redundant checks...
    let r = eliminate_redundant(
        Some(ctx),
        func,
        &sol_fwd.ins,
        base_sol.as_ref().map(|s| s.ins.as_slice()),
        witness.as_ref().map(|(vn, s)| (vn, s.ins.as_slice())),
        rec,
        true,
    );
    stats.eliminated = r.eliminated;
    stats.gvn_eliminated = r.gvn_only;

    // ... then insert at the earliest points: Earliest(n) -= Out_fwd(n),
    // remaining checks go at the block exit (§4.1.2 last equation). The
    // value-numbered out-facts suppress too: if the class is already
    // non-null at the block's exit, the hoisted check is as dead as its
    // original.
    for (bi, e) in earliest.iter_mut().enumerate().take(func.num_blocks()) {
        e.subtract(&sol_fwd.outs[bi]);
        let block = BlockId::new(bi);
        let mut fresh = Vec::new();
        for v in e.iter() {
            if witness
                .as_ref()
                .is_some_and(|(vn, s)| s.outs[bi].contains(vn.exit_vn(bi)[v] as usize))
            {
                continue;
            }
            let id = rec.fresh();
            fresh.push(Inst::NullCheck {
                var: VarId::new(v),
                kind: NullCheckKind::Explicit,
                id,
            });
            rec.record(CheckEvent::Phase1Inserted {
                id,
                var: VarId::new(v),
                block,
            });
            stats.inserted += 1;
        }
        func.insts_mut(block).extend(fresh);
    }
    ws.solver.recycle(sol_bwd);
    ws.solver.recycle(sol_fwd);
    if let Some(sol) = base_sol {
        ws.solver.recycle(sol);
    }
    if let Some((vn, sol)) = witness {
        ws.gvn.recycle(vn);
        ws.solver.recycle(sol);
    }

    stats
}

/// Counts the null check instructions in a function (test/metric helper).
pub fn count_checks(func: &Function) -> usize {
    func.blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::NullCheck { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_ir::{parse_function, verify, Module};

    fn module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f", njc_ir::Type::Int), ("g", njc_ir::Type::Int)]);
        m
    }

    fn run_on(src: &str) -> (Function, Phase1Stats) {
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(src).unwrap();
        verify(&f).unwrap();
        let stats = run(&ctx, &mut f);
        verify(&f).expect("phase1 output verifies");
        (f, stats)
    }

    #[test]
    fn straight_line_redundant_check_eliminated() {
        let (f, stats) = run_on(
            "func f(v0: ref) -> int {\n\
             bb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v0\n  v2 = getfield v0, field1\n  return v2\n}",
        );
        assert_eq!(stats.eliminated, 1);
        assert_eq!(stats.inserted, 0);
        assert_eq!(count_checks(&f), 1);
    }

    #[test]
    fn figure3_partial_redundancy() {
        // Figure 3: left path checks a, right path does not; the merge
        // check is partially redundant. After phase 1 each path checks
        // exactly once.
        let src = "\
func f(v0: ref, v1: int) -> int {
bb0:
  if lt v1, v1 then bb1 else bb2
bb1:
  observe v1
  nullcheck v0
  v2 = getfield v0, field0
  goto bb3
bb2:
  goto bb3
bb3:
  nullcheck v0
  v3 = getfield v0, field1
  return v3
}";
        // The observe is a side-effect barrier pinning the left path's
        // check in place, like the figure's surrounding code.
        let (f, stats) = run_on(src);
        // The merge check is eliminated; a check is inserted at the end of
        // bb2 (the path that had none).
        assert_eq!(stats.eliminated, 1, "merge check eliminated");
        assert_eq!(stats.inserted, 1, "check inserted on the right path");
        let bb2 = &f.block(BlockId(2)).insts;
        assert!(
            bb2.iter().any(|i| matches!(i, Inst::NullCheck { .. })),
            "inserted into bb2: {f}"
        );
        let bb3 = &f.block(BlockId(3)).insts;
        assert!(
            !bb3.iter().any(|i| matches!(i, Inst::NullCheck { .. })),
            "no check left at merge: {f}"
        );
    }

    #[test]
    fn loop_invariant_check_hoisted_to_preheader() {
        // Figure 4 (2)→(3): the check inside the loop moves out.
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int v4: int
bb0:
  v2 = const 0
  goto bb1
bb1:
  nullcheck v0
  v3 = getfield v0, field0
  v2 = add.int v2, v3
  v4 = const 10
  if lt v2, v4 then bb1 else bb2
bb2:
  return v2
}";
        let (f, stats) = run_on(src);
        assert_eq!(stats.eliminated, 1, "in-loop check eliminated: {f}");
        assert_eq!(stats.inserted, 1, "preheader check inserted: {f}");
        let preheader = &f.block(BlockId(0)).insts;
        assert!(
            matches!(preheader.last(), Some(Inst::NullCheck { .. })),
            "check at preheader exit: {f}"
        );
        let loop_body = &f.block(BlockId(1)).insts;
        assert!(
            !loop_body
                .iter()
                .any(|i| matches!(i, Inst::NullCheck { .. })),
            "loop body check-free: {f}"
        );
    }

    #[test]
    fn check_not_hoisted_above_null_test() {
        // `if (v != null) v.f` — the check must not move above the ifnull.
        let src = "\
func f(v0: ref) -> int {
  locals v1: int
bb0:
  ifnull v0 then bb2 else bb1
bb1:
  nullcheck v0
  v1 = getfield v0, field0
  return v1
bb2:
  v1 = const 0
  return v1
}";
        let (f, stats) = run_on(src);
        // The check is eliminated entirely: the ifnonnull edge proves
        // non-nullness (§4.1.2 Edge) — and nothing is inserted above.
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.eliminated, 1);
        assert_eq!(count_checks(&f), 0, "{f}");
    }

    #[test]
    fn new_object_needs_no_check() {
        let src = "\
func f() -> int {
  locals v0: ref v1: int
bb0:
  v0 = new class0
  nullcheck v0
  v1 = getfield v0, field0
  return v1
}";
        let (f, stats) = run_on(src);
        assert_eq!(stats.eliminated, 1);
        assert_eq!(count_checks(&f), 0, "{f}");
    }

    #[test]
    fn this_receiver_needs_no_check() {
        let src = "\
func m(v0: ref) -> int instance {
  locals v1: int
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  return v1
}";
        let (f, stats) = run_on(src);
        assert_eq!(stats.eliminated, 1);
        assert_eq!(count_checks(&f), 0, "{f}");
    }

    #[test]
    fn memory_write_blocks_hoisting() {
        // The putfield is a side-effecting barrier: the check of v1 in bb1
        // cannot move above it into bb0.
        let src = "\
func f(v0: ref, v1: ref) -> int {
  locals v2: int
bb0:
  nullcheck v0
  putfield v0, field0, v2
  goto bb1
bb1:
  nullcheck v1
  v2 = getfield v1, field0
  return v2
}";
        let (f, stats) = run_on(src);
        // v1's check may move to the *exit* of bb0 (below the putfield) but
        // not above the memory write.
        let bb0 = &f.block(BlockId(0)).insts;
        let barrier_pos = bb0
            .iter()
            .position(|i| matches!(i, Inst::PutField { .. }))
            .unwrap();
        for (pos, inst) in bb0.iter().enumerate() {
            if let Inst::NullCheck { var, .. } = inst {
                if *var == VarId(1) {
                    assert!(
                        pos > barrier_pos,
                        "check of v1 must stay below the write: {f}"
                    );
                }
            }
        }
        // The check of v0 stays where it was, above the write.
        assert!(matches!(bb0[0], Inst::NullCheck { var, .. } if var == VarId(0)));
        let _ = stats;
    }

    #[test]
    fn overwrite_kills_nonnullness() {
        let src = "\
func f(v0: ref, v1: ref) -> int {
  locals v2: int
bb0:
  nullcheck v0
  v2 = getfield v0, field0
  v0 = move v1
  nullcheck v0
  v2 = getfield v0, field0
  return v2
}";
        let (f, stats) = run_on(src);
        assert_eq!(stats.eliminated, 0, "{f}");
        assert_eq!(count_checks(&f), 2);
    }

    #[test]
    fn try_region_blocks_motion() {
        // The check inside the try region must not be hoisted out of it.
        let src = "\
func f(v0: ref) -> int {
  locals v1: int v2: int
  try0: handler bb2 catch any -> v2
bb0:
  goto bb1
bb1: [try0]
  nullcheck v0
  v1 = getfield v0, field0
  return v1
bb2:
  v1 = const 0
  return v1
}";
        let (f, stats) = run_on(src);
        assert_eq!(stats.inserted, 0, "{f}");
        assert_eq!(count_checks(&f), 1);
        assert!(f
            .block(BlockId(1))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::NullCheck { .. })));
    }

    #[test]
    fn nonnull_fact_does_not_leak_to_handler_before_establishment() {
        // In bb1 the check happens *after* a potentially-throwing div; on the
        // exceptional path the handler must still check v0.
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
  try0: handler bb2 catch any -> v3
bb0:
  goto bb1
bb1: [try0]
  v2 = div.int v1, v1
  nullcheck v0
  v2 = getfield v0, field0
  return v2
bb2:
  nullcheck v0
  v2 = getfield v0, field1
  return v2
}";
        let (f, stats) = run_on(src);
        // The handler's check must survive: the div may throw before the
        // try block's check executed.
        assert_eq!(stats.eliminated, 0, "{f}");
        assert!(f
            .block(BlockId(2))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::NullCheck { .. })));
    }

    #[test]
    fn nonnull_fact_reaches_handler_when_established_before_region() {
        // Non-nullness established *before* the try region survives onto the
        // exceptional edge (it held at every throwing point of the block),
        // so the handler's re-check is eliminated.
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  nullcheck v0
  v2 = getfield v0, field0
  goto bb1
  try0: handler bb2 catch any -> v3
bb1: [try0]
  v2 = div.int v2, v1
  observe v2
  return v2
bb2:
  nullcheck v0
  v2 = getfield v0, field1
  return v2
}";
        let (f, stats) = run_on(src);
        assert_eq!(stats.eliminated, 1, "handler check eliminated: {f}");
        assert!(!f
            .block(BlockId(2))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::NullCheck { .. })));
    }

    #[test]
    fn diamond_with_checks_on_both_paths_hoists_to_top() {
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int
bb0:
  if lt v1, v1 then bb1 else bb2
bb1:
  nullcheck v0
  v2 = getfield v0, field0
  goto bb3
bb2:
  nullcheck v0
  v2 = getfield v0, field1
  goto bb3
bb3:
  return v2
}";
        let (f, stats) = run_on(src);
        // Both checks anticipated at bb0's exit → hoisted there once.
        assert_eq!(stats.inserted, 1, "{f}");
        assert_eq!(stats.eliminated, 2, "{f}");
        assert_eq!(count_checks(&f), 1);
        assert!(matches!(
            f.block(BlockId(0)).insts.last(),
            Some(Inst::NullCheck { .. })
        ));
    }

    #[test]
    fn idempotent_second_run_changes_nothing() {
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int
bb0:
  if lt v1, v1 then bb1 else bb2
bb1:
  nullcheck v0
  v2 = getfield v0, field0
  goto bb3
bb2:
  goto bb3
bb3:
  nullcheck v0
  v3 = getfield v0, field1
  return v3
}";
        let (mut f, _) = run_on(src);
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let before = f.to_string();
        let stats2 = run(&ctx, &mut f);
        assert_eq!(stats2.eliminated, 0);
        assert_eq!(stats2.inserted, 0);
        assert_eq!(f.to_string(), before, "second run is a no-op");
    }
}
