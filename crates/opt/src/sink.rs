//! Store sinking / register promotion — the second half of the paper's
//! scalar replacement (Figure 4 (5): `a.count' = T` after the loop).
//!
//! A field `o.f` that is both loaded and stored inside a loop is promoted
//! to a temporary: the preheader loads it once, in-loop accesses become
//! register moves, and the value is written back on every loop exit edge.
//!
//! Legality under precise exceptions is strict — and this is exactly where
//! the paper's phasing pays off: the heap must not be observably stale at
//! any point where control can leave the loop abnormally, so the loop may
//! contain **no potentially-throwing instruction at all** (no null checks,
//! no bounds checks, no calls). Only after phase 1 hoisted the null checks
//! and versioning removed the bounds checks does a loop qualify — *"The
//! result of (5) also cannot be achieved without the scalar replacement in
//! (4)"* and vice versa (paper §3.2).

use std::collections::BTreeMap;

use njc_core::ctx::AnalysisCtx;
use njc_core::Workspace;
use njc_ir::{BlockId, CfgCache, FieldId, Function, Inst, Terminator, VarId};

use crate::loops::{LoopCache, NaturalLoop};

/// Statistics from one store-sinking application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SinkStats {
    /// Fields promoted to registers across a loop.
    pub promoted: usize,
    /// In-loop loads/stores rewritten to register moves.
    pub accesses_rewritten: usize,
}

/// Whether `inst` can throw or otherwise makes the heap observable
/// mid-loop, blocking promotion.
fn blocks_promotion(inst: &Inst) -> bool {
    inst.can_throw_other()
        || matches!(inst, Inst::NullCheck { .. } | Inst::BoundCheck { .. })
        || matches!(inst, Inst::Call { .. } | Inst::Observe { .. })
        || inst.is_exception_site()
}

struct Candidate {
    base: VarId,
    field: FieldId,
}

/// Finds a promotable (base, field) in the loop: all accesses of `field`
/// use the same invariant base variable, at least one is a store, and the
/// loop is free of promotion blockers. Of several, the lowest field id.
fn find_candidate(func: &Function, l: &NaturalLoop) -> Option<Candidate> {
    // Ordered by field id, so the field promoted first does not depend on
    // the process's hash seed.
    let mut by_field: BTreeMap<FieldId, (Option<VarId>, bool, bool)> = BTreeMap::new();
    for bi in l.body.iter() {
        let block = func.block(BlockId::new(bi));
        if block.try_region.is_some() {
            return None;
        }
        for inst in &block.insts {
            if blocks_promotion(inst) {
                return None;
            }
            match inst {
                Inst::GetField { obj, field, .. } => {
                    let e = by_field.entry(*field).or_insert((Some(*obj), false, false));
                    if e.0 != Some(*obj) {
                        e.0 = None; // multiple bases: unpromotable
                    }
                    e.1 = true; // loaded
                }
                Inst::PutField { obj, field, .. } => {
                    let e = by_field.entry(*field).or_insert((Some(*obj), false, false));
                    if e.0 != Some(*obj) {
                        e.0 = None;
                    }
                    e.2 = true; // stored
                }
                _ => {}
            }
        }
    }
    // Invariance of the base + pick a field that is actually stored.
    for (field, (base, _loaded, stored)) in by_field {
        let Some(base) = base else { continue };
        if !stored {
            continue; // plain LICM handles load-only fields
        }
        let base_redefined = l.body.iter().any(|bi| {
            func.block(BlockId::new(bi))
                .insts
                .iter()
                .any(|i| i.def() == Some(base))
        });
        if !base_redefined {
            return Some(Candidate { base, field });
        }
    }
    None
}

/// Applies one promotion.
fn promote(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    l: &NaturalLoop,
    preheader: BlockId,
    cand: &Candidate,
    stats: &mut SinkStats,
) {
    let ty = ctx.module.field_decl(cand.field).ty;
    let tmp = func.new_var(ty);

    // Preheader: t = o.f (the base is proven non-null there — the caller
    // checked — so the bare load cannot fault).
    func.insts_mut(preheader).push(Inst::GetField {
        dst: tmp,
        obj: cand.base,
        field: cand.field,
        exception_site: false,
    });

    // Rewrite in-loop accesses.
    for bi in l.body.iter() {
        for inst in func.insts_mut(BlockId::new(bi)) {
            match inst {
                Inst::GetField {
                    dst, obj, field, ..
                } if *obj == cand.base && *field == cand.field => {
                    *inst = Inst::Move {
                        dst: *dst,
                        src: tmp,
                    };
                    stats.accesses_rewritten += 1;
                }
                Inst::PutField {
                    obj, field, value, ..
                } if *obj == cand.base && *field == cand.field => {
                    *inst = Inst::Move {
                        dst: tmp,
                        src: *value,
                    };
                    stats.accesses_rewritten += 1;
                }
                _ => {}
            }
        }
    }

    // Write back on every loop exit edge: split the edge with a block that
    // stores and jumps on. (Exit blocks can have non-loop predecessors —
    // e.g. the rotation guard's zero-trip path — which must not see the
    // write-back.)
    let mut splitters: std::collections::HashMap<BlockId, BlockId> =
        std::collections::HashMap::new();
    let body_blocks: Vec<BlockId> = l.body.iter().map(BlockId::new).collect();
    for &b in &body_blocks {
        let succs: Vec<BlockId> = func.block(b).term.successors().collect();
        for s in succs {
            if l.contains(s) {
                continue;
            }
            let splitter = *splitters.entry(s).or_insert_with(|| {
                let nb = func.add_block();
                func.block_mut(nb).insts.push(Inst::PutField {
                    obj: cand.base,
                    field: cand.field,
                    value: tmp,
                    exception_site: false,
                });
                func.block_mut(nb).term = Terminator::Goto(s);
                nb
            });
            func.block_mut(b)
                .term
                .map_successors(|t| if t == s { splitter } else { t });
        }
    }
    stats.promoted += 1;
}

/// Runs store sinking on `func` in place, reading the CFG from `cfg` and
/// its loops from `loops` (both revalidated after every promotion, which
/// splits exit edges).
pub fn run(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    cfg: &mut CfgCache,
    loops: &mut LoopCache,
    ws: &mut Workspace,
) -> SinkStats {
    let mut stats = SinkStats::default();
    loop {
        cfg.ensure(func);
        let (_, loops) = loops.get(func, cfg);
        // Solved on the first candidate only: most loops have none.
        let mut nonnull = None;
        let mut applied = false;
        for l in loops {
            let Some(preheader) = l.preheader else {
                continue;
            };
            if func.block(preheader).try_region.is_some() {
                continue;
            }
            let Some(cand) = find_candidate(func, l) else {
                continue;
            };
            let nonnull = nonnull.get_or_insert_with(|| ws.solve_nonnull(func, cfg));
            if !nonnull.outs[preheader.index()].contains(cand.base.index()) {
                continue; // the preheader load could fault
            }
            promote(ctx, func, l, preheader, &cand, &mut stats);
            applied = true;
            break; // CFG changed: recompute loops
        }
        if let Some(sol) = nonnull {
            ws.solver.recycle(sol);
        }
        if !applied {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_core::phase1;
    use njc_ir::{parse_function, verify, Module, Type};

    fn module() -> Module {
        let mut m = Module::new("t");
        m.add_class("A", &[("count", Type::Int)]);
        m
    }

    /// The Figure 4 shape after phase 1: check at the preheader, bare
    /// accesses in the loop.
    const FIG4: &str = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  nullcheck v0
  goto bb1
bb1:
  v2 = getfield v0, field0
  v3 = add.int v2, v2
  putfield v0, field0, v3
  if lt v3, v1 then bb1 else bb2
bb2:
  v2 = getfield v0, field0
  return v2
}";

    #[test]
    fn figure4_field_is_promoted() {
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(FIG4).unwrap();
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
        );
        assert_eq!(stats.promoted, 1, "{f}");
        assert_eq!(stats.accesses_rewritten, 2);
        verify(&f).unwrap();
        // The loop block contains no field accesses any more.
        let loop_block = f.block(BlockId(1));
        assert!(
            loop_block
                .insts
                .iter()
                .all(|i| !matches!(i, Inst::GetField { .. } | Inst::PutField { .. })),
            "{f}"
        );
        // A write-back block exists on the exit edge.
        let has_writeback = f
            .blocks()
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::PutField { .. })));
        assert!(has_writeback, "{f}");
    }

    #[test]
    fn in_loop_null_check_blocks_promotion() {
        // Before phase 1 the check sits in the loop: no promotion (the NPE
        // must see the true heap).
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  goto bb1
bb1:
  nullcheck v0
  v2 = getfield v0, field0
  v3 = add.int v2, v2
  putfield v0, field0, v3
  if lt v3, v1 then bb1 else bb2
bb2:
  return v3
}";
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(src).unwrap();
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
        );
        assert_eq!(stats.promoted, 0, "{f}");
    }

    #[test]
    fn second_base_variable_blocks_promotion() {
        let src = "\
func f(v0: ref, v1: ref, v2: int) -> int {
  locals v3: int v4: int
bb0:
  nullcheck v0
  nullcheck v1
  goto bb1
bb1:
  v3 = getfield v0, field0
  putfield v1, field0, v3
  v4 = add.int v3, v3
  if lt v4, v2 then bb1 else bb2
bb2:
  return v4
}";
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(src).unwrap();
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
        );
        assert_eq!(stats.promoted, 0, "v0 and v1 may alias: {f}");
    }

    #[test]
    fn load_only_field_is_left_to_licm() {
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  nullcheck v0
  v3 = const 0
  goto bb1
bb1:
  v2 = getfield v0, field0
  v3 = add.int v3, v2
  if lt v3, v1 then bb1 else bb2
bb2:
  return v3
}";
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(src).unwrap();
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
        );
        assert_eq!(stats.promoted, 0);
    }

    #[test]
    fn full_pipeline_promotes_figure4_micro() {
        // End to end: phase 1 hoists the checks out of the figure-4 loop,
        // then store sinking promotes the field.
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  goto bb1
bb1:
  nullcheck v0
  v2 = getfield v0, field0
  v3 = add.int v2, v2
  nullcheck v0
  putfield v0, field0, v3
  if lt v3, v1 then bb1 else bb2
bb2:
  return v3
}";
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(src).unwrap();
        phase1::run(&ctx, &mut f);
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
        );
        assert_eq!(stats.promoted, 1, "{f}");
        verify(&f).unwrap();
    }
}
