//! Scalar replacement: redundant load elimination and loop invariant code
//! motion (LICM) of loads, bounds checks, and pure arithmetic.
//!
//! This is the paper's "scalar replacement" partner optimization
//! (Figure 2 (3), Figure 4). The coupling with the null check optimizer is
//! the point of the whole design:
//!
//! * a load of `a.f` may be hoisted to a loop preheader **only when `a` is
//!   known non-null there** — which is exactly what phase 1's backward
//!   check motion establishes (Figure 4 (3) → (4));
//! * on platforms whose protected page does not trap reads (AIX), loads
//!   with a statically known in-page offset may be hoisted **speculatively
//!   across their null checks** (§3.3.1, Figure 6; the "Speculation"
//!   configuration of Tables 6–7);
//! * a bounds check with invariant operands may be hoisted only when no
//!   side effect or other exception can precede it in an iteration — and
//!   in-loop *null checks are throwing instructions*, so un-hoisted null
//!   checks block bounds check hoisting: the baselines' losses compound,
//!   as the paper's Figure 8 discussion explains.
//!
//! Store sinking (the `a.count' = T` rewrite of Figure 4 (5)) lives in the
//! companion [`crate::sink`] pass, which requires the loop to be fully
//! check-free — i.e. it runs after this pass and phase 1 have done their
//! work.

use njc_core::ctx::{AccessClass, AnalysisCtx};
use njc_core::Workspace;
use njc_dataflow::BitSet;
use njc_ir::{BlockId, CfgCache, FieldId, Function, Inst, Type, VarId};

use crate::loops::{LoopCache, NaturalLoop};

/// Configuration for the scalar replacement pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScalarConfig {
    /// Allow speculative hoisting of silent (non-faulting) reads across
    /// their null checks — legal only when the platform does not trap
    /// reads of the protected page (paper §3.3.1).
    pub speculation: bool,
}

/// Statistics from one scalar replacement application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScalarStats {
    /// Loads (getfield / arraylength / array element) hoisted out of loops.
    pub hoisted_loads: usize,
    /// Of which, speculatively (across their null checks).
    pub speculative_loads: usize,
    /// Pure arithmetic instructions hoisted.
    pub hoisted_pure: usize,
    /// Bounds checks hoisted.
    pub hoisted_boundchecks: usize,
    /// Block-local redundant loads replaced by register moves.
    pub local_loads_reused: usize,
}

impl ScalarStats {
    /// Total number of instructions moved or removed.
    pub fn total(&self) -> usize {
        self.hoisted_loads + self.hoisted_pure + self.hoisted_boundchecks + self.local_loads_reused
    }
}

/// Runs scalar replacement on `func` in place, reading the CFG from `cfg`
/// (revalidated first) and its loops from `loops`. Loads are only
/// rewritten or moved between blocks, never edges, so both caches stay
/// fresh.
pub fn run(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    cfg: &mut CfgCache,
    loops: &mut LoopCache,
    ws: &mut Workspace,
    config: ScalarConfig,
) -> ScalarStats {
    let mut stats = ScalarStats::default();
    local_load_reuse(func, &mut stats);
    cfg.ensure(func);
    licm(ctx, func, cfg, loops, ws, config, &mut stats);
    stats
}

// --------------------------------------------------------------------------
// Block-local redundant load elimination (store-to-load forwarding included).
// --------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum MemKey {
    Field(VarId, FieldId),
    Len(VarId),
    Elem(VarId, VarId),
}

impl MemKey {
    fn involves(&self, v: VarId) -> bool {
        match *self {
            MemKey::Field(b, _) => b == v,
            MemKey::Len(b) => b == v,
            MemKey::Elem(b, i) => b == v || i == v,
        }
    }
}

fn local_load_reuse(func: &mut Function, stats: &mut ScalarStats) {
    use std::collections::HashMap;
    let mut avail: HashMap<MemKey, VarId> = HashMap::new();
    for bi in 0..func.num_blocks() {
        avail.clear();
        for inst in func.insts_mut(BlockId::new(bi)) {
            // Never touch a marked exception site: it carries an implicit
            // null check (scalar replacement runs before phase 2 in the
            // pipeline, but be safe under arbitrary pass orders).
            if inst.is_exception_site() {
                avail.clear();
                continue;
            }
            // 1. Replace a load whose value is already available.
            let load_key = match inst {
                Inst::GetField {
                    dst, obj, field, ..
                } => Some((MemKey::Field(*obj, *field), *dst)),
                Inst::ArrayLength { dst, arr, .. } => Some((MemKey::Len(*arr), *dst)),
                Inst::ArrayLoad {
                    dst, arr, index, ..
                } => Some((MemKey::Elem(*arr, *index), *dst)),
                _ => None,
            };
            let mut still_a_load = None;
            if let Some((key, dst)) = load_key {
                match avail.get(&key) {
                    Some(&tmp) if tmp != dst => {
                        *inst = Inst::Move { dst, src: tmp };
                        stats.local_loads_reused += 1;
                    }
                    _ => still_a_load = Some((key, dst)),
                }
            }
            // 2. Store / call invalidation.
            let mut forward = None;
            match inst {
                Inst::PutField {
                    obj, field, value, ..
                } => {
                    // A store invalidates every entry for the same field
                    // (any base may alias), then forwards its own value.
                    let field = *field;
                    forward = Some((MemKey::Field(*obj, field), *value));
                    avail.retain(|k, _| !matches!(k, MemKey::Field(_, f) if *f == field));
                }
                Inst::ArrayStore {
                    arr, index, value, ..
                } => {
                    forward = Some((MemKey::Elem(*arr, *index), *value));
                    avail.retain(|k, _| !matches!(k, MemKey::Elem(_, _)));
                }
                Inst::Call { .. } => avail.clear(),
                _ => {}
            }
            // 3. Definition invalidation (before recording this
            //    instruction's own availability).
            if let Some(d) = inst.def() {
                avail.retain(|k, v| *v != d && !k.involves(d));
            }
            // 4. Record new availability.
            if let Some((key, dst)) = still_a_load {
                avail.insert(key, dst);
            }
            if let Some((key, value)) = forward {
                avail.insert(key, value);
            }
        }
    }
}

// --------------------------------------------------------------------------
// Loop invariant code motion.
// --------------------------------------------------------------------------

/// Per-function def counts (vars defined more than once are never hoisted —
/// the builder gives loads fresh temporaries, so this loses nothing on
/// real workloads and keeps the legality argument trivial).
fn def_counts(func: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; func.num_vars()];
    for c in counts.iter_mut().take(func.params().len()) {
        *c += 1;
    }
    for b in func.blocks() {
        for inst in &b.insts {
            if let Some(d) = inst.def() {
                counts[d.index()] += 1;
            }
        }
    }
    counts
}

struct LoopInfo {
    /// Vars defined anywhere in the loop.
    defined_in_loop: BitSet,
    /// Field ids stored to in the loop.
    stored_fields: Vec<FieldId>,
    /// Element types stored to in the loop. Array stores only alias array
    /// loads of the same element type (Java arrays are homogeneous, so an
    /// `int[]` store can never change what a `Object[]` row-pointer load
    /// sees) — the disambiguation that lets row pointers hoist out of
    /// loops that store into the rows.
    stored_array_types: Vec<Type>,
    /// Whether the loop contains any call.
    has_call: bool,
}

fn loop_info(func: &Function, l: &NaturalLoop) -> LoopInfo {
    let mut defined = BitSet::new(func.num_vars());
    let mut stored_fields = Vec::new();
    let mut stored_array_types = Vec::new();
    let mut has_call = false;
    for bi in l.body.iter() {
        for inst in &func.block(BlockId::new(bi)).insts {
            if let Some(d) = inst.def() {
                defined.insert(d.index());
            }
            match inst {
                Inst::PutField { field, .. } => stored_fields.push(*field),
                Inst::ArrayStore { ty, .. } if !stored_array_types.contains(ty) => {
                    stored_array_types.push(*ty);
                }
                Inst::Call { .. } => has_call = true,
                _ => {}
            }
        }
    }
    LoopInfo {
        defined_in_loop: defined,
        stored_fields,
        stored_array_types,
        has_call,
    }
}

/// Blocks of the loop that can execute before `target` within a single
/// iteration (backward reachability from `target` inside the loop, not
/// following edges into the header).
fn blocks_before(func: &Function, cfg: &CfgCache, l: &NaturalLoop, target: BlockId) -> BitSet {
    let preds = cfg.preds();
    let mut seen = BitSet::new(func.num_blocks());
    if target == l.header {
        // Nothing in the loop executes before the header within one
        // iteration (in-loop predecessors of the header are back edges).
        return seen;
    }
    let mut stack: Vec<BlockId> = preds[target.index()]
        .iter()
        .copied()
        .filter(|p| l.contains(*p))
        .collect();
    while let Some(x) = stack.pop() {
        if !seen.insert(x.index()) {
            continue;
        }
        if x == l.header {
            continue; // don't walk past the iteration start
        }
        for &p in &preds[x.index()] {
            if l.contains(p) {
                stack.push(p);
            }
        }
    }
    seen
}

/// Whether `inst` can throw or have a side effect — the condition that
/// blocks *check* hoisting past it (any exception reordering or skipped
/// effect would be observable).
fn blocks_check_hoist(inst: &Inst) -> bool {
    inst.is_side_effecting()
        || matches!(inst, Inst::NullCheck { .. } | Inst::BoundCheck { .. })
        || inst.is_exception_site()
}

/// Bounds facts available at the end of the preheader: scans for
/// `len = arraylength A` / `boundcheck I, len` pairs along the chain of
/// single-predecessor blocks ending at the preheader (facts established in
/// the blocks dominating the loop entry — e.g. an outer loop's body —
/// count too). Facts are invalidated by redefinition of any participating
/// variable later in the chain.
fn preheader_bounds(
    func: &Function,
    cfg: &CfgCache,
    preheader: BlockId,
    ok: &mut Vec<(VarId, VarId)>,
    len_of: &mut Vec<(VarId, VarId)>,
) {
    // Collect the dominating single-pred chain, oldest last.
    let preds = cfg.preds();
    let mut chain = [preheader; 5];
    let mut depth = 1;
    let mut cur = preheader;
    for _ in 0..4 {
        match preds[cur.index()].as_slice() {
            [p] if *p != cur && !chain[..depth].contains(p) => {
                chain[depth] = *p;
                depth += 1;
                cur = *p;
            }
            _ => break,
        }
    }
    // `len_of` maps an array length's variable to its array; the chain
    // is a handful of blocks, so a list beats a map.
    len_of.clear();
    ok.clear();
    for &b in chain[..depth].iter().rev() {
        for inst in &func.block(b).insts {
            match inst {
                Inst::ArrayLength { dst, arr, .. } => match len_of.iter_mut().find(|e| e.0 == *dst)
                {
                    Some(e) => e.1 = *arr,
                    None => len_of.push((*dst, *arr)),
                },
                Inst::BoundCheck { index, length } => {
                    if let Some(&(_, arr)) = len_of.iter().find(|e| e.0 == *length) {
                        ok.push((*index, arr));
                    }
                }
                _ => {}
            }
            if let Some(d) = inst.def() {
                if !matches!(inst, Inst::ArrayLength { .. }) {
                    len_of.retain(|e| e.0 != d);
                }
                // A redefinition of an index or base var invalidates facts
                // about it.
                ok.retain(|(i, a)| *i != d && *a != d);
            }
        }
    }
}

/// `cfg` must be fresh for `func`, and `loop_cache` serves its dominators
/// and natural loops; hoisting moves instructions only, so all three stay
/// fresh throughout.
fn licm(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    cfg: &CfgCache,
    loop_cache: &mut LoopCache,
    ws: &mut Workspace,
    config: ScalarConfig,
    stats: &mut ScalarStats,
) {
    let (doms, loops) = loop_cache.get(func, cfg);
    let counts = def_counts(func);
    let mut nonnull_sol = None;
    let (mut bounds, mut len_of) = (Vec::new(), Vec::new());

    for l in loops {
        let Some(preheader) = l.preheader else {
            continue;
        };
        // Non-nullness at the preheader exit: the precondition for hoisting
        // a load past the loop (phase 1 is what puts checks there). The
        // solution depends only on the function, so it is re-solved only
        // after an earlier loop hoisted something.
        let sol = match &nonnull_sol {
            Some(sol) => sol,
            None => nonnull_sol.insert(ws.solve_nonnull(func, cfg)),
        };
        let nonnull = sol.outs[preheader.index()].clone();
        let mut info = loop_info(func, l);

        // Fixpoint: hoisting one instruction can enable another (length →
        // bounds check → element load).
        loop {
            let mut hoisted_one = false;
            // Re-scan preheader bounds each round (hoists add to it).
            preheader_bounds(func, cfg, preheader, &mut bounds, &mut len_of);

            'scan: for bi in l.body.iter() {
                let block_id = BlockId::new(bi);
                let insts_len = func.block(block_id).insts.len();
                for pos in 0..insts_len {
                    let inst = &func.block(block_id).insts[pos];
                    if inst.is_exception_site() {
                        continue;
                    }
                    let single_def = |d: VarId| counts[d.index()] == 1;
                    let invariant = |v: VarId| !info.defined_in_loop.contains(v.index());
                    let ok = match inst {
                        Inst::Const { dst, .. } => single_def(*dst),
                        Inst::Move { dst, src } => single_def(*dst) && invariant(*src),
                        Inst::BinOp {
                            dst,
                            op,
                            lhs,
                            rhs,
                            ty,
                        } => {
                            !op.can_throw(*ty)
                                && single_def(*dst)
                                && invariant(*lhs)
                                && invariant(*rhs)
                        }
                        Inst::Neg { dst, src, .. }
                        | Inst::Convert { dst, src, .. }
                        | Inst::IntrinsicOp { dst, src, .. } => single_def(*dst) && invariant(*src),
                        Inst::FCmp { dst, lhs, rhs, .. } => {
                            single_def(*dst) && invariant(*lhs) && invariant(*rhs)
                        }
                        Inst::GetField {
                            dst, obj, field, ..
                        } => {
                            single_def(*dst)
                                && invariant(*obj)
                                && !info.has_call
                                && !info.stored_fields.contains(field)
                                && load_hoist_legal(ctx, inst, *obj, &nonnull, config)
                        }
                        Inst::ArrayLength { dst, arr, .. } => {
                            single_def(*dst)
                                && invariant(*arr)
                                && !info.has_call
                                && load_hoist_legal(ctx, inst, *arr, &nonnull, config)
                        }
                        Inst::ArrayLoad {
                            dst,
                            arr,
                            index,
                            ty,
                            ..
                        } => {
                            single_def(*dst)
                                && invariant(*arr)
                                && invariant(*index)
                                && !info.has_call
                                && !info.stored_array_types.contains(ty)
                                // Element offsets are dynamic: only a proven
                                // non-null base AND proven bounds make the
                                // hoisted load non-faulting.
                                && nonnull.contains(arr.index())
                                && bounds.contains(&(*index, *arr))
                        }
                        Inst::BoundCheck { index, length } => {
                            invariant(*index)
                                && invariant(*length)
                                && l.latches.iter().all(|&la| doms.dominates(block_id, la))
                                && check_hoist_anticipated(func, cfg, l, block_id, pos)
                        }
                        _ => false,
                    };
                    if !ok {
                        continue;
                    }
                    // Hoist: remove from the loop block, append to the
                    // preheader. The definition leaves the loop, so its
                    // destination becomes invariant for later rounds.
                    let inst = func.insts_mut(block_id).remove(pos);
                    if let Some(d) = inst.def() {
                        info.defined_in_loop.remove(d.index());
                    }
                    match &inst {
                        Inst::GetField { obj, .. } => {
                            stats.hoisted_loads += 1;
                            if !nonnull.contains(obj.index()) {
                                stats.speculative_loads += 1;
                            }
                        }
                        Inst::ArrayLength { arr, .. } => {
                            stats.hoisted_loads += 1;
                            if !nonnull.contains(arr.index()) {
                                stats.speculative_loads += 1;
                            }
                        }
                        Inst::ArrayLoad { .. } => stats.hoisted_loads += 1,
                        Inst::BoundCheck { .. } => stats.hoisted_boundchecks += 1,
                        _ => stats.hoisted_pure += 1,
                    }
                    func.insts_mut(preheader).push(inst);
                    if let Some(sol) = nonnull_sol.take() {
                        ws.solver.recycle(sol);
                    }
                    hoisted_one = true;
                    // Positions shifted: restart the scan.
                    break 'scan;
                }
            }
            if !hoisted_one {
                break;
            }
        }
    }
    if let Some(sol) = nonnull_sol {
        ws.solver.recycle(sol);
    }
}

/// Legality of hoisting a load with statically-known offset to the
/// preheader: either the base is proven non-null there, or the read is
/// silent on this platform and speculation is enabled.
fn load_hoist_legal(
    ctx: &AnalysisCtx<'_>,
    inst: &Inst,
    base: VarId,
    nonnull: &BitSet,
    config: ScalarConfig,
) -> bool {
    if nonnull.contains(base.index()) {
        return true;
    }
    if !config.speculation {
        return false;
    }
    matches!(ctx.classify_access(inst), Some((_, AccessClass::Silent)))
}

/// Whether a check at `(block, pos)` executes before any side effect or
/// other exception in every iteration — the condition for hoisting it to
/// the preheader (the AIOOBE may only move earlier past non-observable
/// work).
fn check_hoist_anticipated(
    func: &Function,
    cfg: &CfgCache,
    l: &NaturalLoop,
    block: BlockId,
    pos: usize,
) -> bool {
    // Instructions before it in its own block.
    for inst in &func.block(block).insts[..pos] {
        if blocks_check_hoist(inst) {
            return false;
        }
    }
    // Whole blocks that can execute before it in the iteration.
    let before = blocks_before(func, cfg, l, block);
    for bi in before.iter() {
        if bi == block.index() {
            // A cycle within the loop body reaching back — conservative.
            return false;
        }
        for inst in &func.block(BlockId::new(bi)).insts {
            if blocks_check_hoist(inst) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_core::phase1;
    use njc_ir::{parse_function, verify, Module, Type};

    fn module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f", Type::Int), ("g", Type::Int)]);
        m
    }

    const LOOP_SRC: &str = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int v4: int
bb0:
  v2 = const 0
  goto bb1
bb1:
  nullcheck v0
  v3 = getfield v0, field0
  v2 = add.int v2, v3
  if lt v2, v1 then bb1 else bb2
bb2:
  return v2
}";

    #[test]
    fn load_not_hoisted_without_nullcheck_hoist() {
        // Without phase 1, the check sits inside the loop, the base is not
        // non-null at the preheader, and the load must stay.
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(LOOP_SRC).unwrap();
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
            ScalarConfig::default(),
        );
        assert_eq!(stats.hoisted_loads, 0, "{f}");
    }

    #[test]
    fn load_hoisted_after_phase1() {
        // Figure 4: phase 1 hoists the check; then the load becomes
        // hoistable.
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(LOOP_SRC).unwrap();
        phase1::run(&ctx, &mut f);
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
            ScalarConfig::default(),
        );
        assert_eq!(stats.hoisted_loads, 1, "{f}");
        verify(&f).unwrap();
        // The load now sits in bb0 next to the hoisted check.
        assert!(f
            .block(BlockId(0))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::GetField { .. })));
    }

    #[test]
    fn speculation_hoists_silent_read_on_aix() {
        // §3.3.1/Table 6: on AIX the read cannot trap, so with speculation
        // enabled it hoists even though its null check is still in the loop.
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::aix_ppc());
        let mut f = parse_function(LOOP_SRC).unwrap();
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
            ScalarConfig { speculation: true },
        );
        assert_eq!(stats.hoisted_loads, 1, "{f}");
        assert_eq!(stats.speculative_loads, 1);
        // Without speculation it must stay.
        let mut f2 = parse_function(LOOP_SRC).unwrap();
        let stats2 = run(
            &ctx,
            &mut f2,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
            ScalarConfig { speculation: false },
        );
        assert_eq!(stats2.hoisted_loads, 0);
    }

    #[test]
    fn no_speculation_on_windows_where_reads_trap() {
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(LOOP_SRC).unwrap();
        // Even with the flag on, a trapping read cannot be speculated.
        let stats = run(
            &ctx,
            &mut f,
            &mut CfgCache::new(),
            &mut LoopCache::new(),
            &mut Workspace::new(),
            ScalarConfig { speculation: true },
        );
        assert_eq!(stats.hoisted_loads, 0, "{f}");
    }

    #[test]
    fn store_to_same_field_blocks_hoist() {
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  nullcheck v0
  v3 = getfield v0, field0
  v2 = const 0
  goto bb1
bb1:
  nullcheck v0
  v3 = getfield v0, field0
  v2 = add.int v2, v3
  nullcheck v0
  putfield v0, field0, v2
  if lt v2, v1 then bb1 else bb2
bb2:
  return v2
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
            ScalarConfig::default(),
        );
        assert_eq!(stats.hoisted_loads, 0, "aliasing store blocks hoist: {f}");
    }

    #[test]
    fn local_load_reuse_within_block() {
        let src = "\
func f(v0: ref) -> int {
  locals v1: int v2: int v3: int
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  nullcheck v0
  v2 = getfield v0, field0
  v3 = add.int v1, v2
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
            ScalarConfig::default(),
        );
        assert_eq!(stats.local_loads_reused, 1, "{f}");
        verify(&f).unwrap();
        assert!(f
            .block(BlockId(0))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Move { .. })));
    }

    #[test]
    fn store_forwarding_feeds_following_load() {
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int
bb0:
  nullcheck v0
  putfield v0, field0, v1
  nullcheck v0
  v2 = getfield v0, field0
  return v2
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
            ScalarConfig::default(),
        );
        assert_eq!(stats.local_loads_reused, 1, "{f}");
    }

    #[test]
    fn intervening_store_blocks_local_reuse() {
        let src = "\
func f(v0: ref, v1: ref) -> int {
  locals v2: int v3: int v4: int
bb0:
  nullcheck v0
  v2 = getfield v0, field0
  nullcheck v1
  putfield v1, field0, v2
  nullcheck v0
  v3 = getfield v0, field0
  v4 = add.int v2, v3
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
            ScalarConfig::default(),
        );
        // v1 may alias v0: the second load must not reuse v2. (The store
        // forwards its own value under key (v1, field0) only.)
        assert_eq!(stats.local_loads_reused, 0, "{f}");
    }

    #[test]
    fn row_pointer_pattern_hoists_length_check_and_load() {
        // The 2-D array pattern of Assignment / Neural Net / LU: a[i] is
        // invariant in the inner loop. After phase 1 the whole access
        // sequence (length, bounds check, element load) hoists.
        let src = "\
func f(v0: ref, v1: int, v9: int) -> int {
  locals v2: int v3: int v4: ref v5: int v6: int v7: int v8: int
bb0:
  v2 = const 0
  v3 = const 0
  goto bb1
bb1:
  nullcheck v0
  v5 = arraylength v0
  boundcheck v9, v5
  v4 = aload.ref v0[v9]
  nullcheck v4
  v6 = arraylength v4
  boundcheck v3, v6
  v7 = aload.int v4[v3]
  v2 = add.int v2, v7
  v3 = add.int v3, v3
  if lt v3, v1 then bb1 else bb2
bb2:
  return v2
}";
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(src).unwrap();
        // Iterate phase 1 with scalar replacement, as Figure 2 prescribes:
        // round 1 hoists the check of v0, the row length/bounds/load;
        // round 2 hoists the check of the (now invariant) row v4 and then
        // its arraylength.
        let mut total = ScalarStats::default();
        for _ in 0..2 {
            phase1::run(&ctx, &mut f);
            let s = run(
                &ctx,
                &mut f,
                &mut CfgCache::new(),
                &mut LoopCache::new(),
                &mut Workspace::new(),
                ScalarConfig::default(),
            );
            total.hoisted_loads += s.hoisted_loads;
            total.hoisted_boundchecks += s.hoisted_boundchecks;
        }
        // arraylength v0, aload v0[v9] (row), arraylength v4 — but not the
        // inner element load (v3 varies).
        assert!(total.hoisted_loads >= 3, "hoisted {total:?}: {f}");
        assert_eq!(total.hoisted_boundchecks, 1, "{f}");
        verify(&f).unwrap();
    }

    #[test]
    fn variant_index_load_stays() {
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int v4: int v5: int
bb0:
  nullcheck v0
  v4 = arraylength v0
  v2 = const 0
  v3 = const 0
  goto bb1
bb1:
  nullcheck v0
  v4 = arraylength v0
  boundcheck v3, v4
  v5 = aload.int v0[v3]
  v2 = add.int v2, v5
  v3 = add.int v3, v3
  if lt v3, v1 then bb1 else bb2
bb2:
  return v2
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
            ScalarConfig::default(),
        );
        // v3 (index) varies: the element load and bounds check stay.
        assert_eq!(stats.hoisted_boundchecks, 0, "{f}");
        assert!(f
            .block(BlockId(1))
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ArrayLoad { .. })));
    }
}
