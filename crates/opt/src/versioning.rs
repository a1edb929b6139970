//! Loop versioning for array bounds check elimination — the paper's
//! "array bounds check optimization" (Figure 2 (2)).
//!
//! For a canonical rotated counted loop
//!
//! ```text
//!        if i < end goto preheader else exit     // rotation guard
//! preheader: ...
//! body:  ... boundcheck i, L ... ; i = i + step ; if i < end goto body else exit
//! ```
//!
//! with `end` and `L` loop invariant and `step > 0`, the loop is duplicated
//! behind a runtime guard `i >= 0 && end <= L`: the *fast* version drops
//! the counter-indexed bounds checks (provably in range), the *slow*
//! version is the unmodified original.
//!
//! **The null check coupling** (paper §3.2): the guard compares against
//! `L`, an `arraylength` value — which is only available at the preheader
//! when scalar replacement hoisted the length load there, which in turn is
//! only legal once phase 1 moved the array's *null check* to the
//! preheader. Configurations without backward null check motion therefore
//! get little or no versioning: null checks really do "become barriers
//! and significantly limit the effectiveness of other optimizations"
//! (paper §1).

use njc_ir::{BlockId, CfgCache, Cond, ConstValue, Function, Inst, Terminator, Type, VarId};

use crate::loops::{LoopCache, NaturalLoop};

/// Statistics from one versioning application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VersioningStats {
    /// Loops duplicated behind a bounds guard.
    pub loops_versioned: usize,
    /// Bounds checks removed from fast versions.
    pub checks_removed: usize,
}

/// Block-count ceiling: versioning doubles loop bodies, so cap code growth.
const MAX_BLOCKS: usize = 600;

struct Plan {
    preheader: BlockId,
    header: BlockId,
    latch: BlockId,
    body: Vec<BlockId>,
    counter: VarId,
    end: VarId,
    /// Distinct invariant length vars to guard against `end`.
    lengths: Vec<VarId>,
    /// (block, position) of each removable bounds check.
    removable: Vec<(BlockId, usize)>,
}

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

/// Recognizes the canonical counter: the latch ends with
/// `if lt i, end then header else ...` and contains the loop's only def of
/// `i`, an `i = i + c` with `c` a locally-defined positive constant,
/// positioned after every removable check in the latch.
fn recognize(func: &Function, cfg: &CfgCache, l: &NaturalLoop, counts: &[u32]) -> Option<Plan> {
    let preheader = l.preheader?;
    let [latch] = l.latches.as_slice() else {
        return None;
    };
    let latch = *latch;
    // No try regions anywhere near.
    if func.block(preheader).try_region.is_some() {
        return None;
    }
    for bi in l.body.iter() {
        if func.block(BlockId::new(bi)).try_region.is_some() {
            return None;
        }
    }
    let Terminator::If {
        cond: Cond::Lt,
        lhs: counter,
        rhs: end,
        then_bb,
        ..
    } = func.block(latch).term
    else {
        return None;
    };
    if then_bb != l.header {
        return None;
    }
    // `end` invariant in the loop.
    for bi in l.body.iter() {
        for inst in &func.block(BlockId::new(bi)).insts {
            if inst.def() == Some(end) {
                return None;
            }
        }
    }
    // The rotation guard: the preheader's single predecessor tests
    // `i < end`, guaranteeing the bound holds on the *first* iteration
    // too. Copy propagation may have rewritten the guard's operand to the
    // counter's initializer, so also accept the source of the counter's
    // last copy in the guard block.
    let [guard_pred] = cfg.preds()[preheader.index()].as_slice() else {
        return None;
    };
    let guard_block = func.block(*guard_pred);
    let mut counter_alias = None;
    for inst in &guard_block.insts {
        if inst.def() == Some(counter) {
            counter_alias = match inst {
                Inst::Move { src, .. } => Some(*src),
                _ => None,
            };
        } else if let Some(d) = inst.def() {
            if Some(d) == counter_alias {
                counter_alias = None; // alias overwritten after the copy
            }
        }
    }
    match guard_block.term {
        Terminator::If {
            cond: Cond::Lt,
            lhs,
            rhs,
            then_bb,
            ..
        } if (lhs == counter || Some(lhs) == counter_alias)
            && rhs == end
            && then_bb == preheader => {}
        _ => return None,
    }
    // Skip loops already versioned: some predecessor of the preheader's
    // guard chain compares `end` against a length (Gt end, L).
    for &p in &cfg.preds()[preheader.index()] {
        if let Terminator::If {
            cond: Cond::Gt,
            lhs,
            ..
        } = func.block(p).term
        {
            if lhs == end {
                return None;
            }
        }
    }

    // The counter's single in-loop def: `i = i + positive-const` in the
    // latch.
    let mut inc_pos = None;
    for bi in l.body.iter() {
        let block = func.block(BlockId::new(bi));
        for (pos, inst) in block.insts.iter().enumerate() {
            if inst.def() == Some(counter) {
                if BlockId::new(bi) != latch || inc_pos.is_some() {
                    return None;
                }
                let Inst::BinOp {
                    op: njc_ir::Op::Add,
                    lhs,
                    rhs,
                    ..
                } = inst
                else {
                    return None;
                };
                if *lhs != counter {
                    return None;
                }
                // rhs must be a positive constant: single definition in the
                // whole function (LICM may have hoisted it out of the
                // latch) and that definition is a positive int const.
                if counts[rhs.index()] != 1 {
                    return None;
                }
                let step_ok = func.blocks().iter().flat_map(|bb| &bb.insts).any(|i| {
                    matches!(
                        i,
                        Inst::Const {
                            dst,
                            value: ConstValue::Int(s),
                        } if dst == rhs && *s > 0
                    )
                });
                if !step_ok {
                    return None;
                }
                inc_pos = Some(pos);
            }
        }
    }
    let inc_pos = inc_pos?;

    // Collect removable bounds checks: index == counter, invariant
    // single-def length, positioned before the increment when in the latch.
    let mut removable = Vec::new();
    let mut lengths = Vec::new();
    for bi in l.body.iter() {
        let block_id = BlockId::new(bi);
        for (pos, inst) in func.block(block_id).insts.iter().enumerate() {
            let Inst::BoundCheck { index, length } = inst else {
                continue;
            };
            if *index != counter || counts[length.index()] != 1 {
                continue;
            }
            // Length defined outside the loop.
            let defined_in_loop = l.body.iter().any(|b2| {
                func.block(BlockId::new(b2))
                    .insts
                    .iter()
                    .any(|i| i.def() == Some(*length))
            });
            if defined_in_loop {
                continue;
            }
            if block_id == latch && pos > inc_pos {
                continue;
            }
            removable.push((block_id, pos));
            if !lengths.contains(length) {
                lengths.push(*length);
            }
        }
    }
    if removable.is_empty() {
        return None;
    }

    Some(Plan {
        preheader,
        header: l.header,
        latch,
        body: l.body.iter().map(BlockId::new).collect(),
        counter,
        end,
        lengths,
        removable,
    })
}

fn remap_term_targets(term: &mut Terminator, map: &dyn Fn(BlockId) -> BlockId) {
    term.map_successors(map);
}

fn apply(func: &mut Function, plan: &Plan, stats: &mut VersioningStats) {
    let _ = plan.latch;
    // Clone the loop body (fast version, bounds checks removed).
    let mut clone_of = std::collections::HashMap::new();
    for &b in &plan.body {
        clone_of.insert(b, func.add_block());
    }
    for &b in &plan.body {
        let nb = clone_of[&b];
        let src = func.block(b).clone();
        let mut insts = Vec::with_capacity(src.insts.len());
        for (pos, inst) in src.insts.iter().enumerate() {
            if plan.removable.contains(&(b, pos)) {
                stats.checks_removed += 1;
                continue;
            }
            insts.push(inst.clone());
        }
        let mut term = src.term.clone();
        remap_term_targets(&mut term, &|t| clone_of.get(&t).copied().unwrap_or(t));
        let dst = func.block_mut(nb);
        dst.insts = insts;
        dst.term = term;
        dst.try_region = None;
    }

    // Landing pads.
    let slow_ph = func.add_block();
    func.block_mut(slow_ph).term = Terminator::Goto(plan.header);
    let fast_ph = func.add_block();
    func.block_mut(fast_ph).term = Terminator::Goto(clone_of[&plan.header]);

    // Guard chain in the preheader: `i < 0 → slow`, then per length
    // `end > L → slow`, else fast.
    let zero = func.new_var(Type::Int);
    func.insts_mut(plan.preheader).push(Inst::Const {
        dst: zero,
        value: ConstValue::Int(0),
    });
    // Build guard blocks back to front.
    let mut next = fast_ph;
    for &len in plan.lengths.iter().rev() {
        let g = func.add_block();
        func.block_mut(g).term = Terminator::If {
            cond: Cond::Gt,
            lhs: plan.end,
            rhs: len,
            then_bb: slow_ph,
            else_bb: next,
        };
        next = g;
    }
    func.block_mut(plan.preheader).term = Terminator::If {
        cond: Cond::Lt,
        lhs: plan.counter,
        rhs: zero,
        then_bb: slow_ph,
        else_bb: next,
    };
    stats.loops_versioned += 1;
}

/// Runs loop versioning on `func` in place, reading the CFG from `cfg` and
/// its loops from `loops` (both revalidated after every versioned loop,
/// which adds blocks).
pub fn run(func: &mut Function, cfg: &mut CfgCache, loops: &mut LoopCache) -> VersioningStats {
    let mut stats = VersioningStats::default();
    for _round in 0..4 {
        if func.num_blocks() >= MAX_BLOCKS {
            break;
        }
        cfg.ensure(func);
        let (_, loops) = loops.get(func, cfg);
        let counts = def_counts(func);
        let plan = loops.iter().find_map(|l| recognize(func, cfg, l, &counts));
        match plan {
            Some(p) => apply(func, &p, &mut stats),
            None => break,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::{verify, FuncBuilder, Op};

    /// sum = Σ arr[i] with the length pre-hoisted to the preheader (as
    /// phase 1 + scalar replacement leave it).
    fn hoisted_loop() -> Function {
        let mut b = FuncBuilder::new("f", &[Type::Ref, Type::Int], Type::Int);
        let arr = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        // Manually build the post-phase1 shape: check + length at the
        // preheader, bare loads in the loop.
        let i = b.var(Type::Int);
        b.assign(i, zero);
        let preheader = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br_if(Cond::Lt, i, n, preheader, exit);
        b.switch_to(preheader);
        b.null_check(arr);
        let len = b.array_length_unchecked(arr);
        b.goto(body);
        b.switch_to(body);
        b.emit(Inst::BoundCheck {
            index: i,
            length: len,
        });
        let v = b.var(Type::Int);
        b.emit(Inst::ArrayLoad {
            dst: v,
            arr,
            index: i,
            ty: Type::Int,
            exception_site: false,
        });
        b.binop_into(acc, Op::Add, acc, v);
        let one = b.iconst(1);
        b.binop_into(i, Op::Add, i, one);
        b.br_if(Cond::Lt, i, n, body, exit);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn counter_indexed_check_is_versioned_away() {
        let mut f = hoisted_loop();
        let before_blocks = f.num_blocks();
        let stats = run(&mut f, &mut CfgCache::new(), &mut LoopCache::new());
        assert_eq!(stats.loops_versioned, 1, "{f}");
        assert_eq!(stats.checks_removed, 1);
        assert!(f.num_blocks() > before_blocks);
        verify(&f).unwrap();
        // One loop body still has the check (slow), one does not (fast).
        let with_check = f
            .blocks()
            .iter()
            .filter(|b| b.insts.iter().any(|i| matches!(i, Inst::BoundCheck { .. })))
            .count();
        assert_eq!(with_check, 1, "{f}");
    }

    #[test]
    fn second_run_is_idempotent() {
        let mut f = hoisted_loop();
        run(&mut f, &mut CfgCache::new(), &mut LoopCache::new());
        let blocks = f.num_blocks();
        let stats = run(&mut f, &mut CfgCache::new(), &mut LoopCache::new());
        assert_eq!(stats.loops_versioned, 0, "{f}");
        assert_eq!(f.num_blocks(), blocks);
    }

    #[test]
    fn length_inside_loop_blocks_versioning() {
        // The Old-config shape: the arraylength stays inside the loop (its
        // null check was never hoisted) — no guard can be formed.
        let mut b = FuncBuilder::new("f", &[Type::Ref, Type::Int], Type::Int);
        let arr = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        b.for_loop(zero, n, 1, |b, i| {
            let v = b.array_load(arr, i, Type::Int); // length load in-loop
            b.binop_into(acc, Op::Add, acc, v);
        });
        b.ret(Some(acc));
        let mut f = b.finish();
        let stats = run(&mut f, &mut CfgCache::new(), &mut LoopCache::new());
        assert_eq!(stats.loops_versioned, 0, "{f}");
    }

    #[test]
    fn variant_end_blocks_versioning() {
        let mut b = FuncBuilder::new("f", &[Type::Ref, Type::Int], Type::Int);
        let arr = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        let end = b.var(Type::Int);
        b.assign(end, n);
        b.for_loop(zero, end, 1, |b, i| {
            let v = b.array_load(arr, i, Type::Int);
            b.binop_into(acc, Op::Add, acc, v);
            // end changes inside the loop.
            let one = b.iconst(1);
            b.binop_into(end, Op::Sub, end, one);
        });
        b.ret(Some(acc));
        let mut f = b.finish();
        let stats = run(&mut f, &mut CfgCache::new(), &mut LoopCache::new());
        assert_eq!(stats.loops_versioned, 0);
    }

    #[test]
    fn versioned_function_verifies_and_keeps_shape() {
        let mut f = hoisted_loop();
        run(&mut f, &mut CfgCache::new(), &mut LoopCache::new());
        verify(&f).unwrap();
        // The guard chain exists: some block compares end (v1) with Gt.
        let has_guard = f
            .blocks()
            .iter()
            .any(|b| matches!(b.term, Terminator::If { cond: Cond::Gt, .. }));
        assert!(has_guard, "{f}");
    }
}
