//! Phase 2 — the architecture *dependent* null check optimization
//! (paper §4.2).
//!
//! All null checks are treated as explicit and moved **forward** to the
//! latest points they can reach (§4.2.1); at each stopping point the check
//! is either **converted to an implicit null check** — no instruction, the
//! following guaranteed-trapping slot access is marked as the exception
//! site — or re-materialized as an explicit check. Finally, explicit checks
//! that are *substitutable* (covered on every path below by another check
//! or a trapping access, with no intervening side effect) are eliminated
//! (§4.2.2).
//!
//! ## Safety refinements over the paper's pseudocode
//!
//! * The forward motion analysis uses an **intersection** meet: a check is
//!   delayed into a block only when it is pending on *every* incoming path,
//!   so inserted checks never execute on a path that had none (the classic
//!   PRE down-safety condition; with a union meet a spurious
//!   `NullPointerException` could be introduced at a merge).
//! * A slot access of the checked variable that is **not** guaranteed to
//!   trap (array element access, "BigOffset" field, AIX reads beyond the
//!   page) is handled by [`crate::ctx::AccessClass`]:
//!   `Hazard` accesses force an explicit check immediately before them
//!   (sinking past would turn a precise NPE into a wild access), while
//!   `Silent` accesses (AIX reads of the protected page) are transparent —
//!   the check may sink right past them, which is what makes the paper's
//!   read speculation story work.
//! * After the rewrite, **every guaranteed-trapping access is marked as an
//!   exception site**. The paper marks selectively to keep instruction
//!   scheduling unconstrained; we do not model scheduling, and
//!   over-marking is always semantically correct (a trap at a marked site
//!   raises exactly the NPE Java requires). This also makes §4.2.2's
//!   `Gen_bwd` ("there is an instruction accessing the object's slot …
//!   causing a hardware trap") directly usable: any cover it finds is
//!   already a legal exception site.

use njc_dataflow::{solve_cached, BitSet, Direction, Meet, Problem};
use njc_ir::{AccessKind, BlockId, CfgCache, CheckId, Function, Inst, NullCheckKind, VarId};
use njc_observe::{CheckEvent, Cover, ExplicitCause, Recorder};

use crate::ctx::{AccessClass, AnalysisCtx};

/// Statistics from one phase 2 application.
///
/// The motion counters obey a per-block conservation identity the ledger
/// relies on: every obligation born in a block (a check absorbed from the
/// stream, or an `In_fwd` fact respawned at entry) dies in that block by
/// exactly one of conversion, explicit materialization, merging into an
/// already-pending obligation, or postponement past the exit —
/// `absorbed + respawned = converted_implicit + explicit_inserted + merged
/// + postponed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Phase2Stats {
    /// Checks converted to implicit (hardware trap) form.
    pub converted_implicit: usize,
    /// Explicit checks materialized (at barriers, hazards, exits).
    pub explicit_inserted: usize,
    /// Explicit checks removed by the substitutable elimination (§4.2.2).
    pub substituted: usize,
    /// Checks absorbed from the instruction stream by the forward rewrite
    /// (every original check, whether it merged or became pending).
    pub absorbed: usize,
    /// Obligations respawned from `In_fwd` facts at block entries.
    pub respawned: usize,
    /// Absorbed checks whose variable was already pending (the two
    /// obligations merged; one fate serves both).
    pub merged: usize,
    /// Obligations postponed past a block exit into the successors.
    pub postponed: usize,
    /// Solver convergence depth of the forward motion analysis.
    pub motion_iterations: usize,
    /// Solver convergence depth of the substitutable analysis.
    pub subst_iterations: usize,
    /// Worklist pops spent by the forward motion analysis.
    pub motion_pops: usize,
    /// Worklist pops spent by the substitutable analysis.
    pub subst_pops: usize,
}

/// Per-block sets for the forward motion analysis (§4.2.1).
struct ForwardSets {
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

/// Builds Gen/Kill mirroring exactly the in-block walk of
/// [`rewrite_block`]: the analysis and the rewrite must agree on where
/// facts are discharged.
fn compute_forward_sets(ctx: &AnalysisCtx<'_>, func: &Function) -> ForwardSets {
    let nv = func.num_vars();
    let mut gen = Vec::with_capacity(func.num_blocks());
    let mut kill = Vec::with_capacity(func.num_blocks());
    for b in func.blocks() {
        let in_try = b.try_region.is_some();
        let mut g = BitSet::new(nv);
        let mut k = BitSet::new(nv);
        for inst in &b.insts {
            if let Inst::NullCheck { var, .. } = inst {
                g.insert(var.index());
                k.remove(var.index());
                continue;
            }
            // Slot access of a pending variable discharges it unless silent.
            if let Some((base, class)) = ctx.classify_access(inst) {
                if class != AccessClass::Silent {
                    g.remove(base.index());
                    k.insert(base.index());
                }
            }
            if ctx.is_barrier(inst, in_try) {
                g.clear();
                k.set_all();
            } else if let Some(d) = inst.def() {
                g.remove(d.index());
                k.insert(d.index());
            }
        }
        gen.push(g);
        kill.push(k);
    }
    ForwardSets { gen, kill }
}

struct ForwardMotion<'a> {
    func: &'a Function,
    sets: ForwardSets,
    num_facts: usize,
}

impl Problem for ForwardMotion<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Intersect
    }
    fn num_facts(&self) -> usize {
        self.num_facts
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        output.subtract_from(input, &self.sets.kill[block.index()]);
        output.union_with(&self.sets.gen[block.index()]);
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        if self.func.edge_crosses_try(from, to) {
            set.clear();
        }
    }
}

/// Decides whether a pending check of `v` may be postponed past the end of
/// block `n` (every successor must receive it on every incoming path).
fn postponable(func: &Function, in_fwd: &[BitSet], n: BlockId, v: usize) -> bool {
    let term = &func.block(n).term;
    if term.is_exit() {
        return false;
    }
    let succs = term.successors();
    if succs.is_empty() {
        return false;
    }
    succs
        .iter()
        .all(|&s| !func.edge_crosses_try(n, s) && in_fwd[s.index()].contains(v))
}

/// The trap-model rule that legalizes one implicit conversion, rendered for
/// the provenance stream.
fn conversion_rule(ctx: &AnalysisCtx<'_>, inst: &Inst) -> String {
    match ctx.slot_access(inst) {
        Some(sa) => {
            let kind = match sa.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            };
            match sa.offset {
                Some(off) => format!(
                    "{kind} of offset {off} lies inside the {}-byte trap area and the platform \
                     traps on {kind}s",
                    ctx.trap.trap_area_bytes
                ),
                None => format!("{kind} at a runtime-computed offset"),
            }
        }
        None => "access".to_string(),
    }
}

/// Materializes a pending obligation as an explicit check instruction,
/// carrying the obligation's id into the IR.
fn emit_explicit(
    out: &mut Vec<Inst>,
    v: usize,
    id: CheckId,
    cause: ExplicitCause,
    block: BlockId,
    stats: &mut Phase2Stats,
    rec: &mut Recorder,
) {
    out.push(Inst::NullCheck {
        var: VarId::new(v),
        kind: NullCheckKind::Explicit,
        id,
    });
    stats.explicit_inserted += 1;
    rec.record(CheckEvent::Phase2Explicit {
        id,
        var: VarId::new(v),
        block,
        cause,
    });
}

/// The in-block insertion algorithm of §4.2.1, mirrored by
/// [`compute_forward_sets`]. `pending_id` maps each variable with a pending
/// obligation to the check identity that obligation carries.
fn rewrite_block(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    in_fwd: &[BitSet],
    n: BlockId,
    stats: &mut Phase2Stats,
    rec: &mut Recorder,
    pending_id: &mut [CheckId],
) {
    let in_try = func.block(n).try_region.is_some();
    let mut inner = in_fwd[n.index()].clone();
    // Entry facts are obligations the predecessors postponed: each respawns
    // here under a fresh identity (ids are allocated even when recording is
    // off so the IR is identical either way).
    for v in in_fwd[n.index()].iter() {
        let id = rec.fresh();
        pending_id[v] = id;
        stats.respawned += 1;
        rec.record(CheckEvent::Phase2Respawn {
            id,
            var: VarId::new(v),
            block: n,
        });
    }
    let old = std::mem::take(func.insts_mut(n));
    let mut out = Vec::with_capacity(old.len());
    // Running ordinal among the block's trap-qualifying accesses; checks are
    // the only instructions added or removed, so conversion events keyed by
    // this ordinal stay resolvable in the final IR.
    let mut trap_ord = 0;

    for mut inst in old {
        if let Inst::NullCheck { var, id, .. } = inst {
            // Absorb the check into the pending set; it is re-materialized
            // at its latest legal point.
            stats.absorbed += 1;
            if inner.contains(var.index()) {
                stats.merged += 1;
                rec.record(CheckEvent::Phase2Merged {
                    id,
                    var,
                    block: n,
                    into: pending_id[var.index()],
                });
            } else {
                inner.insert(var.index());
                pending_id[var.index()] = id;
                rec.record(CheckEvent::Phase2Absorbed { id, var, block: n });
            }
            continue;
        }
        // 1. The instruction's own slot access may discharge its base.
        if let Some((base, class)) = ctx.classify_access(&inst) {
            if inner.contains(base.index()) {
                match class {
                    AccessClass::TrapGuaranteed => {
                        // Convert to an implicit null check: the access
                        // becomes the exception site (§4.2.1 step 2).
                        inst.set_exception_site(true);
                        inner.remove(base.index());
                        stats.converted_implicit += 1;
                        if rec.is_enabled() {
                            rec.record(CheckEvent::Phase2Converted {
                                id: pending_id[base.index()],
                                var: base,
                                block: n,
                                site_ordinal: trap_ord,
                                rule: conversion_rule(ctx, &inst),
                            });
                        }
                    }
                    AccessClass::Hazard => {
                        // A profile-driven override classifies as Hazard so
                        // every analysis agrees the site cannot carry an
                        // implicit check, but the life story distinguishes
                        // the deliberate downgrade from a genuine hazard.
                        let cause = if ctx.is_overridden(&inst) {
                            ExplicitCause::Override
                        } else {
                            ExplicitCause::Hazard
                        };
                        emit_explicit(
                            &mut out,
                            base.index(),
                            pending_id[base.index()],
                            cause,
                            n,
                            stats,
                            rec,
                        );
                        inner.remove(base.index());
                    }
                    AccessClass::Silent => {
                        // AIX read of the protected page: cannot fault, the
                        // pending check sinks straight past.
                    }
                }
            }
            if class == AccessClass::TrapGuaranteed {
                trap_ord += 1;
            }
        }
        // 2. Barriers flush every pending check (the NPEs must fire before
        //    the side effect).
        if ctx.is_barrier(&inst, in_try) {
            let pending: Vec<usize> = inner.iter().collect();
            for v in pending {
                emit_explicit(
                    &mut out,
                    v,
                    pending_id[v],
                    ExplicitCause::Barrier,
                    n,
                    stats,
                    rec,
                );
            }
            inner.clear();
        } else if let Some(d) = inst.def() {
            // 3. Overwriting a pending variable: check it first (§4.2.1
            //    "else if I overwrites a local variable that has object").
            if inner.contains(d.index()) {
                emit_explicit(
                    &mut out,
                    d.index(),
                    pending_id[d.index()],
                    ExplicitCause::Overwrite,
                    n,
                    stats,
                    rec,
                );
                inner.remove(d.index());
            }
        }
        out.push(inst);
    }

    // 4. Block end: postpone into successors where possible, otherwise
    //    materialize before the terminator.
    for v in inner.iter() {
        if postponable(func, in_fwd, n, v) {
            stats.postponed += 1;
            rec.record(CheckEvent::Phase2Postponed {
                id: pending_id[v],
                var: VarId::new(v),
                block: n,
            });
        } else {
            emit_explicit(
                &mut out,
                v,
                pending_id[v],
                ExplicitCause::BlockEnd,
                n,
                stats,
                rec,
            );
        }
    }
    *func.insts_mut(n) = out;
}

/// Marks every guaranteed-trapping slot access as an exception site (see
/// module docs for why over-marking is sound).
fn mark_all_trap_sites(ctx: &AnalysisCtx<'_>, func: &mut Function) {
    for bi in 0..func.num_blocks() {
        for inst in func.insts_mut(BlockId::new(bi)) {
            if let Some((_, AccessClass::TrapGuaranteed)) = ctx.classify_access(inst) {
                inst.set_exception_site(true);
            }
        }
    }
}

/// Per-block sets for the substitutable analysis (§4.2.2).
struct SubstSets {
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

fn compute_subst_sets(ctx: &AnalysisCtx<'_>, func: &Function) -> SubstSets {
    let nv = func.num_vars();
    let mut gen = Vec::with_capacity(func.num_blocks());
    let mut kill = Vec::with_capacity(func.num_blocks());
    for b in func.blocks() {
        let in_try = b.try_region.is_some();
        let mut g = BitSet::new(nv);
        let mut k = BitSet::new(nv);
        // Backward composition: walk instructions in reverse, building the
        // effect on a set flowing bottom-to-top.
        for inst in b.insts.iter().rev() {
            if let Inst::NullCheck { var, .. } = inst {
                g.insert(var.index());
                k.remove(var.index());
                continue;
            }
            if ctx.is_barrier(inst, in_try) {
                g.clear();
                k.set_all();
                continue;
            }
            if let Some(d) = inst.def() {
                g.remove(d.index());
                k.insert(d.index());
            }
            match ctx.classify_access(inst) {
                Some((base, AccessClass::TrapGuaranteed)) => {
                    // A trapping access covers the variable above it.
                    g.insert(base.index());
                    k.remove(base.index());
                }
                Some((base, AccessClass::Hazard)) => {
                    // A hazardous access of the variable must not be crossed:
                    // deferring the check past it would let a null base
                    // perform a wild access before the covering check fires.
                    g.remove(base.index());
                    k.insert(base.index());
                }
                Some((_, AccessClass::Silent)) | None => {}
            }
        }
        gen.push(g);
        kill.push(k);
    }
    SubstSets { gen, kill }
}

struct Substitutable<'a> {
    func: &'a Function,
    sets: SubstSets,
    num_facts: usize,
}

impl Problem for Substitutable<'_> {
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
        output.subtract_from(input, &self.sets.kill[block.index()]);
        output.union_with(&self.sets.gen[block.index()]);
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        if self.func.edge_crosses_try(from, to) {
            set.clear();
        }
    }
}

/// §4.2.2 rewrite: eliminates explicit checks that are substitutable at the
/// point immediately after them. When recording, each removal names its
/// cover: the later check, the trap-guaranteed access, or (for facts
/// arriving from the block's `out`) the backward dataflow itself.
fn eliminate_substitutable(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    outs: &[BitSet],
    stats: &mut Phase2Stats,
    rec: &mut Recorder,
) {
    let nv = func.num_vars();
    // What currently covers each set variable, tracked only when recording.
    let mut cover: Vec<Cover> = if rec.is_enabled() {
        vec![Cover::CrossBlock; nv]
    } else {
        Vec::new()
    };
    for (bi, out_set) in outs.iter().enumerate().take(func.num_blocks()) {
        let n = BlockId::new(bi);
        let in_try = func.block(n).try_region.is_some();
        let mut set = out_set.clone();
        if !cover.is_empty() {
            cover.iter_mut().for_each(|c| *c = Cover::CrossBlock);
        }
        let insts = func.insts_mut(n);
        // Walk backward, keeping the set valid *after* each instruction.
        let mut keep = vec![true; insts.len()];
        let mut events = Vec::new();
        for (i, inst) in insts.iter().enumerate().rev() {
            if let Inst::NullCheck { var, kind, id } = inst {
                if *kind == NullCheckKind::Explicit && set.contains(var.index()) {
                    keep[i] = false;
                    stats.substituted += 1;
                    // Coverage composes: the deleted check's cover also
                    // covers anything above, so the fact (and its cover)
                    // stay in place.
                    if !cover.is_empty() {
                        events.push(CheckEvent::Phase2Substituted {
                            id: *id,
                            var: *var,
                            block: n,
                            by: cover[var.index()],
                        });
                    }
                } else if !cover.is_empty() {
                    cover[var.index()] = Cover::Check(*id);
                }
                set.insert(var.index());
                continue;
            }
            if ctx.is_barrier(inst, in_try) {
                set.clear();
                continue;
            }
            if let Some(d) = inst.def() {
                set.remove(d.index());
            }
            match ctx.classify_access(inst) {
                Some((base, AccessClass::TrapGuaranteed)) => {
                    set.insert(base.index());
                    if !cover.is_empty() {
                        cover[base.index()] = Cover::TrapSite { block: n };
                    }
                }
                Some((base, AccessClass::Hazard)) => {
                    set.remove(base.index());
                }
                Some((_, AccessClass::Silent)) | None => {}
            }
        }
        let mut it = keep.iter();
        insts.retain(|_| *it.next().unwrap());
        for ev in events.into_iter().rev() {
            rec.record(ev);
        }
    }
}

/// Runs phase 2 on `func`: moves checks forward, converts them to hardware
/// traps wherever the platform allows, and eliminates substitutable
/// explicit checks.
///
/// The function is rewritten in place. On platforms without any trap
/// support ([`njc_arch::TrapModel::supports_implicit_checks`] false) the
/// motion and substitution still run, but no implicit conversions happen.
pub fn run(ctx: &AnalysisCtx<'_>, func: &mut Function) -> Phase2Stats {
    run_recorded(ctx, func, &mut CfgCache::new(), &mut Recorder::disabled())
}

/// [`run`] with provenance, reusing (and revalidating) the caller's
/// [`CfgCache`]: absorptions, merges, respawns, conversions (with the
/// legalizing trap-model rule), explicit materializations (with their
/// cause), postponements, and substitutions (with their cover) all become
/// events, and every obligation carries a stable check id through the
/// rewrite. The rewrites between the two solves only touch instruction
/// lists, so one cache serves both the motion and the substitutable
/// analysis — and stays valid for the caller afterwards.
pub fn run_recorded(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    cfg: &mut CfgCache,
    rec: &mut Recorder,
) -> Phase2Stats {
    let nv = func.num_vars();
    let mut stats = Phase2Stats::default();
    if nv == 0 {
        return stats;
    }
    cfg.ensure(func);

    // §4.2.1 — forward motion.
    let motion = ForwardMotion {
        func,
        sets: compute_forward_sets(ctx, func),
        num_facts: nv,
    };
    let sol = solve_cached(func, cfg, &motion);
    stats.motion_iterations = sol.iterations;
    stats.motion_pops = sol.worklist_pops;
    let mut pending_id = vec![CheckId::NONE; nv];
    for bi in 0..func.num_blocks() {
        rewrite_block(
            ctx,
            func,
            &sol.ins,
            BlockId::new(bi),
            &mut stats,
            rec,
            &mut pending_id,
        );
    }

    // Mark the trap sites (see module docs), then §4.2.2 — substitutable
    // elimination.
    mark_all_trap_sites(ctx, func);
    let subst = Substitutable {
        func,
        sets: compute_subst_sets(ctx, func),
        num_facts: nv,
    };
    let sol2 = solve_cached(func, cfg, &subst);
    stats.subst_iterations = sol2.iterations;
    stats.subst_pops = sol2.worklist_pops;
    eliminate_substitutable(ctx, func, &sol2.outs, &mut stats, rec);

    stats
}

/// Counts explicit null check instructions (metric helper).
pub fn count_explicit(func: &Function) -> usize {
    func.blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| {
            matches!(
                i,
                Inst::NullCheck {
                    kind: NullCheckKind::Explicit,
                    ..
                }
            )
        })
        .count()
}

/// Counts marked exception sites (implicit null check carriers).
pub fn count_exception_sites(func: &Function) -> usize {
    func.blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| i.is_exception_site())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_ir::{parse_function, verify, Module, Type};

    fn module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f", Type::Int), ("g", Type::Int)]);
        m.add_class_with_offsets("Big", &[("far", Type::Int, 1 << 20)]);
        m
    }

    fn run_with(src: &str, trap: TrapModel) -> (Function, Phase2Stats) {
        let m = module();
        let ctx = AnalysisCtx::new(&m, trap);
        let mut f = parse_function(src).unwrap();
        verify(&f).unwrap();
        let stats = run(&ctx, &mut f);
        verify(&f).expect("phase2 output verifies");
        (f, stats)
    }

    #[test]
    fn check_before_field_read_becomes_implicit_on_windows() {
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        assert_eq!(stats.converted_implicit, 1);
        assert_eq!(count_explicit(&f), 0, "{f}");
        assert!(f.block(BlockId(0)).insts[0].is_exception_site());
    }

    #[test]
    fn override_keeps_check_explicit_and_records_cause() {
        // Same shape as the conversion test above, but with the read's slot
        // key in an ExplicitOverride set: the site must NOT be marked, the
        // check must materialize explicitly, and the life story must name
        // the profile override as the cause.
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  return v1
}";
        let m = module();
        let off = m.field_offset(njc_ir::FieldId(0));
        let mut ov = crate::ctx::ExplicitOverride::new();
        ov.insert(off, njc_ir::AccessKind::Read);
        let ctx = AnalysisCtx::with_overrides(&m, TrapModel::windows_ia32(), &ov);
        let mut f = parse_function(src).unwrap();
        let mut rec = Recorder::new(true);
        rec.assign_origins(&mut f);
        let mut cfg = njc_ir::CfgCache::new();
        let stats = run_recorded(&ctx, &mut f, &mut cfg, &mut rec);
        verify(&f).expect("phase2 output verifies");
        assert_eq!(stats.converted_implicit, 0);
        assert_eq!(count_explicit(&f), 1, "{f}");
        assert_eq!(count_exception_sites(&f), 0, "{f}");
        assert!(
            rec.events.iter().any(|e| matches!(
                e,
                CheckEvent::Phase2Explicit {
                    cause: ExplicitCause::Override,
                    ..
                }
            )),
            "override cause recorded: {:?}",
            rec.events
        );
        // Without the override, the identical input converts to implicit.
        let bare = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut g = parse_function(src).unwrap();
        let s2 = run(&bare, &mut g);
        assert_eq!(s2.converted_implicit, 1);
    }

    #[test]
    fn read_check_stays_explicit_on_aix() {
        // AIX does not trap reads: the check cannot be implicit, and it
        // sinks past the (silent) read to the function exit, where it is
        // materialized explicitly.
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::aix_ppc());
        assert_eq!(stats.converted_implicit, 0);
        assert_eq!(count_explicit(&f), 1, "{f}");
    }

    #[test]
    fn write_check_becomes_implicit_on_aix() {
        let src = "\
func f(v0: ref, v1: int) -> int {
bb0:
  nullcheck v0
  putfield v0, field0, v1
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::aix_ppc());
        assert_eq!(stats.converted_implicit, 1);
        assert_eq!(count_explicit(&f), 0, "{f}");
    }

    #[test]
    fn big_offset_forces_explicit_check() {
        // Figure 5 (1): the field lies beyond the protected area.
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck v0
  v1 = getfield v0, field2
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        assert_eq!(stats.converted_implicit, 0);
        assert_eq!(count_explicit(&f), 1, "{f}");
        // The explicit check sits immediately before the hazardous access.
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[0], Inst::NullCheck { .. }));
        assert!(matches!(insts[1], Inst::GetField { .. }));
    }

    #[test]
    fn figure7_inlined_branch() {
        // Figure 7: check at top; the left path accesses a slot, the right
        // path does not. Result: implicit on the left, explicit on the
        // right — cost removed from the hot (left) path.
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  nullcheck v0
  v3 = const 0
  if lt v1, v3 then bb1 else bb2
bb1:
  v2 = move v1
  goto bb3
bb2:
  v2 = getfield v0, field0
  goto bb3
bb3:
  return v2
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        assert_eq!(stats.converted_implicit, 1, "{f}");
        // bb2's access is the exception site.
        assert!(f.block(BlockId(2)).insts[0].is_exception_site());
        // bb1 (or its merge) carries the explicit check.
        let explicit_in_bb1 = count_explicit_in(&f, BlockId(1));
        assert_eq!(explicit_in_bb1, 1, "explicit on the no-access path: {f}");
        // bb0 has no check instruction left.
        assert_eq!(count_explicit_in(&f, BlockId(0)), 0, "{f}");
    }

    fn count_explicit_in(f: &Function, b: BlockId) -> usize {
        f.block(b)
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::NullCheck {
                        kind: NullCheckKind::Explicit,
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn check_does_not_sink_past_barrier() {
        let src = "\
func f(v0: ref, v1: int) -> int {
bb0:
  nullcheck v0
  observe v1
  v2 = getfield v0, field0
  return v2
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        // The check must be materialized before the observe (which is a
        // side effect): it cannot reach the access.
        let insts = &f.block(BlockId(0)).insts;
        assert!(
            matches!(
                insts[0],
                Inst::NullCheck {
                    kind: NullCheckKind::Explicit,
                    ..
                }
            ),
            "{f}"
        );
        assert!(matches!(insts[1], Inst::Observe { .. }));
        assert_eq!(stats.converted_implicit, 0);
        // The getfield still gets marked as a site (over-marking), but the
        // explicit check already protects it.
        assert!(insts[2].is_exception_site());
    }

    #[test]
    fn pending_check_at_return_is_materialized() {
        // Figure 1/7 right path in isolation: no slot access before return.
        let src = "\
func f(v0: ref, v1: int) -> int {
bb0:
  nullcheck v0
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        assert_eq!(count_explicit(&f), 1, "{f}");
        assert_eq!(stats.converted_implicit, 0);
    }

    #[test]
    fn overwrite_of_pending_var_forces_check() {
        let src = "\
func f(v0: ref, v1: ref) -> int {
  locals v2: int
bb0:
  nullcheck v0
  v0 = move v1
  v2 = getfield v0, field0
  return v2
}";
        let (f, _stats) = run_with(src, TrapModel::windows_ia32());
        let insts = &f.block(BlockId(0)).insts;
        assert!(
            matches!(insts[0], Inst::NullCheck { var, kind: NullCheckKind::Explicit, .. } if var == VarId(0)),
            "check of old v0 before the move: {f}"
        );
        assert!(matches!(insts[1], Inst::Move { .. }));
    }

    #[test]
    fn substitutable_explicit_check_is_removed() {
        // Two accesses: the second is guaranteed-trapping. An explicit
        // check before a barrier is covered by the later trap... here:
        // check; trapping access later with no side effect between — the
        // pre-barrier explicit should be substituted by the trap.
        let src = "\
func f(v0: ref, v1: ref) -> int {
  locals v2: int
bb0:
  nullcheck v0
  v0 = move v1
  v2 = getfield v0, field0
  return v2
}";
        // After motion: explicit check of (old) v0 before move — cannot be
        // substituted (v0 overwritten). The new v0 access is implicit. Then
        // substitutable elimination has nothing else. Sanity: exactly one
        // explicit remains.
        let (f, _stats) = run_with(src, TrapModel::windows_ia32());
        assert_eq!(count_explicit(&f), 1, "{f}");
    }

    #[test]
    fn substitution_removes_check_covered_by_later_trap() {
        // Construct directly the §4.2.2 situation: an explicit check whose
        // variable is dereferenced (guaranteed trap) later with no side
        // effect in between. The explicit check is redundant.
        let m = module();
        let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n\
             bb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  v2 = getfield v0, field1\n  return v1\n}",
        )
        .unwrap();
        let stats = run(&ctx, &mut f);
        // Motion converts the single check at the first access; the second
        // access is marked but carries no check. Nothing explicit remains.
        assert_eq!(count_explicit(&f), 0, "{f}");
        assert_eq!(stats.converted_implicit, 1);
    }

    #[test]
    fn aix_check_sinks_past_read_to_later_write() {
        // Figure 6 flavor: on AIX the read is silent, the write traps. The
        // single check sinks past the read and becomes implicit at the
        // write.
        let src = "\
func f(v0: ref) -> int {
  locals v1: int
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  nullcheck v0
  putfield v0, field1, v1
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::aix_ppc());
        assert_eq!(stats.converted_implicit, 1, "{f}");
        assert_eq!(
            count_explicit(&f),
            0,
            "one check absorbed by the other: {f}"
        );
        // The write is the exception site; the read is not (reads never
        // trap on AIX).
        let insts = &f.block(BlockId(0)).insts;
        let write = insts
            .iter()
            .find(|i| matches!(i, Inst::PutField { .. }))
            .unwrap();
        assert!(write.is_exception_site());
        let read = insts
            .iter()
            .find(|i| matches!(i, Inst::GetField { .. }))
            .unwrap();
        assert!(!read.is_exception_site());
    }

    #[test]
    fn no_trap_model_keeps_everything_explicit() {
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  nullcheck v0
  v2 = getfield v0, field1
  return v2
}";
        let (f, stats) = run_with(src, TrapModel::no_traps());
        assert_eq!(stats.converted_implicit, 0);
        assert_eq!(count_exception_sites(&f), 0);
        // Without trap support every access is a hazard, so each access is
        // preceded by an explicit check. (The redundancy between them is
        // phase 1's job — in the full pipeline phase 1 runs first.)
        assert_eq!(count_explicit(&f), 2, "{f}");
    }

    #[test]
    fn checks_of_two_vars_both_converted() {
        let src = "\
func f(v0: ref, v1: ref) -> int {
  locals v2: int v3: int v4: int
bb0:
  nullcheck v0
  nullcheck v1
  v2 = getfield v0, field0
  v3 = getfield v1, field1
  v4 = add.int v2, v3
  return v4
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        assert_eq!(stats.converted_implicit, 2, "{f}");
        assert_eq!(count_explicit(&f), 0);
    }

    #[test]
    fn motion_does_not_cross_try_boundary() {
        let src = "\
func f(v0: ref) -> int {
  locals v1: int v2: int
  try0: handler bb2 catch any -> v2
bb0:
  nullcheck v0
  goto bb1
bb1: [try0]
  v1 = getfield v0, field0
  return v1
bb2:
  v1 = const 0
  return v1
}";
        let (f, stats) = run_with(src, TrapModel::windows_ia32());
        // The check cannot sink into the try region; it is materialized at
        // the end of bb0.
        assert_eq!(stats.converted_implicit, 0, "{f}");
        assert_eq!(count_explicit_in(&f, BlockId(0)), 1, "{f}");
    }
}
