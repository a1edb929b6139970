//! Forward *must-be-covered* dataflow: every dereference is either
//! dominated (on all paths) by an explicit null check of its base — tracked
//! through copies, allocations, and `ifnull` edges — or is a marked
//! implicit exception site that genuinely traps under the machine's
//! [`TrapModel`].
//!
//! The analysis runs over the [`njc_dataflow`] solver with an
//! intersection meet (a fact must hold on *every* incoming path), and —
//! since PR 8 — over **value numbers** rather than variable slots
//! ([`njc_core::gvn::ValueNumbering`]). A validator may use any sound
//! precision, and per-variable coverage proofs do not survive optimization:
//! a sound elimination justified by a copy (`w = v`, check `v`, deref `w`)
//! stays justified after loop-invariant code motion hoists the copy above
//! the check only in value-number space, where `w ≅ v` regardless of where
//! the copy sits. Coverage facts live on VNs; a check covers its whole
//! congruence class.
//!
//! On exceptional edges into a handler the transferred facts mirror the
//! optimizer's masking rule (see `njc_core::phase1`): a fact reaches the
//! handler only if it holds at every throwing point of the block. In VN
//! space facts are never killed inside a block, so that collapses to
//! "established strictly before the *first* throwing point" — and the
//! handler observes each variable through the bindings folded over the
//! throw points ([`ValueNumbering::exc_vn`]), so a variable rebound
//! between throw points contributes nothing.

use njc_arch::TrapModel;
use njc_core::ctx::{AccessClass, AnalysisCtx, EntryAssumptions};
use njc_core::gvn::ValueNumbering;
use njc_dataflow::{solve, BitSet, Direction, Meet, Problem};
use njc_ir::{BlockId, Function, Inst, Module, NullCheckKind, Terminator};

use crate::{ValidationReport, Violation, ViolationKind};

/// The (up to two) coverage facts one instruction establishes, given the
/// variable→VN binding *before* it executes:
///
/// * a marked trap-guaranteed site throws the NPE itself, so on the normal
///   continuation its base's value is non-null;
/// * an explicit check covers its target's value, an allocation and an
///   interprocedurally assumed definition cover the defined value (for an
///   assumed field load that is the *Load class* — every congruent re-load
///   inherits the fact).
///
/// An `Implicit` null check instruction is documentation only — the VM
/// executes it as a no-op and it never throws, so it covers nothing. (No
/// pass emits them; parsers can.)
fn inst_gens(
    ctx: &AnalysisCtx,
    vn: &ValueNumbering,
    bi: usize,
    i: usize,
    inst: &Inst,
    state: &[u32],
) -> (Option<u32>, Option<u32>) {
    let mut site = None;
    let mut fact = None;
    match inst {
        Inst::NullCheck {
            var,
            kind: NullCheckKind::Explicit,
            ..
        } => fact = Some(state[var.index()]),
        Inst::NullCheck { .. } => {}
        Inst::New { .. } | Inst::NewArray { .. } => fact = Some(vn.def_vn(bi)[i]),
        Inst::Move { .. } => {}
        _ => {
            if inst.is_exception_site() {
                if let Some((base, AccessClass::TrapGuaranteed)) = ctx.classify_access(inst) {
                    site = Some(state[base.index()]);
                }
            }
            if ctx.assumed_nonnull_def(inst).is_some() {
                fact = Some(vn.def_vn(bi)[i]);
            }
        }
    }
    (site, fact)
}

/// Can `inst` transfer control to the enclosing region's handler?
fn is_throw_point(ctx: &AnalysisCtx, inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::NullCheck {
            kind: NullCheckKind::Explicit,
            ..
        }
    ) || inst.can_throw_other()
        || (inst.is_exception_site()
            && matches!(
                ctx.classify_access(inst),
                Some((_, AccessClass::TrapGuaranteed))
            ))
}

struct CoverageProblem<'a> {
    ctx: AnalysisCtx<'a>,
    func: &'a Function,
    /// The function's value numbering, computed with the *model-dependent*
    /// throw-point predicate above (a marked Silent site on AIX is not a
    /// throw point, so it must not fold the handler bindings).
    vn: ValueNumbering,
    /// Per block: covered VNs established by the block.
    gen: Vec<BitSet>,
    /// Per block: the subset of `gen` established strictly before the
    /// first throwing point — the only gens the handler observes.
    exc_gen: Vec<BitSet>,
}

impl<'a> CoverageProblem<'a> {
    fn new(ctx: AnalysisCtx<'a>, func: &'a Function) -> Self {
        let vn = {
            let pred = |inst: &Inst| is_throw_point(&ctx, inst);
            ValueNumbering::compute(func, &pred)
        };
        let nf = vn.num_vns;
        let mut gen = Vec::with_capacity(func.num_blocks());
        let mut exc_gen = Vec::with_capacity(func.num_blocks());
        for block in func.blocks() {
            let bi = block.id.index();
            let mut state = vn.entry_vn(bi).to_vec();
            let mut g = BitSet::new(nf);
            let mut eg = BitSet::new(nf);
            for (i, inst) in block.insts.iter().enumerate() {
                // The throw happens before the instruction's own effects:
                // a trapping site's NPE precedes its coverage of the base,
                // an explicit check's NPE precedes its own fact — hence
                // the *strict* `< exc_cut` below.
                let (site, fact) = inst_gens(&ctx, &vn, bi, i, inst, &state);
                vn.step(bi, i, inst, &mut state);
                for x in [site, fact].into_iter().flatten() {
                    g.insert(x as usize);
                    if i < vn.exc_cut[bi] {
                        eg.insert(x as usize);
                    }
                }
            }
            gen.push(g);
            exc_gen.push(eg);
        }
        CoverageProblem {
            ctx,
            func,
            vn,
            gen,
            exc_gen,
        }
    }

    fn is_handler_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.func
            .block(from)
            .try_region
            .map(|r| self.func.try_region(r).handler == to)
            .unwrap_or(false)
    }

    /// Translates an exit fact set across the normal edge `from → to`:
    /// facts survive through the variables that carry them, plus the
    /// `ifnull` fall-through gen.
    fn normal_edge(&self, from: BlockId, to: BlockId, facts: &BitSet, out: &mut BitSet) {
        let ent = self.vn.entry_vn(to.index());
        ValueNumbering::translate(self.vn.exit_vn(from.index()), ent, facts, out);
        if let Terminator::IfNull {
            var,
            on_null,
            on_nonnull,
        } = self.func.block(from).term
        {
            // The fall-through of a null test proves non-nullness.
            if to == on_nonnull && on_nonnull != on_null {
                out.insert(ent[var.index()] as usize);
            }
        }
    }
}

impl Problem for CoverageProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn meet(&self) -> Meet {
        Meet::Intersect
    }

    fn num_facts(&self) -> usize {
        self.vn.num_vns
    }

    fn boundary(&self) -> BitSet {
        let mut b = BitSet::new(self.vn.num_vns);
        let frame = self.vn.entry_vn(self.func.entry().index());
        // An instance method's receiver (`this`) is never null.
        if self.func.is_instance() && self.func.num_vars() > 0 {
            b.insert(frame[0] as usize);
        }
        // Interprocedurally proven non-null parameters are covered at entry.
        if let Some(e) = self.ctx.entry_facts(self.func, self.func.num_vars()) {
            for v in e.iter() {
                b.insert(frame[v] as usize);
            }
        }
        b
    }

    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        // VNs are immutable values: no kills, out = in ∪ gen.
        output.union_from(input, &self.gen[block.index()]);
    }

    fn edge_uses_input(&self, from: BlockId, to: BlockId) -> bool {
        self.is_handler_edge(from, to)
    }

    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        let fi = from.index();
        let mut out = BitSet::new(self.vn.num_vns);
        if self.is_handler_edge(from, to) {
            // `set` holds the block's *input* facts here. The handler
            // observes in-facts plus pre-first-throw-point gens, through
            // the bindings folded over the throw points.
            match self.vn.exc_vn(fi) {
                // No throwing point: the edge is never taken, ⊤ under the
                // intersection meet.
                None => out.set_all(),
                Some(bind) => {
                    let mut facts = set.clone();
                    facts.union_with(&self.exc_gen[fi]);
                    ValueNumbering::translate(bind, self.vn.entry_vn(to.index()), &facts, &mut out);
                }
            }
            // If the terminator also targets the handler block (a normal
            // edge sharing the target), stay conservative: intersect with
            // the ordinary out-value translated across the normal edge.
            let mut term_succs = Vec::new();
            self.func.block(from).term.successors_into(&mut term_succs);
            if term_succs.contains(&to) {
                let mut exit = BitSet::new(self.vn.num_vns);
                self.transfer(from, set, &mut exit);
                let mut normal = BitSet::new(self.vn.num_vns);
                self.normal_edge(from, to, &exit, &mut normal);
                out.intersect_with(&normal);
            }
        } else {
            self.normal_edge(from, to, set, &mut out);
        }
        *set = out;
    }
}

/// Validates every dereference of one function under the machine's trap
/// model. Returns the violations in block/instruction order.
pub fn validate_function(module: &Module, machine: TrapModel, func: &Function) -> Vec<Violation> {
    validate_function_assumed(module, machine, None, func)
}

/// [`validate_function`] under interprocedural [`EntryAssumptions`]: proven
/// non-null parameters count as covered at entry, and proven non-null call
/// returns and field loads cover their destinations. With `None` this is
/// exactly [`validate_function`].
pub fn validate_function_assumed(
    module: &Module,
    machine: TrapModel,
    assumptions: Option<&EntryAssumptions>,
    func: &Function,
) -> Vec<Violation> {
    let ctx = AnalysisCtx::new(module, machine).with_assumptions(assumptions);
    let problem = CoverageProblem::new(ctx, func);
    let sol = solve(func, &problem);
    let ctx = &problem.ctx;
    let vn = &problem.vn;
    let mut out = Vec::new();
    let reachable = func.reachable();
    for block in func.blocks() {
        if !reachable[block.id.index()] {
            continue;
        }
        let bi = block.id.index();
        let mut cov = sol.input(block.id).clone();
        let mut state = vn.entry_vn(bi).to_vec();
        for (idx, inst) in block.insts.iter().enumerate() {
            if let Some(v) = inst.requires_null_check() {
                if !cov.contains(state[v.index()] as usize) {
                    let marked = inst.is_exception_site();
                    let class = ctx.classify_access(inst).map(|(_, c)| c);
                    let is_call = matches!(inst, Inst::Call { .. });
                    let mut push = |kind: ViolationKind, message: String| {
                        out.push(Violation {
                            function: func.name().to_string(),
                            block: block.id,
                            inst: Some(idx),
                            var: Some(v),
                            kind,
                            message,
                        });
                    };
                    match (marked, class) {
                        (true, Some(AccessClass::TrapGuaranteed)) => {
                            // The hardware trap is the null check.
                        }
                        (true, Some(AccessClass::Silent)) => {
                            if is_call {
                                push(
                                    ViolationKind::BadDispatch,
                                    "marked dispatch reads a null header silently: the \
                                     NullPointerException is missed and the method table is \
                                     garbage"
                                        .to_string(),
                                );
                            } else {
                                push(
                                    ViolationKind::MissedException,
                                    "marked implicit site does not trap under the machine \
                                     model: the NullPointerException is silently missed \
                                     (the §5.4 Illegal Implicit violation)"
                                        .to_string(),
                                );
                            }
                        }
                        (true, _) => {
                            push(
                                ViolationKind::WildAccess,
                                "marked implicit site may touch memory outside the protected \
                                 area (unknown or big offset)"
                                    .to_string(),
                            );
                        }
                        (false, Some(AccessClass::TrapGuaranteed)) => {
                            push(
                                ViolationKind::UnexpectedTrap,
                                "possibly-null dereference traps with no marked exception \
                                 site to recover"
                                    .to_string(),
                            );
                        }
                        (false, Some(AccessClass::Silent)) => {
                            if is_call {
                                push(
                                    ViolationKind::BadDispatch,
                                    "dispatch through a possibly-null receiver whose header \
                                     read does not trap"
                                        .to_string(),
                                );
                            }
                            // A bare silent read is legal speculation
                            // (§3.3.1): it cannot fault; the check it
                            // postponed is still accounted for by the
                            // pairwise obligation validation.
                        }
                        (false, Some(AccessClass::Hazard)) => {
                            push(
                                ViolationKind::WildAccess,
                                "possibly-null access at an unknown or unprotected offset"
                                    .to_string(),
                            );
                        }
                        (false, None) => {
                            push(
                                ViolationKind::UncheckedCall,
                                "direct call with a possibly-null receiver: the callee \
                                 assumes `this` is non-null"
                                    .to_string(),
                            );
                        }
                    }
                }
            }
            let (site, fact) = inst_gens(ctx, vn, bi, idx, inst, &state);
            vn.step(bi, idx, inst, &mut state);
            for x in [site, fact].into_iter().flatten() {
                cov.insert(x as usize);
            }
        }
    }
    out
}

/// Validates every function of a module under the machine's trap model.
pub fn validate_module(module: &Module, machine: TrapModel) -> ValidationReport {
    validate_module_assumed(module, machine, None)
}

/// [`validate_module`] under interprocedural [`EntryAssumptions`].
pub fn validate_module_assumed(
    module: &Module,
    machine: TrapModel,
    assumptions: Option<&EntryAssumptions>,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    for func in module.functions() {
        report.violations.extend(validate_function_assumed(
            module,
            machine,
            assumptions,
            func,
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::{parse_function, Type};

    fn module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f", Type::Int)]);
        m
    }

    fn func(src: &str) -> Function {
        parse_function(src).unwrap()
    }

    fn validate(m: &Module, trap: TrapModel, f: &Function) -> Vec<Violation> {
        validate_function(m, trap, f)
    }

    #[test]
    fn checked_dereference_is_sound() {
        let m = module();
        let f = func(
            "func g(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
        );
        assert!(validate(&m, TrapModel::windows_ia32(), &f).is_empty());
        assert!(validate(&m, TrapModel::aix_ppc(), &f).is_empty());
    }

    #[test]
    fn unchecked_trapping_read_is_flagged() {
        let m = module();
        let f = func(
            "func g(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0\n  return v1\n}",
        );
        let v = validate(&m, TrapModel::windows_ia32(), &f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::UnexpectedTrap);
        // The same bare read on AIX is a legal speculative load.
        assert!(validate(&m, TrapModel::aix_ppc(), &f).is_empty());
    }

    #[test]
    fn marked_site_is_sound_only_where_it_traps() {
        let m = module();
        let f = func(
            "func g(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        );
        assert!(validate(&m, TrapModel::windows_ia32(), &f).is_empty());
        let v = validate(&m, TrapModel::aix_ppc(), &f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::MissedException);
    }

    #[test]
    fn coverage_flows_through_copies_and_allocations() {
        let m = module();
        let f = func(
            "func g(v0: ref) -> int {\n  locals v1: ref v2: int v3: ref v4: int\nbb0:\n  nullcheck v0\n  v1 = move v0\n  v2 = getfield v1, field0\n  v3 = new class0\n  v4 = getfield v3, field0\n  return v4\n}",
        );
        assert!(validate(&m, TrapModel::windows_ia32(), &f).is_empty());
    }

    #[test]
    fn redefinition_kills_coverage() {
        let m = module();
        let f = func(
            "func g(v0: ref, v1: ref) -> int {\n  locals v2: int\nbb0:\n  nullcheck v0\n  v0 = move v1\n  v2 = getfield v0, field0\n  return v2\n}",
        );
        let v = validate(&m, TrapModel::windows_ia32(), &f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::UnexpectedTrap);
    }

    #[test]
    fn must_analysis_requires_checks_on_all_paths() {
        let m = module();
        // Checked on the then-path only: the merge dereference is unsound.
        let f = func(
            "func g(v0: ref, v1: int, v2: int) -> int {\n  locals v3: int\nbb0:\n  if lt v1, v2 then bb1 else bb2\nbb1:\n  nullcheck v0\n  goto bb3\nbb2:\n  goto bb3\nbb3:\n  v3 = getfield v0, field0\n  return v3\n}",
        );
        let v = validate(&m, TrapModel::windows_ia32(), &f);
        assert_eq!(v.len(), 1, "{v:?}");

        // Checked on both paths: sound.
        let f = func(
            "func g(v0: ref, v1: int, v2: int) -> int {\n  locals v3: int\nbb0:\n  if lt v1, v2 then bb1 else bb2\nbb1:\n  nullcheck v0\n  goto bb3\nbb2:\n  nullcheck v0\n  goto bb3\nbb3:\n  v3 = getfield v0, field0\n  return v3\n}",
        );
        assert!(validate(&m, TrapModel::windows_ia32(), &f).is_empty());
    }

    #[test]
    fn ifnull_fallthrough_covers() {
        let m = module();
        let f = func(
            "func g(v0: ref) -> int {\n  locals v1: int\nbb0:\n  ifnull v0 then bb2 else bb1\nbb1:\n  v1 = getfield v0, field0\n  return v1\nbb2:\n  v1 = const 0\n  return v1\n}",
        );
        assert!(validate(&m, TrapModel::windows_ia32(), &f).is_empty());
    }

    #[test]
    fn instance_receiver_is_covered_at_entry() {
        let m = module();
        let mut f = func(
            "func g(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0\n  return v1\n}",
        );
        f.set_instance(true);
        assert!(validate(&m, TrapModel::windows_ia32(), &f).is_empty());
    }

    #[test]
    fn handler_edge_masks_facts_established_after_a_throw() {
        let m = module();
        // The check happens *after* the throwing division, so the handler
        // must not assume coverage.
        let f = func(
            "func g(v0: ref, v1: int, v2: int) -> int {\n  locals v3: int v4: int\n  try0: handler bb2 catch any -> v4\nbb0: [try0]\n  v3 = div.int v1, v2\n  nullcheck v0\n  goto bb1\nbb1:\n  return v3\nbb2:\n  v3 = getfield v0, field0\n  return v3\n}",
        );
        let v = validate(&m, TrapModel::windows_ia32(), &f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].block, BlockId(2));

        // Established before entering the region: the check itself cannot
        // reach this handler, so coverage survives along the throwing edge.
        let f = func(
            "func g(v0: ref, v1: int, v2: int) -> int {\n  locals v3: int v4: int\n  try0: handler bb2 catch any -> v4\nbb0:\n  nullcheck v0\n  goto bb1\nbb1: [try0]\n  v3 = div.int v1, v2\n  goto bb3\nbb2:\n  v3 = getfield v0, field0\n  return v3\nbb3:\n  return v3\n}",
        );
        let v = validate(&m, TrapModel::windows_ia32(), &f);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn own_check_throw_does_not_cover_the_handler() {
        let m = module();
        // The only throwing point is the check of v0 itself: when it
        // throws, v0 *is* null at the handler.
        let f = func(
            "func g(v0: ref) -> int {\n  locals v3: int v4: int\n  try0: handler bb2 catch any -> v4\nbb0: [try0]\n  nullcheck v0\n  v3 = getfield v0, field0\n  goto bb1\nbb1:\n  return v3\nbb2:\n  v3 = getfield v0, field0\n  return v3\n}",
        );
        let v = validate(&m, TrapModel::windows_ia32(), &f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].block, BlockId(2));
    }
}
