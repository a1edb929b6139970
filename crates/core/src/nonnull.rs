//! The forward non-nullness analysis shared by phase 1 (§4.1.2) and the
//! Whaley baseline (§2.2), and their one elimination walk,
//! [`eliminate_redundant`], which takes the value numbering of
//! [`crate::gvn`] as an optional second witness.
//!
//! Facts are variables known to hold non-null references. The analysis is a
//! must-analysis (intersection meet); facts are generated by null checks,
//! allocations, and `ifnonnull` edges, killed by overwrites, and — for
//! soundness — restricted on exceptional edges to the facts valid at every
//! potentially-throwing point of the source block.
//!
//! ## Copies transfer facts
//!
//! A copy `w = v` makes `w` hold the *same* reference as `v`, so `w`
//! inherits `v`'s null status instead of being killed (the precision bug
//! called out by Das & Lal's GVN paper; the full congruence treatment over
//! re-loaded fields lives in [`crate::gvn`]). The per-block summary
//! therefore carries, besides `gen`/`kill`, an ordered list of *copy
//! pairs* `(dst, src)`: at block exit `dst` holds the value `src` had at
//! block entry, so the out-fact for `dst` is exactly the in-fact for
//! `src`. The summary is computed by a symbolic walk tracking, per
//! variable, whether it still holds some variable's entry value, a value
//! proven non-null in-block, or an unknown value.
//!
//! ## Exceptional edges
//!
//! The handler observes each variable's value *at the throwing point*, and
//! any throwing point of the block may be the one that fired. A fact is
//! valid at handler entry only if it is implied at **every**
//! potentially-throwing point (explicit null checks, instructions that can
//! throw something else, marked exception sites, and a `throw`
//! terminator). Per variable that meet is one of: still the entry value of
//! some `u` at every throwing point (`exc_mask` when `u` is the variable
//! itself, an `exc_copy` pair otherwise — the fact transfers iff `u` has
//! it at entry), proven non-null before every throwing point
//! (`exc_always`), or nothing. A non-throwing copy no longer masks its
//! destination the way a real overwrite does.

use njc_dataflow::{BitSet, Direction, Meet, Problem};
use njc_ir::{BlockId, CheckId, Function, Inst, Terminator, VarId};
use njc_observe::{CheckEvent, InterprocFact, Recorder, Redundancy};

use crate::ctx::AnalysisCtx;
use crate::gvn::ValueNumbering;

/// Per-block transfer sets for the non-nullness analysis.
#[derive(Clone, Debug, Default)]
pub struct NonNullSets {
    /// Facts established by the end of the block.
    pub gen: Vec<BitSet>,
    /// Facts killed (overwritten with unknown values) in the block.
    pub kill: Vec<BitSet>,
    /// Ordered copy pairs `(dst, src)` per block: at block exit `dst`
    /// holds the value `src` had at entry, so `dst`'s out-fact equals
    /// `src`'s in-fact. Applied after `gen`/`kill` in the transfer.
    pub copy: Vec<Vec<(u32, u32)>>,
    /// Variables that hold their own entry value at every throwing point
    /// of the block: their entry fact survives onto the exceptional edge.
    pub exc_mask: Vec<BitSet>,
    /// Pairs `(dst, src)`: `dst` holds `src`'s entry value at every
    /// throwing point, so `src`'s entry fact reaches the handler as a
    /// fact about `dst`.
    pub exc_copy: Vec<Vec<(u32, u32)>>,
    /// Variables proven non-null before every throwing point: the handler
    /// gets the fact unconditionally.
    pub exc_always: Vec<BitSet>,
    /// Whether an interprocedural assumption generated a fact (a call or
    /// field load [`AnalysisCtx::assumed_nonnull_def`] matched). When none
    /// did, these are exactly the sets [`compute_sets`] computes.
    pub assumed_gens: bool,
}

/// Computes the per-block sets without interprocedural assumptions.
pub fn compute_sets(func: &Function) -> NonNullSets {
    SetsWorkspace::default().compute(None, func)
}

/// What a variable holds at a program point, for the symbolic block walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VarState {
    /// Still the value variable `u` had at block entry.
    Entry(u32),
    /// A value proven non-null in this block (check, allocation, assumed
    /// gen, or a copy of one).
    Fact,
    /// An unknown value.
    Unknown,
}

/// The meet of a variable's [`VarState`] over every throwing point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ExcState {
    /// No throwing point seen yet.
    Top,
    /// Non-null at every throwing point regardless of entry facts.
    Always,
    /// Holds `u`'s entry value at every throwing point.
    IfEntry(u32),
    /// No fact survives to the handler.
    Never,
}

impl ExcState {
    fn fold(self, s: VarState) -> ExcState {
        match (self, s) {
            (_, VarState::Unknown) | (ExcState::Never, _) => ExcState::Never,
            (ExcState::Top, VarState::Fact) | (ExcState::Always, VarState::Fact) => {
                ExcState::Always
            }
            (ExcState::Top, VarState::Entry(u)) | (ExcState::Always, VarState::Entry(u)) => {
                ExcState::IfEntry(u)
            }
            (ExcState::IfEntry(u), VarState::Fact) => ExcState::IfEntry(u),
            (ExcState::IfEntry(u), VarState::Entry(w)) => {
                if u == w {
                    ExcState::IfEntry(u)
                } else {
                    ExcState::Never
                }
            }
        }
    }
}

/// Whether this instruction can transfer control to the block's handler:
/// the exceptional edge is taken only from these points. Explicit null
/// checks, instructions that throw non-NPE exceptions, and accesses marked
/// as implicit-check exception sites all qualify (the marked-site case is
/// model-independent here: a superset of throwing points is conservative).
pub(crate) fn is_throw_point(inst: &Inst) -> bool {
    matches!(inst, Inst::NullCheck { .. }) || inst.can_throw_other() || inst.is_exception_site()
}

/// Sizes `v` to `n` empty sets of `capacity`, reusing its sets.
pub(crate) fn fit_sets(v: &mut Vec<BitSet>, n: usize, capacity: usize) {
    v.truncate(n);
    for s in v.iter_mut() {
        s.reset(capacity);
    }
    v.resize_with(n, || BitSet::new(capacity));
}

/// Sizes `v` to `n` empty lists, reusing its lists.
fn fit_lists<T>(v: &mut Vec<Vec<T>>, n: usize) {
    v.truncate(n);
    for l in v.iter_mut() {
        l.clear();
    }
    v.resize_with(n, Vec::new);
}

/// The buffers of [`SetsWorkspace::compute`], kept between calls on one
/// function: the symbolic walk's per-variable state and the tables of
/// sets handed back through [`SetsWorkspace::recycle`]. Every call refills
/// what it reads, so the sets never depend on what was computed before.
#[derive(Clone, Debug, Default)]
pub struct SetsWorkspace {
    state: Vec<VarState>,
    exc: Vec<ExcState>,
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    written: Vec<usize>,
    /// Recycled sets whose tables later calls refill (phase 1 holds two
    /// at once).
    spare: Vec<NonNullSets>,
}

impl SetsWorkspace {
    /// Hands `sets`' tables back for a later call to refill.
    pub fn recycle(&mut self, sets: NonNullSets) {
        self.spare.push(sets);
    }

    /// Computes the per-block sets, reusing this workspace's buffers. With
    /// `ctx`, its interprocedural assumptions add gens: a call whose every
    /// resolvable callee provably returns non-null and a load of an
    /// always-initialized non-null field generate a fact for their
    /// destination, mirroring the allocation arm. With no assumptions
    /// attached to the context they are those of [`compute_sets`].
    pub fn compute(&mut self, ctx: Option<&AnalysisCtx<'_>>, func: &Function) -> NonNullSets {
        let nv = func.num_vars();
        let nb = func.num_blocks();
        let mut out = self.spare.pop().unwrap_or_default();
        fit_sets(&mut out.gen, nb, nv);
        fit_sets(&mut out.kill, nb, nv);
        fit_lists(&mut out.copy, nb);
        fit_sets(&mut out.exc_mask, nb, nv);
        fit_lists(&mut out.exc_copy, nb);
        fit_sets(&mut out.exc_always, nb, nv);
        let SetsWorkspace {
            state,
            exc,
            touched,
            is_touched,
            written,
            ..
        } = self;
        // The walk is sparse: a variable the block never writes holds its
        // entry value throughout (no gen, no kill, no copy) and, when the
        // block throws, reaches the handler as `IfEntry(v)` — a mask bit.
        // Only written variables get a `state`/`exc` entry, reset at block
        // end.
        state.clear();
        state.extend((0..nv as u32).map(VarState::Entry));
        exc.clear();
        exc.resize(nv, ExcState::Top);
        touched.clear();
        is_touched.clear();
        is_touched.resize(nv, false);
        // Variables written since the last throwing point. Folding the same
        // state twice in a row is a no-op (`fold` is idempotent in its
        // state argument), so a throwing point folds only these: every
        // other variable still holds what was folded last time.
        written.clear();
        let mut assumed_gens = false;
        for (bi, b) in func.blocks().iter().enumerate() {
            let mut saw_throw = false;
            // The handler observes the state *before* a throwing
            // instruction executes (its own gen has not happened if it
            // throws).
            let throw_point =
                |exc: &mut [ExcState], state: &[VarState], written: &mut Vec<usize>| {
                    for &v in written.iter() {
                        exc[v] = exc[v].fold(state[v]);
                    }
                    written.clear();
                };
            for inst in &b.insts {
                if is_throw_point(inst) {
                    throw_point(exc, state, written);
                    saw_throw = true;
                }
                let (d, s) = if let Some(d) = ctx.and_then(|c| c.assumed_nonnull_def(inst)) {
                    assumed_gens = true;
                    (d.index(), VarState::Fact)
                } else {
                    match inst {
                        Inst::NullCheck { var, .. } => (var.index(), VarState::Fact),
                        Inst::New { dst, .. } | Inst::NewArray { dst, .. } => {
                            (dst.index(), VarState::Fact)
                        }
                        Inst::Move { dst, src } => (dst.index(), state[src.index()]),
                        _ => match inst.def() {
                            Some(d) => (d.index(), VarState::Unknown),
                            None => continue,
                        },
                    }
                };
                if !is_touched[d] {
                    // Every throwing point so far saw the entry value.
                    is_touched[d] = true;
                    touched.push(d);
                    if saw_throw {
                        exc[d] = ExcState::IfEntry(d as u32);
                    }
                }
                state[d] = s;
                written.push(d);
            }
            if matches!(b.term, Terminator::Throw(_)) {
                // The throw happens after every instruction: the handler
                // sees the block's exit state.
                throw_point(exc, state, written);
                saw_throw = true;
            }
            written.clear();
            touched.sort_unstable();
            let (g, k, cp) = (&mut out.gen[bi], &mut out.kill[bi], &mut out.copy[bi]);
            let (mask, ecp, always) = (
                &mut out.exc_mask[bi],
                &mut out.exc_copy[bi],
                &mut out.exc_always[bi],
            );
            if saw_throw {
                mask.set_all();
            } else {
                // No throwing point: the edge can never be taken at run
                // time, so it may contribute ⊤ (everything) to the
                // handler's meet.
                always.set_all();
            }
            for &v in touched.iter() {
                match state[v] {
                    VarState::Fact => {
                        g.insert(v);
                    }
                    VarState::Entry(u) if u as usize != v => cp.push((v as u32, u)),
                    VarState::Entry(_) => {}
                    VarState::Unknown => {
                        k.insert(v);
                    }
                }
                if saw_throw {
                    mask.remove(v);
                    match exc[v] {
                        ExcState::Always => {
                            always.insert(v);
                        }
                        ExcState::IfEntry(u) if u as usize == v => {
                            mask.insert(v);
                        }
                        ExcState::IfEntry(u) => ecp.push((v as u32, u)),
                        ExcState::Top | ExcState::Never => {}
                    }
                }
                state[v] = VarState::Entry(v as u32);
                exc[v] = ExcState::Top;
                is_touched[v] = false;
            }
            touched.clear();
        }
        out.assumed_gens = assumed_gens;
        out
    }
}

/// Whether the CFG edge `from → to` is (only) the exceptional edge to the
/// handler of `from`'s try region.
pub fn is_exceptional_edge(func: &Function, from: BlockId, to: BlockId) -> bool {
    let b = func.block(from);
    match b.try_region {
        Some(tr) => func.try_region(tr).handler == to && !b.term.has_successor(to),
        None => false,
    }
}

/// The non-nullness dataflow problem. `earliest`, when present, models the
/// phase 1 insertion points: those checks are assumed already inserted at
/// each block's exit (§4.1.2's `∪ Earliest(m)` term). The library builds
/// it in one place, [`crate::Workspace::solve_nonnull`].
pub struct NonNullProblem<'a> {
    /// The function under analysis.
    pub func: &'a Function,
    /// Per-block transfer sets from [`SetsWorkspace::compute`].
    pub sets: NonNullSets,
    /// Phase 1 insertion points, or `None` for the Whaley baseline.
    pub earliest: Option<&'a [BitSet]>,
    /// Interprocedurally proven non-null parameters, OR-ed into the entry
    /// boundary (see [`AnalysisCtx::entry_facts`]), or `None` when the
    /// analysis runs without assumptions.
    pub entry: Option<BitSet>,
    /// Number of facts (variables).
    pub num_facts: usize,
}

impl Problem for NonNullProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Intersect
    }
    fn num_facts(&self) -> usize {
        self.num_facts
    }
    fn boundary(&self) -> BitSet {
        let mut b = match &self.entry {
            // Interprocedurally proven non-null parameters enter as facts.
            Some(e) => e.clone(),
            None => BitSet::new(self.num_facts),
        };
        if self.func.is_instance() {
            // `this` is non-null on entry (§4.1.2 Edge, second bullet).
            b.insert(0);
        }
        b
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        // out = (in - kill) ∪ gen, via the allocation-free two-operand op,
        // then the copy pairs: dst's out-fact is src's in-fact.
        output.subtract_from(input, &self.sets.kill[block.index()]);
        output.union_with(&self.sets.gen[block.index()]);
        for &(dst, src) in &self.sets.copy[block.index()] {
            if input.contains(src as usize) {
                output.insert(dst as usize);
            } else {
                output.remove(dst as usize);
            }
        }
    }
    fn edge_uses_input(&self, from: BlockId, to: BlockId) -> bool {
        is_exceptional_edge(self.func, from, to)
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        if is_exceptional_edge(self.func, from, to) {
            // `set` holds the block's entry facts (edge_uses_input).
            let fi = from.index();
            let copies = &self.sets.exc_copy[fi];
            if copies.is_empty() {
                set.intersect_with(&self.sets.exc_mask[fi]);
            } else {
                let input = set.clone();
                set.intersect_with(&self.sets.exc_mask[fi]);
                for &(dst, src) in copies {
                    if input.contains(src as usize) {
                        set.insert(dst as usize);
                    }
                }
            }
            set.union_with(&self.sets.exc_always[fi]);
            return;
        }
        if let Some(earliest) = self.earliest {
            set.union_with(&earliest[from.index()]);
        }
        // Edge(m, n): nullness branches (§4.1.2 Edge, first bullet).
        if let Terminator::IfNull {
            var,
            on_null,
            on_nonnull,
        } = self.func.block(from).term
        {
            if to == on_nonnull && to != on_null {
                set.insert(var.index());
            }
        }
    }
}

/// The provenance an assumed gen instruction contributes (see
/// [`AnalysisCtx::assumed_nonnull_def`]).
pub(crate) fn assumed_source(ctx: &AnalysisCtx<'_>, inst: &Inst) -> Redundancy {
    match inst {
        Inst::Call { target, .. } => Redundancy::Interproc(InterprocFact::Return {
            callee: ctx
                .nonnull_return_callee(target)
                .expect("assumed gen resolves a callee"),
        }),
        Inst::GetField { field, .. } => {
            Redundancy::Interproc(InterprocFact::Field { field: *field })
        }
        _ => unreachable!("assumed_nonnull_def only matches calls and field loads"),
    }
}

/// For attribution: why each variable *could* be non-null through an
/// interprocedural fact — a proven parameter, a non-null-returning call's
/// destination, or an always-initialized field load's destination.
/// Parameter facts take precedence; among instructions the first in block
/// order wins (deterministic).
pub(crate) fn interproc_sources(
    ctx: &AnalysisCtx<'_>,
    func: &Function,
    nv: usize,
) -> Vec<Option<Redundancy>> {
    let mut source: Vec<Option<Redundancy>> = vec![None; nv];
    if let Some(ff) = ctx.assumptions().and_then(|a| a.function(func.name())) {
        for &p in &ff.nonnull_params {
            if (p as usize) < nv {
                source[p as usize] = Some(Redundancy::Interproc(InterprocFact::Param {
                    param: VarId::new(p as usize),
                    sites: ff.call_sites,
                }));
            }
        }
    }
    for b in func.blocks() {
        for inst in &b.insts {
            if let Some(d) = ctx.assumed_nonnull_def(inst) {
                if source[d.index()].is_none() {
                    source[d.index()] = Some(assumed_source(ctx, inst));
                }
            }
        }
    }
    source
}

/// What [`eliminate_redundant`] did: total checks removed, and how many
/// of those only the value-numbered witness could justify.
#[derive(Default, Clone, Copy, Debug)]
pub struct Elimination {
    /// Checks removed.
    pub eliminated: usize,
    /// The subset of `eliminated` the per-variable solution does not
    /// justify: kills attributed [`Redundancy::Gvn`].
    pub gvn_only: usize,
}

/// The event recording one removal: phase 1's forward pass or the Whaley
/// baseline.
fn eliminated_event(
    phase1: bool,
    id: CheckId,
    var: VarId,
    block: BlockId,
    why: Redundancy,
) -> CheckEvent {
    if phase1 {
        CheckEvent::Phase1Eliminated {
            id,
            var,
            block,
            why,
        }
    } else {
        CheckEvent::WhaleyEliminated {
            id,
            var,
            block,
            why,
        }
    }
}

/// A kill only the congruence class justified, attributed to the lowest
/// *other* variable bound to `var`'s number (the one whose check or def
/// this one rides on) and the class's live size.
fn class_witness(state: &[u32], var: VarId) -> Redundancy {
    let x = state[var.index()];
    let mut representative = var;
    let mut class_size = 0u32;
    for (w, &wvn) in state.iter().enumerate() {
        if wvn == x {
            class_size += 1;
            if w != var.index() && representative == var {
                representative = VarId::new(w);
            }
        }
    }
    Redundancy::Gvn {
        representative,
        class_size,
    }
}

/// Removes every null check whose target is non-null at the point
/// immediately preceding it, given the solved per-block entry sets `ins`,
/// by replaying each block from its entry facts. Every removal records
/// *which* fact justified it — the `In_fwd` entry fact, a prior check in
/// the block (by id), an in-block allocation, or an interprocedural fact.
/// `phase1` selects the event variant (phase 1's forward pass vs the
/// Whaley baseline).
///
/// * `ctx`: the replay treats its assumed gens (non-null-returning calls,
///   always-initialized field loads) as facts, as the problem
///   [`crate::Workspace::solve_nonnull`] solved under it does. When
///   `base_ins` — the solution of the *same* problem without assumptions —
///   is supplied and recording is on, each entry fact present only in
///   `ins` is attributed to the interprocedural fact that introduced it
///   ([`Redundancy::Interproc`]), so `njc explain` can tell an
///   interprocedurally-dead check from an intraprocedurally-dead one.
/// * `gvn`: a value numbering and the entry sets of the value-numbered
///   problem over it. A second replay runs in lockstep, so a check dies
///   when *either* solution proves it: a strict superset of the
///   per-variable kills. A kill the per-variable replay also proves keeps
///   its provenance; the rest are attributed to their congruence class
///   ([`Redundancy::Gvn`]) and counted in [`Elimination::gvn_only`].
pub fn eliminate_redundant(
    ctx: Option<&AnalysisCtx<'_>>,
    func: &mut Function,
    ins: &[BitSet],
    base_ins: Option<&[BitSet]>,
    gvn: Option<(&ValueNumbering, &[BitSet])>,
    rec: &mut Recorder,
    phase1: bool,
) -> Elimination {
    let mut result = Elimination::default();
    let nv = func.num_vars();
    let recording = rec.is_enabled();
    // Why each in-set variable is non-null, tracked only when recording.
    let mut why: Vec<Redundancy> = if recording {
        vec![Redundancy::NonNullAtEntry; nv]
    } else {
        Vec::new()
    };
    let sources: Vec<Option<Redundancy>> = match (ctx, recording) {
        (Some(c), true) if c.assumptions().is_some() => interproc_sources(c, func, nv),
        _ => Vec::new(),
    };
    let mut set = BitSet::default();
    // The value-numbered replay: each variable's number, and the numbers
    // known non-null.
    let mut state: Vec<u32> = Vec::new();
    let mut vset = BitSet::default();
    for (bi, in_set) in ins.iter().enumerate().take(func.num_blocks()) {
        let block_id = BlockId::new(bi);
        set.clone_from(in_set);
        if let Some((vn, gvn_ins)) = gvn {
            state.clear();
            state.extend_from_slice(vn.entry_vn(bi));
            vset.clone_from(&gvn_ins[bi]);
        }
        if recording {
            why.iter_mut().for_each(|w| *w = Redundancy::NonNullAtEntry);
            // Attribute entry facts the plain analysis does not have to
            // the interprocedural fact that minted them.
            if let Some(base) = base_ins {
                if !sources.is_empty() {
                    for v in in_set.iter() {
                        if !base[bi].contains(v) {
                            if let Some(s) = sources[v] {
                                why[v] = s;
                            }
                        }
                    }
                }
            }
        }
        // insts_mut: instruction-only rewrite, CFG caches stay valid. The
        // replay keeps what `retain` keeps, in order; `idx` is each
        // instruction's original index, which the numbering is keyed by.
        let mut idx = 0;
        func.insts_mut(block_id).retain(|inst| {
            let i = idx;
            idx += 1;
            // The variable this instruction proves non-null, if any.
            let gen = match inst {
                Inst::NullCheck { var, id, .. } => {
                    let class = gvn.map(|_| state[var.index()] as usize);
                    let hit = set.contains(var.index());
                    if hit || class.is_some_and(|x| vset.contains(x)) {
                        result.eliminated += 1;
                        result.gvn_only += usize::from(!hit);
                        if recording {
                            let w = if hit {
                                why[var.index()]
                            } else {
                                class_witness(&state, *var)
                            };
                            rec.record(eliminated_event(phase1, *id, *var, block_id, w));
                        }
                        return false;
                    }
                    set.insert(var.index());
                    if let Some(x) = class {
                        vset.insert(x);
                    }
                    if recording {
                        why[var.index()] = Redundancy::PriorCheck(*id);
                    }
                    // A check defines nothing: the numbering does not step.
                    return true;
                }
                Inst::New { dst, .. } | Inst::NewArray { dst, .. } => {
                    set.insert(dst.index());
                    if recording {
                        why[dst.index()] = Redundancy::Allocation;
                    }
                    Some(*dst)
                }
                Inst::Move { dst, src } => {
                    // The copy inherits the source's null status (and its
                    // provenance: a check of the source covers the copy).
                    // The numbered replay needs nothing: both sides share
                    // a number.
                    if set.contains(src.index()) {
                        set.insert(dst.index());
                        if recording {
                            why[dst.index()] = why[src.index()];
                        }
                    } else {
                        set.remove(dst.index());
                    }
                    None
                }
                _ => {
                    let assumed = ctx.and_then(|c| c.assumed_nonnull_def(inst));
                    if let Some(d) = assumed {
                        set.insert(d.index());
                        if recording {
                            why[d.index()] =
                                assumed_source(ctx.expect("assumed gen has a context"), inst);
                        }
                    } else if let Some(d) = inst.def() {
                        set.remove(d.index());
                    }
                    assumed
                }
            };
            if let Some((vn, _)) = gvn {
                vn.step(bi, i, inst, &mut state);
                if let Some(d) = gen {
                    vset.insert(state[d.index()] as usize);
                }
            }
            true
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_dataflow::solve;
    use njc_ir::parse_function;

    fn solve_fn(f: &Function) -> Vec<BitSet> {
        let p = NonNullProblem {
            func: f,
            sets: compute_sets(f),
            earliest: None,
            entry: None,
            num_facts: f.num_vars(),
        };
        solve(f, &p).ins
    }

    fn eliminate(f: &mut Function, ins: &[BitSet]) -> usize {
        eliminate_redundant(None, f, ins, None, None, &mut Recorder::disabled(), false).eliminated
    }

    #[test]
    fn this_is_nonnull_at_entry() {
        let f = parse_function(
            "func m(v0: ref) -> int instance {\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        assert!(ins[0].contains(0));
    }

    #[test]
    fn ifnonnull_edge_generates_fact() {
        let f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  ifnull v0 then bb1 else bb2\nbb1:\n  v1 = const 0\n  return v1\nbb2:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        assert!(!ins[1].contains(0), "null edge has no fact");
        assert!(ins[2].contains(0), "non-null edge carries the fact");
    }

    #[test]
    fn eliminate_redundant_respects_kills() {
        let mut f = parse_function(
            "func f(v0: ref, v1: ref) -> int {\n  locals v2: int\nbb0:\n  nullcheck v0\n  v2 = getfield v0, field0\n  v0 = move v1\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        let removed = eliminate(&mut f, &ins);
        assert_eq!(
            removed, 0,
            "the copy re-targets v0 at the unchecked v1; no fact transfers"
        );
    }

    #[test]
    fn copy_of_checked_var_inherits_fact_in_block() {
        // Regression pin for the copy-kill bug: `v1 = move v0` after a
        // check of v0 used to kill v1's fact; it now transfers.
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  nullcheck v0\n  v2 = getfield v0, field0\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  return v2\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 1, "the copy's check is redundant: {f}");
    }

    #[test]
    fn copy_fact_survives_across_blocks() {
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  nullcheck v0\n  v2 = getfield v0, field0\n  v1 = move v0\n  goto bb1\nbb1:\n  nullcheck v1\n  v2 = getfield v1, field0\n  return v2\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        assert!(ins[1].contains(1), "copy pair carries the fact to bb1");
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 1, "{f}");
    }

    #[test]
    fn copy_chain_transfers_fact() {
        // w = v; x = w — the whole chain inherits the fact.
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v1 = move v0\n  v2 = move v1\n  goto bb1\nbb1:\n  nullcheck v2\n  v3 = getfield v2, field0\n  return v3\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        assert!(ins[1].contains(2));
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 1, "{f}");
    }

    #[test]
    fn copy_of_unchecked_var_gains_no_fact() {
        let mut f = parse_function(
            "func f(v0: ref, v1: ref) -> int {\n  locals v2: ref v3: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v2 = move v1\n  nullcheck v2\n  v3 = getfield v2, field0\n  return v3\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 0, "v1 carries no fact for its copy");
    }

    #[test]
    fn copy_before_throw_point_reaches_handler() {
        // `v1 = move v0` precedes the only throwing point (the div): the
        // handler observes v1 == entry v0, so v0's pre-region fact covers
        // the handler's check of v1 (the old exc_mask dropped this).
        let mut f = parse_function(
            "func f(v0: ref, v1: ref, v2: int) -> int {\n  locals v3: int v4: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  goto bb1\n  try0: handler bb2 catch any -> v4\nbb1: [try0]\n  v1 = move v0\n  v3 = div.int v3, v2\n  observe v3\n  return v3\nbb2:\n  nullcheck v1\n  v3 = getfield v1, field0\n  return v3\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        assert!(ins[2].contains(1), "handler entry holds the copied fact");
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 1, "handler check eliminated: {f}");
    }

    #[test]
    fn copy_after_throw_point_does_not_reach_handler() {
        // The copy happens after the div: if the div throws, the handler
        // sees v1's old (unknown) value.
        let mut f = parse_function(
            "func f(v0: ref, v1: ref, v2: int) -> int {\n  locals v3: int v4: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  goto bb1\n  try0: handler bb2 catch any -> v4\nbb1: [try0]\n  v3 = div.int v3, v2\n  v1 = move v0\n  observe v3\n  return v3\nbb2:\n  nullcheck v1\n  v3 = getfield v1, field0\n  return v3\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        assert!(!ins[2].contains(1), "late copy must not leak to handler");
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 0, "{f}");
    }

    #[test]
    fn overwrite_after_last_throw_point_keeps_entry_fact_on_edge() {
        // v0 is overwritten only *after* the div: at the throwing point it
        // still held its (checked) entry value, so the handler keeps the
        // fact. The old killed-anywhere mask dropped it.
        let mut f = parse_function(
            "func f(v0: ref, v1: ref, v2: int) -> int {\n  locals v3: int v4: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  goto bb1\n  try0: handler bb2 catch any -> v4\nbb1: [try0]\n  v3 = div.int v3, v2\n  v0 = move v1\n  observe v3\n  return v3\nbb2:\n  nullcheck v0\n  v3 = getfield v0, field0\n  return v3\n}",
        )
        .unwrap();
        let ins = solve_fn(&f);
        // The handler's meet still sees bb1's exceptional edge carrying
        // v0's entry fact (valid at the div) — but NOT the normal paths'
        // post-overwrite value. The normal edge out of bb1 is a return, so
        // only the exceptional edge reaches bb2.
        assert!(ins[2].contains(0), "entry fact valid at the throw point");
        let removed = eliminate(&mut f, &ins);
        assert_eq!(removed, 1, "{f}");
    }
}
