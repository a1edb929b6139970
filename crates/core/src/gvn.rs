//! Global value numbering for the forward non-nullness analysis.
//!
//! The paper's phase 1 (§4.1.2) tracks non-nullness per *variable slot*, so
//! a check on `v` proves nothing about a copy `w = v`, a re-loaded field, or
//! a phi-merged pointer — every overwrite is a pure kill. Das & Lal
//! ("Precise Null Pointer Analysis Through Global Value Numbering") close
//! the gap: run the same must-analysis over *value numbers*, so one
//! member's check covers its whole congruence class.
//!
//! This module builds a per-function value numbering and a VN-indexed
//! variant of the non-nullness problem:
//!
//! * [`ValueNumbering`] assigns every variable, at every block boundary and
//!   instruction, a value number. Copies share their source's number; field
//!   loads of the same (object VN, field) pair are congruent until a
//!   potentially-aliasing store or call bumps the *memory epoch*; values
//!   that merge differently at a join get a fresh phi number per
//!   (block, variable).
//! * [`GvnNonNullSets`]/[`GvnNonNullProblem`] re-derive the transfer
//!   functions per class. Value numbers are immutable values, so there are
//!   **no kills** — a redefinition of `v` simply rebinds `v` to another
//!   number. Facts cross CFG edges by *translation*: a fact survives an
//!   edge exactly when some variable carries it across (which also keeps a
//!   phi number from leaking between loop iterations, where it denotes a
//!   different value). `exc_mask` semantics fall out per class: a copy
//!   doesn't throw, so copy-propagated facts survive to the handler; only
//!   gens at or after the block's first throw point are masked off.
//! * The VN solution is an optional *witness* of the one elimination walk,
//!   [`nonnull::eliminate_redundant`]: it replays blocks against both the
//!   per-variable solution and the VN solution, so GVN-on removes a strict
//!   superset of checks, every per-variable kill keeps its provenance, and
//!   each GVN-only kill is attributed `Redundancy::Gvn`
//!   `{ representative, class_size }` for the conservation ledger.
//!
//! The numbering is also the precision backbone of the static coverage
//! validator (`njc-analysis`): a sound validator may use any sound
//! precision, and per-variable coverage proofs do not survive passes that
//! move copies (a hoisted `w = v` is justified by `w ≅ v`, not by a check
//! of `w` on every path).

use std::cell::RefCell;
use std::collections::HashMap;

use njc_dataflow::{BitSet, Direction, Meet, Problem};
use njc_ir::{BlockId, CfgCache, Function, Inst, Terminator};

use crate::ctx::AnalysisCtx;
use crate::nonnull::{self, is_exceptional_edge};

/// Sentinel for "this instruction defines nothing" in [`ValueNumbering::def_vn`].
pub const NO_VN: u32 = u32::MAX;

/// The default throw-point predicate for optimizer clients: the points from
/// which control can transfer to the block's handler (explicit null checks,
/// non-NPE throwers, and marked implicit-check sites — model-independent,
/// a conservative superset). The coverage validator passes its own
/// model-dependent predicate instead.
pub fn default_throw_point(inst: &Inst) -> bool {
    nonnull::is_throw_point(inst)
}

/// Where value numbers come from. Every number is handed out the first
/// time its *key* is asked for, and two expressions get the same number iff
/// their keys are equal, which makes congruence syntactic. The keys are:
///
/// * `Entry(v)`: variable `v`'s value on function entry, and `EntryMem`,
///   the memory epoch on entry;
/// * `Def(block, i)`: the opaque value defined by instruction `i` of
///   `block` (consts, calls, allocations, array loads, arithmetic);
/// * `Store(block, i)`: the memory epoch after the potentially-aliasing
///   write at `(block, i)` (putfield / array store / call);
/// * `Merge(block, v)` / `MemMerge(block)`: a phi at the head of `block`
///   where `v` (or the epoch) merges distinct values;
/// * `ExcMerge(block, v)` / `ExcMemMerge(block)`: the same on `block`'s
///   exceptional edge, where two throw points disagree;
/// * `Load(obj, field, epoch)`: `getfield obj, field` under a memory
///   epoch, so a re-load is congruent until a store or call bumps it.
///
/// Every key but `Load` is indexed by a variable, a block, a (block,
/// variable) pair or an instruction, so each shape gets a dense table of
/// first-sight slots ([`NO_VN`] until asked for). Only `Load`, whose parts
/// are themselves numbers, needs a map. Since a slot takes the next number
/// on first sight, the numbers come out in exactly the order one interner
/// over all shapes would hand them out.
#[derive(Clone, Debug, Default)]
struct Numbers {
    next: u32,
    nv: usize,
    /// `Merge(block, v)` and `ExcMerge(block, v)`, at `block * nv + v`.
    merge: Vec<u32>,
    exc_merge: Vec<u32>,
    /// `MemMerge(block)` and `ExcMemMerge(block)`.
    mem_merge: Vec<u32>,
    exc_mem_merge: Vec<u32>,
    /// Start of each block's instructions in `def` and `store`, plus the
    /// total instruction count as the last entry.
    inst_base: Vec<usize>,
    /// `Def(block, i)` and `Store(block, i)`, at `inst_base[block] + i`.
    def: Vec<u32>,
    store: Vec<u32>,
    load: HashMap<(u32, u32, u32), u32>,
}

/// Takes the next number into an empty slot; returns the slot's number.
fn first_sight(slot: &mut u32, next: &mut u32) -> u32 {
    if *slot == NO_VN {
        assert!(*next < NO_VN, "value number overflow");
        *slot = *next;
        *next += 1;
    }
    *slot
}

/// Refills `v` with `n` copies of `x`, reusing its buffer.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

impl Numbers {
    /// Forgets every number and sizes the slot tables for `func`,
    /// reusing their buffers.
    fn reset(&mut self, func: &Function) {
        let nb = func.num_blocks();
        let nv = func.num_vars();
        self.inst_base.clear();
        let mut total = 0;
        for b in func.blocks() {
            self.inst_base.push(total);
            total += b.insts.len();
        }
        self.inst_base.push(total);
        self.next = 0;
        self.nv = nv;
        refill(&mut self.merge, nb * nv, NO_VN);
        refill(&mut self.exc_merge, nb * nv, NO_VN);
        refill(&mut self.mem_merge, nb, NO_VN);
        refill(&mut self.exc_mem_merge, nb, NO_VN);
        refill(&mut self.def, total, NO_VN);
        refill(&mut self.store, total, NO_VN);
        self.load.clear();
    }

    /// A number no key shares (the entry frame's `Entry(v)`/`EntryMem`).
    fn fresh(&mut self) -> u32 {
        let mut slot = NO_VN;
        first_sight(&mut slot, &mut self.next)
    }

    fn merge(&mut self, bi: usize, v: usize) -> u32 {
        first_sight(&mut self.merge[bi * self.nv + v], &mut self.next)
    }

    /// Whether `Merge(bi, v)` was ever handed out: a join that once saw
    /// disagreement stays a phi.
    fn is_merged(&self, bi: usize, v: usize) -> bool {
        self.merge[bi * self.nv + v] != NO_VN
    }

    fn exc_merge(&mut self, bi: usize, v: usize) -> u32 {
        first_sight(&mut self.exc_merge[bi * self.nv + v], &mut self.next)
    }

    fn mem_merge(&mut self, bi: usize) -> u32 {
        first_sight(&mut self.mem_merge[bi], &mut self.next)
    }

    /// Whether `MemMerge(bi)` was ever handed out (sticky, like
    /// [`Numbers::is_merged`]).
    fn is_mem_merged(&self, bi: usize) -> bool {
        self.mem_merge[bi] != NO_VN
    }

    fn exc_mem_merge(&mut self, bi: usize) -> u32 {
        first_sight(&mut self.exc_mem_merge[bi], &mut self.next)
    }

    fn def(&mut self, bi: usize, i: usize) -> u32 {
        first_sight(&mut self.def[self.inst_base[bi] + i], &mut self.next)
    }

    fn store(&mut self, bi: usize, i: usize) -> u32 {
        first_sight(&mut self.store[self.inst_base[bi] + i], &mut self.next)
    }

    fn load(&mut self, obj: u32, field: u32, ep: u32) -> u32 {
        first_sight(
            self.load.entry((obj, field, ep)).or_insert(NO_VN),
            &mut self.next,
        )
    }
}

/// A per-function value numbering: the variable→VN binding at every block
/// boundary, the VN defined by every instruction, and the folded bindings
/// on each block's exceptional edge.
///
/// Each table is one flat vector of rows, read through the row accessors
/// ([`ValueNumbering::entry_vn`] and its siblings): the variable-indexed
/// tables have stride `num_vars`, the instruction-indexed one a per-block
/// offset.
#[derive(Clone, Debug, Default)]
pub struct ValueNumbering {
    /// Variables per row of the variable-indexed tables.
    nv: usize,
    /// Block `b`'s variable → VN at block entry, at `b * nv`.
    entry: Vec<u32>,
    /// Block `b`'s variable → VN at block exit (after every instruction).
    exit: Vec<u32>,
    /// Block `b`'s variable → VN folded over every throw point, meaningful
    /// only when the block has one (see [`ValueNumbering::exc_vn`]).
    exc: Vec<u32>,
    /// Start of each block's row in `def`, plus the total as the last entry.
    inst_base: Vec<usize>,
    /// Per instruction: the VN its destination is bound to afterwards.
    def: Vec<u32>,
    /// Per block: instruction index of the first throw point
    /// (`insts.len()` when only the terminator throws, `usize::MAX` when
    /// nothing does). Gens strictly before this index reach the handler.
    pub exc_cut: Vec<usize>,
    /// Total distinct value numbers (the fact-space size).
    pub num_vns: usize,
}

/// The exceptional-edge binding of one block under construction: empty
/// until the first throw point, then the state there, with positions that
/// later throw points disagree on turned into sticky per-(block, var) phi
/// numbers.
#[derive(Clone, Debug, Default)]
struct ExcFold {
    vars: Vec<u32>,
    epoch: Option<u32>,
}

impl ExcFold {
    fn reset(&mut self) {
        self.vars.clear();
        self.epoch = None;
    }

    /// Folds one throw-point snapshot in.
    fn fold(&mut self, num: &mut Numbers, bi: usize, state: &[u32], ep: u32) {
        match self.epoch {
            None => {
                self.vars.extend_from_slice(state);
                self.epoch = Some(ep);
            }
            Some(acc_ep) => {
                for (v, a) in self.vars.iter_mut().enumerate() {
                    if *a != state[v] {
                        *a = num.exc_merge(bi, v);
                    }
                }
                if acc_ep != ep {
                    self.epoch = Some(num.exc_mem_merge(bi));
                }
            }
        }
    }

    fn binding(&self) -> Option<&[u32]> {
        self.epoch.map(|_| self.vars.as_slice())
    }
}

/// Overwrites `dst` with `src`, reusing `dst`'s buffer.
fn assign<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// Row `b` of a flat table with stride `nv`.
fn row(table: &[u32], nv: usize, b: usize) -> &[u32] {
    &table[b * nv..(b + 1) * nv]
}

fn row_mut(table: &mut [u32], nv: usize, b: usize) -> &mut [u32] {
    &mut table[b * nv..(b + 1) * nv]
}

impl ValueNumbering {
    /// Computes the numbering. `is_throw_point` decides which instructions
    /// can transfer control to the handler (clients differ: the optimizer
    /// uses the model-independent superset [`default_throw_point`], the
    /// coverage validator its model-dependent predicate; a superset here
    /// costs the *client's* exceptional-edge precision, so each passes its
    /// own). `Terminator::Throw` is always a throw point.
    pub fn compute(func: &Function, is_throw_point: &dyn Fn(&Inst) -> bool) -> ValueNumbering {
        GvnWorkspace::default().compute(func, &CfgCache::computed(func), is_throw_point)
    }

    /// Block `block`'s variable → VN binding at its entry.
    pub fn entry_vn(&self, block: usize) -> &[u32] {
        row(&self.entry, self.nv, block)
    }

    /// Block `block`'s variable → VN binding at its exit (after every
    /// instruction).
    pub fn exit_vn(&self, block: usize) -> &[u32] {
        row(&self.exit, self.nv, block)
    }

    /// Block `block`'s per-instruction VNs: what each instruction's
    /// destination is bound to afterwards ([`NO_VN`] for instructions
    /// without a def).
    pub fn def_vn(&self, block: usize) -> &[u32] {
        &self.def[self.inst_base[block]..self.inst_base[block + 1]]
    }

    /// Block `block`'s variable → VN binding folded over every throw point
    /// (the binding the handler observes). `None` when the block has no
    /// throw point — its exceptional edge is never taken, a ⊤
    /// contribution.
    pub fn exc_vn(&self, block: usize) -> Option<&[u32]> {
        (self.exc_cut[block] != usize::MAX).then(|| row(&self.exc, self.nv, block))
    }

    /// Advances a replay state (variable → VN) across one instruction at
    /// its *original* index `idx` in `block`.
    pub fn step(&self, block: usize, idx: usize, inst: &Inst, state: &mut [u32]) {
        if let Inst::Move { dst, src } = inst {
            state[dst.index()] = state[src.index()];
        } else if let Some(d) = inst.def() {
            state[d.index()] = self.def_vn(block)[idx];
        }
    }

    /// Translates a VN fact set across an edge: a fact survives exactly
    /// when a variable carries it — `from_frame[v]` holds in `facts` —
    /// in which case the target-side binding `to_frame[v]` is set.
    pub fn translate(from_frame: &[u32], to_frame: &[u32], facts: &BitSet, out: &mut BitSet) {
        for (v, &fvn) in from_frame.iter().enumerate() {
            if facts.contains(fvn as usize) {
                out.insert(to_frame[v] as usize);
            }
        }
    }
}

/// The buffers of [`GvnWorkspace::compute`], kept between numberings of
/// one function: the first-sight slot tables, the per-block frames and
/// flags, and the tables of a numbering handed back through
/// [`GvnWorkspace::recycle`]. Every numbering refills what it reads, so
/// the result never depends on what the workspace computed before.
#[derive(Clone, Debug, Default)]
pub struct GvnWorkspace {
    num: Numbers,
    entry_frame: Vec<u32>,
    entry_ep: Vec<u32>,
    exit_ep: Vec<u32>,
    exc_ep: Vec<Option<u32>>,
    computed: Vec<bool>,
    stale: Vec<bool>,
    contribs: Vec<(usize, bool)>,
    ev: Vec<u32>,
    state: Vec<u32>,
    dvs: Vec<u32>,
    exc: ExcFold,
    /// A recycled numbering whose tables the next one refills.
    spare: Option<ValueNumbering>,
    /// Recycled transfer sets, refilled by [`GvnWorkspace::sets`].
    spare_sets: Option<GvnNonNullSets>,
}

impl GvnWorkspace {
    /// Hands `vn`'s tables back for the next numbering to refill.
    pub fn recycle(&mut self, vn: ValueNumbering) {
        self.spare = Some(vn);
    }

    /// Computes the gen sets of the value-numbered problem over `func`'s
    /// numbering `vn`, refilling recycled sets when there are some. With a
    /// context, interprocedurally assumed defs (non-null-returning calls,
    /// always-initialized field loads) gen their destination's VN — for a
    /// field load that is the *Load class* itself, so every congruent
    /// re-load inherits the call-site fact.
    pub fn sets(
        &mut self,
        ctx: Option<&AnalysisCtx<'_>>,
        func: &Function,
        vn: &ValueNumbering,
    ) -> GvnNonNullSets {
        let mut out = self.spare_sets.take().unwrap_or_default();
        let state = &mut self.state;
        let nf = vn.num_vns;
        let nb = func.num_blocks();
        nonnull::fit_sets(&mut out.gen, nb, nf);
        nonnull::fit_sets(&mut out.exc_gen, nb, nf);
        for (b, (g, eg)) in func
            .blocks()
            .iter()
            .zip(out.gen.iter_mut().zip(&mut out.exc_gen))
        {
            let bi = b.id.index();
            assign(state, vn.entry_vn(bi));
            for (i, inst) in b.insts.iter().enumerate() {
                let gvn = if ctx.and_then(|c| c.assumed_nonnull_def(inst)).is_some() {
                    Some(vn.def_vn(bi)[i])
                } else {
                    match inst {
                        Inst::NullCheck { var, .. } => Some(state[var.index()]),
                        Inst::New { .. } | Inst::NewArray { .. } => Some(vn.def_vn(bi)[i]),
                        _ => None,
                    }
                };
                vn.step(bi, i, inst, state);
                if let Some(x) = gvn {
                    g.insert(x as usize);
                    if i < vn.exc_cut[bi] {
                        eg.insert(x as usize);
                    }
                }
            }
        }
        out
    }

    /// Hands `sets` back for [`GvnWorkspace::sets`] to refill.
    pub fn recycle_sets(&mut self, sets: GvnNonNullSets) {
        self.spare_sets = Some(sets);
    }

    /// [`ValueNumbering::compute`] over the CFG structures in `cfg` (fresh
    /// for `func`), reusing this workspace's buffers.
    ///
    /// # Panics
    /// Panics if `cfg` is stale.
    pub fn compute(
        &mut self,
        func: &Function,
        cfg: &CfgCache,
        is_throw_point: &dyn Fn(&Inst) -> bool,
    ) -> ValueNumbering {
        assert!(cfg.is_fresh(func), "value numbering needs a fresh CfgCache");
        let nb = func.num_blocks();
        let nv = func.num_vars();
        let GvnWorkspace {
            num,
            entry_frame,
            entry_ep,
            exit_ep,
            exc_ep,
            computed,
            stale,
            contribs,
            ev,
            state,
            dvs,
            exc,
            spare,
            ..
        } = self;
        num.reset(func);
        let mut out = spare.take().unwrap_or_default();

        // Blocks are visited in reverse postorder from the entry
        // (unreachable blocks appended — they still get frames, seeded
        // from their own entry bindings). The entry block leads the order,
        // so its frame takes the first numbers: `Entry(v)` is `v` and
        // `EntryMem` is `nv`.
        let entry_idx = func.entry().index();
        entry_frame.clear();
        for _ in 0..nv {
            entry_frame.push(num.fresh());
        }
        let entry_mem = num.fresh();

        // The tables, flat; a block's rows are meaningful once `computed`.
        refill(&mut out.entry, nb * nv, NO_VN);
        refill(entry_ep, nb, 0);
        refill(&mut out.exit, nb * nv, NO_VN);
        refill(exit_ep, nb, 0);
        refill(&mut out.def, num.def.len(), NO_VN);
        assign(&mut out.inst_base, &num.inst_base);
        // A block's exceptional row is its binding iff the block has a
        // throw point (`exc_cut` is set), i.e. iff `exc_ep` is `Some`.
        refill(&mut out.exc, nb * nv, NO_VN);
        refill(exc_ep, nb, None);
        refill(&mut out.exc_cut, nb, usize::MAX);
        refill(computed, nb, false);
        // Whether a predecessor's frame changed since the block's entry
        // frame was last built. A block whose inputs did not move would
        // rebuild the same frame and hand out no new number, so skipping it
        // changes neither the numbering nor its order.
        refill(stale, nb, true);
        let inst_base = &out.inst_base;
        let def_row = |bi: usize| inst_base[bi]..inst_base[bi + 1];

        // Merge decisions are sticky: once a join observes disagreement for
        // a (block, var) — or for a block's epoch — it stays a phi (its
        // `Merge` slot is taken). This is what makes the fixpoint monotone
        // (each decision flips at most once), so the pass bound below is
        // generous, not load-bearing.
        let limit = (nb + 2) * (nv + 2) + 16;
        let mut passes = 0;
        loop {
            let mut changed = false;
            for &b in cfg.rpo() {
                let bi = b.index();
                if !stale[bi] {
                    continue;
                }
                stale[bi] = false;
                // Block entry frame: agree → inherit, disagree → phi. Only
                // predecessors already visited contribute (optimistic).
                contribs.clear();
                if bi != entry_idx {
                    // The edges into `bi`, handler edges tagged. Their
                    // order and multiplicity do not matter: a position
                    // inherits only what every contributor agrees on.
                    for &p in &cfg.preds()[bi] {
                        let (pi, pb) = (p.index(), func.block(p));
                        if !computed[pi] {
                            continue;
                        }
                        if pb.term.has_successor(b) {
                            contribs.push((pi, false));
                        }
                        let handles = pb
                            .try_region
                            .is_some_and(|tr| func.try_region(tr).handler == b);
                        if handles && exc_ep[pi].is_some() {
                            contribs.push((pi, true));
                        }
                    }
                }
                ev.clear();
                let eep = if let Some((&first, rest)) = contribs.split_first() {
                    let frame = |(p, is_exc): (usize, bool)| -> &[u32] {
                        if is_exc {
                            row(&out.exc, nv, p)
                        } else {
                            row(&out.exit, nv, p)
                        }
                    };
                    let epoch = |(p, is_exc): (usize, bool)| -> u32 {
                        if is_exc {
                            exc_ep[p].expect("exc epoch")
                        } else {
                            exit_ep[p]
                        }
                    };
                    let first_frame = frame(first);
                    for (v, &x) in first_frame.iter().enumerate() {
                        let agree = rest.iter().all(|&c| frame(c)[v] == x);
                        ev.push(if !agree || num.is_merged(bi, v) {
                            num.merge(bi, v)
                        } else {
                            x
                        });
                    }
                    let first_ep = epoch(first);
                    let ep_agree = rest.iter().all(|&c| epoch(c) == first_ep);
                    if !ep_agree || num.is_mem_merged(bi) {
                        num.mem_merge(bi)
                    } else {
                        first_ep
                    }
                } else {
                    ev.extend_from_slice(entry_frame);
                    entry_mem
                };

                // The walk below is a function of the entry frame alone
                // (every number it asks for was handed out the first time),
                // so an unchanged frame means an unchanged block.
                if computed[bi] && entry_ep[bi] == eep && row(&out.entry, nv, bi) == ev {
                    continue;
                }

                // Straight-line walk of the block.
                let block = func.block(b);
                assign(state, ev);
                let mut ep = eep;
                dvs.clear();
                exc.reset();
                let mut cut = usize::MAX;
                for (i, inst) in block.insts.iter().enumerate() {
                    if is_throw_point(inst) {
                        // The handler observes the state *before* the
                        // throwing instruction executes.
                        if cut == usize::MAX {
                            cut = i;
                        }
                        exc.fold(num, bi, state, ep);
                    }
                    let dv = match inst {
                        Inst::Move { dst, src } => {
                            let x = state[src.index()];
                            state[dst.index()] = x;
                            x
                        }
                        Inst::GetField {
                            dst, obj, field, ..
                        } => {
                            let x = num.load(state[obj.index()], field.0, ep);
                            state[dst.index()] = x;
                            x
                        }
                        _ => {
                            let dv = match inst.def() {
                                Some(d) => {
                                    let x = num.def(bi, i);
                                    state[d.index()] = x;
                                    x
                                }
                                None => NO_VN,
                            };
                            if inst.writes_memory() {
                                ep = num.store(bi, i);
                            }
                            dv
                        }
                    };
                    dvs.push(dv);
                }
                if matches!(block.term, Terminator::Throw(_)) {
                    if cut == usize::MAX {
                        cut = block.insts.len();
                    }
                    exc.fold(num, bi, state, ep);
                }

                let old_exc = exc_ep[bi].map(|_| row(&out.exc, nv, bi));
                if computed[bi]
                    && row(&out.entry, nv, bi) == ev
                    && entry_ep[bi] == eep
                    && row(&out.exit, nv, bi) == state
                    && exit_ep[bi] == ep
                    && out.def[def_row(bi)] == **dvs
                    && old_exc == exc.binding()
                    && exc_ep[bi] == exc.epoch
                    && out.exc_cut[bi] == cut
                {
                    continue;
                }
                changed = true;
                row_mut(&mut out.entry, nv, bi).copy_from_slice(ev);
                entry_ep[bi] = eep;
                row_mut(&mut out.exit, nv, bi).copy_from_slice(state);
                exit_ep[bi] = ep;
                out.def[def_row(bi)].copy_from_slice(dvs);
                if let Some(bind) = exc.binding() {
                    row_mut(&mut out.exc, nv, bi).copy_from_slice(bind);
                }
                exc_ep[bi] = exc.epoch;
                out.exc_cut[bi] = cut;
                computed[bi] = true;
                for s in &cfg.succs()[bi] {
                    stale[s.index()] = true;
                }
            }
            if !changed {
                break;
            }
            passes += 1;
            assert!(passes <= limit, "value numbering failed to converge");
        }

        out.nv = nv;
        out.num_vns = num.next as usize;
        out
    }
}

/// Per-block transfer sets of the VN-indexed non-nullness problem. Value
/// numbers are immutable, so there is no kill set: `out = in ∪ gen`.
#[derive(Clone, Debug, Default)]
pub struct GvnNonNullSets {
    /// VNs proven non-null by the block (checks, allocations, assumed
    /// interprocedural gens — a fact on one class member is a fact on all).
    pub gen: Vec<BitSet>,
    /// The subset of `gen` established strictly before the block's first
    /// throw point: the only gens the handler observes. Non-throwing
    /// copies never mask — a copy gens nothing, its source's fact simply
    /// stays attached to the shared value number.
    pub exc_gen: Vec<BitSet>,
}

/// The non-nullness dataflow problem over value numbers. Mirrors
/// [`nonnull::NonNullProblem`] — same meet, same boundary seeds, same
/// `Earliest` insertion-point modeling, same `IfNull` edge gen — but facts
/// are VN-indexed and cross every edge by translation. The library builds
/// it in one place, `Workspace::solve_gvn_nonnull`.
pub struct GvnNonNullProblem<'a> {
    /// The function under analysis.
    pub func: &'a Function,
    /// Its value numbering (computed with [`default_throw_point`]).
    pub vn: &'a ValueNumbering,
    /// Per-block transfer sets from [`GvnWorkspace::sets`].
    pub sets: GvnNonNullSets,
    /// Phase 1 insertion points (variable-indexed), or `None` for Whaley.
    pub earliest: Option<&'a [BitSet]>,
    /// Interprocedurally proven non-null parameters (variable-indexed),
    /// seeded onto their entry VNs.
    pub entry: Option<BitSet>,
    /// The edge transfer's output buffer, swapped with the solver's set
    /// after each translation so no edge visit allocates.
    scratch: RefCell<BitSet>,
}

impl<'a> GvnNonNullProblem<'a> {
    /// The problem over `func` with numbering `vn` and its transfer `sets`.
    pub fn new(
        func: &'a Function,
        vn: &'a ValueNumbering,
        sets: GvnNonNullSets,
        earliest: Option<&'a [BitSet]>,
        entry: Option<BitSet>,
    ) -> Self {
        GvnNonNullProblem {
            func,
            vn,
            sets,
            earliest,
            entry,
            scratch: RefCell::new(BitSet::new(vn.num_vns)),
        }
    }
}

impl Problem for GvnNonNullProblem<'_> {
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
        if self.func.is_instance() {
            b.insert(frame[0] as usize);
        }
        if let Some(entry) = &self.entry {
            for v in entry.iter() {
                b.insert(frame[v] as usize);
            }
        }
        b
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        output.union_from(input, &self.sets.gen[block.index()]);
    }
    fn edge_uses_input(&self, from: BlockId, to: BlockId) -> bool {
        is_exceptional_edge(self.func, from, to)
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        let fi = from.index();
        let ti = to.index();
        let mut out = self.scratch.borrow_mut();
        out.clear();
        if is_exceptional_edge(self.func, from, to) {
            // `set` holds the block's entry facts (edge_uses_input). The
            // handler observes in-facts plus pre-first-throw-point gens,
            // through the folded exceptional bindings.
            match self.vn.exc_vn(fi) {
                // No throw point: the edge is never taken — ⊤.
                None => out.set_all(),
                Some(bind) => {
                    // `set` is overwritten below, so gen into it in place.
                    set.union_with(&self.sets.exc_gen[fi]);
                    ValueNumbering::translate(bind, self.vn.entry_vn(ti), set, &mut out);
                }
            }
        } else {
            // Normal edge: translate exit bindings to entry bindings. A
            // fact without a carrying variable dies here — deliberately,
            // since a phi number denotes a different value once control
            // re-enters its block (§4.1.2's Edge function, per class).
            let exit = self.vn.exit_vn(fi);
            let ent = self.vn.entry_vn(ti);
            for (v, &xvn) in exit.iter().enumerate() {
                let covered =
                    set.contains(xvn as usize) || self.earliest.is_some_and(|e| e[fi].contains(v));
                if covered {
                    out.insert(ent[v] as usize);
                }
            }
            if let Terminator::IfNull {
                var,
                on_null,
                on_nonnull,
            } = self.func.block(from).term
            {
                if to == on_nonnull && to != on_null {
                    out.insert(ent[var.index()] as usize);
                }
            }
        }
        std::mem::swap(set, &mut *out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonnull::{compute_sets, eliminate_redundant, Elimination, NonNullProblem};
    use njc_dataflow::solve;
    use njc_ir::{parse_function, VarId};
    use njc_observe::{CheckEvent, Recorder, Redundancy};

    fn solve_both(f: &Function) -> (Vec<BitSet>, ValueNumbering, Vec<BitSet>) {
        let legacy = NonNullProblem {
            func: f,
            sets: compute_sets(f),
            earliest: None,
            entry: None,
            num_facts: f.num_vars(),
        };
        let lsol = solve(f, &legacy);
        let vn = ValueNumbering::compute(f, &default_throw_point);
        let sets = GvnWorkspace::default().sets(None, f, &vn);
        let gp = GvnNonNullProblem::new(f, &vn, sets, None, None);
        let gsol = solve(f, &gp);
        (lsol.ins, vn, gsol.ins)
    }

    fn run_gvn(src: &str) -> (Function, Elimination) {
        let mut f = parse_function(src).unwrap();
        let (lins, vn, gins) = solve_both(&f);
        let witness = Some((&vn, gins.as_slice()));
        let r = eliminate_redundant(
            None,
            &mut f,
            &lins,
            None,
            witness,
            &mut Recorder::disabled(),
            false,
        );
        (f, r)
    }

    fn checks(f: &Function) -> usize {
        f.blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::NullCheck { .. }))
            .count()
    }

    #[test]
    fn check_on_copy_covers_the_original() {
        // `nullcheck v1` where `v1 = move v0`: the per-variable analysis
        // cannot transfer the fact *backward* to v0, the class can.
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  goto bb1\nbb1:\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(r.gvn_only, 1, "{f}");
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn phi_merged_pointer_shares_facts() {
        // Both predecessors check the same incoming value under different
        // names; the merged variable inherits the class fact. The legacy
        // analysis also proves this one (same slot on both sides) — the
        // point is the *copies into* v2 don't lose it on either solution.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: ref, v3: int) -> int {\n  locals v2: ref v4: int\nbb0:\n  if eq v3, v3 then bb1 else bb2\nbb1:\n  nullcheck v0\n  v2 = move v0\n  goto bb3\nbb2:\n  nullcheck v1\n  v2 = move v1\n  goto bb3\nbb3:\n  nullcheck v2\n  v4 = getfield v2, field0\n  return v4\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn phi_merge_requires_both_predecessors() {
        // Only one predecessor establishes the fact: the phi class must
        // NOT be non-null at the join.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: ref, v3: int) -> int {\n  locals v2: ref v4: int\nbb0:\n  if eq v3, v3 then bb1 else bb2\nbb1:\n  nullcheck v0\n  v2 = move v0\n  goto bb3\nbb2:\n  v2 = move v1\n  goto bb3\nbb3:\n  nullcheck v2\n  v4 = getfield v2, field0\n  return v4\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn reloaded_field_is_congruent() {
        // Two loads of v0.field0 with no intervening store or call: the
        // second load re-observes the checked value.
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v1\n  v3 = getfield v1, field1\n  v2 = getfield v0, field0\n  nullcheck v2\n  v3 = getfield v2, field1\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(r.gvn_only, 1, "{f}");
    }

    #[test]
    fn store_kills_load_congruence() {
        // A putfield between the loads bumps the memory epoch: the
        // re-load is a different value, its check must stay.
        let (f, r) = run_gvn(
            "func f(v0: ref, v4: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v1\n  v3 = getfield v1, field1\n  putfield v0, field0, v4\n  v2 = getfield v0, field0\n  nullcheck v2\n  v3 = getfield v2, field1\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 3);
    }

    #[test]
    fn call_kills_load_congruence() {
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v1\n  v3 = call fn0(v0)\n  v2 = getfield v0, field0\n  nullcheck v2\n  v3 = getfield v2, field1\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 3);
    }

    #[test]
    fn loop_carried_phi_is_not_self_justifying() {
        // v1 is overwritten with an unchecked load each iteration; the
        // header check must survive (a phi fact may not leak around the
        // back edge via its own number).
        let (f, r) = run_gvn(
            "func f(v0: ref, v2: int) -> int {\n  locals v1: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  goto bb1\nbb1:\n  nullcheck v1\n  v3 = getfield v1, field1\n  v1 = getfield v0, field1\n  if lt v3, v2 then bb1 else bb2\nbb2:\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn loop_invariant_copy_covers_across_back_edge() {
        // The copy target is loop-invariant: once checked before the
        // loop, the in-loop check of the copy dies on every iteration.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: int) -> int {\n  locals v2: ref v3: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v2 = move v0\n  goto bb1\nbb1:\n  nullcheck v2\n  v3 = getfield v2, field0\n  if lt v3, v1 then bb1 else bb2\nbb2:\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn congruent_reload_fact_survives_to_handler() {
        // bb1 re-loads the field checked in bb0 (same object VN, same
        // epoch) and then hits a throw point. The per-variable analysis
        // kills v2 at its def; the class fact (the Load VN) rides into
        // the handler, so the handler's check of v2 is GVN-only dead.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: int, v2: int) -> int {\n  locals v3: ref v4: ref v5: int\n  try0: handler bb3 catch any -> v5\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  nullcheck v3\n  goto bb1\nbb1: [try0]\n  v4 = getfield v0, field0\n  v1 = div.int v1, v2\n  goto bb2\nbb2:\n  return v1\nbb3:\n  nullcheck v4\n  v5 = getfield v4, field1\n  return v5\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(r.gvn_only, 1, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn own_check_gen_does_not_reach_handler() {
        // The in-try check is itself the first throw point: when it
        // throws, its variable IS null in the handler — the class fact
        // must not leak across the exceptional edge.
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int v3: int\n  try0: handler bb2 catch any -> v3\nbb0: [try0]\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  goto bb1\nbb1:\n  return v2\nbb2:\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn fact_after_throw_point_does_not_reach_handler() {
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: int, v2: int) -> int {\n  locals v3: ref v4: int\n  try0: handler bb2 catch any -> v4\nbb0: [try0]\n  v1 = div.int v1, v2\n  v3 = move v0\n  nullcheck v3\n  goto bb1\nbb1:\n  return v1\nbb2:\n  nullcheck v0\n  v3 = getfield v0, field0\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn gvn_solution_dominates_legacy() {
        // On every block of several shapes, the VN in-set translated back
        // to variables must contain the legacy in-set (the dual replay
        // then guarantees a strict superset of kills).
        let srcs = [
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  nullcheck v0\n  v2 = getfield v0, field0\n  v1 = move v0\n  goto bb1\nbb1:\n  nullcheck v1\n  v2 = getfield v1, field0\n  return v2\n}",
            "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  ifnull v0 then bb1 else bb2\nbb1:\n  v1 = const 0\n  return v1\nbb2:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
            "func f(v0: ref, v2: int) -> int {\n  locals v1: ref v3: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v1 = move v0\n  goto bb1\nbb1:\n  nullcheck v1\n  v3 = getfield v1, field0\n  if lt v3, v2 then bb1 else bb2\nbb2:\n  return v3\n}",
        ];
        for src in srcs {
            let f = parse_function(src).unwrap();
            let (lins, vn, gins) = solve_both(&f);
            for bi in 0..f.num_blocks() {
                for v in lins[bi].iter() {
                    assert!(
                        gins[bi].contains(vn.entry_vn(bi)[v] as usize),
                        "block {bi}: legacy fact v{v} missing from VN solution\n{f}"
                    );
                }
            }
        }
    }

    #[test]
    fn gvn_kill_attributed_to_class() {
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  goto bb1\nbb1:\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        )
        .unwrap();
        let (lins, vn, gins) = solve_both(&f);
        let mut rec = Recorder::new(true);
        rec.assign_origins(&mut f);
        let witness = Some((&vn, gins.as_slice()));
        let r = eliminate_redundant(None, &mut f, &lins, None, witness, &mut rec, false);
        assert_eq!(r.gvn_only, 1);
        let gvn_kill = rec.events.iter().find_map(|e| match e {
            CheckEvent::WhaleyEliminated {
                why:
                    Redundancy::Gvn {
                        representative,
                        class_size,
                    },
                var,
                ..
            } => Some((*var, *representative, *class_size)),
            _ => None,
        });
        let (var, rep, size) = gvn_kill.expect("a GVN-attributed kill event");
        assert_eq!(var, VarId::new(0));
        assert_eq!(rep, VarId::new(1), "justified by the copy v1");
        assert_eq!(size, 2, "v0 and v1 share the class at the kill point");
    }
}
