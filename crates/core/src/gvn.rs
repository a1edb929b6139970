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
//! * [`eliminate_redundant_gvn`] replays blocks against *both* the legacy
//!   per-variable solution and the VN solution, so GVN-on removes a strict
//!   superset of checks, every legacy-provable kill keeps its legacy
//!   provenance, and each GVN-only kill is attributed
//!   [`Redundancy::Gvn`] `{ representative, class_size }` for the
//!   conservation ledger.
//!
//! The numbering is also the precision backbone of the static coverage
//! validator (`njc-analysis`): a sound validator may use any sound
//! precision, and per-variable coverage proofs do not survive passes that
//! move copies (a hoisted `w = v` is justified by `w ≅ v`, not by a check
//! of `w` on every path).

use std::cell::RefCell;
use std::collections::HashMap;

use njc_dataflow::{BitSet, Direction, Meet, Problem};
use njc_ir::{BlockId, Function, Inst, Terminator, VarId};
use njc_observe::{CheckEvent, Recorder, Redundancy};

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
struct Numbers {
    next: u32,
    nv: usize,
    /// `Merge(block, v)` and `ExcMerge(block, v)`, at `block * nv + v`.
    merge: Vec<u32>,
    exc_merge: Vec<u32>,
    /// `MemMerge(block)` and `ExcMemMerge(block)`.
    mem_merge: Vec<u32>,
    exc_mem_merge: Vec<u32>,
    /// Start of each block's instructions in `def` and `store`.
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

impl Numbers {
    fn new(func: &Function) -> Self {
        let nb = func.num_blocks();
        let nv = func.num_vars();
        let mut inst_base = Vec::with_capacity(nb);
        let mut total = 0;
        for b in func.blocks() {
            inst_base.push(total);
            total += b.insts.len();
        }
        Numbers {
            next: 0,
            nv,
            merge: vec![NO_VN; nb * nv],
            exc_merge: vec![NO_VN; nb * nv],
            mem_merge: vec![NO_VN; nb],
            exc_mem_merge: vec![NO_VN; nb],
            inst_base,
            def: vec![NO_VN; total],
            store: vec![NO_VN; total],
            load: HashMap::new(),
        }
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
pub struct ValueNumbering {
    /// Per block: variable → VN at block entry.
    pub entry_vn: Vec<Vec<u32>>,
    /// Per block: variable → VN at block exit (after every instruction).
    pub exit_vn: Vec<Vec<u32>>,
    /// Per block, per instruction: the VN the instruction's destination is
    /// bound to afterwards ([`NO_VN`] for instructions without a def).
    pub def_vn: Vec<Vec<u32>>,
    /// Per block: variable → VN folded over every throw point (the binding
    /// the handler observes). `None` when the block has no throw point —
    /// its exceptional edge is never taken, a ⊤ contribution.
    pub exc_vn: Vec<Option<Vec<u32>>>,
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
#[derive(Default)]
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
fn assign(dst: &mut Vec<u32>, src: &[u32]) {
    dst.clear();
    dst.extend_from_slice(src);
}

impl ValueNumbering {
    /// Computes the numbering. `is_throw_point` decides which instructions
    /// can transfer control to the handler (clients differ: the optimizer
    /// uses the model-independent superset [`default_throw_point`], the
    /// coverage validator its model-dependent predicate; a superset here
    /// costs the *client's* exceptional-edge precision, so each passes its
    /// own). `Terminator::Throw` is always a throw point.
    pub fn compute(func: &Function, is_throw_point: &dyn Fn(&Inst) -> bool) -> ValueNumbering {
        let nb = func.num_blocks();
        let nv = func.num_vars();
        let mut num = Numbers::new(func);

        // Predecessor edges, handler edges included and tagged.
        let mut preds: Vec<Vec<(usize, bool)>> = vec![Vec::new(); nb];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut explicit = Vec::with_capacity(2);
        for b in func.blocks() {
            let bi = b.id.index();
            explicit.clear();
            b.term.successors_into(&mut explicit);
            for s in &explicit {
                preds[s.index()].push((bi, false));
                succs[bi].push(s.index());
            }
            if let Some(tr) = b.try_region {
                let h = func.try_region(tr).handler;
                preds[h.index()].push((bi, true));
                succs[bi].push(h.index());
            }
        }

        // Reverse postorder from the entry (unreachable blocks appended —
        // they still get frames, seeded from their own entry bindings).
        let entry_idx = func.entry().index();
        let mut order: Vec<usize> = {
            let mut post = Vec::with_capacity(nb);
            let mut seen = vec![false; nb];
            let mut stack: Vec<(usize, usize)> = vec![(entry_idx, 0)];
            seen[entry_idx] = true;
            while let Some((n, i)) = stack.last_mut() {
                if let Some(&s) = succs[*n].get(*i) {
                    *i += 1;
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(*n);
                    stack.pop();
                }
            }
            let mut order: Vec<usize> = post.into_iter().rev().collect();
            for (b, vis) in seen.iter().enumerate() {
                if !vis {
                    order.push(b);
                }
            }
            order
        };
        if order.is_empty() {
            order.push(entry_idx);
        }

        // The entry block leads the order, so its frame takes the first
        // numbers: `Entry(v)` is `v` and `EntryMem` is `nv`.
        let entry_frame: Vec<u32> = (0..nv).map(|_| num.fresh()).collect();
        let entry_mem = num.fresh();

        let mut entry_vn: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut entry_ep: Vec<u32> = vec![0; nb];
        let mut exit_vn: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut exit_ep: Vec<u32> = vec![0; nb];
        let mut def_vn: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut exc_vn: Vec<Option<Vec<u32>>> = vec![None; nb];
        let mut exc_ep: Vec<Option<u32>> = vec![None; nb];
        let mut exc_cut: Vec<usize> = vec![usize::MAX; nb];
        let mut computed = vec![false; nb];
        // Whether a predecessor's frame changed since the block's entry
        // frame was last built. A block whose inputs did not move would
        // rebuild the same frame and hand out no new number, so skipping it
        // changes neither the numbering nor its order.
        let mut stale = vec![true; nb];

        // Per-block scratch, reused across blocks and passes.
        let mut contribs: Vec<(usize, bool)> = Vec::new();
        let mut ev: Vec<u32> = Vec::with_capacity(nv);
        let mut state: Vec<u32> = Vec::with_capacity(nv);
        let mut dvs: Vec<u32> = Vec::new();
        let mut exc = ExcFold::default();

        // Merge decisions are sticky: once a join observes disagreement for
        // a (block, var) — or for a block's epoch — it stays a phi (its
        // `Merge` slot is taken). This is what makes the fixpoint monotone
        // (each decision flips at most once), so the pass bound below is
        // generous, not load-bearing.
        let limit = (nb + 2) * (nv + 2) + 16;
        let mut passes = 0;
        loop {
            let mut changed = false;
            for &bi in &order {
                if !stale[bi] {
                    continue;
                }
                stale[bi] = false;
                // Block entry frame: agree → inherit, disagree → phi. Only
                // predecessors already visited contribute (optimistic).
                contribs.clear();
                if bi != entry_idx {
                    for &(p, is_exc) in &preds[bi] {
                        if computed[p] && (!is_exc || exc_vn[p].is_some()) {
                            contribs.push((p, is_exc));
                        }
                    }
                }
                ev.clear();
                let eep = if let Some((&first, rest)) = contribs.split_first() {
                    let frame = |(p, is_exc): (usize, bool)| -> &[u32] {
                        if is_exc {
                            exc_vn[p].as_deref().expect("exc binding")
                        } else {
                            &exit_vn[p]
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
                    ev.extend_from_slice(&entry_frame);
                    entry_mem
                };

                // The walk below is a function of the entry frame alone
                // (every number it asks for was handed out the first time),
                // so an unchanged frame means an unchanged block.
                if computed[bi] && entry_ep[bi] == eep && entry_vn[bi] == ev {
                    continue;
                }

                // Straight-line walk of the block.
                let block = func.block(BlockId::new(bi));
                assign(&mut state, &ev);
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
                        exc.fold(&mut num, bi, &state, ep);
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
                    exc.fold(&mut num, bi, &state, ep);
                }

                if computed[bi]
                    && entry_vn[bi] == ev
                    && entry_ep[bi] == eep
                    && exit_vn[bi] == state
                    && exit_ep[bi] == ep
                    && def_vn[bi] == dvs
                    && exc_vn[bi].as_deref() == exc.binding()
                    && exc_ep[bi] == exc.epoch
                    && exc_cut[bi] == cut
                {
                    continue;
                }
                changed = true;
                assign(&mut entry_vn[bi], &ev);
                entry_ep[bi] = eep;
                assign(&mut exit_vn[bi], &state);
                exit_ep[bi] = ep;
                assign(&mut def_vn[bi], &dvs);
                match exc.binding() {
                    Some(bind) => assign(exc_vn[bi].get_or_insert_with(Vec::new), bind),
                    None => exc_vn[bi] = None,
                }
                exc_ep[bi] = exc.epoch;
                exc_cut[bi] = cut;
                computed[bi] = true;
                for &s in &succs[bi] {
                    stale[s] = true;
                }
            }
            if !changed {
                break;
            }
            passes += 1;
            assert!(passes <= limit, "value numbering failed to converge");
        }

        ValueNumbering {
            entry_vn,
            exit_vn,
            def_vn,
            exc_vn,
            exc_cut,
            num_vns: num.next as usize,
        }
    }

    /// Advances a replay state (variable → VN) across one instruction at
    /// its *original* index `idx` in `block`.
    pub fn step(&self, block: usize, idx: usize, inst: &Inst, state: &mut [u32]) {
        if let Inst::Move { dst, src } = inst {
            state[dst.index()] = state[src.index()];
        } else if let Some(d) = inst.def() {
            state[d.index()] = self.def_vn[block][idx];
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

/// Per-block transfer sets of the VN-indexed non-nullness problem. Value
/// numbers are immutable, so there is no kill set: `out = in ∪ gen`.
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

/// Computes the gen sets. With a context, interprocedurally assumed defs
/// (non-null-returning calls, always-initialized field loads) gen their
/// destination's VN — for a field load that is the *Load class* itself, so
/// every congruent re-load inherits the call-site fact.
pub fn compute_gvn_sets(
    ctx: Option<&AnalysisCtx<'_>>,
    func: &Function,
    vn: &ValueNumbering,
) -> GvnNonNullSets {
    let nf = vn.num_vns;
    let nb = func.num_blocks();
    let mut gen = Vec::with_capacity(nb);
    let mut exc_gen = Vec::with_capacity(nb);
    let mut state = Vec::with_capacity(func.num_vars());
    for b in func.blocks() {
        let bi = b.id.index();
        assign(&mut state, &vn.entry_vn[bi]);
        let mut g = BitSet::new(nf);
        let mut eg = BitSet::new(nf);
        for (i, inst) in b.insts.iter().enumerate() {
            let gvn = if ctx.and_then(|c| c.assumed_nonnull_def(inst)).is_some() {
                Some(vn.def_vn[bi][i])
            } else {
                match inst {
                    Inst::NullCheck { var, .. } => Some(state[var.index()]),
                    Inst::New { .. } | Inst::NewArray { .. } => Some(vn.def_vn[bi][i]),
                    _ => None,
                }
            };
            vn.step(bi, i, inst, &mut state);
            if let Some(x) = gvn {
                g.insert(x as usize);
                if i < vn.exc_cut[bi] {
                    eg.insert(x as usize);
                }
            }
        }
        gen.push(g);
        exc_gen.push(eg);
    }
    GvnNonNullSets { gen, exc_gen }
}

/// The non-nullness dataflow problem over value numbers. Mirrors
/// [`nonnull::NonNullProblem`] — same meet, same boundary seeds, same
/// `Earliest` insertion-point modeling, same `IfNull` edge gen — but facts
/// are VN-indexed and cross every edge by translation.
pub struct GvnNonNullProblem<'a> {
    /// The function under analysis.
    pub func: &'a Function,
    /// Its value numbering (computed with [`default_throw_point`]).
    pub vn: &'a ValueNumbering,
    /// Per-block transfer sets from [`compute_gvn_sets`].
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
        let frame = &self.vn.entry_vn[self.func.entry().index()];
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
            match &self.vn.exc_vn[fi] {
                // No throw point: the edge is never taken — ⊤.
                None => out.set_all(),
                Some(bind) => {
                    // `set` is overwritten below, so gen into it in place.
                    set.union_with(&self.sets.exc_gen[fi]);
                    ValueNumbering::translate(bind, &self.vn.entry_vn[ti], set, &mut out);
                }
            }
        } else {
            // Normal edge: translate exit bindings to entry bindings. A
            // fact without a carrying variable dies here — deliberately,
            // since a phi number denotes a different value once control
            // re-enters its block (§4.1.2's Edge function, per class).
            let exit = &self.vn.exit_vn[fi];
            let ent = &self.vn.entry_vn[ti];
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

/// What [`eliminate_redundant_gvn`] did: total checks removed, and how many
/// of those only the value-numbered analysis could justify.
#[derive(Default, Clone, Copy, Debug)]
pub struct GvnElimination {
    /// Checks removed (legacy-provable plus GVN-only).
    pub eliminated: usize,
    /// The strict surplus over the legacy per-variable analysis: kills
    /// attributed [`Redundancy::Gvn`].
    pub gvn_only: usize,
}

/// Removes every check redundant under *either* solution — the legacy
/// per-variable `ins` or the VN-indexed `gvn_ins` — so the GVN column
/// eliminates a strict superset of the baseline. Runs both replays in
/// lockstep: a legacy-provable kill keeps its legacy provenance (entry
/// fact, prior check, allocation, interprocedural fact), a GVN-only kill
/// is attributed to its congruence class.
#[allow(clippy::too_many_arguments)]
pub fn eliminate_redundant_gvn(
    ctx: Option<&AnalysisCtx<'_>>,
    func: &mut Function,
    vn: &ValueNumbering,
    gvn_ins: &[BitSet],
    legacy_ins: &[BitSet],
    legacy_base_ins: Option<&[BitSet]>,
    rec: &mut Recorder,
    phase1: bool,
) -> GvnElimination {
    let nv = func.num_vars();
    let mut result = GvnElimination::default();
    let mut lwhy: Vec<Redundancy> = if rec.is_enabled() {
        vec![Redundancy::NonNullAtEntry; nv]
    } else {
        Vec::new()
    };
    let sources: Vec<Option<Redundancy>> = match (ctx, rec.is_enabled()) {
        (Some(c), true) if c.assumptions().is_some() => nonnull::interproc_sources(c, func, nv),
        _ => Vec::new(),
    };
    for bi in 0..func.num_blocks() {
        let block_id = BlockId::new(bi);
        let mut state = vn.entry_vn[bi].clone();
        let mut vset = gvn_ins[bi].clone();
        let mut lset = legacy_ins[bi].clone();
        if rec.is_enabled() {
            lwhy.iter_mut()
                .for_each(|w| *w = Redundancy::NonNullAtEntry);
            if let Some(base) = legacy_base_ins {
                if !sources.is_empty() {
                    for v in legacy_ins[bi].iter() {
                        if !base[bi].contains(v) {
                            if let Some(s) = sources[v] {
                                lwhy[v] = s;
                            }
                        }
                    }
                }
            }
        }
        // insts_mut: instruction-only rewrite, CFG caches stay valid.
        let insts = func.insts_mut(block_id);
        let mut kept = Vec::with_capacity(insts.len());
        let mut events = Vec::new();
        for (idx, inst) in insts.drain(..).enumerate() {
            match &inst {
                Inst::NullCheck { var, id, .. } => {
                    let x = state[var.index()] as usize;
                    let legacy_hit = lset.contains(var.index());
                    if legacy_hit || vset.contains(x) {
                        result.eliminated += 1;
                        if !legacy_hit {
                            result.gvn_only += 1;
                        }
                        if rec.is_enabled() {
                            let why = if legacy_hit {
                                lwhy[var.index()]
                            } else {
                                // The class justified it: name the lowest
                                // *other* member currently bound to the VN
                                // (the variable whose check/def this one
                                // rides on), and the live class size.
                                let mut rep = *var;
                                let mut size = 0u32;
                                for (w, &wvn) in state.iter().enumerate() {
                                    if wvn as usize == x {
                                        size += 1;
                                        if w != var.index() && rep == *var {
                                            rep = VarId::new(w);
                                        }
                                    }
                                }
                                Redundancy::Gvn {
                                    representative: rep,
                                    class_size: size,
                                }
                            };
                            events.push(if phase1 {
                                CheckEvent::Phase1Eliminated {
                                    id: *id,
                                    var: *var,
                                    block: block_id,
                                    why,
                                }
                            } else {
                                CheckEvent::WhaleyEliminated {
                                    id: *id,
                                    var: *var,
                                    block: block_id,
                                    why,
                                }
                            });
                        }
                        continue;
                    }
                    vset.insert(x);
                    lset.insert(var.index());
                    if rec.is_enabled() {
                        lwhy[var.index()] = Redundancy::PriorCheck(*id);
                    }
                    kept.push(inst);
                }
                Inst::New { dst, .. } | Inst::NewArray { dst, .. } => {
                    vn.step(bi, idx, &inst, &mut state);
                    vset.insert(state[dst.index()] as usize);
                    lset.insert(dst.index());
                    if rec.is_enabled() {
                        lwhy[dst.index()] = Redundancy::Allocation;
                    }
                    kept.push(inst);
                }
                Inst::Move { dst, src } => {
                    // Legacy replay: the copy inherits the source's status
                    // and provenance. The VN replay needs nothing — both
                    // sides share a number.
                    if lset.contains(src.index()) {
                        lset.insert(dst.index());
                        if rec.is_enabled() {
                            lwhy[dst.index()] = lwhy[src.index()];
                        }
                    } else {
                        lset.remove(dst.index());
                    }
                    vn.step(bi, idx, &inst, &mut state);
                    kept.push(inst);
                }
                _ => {
                    if let Some(d) = ctx.and_then(|c| c.assumed_nonnull_def(&inst)) {
                        lset.insert(d.index());
                        if rec.is_enabled() {
                            lwhy[d.index()] = nonnull::assumed_source(
                                ctx.expect("assumed gen has a context"),
                                &inst,
                            );
                        }
                        vn.step(bi, idx, &inst, &mut state);
                        vset.insert(state[d.index()] as usize);
                    } else {
                        if let Some(d) = inst.def() {
                            lset.remove(d.index());
                        }
                        vn.step(bi, idx, &inst, &mut state);
                    }
                    kept.push(inst);
                }
            }
        }
        *func.insts_mut(block_id) = kept;
        for ev in events {
            rec.record(ev);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonnull::{compute_sets, NonNullProblem};
    use njc_dataflow::solve;
    use njc_ir::parse_function;

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
        let sets = compute_gvn_sets(None, f, &vn);
        let gp = GvnNonNullProblem::new(f, &vn, sets, None, None);
        let gsol = solve(f, &gp);
        (lsol.ins, vn, gsol.ins)
    }

    fn run_gvn(src: &str) -> (Function, GvnElimination) {
        let mut f = parse_function(src).unwrap();
        let (lins, vn, gins) = solve_both(&f);
        let r = eliminate_redundant_gvn(
            None,
            &mut f,
            &vn,
            &gins,
            &lins,
            None,
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
                        gins[bi].contains(vn.entry_vn[bi][v] as usize),
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
        let r = eliminate_redundant_gvn(None, &mut f, &vn, &gins, &lins, None, &mut rec, false);
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
