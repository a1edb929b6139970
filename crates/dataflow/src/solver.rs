//! A generic worklist solver for bit-vector dataflow problems over an IR
//! function's CFG.
//!
//! Each analysis of the paper (§4.1.1, §4.1.2, §4.2.1, §4.2.2) is expressed
//! as a [`Problem`]: a direction, a meet operator, a per-block transfer
//! function, and a per-edge transfer function (which implements the paper's
//! `Edge_try(m, n)` subtraction and the `∪ Earliest(m) ∪ Edge(m, n)` terms).
//!
//! Conventions:
//! * **Forward**: `in(n) = MEET over preds m of edge(m, n, out(m))`,
//!   `out(n) = transfer(n, in(n))`. The entry block additionally meets the
//!   problem's [`Problem::boundary`] value (the "method entry edge").
//! * **Backward**: `out(n) = MEET over succs m of edge(n, m, in(m))`,
//!   `in(n) = transfer(n, out(n))`. Exit blocks (no successors) use the
//!   boundary value as their `out`.
//! * With [`Meet::Intersect`], blocks whose meet input set is empty (no
//!   edges) start from the boundary; interior values are initialized to ⊤
//!   (the full set) and refined downward.
//!
//! [`solve`] runs a **dirty-block worklist** (Kam–Ullman chaotic iteration)
//! prioritized by reverse-postorder position — RPO order for forward
//! problems, postorder for backward — so after the initial sweep only
//! blocks whose meet inputs actually changed are re-transferred. Because
//! every transfer and edge function is monotone on a finite lattice, the
//! fixed point is unique regardless of processing order; the reference
//! round-robin schedule is kept as [`solve_round_robin`] and the two are
//! checked against each other by differential tests. Pass a precomputed
//! [`CfgCache`] via [`solve_cached`] to skip recomputing predecessor lists
//! and RPO on every solve — the hot path then performs no per-pop
//! allocation at all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use njc_ir::{BlockId, CfgCache, Function};

use crate::bitset::BitSet;

/// Analysis direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// Meet operator applied where paths join.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Meet {
    /// May-analysis: a fact holds if it holds on *some* path.
    Union,
    /// Must-analysis: a fact holds only if it holds on *all* paths.
    Intersect,
}

/// A bit-vector dataflow problem over one [`Function`].
pub trait Problem {
    /// Analysis direction.
    fn direction(&self) -> Direction;

    /// Meet operator.
    fn meet(&self) -> Meet;

    /// Number of facts (bit positions).
    fn num_facts(&self) -> usize;

    /// The value flowing in over the boundary: into the entry block
    /// (forward) or out of exit blocks (backward). Defaults to ∅.
    fn boundary(&self) -> BitSet {
        BitSet::new(self.num_facts())
    }

    /// The block transfer function: given the meet result (`in` for forward,
    /// `out` for backward), compute the opposite side.
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet);

    /// The edge transfer function applied to a value as it crosses the CFG
    /// edge `from → to`. `set` arrives holding the source-side value and may
    /// be mutated in place (e.g. subtract `Edge_try`, add `Earliest`).
    /// The default is the identity.
    fn edge_transfer(&self, _from: BlockId, _to: BlockId, _set: &mut BitSet) {}

    /// For **forward** problems: when true, the value carried across the
    /// edge `from → to` is the source block's *input* set rather than its
    /// output set. Exceptional (handler) edges use this: control can leave
    /// the block at any throwing instruction, so the block-entry facts
    /// (filtered by [`Problem::edge_transfer`]) are what reach the handler.
    fn edge_uses_input(&self, _from: BlockId, _to: BlockId) -> bool {
        false
    }
}

/// The fixed point computed by [`solve`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Per-block value at the block entry.
    pub ins: Vec<BitSet>,
    /// Per-block value at the block exit.
    pub outs: Vec<BitSet>,
    /// Convergence depth: for the worklist solver, the maximum number of
    /// times any single block was transferred; for [`solve_round_robin`],
    /// the number of passes over the block list.
    pub iterations: usize,
    /// Total worklist pops, including pops that found nothing to do
    /// (zero for the round-robin schedule, which has no worklist).
    pub worklist_pops: usize,
    /// Total block transfer-function applications.
    pub blocks_processed: usize,
}

impl Solution {
    /// Value at the entry of `b`.
    pub fn input(&self, b: BlockId) -> &BitSet {
        &self.ins[b.index()]
    }

    /// Value at the exit of `b`.
    pub fn output(&self, b: BlockId) -> &BitSet {
        &self.outs[b.index()]
    }
}

/// Worklist safety valve: in a monotone bit-vector framework each block's
/// in/out sets can change at most `|facts|` times each, so pops are far
/// below `|blocks| × (|facts| + 2) + 16`; exceeding it indicates a
/// non-monotone transfer function.
fn max_pops(func: &Function, facts: usize) -> usize {
    func.num_blocks() * (facts + 2) + 16
}

/// Round-robin safety valve (passes, not pops); see [`max_pops`].
fn max_passes(func: &Function, facts: usize) -> usize {
    func.num_blocks() * facts.max(1) + 16
}

/// Solves `problem` over `func` to a fixed point, computing the CFG
/// structures on the spot. Prefer [`solve_cached`] when solving several
/// problems over the same function.
///
/// # Panics
/// Panics if the pop bound for monotone frameworks is exceeded
/// (which would indicate a bug in the problem's transfer functions).
pub fn solve(func: &Function, problem: &impl Problem) -> Solution {
    solve_cached(func, &CfgCache::computed(func), problem)
}

/// Solves `problem` over `func` with a dirty-block worklist, reusing the
/// CFG structures in `cfg` (which must be fresh for `func`). A one-off
/// [`SolverWorkspace::solve`]; keep a workspace to solve repeatedly without
/// reallocating the worklist.
///
/// # Panics
/// Panics if `cfg` is stale, or if the pop bound for monotone frameworks
/// is exceeded.
pub fn solve_cached(func: &Function, cfg: &CfgCache, problem: &impl Problem) -> Solution {
    SolverWorkspace::new().solve(func, cfg, problem)
}

/// The buffers of [`SolverWorkspace::solve`], kept between solves: the
/// worklist schedule, the meet scratch sets, and the fact tables of
/// solutions handed back through [`SolverWorkspace::recycle`]. The
/// pipeline keeps one per function, so after its first solves a solve
/// allocates nothing. A workspace holds no facts between solves: every
/// solve fills what it reads, so results never depend on what ran before.
#[derive(Clone, Debug, Default)]
pub struct SolverWorkspace {
    priority: Vec<usize>,
    heap: BinaryHeap<Reverse<usize>>,
    queued: Vec<bool>,
    transfers: Vec<usize>,
    top: BitSet,
    scratch: BitSet,
    meet_acc: BitSet,
    /// `ins`/`outs` tables of recycled solutions.
    tables: Vec<Vec<BitSet>>,
}

impl SolverWorkspace {
    /// An empty workspace; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands `sol`'s fact tables back for later solves to refill.
    pub fn recycle(&mut self, sol: Solution) {
        self.tables.push(sol.ins);
        self.tables.push(sol.outs);
    }

    /// A table of `n` copies of `top`, refilled from a recycled one when
    /// there is one.
    fn table(&mut self, n: usize) -> Vec<BitSet> {
        let mut t = self.tables.pop().unwrap_or_default();
        t.truncate(n);
        for s in &mut t {
            s.clone_from(&self.top);
        }
        if t.len() < n {
            t.resize(n, self.top.clone());
        }
        t
    }

    /// Solves `problem` over `func` with a dirty-block worklist, reusing
    /// the CFG structures in `cfg` (which must be fresh for `func`).
    ///
    /// Blocks are prioritized by RPO position (forward) or postorder
    /// position (backward), so the initial drain is exactly one ordered
    /// sweep; after that, a block re-enters the worklist only when a value
    /// it consumes changed.
    ///
    /// # Panics
    /// Panics if `cfg` is stale, or if the pop bound for monotone
    /// frameworks is exceeded.
    pub fn solve(&mut self, func: &Function, cfg: &CfgCache, problem: &impl Problem) -> Solution {
        assert!(cfg.is_fresh(func), "solve_cached needs a fresh CfgCache");
        let n = func.num_blocks();
        let facts = problem.num_facts();
        let meet = problem.meet();
        let direction = problem.direction();
        self.top.reset(facts);
        if meet == Meet::Intersect {
            self.top.set_all();
        }

        let mut ins = self.table(n);
        let mut outs = self.table(n);
        let boundary = problem.boundary();

        // Priority schedule: position in RPO (forward) or postorder
        // (backward). Unreachable blocks sit at the tail of the RPO, hence
        // at the front of the postorder; both orders give them a stable
        // position, and seeding every block keeps the old round-robin
        // semantics for them (⊤ under intersect stays ⊤ — there is no path
        // to refine it).
        let order: &[BlockId] = match direction {
            Direction::Forward => cfg.rpo(),
            Direction::Backward => cfg.postorder(),
        };
        let SolverWorkspace {
            priority,
            heap,
            queued,
            transfers,
            top,
            scratch,
            meet_acc,
            ..
        } = self;
        priority.clear();
        priority.resize(n, 0);
        for (pos, b) in order.iter().enumerate() {
            priority[b.index()] = pos;
        }

        // Positions are distinct and a block is queued at most once, so
        // the pop order depends only on the positions, not on the heap's
        // layout.
        heap.clear();
        heap.extend((0..n).map(Reverse));
        queued.clear();
        queued.resize(n, true);
        transfers.clear();
        transfers.resize(n, 0);

        scratch.reset(facts);
        meet_acc.reset(facts);
        let mut worklist_pops = 0usize;
        let mut blocks_processed = 0usize;
        let limit = max_pops(func, facts);

        while let Some(Reverse(pos)) = heap.pop() {
            let b = order[pos];
            let bi = b.index();
            queued[bi] = false;
            worklist_pops += 1;
            assert!(
                worklist_pops <= limit,
                "dataflow failed to converge after {limit} worklist pops \
                 (non-monotone transfer?)"
            );

            // Meet the values flowing into this block's consumed side.
            let mut first = true;
            meet_acc.clear();
            match direction {
                Direction::Forward => {
                    // in(b) = MEET over preds of edge(pred, b, out(pred)),
                    // with the boundary folded in at the entry block.
                    if b == func.entry() {
                        meet_acc.copy_from(&boundary);
                        first = false;
                    }
                    for &p in &cfg.preds()[bi] {
                        if problem.edge_uses_input(p, b) {
                            scratch.copy_from(&ins[p.index()]);
                        } else {
                            scratch.copy_from(&outs[p.index()]);
                        }
                        problem.edge_transfer(p, b, scratch);
                        if first {
                            meet_acc.copy_from(scratch);
                            first = false;
                        } else {
                            match meet {
                                Meet::Union => meet_acc.union_with(scratch),
                                Meet::Intersect => meet_acc.intersect_with(scratch),
                            };
                        }
                    }
                }
                Direction::Backward => {
                    // out(b) = MEET over succs of edge(b, succ, in(succ)).
                    // Blocks whose terminator exits the function participate
                    // in the boundary meet even when they have exceptional
                    // successors: control may leave through the return as
                    // well as through the handler edge.
                    let succs = &cfg.succs()[bi];
                    if succs.is_empty() || func.block(b).term.is_exit() {
                        meet_acc.copy_from(&boundary);
                        first = false;
                    }
                    for &s in succs {
                        scratch.copy_from(&ins[s.index()]);
                        problem.edge_transfer(b, s, scratch);
                        if first {
                            meet_acc.copy_from(scratch);
                            first = false;
                        } else {
                            match meet {
                                Meet::Union => meet_acc.union_with(scratch),
                                Meet::Intersect => meet_acc.intersect_with(scratch),
                            };
                        }
                    }
                }
            }
            if first {
                // No inflowing edges and no boundary (an unreachable non-entry
                // block in a forward problem): keep ⊤.
                meet_acc.copy_from(top);
            }

            let consumed = match direction {
                Direction::Forward => &mut ins[bi],
                Direction::Backward => &mut outs[bi],
            };
            let meet_changed = *meet_acc != *consumed;
            if meet_changed {
                consumed.copy_from(meet_acc);
            }
            if !meet_changed && transfers[bi] > 0 {
                // The transfer function is deterministic: same consumed value,
                // same produced value. Nothing to do for this pop.
                continue;
            }

            let consumed = match direction {
                Direction::Forward => &ins[bi],
                Direction::Backward => &outs[bi],
            };
            problem.transfer(b, consumed, scratch);
            blocks_processed += 1;
            transfers[bi] += 1;
            let produced = match direction {
                Direction::Forward => &mut outs[bi],
                Direction::Backward => &mut ins[bi],
            };
            let produced_changed = *scratch != *produced;
            if produced_changed {
                produced.copy_from(scratch);
            }

            if meet_changed || produced_changed {
                // Re-dirty the blocks that consume this block's values. Forward
                // consumers may read either side (exceptional edges carry the
                // input set), so both kinds of change propagate.
                let dependents = match direction {
                    Direction::Forward => &cfg.succs()[bi],
                    Direction::Backward => &cfg.preds()[bi],
                };
                for &d in dependents {
                    if !queued[d.index()] {
                        queued[d.index()] = true;
                        heap.push(Reverse(priority[d.index()]));
                    }
                }
            }
        }

        Solution {
            ins,
            outs,
            iterations: transfers.iter().copied().max().unwrap_or(0),
            worklist_pops,
            blocks_processed,
        }
    }
}

/// The reference round-robin schedule: sweeps every block in RPO (forward)
/// or postorder (backward) until a full pass changes nothing. Kept as the
/// differential oracle for [`solve_cached`] — monotone frameworks have a
/// unique fixed point, so both must agree exactly.
///
/// # Panics
/// Panics if the pass bound for monotone frameworks is exceeded.
pub fn solve_round_robin(func: &Function, problem: &impl Problem) -> Solution {
    let n = func.num_blocks();
    let facts = problem.num_facts();
    let meet = problem.meet();
    let top = match meet {
        Meet::Union => BitSet::new(facts),
        Meet::Intersect => BitSet::full(facts),
    };

    let mut ins: Vec<BitSet> = (0..n).map(|_| top.clone()).collect();
    let mut outs: Vec<BitSet> = (0..n).map(|_| top.clone()).collect();
    let preds = func.predecessors();
    let boundary = problem.boundary();

    // Process in an order that propagates facts quickly: RPO for forward,
    // reverse RPO (≈ postorder) for backward.
    let mut order = func.reverse_postorder();
    if problem.direction() == Direction::Backward {
        order.reverse();
    }

    let mut scratch = BitSet::new(facts);
    let mut meet_acc = BitSet::new(facts);
    let mut iterations = 0;
    let mut blocks_processed = 0usize;
    let limit = max_passes(func, facts);
    loop {
        iterations += 1;
        assert!(
            iterations <= limit,
            "dataflow failed to converge after {limit} passes (non-monotone transfer?)"
        );
        let mut changed = false;
        for &b in &order {
            blocks_processed += 1;
            match problem.direction() {
                Direction::Forward => {
                    let mut first = true;
                    meet_acc.clear();
                    if b == func.entry() {
                        meet_acc.copy_from(&boundary);
                        first = false;
                    }
                    for &p in &preds[b.index()] {
                        if problem.edge_uses_input(p, b) {
                            scratch.copy_from(&ins[p.index()]);
                        } else {
                            scratch.copy_from(&outs[p.index()]);
                        }
                        problem.edge_transfer(p, b, &mut scratch);
                        if first {
                            meet_acc.copy_from(&scratch);
                            first = false;
                        } else {
                            match meet {
                                Meet::Union => meet_acc.union_with(&scratch),
                                Meet::Intersect => meet_acc.intersect_with(&scratch),
                            };
                        }
                    }
                    if first {
                        // Unreachable non-entry block: keep ⊤.
                        meet_acc.copy_from(&top);
                    }
                    if meet_acc != ins[b.index()] {
                        ins[b.index()].copy_from(&meet_acc);
                        changed = true;
                    }
                    problem.transfer(b, &ins[b.index()], &mut scratch);
                    if scratch != outs[b.index()] {
                        outs[b.index()].copy_from(&scratch);
                        changed = true;
                    }
                }
                Direction::Backward => {
                    let succs = func.successors(b);
                    let mut first = true;
                    meet_acc.clear();
                    if succs.is_empty() || func.block(b).term.is_exit() {
                        meet_acc.copy_from(&boundary);
                        first = false;
                    }
                    for &s in &succs {
                        scratch.copy_from(&ins[s.index()]);
                        problem.edge_transfer(b, s, &mut scratch);
                        if first {
                            meet_acc.copy_from(&scratch);
                            first = false;
                        } else {
                            match meet {
                                Meet::Union => meet_acc.union_with(&scratch),
                                Meet::Intersect => meet_acc.intersect_with(&scratch),
                            };
                        }
                    }
                    if meet_acc != outs[b.index()] {
                        outs[b.index()].copy_from(&meet_acc);
                        changed = true;
                    }
                    problem.transfer(b, &outs[b.index()], &mut scratch);
                    if scratch != ins[b.index()] {
                        ins[b.index()].copy_from(&scratch);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    Solution {
        ins,
        outs,
        iterations,
        worklist_pops: 0,
        blocks_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::{Cond, FuncBuilder, Type, VarId};

    /// A must-analysis over the same CFG: intersection keeps only facts on
    /// all paths.
    struct MustPass {
        facts: usize,
        gen_in_block: Vec<Vec<usize>>,
    }

    impl Problem for MustPass {
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn meet(&self) -> Meet {
            Meet::Intersect
        }
        fn num_facts(&self) -> usize {
            self.facts
        }
        fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
            output.copy_from(input);
            for &g in &self.gen_in_block[block.index()] {
                output.insert(g);
            }
        }
    }

    fn diamond() -> njc_ir::Function {
        let mut b = FuncBuilder::new("d", &[Type::Int], Type::Int);
        let x = b.param(0);
        let z = b.iconst(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.br_if(Cond::Lt, x, z, t, e);
        b.switch_to(t);
        b.goto(j);
        b.switch_to(e);
        b.goto(j);
        b.switch_to(j);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn union_meet_joins_facts() {
        let f = diamond();
        // fact 0 generated in block 1 (then), fact 1 in block 2 (else).
        struct GenPerBlock;
        impl Problem for GenPerBlock {
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn meet(&self) -> Meet {
                Meet::Union
            }
            fn num_facts(&self) -> usize {
                2
            }
            fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
                output.copy_from(input);
                if block.index() == 1 {
                    output.insert(0);
                }
                if block.index() == 2 {
                    output.insert(1);
                }
            }
        }
        let sol = solve(&f, &GenPerBlock);
        let join = &sol.ins[3];
        assert!(join.contains(0) && join.contains(1), "union keeps both");
    }

    #[test]
    fn intersect_meet_keeps_only_common_facts() {
        let f = diamond();
        let p = MustPass {
            facts: 3,
            // fact 2 generated on both branch blocks, 0 only on then,
            // 1 only on else.
            gen_in_block: vec![vec![], vec![0, 2], vec![1, 2], vec![]],
        };
        let sol = solve(&f, &p);
        let join = &sol.ins[3];
        assert!(!join.contains(0));
        assert!(!join.contains(1));
        assert!(join.contains(2), "fact on all paths survives intersection");
    }

    #[test]
    fn loops_converge() {
        // entry -> header <-> body, header -> exit
        let mut b = FuncBuilder::new("l", &[Type::Int], Type::Int);
        let n = b.param(0);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        b.for_loop(zero, n, 1, |b, i| {
            b.binop_into(acc, njc_ir::Op::Add, acc, i);
        });
        b.ret(Some(acc));
        let f = b.finish();
        let p = MustPass {
            facts: 1,
            gen_in_block: vec![vec![0]; f.num_blocks()],
        };
        let sol = solve(&f, &p);
        assert!(sol.iterations <= f.num_blocks() + 2);
        for b in f.blocks() {
            assert!(sol.outs[b.id.index()].contains(0));
        }
        assert!(sol.worklist_pops >= f.num_blocks(), "every block seeded");
        assert!(sol.blocks_processed >= f.num_blocks());
        assert!(sol.blocks_processed <= sol.worklist_pops);
    }

    #[test]
    fn backward_analysis_reaches_entry() {
        // Liveness-like: fact = "return value variable live".
        let f = diamond();
        struct Live {
            #[allow(dead_code)]
            var: VarId,
        }
        impl Problem for Live {
            fn direction(&self) -> Direction {
                Direction::Backward
            }
            fn meet(&self) -> Meet {
                Meet::Union
            }
            fn num_facts(&self) -> usize {
                1
            }
            fn transfer(&self, _b: BlockId, input: &BitSet, output: &mut BitSet) {
                output.copy_from(input);
            }
            fn boundary(&self) -> BitSet {
                BitSet::new(1)
            }
        }
        // Mark fact in the exit block by a custom transfer: simpler — verify
        // structural propagation only: empty everywhere converges.
        let sol = solve(&f, &Live { var: VarId(0) });
        assert!(sol.ins.iter().all(|s| s.is_empty()));
        let _ = sol.iterations;
    }

    #[test]
    fn edge_transfer_subtracts_on_specific_edge() {
        let f = diamond();
        struct EdgeBlocked;
        impl Problem for EdgeBlocked {
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn meet(&self) -> Meet {
                Meet::Union
            }
            fn num_facts(&self) -> usize {
                1
            }
            fn boundary(&self) -> BitSet {
                BitSet::new(1)
            }
            fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
                output.copy_from(input);
                if block.index() == 0 {
                    output.insert(0);
                }
            }
            fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
                // Block the fact on the entry -> then edge.
                if from.index() == 0 && to.index() == 1 {
                    set.remove(0);
                }
            }
        }
        let sol = solve(&f, &EdgeBlocked);
        assert!(!sol.ins[1].contains(0), "blocked on then edge");
        assert!(sol.ins[2].contains(0), "flows on else edge");
        assert!(sol.ins[3].contains(0), "union at join keeps else path");
    }

    #[test]
    fn unreachable_block_gets_top_in_intersect() {
        let mut b = FuncBuilder::new("u", &[], Type::Int);
        let dead = b.new_block();
        let v = b.iconst(1);
        b.ret(Some(v));
        b.switch_to(dead);
        b.ret(Some(v));
        let f = b.finish();
        let p = MustPass {
            facts: 2,
            gen_in_block: vec![vec![], vec![]],
        };
        let sol = solve(&f, &p);
        assert_eq!(sol.ins[dead.index()].count(), 2, "unreachable stays ⊤");
        assert_eq!(sol.ins[f.entry().index()].count(), 0, "entry gets boundary");
    }

    /// A deliberately non-monotone problem: the transfer *toggles* a bit,
    /// so chaotic iteration oscillates forever and must hit the valve.
    struct Toggle;
    impl Problem for Toggle {
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn meet(&self) -> Meet {
            Meet::Union
        }
        fn num_facts(&self) -> usize {
            1
        }
        fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
            output.copy_from(input);
            if block.index() != 0 {
                // Toggle: {} -> {0}, {0} -> {} — not monotone.
                if input.contains(0) {
                    output.remove(0);
                } else {
                    output.insert(0);
                }
            }
        }
    }

    fn self_loop() -> njc_ir::Function {
        // entry -> loop; loop -> loop | exit
        let mut b = FuncBuilder::new("osc", &[Type::Int], Type::Int);
        let x = b.param(0);
        let z = b.iconst(0);
        let l = b.new_block();
        let exit = b.new_block();
        b.goto(l);
        b.switch_to(l);
        b.br_if(Cond::Lt, x, z, l, exit);
        b.switch_to(exit);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn non_monotone_problem_trips_pop_valve() {
        solve(&self_loop(), &Toggle);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn non_monotone_problem_trips_round_robin_valve() {
        solve_round_robin(&self_loop(), &Toggle);
    }

    #[test]
    fn worklist_matches_round_robin_on_basic_problems() {
        for f in [diamond(), self_loop()] {
            let p = MustPass {
                facts: 2,
                gen_in_block: (0..f.num_blocks())
                    .map(|i| if i % 2 == 0 { vec![0] } else { vec![1] })
                    .collect(),
            };
            let a = solve(&f, &p);
            let b = solve_round_robin(&f, &p);
            assert_eq!(a.ins, b.ins, "{}", f.name());
            assert_eq!(a.outs, b.outs, "{}", f.name());
        }
    }

    #[test]
    fn acyclic_forward_solve_transfers_each_block_once() {
        let f = diamond();
        let p = MustPass {
            facts: 2,
            gen_in_block: vec![vec![0], vec![], vec![1], vec![]],
        };
        let sol = solve(&f, &p);
        // RPO priority on an acyclic CFG: the seeding sweep already visits
        // every block after all its predecessors, so one transfer each.
        assert_eq!(sol.blocks_processed, f.num_blocks());
        assert_eq!(sol.iterations, 1);
    }
}
