//! Functions (methods), try regions, and CFG utilities.

use crate::block::BasicBlock;
use crate::inst::ExceptionKind;
use crate::types::{BlockId, TryRegionId, Type, VarId};

/// Which exceptions a try region's handler catches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CatchKind {
    /// Catches every exception (like `catch (Throwable t)`).
    Any,
    /// Catches only the given builtin/user kind.
    Only(ExceptionKind),
}

impl CatchKind {
    /// Whether a thrown `kind` is caught by this handler.
    pub fn catches(self, kind: ExceptionKind) -> bool {
        match self {
            CatchKind::Any => true,
            CatchKind::Only(k) => k == kind,
        }
    }
}

/// A try region: a set of blocks (marked via [`BasicBlock::try_region`])
/// whose exceptions transfer control to `handler`.
///
/// Regions are flat (no nesting) — sufficient for the paper's workloads and
/// it keeps the `Edge_try` logic exactly as stated in §4.1.1: a null check
/// may not move along an edge whose endpoints are in different regions.
#[derive(Clone, PartialEq, Debug)]
pub struct TryRegion {
    /// The handler block control transfers to on a caught exception.
    /// The handler itself must *not* be inside the region.
    pub handler: BlockId,
    /// Which exception kinds the handler catches.
    pub catch: CatchKind,
    /// Variable receiving the caught exception's integer code, if any.
    pub exception_code_dst: Option<VarId>,
}

/// A function (Java method) in the IR.
///
/// Use [`crate::FuncBuilder`] to construct one; direct field access is
/// available to optimization passes via the accessors and `blocks_mut`.
///
/// The function tracks a CFG *generation* counter: every accessor that can
/// change the control flow graph (`block_mut`, `blocks_mut`, `add_block`,
/// `add_try_region`) bumps it, and [`crate::CfgCache`] uses it to decide
/// whether its memoized predecessors/RPO/dominators are still valid.
/// Instruction-list-only mutation through [`Function::insts_mut`] does not
/// bump the counter, because inserting or removing non-terminator
/// instructions cannot change the CFG.
#[derive(Clone, Debug)]
pub struct Function {
    name: String,
    /// Parameter types; parameters occupy variables `v0..vN`.
    params: Vec<Type>,
    /// Return type, or `None` for `void`.
    ret: Option<Type>,
    /// Whether `v0` is a `this` receiver that is known non-null on entry
    /// (paper §4.1.2 `Edge(m, n)` second bullet).
    is_instance: bool,
    /// Types of all local variables (including parameters).
    var_types: Vec<Type>,
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    try_regions: Vec<TryRegion>,
    /// Bumped on every potentially CFG-mutating access; not part of the
    /// function's identity (excluded from `PartialEq`).
    generation: u64,
}

impl PartialEq for Function {
    /// Structural equality; the CFG `generation` counter is bookkeeping,
    /// not identity, and is deliberately excluded.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.params == other.params
            && self.ret == other.ret
            && self.is_instance == other.is_instance
            && self.var_types == other.var_types
            && self.blocks == other.blocks
            && self.entry == other.entry
            && self.try_regions == other.try_regions
    }
}

impl Function {
    /// Assembles a function from parts. Prefer [`crate::FuncBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: String,
        params: Vec<Type>,
        ret: Option<Type>,
        is_instance: bool,
        var_types: Vec<Type>,
        blocks: Vec<BasicBlock>,
        entry: BlockId,
        try_regions: Vec<TryRegion>,
    ) -> Self {
        Function {
            name,
            params,
            ret,
            is_instance,
            var_types,
            blocks,
            entry,
            try_regions,
            generation: 0,
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the function (used by benchmark harnesses that replicate
    /// functions to scale a module; module-level name maps are the caller's
    /// responsibility).
    pub fn set_name(&mut self, name: String) {
        self.name = name;
    }

    /// The CFG generation counter. Two calls return the same value iff no
    /// potentially CFG-mutating access happened in between; see
    /// [`crate::CfgCache`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Parameter types (parameters are variables `v0..vN`).
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// Return type (`None` = void).
    pub fn return_type(&self) -> Option<Type> {
        self.ret
    }

    /// Whether `v0` is a non-null `this` receiver.
    pub fn is_instance(&self) -> bool {
        self.is_instance
    }

    /// Marks the function as an instance method (used by module wiring).
    pub fn set_instance(&mut self, value: bool) {
        self.is_instance = value;
    }

    /// Number of local variables.
    pub fn num_vars(&self) -> usize {
        self.var_types.len()
    }

    /// The static type of a variable.
    pub fn var_type(&self, v: VarId) -> Type {
        self.var_types[v.index()]
    }

    /// All variable types, indexed by [`VarId`].
    pub fn var_types(&self) -> &[Type] {
        &self.var_types
    }

    /// Allocates a fresh local variable (used by optimization passes that
    /// introduce temporaries, e.g. scalar replacement).
    pub fn new_var(&mut self, ty: Type) -> VarId {
        let id = VarId::new(self.var_types.len());
        self.var_types.push(ty);
        id
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// A block by id, mutably. Conservatively bumps the CFG generation (the
    /// caller may rewrite the terminator or try-region tag); passes that
    /// only edit the instruction list should use [`Function::insts_mut`].
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        self.generation += 1;
        &mut self.blocks[id.index()]
    }

    /// All blocks, in arena order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// All blocks, mutably. Bumps the CFG generation.
    pub fn blocks_mut(&mut self) -> &mut [BasicBlock] {
        self.generation += 1;
        &mut self.blocks
    }

    /// The instruction list of a block, mutably, *without* bumping the CFG
    /// generation: non-terminator instructions cannot introduce or remove
    /// CFG edges, so cached CFG structures stay valid across this access.
    /// The null-check rewriters use this so [`crate::CfgCache`] survives a
    /// whole phase.
    pub fn insts_mut(&mut self, id: BlockId) -> &mut Vec<crate::inst::Inst> {
        &mut self.blocks[id.index()].insts
    }

    /// Rewrites the variable operands of block `id`'s terminator through
    /// `f`, *without* bumping the CFG generation: `f` sees only operands,
    /// never successors, so no edge can change. Copy propagation uses this
    /// to keep [`crate::CfgCache`] warm.
    pub fn term_uses_mut(&mut self, id: BlockId, f: impl FnMut(&mut VarId)) {
        self.blocks[id.index()].term.for_each_use_mut(f);
    }

    /// Appends a new empty block and returns its id (for passes that split
    /// edges or splice inlined bodies). Bumps the CFG generation.
    pub fn add_block(&mut self) -> BlockId {
        self.generation += 1;
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BasicBlock::new(id));
        id
    }

    /// The try regions of this function.
    pub fn try_regions(&self) -> &[TryRegion] {
        &self.try_regions
    }

    /// A try region by id.
    pub fn try_region(&self, id: TryRegionId) -> &TryRegion {
        &self.try_regions[id.index()]
    }

    /// Adds a try region and returns its id. Bumps the CFG generation (the
    /// region introduces exceptional edges).
    pub fn add_try_region(&mut self, region: TryRegion) -> TryRegionId {
        self.generation += 1;
        let id = TryRegionId::new(self.try_regions.len());
        self.try_regions.push(region);
        id
    }

    /// Explicit + exceptional successors of a block.
    ///
    /// The exceptional edge (to the block's try handler) is part of the CFG:
    /// null check facts must survive it conservatively, which the analyses
    /// get right because `Edge_try` blocks motion across region boundaries
    /// and the handler is always in a different region.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(3);
        self.successors_into(id, &mut out);
        out
    }

    /// Appends [`Function::successors`] of `id` to `out` (no allocation
    /// once `out` has room).
    pub fn successors_into(&self, id: BlockId, out: &mut Vec<BlockId>) {
        let b = self.block(id);
        let start = out.len();
        b.term.successors_into(out);
        if let Some(tr) = b.try_region {
            let h = self.try_regions[tr.index()].handler;
            if !out[start..].contains(&h) {
                out.push(h);
            }
        }
    }

    /// Predecessor lists for every block (indexed by block id).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        let mut succs = Vec::with_capacity(3);
        for b in &self.blocks {
            succs.clear();
            self.successors_into(b.id, &mut succs);
            for s in &succs {
                preds[s.index()].push(b.id);
            }
        }
        preds
    }

    /// Reverse postorder over the CFG from the entry block. Unreachable
    /// blocks are appended at the end (in arena order) so analyses still
    /// cover them.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        let mut succs = Vec::with_capacity(3);
        visited[self.entry.index()] = true;
        stack.push((self.entry, 0));
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            succs.clear();
            self.successors_into(b, &mut succs);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (i, v) in visited.iter().enumerate() {
            if !v {
                post.push(BlockId::new(i));
            }
        }
        post
    }

    /// Whether block `b` is reachable from the entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut work = vec![self.entry];
        let mut succs = Vec::with_capacity(3);
        seen[self.entry.index()] = true;
        while let Some(b) = work.pop() {
            succs.clear();
            self.successors_into(b, &mut succs);
            for &s in &succs {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    work.push(s);
                }
            }
        }
        seen
    }

    /// Total number of instructions (excluding terminators) — the "method
    /// size" used by inlining heuristics and compile-time statistics.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Whether the edge `from -> to` crosses a try region boundary, i.e. the
    /// `Edge_try(m, n)` predicate of paper §4.1.1 (when true, *all* null
    /// checks are blocked on the edge).
    pub fn edge_crosses_try(&self, from: BlockId, to: BlockId) -> bool {
        self.block(from).try_region != self.block(to).try_region
    }

    /// Content hash of the function body: FNV-1a over the canonical textual
    /// form, which round-trips every identity field (name, signature, local
    /// types, try regions, blocks, instructions including check ids and
    /// exception-site marks, terminators).
    ///
    /// The hash covers exactly what [`PartialEq`] covers: equal functions
    /// always hash equal, and the CFG [`Function::generation`] counter is
    /// excluded — so an instruction-list rewrite through
    /// [`Function::insts_mut`] that restores the original content restores
    /// the original hash. The adaptive runtime's code cache uses this as its
    /// content address.
    pub fn body_hash(&self) -> u64 {
        let text = self.to_string();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    fn diamond() -> Function {
        // entry -> (then | else) -> join
        let mut b = FuncBuilder::new("diamond", &[Type::Int], Type::Int);
        let x = b.param(0);
        let zero = b.iconst(0);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        b.br_if(crate::inst::Cond::Lt, x, zero, then_bb, else_bb);
        b.switch_to(then_bb);
        b.goto(join);
        b.switch_to(else_bb);
        b.goto(join);
        b.switch_to(join);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn successors_and_predecessors_agree() {
        let f = diamond();
        let preds = f.predecessors();
        for b in f.blocks() {
            for s in f.successors(b.id) {
                assert!(preds[s.index()].contains(&b.id));
            }
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all_blocks() {
        let f = diamond();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), f.num_blocks());
        let mut sorted: Vec<_> = rpo.iter().map(|b| b.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..f.num_blocks()).collect::<Vec<_>>());
    }

    #[test]
    fn rpo_predecessor_before_successor_in_acyclic_cfg() {
        let f = diamond();
        let rpo = f.reverse_postorder();
        let pos: Vec<usize> = {
            let mut p = vec![0; f.num_blocks()];
            for (i, b) in rpo.iter().enumerate() {
                p[b.index()] = i;
            }
            p
        };
        for b in f.blocks() {
            for s in f.successors(b.id) {
                assert!(pos[b.id.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn new_var_extends_types() {
        let mut f = diamond();
        let n = f.num_vars();
        let v = f.new_var(Type::Float);
        assert_eq!(v.index(), n);
        assert_eq!(f.var_type(v), Type::Float);
    }

    #[test]
    fn try_region_adds_exceptional_successor() {
        let mut b = FuncBuilder::new("t", &[], Type::Int);
        let handler = b.new_block();
        let exit = b.new_block();
        let region = b.add_try_region(handler, CatchKind::Any, None);
        b.set_try_region(Some(region));
        let r = b.iconst(1);
        b.goto(exit);
        b.set_try_region(None);
        b.switch_to(exit);
        b.ret(Some(r));
        b.switch_to(handler);
        let z = b.iconst(0);
        b.ret(Some(z));
        let f = b.finish();
        let succ = f.successors(f.entry());
        assert!(succ.contains(&handler));
        assert!(f.edge_crosses_try(f.entry(), handler));
    }

    #[test]
    fn catch_kind_matching() {
        assert!(CatchKind::Any.catches(ExceptionKind::NullPointer));
        assert!(CatchKind::Only(ExceptionKind::NullPointer).catches(ExceptionKind::NullPointer));
        assert!(!CatchKind::Only(ExceptionKind::Arithmetic).catches(ExceptionKind::NullPointer));
    }

    #[test]
    fn generation_tracks_cfg_mutation_only() {
        let mut f = diamond();
        let g0 = f.generation();
        let entry = f.entry();
        // Reading and instruction-list-only mutation leave it unchanged.
        let _ = f.block(entry);
        let _ = f.successors(entry);
        f.insts_mut(entry).clear();
        assert_eq!(f.generation(), g0);
        // Potentially CFG-mutating accessors bump it.
        let _ = f.block_mut(entry);
        assert!(f.generation() > g0);
        let g1 = f.generation();
        f.add_block();
        assert!(f.generation() > g1);
        // The counter is not part of function identity.
        let a = diamond();
        let mut b = diamond();
        let _ = b.block_mut(entry);
        assert_eq!(a, b);
    }

    #[test]
    fn body_hash_tracks_content_not_generation() {
        let mut a = diamond();
        let b = diamond();
        let h0 = a.body_hash();
        assert_eq!(h0, b.body_hash(), "equal functions hash equal");
        // Generation bumps (CFG-mutating *access* without an actual content
        // change) leave the hash alone.
        let entry = a.entry();
        let _ = a.block_mut(entry);
        assert!(a.generation() > b.generation());
        assert_eq!(a.body_hash(), h0);
        // A non-bumping insts_mut rewrite that changes content changes the
        // hash; restoring the content restores the hash.
        let saved = a.insts_mut(entry).clone();
        a.insts_mut(entry).clear();
        assert_ne!(a.body_hash(), h0);
        *a.insts_mut(entry) = saved;
        assert_eq!(a.body_hash(), h0);
    }

    #[test]
    fn body_hash_differs_across_bodies() {
        let d = diamond();
        let mut b = FuncBuilder::new("diamond", &[Type::Int], Type::Int);
        let x = b.param(0);
        b.ret(Some(x));
        let other = b.finish();
        assert_ne!(d.body_hash(), other.body_hash());
    }

    #[test]
    fn reachable_marks_unreached_blocks() {
        let mut b = FuncBuilder::new("u", &[], Type::Int);
        let dead = b.new_block();
        let c = b.iconst(7);
        b.ret(Some(c));
        b.switch_to(dead);
        let z = b.iconst(0);
        b.ret(Some(z));
        let f = b.finish();
        let r = f.reachable();
        assert!(r[f.entry().index()]);
        assert!(!r[dead.index()]);
    }
}
