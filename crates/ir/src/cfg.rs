//! Memoized per-function CFG structures.
//!
//! The null-check analyses run four bit-vector problems per function per
//! pipeline iteration, and every solve used to recompute predecessor lists
//! and reverse postorder from scratch. [`CfgCache`] computes them once and
//! revalidates against [`Function::generation`]: any potentially
//! CFG-mutating access bumps the counter, and the next [`CfgCache::ensure`]
//! recomputes everything. Instruction-list-only rewrites (through
//! [`Function::insts_mut`]) leave the counter — and therefore the cache —
//! untouched, which is what lets phase 2 reuse one cache across its two
//! solves with a rewrite in between.
//!
//! Dominators and loop headers are computed lazily: most solver clients
//! need only predecessors and RPO.

use crate::dom::DomTree;
use crate::function::Function;
use crate::types::BlockId;

/// Memoized CFG structures for one function, validated by generation.
///
/// # Example
/// ```
/// use njc_ir::{CfgCache, FuncBuilder, Type};
///
/// let mut b = FuncBuilder::new("f", &[], Type::Int);
/// let c = b.iconst(1);
/// b.ret(Some(c));
/// let mut f = b.finish();
///
/// let mut cfg = CfgCache::new();
/// cfg.ensure(&f);
/// assert_eq!(cfg.rpo(), &[f.entry()]);
/// assert!(cfg.is_fresh(&f));
/// f.add_block(); // CFG mutation invalidates the cache...
/// assert!(!cfg.is_fresh(&f));
/// cfg.ensure(&f); // ...and ensure() recomputes it.
/// assert_eq!(cfg.rpo().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CfgCache {
    /// Generation of the function the caches below were computed for;
    /// `None` until the first `ensure`.
    generation: Option<u64>,
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    /// Postorder (exact reverse of `rpo`, so unreachable blocks lead).
    postorder: Vec<BlockId>,
    /// Position of each block (arena-indexed) in `rpo`.
    rpo_pos: Vec<usize>,
    /// Lazily computed; reset on every recompute.
    dom: Option<DomTree>,
    /// Lazily computed natural-loop headers; reset on every recompute.
    loop_headers: Option<Vec<BlockId>>,
    /// The RPO walk's stack of (block, next successor); empty between
    /// recomputes, kept for its capacity.
    dfs: Vec<(BlockId, usize)>,
}

impl CfgCache {
    /// An empty cache; the first [`CfgCache::ensure`] fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache freshly computed for `func`.
    pub fn computed(func: &Function) -> Self {
        let mut c = Self::new();
        c.ensure(func);
        c
    }

    /// Whether the cached structures match the function's current CFG.
    pub fn is_fresh(&self, func: &Function) -> bool {
        self.generation == Some(func.generation())
    }

    /// Revalidates the cache: recomputes every eager structure iff the
    /// function's generation moved since the last call.
    ///
    /// # Panics
    /// In debug builds, panics when the cache looks fresh but its successor
    /// lists no longer match the function: some edit changed an edge
    /// without bumping the generation (it went around
    /// [`Function::block_mut`]).
    pub fn ensure(&mut self, func: &Function) {
        if self.is_fresh(func) {
            debug_assert!(
                self.succs_match(func),
                "CfgCache is stale at generation {}: an edge of `{}` changed \
                 without a generation bump",
                func.generation(),
                func.name()
            );
            return;
        }
        let n = func.num_blocks();
        // Keep the inner vectors' capacity across recomputes.
        self.succs.resize_with(n, Vec::new);
        self.preds.resize_with(n, Vec::new);
        for (bi, (succs, preds)) in self.succs.iter_mut().zip(&mut self.preds).enumerate() {
            succs.clear();
            preds.clear();
            func.successors_into(BlockId::new(bi), succs);
        }
        for (bi, succs) in self.succs.iter().enumerate() {
            for s in succs {
                self.preds[s.index()].push(BlockId::new(bi));
            }
        }
        self.rpo_pos.clear();
        self.rpo_pos.resize(n, usize::MAX);
        self.fill_rpo(func.entry());
        self.postorder.clear();
        self.postorder.extend(self.rpo.iter().rev());
        for (i, b) in self.rpo.iter().enumerate() {
            self.rpo_pos[b.index()] = i;
        }
        self.dom = None;
        self.loop_headers = None;
        self.generation = Some(func.generation());
    }

    /// Refills `rpo` with [`Function::reverse_postorder`] — the same DFS,
    /// over the cached successor lists — reusing its buffer and the walk's
    /// stack. `rpo_pos` must hold `usize::MAX` everywhere; the walk marks
    /// visited blocks in it, and the caller then overwrites it with
    /// positions.
    fn fill_rpo(&mut self, entry: BlockId) {
        let visited = &mut self.rpo_pos;
        self.rpo.clear();
        visited[entry.index()] = 0;
        self.dfs.push((entry, 0));
        while let Some(&mut (b, ref mut next)) = self.dfs.last_mut() {
            if let Some(&s) = self.succs[b.index()].get(*next) {
                *next += 1;
                if visited[s.index()] == usize::MAX {
                    visited[s.index()] = 0;
                    self.dfs.push((s, 0));
                }
            } else {
                self.rpo.push(b);
                self.dfs.pop();
            }
        }
        self.rpo.reverse();
        // Unreachable blocks follow, in index order.
        for (i, &pos) in visited.iter().enumerate() {
            if pos == usize::MAX {
                self.rpo.push(BlockId::new(i));
            }
        }
    }

    /// Whether the cached successor lists equal the function's current
    /// ones (the coherence check behind [`CfgCache::ensure`]'s debug
    /// assertion).
    fn succs_match(&self, func: &Function) -> bool {
        let mut buf = Vec::with_capacity(3);
        self.succs.len() == func.num_blocks()
            && self.succs.iter().enumerate().all(|(bi, cached)| {
                buf.clear();
                func.successors_into(BlockId::new(bi), &mut buf);
                *cached == buf
            })
    }

    /// Predecessor lists, arena-indexed. Call [`CfgCache::ensure`] first.
    pub fn preds(&self) -> &[Vec<BlockId>] {
        &self.preds
    }

    /// Successor lists, arena-indexed (includes exceptional edges, like
    /// [`Function::successors`]).
    pub fn succs(&self) -> &[Vec<BlockId>] {
        &self.succs
    }

    /// Reverse postorder from the entry; unreachable blocks at the end.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Postorder (the exact reverse of [`CfgCache::rpo`]).
    pub fn postorder(&self) -> &[BlockId] {
        &self.postorder
    }

    /// Position of each block (arena-indexed) in [`CfgCache::rpo`].
    pub fn rpo_pos(&self) -> &[usize] {
        &self.rpo_pos
    }

    /// The dominator tree, computed on first use and memoized until the
    /// next CFG mutation. Revalidates the cache.
    pub fn dom(&mut self, func: &Function) -> &DomTree {
        self.ensure(func);
        if self.dom.is_none() {
            self.dom = Some(DomTree::new(func));
        }
        self.dom.as_ref().unwrap()
    }

    /// Natural-loop header blocks (deduplicated, in discovery order),
    /// computed on first use and memoized. Revalidates the cache.
    pub fn loop_headers(&mut self, func: &Function) -> &[BlockId] {
        self.ensure(func);
        if self.loop_headers.is_none() {
            let dom = if let Some(d) = &self.dom {
                d
            } else {
                self.dom = Some(DomTree::new(func));
                self.dom.as_ref().unwrap()
            };
            let mut headers: Vec<BlockId> = Vec::new();
            for (_, h) in dom.back_edges(func) {
                if !headers.contains(&h) {
                    headers.push(h);
                }
            }
            self.loop_headers = Some(headers);
        }
        self.loop_headers.as_deref().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Op;
    use crate::types::Type;

    fn looped() -> Function {
        let mut b = FuncBuilder::new("l", &[], Type::Int);
        let zero = b.iconst(0);
        let n = b.iconst(10);
        let sum = b.var(Type::Int);
        b.assign(sum, zero);
        b.for_loop(zero, n, 1, |b, i| {
            b.binop_into(sum, Op::Add, sum, i);
        });
        b.ret(Some(sum));
        b.finish()
    }

    #[test]
    fn matches_uncached_queries() {
        let f = looped();
        let cfg = CfgCache::computed(&f);
        assert_eq!(cfg.preds(), f.predecessors().as_slice());
        assert_eq!(cfg.rpo(), f.reverse_postorder().as_slice());
        for b in f.blocks() {
            assert_eq!(cfg.succs()[b.id.index()], f.successors(b.id));
            assert_eq!(cfg.rpo_pos()[b.id.index()], {
                cfg.rpo().iter().position(|x| *x == b.id).unwrap()
            });
        }
        let rev: Vec<_> = cfg.rpo().iter().rev().copied().collect();
        assert_eq!(cfg.postorder(), rev.as_slice());
    }

    #[test]
    fn dom_and_loop_headers_are_memoized_and_invalidate() {
        let mut f = looped();
        let mut cfg = CfgCache::new();
        let headers = cfg.loop_headers(&f).to_vec();
        assert_eq!(headers.len(), 1);
        let dom = DomTree::new(&f);
        assert_eq!(headers[0], dom.back_edges(&f)[0].1);
        // Dominators answer through the cache as through a fresh tree.
        for b in f.blocks() {
            assert_eq!(cfg.dom(&f).idom(b.id), dom.idom(b.id));
        }
        // CFG growth invalidates; ensure() rebuilds at the new size.
        let dead = f.add_block();
        assert!(!cfg.is_fresh(&f));
        cfg.ensure(&f);
        assert_eq!(cfg.preds().len(), f.num_blocks());
        assert!(cfg.preds()[dead.index()].is_empty());
        assert_eq!(cfg.rpo_pos()[dead.index()], cfg.rpo().len() - 1);
    }

    #[test]
    fn operand_rewrite_keeps_cache_fresh_successor_change_invalidates() {
        let mut f = looped();
        let mut cfg = CfgCache::computed(&f);
        let branch = f
            .blocks()
            .iter()
            .find(|b| matches!(b.term, crate::Terminator::If { .. }))
            .map(|b| b.id)
            .expect("the loop has a conditional latch");
        // Renaming a terminator operand cannot change an edge.
        let mut renamed = 0;
        f.term_uses_mut(branch, |v| {
            renamed += 1;
            *v = crate::types::VarId::new(0);
        });
        assert_eq!(renamed, 2);
        assert!(cfg.is_fresh(&f), "operand rewrite must not invalidate");
        cfg.ensure(&f);
        // Retargeting a successor goes through block_mut and invalidates.
        let exit = cfg.rpo()[cfg.rpo().len() - 1];
        f.block_mut(branch).term.map_successors(|_| exit);
        assert!(!cfg.is_fresh(&f));
        cfg.ensure(&f);
        assert_eq!(cfg.succs()[branch.index()], vec![exit, exit]);
        assert_eq!(cfg.preds(), f.predecessors().as_slice());
    }

    /// `f` rebuilt from its parts with `edit` applied to its blocks; the
    /// rebuilt function starts at generation 0 whatever the edit did.
    #[cfg(debug_assertions)]
    fn rebuilt(f: &Function, edit: impl FnOnce(&mut [crate::BasicBlock])) -> Function {
        let mut blocks = f.blocks().to_vec();
        edit(&mut blocks);
        Function::from_parts(
            f.name().to_string(),
            f.params().to_vec(),
            f.return_type(),
            f.is_instance(),
            f.var_types().to_vec(),
            blocks,
            f.entry(),
            f.try_regions().to_vec(),
        )
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CfgCache is stale")]
    fn edge_change_without_generation_bump_is_caught() {
        let f = looped();
        let mut cfg = CfgCache::computed(&rebuilt(&f, |_| {}));
        // Same generation, one edge gone: what a pass that rewrote a
        // terminator behind the generation's back would leave.
        let g = rebuilt(&f, |blocks| {
            blocks[0].term = crate::Terminator::Return(None)
        });
        assert!(cfg.is_fresh(&g), "the stale cache looks fresh");
        cfg.ensure(&g);
    }

    #[test]
    fn insts_mut_keeps_cache_fresh() {
        let mut f = looped();
        let cfg = CfgCache::computed(&f);
        let entry = f.entry();
        f.insts_mut(entry).clear();
        assert!(cfg.is_fresh(&f), "inst-only mutation must not invalidate");
    }
}
