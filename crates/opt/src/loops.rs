//! Dominators and natural loop detection.
//!
//! The scalar replacement / loop invariant code motion pass needs to know
//! where loops are and which blocks execute on every iteration. Both are
//! classic bit-vector computations, small enough to run per-function on
//! every pipeline iteration. Both read predecessors, successors and
//! reverse postorder from the caller's [`CfgCache`], and a [`LoopCache`]
//! keeps their result for one CFG generation, so the passes that look for
//! loops (LICM, store sinking, versioning) share one computation until an
//! edge changes.

use njc_dataflow::BitSet;
use njc_ir::{BlockId, CfgCache, Function};

/// Dominator sets: `doms[b]` contains every block that dominates `b`
/// (including `b` itself).
#[derive(Clone, Debug)]
pub struct Dominators {
    sets: Vec<BitSet>,
}

impl Dominators {
    /// Computes dominators by the standard iterative bit-vector algorithm
    /// over `cfg`, which must be fresh for `func`.
    pub fn compute(func: &Function, cfg: &CfgCache) -> Self {
        assert!(
            cfg.is_fresh(func),
            "Dominators::compute needs a fresh CfgCache"
        );
        let n = func.num_blocks();
        let preds = cfg.preds();
        let entry = func.entry().index();
        let mut sets: Vec<BitSet> = (0..n).map(|_| BitSet::full(n)).collect();
        sets[entry] = BitSet::new(n);
        sets[entry].insert(entry);

        let mut new = BitSet::new(n);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let bi = b.index();
                if bi == entry {
                    continue;
                }
                // No predecessor (unreachable): dominated by everything
                // (vacuous), which the full set already says.
                new.set_all();
                for &p in &preds[bi] {
                    new.intersect_with(&sets[p.index()]);
                }
                new.insert(bi);
                if new != sets[bi] {
                    sets[bi].copy_from(&new);
                    changed = true;
                }
            }
        }
        Dominators { sets }
    }

    /// Whether `a` dominates `b`.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.sets[b.index()].contains(a.index())
    }
}

/// A natural loop: a header plus the body of every back edge targeting it.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (the back edges' target).
    pub header: BlockId,
    /// Every block in the loop, including the header.
    pub body: BitSet,
    /// The sources of the loop's back edges.
    pub latches: Vec<BlockId>,
    /// The unique predecessor of the header outside the loop, if there is
    /// exactly one (hoist target). `None` when the loop has no usable
    /// preheader; such loops are skipped by LICM.
    pub preheader: Option<BlockId>,
}

impl NaturalLoop {
    /// Whether `b` is inside the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(b.index())
    }
}

/// Finds every natural loop in `func`. Loops sharing a header are merged.
/// Returns loops sorted innermost-first (smaller bodies first) so LICM can
/// process nests inside-out. `cfg` must be fresh for `func`.
pub fn find_loops(func: &Function, cfg: &CfgCache, doms: &Dominators) -> Vec<NaturalLoop> {
    assert!(cfg.is_fresh(func), "find_loops needs a fresh CfgCache");
    let n = func.num_blocks();
    let preds = cfg.preds();
    let mut by_header: Vec<Option<NaturalLoop>> = vec![None; n];

    for (bi, succs) in cfg.succs().iter().enumerate() {
        let b = BlockId::new(bi);
        for &s in succs {
            if doms.dominates(s, b) {
                // Back edge b -> s: collect the natural loop body.
                let header = s;
                let mut body = BitSet::new(n);
                body.insert(header.index());
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if body.insert(x.index()) {
                        for &p in &preds[x.index()] {
                            stack.push(p);
                        }
                    }
                }
                let entry = by_header[header.index()].get_or_insert_with(|| NaturalLoop {
                    header,
                    body: BitSet::new(n),
                    latches: Vec::new(),
                    preheader: None,
                });
                entry.body.union_with(&body);
                entry.body.insert(header.index());
                entry.latches.push(b);
            }
        }
    }

    let mut loops: Vec<NaturalLoop> = by_header.into_iter().flatten().collect();
    // Determine preheaders.
    for l in &mut loops {
        let outside: Vec<BlockId> = preds[l.header.index()]
            .iter()
            .copied()
            .filter(|p| !l.body.contains(p.index()))
            .collect();
        l.preheader = match outside.as_slice() {
            [p] => {
                // The preheader must branch only to the header (otherwise an
                // insertion there would execute on unrelated paths) and must
                // not sit inside a different try region.
                let only_to_header = cfg.succs()[p.index()] == [l.header];
                let same_region = func.block(*p).try_region == func.block(l.header).try_region;
                (only_to_header && same_region).then_some(*p)
            }
            _ => None,
        };
    }
    loops.sort_by_key(|l| l.body.count());
    loops
}

/// The dominators and natural loops of one function at one CFG
/// generation, computed on first use and kept until the generation moves.
/// Like a [`CfgCache`], one serves one function: generations of different
/// functions may coincide.
#[derive(Clone, Debug, Default)]
pub struct LoopCache {
    cached: Option<(u64, Dominators, Vec<NaturalLoop>)>,
}

impl LoopCache {
    /// An empty cache; the first [`LoopCache::get`] fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Dominators::compute`] and [`find_loops`] for `func`, recomputed
    /// only when its CFG generation moved since the last call. `cfg` must
    /// be fresh for `func`.
    pub fn get(&mut self, func: &Function, cfg: &CfgCache) -> (&Dominators, &[NaturalLoop]) {
        let generation = func.generation();
        if self.cached.as_ref().is_some_and(|c| c.0 != generation) {
            self.cached = None;
        }
        let (_, doms, loops) = self.cached.get_or_insert_with(|| {
            let doms = Dominators::compute(func, cfg);
            let loops = find_loops(func, cfg, &doms);
            (generation, doms, loops)
        });
        (doms, loops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::{FuncBuilder, Op, Type};

    fn loop_func() -> Function {
        let mut b = FuncBuilder::new("l", &[Type::Int], Type::Int);
        let n = b.param(0);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        b.for_loop(zero, n, 1, |b, i| {
            b.binop_into(acc, Op::Add, acc, i);
        });
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn entry_dominates_everything() {
        let f = loop_func();
        let cfg = CfgCache::computed(&f);
        let d = Dominators::compute(&f, &cfg);
        for b in f.blocks() {
            assert!(d.dominates(f.entry(), b.id));
            assert!(d.dominates(b.id, b.id));
        }
    }

    #[test]
    fn single_loop_found_with_preheader() {
        let f = loop_func();
        let cfg = CfgCache::computed(&f);
        let d = Dominators::compute(&f, &cfg);
        let loops = find_loops(&f, &cfg, &d);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        // Rotated for_loop shape: entry(0) -> preheader(1) -> body(2),
        // body -> body | exit(3).
        assert_eq!(l.header, BlockId(2));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(1)));
        assert!(!l.contains(BlockId(3)));
        assert_eq!(l.preheader, Some(BlockId(1)));
        assert_eq!(l.latches, vec![BlockId(2)]);
    }

    #[test]
    fn nested_loops_sorted_innermost_first() {
        let mut b = FuncBuilder::new("n2", &[Type::Int], Type::Int);
        let n = b.param(0);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        b.for_loop(zero, n, 1, |b, _i| {
            b.for_loop(zero, n, 1, |b, j| {
                b.binop_into(acc, Op::Add, acc, j);
            });
        });
        b.ret(Some(acc));
        let f = b.finish();
        let cfg = CfgCache::computed(&f);
        let d = Dominators::compute(&f, &cfg);
        let loops = find_loops(&f, &cfg, &d);
        assert_eq!(loops.len(), 2);
        assert!(loops[0].body.count() < loops[1].body.count());
        // The inner loop is contained in the outer one.
        for x in loops[0].body.iter() {
            assert!(loops[1].body.contains(x));
        }
        // Both have preheaders.
        assert!(loops[0].preheader.is_some());
        assert!(loops[1].preheader.is_some());
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FuncBuilder::new("s", &[], Type::Int);
        let v = b.iconst(3);
        b.ret(Some(v));
        let f = b.finish();
        let cfg = CfgCache::computed(&f);
        let d = Dominators::compute(&f, &cfg);
        assert!(find_loops(&f, &cfg, &d).is_empty());
    }

    #[test]
    fn do_while_loop_detected() {
        let mut b = FuncBuilder::new("dw", &[Type::Int], Type::Int);
        let n = b.param(0);
        let zero = b.iconst(0);
        let acc = b.var(Type::Int);
        b.assign(acc, zero);
        b.do_while_loop(zero, n, 1, |b, i| {
            b.binop_into(acc, Op::Add, acc, i);
        });
        b.ret(Some(acc));
        let f = b.finish();
        let cfg = CfgCache::computed(&f);
        let d = Dominators::compute(&f, &cfg);
        let loops = find_loops(&f, &cfg, &d);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].preheader.is_some());
    }
}
