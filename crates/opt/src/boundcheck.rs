//! Redundant array bounds check elimination (the paper's "array bounds
//! check optimization", Figure 2 (2)).
//!
//! A `boundcheck i, len` is redundant when the same `(index, length)` pair
//! has already been checked on every path with neither variable redefined
//! since. Facts are the distinct pairs appearing in the function; the
//! analysis is a forward must-analysis. (Loop-invariant bounds checks are
//! hoisted by [`crate::scalar`]; this pass removes the duplicates that the
//! builder's full splitting and inlining produce.)

use std::collections::HashMap;

use njc_dataflow::{BitSet, Direction, Meet, Problem, SolverWorkspace};
use njc_ir::{BlockId, CfgCache, Function, Inst, VarId};

/// Statistics from one bounds check elimination application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BoundCheckStats {
    /// Redundant bounds checks removed.
    pub eliminated: usize,
}

struct PairTable {
    ids: HashMap<(VarId, VarId), usize>,
}

impl PairTable {
    fn build(func: &Function) -> Self {
        let mut ids = HashMap::new();
        for b in func.blocks() {
            for inst in &b.insts {
                if let Inst::BoundCheck { index, length } = inst {
                    let next = ids.len();
                    ids.entry((*index, *length)).or_insert(next);
                }
            }
        }
        PairTable { ids }
    }

    fn id(&self, index: VarId, length: VarId) -> Option<usize> {
        self.ids.get(&(index, length)).copied()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Fact ids whose pair mentions `v`.
    fn involving(&self, v: VarId) -> impl Iterator<Item = usize> + '_ {
        self.ids
            .iter()
            .filter(move |((i, l), _)| *i == v || *l == v)
            .map(|(_, &id)| id)
    }
}

struct Checked<'a> {
    func: &'a Function,
    pairs: &'a PairTable,
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

impl<'a> Checked<'a> {
    fn new(func: &'a Function, pairs: &'a PairTable) -> Self {
        let nf = pairs.len();
        let mut gen = Vec::with_capacity(func.num_blocks());
        let mut kill = Vec::with_capacity(func.num_blocks());
        for b in func.blocks() {
            let mut g = BitSet::new(nf);
            let mut k = BitSet::new(nf);
            for inst in &b.insts {
                if let Inst::BoundCheck { index, length } = inst {
                    if let Some(id) = pairs.id(*index, *length) {
                        g.insert(id);
                        k.remove(id);
                    }
                }
                if let Some(d) = inst.def() {
                    for id in pairs.involving(d) {
                        g.remove(id);
                        k.insert(id);
                    }
                }
            }
            gen.push(g);
            kill.push(k);
        }
        Checked {
            func,
            pairs,
            gen,
            kill,
        }
    }
}

impl Problem for Checked<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Intersect
    }
    fn num_facts(&self) -> usize {
        self.pairs.len()
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        output.copy_from(input);
        output.subtract(&self.kill[block.index()]);
        output.union_with(&self.gen[block.index()]);
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        // On exceptional edges be maximally conservative: the block may
        // have thrown before any of its checks executed.
        if njc_core::nonnull::is_exceptional_edge(self.func, from, to) {
            set.clear();
        }
    }
}

/// Runs redundant bounds check elimination on `func` in place, solving
/// over `cfg` (revalidated first) in `solver`. Only instruction lists
/// change, so the cache stays fresh.
pub fn run(
    func: &mut Function,
    cfg: &mut CfgCache,
    solver: &mut SolverWorkspace,
) -> BoundCheckStats {
    let pairs = PairTable::build(func);
    let mut stats = BoundCheckStats::default();
    if pairs.len() == 0 {
        return stats;
    }
    cfg.ensure(func);
    let problem = Checked::new(func, &pairs);
    let sol = solver.solve(func, cfg, &problem);
    let mut set = BitSet::default();
    for (bi, entry) in sol.ins.iter().enumerate() {
        set.clone_from(entry);
        func.insts_mut(BlockId::new(bi)).retain(|inst| match inst {
            Inst::BoundCheck { index, length } => {
                let id = pairs.id(*index, *length).expect("pair enumerated");
                if set.contains(id) {
                    stats.eliminated += 1;
                    return false;
                }
                set.insert(id);
                true
            }
            _ => {
                if let Some(d) = inst.def() {
                    for id in pairs.involving(d) {
                        set.remove(id);
                    }
                }
                true
            }
        });
    }
    solver.recycle(sol);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::parse_function;

    #[test]
    fn duplicate_check_in_block_removed() {
        let mut f = parse_function(
            "func f(v0: int, v1: int) -> int {\nbb0:\n  boundcheck v0, v1\n  boundcheck v0, v1\n  return v0\n}",
        )
        .unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.eliminated, 1);
    }

    #[test]
    fn redefinition_of_index_blocks_elimination() {
        let mut f = parse_function(
            "func f(v0: int, v1: int) -> int {\nbb0:\n  boundcheck v0, v1\n  v0 = add.int v0, v0\n  boundcheck v0, v1\n  return v0\n}",
        )
        .unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn check_on_one_path_only_is_kept_at_merge() {
        let src = "\
func f(v0: int, v1: int) -> int {
bb0:
  if lt v0, v1 then bb1 else bb2
bb1:
  boundcheck v0, v1
  goto bb3
bb2:
  goto bb3
bb3:
  boundcheck v0, v1
  return v0
}";
        let mut f = parse_function(src).unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.eliminated, 0, "{f}");
    }

    #[test]
    fn dominating_check_covers_merge() {
        let src = "\
func f(v0: int, v1: int) -> int {
bb0:
  boundcheck v0, v1
  if lt v0, v1 then bb1 else bb2
bb1:
  goto bb3
bb2:
  goto bb3
bb3:
  boundcheck v0, v1
  return v0
}";
        let mut f = parse_function(src).unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.eliminated, 1, "{f}");
    }

    #[test]
    fn no_checks_is_a_noop() {
        let mut f = parse_function("func f(v0: int) -> int {\nbb0:\n  return v0\n}").unwrap();
        let stats = run(&mut f, &mut CfgCache::new(), &mut SolverWorkspace::new());
        assert_eq!(stats.eliminated, 0);
    }
}
