//! # njc-core — two-phase null pointer check elimination
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Kawahito, Komatsu, Nakatani: *Effective Null Pointer Check Elimination
//! Utilizing Hardware Trap*, ASPLOS 2000): a null check optimizer split
//! into an architecture-independent phase that moves checks **backward**
//! and eliminates redundancy ([`phase1`], paper §4.1), and an architecture-
//! dependent phase that moves checks **forward** and converts them to
//! hardware traps ([`phase2`], paper §4.2).
//!
//! The previously known best algorithm — forward-dataflow elimination
//! (Whaley) — is implemented in [`whaley`] as the evaluation baseline, and
//! the pre-existing trivial trap conversion (Jalapeño/LaTTe style, §2.1)
//! in [`trivial`].
//!
//! ## Example: the full two-phase treatment of a loop
//!
//! ```
//! use njc_arch::TrapModel;
//! use njc_core::{ctx::AnalysisCtx, phase1, phase2};
//! use njc_ir::{parse_function, Module, Type};
//!
//! let mut module = Module::new("demo");
//! module.add_class("C", &[("count", Type::Int)]);
//! let mut f = parse_function(
//!     "func sum(v0: ref, v1: int) -> int {\n\
//!        locals v2: int v3: int\n\
//!      bb0:\n  v2 = const 0\n  goto bb1\n\
//!      bb1:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v2 = add.int v2, v3\n  if lt v2, v1 then bb1 else bb2\n\
//!      bb2:\n  return v2\n}",
//! ).unwrap();
//!
//! let ctx = AnalysisCtx::new(&module, TrapModel::windows_ia32());
//! let s1 = phase1::run(&ctx, &mut f);       // hoists the check to bb0
//! assert_eq!(s1.eliminated, 1);
//! let s2 = phase2::run(&ctx, &mut f);       // converts it to a hardware trap
//! assert_eq!(phase2::count_explicit(&f), 0);
//! ```

pub mod ctx;
pub mod gvn;
pub mod nonnull;
pub mod phase1;
pub mod phase2;
pub mod trivial;
pub mod whaley;

pub use ctx::{AccessClass, AnalysisCtx, EntryAssumptions, ExplicitOverride, FnFacts};
pub use gvn::ValueNumbering;
pub use phase1::Phase1Stats;
pub use phase2::Phase2Stats;
pub use trivial::TrivialStats;
pub use whaley::WhaleyStats;

use njc_dataflow::{BitSet, Solution, SolverWorkspace};
use njc_ir::{BlockId, CfgCache, CheckId, Function};
use njc_observe::{CheckEvent, Recorder, SiteProvenance, SiteRecord};

use gvn::{default_throw_point, GvnNonNullProblem, GvnWorkspace};
use nonnull::{NonNullProblem, SetsWorkspace};

/// One function's reusable analysis buffers: the dataflow solver's, the
/// value numbering's and the non-nullness transfer sets'. The optimizer
/// keeps one beside the function's [`CfgCache`] for its whole trip through
/// the pipeline, so the analyses that every round re-runs refill buffers
/// instead of allocating them. A workspace carries no facts from one use
/// to the next: every analysis refills what it reads.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Worklist buffers and recycled solution tables.
    pub solver: SolverWorkspace,
    /// Value numbering buffers.
    pub gvn: GvnWorkspace,
    /// Non-nullness transfer-set buffers.
    pub sets: SetsWorkspace,
}

impl Workspace {
    /// An empty workspace; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds and solves the forward non-nullness problem over `func`, the
    /// one analysis under phase 1, the Whaley baseline, the interprocedural
    /// inference and the passes that hoist under non-null facts. With
    /// `ctx`, its interprocedural assumptions enter: proven parameters at
    /// the boundary, non-null-returning calls and always-initialized field
    /// loads as gens. With `earliest`, phase 1's insertion points are
    /// assumed inserted at each block's exit. `cfg` must be fresh.
    ///
    /// Returns the solution and whether an assumption entered the problem;
    /// when none did, the solution is that of the problem without `ctx`.
    pub fn solve_nonnull(
        &mut self,
        func: &Function,
        cfg: &CfgCache,
        ctx: Option<&AnalysisCtx<'_>>,
        earliest: Option<&[BitSet]>,
    ) -> (Solution, bool) {
        let nv = func.num_vars();
        let p = NonNullProblem {
            func,
            sets: self.sets.compute(ctx, func),
            earliest,
            entry: ctx.and_then(|c| c.entry_facts(func, nv)),
            num_facts: nv,
        };
        let sol = self.solver.solve(func, cfg, &p);
        let assumed = p.entry.is_some() || p.sets.assumed_gens;
        self.sets.recycle(p.sets);
        (sol, assumed)
    }

    /// [`Workspace::solve_nonnull`] over value numbers: numbers `func`
    /// (with [`default_throw_point`]) and solves the value-numbered
    /// problem under the same `ctx` and `earliest`. Returns the numbering
    /// and the solution, the witness [`nonnull::eliminate_redundant`] takes.
    pub(crate) fn solve_gvn_nonnull(
        &mut self,
        func: &Function,
        cfg: &CfgCache,
        ctx: Option<&AnalysisCtx<'_>>,
        earliest: Option<&[BitSet]>,
    ) -> (ValueNumbering, Solution) {
        let vn = self.gvn.compute(func, cfg, &default_throw_point);
        let p = GvnNonNullProblem::new(
            func,
            &vn,
            self.gvn.sets(ctx, func, &vn),
            earliest,
            ctx.and_then(|c| c.entry_facts(func, func.num_vars())),
        );
        let sol = self.solver.solve(func, cfg, &p);
        self.gvn.recycle_sets(p.sets);
        (vn, sol)
    }
}

/// Scans the final IR for marked exception sites and resolves each back to
/// the conversion event that justified the marking — a
/// [`CheckEvent::Phase2Converted`] or [`CheckEvent::TrivialConverted`]
/// keyed by `(block, ordinal among the block's trap-qualifying accesses)` —
/// or classifies it as a soundness over-mark. Call once, after the last
/// null check pass, with the recorder that saw the whole pipeline.
pub fn collect_site_records(ctx: &AnalysisCtx<'_>, func: &Function, rec: &mut Recorder) {
    if !rec.is_enabled() {
        return;
    }
    let mut by_site: std::collections::BTreeMap<(usize, usize), (CheckId, bool)> =
        std::collections::BTreeMap::new();
    for ev in &rec.events {
        match ev {
            CheckEvent::Phase2Converted {
                id,
                block,
                site_ordinal,
                ..
            } => {
                by_site.insert((block.index(), *site_ordinal), (*id, false));
            }
            CheckEvent::TrivialConverted {
                id,
                block,
                site_ordinal,
                ..
            } => {
                by_site.insert((block.index(), *site_ordinal), (*id, true));
            }
            _ => {}
        }
    }
    let mut sites = Vec::new();
    for (bi, b) in func.blocks().iter().enumerate() {
        let mut ord = 0;
        for (i, inst) in b.insts.iter().enumerate() {
            let class = ctx.classify_access(inst);
            let trap_qualifying = matches!(class, Some((_, AccessClass::TrapGuaranteed)));
            if inst.is_exception_site() {
                if let Some((base, _)) = class {
                    let provenance = match by_site.get(&(bi, ord)) {
                        Some(&(id, trivial)) if trap_qualifying => {
                            if trivial {
                                SiteProvenance::Trivial(id)
                            } else {
                                SiteProvenance::Converted(id)
                            }
                        }
                        _ => SiteProvenance::OverMark,
                    };
                    sites.push(SiteRecord {
                        block: BlockId::new(bi),
                        inst_idx: i,
                        var: base,
                        provenance,
                    });
                }
            }
            if trap_qualifying {
                ord += 1;
            }
        }
    }
    rec.sites = sites;
}

/// Aggregated statistics for a full null check optimization of one function.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NullCheckStats {
    /// Phase 1 statistics (zeroed when phase 1 did not run).
    pub phase1: Phase1Stats,
    /// Phase 2 statistics (zeroed when phase 2 did not run).
    pub phase2: Phase2Stats,
    /// Whaley baseline statistics (zeroed unless the baseline ran).
    pub whaley: WhaleyStats,
    /// Trivial conversion statistics (zeroed unless it ran).
    pub trivial: TrivialStats,
}

impl NullCheckStats {
    /// Merges per-function statistics into a module-wide aggregate.
    pub fn merge(&mut self, other: &NullCheckStats) {
        self.phase1.eliminated += other.phase1.eliminated;
        self.phase1.gvn_eliminated += other.phase1.gvn_eliminated;
        self.phase1.inserted += other.phase1.inserted;
        self.phase1.motion_iterations += other.phase1.motion_iterations;
        self.phase1.nonnull_iterations += other.phase1.nonnull_iterations;
        self.phase1.motion_pops += other.phase1.motion_pops;
        self.phase1.nonnull_pops += other.phase1.nonnull_pops;
        self.phase2.converted_implicit += other.phase2.converted_implicit;
        self.phase2.explicit_inserted += other.phase2.explicit_inserted;
        self.phase2.substituted += other.phase2.substituted;
        self.phase2.absorbed += other.phase2.absorbed;
        self.phase2.respawned += other.phase2.respawned;
        self.phase2.merged += other.phase2.merged;
        self.phase2.postponed += other.phase2.postponed;
        self.phase2.motion_iterations += other.phase2.motion_iterations;
        self.phase2.subst_iterations += other.phase2.subst_iterations;
        self.phase2.motion_pops += other.phase2.motion_pops;
        self.phase2.subst_pops += other.phase2.subst_pops;
        self.whaley.eliminated += other.whaley.eliminated;
        self.whaley.gvn_eliminated += other.whaley.gvn_eliminated;
        self.whaley.iterations += other.whaley.iterations;
        self.whaley.pops += other.whaley.pops;
        self.trivial.converted += other.trivial.converted;
    }

    /// Total worklist pops across every solver run this aggregate covers —
    /// the compile-time cost metric surfaced by the bench bins.
    pub fn solver_pops(&self) -> usize {
        self.phase1.motion_pops
            + self.phase1.nonnull_pops
            + self.phase2.motion_pops
            + self.phase2.subst_pops
            + self.whaley.pops
    }

    /// Total solver convergence-depth iterations (see
    /// [`njc_dataflow::Solution::iterations`]) across every analysis.
    pub fn solver_iterations(&self) -> usize {
        self.phase1.motion_iterations
            + self.phase1.nonnull_iterations
            + self.phase2.motion_iterations
            + self.phase2.subst_iterations
            + self.whaley.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_accumulates() {
        let mut a = NullCheckStats::default();
        let mut b = NullCheckStats::default();
        b.phase1.eliminated = 3;
        b.phase2.converted_implicit = 2;
        b.whaley.eliminated = 1;
        b.trivial.converted = 4;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.phase1.eliminated, 6);
        assert_eq!(a.phase2.converted_implicit, 4);
        assert_eq!(a.whaley.eliminated, 2);
        assert_eq!(a.trivial.converted, 8);
    }
}
