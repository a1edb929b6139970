//! The "Old Null Check" baseline: Whaley's forward-dataflow redundant null
//! check elimination (paper §2.2, evaluated as "Old Null Check" in
//! Tables 1–2).
//!
//! The algorithm removes null checks whose target is already known to be
//! non-null, using forward dataflow only. Its two documented drawbacks —
//! the ones the paper's two-phase algorithm fixes — follow directly:
//!
//! 1. it cannot move loop invariant null checks out of loops (no backward
//!    motion / insertion), and
//! 2. it does not reposition checks to maximize hardware trap usage (the
//!    *trivial* trap conversion of [`crate::trivial`] is all it gets).

use njc_ir::{CfgCache, Function};
use njc_observe::Recorder;

use crate::nonnull::eliminate_redundant;
use crate::Workspace;

/// Statistics from one Whaley-baseline application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WhaleyStats {
    /// Null checks removed.
    pub eliminated: usize,
    /// The subset of `eliminated` only the value-numbered analysis could
    /// justify (zero unless [`run_recorded`] ran with `gvn`).
    pub gvn_eliminated: usize,
    /// Solver convergence depth.
    pub iterations: usize,
    /// Worklist pops spent by the non-nullness analysis.
    pub pops: usize,
}

/// Runs the baseline elimination on `func` in place.
pub fn run(func: &mut Function) -> WhaleyStats {
    run_recorded(
        func,
        &mut CfgCache::new(),
        &mut Workspace::new(),
        &mut Recorder::disabled(),
        false,
    )
}

/// [`run`] with provenance, reusing (and revalidating) the caller's
/// [`CfgCache`] and solving in the caller's [`Workspace`]: every
/// elimination records the `In_fwd` fact that justified it.
///
/// With `gvn` (`OptConfig::gvn`), the value-numbered problem is solved
/// too, as a witness beside the per-variable one: every check either
/// justifies is removed — a strict superset of the baseline's kills, with
/// each GVN-only kill attributed to its congruence class
/// (`Redundancy::Gvn`). Solver counters sum both analyses.
pub fn run_recorded(
    func: &mut Function,
    cfg: &mut CfgCache,
    ws: &mut Workspace,
    rec: &mut Recorder,
    gvn: bool,
) -> WhaleyStats {
    if func.num_vars() == 0 {
        return WhaleyStats::default();
    }
    cfg.ensure(func);
    let (sol, _) = ws.solve_nonnull(func, cfg, None, None);
    let witness = gvn.then(|| ws.solve_gvn_nonnull(func, cfg, None, None));
    let r = eliminate_redundant(
        None,
        func,
        &sol.ins,
        None,
        witness.as_ref().map(|(vn, s)| (vn, s.ins.as_slice())),
        rec,
        false,
    );
    let mut stats = WhaleyStats {
        eliminated: r.eliminated,
        gvn_eliminated: r.gvn_only,
        iterations: sol.iterations,
        pops: sol.worklist_pops,
    };
    ws.solver.recycle(sol);
    if let Some((vn, gsol)) = witness {
        stats.iterations += gsol.iterations;
        stats.pops += gsol.worklist_pops;
        ws.gvn.recycle(vn);
        ws.solver.recycle(gsol);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::count_checks;
    use njc_ir::parse_function;

    #[test]
    fn removes_straight_line_redundancy() {
        let mut f = parse_function(
            "func f(v0: ref) -> int {\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v0\n  v2 = getfield v0, field1\n  return v2\n}",
        )
        .unwrap();
        let stats = run(&mut f);
        assert_eq!(stats.eliminated, 1);
        assert_eq!(count_checks(&f), 1);
    }

    #[test]
    fn cannot_hoist_loop_invariant_check() {
        // §2.2 drawback #1: the in-loop check survives under Whaley because
        // the outer path carries no check.
        let src = "\
func f(v0: ref, v1: int) -> int {
  locals v2: int v3: int v4: int
bb0:
  v2 = const 0
  goto bb1
bb1:
  nullcheck v0
  v3 = getfield v0, field0
  v2 = add.int v2, v3
  v4 = const 10
  if lt v2, v4 then bb1 else bb2
bb2:
  return v2
}";
        let mut f = parse_function(src).unwrap();
        let stats = run(&mut f);
        assert_eq!(stats.eliminated, 0, "{f}");
        assert_eq!(count_checks(&f), 1, "check stays inside the loop");
    }

    #[test]
    fn second_loop_iteration_redundancy_is_not_removable_without_motion() {
        // Even though the check is redundant on the back edge, the entry
        // edge lacks the fact, so the intersection keeps the check — this
        // is exactly why phase 1 inserts at the preheader instead.
        let src = "\
func g(v0: ref, v1: int) -> int {
  locals v2: int
bb0:
  nullcheck v0
  v2 = getfield v0, field0
  goto bb1
bb1:
  nullcheck v0
  v2 = getfield v0, field0
  if lt v2, v1 then bb1 else bb2
bb2:
  return v2
}";
        let mut f = parse_function(src).unwrap();
        let stats = run(&mut f);
        // Here the pre-loop check dominates, so Whaley *does* remove the
        // in-loop one: the drawback only bites when the first access is
        // inside the loop (previous test).
        assert_eq!(stats.eliminated, 1, "{f}");
    }
}
