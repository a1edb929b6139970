//! The profile policy: which functions deserve a tier-1 recompile, and
//! which implicit sites should come back explicit.
//!
//! The decision rule is the paper's trap-cost model inverted. An implicit
//! null check is free until it fires; once a site's observed trap rate
//! exceeds `explicit_null_check / trap_taken` (on IA32, 2/1200 — i.e. a
//! trap every ~600 executions), paying the explicit compare-and-branch on
//! every execution is cheaper than the occasional trap, and the site goes
//! into the function's [`ExplicitOverride`] set for phase 2.

use njc_arch::{CostModel, TrapModel};
use njc_core::ExplicitOverride;
use njc_ir::{AccessKind, FieldId, Function};
use njc_vm::{Fault, SiteCounters};

/// Tunable thresholds for the tiering decisions.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProfilePolicy {
    /// Traps-per-execution ratio above which an implicit site is judged
    /// hot-trapping. The break-even default is
    /// `cost.explicit_null_check / cost.trap_taken`.
    pub trap_ratio: f64,
    /// Minimum executions of a site's block before judging its trap rate
    /// (avoids promoting on one unlucky early trap).
    pub min_site_executions: u64,
    /// Minimum peak block-execution count for a function to be considered
    /// hot (and recompiled at the optimizing tier even with no trapping
    /// sites). Peak rather than entry count so a function entered once but
    /// looping forever still tiers up.
    pub hot_function_calls: u64,
    /// Minimum executions *since the current body was installed* before an
    /// overridden site may be judged quiesced and tiered back down. A
    /// short calm window is not evidence; a long one is.
    pub quiesce_executions: u64,
}

impl ProfilePolicy {
    /// Break-even thresholds for `cost` (paper §2.1's trap-cost model).
    pub fn from_cost(cost: &CostModel) -> Self {
        ProfilePolicy {
            trap_ratio: cost.explicit_null_check as f64 / cost.trap_taken as f64,
            min_site_executions: 16,
            hot_function_calls: 64,
            quiesce_executions: 256,
        }
    }

    /// Refuses a policy no run can follow: `trap_ratio` must be a finite,
    /// non-negative number. A NaN would compare false against every
    /// observed rate and quietly change which sites are judged hot.
    ///
    /// # Errors
    /// [`Fault::InvalidSetting`] naming `policy.trap_ratio`.
    pub fn validate(&self) -> Result<(), Fault> {
        if self.trap_ratio.is_finite() && self.trap_ratio >= 0.0 {
            return Ok(());
        }
        Err(Fault::InvalidSetting {
            setting: "policy.trap_ratio",
            detail: format!("{} is not a finite, non-negative ratio", self.trap_ratio),
        })
    }
}

/// One function's verdict for a single profile poll.
#[derive(Clone, PartialEq, Debug)]
pub struct FunctionPlan {
    /// Function index in the module.
    pub index: usize,
    /// Whether the function earned a tier-1 recompile.
    pub hot: bool,
    /// Slot keys whose implicit checks should be forced explicit.
    pub overrides: ExplicitOverride,
}

fn delta<K: Ord + Copy>(
    current: &std::collections::BTreeMap<K, u64>,
    baseline: Option<&std::collections::BTreeMap<K, u64>>,
    key: K,
) -> u64 {
    let cur = current.get(&key).copied().unwrap_or(0);
    let base = baseline.and_then(|b| b.get(&key)).copied().unwrap_or(0);
    cur.saturating_sub(base)
}

impl ProfilePolicy {
    /// Judges one function against the profile.
    ///
    /// `body` must be the body the counters were collected against (the
    /// currently installed tier); `baseline` is the counter snapshot taken
    /// when that body was installed, so only the *delta* — traps the
    /// current tier actually took — drives the decision. Counter keys that
    /// no longer resolve in `body` (stale, from an earlier tier) are
    /// ignored.
    pub fn assess(
        &self,
        index: usize,
        body: &Function,
        field_offset: &dyn Fn(FieldId) -> u64,
        current: &SiteCounters,
        baseline: Option<&SiteCounters>,
    ) -> FunctionPlan {
        let fi = index as u32;
        let executions = current
            .blocks
            .keys()
            .filter(|(f, _)| *f == fi)
            .map(|&k| delta(&current.blocks, baseline.map(|b| &b.blocks), k))
            .max()
            .unwrap_or(0);
        let mut overrides = ExplicitOverride::new();
        for &(f, b, i) in current.traps.keys() {
            if f != fi {
                continue;
            }
            let traps = delta(&current.traps, baseline.map(|s| &s.traps), (f, b, i));
            if traps == 0 {
                continue;
            }
            let block_execs = delta(&current.blocks, baseline.map(|s| &s.blocks), (f, b));
            if block_execs < self.min_site_executions {
                continue;
            }
            if (traps as f64) / (block_execs as f64) <= self.trap_ratio {
                continue;
            }
            // Resolve the trapping instruction to its slot key, skipping
            // indices stale against the current body.
            let Some(block) = body.blocks().get(b as usize) else {
                continue;
            };
            let Some(inst) = block.insts.get(i as usize) else {
                continue;
            };
            let Some(sa) = inst.slot_access(field_offset) else {
                continue;
            };
            if let Some(off) = sa.offset {
                overrides.insert(off, sa.kind);
            }
        }
        FunctionPlan {
            index,
            hot: executions >= self.hot_function_calls || !overrides.is_empty(),
            overrides,
        }
    }

    /// Maps each explicit check id in `body` to the slot key of the first
    /// access it guards. Intra-block only: a check is associated with the
    /// first subsequent slot access of its variable in the same block,
    /// which is the access whose implicit form would have trapped. Checks
    /// that guard nothing resolvable are absent (their caught nulls are
    /// then simply not attributed — a conservative loss).
    pub fn check_slot_map(
        body: &Function,
        field_offset: &dyn Fn(FieldId) -> u64,
    ) -> std::collections::BTreeMap<u32, (u64, AccessKind)> {
        let mut map = std::collections::BTreeMap::new();
        for block in body.blocks() {
            // Last pending explicit check per variable, not yet attributed.
            let mut pending: std::collections::BTreeMap<u32, u32> = Default::default();
            for inst in &block.insts {
                if let njc_ir::Inst::NullCheck {
                    var,
                    kind: njc_ir::NullCheckKind::Explicit,
                    id,
                } = inst
                {
                    pending.insert(var.index() as u32, id.0);
                    continue;
                }
                if let Some(sa) = inst.slot_access(field_offset) {
                    if let (Some(off), Some(cid)) =
                        (sa.offset, pending.remove(&(sa.base.index() as u32)))
                    {
                        map.entry(cid).or_insert((off, sa.kind));
                    }
                }
            }
        }
        map
    }

    /// Tier-down judgment for one already-overridden function: which of
    /// `installed`'s override slots still earn their explicit check?
    ///
    /// Evidence of continued null arrivals in the window since install is
    /// the sum of nulls *caught* by the slot's explicit check
    /// ([`SiteCounters::check_nulls`], resolved through `body`'s
    /// check→slot map) and hardware traps attributed to the slot
    /// ([`SiteCounters::trap_slots`]). A slot whose window arrival rate
    /// has fallen to or below the break-even ratio is dropped — its
    /// implicit form is cheaper again. Until the window holds at least
    /// [`quiesce_executions`](ProfilePolicy::quiesce_executions)
    /// executions, everything is retained: silence over a short window
    /// proves nothing.
    pub fn assess_tier_down(
        &self,
        index: usize,
        body: &Function,
        field_offset: &dyn Fn(FieldId) -> u64,
        installed: &ExplicitOverride,
        current: &SiteCounters,
        baseline: Option<&SiteCounters>,
    ) -> ExplicitOverride {
        let fi = index as u32;
        let executions = current
            .blocks
            .keys()
            .filter(|(f, _)| *f == fi)
            .map(|&k| delta(&current.blocks, baseline.map(|b| &b.blocks), k))
            .max()
            .unwrap_or(0);
        if executions < self.quiesce_executions {
            return installed.clone();
        }
        let check_slots = Self::check_slot_map(body, field_offset);
        let mut nulls: std::collections::BTreeMap<(u64, AccessKind), u64> = Default::default();
        for &(f, cid) in current.check_nulls.keys() {
            if f != fi {
                continue;
            }
            let caught = delta(
                &current.check_nulls,
                baseline.map(|b| &b.check_nulls),
                (f, cid),
            );
            if let Some(&slot) = check_slots.get(&cid) {
                *nulls.entry(slot).or_insert(0) += caught;
            }
        }
        for &(f, off, kind) in current.trap_slots.keys() {
            if f != fi {
                continue;
            }
            let traps = delta(
                &current.trap_slots,
                baseline.map(|b| &b.trap_slots),
                (f, off, kind),
            );
            *nulls.entry((off, kind)).or_insert(0) += traps;
        }
        let mut retained = ExplicitOverride::new();
        for (off, kind) in installed.keys() {
            let arrivals = nulls.get(&(off, kind)).copied().unwrap_or(0);
            if (arrivals as f64) / (executions as f64) > self.trap_ratio {
                retained.insert(off, kind);
            }
        }
        retained
    }

    /// Whole-run judgment from *cumulative* counters, for the post-run
    /// fixpoint: the override set the run's total null-arrival history
    /// justifies, independent of when (or whether) any mid-run swap
    /// landed.
    ///
    /// The timing trap this dodges: once a site is compiled explicit it
    /// stops trapping, so cumulative *traps* alone under-count null
    /// arrivals by however long the override was installed. Arrivals here
    /// are traps by slot key ([`SiteCounters::trap_slots`], stable across
    /// every tier's body coordinates) **plus** nulls caught by explicit
    /// checks ([`SiteCounters::check_nulls`], resolved through the
    /// check→slot maps of the final and tier-0 bodies, final first).
    /// Their sum is the run's total null-arrival count for the slot —
    /// the same number no matter which bodies were installed when.
    ///
    /// The denominator is the function's peak cumulative block count — an
    /// over-estimate of any one site's executions, hence biased *against*
    /// overriding: a slot must clear break-even against the hottest block
    /// to stay explicit. That conservatism is deliberate; the paper's bet
    /// defaults to implicit.
    ///
    /// Only slots `trap` can actually make implicit are eligible: on a
    /// writes-only model (AIX), a read slot's checks stay explicit by
    /// phase-2 legality no matter what, so recording an override for one
    /// would claim credit the override machinery never earns.
    pub fn assess_cumulative(
        &self,
        index: usize,
        tier0_body: &Function,
        final_body: &Function,
        field_offset: &dyn Fn(FieldId) -> u64,
        trap: &TrapModel,
        counters: &SiteCounters,
    ) -> FunctionPlan {
        let fi = index as u32;
        let executions = counters
            .blocks
            .iter()
            .filter(|((f, _), _)| *f == fi)
            .map(|(_, &c)| c)
            .max()
            .unwrap_or(0);
        let final_map = Self::check_slot_map(final_body, field_offset);
        let tier0_map = Self::check_slot_map(tier0_body, field_offset);
        let mut arrivals: std::collections::BTreeMap<(u64, AccessKind), u64> = Default::default();
        for (&(f, cid), &caught) in &counters.check_nulls {
            if f != fi {
                continue;
            }
            if let Some(&slot) = final_map.get(&cid).or_else(|| tier0_map.get(&cid)) {
                *arrivals.entry(slot).or_insert(0) += caught;
            }
        }
        for (&(f, off, kind), &traps) in &counters.trap_slots {
            if f != fi {
                continue;
            }
            *arrivals.entry((off, kind)).or_insert(0) += traps;
        }
        let mut overrides = ExplicitOverride::new();
        if executions >= self.min_site_executions {
            for (&(off, kind), &n) in &arrivals {
                if trap.access_traps(kind, Some(off))
                    && (n as f64) / (executions as f64) > self.trap_ratio
                {
                    overrides.insert(off, kind);
                }
            }
        }
        FunctionPlan {
            index,
            hot: executions >= self.hot_function_calls || !overrides.is_empty(),
            overrides,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::Platform;
    use njc_ir::parse_function;

    fn body() -> Function {
        parse_function(
            "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        )
        .unwrap()
    }

    fn policy() -> ProfilePolicy {
        ProfilePolicy::from_cost(&Platform::windows_ia32().cost)
    }

    #[test]
    fn break_even_ratio_comes_from_the_cost_model() {
        let cost = Platform::windows_ia32().cost;
        let p = policy();
        assert!(
            (p.trap_ratio - cost.explicit_null_check as f64 / cost.trap_taken as f64).abs() < 1e-12
        );
        assert!(p.trap_ratio < 0.01, "traps are three orders costlier");
    }

    #[test]
    fn hot_trapping_site_is_promoted_and_cold_one_is_not() {
        let f = body();
        let offset = |_: FieldId| 0u64;
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 1000);
        counters.traps.insert((0, 0, 0), 500);
        let plan = policy().assess(0, &f, &offset, &counters, None);
        assert!(plan.hot);
        assert!(plan.overrides.contains(0, njc_ir::AccessKind::Read));

        // One trap in a thousand executions sits below 2/1200.
        counters.traps.insert((0, 0, 0), 1);
        let plan = policy().assess(0, &f, &offset, &counters, None);
        assert!(plan.overrides.is_empty(), "below break-even stays implicit");
    }

    #[test]
    fn baseline_subtraction_ignores_previous_tier_history() {
        let f = body();
        let offset = |_: FieldId| 0u64;
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 2000);
        counters.traps.insert((0, 0, 0), 500);
        // Baseline equal to current: the new tier has seen nothing yet.
        let plan = policy().assess(0, &f, &offset, &counters, Some(&counters));
        assert!(plan.overrides.is_empty());
        assert!(!plan.hot);
    }

    #[test]
    fn too_few_executions_withhold_judgment() {
        let f = body();
        let offset = |_: FieldId| 0u64;
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 4);
        counters.traps.insert((0, 0, 0), 4);
        let plan = policy().assess(0, &f, &offset, &counters, None);
        assert!(plan.overrides.is_empty(), "sample too small");
    }

    /// A body with an explicit check guarding the field access, as a
    /// tier-1 compile with an override would produce.
    fn checked_body() -> Function {
        parse_function(
            "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
        )
        .unwrap()
    }

    #[test]
    fn check_slot_map_attributes_first_guarded_access() {
        let f = checked_body();
        let offset = |_: FieldId| 8u64;
        let map = ProfilePolicy::check_slot_map(&f, &offset);
        assert_eq!(map.len(), 1);
        let (&_cid, &slot) = map.iter().next().unwrap();
        assert_eq!(slot, (8, AccessKind::Read));
    }

    #[test]
    fn quiesced_override_is_dropped_and_active_one_retained() {
        let f = checked_body();
        let offset = |_: FieldId| 0u64;
        let p = policy();
        let cid = *ProfilePolicy::check_slot_map(&f, &offset)
            .keys()
            .next()
            .unwrap();
        let mut installed = ExplicitOverride::new();
        installed.insert(0, AccessKind::Read);

        // Long calm window: the slot caught nothing since install.
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 10_000);
        let retained = p.assess_tier_down(0, &f, &offset, &installed, &counters, None);
        assert!(retained.is_empty(), "quiesced site tiers down");

        // Same window but the explicit check is still catching nulls well
        // above break-even: retained.
        counters.check_nulls.insert((0, cid), 5_000);
        let retained = p.assess_tier_down(0, &f, &offset, &installed, &counters, None);
        assert!(retained.contains(0, AccessKind::Read));

        // Short window: silence proves nothing, retain.
        let mut short = SiteCounters::default();
        short.blocks.insert((0, 0), p.quiesce_executions - 1);
        let retained = p.assess_tier_down(0, &f, &offset, &installed, &short, None);
        assert!(retained.contains(0, AccessKind::Read), "window too short");
    }

    #[test]
    fn cumulative_assessment_sums_traps_and_caught_nulls() {
        // Half the arrivals trapped (pre-swap, implicit body), half were
        // caught by the installed explicit check — the cumulative verdict
        // must see their sum, not either part.
        let tier0 = body();
        let tier1 = checked_body();
        let offset = |_: FieldId| 0u64;
        let p = policy();
        let cid = *ProfilePolicy::check_slot_map(&tier1, &offset)
            .keys()
            .next()
            .unwrap();
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 1_000);
        counters.trap_slots.insert((0, 0, AccessKind::Read), 250);
        counters.check_nulls.insert((0, cid), 250);
        let plan = p.assess_cumulative(
            0,
            &tier0,
            &tier1,
            &offset,
            &TrapModel::windows_ia32(),
            &counters,
        );
        assert!(plan.overrides.contains(0, AccessKind::Read));

        // Either half alone is still above break-even here, so shrink to
        // a rate where only the *sum* clears the ratio: 2 + 2 arrivals
        // in 1000 executions vs break-even 1.67/1000.
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 1_000);
        counters.trap_slots.insert((0, 0, AccessKind::Read), 1);
        counters.check_nulls.insert((0, cid), 1);
        let plan = p.assess_cumulative(
            0,
            &tier0,
            &tier1,
            &offset,
            &TrapModel::windows_ia32(),
            &counters,
        );
        assert!(
            plan.overrides.contains(0, AccessKind::Read),
            "1+1 arrivals per 1000 execs beats 2/1200 only summed"
        );

        // Fully quiesced history: no override, plain hotness only.
        let mut counters = SiteCounters::default();
        counters.blocks.insert((0, 0), 1_000);
        let plan = p.assess_cumulative(
            0,
            &tier0,
            &tier1,
            &offset,
            &TrapModel::windows_ia32(),
            &counters,
        );
        assert!(plan.overrides.is_empty());
        assert!(plan.hot, "still hot by execution count");
    }
}
