//! Differential testing of the adaptive runtime.
//!
//! The tiered manager ([`TieredRuntime`]) must be *observationally
//! invisible*: for any program, the adaptive run (tier-0 bodies, counters
//! on, recompiled bodies swapping in mid-flight) and the steady-state run
//! (final bodies, no adaptation) must agree with a single-shot tier-1
//! compile on every channel of an [`Observation`]: result, escaped
//! exception, observation trace, exception events, heap digest, and
//! missed NPEs. This module replays a corpus in the style of
//! [`crate::difftest`] — micros, deterministic probes, and generated
//! fault programs — through the runtime and diffs every run against the
//! single-shot reference. It also runs the runtime's own invariants per
//! program: tiered reconciliation (every trap and explicit check resolves
//! in some installed tier) and override convergence.
//!
//! Every tier compile runs the interprocedural inference and the
//! value-numbered analysis (`RuntimeConfig::{interproc, gvn}`) while the
//! reference stays off both, so each inferred fact and congruence-class
//! kill is cross-checked against the baseline on every observable channel.
//! A call-heavy corpus feeds the inference, and each program's facts are
//! also asserted directly: the fact-assertion module
//! ([`njc_interproc::assertion_module`]) must match the raw run on every
//! channel *and* on the silent-read counter.

use std::panic::{catch_unwind, AssertUnwindSafe};

use njc_arch::Platform;
use njc_ir::{Module, Observation};
use njc_opt::ConfigKind;
use njc_runtime::{RuntimeConfig, ServiceRuntime, TenantSpec, TieredRuntime};
use njc_vm::{run_module, Fault, Outcome};
use njc_workloads::gen::{
    build_call_module, build_module, gen_call_actions, gen_fault_actions, Action, Rng,
};
use njc_workloads::micro;

use crate::difftest::fault_label;

/// Aggregate result of a runtime difftest run.
#[derive(Clone, Debug, Default)]
pub struct RuntimeDiffReport {
    /// Programs replayed.
    pub programs: usize,
    /// (program, run) comparisons performed.
    pub cells: usize,
    /// Detected divergences, one human-readable line each.
    pub divergences: Vec<String>,
    /// Programs whose reference run ended in a structured fault (the
    /// runtime must fault identically; these are compared, not skipped).
    pub faulting_programs: usize,
}

impl RuntimeDiffReport {
    /// Whether the run gates CI green.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The corpus: every micro, the null-seeded probe (the adaptive runtime's
/// home turf), `seeds` generated fault programs, and half as many
/// call-heavy ones.
fn corpus(seeds: u64) -> Vec<(String, Module)> {
    let mut programs: Vec<(String, Module)> = micro::all_micro()
        .into_iter()
        .map(|(name, m)| (name.to_string(), m))
        .collect();
    programs.push((
        "probe_null_seeded_loop".to_string(),
        build_module(&[Action::NullSeededLoop(4, 2, vec![Action::Observe(0)])]),
    ));
    for seed in 0..seeds {
        let mut rng = Rng::new(seed);
        let len = rng.range(1, 14);
        let actions = gen_fault_actions(&mut rng, len, 2);
        programs.push((format!("seed-{seed}"), build_module(&actions)));
    }
    // Call-heavy programs give the tier compiles real interprocedural
    // facts, so mid-run swaps install bodies optimized under entry
    // assumptions — the case the adaptive/steady diff must not notice.
    for seed in 0..seeds.div_ceil(2) {
        let mut rng = Rng::new(seed ^ 0xca11);
        let len = rng.range(1, 10);
        let actions = gen_call_actions(&mut rng, len, 2);
        programs.push((format!("call-{seed}"), build_call_module(&actions)));
    }
    programs
}

/// Cross-checks the inferred facts of one program against its dynamic
/// behavior: the fact-assertion module must agree with the raw module on
/// every observable channel, and the added checks must not surface any
/// silent null read the raw run did not have. One line per violated
/// fact.
fn oracle_check(name: &str, module: &Module, platform: Platform, out: &mut Vec<String>) {
    let asm = njc_interproc::infer(module);
    if asm.is_empty() {
        return;
    }
    let checked = njc_interproc::assertion_module(module, &asm);
    let cell = format!("{name}/interproc-oracle");
    let raw = run_module(module, platform, "main", &[]);
    let assert_run = run_module(&checked, platform, "main", &[]);
    // A faulting program is fine (the fault corpus faults by design) —
    // but both runs must fault identically.
    let Some((raw, assert_run)) = both_completed(&cell, &raw, &assert_run, out) else {
        return;
    };
    diff_outcomes(&cell, raw, assert_run, out);
    if raw.stats.silent_null_reads != assert_run.stats.silent_null_reads {
        out.push(format!(
            "{cell}: silent null reads moved: {} -> {}",
            raw.stats.silent_null_reads, assert_run.stats.silent_null_reads
        ));
    }
}

/// The two outcomes when both runs completed. Otherwise pushes one line
/// unless both faulted with the same [`fault_label`].
fn both_completed<'a, A, B>(
    cell: &str,
    reference: &'a Result<A, Fault>,
    got: &'a Result<B, Fault>,
    out: &mut Vec<String>,
) -> Option<(&'a A, &'a B)> {
    match (reference, got) {
        (Ok(r), Ok(g)) => return Some((r, g)),
        (Err(r), Err(g)) if fault_label(r) == fault_label(g) => {}
        (Err(r), Err(g)) => out.push(format!(
            "{cell}: fault {} vs fault {}",
            fault_label(r),
            fault_label(g)
        )),
        (Err(r), Ok(_)) => out.push(format!(
            "{cell}: reference faults ({}) but the run completes",
            fault_label(r)
        )),
        (Ok(_), Err(g)) => out.push(format!(
            "{cell}: reference completes but the run faults ({})",
            fault_label(g)
        )),
    }
    None
}

/// Compares `got` against `reference` on every [`Observation`] channel,
/// pushing one line per channel that differs.
fn diff_outcomes(cell: &str, reference: &Outcome, got: &Outcome, out: &mut Vec<String>) {
    let (r, g) = (Observation::from(reference), Observation::from(got));
    out.extend(r.diff(&g).into_iter().map(|(_, d)| format!("{cell}: {d}")));
}

/// Runs one program through the tiered runtime under `config` and diffs
/// every channel (plus reconciliation and convergence) against the
/// single-shot reference. `label` names the cell — the bare runtime or
/// one of the fault-injection variants.
fn run_tiered_cell(
    name: &str,
    label: &str,
    module: &Module,
    platform: Platform,
    config: RuntimeConfig,
    reference: &Result<Outcome, Fault>,
    report: &mut RuntimeDiffReport,
) {
    let tiered = catch_unwind(AssertUnwindSafe(|| {
        TieredRuntime::with_config(module.clone(), platform, config).run("main", &[])
    }));
    let tiered = match tiered {
        Ok(r) => r,
        Err(_) => {
            report
                .divergences
                .push(format!("{name}/{label}: tiered runtime PANICKED"));
            return;
        }
    };
    let cell = format!("{name}/{label}");
    let Some((reference, out)) = both_completed(&cell, reference, &tiered, &mut report.divergences)
    else {
        report.cells += 1;
        return;
    };
    report.cells += 2;
    diff_outcomes(
        &format!("{cell}-adaptive"),
        reference,
        &out.adaptive,
        &mut report.divergences,
    );
    diff_outcomes(
        &format!("{cell}-steady"),
        reference,
        &out.steady,
        &mut report.divergences,
    );
    if let Err(mut fails) = out.reconcile() {
        report
            .divergences
            .extend(fails.drain(..).map(|f| format!("{cell}-reconcile: {f}")));
    }
    if let Err(mut fails) = out.verify_convergence() {
        report
            .divergences
            .extend(fails.drain(..).map(|f| format!("{cell}-convergence: {f}")));
    }
}

/// Runs one program as two tenants of a shared [`ServiceRuntime`] and
/// requires every tenant's adaptive and steady runs to match the
/// single-tenant reference — the multi-tenant pipeline must be just as
/// observationally invisible as the private one.
fn run_service_cell(
    name: &str,
    module: &Module,
    platform: Platform,
    reference: &Result<Outcome, Fault>,
    report: &mut RuntimeDiffReport,
) {
    let mut config = njc_runtime::ServiceConfig::for_platform(&platform);
    config.runtime.interproc = true;
    let specs: Vec<TenantSpec> = (0..2)
        .map(|i| TenantSpec {
            name: format!("{name}#{i}"),
            module: module.clone(),
            entry: "main".to_string(),
            args: Vec::new(),
            recovery: njc_runtime::RecoveryPolicy::abort(),
        })
        .collect();
    let service = catch_unwind(AssertUnwindSafe(|| {
        ServiceRuntime::with_config(platform, config).run(&specs)
    }));
    let service = match service {
        Ok(r) => r,
        Err(_) => {
            report
                .divergences
                .push(format!("{name}/service: service runtime PANICKED"));
            return;
        }
    };
    let cell = format!("{name}/service");
    let Some((reference, out)) =
        both_completed(&cell, reference, &service, &mut report.divergences)
    else {
        report.cells += 1;
        return;
    };
    for t in &out.tenants {
        report.cells += 2;
        for (run, got) in [
            ("service-adaptive", &t.outcome.adaptive),
            ("service-steady", &t.outcome.steady),
        ] {
            diff_outcomes(
                &format!("{}/{run}", t.name),
                reference,
                got,
                &mut report.divergences,
            );
        }
    }
    if let Err(fails) = out.verify() {
        report
            .divergences
            .extend(fails.into_iter().map(|f| format!("{cell}: {f}")));
    }
}

/// Replays the corpus (`seeds` generated fault programs, plus the fixed
/// programs) through the tiered runtime and diffs against the
/// single-shot tier-1 compile: the bare runtime, three fault-injected
/// variants of the profile/install channel (stale snapshots, a starved
/// controller, delayed installs), and a two-tenant shared-service run.
/// None of them may change what any program computes.
pub fn run_runtime_difftest(seeds: u64) -> RuntimeDiffReport {
    let platform = Platform::windows_ia32();
    let mut report = RuntimeDiffReport::default();
    for (name, module) in corpus(seeds) {
        report.programs += 1;
        // Facts-vs-dynamics cross-check, independent of the runtime: every
        // inferred fact must survive the program's real run.
        report.cells += 1;
        oracle_check(&name, &module, platform, &mut report.divergences);
        // Reference: single-shot compile at the runtime's tier-1 config,
        // *without* the inference — the adaptive runtime (which runs it in
        // every tier) must still be observationally identical.
        let reference = {
            let mut m = module.clone();
            njc_opt::optimize_module(&mut m, &platform, &ConfigKind::Full.to_config(&platform));
            run_module(&m, platform, "main", &[])
        };
        if reference.is_err() {
            report.faulting_programs += 1;
        }
        let rt_config = RuntimeConfig {
            interproc: true,
            gvn: true,
            ..RuntimeConfig::for_platform(&platform)
        };
        run_tiered_cell(
            &name,
            "tiered",
            &module,
            platform,
            rt_config,
            &reference,
            &mut report,
        );
        // Fault injection on the profile/install channel. Each knob makes
        // the adaptive machinery *worse at its job* — profiles go stale,
        // the controller starves, finished artifacts sit unpublished — and
        // the only acceptable consequence is different timing, never
        // different behavior.
        let faults: [(&str, RuntimeConfig); 3] = [
            (
                "stale-snapshots",
                RuntimeConfig {
                    snapshot_interval: 1 << 40,
                    ..rt_config
                },
            ),
            (
                "starved-controller",
                RuntimeConfig {
                    controller_poll_micros: 50_000,
                    ..rt_config
                },
            ),
            (
                "delayed-installs",
                RuntimeConfig {
                    install_delay_micros: 2_000,
                    ..rt_config
                },
            ),
        ];
        for (label, config) in faults {
            run_tiered_cell(
                &name,
                label,
                &module,
                platform,
                config,
                &reference,
                &mut report,
            );
        }
        run_service_cell(&name, &module, platform, &reference, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_corpus_is_clean() {
        let report = run_runtime_difftest(8);
        assert!(report.programs > 10, "micros + probe + seeds");
        assert!(
            report.is_clean(),
            "tiered runtime diverged:\n{}",
            report.divergences.join("\n")
        );
    }
}
