//! Benchmark of the optimizer itself — the compile-time shape behind
//! Tables 3–5: the two-phase null check optimization (NEW) versus the
//! Whaley baseline (OLD), per pass and end-to-end.
//!
//! Plain manual-timing harness (`harness = false`): the workspace builds
//! offline and cannot depend on criterion. Run with
//! `cargo bench --bench compile_time`.

use njc_arch::{Platform, TrapModel};
use njc_bench::harness::measure;
use njc_core::ctx::AnalysisCtx;
use njc_core::{phase1, phase2, whaley};
use njc_opt::ConfigKind;

fn pipeline_configs() {
    let p = Platform::windows_ia32();
    // javac is the paper's slowest-to-compile benchmark.
    let w = njc_workloads::specjvm98()
        .into_iter()
        .find(|w| w.name == "javac")
        .unwrap();
    for kind in [
        ConfigKind::Full,
        ConfigKind::Phase1Only,
        ConfigKind::OldNullCheck,
        ConfigKind::NoNullOptNoTrap,
    ] {
        measure(&format!("pipeline/javac/{kind:?}"), 2, 20, || {
            let mut m = w.module.clone();
            njc_opt::optimize_module(&mut m, &p, &kind.to_config(&p));
            m
        });
    }
}

fn nullcheck_passes() {
    // The NEW (two-phase) vs OLD (forward-only) pass cost on one method —
    // the paper's Table 4 observation: NEW ≈ 3× OLD, both small.
    let w = njc_workloads::jbytemark()
        .into_iter()
        .find(|w| w.name == "Assignment")
        .unwrap();
    let main_id = w.module.function_by_name("main").unwrap();
    measure("nullcheck-pass/new-two-phase", 5, 200, || {
        let mut f = w.module.function(main_id).clone();
        let ctx = AnalysisCtx::new(&w.module, TrapModel::windows_ia32());
        let s1 = phase1::run(&ctx, &mut f);
        let s2 = phase2::run(&ctx, &mut f);
        (s1, s2)
    });
    measure("nullcheck-pass/old-whaley", 5, 200, || {
        let mut f = w.module.function(main_id).clone();
        whaley::run(&mut f)
    });
}

fn main() {
    pipeline_configs();
    nullcheck_passes();
}
