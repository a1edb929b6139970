//! Benchmark of workload execution per configuration — the runtime shape
//! behind Tables 1–2: the fully optimized program must beat the baselines
//! on the array kernels.
//!
//! Plain manual-timing harness (`harness = false`): the workspace builds
//! offline and cannot depend on criterion. Run with
//! `cargo bench --bench runtime`.

use njc_arch::Platform;
use njc_bench::harness::measure;
use njc_jit::{compile, execute};
use njc_opt::ConfigKind;

fn run_configs() {
    let p = Platform::windows_ia32();
    for name in ["Assignment", "LU Decomposition", "Fourier"] {
        let w = njc_workloads::jbytemark()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        for kind in [
            ConfigKind::Full,
            ConfigKind::OldNullCheck,
            ConfigKind::NoNullOptNoTrap,
        ] {
            let compiled = compile(&w, &p, kind);
            measure(&format!("run/{name}/{kind:?}"), 1, 10, || {
                execute(&compiled, &p).unwrap().stats.cycles
            });
        }
    }
}

fn main() {
    run_configs();
}
