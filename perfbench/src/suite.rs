//! `suite_exec`: the paper's 17 programs compiled to verified bytes and
//! run on the VM and on the byte machine, on IA32 and AIX.

use njc_arch::Platform;
use njc_codegen::{MachineFault, MachineOutcome};
use njc_emit::ByteMachine;
use njc_ir::Module;
use njc_opt::{ConfigKind, OptConfig};
use njc_vm::{Fault, Outcome, Vm};
use njc_workloads::gen::Rng;

use crate::pipeline::{self, Compiled};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{
    bytes_match_vm, ratio, shuffle, Measured, Metrics, Tally, Workload, THREADS,
};

pub struct Input {
    pub name: String,
    pub platform: Platform,
    pub config: OptConfig,
    pub module: Module,
    /// The unoptimized module's VM outcome on the same platform.
    pub reference: Outcome,
}

pub struct SuiteExec {
    pub inputs: Vec<Input>,
}

pub struct Out {
    compiled: Compiled,
    vm: Result<Outcome, Fault>,
    bytes: Result<MachineOutcome, MachineFault>,
}

/// The two legs: IA32 under `Full` (almost every check implicit) and AIX
/// under `Speculation`, the paper's best AIX configuration (writes trap,
/// reads do not, so checks stay explicit and reads are speculated).
pub fn legs() -> [(Platform, ConfigKind); 2] {
    [
        (Platform::windows_ia32(), ConfigKind::Full),
        (Platform::aix_ppc(), ConfigKind::AixSpeculation),
    ]
}

impl SuiteExec {
    /// Builds every (program, platform) input and its reference run, in
    /// a seeded order.
    ///
    /// # Errors
    /// A reference run that faulted.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let programs = njc_workloads::all()
            .into_iter()
            .map(|w| (w.name.to_string(), w.module));
        Self::build(seed, programs.collect())
    }

    /// [`SuiteExec::setup`] over any programs whose entry is a
    /// no-argument `main`.
    ///
    /// # Errors
    /// A reference run that faulted.
    pub fn build(seed: u64, programs: Vec<(String, Module)>) -> Result<Self, String> {
        let mut inputs = Vec::new();
        for (platform, kind) in legs() {
            for (name, module) in &programs {
                let reference = Vm::new(module, platform)
                    .run("main", &[])
                    .map_err(|f| format!("{name} reference run on {}: {f:?}", platform.name))?;
                inputs.push(Input {
                    name: format!("{name}/{}", platform.name),
                    platform,
                    config: OptConfig {
                        threads: THREADS,
                        ..kind.to_config(&platform)
                    },
                    module: module.clone(),
                    reference,
                });
            }
        }
        shuffle(&mut inputs, &mut Rng::new(seed));
        Ok(SuiteExec { inputs })
    }
}

impl Workload for SuiteExec {
    type Out = Out;

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn name(&self, i: usize) -> String {
        self.inputs[i].name.clone()
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Out {
        let input = &self.inputs[i];
        let platform = input.platform;
        let compiled = tr.span("compile", |tr| {
            pipeline::compile(input.module.clone(), &platform, &input.config, tr)
        });
        let vm = tr.span("vm.run", |_| {
            Vm::new(&compiled.module, platform).run("main", &[])
        });
        let bytes = tr.span("emit.bytes_run", |_| {
            ByteMachine::new(&compiled.emitted, platform).run("main")
        });
        Out {
            compiled,
            vm,
            bytes,
        }
    }

    fn check(&self, i: usize, out: &Out) -> Result<Tally, String> {
        let input = &self.inputs[i];
        let mut tally = Tally::default();
        pipeline::check(&out.compiled, &mut tally)?;
        let vm = out.vm.as_ref().map_err(|f| format!("VM fault: {f:?}"))?;
        vm.assert_equivalent(&input.reference)
            .map_err(|e| format!("optimized VM run vs unoptimized reference: {e}"))?;
        if vm.stats.missed_npes != 0 {
            return Err(format!(
                "{} missed NullPointerExceptions",
                vm.stats.missed_npes
            ));
        }
        let bytes = out
            .bytes
            .as_ref()
            .map_err(|f| format!("byte machine fault: {f:?}"))?;
        bytes_match_vm(vm, bytes).map_err(|e| format!("byte machine vs VM: {e}"))?;
        tally.det("modeled_cycles", vm.stats.cycles);
        tally.det("vm.insts", vm.stats.insts);
        tally.det("vm.traps", vm.stats.traps_taken);
        tally.det("vm.explicit_checks", vm.stats.explicit_null_checks);
        tally.det("emit.bytes_insts", bytes.stats.insts);
        Ok(tally)
    }

    fn layer_metrics(&self, m: &Measured<'_>) -> Metrics {
        let mut out = Metrics::new();
        pipeline::layer_metrics(m, &mut out);
        let tr = m.tracer;
        let vm_ms = tr.durations_ms("vm.run");
        let bytes_ms = tr.durations_ms("emit.bytes_run");
        let vm_insts = m.total.get_det("vm.insts") as f64;
        let bytes_insts = m.total.get_det("emit.bytes_insts") as f64;
        let minsts_per_s = |insts: f64, ms: f64| ratio(insts / 1e6, ms / 1e3);
        out.insert("exec_ms_p50", stats::median(&vm_ms));
        out.insert(
            "exec_ms_p90",
            stats::percentile(&vm_ms, 90.0).unwrap_or(0.0),
        );
        out.insert("vm.run_ms", stats::mean(&vm_ms));
        out.insert(
            "vm.minsts_per_s",
            minsts_per_s(vm_insts, vm_ms.iter().sum()),
        );
        out.insert(
            "vm_minsts_per_s",
            minsts_per_s(vm_insts, m.op_ms.iter().sum()),
        );
        out.insert("emit.bytes_run_ms", stats::mean(&bytes_ms));
        out.insert(
            "emit.bytes_minsts_per_s",
            minsts_per_s(bytes_insts, bytes_ms.iter().sum()),
        );
        for key in ["vm.insts", "vm.traps", "vm.explicit_checks"] {
            out.insert(key, m.round.get_det(key) as f64);
        }
        out.insert(
            "modeled_mcycles",
            m.round.get_det("modeled_cycles") as f64 / 1e6,
        );
        out
    }
}
