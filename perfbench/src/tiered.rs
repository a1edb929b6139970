//! `tiered_hot`: the runtime's null-seeded programs through
//! `TieredRuntime::run` — tier-0 compile, a profiled VM run with
//! background recompiles and mid-run swaps, the post-run fixpoint, and a
//! steady-state run.
//!
//! The traced run also calls the parts of one tiered run separately
//! (tier-0 compile, profiled tier-0 run, recompile of every overridden
//! function, steady run of the final module) so the op's time splits
//! into named parts plus `runtime.unexplained_ms`.

use njc_arch::Platform;
use njc_ir::Module;
use njc_opt::{
    optimize_function_overridden, optimize_module_traced, prepare_module, ConfigKind, OptConfig,
};
use njc_runtime::{
    deep_chain_workload, hot_field_workload, many_hot_workload, phase_shift_workload,
    write_hot_workload, RuntimeConfig, RuntimeHooks, RuntimeOutcome, TieredRuntime,
    PHASE_ALTERNATE, PHASE_CLEAN, PHASE_NULL,
};
use njc_vm::{Fault, Outcome, Value, Vm, VmConfig};
use njc_workloads::gen::Rng;

use crate::trace::Tracer;
use crate::workload::{ratio, shuffle, Measured, Metrics, Tally, Workload, THREADS};

/// One null-seeded program with its entry arguments.
pub struct Program {
    pub name: String,
    pub platform: Platform,
    pub module: Module,
    pub args: Vec<Value>,
}

fn program(
    name: &str,
    platform: Platform,
    module: Module,
    iters: i64,
    mode: Option<i64>,
) -> Program {
    let mut args = vec![Value::Int(iters), Value::Ref(0)];
    args.extend(mode.map(Value::Int));
    Program {
        name: format!("{name}/{}", platform.name),
        platform,
        module,
        args,
    }
}

/// The adaptive programs: on IA32 `hot_field`, `phase_shift` in all
/// three modes, `many_hot(6)` and `deep_chain(4)`; on AIX, where only
/// writes trap, `write_hot` and `hot_field`. `scale` divides every
/// iteration count.
pub fn programs(scale: i64) -> Vec<Program> {
    let ia32 = Platform::windows_ia32();
    let aix = Platform::aix_ppc();
    let n = |iters: i64| (iters / scale).max(1);
    vec![
        program("hot_field", ia32, hot_field_workload(), n(10_000), None),
        program(
            "phase_null",
            ia32,
            phase_shift_workload(16),
            n(12_000),
            Some(PHASE_NULL),
        ),
        program(
            "phase_alternate",
            ia32,
            phase_shift_workload(16),
            n(8_000),
            Some(PHASE_ALTERNATE),
        ),
        program(
            "phase_clean",
            ia32,
            phase_shift_workload(16),
            n(8_000),
            Some(PHASE_CLEAN),
        ),
        program("many_hot6", ia32, many_hot_workload(6), n(4_000), None),
        program("deep_chain4", ia32, deep_chain_workload(4), n(4_000), None),
        program("write_hot", aix, write_hot_workload(), n(20_000), None),
        program("hot_field", aix, hot_field_workload(), n(10_000), None),
    ]
}

/// Tiering knobs under the load rule: one background compile worker and
/// single-threaded tier compiles.
pub fn runtime_config(platform: &Platform) -> RuntimeConfig {
    RuntimeConfig {
        threads: THREADS,
        ..RuntimeConfig::for_platform(platform)
    }
}

fn tier_config(kind: ConfigKind, platform: &Platform) -> OptConfig {
    OptConfig {
        threads: THREADS,
        ..kind.to_config(platform)
    }
}

pub struct Input {
    pub program: Program,
    /// The unoptimized module's plain VM outcome.
    pub reference: Outcome,
    /// `hot_field` on IA32 only: the program statically compiled at
    /// `Full` (trap-heavy) and at `NoNullOptNoTrap` (check-heavy).
    pub static_pair: Option<(Module, Module)>,
}

pub struct TieredHot {
    pub inputs: Vec<Input>,
}

/// Runs `program`'s entry on `module` with no adaptation.
fn plain_run(module: &Module, p: &Program) -> Result<Outcome, Fault> {
    Vm::new(module, p.platform).run("main", &p.args)
}

impl TieredHot {
    /// Builds the programs, their reference runs and the static pair, in
    /// a seeded order.
    ///
    /// # Errors
    /// A reference run that faulted.
    pub fn setup(seed: u64, scale: i64) -> Result<Self, String> {
        let mut inputs = Vec::new();
        for p in programs(scale) {
            let reference =
                plain_run(&p.module, &p).map_err(|f| format!("{} reference run: {f:?}", p.name))?;
            let static_pair = (p.name.starts_with("hot_field/") && p.platform.trap.traps_on_read)
                .then(|| {
                    let compile = |kind: ConfigKind| {
                        let mut m = p.module.clone();
                        njc_opt::optimize_module(
                            &mut m,
                            &p.platform,
                            &tier_config(kind, &p.platform),
                        );
                        m
                    };
                    (
                        compile(ConfigKind::Full),
                        compile(ConfigKind::NoNullOptNoTrap),
                    )
                });
            inputs.push(Input {
                program: p,
                reference,
                static_pair,
            });
        }
        shuffle(&mut inputs, &mut Rng::new(seed));
        Ok(TieredHot { inputs })
    }
}

/// The checks every tiered outcome must pass: tiered reconciliation,
/// convergence, and adaptive and steady runs observably equal to the
/// unoptimized reference.
///
/// # Errors
/// The first failed check.
pub fn check_outcome(out: &RuntimeOutcome, reference: &Outcome) -> Result<(), String> {
    out.reconcile()
        .map_err(|e| format!("reconcile: {}", e.join("; ")))?;
    out.verify_convergence()
        .map_err(|e| format!("convergence: {}", e.join("; ")))?;
    out.adaptive
        .assert_equivalent(reference)
        .map_err(|e| format!("adaptive run vs reference: {e}"))?;
    out.steady
        .assert_equivalent(reference)
        .map_err(|e| format!("steady run vs reference: {e}"))?;
    if out.compile_panics != 0 {
        return Err(format!("{} compile jobs panicked", out.compile_panics));
    }
    Ok(())
}

impl Workload for TieredHot {
    type Out = Result<RuntimeOutcome, Fault>;

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn name(&self, i: usize) -> String {
        self.inputs[i].program.name.clone()
    }

    fn run(&self, i: usize, _tr: &mut Tracer) -> Self::Out {
        let p = &self.inputs[i].program;
        TieredRuntime::with_config(p.module.clone(), p.platform, runtime_config(&p.platform))
            .run("main", &p.args)
    }

    fn check(&self, i: usize, out: &Self::Out) -> Result<Tally, String> {
        let out = out.as_ref().map_err(|f| format!("runtime fault: {f:?}"))?;
        check_outcome(out, &self.inputs[i].reference)?;
        let mut tally = Tally::default();
        tally.det("modeled_cycles", out.steady.stats.cycles);
        tally.det("runtime.steady_insts", out.steady.stats.insts);
        tally.det(
            "runtime.override_slots",
            out.overrides.values().map(|ov| ov.len() as u64).sum(),
        );
        tally.vol(
            "vm.insts_executed",
            (out.adaptive.stats.insts + out.steady.stats.insts) as f64,
        );
        tally.vol("runtime.recompiles", out.recompiles.len() as f64);
        tally.vol("runtime.mid_run_swaps", out.mid_run_swaps as f64);
        tally.vol("runtime.cache_hits", out.cache.hits as f64);
        tally.vol(
            "runtime.cache_lookups",
            (out.cache.hits + out.cache.misses) as f64,
        );
        Ok(tally)
    }

    fn split(&self, i: usize, out: &Self::Out, tr: &mut Tracer) -> Result<(), String> {
        let Ok(out) = out else { return Ok(()) };
        let input = &self.inputs[i];
        let p = &input.program;
        let platform = p.platform;
        let rc = runtime_config(&platform);
        let cfg0 = tier_config(rc.tier0, &platform);
        let cfg1 = tier_config(rc.tier1, &platform);
        let (tier0, profiled, recompiled, steady) = tr.span("runtime.parts", |tr| {
            let tier0 = tr.span("runtime.tier0_compile", |_| {
                let mut m = p.module.clone();
                optimize_module_traced(&mut m, &platform, &cfg0);
                m
            });
            let hooks = RuntimeHooks::new(rc.snapshot_interval);
            let profiled = tr.span("vm.profiled", |_| {
                Vm::new(&tier0, platform)
                    .with_config(VmConfig {
                        count_sites: true,
                        ..rc.vm
                    })
                    .with_hooks(&hooks)
                    .run("main", &p.args)
            });
            let recompiled = tr.span("runtime.recompile", |_| {
                let mut base = p.module.clone();
                prepare_module(&mut base, &platform, &cfg1);
                let mut bodies = Vec::new();
                for (name, ov) in &out.overrides {
                    let body = base.function_by_name(name).map(|fid| {
                        let mut f = base.function(fid).clone();
                        optimize_function_overridden(
                            &base,
                            &platform,
                            &cfg1,
                            &mut f,
                            Some(ov),
                            true,
                        );
                        f
                    });
                    bodies.push((name, body));
                }
                bodies
            });
            let steady = tr.span("runtime.steady", |_| {
                Vm::new(&out.final_module, platform)
                    .with_config(rc.vm)
                    .run("main", &p.args)
            });
            (tier0, profiled, recompiled, steady)
        });
        let plain = tr.span("vm.plain", |_| plain_run(&tier0, p));
        let reference = &input.reference;
        let equivalent = |label: &str, o: &Result<Outcome, Fault>| -> Result<(), String> {
            o.as_ref()
                .map_err(|f| format!("{label}: fault {f:?}"))?
                .assert_equivalent(reference)
                .map_err(|e| format!("{label} vs reference: {e}"))
        };
        equivalent("profiled tier-0 run", &profiled)?;
        equivalent("plain tier-0 run", &plain)?;
        if steady.as_ref().ok() != Some(&out.steady) {
            return Err("separate steady run differs from the runtime's steady run".into());
        }
        for (name, body) in &recompiled {
            let body = body
                .as_ref()
                .ok_or_else(|| format!("{name}: missing from the prepared module"))?;
            let fid = out
                .final_module
                .function_by_name(name)
                .ok_or_else(|| format!("{name}: missing from the final module"))?;
            if out.final_module.function(fid) != body {
                return Err(format!(
                    "{name}: separate recompile differs from the installed body"
                ));
            }
        }
        if let Some((implicit, explicit)) = &input.static_pair {
            let a = tr.span("vm.implicit_run", |_| plain_run(implicit, p));
            let b = tr.span("vm.explicit_run", |_| plain_run(explicit, p));
            equivalent("Full run", &a)?;
            equivalent("NoNullOptNoTrap run", &b)?;
        }
        Ok(())
    }

    fn layer_metrics(&self, m: &Measured<'_>) -> Metrics {
        let tr = m.tracer;
        let ops = m.ops.max(1) as f64;
        let mut out = Metrics::new();
        let parts = [
            ("runtime.tier0_compile_ms", "runtime.tier0_compile"),
            ("vm.profiled_ms", "vm.profiled"),
            ("runtime.recompile_ms", "runtime.recompile"),
            ("runtime.steady_ms", "runtime.steady"),
        ];
        let mut explained = 0.0;
        for (metric, span) in parts {
            let v = tr.mean_ms(span);
            explained += v;
            out.insert(metric, v);
        }
        out.insert("runtime.unexplained_ms", tr.mean_ms("op") - explained);
        out.insert(
            "vm.profile_overhead",
            ratio(tr.mean_ms("vm.profiled"), tr.mean_ms("vm.plain")),
        );
        out.insert("vm.implicit_run_ms", tr.mean_ms("vm.implicit_run"));
        out.insert("vm.explicit_run_ms", tr.mean_ms("vm.explicit_run"));
        out.insert(
            "runtime.recompiles",
            m.total.get_vol("runtime.recompiles") / ops,
        );
        out.insert(
            "runtime.mid_run_swaps",
            m.total.get_vol("runtime.mid_run_swaps") / ops,
        );
        out.insert(
            "runtime.cache_hit_ratio",
            ratio(
                m.total.get_vol("runtime.cache_hits"),
                m.total.get_vol("runtime.cache_lookups"),
            ),
        );
        out.insert(
            "vm_minsts_per_s",
            ratio(
                m.total.get_vol("vm.insts_executed") / 1e6,
                m.op_ms.iter().sum::<f64>() / 1e3,
            ),
        );
        out.insert(
            "modeled_mcycles",
            m.round.get_det("modeled_cycles") as f64 / 1e6,
        );
        out
    }
}
