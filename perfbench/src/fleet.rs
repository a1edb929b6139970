//! `service_fleet`: one fixed mixed fleet of the adaptive programs
//! through `ServiceRuntime::run` — the recompile queue, the sharded
//! cache's cross-tenant dedup, and per-tenant recovery dispatch. Every
//! op starts a fresh service, so every fleet compiles from a cold cache.

use njc_arch::Platform;
use njc_recover::{RecoveryPolicy, RecoveryStrategy};
use njc_runtime::{
    RuntimeOutcome, ServiceConfig, ServiceOutcome, ServiceRuntime, TenantSpec, TieredRuntime,
};
use njc_vm::Fault;
use njc_workloads::gen::Rng;

use crate::stats;
use crate::tiered::{check_outcome, programs, runtime_config};
use crate::trace::Tracer;
use crate::workload::{ratio, shuffle, Measured, Metrics, Tally, Workload, THREADS};

/// Iteration counts are divided by this for fleet tenants, so one fleet
/// stays a fraction of a second.
pub const FLEET_SCALE: i64 = 2;

/// Tenants stamped from every program: one under `Abort`, one under a
/// uniform `Strict` recovery policy.
const POLICIES: [RecoveryStrategy; 2] = [RecoveryStrategy::Abort, RecoveryStrategy::Strict];

/// A tenant's references.
pub struct Reference {
    /// The same program and policy run alone through `TieredRuntime`.
    pub single: RuntimeOutcome,
    /// The unoptimized module's plain VM outcome.
    pub plain: njc_vm::Outcome,
}

pub struct ServiceFleet {
    pub platform: Platform,
    /// The fleet, in submission order.
    pub specs: Vec<TenantSpec>,
    /// `specs[i]`'s references.
    pub references: Vec<Reference>,
}

/// Service shape under the load rule: one compile worker and one
/// carrier, single-threaded tier compiles.
pub fn service_config(platform: &Platform) -> ServiceConfig {
    ServiceConfig {
        workers: THREADS,
        carriers: THREADS,
        runtime: runtime_config(platform),
        ..ServiceConfig::for_platform(platform)
    }
}

impl ServiceFleet {
    /// Stamps the fleet from the IA32 programs (iteration counts divided
    /// by `scale`), runs each tenant's
    /// single-tenant reference, and orders the fleet by the seed.
    ///
    /// # Errors
    /// A reference run that faulted.
    pub fn setup(seed: u64, scale: i64) -> Result<Self, String> {
        let platform = Platform::windows_ia32();
        let mut tenants = Vec::new();
        for p in programs(scale)
            .into_iter()
            .filter(|p| p.platform == platform)
        {
            let plain = njc_vm::Vm::new(&p.module, platform)
                .run("main", &p.args)
                .map_err(|f| format!("{} plain reference: {f:?}", p.name))?;
            for strategy in POLICIES {
                let recovery = RecoveryPolicy::uniform(strategy);
                let single = TieredRuntime::with_config(
                    p.module.clone(),
                    platform,
                    runtime_config(&platform),
                )
                .with_recovery(recovery.clone())
                .run("main", &p.args)
                .map_err(|f| format!("{} single-tenant reference: {f:?}", p.name))?;
                tenants.push((
                    TenantSpec {
                        name: format!("{}+{}", p.name, strategy.as_str()),
                        module: p.module.clone(),
                        entry: "main".to_string(),
                        args: p.args.clone(),
                        recovery,
                    },
                    Reference {
                        single,
                        plain: plain.clone(),
                    },
                ));
            }
        }
        shuffle(&mut tenants, &mut Rng::new(seed));
        let (specs, references) = tenants.into_iter().unzip();
        Ok(ServiceFleet {
            platform,
            specs,
            references,
        })
    }
}

impl Workload for ServiceFleet {
    type Out = Result<ServiceOutcome, Fault>;

    fn len(&self) -> usize {
        1
    }

    fn name(&self, _i: usize) -> String {
        format!("fleet of {}", self.specs.len())
    }

    fn run(&self, _i: usize, _tr: &mut Tracer) -> Self::Out {
        ServiceRuntime::with_config(self.platform, service_config(&self.platform)).run(&self.specs)
    }

    fn check(&self, _i: usize, out: &Self::Out) -> Result<Tally, String> {
        let out = out.as_ref().map_err(|f| format!("service fault: {f:?}"))?;
        out.verify()
            .map_err(|e| format!("service verify: {}", e.join("; ")))?;
        if out.tenants.len() != self.specs.len() {
            return Err(format!(
                "{} tenant outcomes for {} tenants",
                out.tenants.len(),
                self.specs.len()
            ));
        }
        let mut tally = Tally::default();
        for ((spec, r), got) in self.specs.iter().zip(&self.references).zip(&out.tenants) {
            let name = &spec.name;
            if got.name != *name {
                return Err(format!(
                    "tenant order: {} where {name} was submitted",
                    got.name
                ));
            }
            let o = &got.outcome;
            check_outcome(o, &r.plain).map_err(|e| format!("{name}: {e}"))?;
            if o.steady != r.single.steady
                || o.overrides != r.single.overrides
                || o.final_module != r.single.final_module
            {
                return Err(format!(
                    "{name}: steady state differs from its single-tenant reference"
                ));
            }
            tally.det("modeled_cycles", o.steady.stats.cycles);
        }
        if out.compile_panics != 0 {
            return Err(format!("{} compile jobs panicked", out.compile_panics));
        }
        tally.det("tenants", out.tenants.len() as u64);
        tally.vol("service.compiles_performed", out.compiles_performed as f64);
        tally.vol("service.isolated_compiles", out.isolated_compiles as f64);
        tally.vol("service.cache_hits", out.cache.hits as f64);
        tally.vol(
            "service.cache_lookups",
            (out.cache.hits + out.cache.misses) as f64,
        );
        tally.vol("service.coalesced", out.queue.coalesced as f64);
        tally.vol("service.rejected", out.queue.rejected as f64);
        tally.vol("service.compile_panics", out.compile_panics as f64);
        tally.vol("recover.recoveries", out.recoveries.total() as f64);
        for &us in &out.latencies_us {
            tally.sample("service.queue_wait_us", us as f64);
        }
        Ok(tally)
    }

    fn layer_metrics(&self, m: &Measured<'_>) -> Metrics {
        let ops = m.ops.max(1) as f64;
        let mut out = Metrics::new();
        let waits = m.total.get_samples("service.queue_wait_us");
        out.insert("service.queue_wait_us_p50", stats::median(waits));
        out.insert(
            "service.queue_wait_us_p99",
            stats::percentile(waits, 99.0).unwrap_or(0.0),
        );
        out.insert(
            "service.dedup_ratio",
            ratio(
                m.total.get_vol("service.compiles_performed"),
                m.total.get_vol("service.isolated_compiles"),
            ),
        );
        out.insert(
            "service.cache_hit_ratio",
            ratio(
                m.total.get_vol("service.cache_hits"),
                m.total.get_vol("service.cache_lookups"),
            ),
        );
        for key in [
            "service.coalesced",
            "service.rejected",
            "service.compile_panics",
            "recover.recoveries",
        ] {
            out.insert(key, m.total.get_vol(key) / ops);
        }
        out.insert(
            "tenants_per_s",
            ratio(
                m.total.get_det("tenants") as f64,
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
