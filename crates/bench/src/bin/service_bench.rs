//! Multi-tenant throughput benchmark for the compilation service.
//!
//! Sweeps tenant counts (default 64 and 256) and both trap-model
//! platforms (IA32/Windows traps reads and writes; PowerPC/AIX traps
//! writes only) over a mixed workload fleet — steady hot-field tenants,
//! phase-shifting null rates (alternating, one-shot burst, clean),
//! many distinct hot functions contending for a small cache, and deep
//! call chains — all sharing one sharded code cache and one batched
//! recompile queue. Results go to `BENCH_service.json`.
//!
//! Every sweep runs the service exactly as `njc service` does
//! ([`ServiceConfig::for_platform`]). Reported per sweep:
//!
//! * **deterministic rows** — per-workload steady-state cycles/iteration,
//!   steady trap counts, and settled override totals. Every tenant of a
//!   workload must settle on the steady state of a single-tenant
//!   [`TieredRuntime`] run of the same workload (checked), so the rows are
//!   byte-reproducible across runs;
//! * **`"volatile"` object** — cache hit rate, dedup hits, fresh vs
//!   isolated compile counts, queue counters and latency p50/p99,
//!   per-shard occupancy, host parallelism. Scheduling-dependent; CI's
//!   determinism comparison deletes it (`jq -c 'del(.. | .volatile?)'`).
//!   Host time is perfbench's (`service_fleet`).
//!
//! Every run is the service's gate, checked before any JSON is written:
//! every tenant reconciles and converges; dedup hits are strictly
//! positive; total fresh compile work is strictly below the per-tenant
//! isolated bill; every tenant's steady state, final module and overrides
//! equal its workload's single-tenant reference; and each workload
//! settles as expected — with overrides where a site traps steadily,
//! without them where it never does, and back without them after a
//! one-shot null burst (tier-down), whose quiesced implicit site still
//! traps in steady state when reads trap.
//!
//! ```text
//! cargo run --release -p njc-bench --bin service_bench
//! cargo run --release -p njc-bench --bin service_bench -- --tenants 16 --out /tmp/bench_svc.json
//! ```
//!
//! [`ServiceConfig::for_platform`]: njc_runtime::ServiceConfig::for_platform

use std::path::PathBuf;

use njc_arch::Platform;
use njc_bench::cli::{Spec, UsageError};
use njc_ir::Module;
use njc_observe::{json_obj, Json};
use njc_runtime::{
    deep_chain_workload, hot_field_workload, many_hot_workload, phase_shift_workload,
    write_hot_workload, RecoveryPolicy, RuntimeOutcome, ServiceOutcome, ServiceRuntime, TenantSpec,
    TieredRuntime, PHASE_ALTERNATE, PHASE_CLEAN, PHASE_NULL,
};
use njc_vm::Value;

const SPEC: Spec = Spec {
    usage: "usage: service_bench [--tenants N[,N...]] [--out PATH]",
    switches: &[],
    options: &["--tenants", "--out"],
    positionals: 0,
};

struct Args {
    tenants: Vec<usize>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, UsageError> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    let tenants = args.parsed("--tenants", |v| {
        v.split(',')
            .map(|s| s.trim().parse().ok().filter(|&n: &usize| n > 0))
            .collect()
    })?;
    Ok(Args {
        tenants: tenants.unwrap_or_else(|| vec![64, 256]),
        out: args.out().unwrap_or_else(|| "BENCH_service.json".into()),
    })
}

/// How the adaptive loop must settle a workload's overrides.
#[derive(Clone, Copy, PartialEq)]
enum Settles {
    /// With at least one override: a site traps steadily.
    Override,
    /// With none: no site traps often enough to pay for one.
    Implicit,
    /// With none after a one-shot null burst stops (tier-down); on a
    /// read-trapping platform the quiesced implicit site still traps when
    /// the steady run replays the burst.
    TierDown,
}

/// One workload template tenants are stamped from.
struct WorkloadSpec {
    name: &'static str,
    module: Module,
    iters: i64,
    args: Vec<Value>,
    settles: Settles,
}

/// The fleet mix for one platform. AIX (writes-only traps) leads with the
/// write-trapping workload; the read workloads still run there as the
/// no-trap contrast, their read checks explicit by trap-model legality.
/// The burst workload runs one 16-iteration null phase then clean —
/// long enough past the cumulative break-even (16/12000 < 2/1200) that
/// tier-down must strip its override back off.
fn workload_set(platform: &Platform) -> Vec<WorkloadSpec> {
    use Settles::{Implicit, Override, TierDown};
    let spec = |name, module, iters, mode: Option<i64>, settles| {
        let mut args = vec![Value::Int(iters), Value::Ref(0)];
        args.extend(mode.map(Value::Int));
        WorkloadSpec {
            name,
            module,
            iters,
            args,
            settles,
        }
    };
    let phase = || phase_shift_workload(16);
    if !platform.trap.traps_on_read {
        vec![
            spec("write_hot", write_hot_workload(), 20_000, None, Override),
            spec("hot_field", hot_field_workload(), 8_000, None, Implicit),
            spec(
                "phase_null_burst",
                phase(),
                12_000,
                Some(PHASE_NULL),
                TierDown,
            ),
        ]
    } else {
        vec![
            spec("hot_field", hot_field_workload(), 10_000, None, Override),
            spec(
                "phase_alternating",
                phase(),
                8_000,
                Some(PHASE_ALTERNATE),
                Override,
            ),
            spec(
                "phase_null_burst",
                phase(),
                12_000,
                Some(PHASE_NULL),
                TierDown,
            ),
            spec("phase_clean", phase(), 8_000, Some(PHASE_CLEAN), Implicit),
            spec(
                "many_hot_small_cache",
                many_hot_workload(6),
                4_000,
                None,
                Override,
            ),
            spec(
                "deep_call_chain",
                deep_chain_workload(4),
                4_000,
                None,
                Override,
            ),
        ]
    }
}

/// Each workload's single-tenant [`TieredRuntime`] run on `platform`, the
/// reference every sweep's tenants of that workload must match. `None`
/// (with a failure pushed) when the reference faulted.
fn reference_runs(
    platform: Platform,
    workloads: &[WorkloadSpec],
    failures: &mut Vec<String>,
) -> Vec<Option<RuntimeOutcome>> {
    workloads
        .iter()
        .map(|w| {
            TieredRuntime::new(w.module.clone(), platform)
                .run("main", &w.args)
                .map_err(|f| {
                    failures.push(format!(
                        "{}/{}: reference faulted: {f}",
                        platform.name, w.name
                    ))
                })
                .ok()
        })
        .collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One sweep cell: `n` tenants stamped round-robin from the platform's
/// workload set, one shared service, checked against the workloads'
/// `references`. Returns the sweep's JSON (`None` when the service
/// faulted), with the host's parallelism under its volatile key, and
/// pushes gate violations.
fn run_sweep(
    platform: Platform,
    workloads: &[WorkloadSpec],
    references: &[Option<RuntimeOutcome>],
    n: usize,
    host_parallelism: usize,
    failures: &mut Vec<String>,
) -> Option<Json> {
    let ctx = format!("{}/{n}-tenants", platform.name);
    let specs: Vec<TenantSpec> = (0..n)
        .map(|i| {
            let w = &workloads[i % workloads.len()];
            TenantSpec {
                name: format!("{}-{i}", w.name),
                module: w.module.clone(),
                entry: "main".to_string(),
                args: w.args.clone(),
                recovery: RecoveryPolicy::abort(),
            }
        })
        .collect();

    let out: ServiceOutcome = match ServiceRuntime::new(platform).run(&specs) {
        Ok(out) => out,
        Err(f) => {
            failures.push(format!("{ctx}: service faulted: {f:?}"));
            return None;
        }
    };

    // Gates.
    if let Err(errs) = out.verify() {
        failures.extend(errs.into_iter().take(8).map(|e| format!("{ctx}: {e}")));
    }
    if out.dedup_hits == 0 {
        failures.push(format!("{ctx}: no dedup hits across {n} tenants"));
    }
    if out.compiles_performed >= out.isolated_compiles {
        failures.push(format!(
            "{ctx}: shared cache did not beat isolation: {} fresh compiles !< {} isolated",
            out.compiles_performed, out.isolated_compiles
        ));
    }

    // Per-workload rows: every tenant of a workload must land on the
    // steady state of a single-tenant run of the same workload — the
    // deterministic half of the report.
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let members: Vec<usize> = (0..n).filter(|i| i % workloads.len() == wi).collect();
        if members.is_empty() {
            continue;
        }
        let Some(reference) = &references[wi] else {
            continue;
        };
        if let Some(t) = members.iter().map(|&i| &out.tenants[i]).find(|t| {
            t.outcome.steady.stats != reference.steady.stats
                || t.outcome.final_module != reference.final_module
                || t.outcome.overrides != reference.overrides
        }) {
            failures.push(format!(
                "{ctx}: tenant {} diverged from the single-tenant reference",
                t.name
            ));
        }
        let steady = reference.steady.stats;
        let override_slots: usize = reference.overrides.values().map(|ov| ov.len()).sum();
        match w.settles {
            Settles::Override if override_slots == 0 => failures.push(format!(
                "{ctx}/{}: expected a settled override, got none",
                w.name
            )),
            Settles::Implicit | Settles::TierDown if override_slots != 0 => {
                failures.push(format!(
                    "{ctx}/{}: {override_slots} override slot(s) survived, expected none",
                    w.name
                ));
            }
            _ => {}
        }
        if w.settles == Settles::TierDown && platform.trap.traps_on_read && steady.traps_taken == 0
        {
            failures.push(format!(
                "{ctx}/{}: the burst replay should still trap in steady state",
                w.name
            ));
        }
        rows.push(json_obj! {
            "workload": w.name, "tenants": members.len(), "iters": w.iters,
            "cycles_per_iter": Json::Fixed(steady.cycles as f64 / w.iters as f64, 4),
            "steady_traps": steady.traps_taken,
            "steady_explicit_checks": steady.explicit_null_checks,
            "override_slots": override_slots,
        });
    }

    let hit_rate = {
        let total = out.cache.hits + out.cache.misses;
        if total == 0 {
            0.0
        } else {
            out.cache.hits as f64 / total as f64
        }
    };
    let mut lat = out.latencies_us.clone();
    lat.sort_unstable();
    println!(
        "{ctx}: {} workloads, {} fresh compiles vs {} isolated, {} dedup hits, cache hit rate {:.2}, queue p50/p99 {}/{} us",
        workloads.len(),
        out.compiles_performed,
        out.isolated_compiles,
        out.dedup_hits,
        hit_rate,
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
    );

    let checks = json_obj! {
        "all_tenants_verified": true, "dedup_hits_gt_zero": true,
        "shared_compiles_lt_isolated": true, "uniform_steady_within_workload": true,
    };
    let queue = Json::from(&out.queue)
        .with("latency_us_p50", percentile(&lat, 0.50))
        .with("latency_us_p99", percentile(&lat, 0.99));
    let occupancy = Json::array(out.shards.iter().map(|s| s.occupancy));
    let sweep = json_obj! {
        "platform": platform.name, "tenants": n, "rows": Json::Array(rows), "checks": checks,
    };
    Some(sweep.volatile(json_obj! {
        "cache_hit_rate": Json::Fixed(hit_rate, 4),
        "cache": &out.cache, "dedup_hits": out.dedup_hits,
        "compiles_performed": out.compiles_performed, "isolated_compiles": out.isolated_compiles,
        "queue": queue, "shard_occupancy": occupancy, "host_parallelism": host_parallelism,
    }))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    let mut failures = Vec::new();
    let mut sweeps = Vec::new();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    for platform in [Platform::windows_ia32(), Platform::aix_ppc()] {
        let workloads = workload_set(&platform);
        let references = reference_runs(platform, &workloads, &mut failures);
        for &n in &args.tenants {
            sweeps.extend(run_sweep(
                platform,
                &workloads,
                &references,
                n,
                host_parallelism,
                &mut failures,
            ));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    let json = json_obj! {
        "generated_by": "service_bench",
        "note": "rows are deterministic cost-model results (reproducible); scheduling data \
                 (cache and queue traffic, queue latency) and the host's parallelism live under \
                 each sweep's volatile key, which the CI determinism comparison deletes; host \
                 time per layer is perfbench's",
        "sweeps": Json::Array(sweeps),
    }
    .report();
    std::fs::write(&args.out, json).expect("write BENCH_service.json");
    println!("wrote {}", args.out.display());
}
