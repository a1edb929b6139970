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
//! Reported per sweep:
//!
//! * **deterministic rows** — per-workload steady-state cycles/iteration,
//!   steady trap counts, and settled override totals. Every tenant of the
//!   same workload must settle on the identical steady state (checked),
//!   so they are byte-reproducible across runs;
//! * **`"volatile"` object** — cache hit rate, dedup hits, fresh vs
//!   isolated compile counts, queue counters and latency p50/p99,
//!   per-shard occupancy, wall time, host parallelism. Timing-dependent;
//!   CI's determinism comparison deletes it
//!   (`jq -c 'del(.. | .volatile?)'`).
//!
//! Gated in every mode, before any JSON is written: every tenant
//! reconciles and converges; dedup hits are strictly positive; total
//! fresh compile work is strictly below the per-tenant isolated bill;
//! and same-workload tenants agree byte-for-byte on their steady state.
//!
//! ```text
//! cargo run --release -p njc-bench --bin service_bench            # full run
//! cargo run --release -p njc-bench --bin service_bench -- --smoke # CI gate
//! ```

use std::path::PathBuf;
use std::time::Instant;

use njc_arch::Platform;
use njc_bench::cli::{Spec, UsageError};
use njc_ir::Module;
use njc_observe::{json_obj, Json};
use njc_runtime::{
    deep_chain_workload, hot_field_workload, many_hot_workload, phase_shift_workload,
    write_hot_workload, ServiceConfig, ServiceOutcome, ServiceRuntime, TenantSpec, PHASE_ALTERNATE,
    PHASE_CLEAN, PHASE_NULL,
};
use njc_vm::Value;

const SPEC: Spec = Spec {
    usage: "usage: service_bench [--smoke] [--tenants N[,N...]] [--out PATH]",
    switches: &["--smoke"],
    options: &["--tenants", "--out"],
    positionals: 0,
};

struct Args {
    smoke: bool,
    tenants: Vec<usize>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, UsageError> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    let smoke = args.flag("--smoke");
    let tenants = args.parsed("--tenants", |v| {
        v.split(',')
            .map(|s| s.trim().parse().ok().filter(|&n: &usize| n > 0))
            .collect()
    })?;
    Ok(Args {
        smoke,
        tenants: tenants.unwrap_or_else(|| if smoke { vec![8, 16] } else { vec![64, 256] }),
        out: args.out().unwrap_or_else(|| "BENCH_service.json".into()),
    })
}

/// One workload template tenants are stamped from.
struct WorkloadSpec {
    name: &'static str,
    module: Module,
    iters: i64,
    args: Vec<Value>,
}

/// The fleet mix for one platform. `scale` divides iteration counts in
/// smoke mode. AIX (writes-only traps) leads with the write-trapping
/// workload; the read workloads still run there as the no-trap contrast.
fn workload_set(platform: &Platform, scale: i64) -> Vec<WorkloadSpec> {
    let spec = |name: &'static str, module: Module, iters: i64, extra: Option<i64>| {
        let iters = (iters / scale).max(600);
        let mut args = vec![Value::Int(iters), Value::Ref(0)];
        if let Some(mode) = extra {
            args.push(Value::Int(mode));
        }
        WorkloadSpec {
            name,
            module,
            iters,
            args,
        }
    };
    let phase = || phase_shift_workload(16);
    if !platform.trap.traps_on_read {
        vec![
            spec("write_hot", write_hot_workload(), 20_000, None),
            spec("hot_field", hot_field_workload(), 8_000, None),
            spec("phase_null_burst", phase(), 12_000, Some(PHASE_NULL)),
        ]
    } else {
        vec![
            spec("hot_field", hot_field_workload(), 10_000, None),
            spec("phase_alternating", phase(), 8_000, Some(PHASE_ALTERNATE)),
            spec("phase_null_burst", phase(), 12_000, Some(PHASE_NULL)),
            spec("phase_clean", phase(), 8_000, Some(PHASE_CLEAN)),
            spec("many_hot_small_cache", many_hot_workload(6), 4_000, None),
            spec("deep_call_chain", deep_chain_workload(4), 4_000, None),
        ]
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One sweep cell: `n` tenants stamped round-robin from the platform's
/// workload set, one shared service. Returns the sweep's JSON (`None`
/// when the service faulted) and pushes gate violations.
fn run_sweep(
    platform: Platform,
    n: usize,
    smoke: bool,
    failures: &mut Vec<String>,
) -> Option<Json> {
    let ctx = format!("{}/{n}-tenants", platform.name);
    let workloads = workload_set(&platform, if smoke { 4 } else { 1 });
    let specs: Vec<TenantSpec> = (0..n)
        .map(|i| {
            let w = &workloads[i % workloads.len()];
            TenantSpec {
                name: format!("{}-{i}", w.name),
                module: w.module.clone(),
                entry: "main".to_string(),
                args: w.args.clone(),
                recovery: njc_runtime::RecoveryPolicy::abort(),
            }
        })
        .collect();

    let mut config = ServiceConfig::for_platform(&platform);
    config.workers = 3;
    config.carriers = 8;
    let service = ServiceRuntime::with_config(platform, config);
    let t = Instant::now();
    let out: ServiceOutcome = match service.run(&specs) {
        Ok(out) => out,
        Err(f) => {
            failures.push(format!("{ctx}: service faulted: {f:?}"));
            return None;
        }
    };
    let wall_ms = t.elapsed().as_secs_f64() * 1000.0;

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
    // byte-identical steady state — the deterministic half of the report.
    let mut rows = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let members: Vec<usize> = (0..n).filter(|i| i % workloads.len() == wi).collect();
        let Some(&first) = members.first() else {
            continue;
        };
        let reference = &out.tenants[first];
        for &i in &members[1..] {
            let t = &out.tenants[i];
            if t.outcome.steady.stats != reference.outcome.steady.stats
                || t.outcome.final_module != reference.outcome.final_module
            {
                failures.push(format!(
                    "{ctx}: tenant {} diverged from {} on the same workload",
                    t.name, reference.name
                ));
                break;
            }
        }
        let steady = reference.outcome.steady.stats;
        let override_slots: usize = reference
            .outcome
            .overrides
            .values()
            .map(|ov| ov.len())
            .sum();
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
        "{ctx}: {} workloads, {} fresh compiles vs {} isolated, {} dedup hits, cache hit rate {:.2}, queue p50/p99 {}/{} us, {:.0} ms",
        workloads.len(),
        out.compiles_performed,
        out.isolated_compiles,
        out.dedup_hits,
        hit_rate,
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        wall_ms
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
        "wall_ms": Json::Fixed(wall_ms, 3), "cache_hit_rate": Json::Fixed(hit_rate, 4),
        "cache": &out.cache, "dedup_hits": out.dedup_hits,
        "compiles_performed": out.compiles_performed, "isolated_compiles": out.isolated_compiles,
        "queue": queue, "shard_occupancy": occupancy, "host_parallelism": out.host_parallelism,
    }))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    let mut failures = Vec::new();
    let mut sweeps = Vec::new();
    for platform in [Platform::windows_ia32(), Platform::aix_ppc()] {
        for &n in &args.tenants {
            sweeps.extend(run_sweep(platform, n, args.smoke, &mut failures));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    if args.smoke {
        println!("smoke OK: {} sweeps clean", sweeps.len());
        return;
    }

    let json = json_obj! {
        "generated_by": "service_bench",
        "note": "rows are deterministic cost-model results (reproducible); wall-clock, \
                 scheduling, and host data live under each sweep's volatile key, which the CI \
                 determinism comparison deletes",
        "sweeps": Json::Array(sweeps),
    }
    .report();
    std::fs::write(&args.out, json).expect("write BENCH_service.json");
    println!("wrote {}", args.out.display());
}
