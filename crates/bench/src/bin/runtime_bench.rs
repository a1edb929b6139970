//! Steady-state benchmark for the adaptive runtime: does the tiered
//! profile → recompile → swap loop actually beat both static bets?
//!
//! Runs the null-seeded hot-field workload three ways and reports
//! cycles/iteration for each:
//!
//! * **always-implicit** (`Full`): the paper's optimized placement — every
//!   check implicit, so the null-seeded site pays a hardware trap per
//!   iteration.
//! * **always-explicit** (`NoNullOptNoTrap`): every check a 2-cycle
//!   compare-and-branch, traps never.
//! * **adaptive** steady state: tier 0 plus profile-driven
//!   [`ExplicitOverride`]s — explicit exactly at the trapping site,
//!   implicit (free) everywhere else. Must beat both extremes.
//!
//! Results go to `BENCH_runtime.json`. Cycle counts come from the VM's
//! deterministic cost model, so everything in the JSON is reproducible
//! except what lives under the `"volatile"` key — wall-clock times and
//! adaptive-run scheduling details (when the swap landed, cache traffic),
//! which CI deletes (`jq -c 'del(.. | .volatile?)'`) before comparing two
//! runs.
//!
//! ```text
//! cargo run --release -p njc-bench --bin runtime_bench            # full run
//! cargo run --release -p njc-bench --bin runtime_bench -- --smoke # CI gate
//! ```
//!
//! `--smoke` gates, in both modes before any JSON is written:
//! convergence (the override set is exactly the trapping slot, witnessed
//! by override-caused explicit checks in the final tier's provenance),
//! tiered reconciliation, observational equivalence of all three runs,
//! the steady state beating both extremes, a mid-run swap actually
//! landing (retrying with 4× the iterations if the run finished first),
//! and a clean runtime difftest.
//!
//! [`ExplicitOverride`]: njc_core::ExplicitOverride

use std::time::Instant;

use njc_arch::Platform;
use njc_bench::runtime_diff::{run_runtime_difftest, RuntimeDiffOptions};
use njc_observe::{json_obj, CheckEvent, ExplicitCause, Json};
use njc_opt::ConfigKind;
use njc_runtime::{hot_field_workload, RuntimeOutcome, TieredRuntime};
use njc_vm::{run_module, Outcome, Value};

const DEFAULT_ITERS: i64 = 30_000;
/// Mid-run-swap proof: iteration counts to try until a swap lands while
/// the loop is still turning (each attempt 4× the last).
const SWAP_ATTEMPTS: usize = 4;

struct Args {
    smoke: bool,
    iters: i64,
    seeds: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        iters: DEFAULT_ITERS,
        seeds: 24,
        out: "BENCH_runtime.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--iters" => {
                let v = it.next().expect("--iters needs a value");
                args.iters = v.parse().expect("--iters needs an integer");
            }
            "--seeds" => {
                let v = it.next().expect("--seeds needs a value");
                args.seeds = v.parse().expect("--seeds needs an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn workload_args(iters: i64) -> [Value; 2] {
    [Value::Int(iters), Value::Ref(0)]
}

/// One static extreme: whole-module compile at `kind`, then one run.
fn static_run(kind: ConfigKind, platform: &Platform, iters: i64) -> (Outcome, f64) {
    let mut m = hot_field_workload();
    njc_opt::optimize_module(&mut m, platform, &kind.to_config(platform));
    let t = Instant::now();
    let out =
        run_module(&m, *platform, "main", &workload_args(iters)).expect("workload does not fault");
    (out, t.elapsed().as_secs_f64() * 1000.0)
}

/// Override-caused explicit checks in `name`'s final tier provenance —
/// the witness that each override produced exactly one explicit check.
fn override_checks(out: &RuntimeOutcome, name: &str) -> usize {
    out.tier_traces
        .get(name)
        .and_then(|tiers| tiers.last())
        .map(|t| {
            t.events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        CheckEvent::Phase2Explicit {
                            cause: ExplicitCause::Override,
                            ..
                        }
                    )
                })
                .count()
        })
        .unwrap_or(0)
}

fn main() {
    let args = parse_args();
    let platform = Platform::windows_ia32();
    let mut failures: Vec<String> = Vec::new();

    let (implicit, implicit_wall) = static_run(ConfigKind::Full, &platform, args.iters);
    let (explicit, explicit_wall) = static_run(ConfigKind::NoNullOptNoTrap, &platform, args.iters);

    // The measured adaptive run at the benchmark's iteration count. The
    // steady state is deterministic regardless of when (or whether) the
    // swap landed mid-run, because the post-run fixpoint pass always
    // compiles the final bodies.
    let rt = TieredRuntime::new(hot_field_workload(), platform);
    let t = Instant::now();
    let out = rt
        .run("main", &workload_args(args.iters))
        .expect("workload does not fault");
    let adaptive_wall = t.elapsed().as_secs_f64() * 1000.0;

    // Convergence: overrides exactly at the trapping site, each one
    // witnessed by an override-caused explicit check in the provenance.
    match out.overrides.get("hot") {
        Some(ov) if ov.len() == 1 => {}
        other => failures.push(format!(
            "hot must carry exactly the one trapping override, got {other:?}"
        )),
    }
    for (name, ov) in &out.overrides {
        let witnessed = override_checks(&out, name);
        if witnessed != ov.len() {
            failures.push(format!(
                "{name}: {} override slots but {witnessed} override-caused explicit checks in provenance",
                ov.len()
            ));
        }
    }
    if let Err(fails) = out.verify_convergence() {
        failures.extend(fails.into_iter().map(|f| format!("convergence: {f}")));
    }
    if let Err(fails) = out.reconcile() {
        failures.extend(fails.into_iter().map(|f| format!("reconcile: {f}")));
    }

    // All three runs must agree observationally.
    for (label, other) in [
        ("always-implicit", &implicit),
        ("always-explicit", &explicit),
        ("adaptive", &out.adaptive),
    ] {
        if let Err(e) = out.steady.assert_equivalent(other) {
            failures.push(format!("steady vs {label}: {e}"));
        }
    }

    // The paper's bet, closed: explicit exactly where traps are, implicit
    // (free) everywhere else, strictly beats both static extremes.
    let steady = out.steady.stats;
    if steady.cycles >= implicit.stats.cycles {
        failures.push(format!(
            "adaptive {} !< always-implicit {} cycles",
            steady.cycles, implicit.stats.cycles
        ));
    }
    if steady.cycles >= explicit.stats.cycles {
        failures.push(format!(
            "adaptive {} !< always-explicit {} cycles",
            steady.cycles, explicit.stats.cycles
        ));
    }
    if steady.traps_taken != 0 {
        failures.push(format!(
            "steady state still traps ({} taken)",
            steady.traps_taken
        ));
    }

    // Mid-run swap proof: a tier-1 body must land while the loop is still
    // turning. Detection + recompile race the loop, so escalate the
    // iteration count until the swap wins.
    let mut swap_iters = args.iters;
    let mut mid_run_swaps = 0u64;
    for attempt in 0..SWAP_ATTEMPTS {
        let proof = TieredRuntime::new(hot_field_workload(), platform)
            .run("main", &workload_args(swap_iters))
            .expect("workload does not fault");
        mid_run_swaps = proof.mid_run_swaps;
        if mid_run_swaps > 0 {
            break;
        }
        if attempt + 1 < SWAP_ATTEMPTS {
            swap_iters *= 4;
        }
    }
    if mid_run_swaps == 0 {
        failures.push(format!(
            "no mid-run swap landed even at {swap_iters} iterations"
        ));
    }

    // Replay the difftest corpus through the runtime.
    let diff = run_runtime_difftest(&RuntimeDiffOptions {
        seeds: args.seeds,
        smoke: args.smoke,
        interproc: true,
        gvn: true,
    });
    if !diff.is_clean() {
        failures.push(format!(
            "runtime difftest diverged:\n  {}",
            diff.divergences.join("\n  ")
        ));
    }

    let per_iter = |cycles: u64| cycles as f64 / args.iters as f64;
    println!(
        "always-implicit: {} cycles ({:.2}/iter, {} traps)",
        implicit.stats.cycles,
        per_iter(implicit.stats.cycles),
        implicit.stats.traps_taken
    );
    println!(
        "always-explicit: {} cycles ({:.2}/iter, {} explicit checks)",
        explicit.stats.cycles,
        per_iter(explicit.stats.cycles),
        explicit.stats.explicit_null_checks
    );
    println!(
        "adaptive steady: {} cycles ({:.2}/iter, {} explicit checks, {} traps, overrides {:?})",
        steady.cycles,
        per_iter(steady.cycles),
        steady.explicit_null_checks,
        steady.traps_taken,
        out.overrides
            .iter()
            .map(|(n, ov)| (n.as_str(), ov.len()))
            .collect::<Vec<_>>()
    );
    println!(
        "mid-run swap landed at {swap_iters} iterations ({mid_run_swaps} swapped calls); difftest {} programs clean",
        diff.programs
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    if args.smoke {
        println!(
            "smoke OK: adaptive {:.2} cyc/iter beats implicit {:.2} and explicit {:.2}; {} difftest programs clean",
            per_iter(steady.cycles),
            per_iter(implicit.stats.cycles),
            per_iter(explicit.stats.cycles),
            diff.programs
        );
        return;
    }

    let config_row = |name: &str, config: &str, o: &Outcome| {
        json_obj! {
            "name": name, "config": config, "cycles": o.stats.cycles,
            "cycles_per_iter": Json::Fixed(per_iter(o.stats.cycles), 4),
            "traps_taken": o.stats.traps_taken,
            "explicit_null_checks": o.stats.explicit_null_checks,
            "implicit_site_hits": o.stats.implicit_site_hits,
        }
    };
    let configs = Json::array([
        config_row("always_implicit", "Full", &implicit),
        config_row("always_explicit", "NoNullOptNoTrap", &explicit),
        config_row(
            "adaptive_steady",
            "OldNullCheck+overrides->Full",
            &out.steady,
        ),
    ]);
    let overrides = Json::map(out.overrides.iter().map(|(n, ov)| (n, ov.len())));
    let difftest = json_obj! {
        "programs": diff.programs, "cells": diff.cells, "divergences": diff.divergences.len(),
    };
    let wall_ms = json_obj! {
        "always_implicit": Json::Fixed(implicit_wall, 3),
        "always_explicit": Json::Fixed(explicit_wall, 3),
        "adaptive": Json::Fixed(adaptive_wall, 3),
    };
    let json = json_obj! {
        "generated_by": "runtime_bench", "iters": args.iters, "tenants": 1u64,
        "note": "cycles are deterministic cost-model cycles (reproducible); wall-clock and \
                 adaptive-scheduling data live under the volatile key, which the CI determinism \
                 comparison deletes",
        "configs": configs, "overrides": overrides, "difftest": difftest,
    }
    .volatile(json_obj! {
        "wall_ms": wall_ms,
        "host_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "mid_run_swaps": mid_run_swaps, "swap_proof_iters": swap_iters,
        "adaptive_cycles": out.adaptive.stats.cycles, "recompile_events": out.recompiles.len(),
        "cache": &out.cache,
    })
    .report();
    std::fs::write(&args.out, json).expect("write BENCH_runtime.json");
    println!("wrote {}", args.out);
}
