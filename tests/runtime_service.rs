//! Integration properties of the multi-tenant compilation service
//! (`njc_runtime::ServiceRuntime`).
//!
//! Four acceptance properties under one roof: cross-tenant deduplication
//! must serve byte-identical code (the shared cache is a correctness
//! no-op, only an economics win); shard routing must be deterministic and
//! content-addressed for real workload bodies; a capacity-1 shared cache
//! under contention must evict without changing any tenant's results; and
//! tier-down must return a quiesced site to the implicit (free) form with
//! every tier's conservation ledger still balanced. `TieredRuntime` is a
//! one-tenant service, so each comparison against it is N tenants against
//! one. Two robustness properties follow: a wrong entry arity is a prompt
//! structured fault, and a panicked compile job is charged to the tenant
//! that waited on it.

use njc_arch::{Platform, TrapModel};
use njc_core::ExplicitOverride;
use njc_ir::FunctionId;
use njc_observe::FunctionTrace;
use njc_opt::ConfigKind;
use njc_runtime::{
    hot_field_workload, many_hot_workload, phase_shift_workload, CacheKey, CompiledArtifact,
    ServiceConfig, ServiceRuntime, ShardedCodeCache, TenantSpec, TieredRuntime, PHASE_NULL,
};
use njc_vm::{Fault, Value};
use std::sync::Arc;
use std::time::Duration;

fn fleet(name: &str, module: &njc_ir::Module, args: &[Value], n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec {
            name: format!("{name}-{i}"),
            module: module.clone(),
            entry: "main".to_string(),
            args: args.to_vec(),
            recovery: njc_runtime::RecoveryPolicy::abort(),
        })
        .collect()
}

/// Cross-tenant dedup is an economics win and a correctness no-op: every
/// tenant of the same workload receives byte-identical final bodies, equal
/// to what a single-tenant runtime compiles in isolation, while the fleet
/// pays strictly less fresh compile work than per-tenant isolation would.
#[test]
fn cross_tenant_dedup_serves_byte_identical_code() {
    let platform = Platform::windows_ia32();
    let module = hot_field_workload();
    let args = [Value::Int(2_000), Value::Ref(0)];
    let service = ServiceRuntime::new(platform);
    let out = service
        .run(&fleet("tenant", &module, &args, 6))
        .expect("fleet runs clean");
    out.verify().expect("every tenant reconciles and converges");

    assert!(out.dedup_hits > 0, "identical tenants must dedup");
    assert!(
        out.compiles_performed < out.isolated_compiles,
        "shared cache must beat isolation: {} fresh !< {} isolated",
        out.compiles_performed,
        out.isolated_compiles
    );

    let reference = TieredRuntime::new(module.clone(), platform)
        .run("main", &args)
        .expect("single-tenant reference runs clean");
    for t in &out.tenants {
        assert_eq!(
            t.outcome.final_module, reference.final_module,
            "{}: dedup must serve byte-identical code",
            t.name
        );
        assert_eq!(t.outcome.steady.stats, reference.steady.stats, "{}", t.name);
        assert_eq!(t.outcome.overrides, reference.overrides, "{}", t.name);
    }
}

/// Shard routing for real workload bodies: `body_hash % shards`, stable
/// across lookups and across cache instances of equal fanout, and
/// invariant under config, trap model, and override set — every compiled
/// variant of one source body co-locates, which is what makes dedup a
/// plain cache hit.
#[test]
fn shard_key_routing_is_deterministic_and_content_addressed() {
    let a = ShardedCodeCache::new(8, 4);
    let b = ShardedCodeCache::new(8, 4);
    let mut distinct = std::collections::BTreeSet::new();
    for module in [hot_field_workload(), many_hot_workload(5)] {
        for fi in 0..module.num_functions() {
            let f = module.function(FunctionId::new(fi));
            let base = CacheKey::new(
                f,
                ConfigKind::Full,
                TrapModel::windows_ia32(),
                &ExplicitOverride::new(),
            );
            let home = a.shard_of(&base);
            assert_eq!(home, (base.body_hash() % 8) as usize);
            assert_eq!(home, a.shard_of(&base), "stable across lookups");
            assert_eq!(home, b.shard_of(&base), "stable across instances");
            distinct.insert(home);

            let mut ov = ExplicitOverride::new();
            ov.insert(8, njc_ir::AccessKind::Read);
            for variant in [
                CacheKey::new(f, ConfigKind::OldNullCheck, TrapModel::windows_ia32(), &ov),
                CacheKey::new(
                    f,
                    ConfigKind::Full,
                    TrapModel::aix_ppc(),
                    &ExplicitOverride::new(),
                ),
            ] {
                assert_ne!(variant, base, "distinct key");
                assert_eq!(
                    a.shard_of(&variant),
                    home,
                    "all variants of one body co-locate"
                );
            }
        }
    }
    assert!(
        distinct.len() > 1,
        "distinct bodies must spread across shards, all landed in {distinct:?}"
    );
}

/// Capacity-1 shared cache under real contention. Driven directly with the
/// single-tenant compile pattern (miss, then insert) the distinct hot
/// bodies of `many_hot_workload` evict each other deterministically; run
/// as a service fleet over the same tiny cache, the thrash shows up in the
/// shard counters but every tenant's results match a roomy-cache
/// single-tenant reference byte-for-byte.
#[test]
fn capacity_one_shared_cache_evicts_without_changing_results() {
    // Direct drive: ties admit, so each new body evicts the previous one.
    let tiny = ShardedCodeCache::new(1, 1);
    let module = many_hot_workload(3);
    for fi in 0..module.num_functions() {
        let f = module.function(FunctionId::new(fi));
        let key = CacheKey::new(
            f,
            ConfigKind::Full,
            TrapModel::windows_ia32(),
            &ExplicitOverride::new(),
        );
        assert!(tiny.get(&key).is_none(), "cold miss");
        assert!(
            tiny.insert(
                key,
                Arc::new(CompiledArtifact {
                    body: Arc::new(f.clone()),
                    trace: FunctionTrace::default(),
                })
            ),
            "equal interest ties admit"
        );
    }
    let s = tiny.shard_stats()[0];
    assert_eq!(s.occupancy, 1, "capacity 1 holds one artifact");
    assert_eq!(
        s.evictions as usize,
        module.num_functions() - 1,
        "every admission past the first evicts"
    );

    // Service drive: four tenants × four distinct hot bodies through one
    // capacity-1 shard. Whatever mix of evictions and admission rejects
    // the interleaving produces, the observable results cannot move.
    let platform = Platform::windows_ia32();
    let module = many_hot_workload(4);
    let args = [Value::Int(1_200), Value::Ref(0)];
    let mut config = ServiceConfig::for_platform(&platform);
    config.shards = 1;
    config.shard_capacity = 1;
    let service = ServiceRuntime::with_config(platform, config);
    let out = service
        .run(&fleet("contender", &module, &args, 4))
        .expect("fleet runs clean");
    out.verify().expect("every tenant reconciles and converges");
    let s = &out.shards[0];
    assert!(s.occupancy <= 1, "capacity bound holds: {s:?}");
    assert!(
        s.evictions + s.admission_rejects > 0,
        "distinct bodies through capacity 1 must contend: {s:?}"
    );
    let reference = TieredRuntime::new(module.clone(), platform)
        .run("main", &args)
        .expect("reference runs clean");
    for t in &out.tenants {
        assert_eq!(t.outcome.final_module, reference.final_module, "{}", t.name);
        assert_eq!(t.outcome.steady.stats, reference.steady.stats, "{}", t.name);
    }
}

/// Tier-down: a site that traps hard in one early burst and then quiesces
/// must settle back to the implicit (free) form — zero override slots —
/// while the burst itself stays visible as steady-state traps, and every
/// installed tier's CheckId conservation ledger still balances.
#[test]
fn tier_down_returns_quiesced_site_to_implicit_with_ledger_conservation() {
    let platform = Platform::windows_ia32();
    let module = phase_shift_workload(16);
    // One 16-iteration null phase, then clean forever: 16/12000 is far
    // below the 2/1200 break-even, so the cumulative fixpoint must strip
    // the override back off.
    let args = [Value::Int(12_000), Value::Ref(0), Value::Int(PHASE_NULL)];
    let out = TieredRuntime::new(module.clone(), platform)
        .run("main", &args)
        .expect("burst workload runs clean");
    out.reconcile().expect("all traps and checks explained");
    out.verify_convergence().expect("overrides converged");
    for (name, ov) in &out.overrides {
        assert!(
            ov.is_empty(),
            "{name}: quiesced site must tier back down, kept {ov:?}"
        );
    }
    assert_eq!(
        out.steady.stats.traps_taken, 16,
        "the burst replays as implicit-site traps in the steady state"
    );
    assert_eq!(out.steady.stats.explicit_null_checks, 0, "no residue");
    // Conservation holds in every tier ever installed, including any
    // overridden intermediate tier the burst provoked mid-run.
    for (name, tiers) in &out.tier_traces {
        for (i, trace) in tiers.iter().enumerate() {
            trace
                .ledger
                .check()
                .unwrap_or_else(|e| panic!("{name} tier {i}: {e}"));
        }
    }

    // The same settlement holds for every tenant through the service.
    let service = ServiceRuntime::new(platform);
    let svc = service
        .run(&fleet("burst", &module, &args, 3))
        .expect("fleet runs clean");
    svc.verify().expect("every tenant reconciles and converges");
    for t in &svc.tenants {
        let slots: usize = t.outcome.overrides.values().map(|ov| ov.len()).sum();
        assert_eq!(
            slots, 0,
            "{}: tier-down must hold under the service",
            t.name
        );
        assert_eq!(t.outcome.final_module, out.final_module, "{}", t.name);
    }
}

/// A wrong entry arity comes from outside the program, so it must be a
/// structured fault — through the tiered front end and a one-tenant
/// service alike — and it must arrive promptly: no VM panic, and no
/// controller left polling a tenant that never finishes.
#[test]
fn wrong_entry_arity_is_a_prompt_structured_fault() {
    let platform = Platform::windows_ia32();
    let args = vec![Value::Int(1); 64];
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let tiered = TieredRuntime::new(hot_field_workload(), platform)
            .run("main", &args)
            .map(|_| ());
        let service = ServiceRuntime::new(platform)
            .run(&fleet("arity", &hot_field_workload(), &args, 1))
            .map(|_| ());
        let _ = tx.send([tiered, service]);
    });
    let results = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("both runs return, neither panics nor hangs");
    for r in results {
        assert!(
            matches!(&r, Err(Fault::IllTyped { detail, .. }) if detail.contains("arity")),
            "{r:?}"
        );
    }
}

/// A panicked worker job is charged to every tenant that waited on it,
/// so a one-tenant fleet's own count equals the fleet total — what
/// `TieredRuntime::run` reports for the same run.
#[test]
fn worker_compile_panics_count_in_the_waiting_tenant() {
    let platform = Platform::windows_ia32();
    let mut config = ServiceConfig::for_platform(&platform);
    config.runtime.panic_on_compile_of = Some("hot");
    // Long enough that the controller issues the mid-run request for
    // "hot", whose worker job panics before the fixpoint's does.
    let args = [Value::Int(200_000), Value::Ref(0)];
    let out = ServiceRuntime::with_config(platform, config)
        .run(&fleet("panicky", &hot_field_workload(), &args, 1))
        .expect("the fleet survives its panicking compiles");
    let tenant = out.tenants[0].outcome.compile_panics;
    assert!(
        tenant >= 2,
        "a mid-run worker job and the fixpoint compile both panic: {tenant}"
    );
    assert_eq!(tenant, out.compile_panics);
}

/// Modules the verifier rejects, each with the function and block its
/// first error names: a branch to a missing block (it panicked the
/// optimizer's CFG cache), a `getfield` of an undeclared field (it
/// panicked the optimizer's field lookup), a call of a missing function
/// and a conditional branch to a missing block (both panicked the VM).
fn unverified_modules() -> Vec<(njc_ir::Module, &'static str)> {
    [
        "func main(v0: int, v1: ref) -> int {\nbb0:\n  goto bb7\n}",
        "func main(v0: int, v1: ref) -> int {\n  locals v2: int\nbb0:\n  v2 = getfield v1, field3\n  return v2\n}",
        "func main(v0: int, v1: ref) -> int {\n  locals v2: int\nbb0:\n  v2 = call fn4()\n  return v2\n}",
        "func main(v0: int, v1: ref) -> int {\nbb0:\n  if lt v0, v0 then bb0 else bb9\n}",
    ]
    .into_iter()
    .map(|src| {
        let mut m = njc_ir::Module::new("hostile");
        m.add_function(njc_ir::parse_function(src).unwrap());
        let first = njc_ir::verify_module(&m).unwrap_err().remove(0);
        assert_eq!(first.block, Some(njc_ir::BlockId(0)), "{first}");
        (m, src)
    })
    .collect()
}

#[test]
fn admission_refuses_an_unverified_module_before_compiling_it() {
    let args = [Value::Int(3), Value::Ref(0)];
    for (m, src) in unverified_modules() {
        let message = njc_ir::verify_module(&m).unwrap_err().remove(0).message;
        let expected = Fault::IllTyped {
            function: "main".into(),
            block: njc_ir::BlockId(0),
            detail: format!("the module does not verify: {message}"),
        };
        let p = Platform::windows_ia32();
        let tiered = TieredRuntime::new(m.clone(), p).run("main", &args);
        assert_eq!(tiered.err(), Some(expected.clone()), "{src}");
        // One bad tenant refuses the whole fleet, good tenants included.
        let mut specs = fleet("good", &hot_field_workload(), &args, 1);
        specs.extend(fleet("bad", &m, &args, 1));
        let service = ServiceRuntime::new(p).run(&specs);
        assert_eq!(service.err(), Some(expected), "{src}");
    }
}
