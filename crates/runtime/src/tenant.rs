//! Compilation as a service: many VM tenants, one compile pipeline.
//!
//! A *tenant* is an independent VM instance — its own module, entry
//! point, arguments, heap, and profile — but compilation is a shared
//! service: every tenant's recompile demand flows through one
//! [`RecompileQueue`] into one [`ShardedCodeCache`]. Because the cache is
//! content-addressed (pristine body hash × tier config × trap model ×
//! override set), tenants running the same code at the same tiering
//! decision share a single compile:
//!
//! * requests for the same key still pending **coalesce** in the queue —
//!   one compile, fan-out install into every waiting tenant;
//! * requests arriving after the artifact landed are **cache hits** —
//!   no compile at all.
//!
//! Both are *dedup*: installs served without fresh compile work. The
//! service's economic claim — total compile work strictly below the sum
//! of per-tenant isolated compiles — is measured by
//! [`ServiceOutcome::compiles_performed`] vs
//! [`ServiceOutcome::isolated_compiles`].
//!
//! This is the crate's one adaptive control loop: [`TieredRuntime`] is a
//! one-tenant service. The thread topology is three fixed pools inside
//! one scope:
//!
//! * **carriers** run tenant VMs to completion, pulling the next
//!   unstarted tenant off a shared index — hundreds of tenants multiplex
//!   onto a handful of OS threads. A VM that panics ends the run with its
//!   panic instead of leaving the controller polling a tenant that will
//!   never finish;
//! * one **controller** (the calling thread) round-robin polls every
//!   live tenant's profile, plans per-function override sets (tier-up
//!   *and* windowed tier-down), and submits prioritized requests —
//!   priority is the modeled cycles at stake (traps × trap cost + peak
//!   executions × explicit-check cost). Rejected submits (backpressure)
//!   are simply retried on a later poll against fresher profile data;
//! * **workers** pop priority batches, compile through the shared cache,
//!   and install into every waiter.
//!
//! After every VM finishes, each tenant independently runs the post-run
//! fixpoint (`finalize_tenant`) and a deterministic steady-state
//! measurement run. Per-tenant observable behavior is *identical* to
//! running that tenant alone — the shared pipeline changes only who pays
//! for compilation, never what the program computes.
//!
//! [`TieredRuntime`]: crate::TieredRuntime

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use njc_arch::Platform;
use njc_core::ExplicitOverride;
use njc_ir::{BlockId, Function, FunctionId, Module};
use njc_observe::{FunctionTrace, ModuleTrace, RecompileEvent};
use njc_opt::{
    optimize_function_overridden, optimize_module_traced, prepare_module, ConfigKind, OptConfig,
};
use njc_recover::{RecoveryCounts, RecoveryPolicy};
use njc_vm::{Fault, Outcome, RuntimeHooks, SiteCounters, Value, Vm, VmConfig};

use crate::cache::{CacheKey, CacheStats, CompiledArtifact};
use crate::queue::{
    PendingCompile, QueueConfig, QueueStats, RecompileQueue, RecompileRequest, Submitted, Waiter,
};
use crate::shard::{ShardStats, ShardedCodeCache};
use crate::tiered::{RuntimeConfig, RuntimeOutcome};

/// Shape of the compilation service.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServiceConfig {
    /// Code cache shards (clamped ≥ 1). Keys route by pristine-body hash,
    /// so every variant of one body lands in one shard.
    pub shards: usize,
    /// Artifact capacity *per shard* (clamped ≥ 1).
    pub shard_capacity: usize,
    /// Recompile queue knobs (capacity, batch size, aging).
    pub queue: QueueConfig,
    /// Compile worker threads (clamped ≥ 1).
    pub workers: usize,
    /// Carrier threads executing tenant VMs (clamped ≥ 1). Tenants beyond
    /// this count wait for a free carrier.
    pub carriers: usize,
    /// Per-tenant tiering knobs — policy, tiers, snapshot interval, and
    /// the fault-injection delays. `cache_capacity` and `threads` are not
    /// read here: they are how [`TieredRuntime`] shapes its one-tenant
    /// service (`shard_capacity` and `workers`, one shard, one carrier).
    ///
    /// [`TieredRuntime`]: crate::TieredRuntime
    pub runtime: RuntimeConfig,
}

impl ServiceConfig {
    /// Service defaults on `platform`'s cost model: 8 shards × 16
    /// artifacts, default queue, 2 workers, 4 carriers.
    pub fn for_platform(platform: &Platform) -> Self {
        ServiceConfig {
            shards: 8,
            shard_capacity: 16,
            queue: QueueConfig::default(),
            workers: 2,
            carriers: 4,
            runtime: RuntimeConfig::for_platform(platform),
        }
    }
}

/// One tenant: an independent program the service runs and compiles for.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (tenant outcomes report under it).
    pub name: String,
    /// The tenant's module, compiled at tier 0 on admission.
    pub module: Module,
    /// Entry function name.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// Per-tenant trap-recovery policy, dispatched at registered
    /// implicit sites that trap in this tenant's VM (adaptive and steady
    /// runs both). [`RecoveryPolicy::abort`] reproduces the pre-recovery
    /// behavior; tenants with different policies coexist on one service
    /// because the policy shapes execution, never compiled artifacts —
    /// cache keys are unaffected.
    pub recovery: RecoveryPolicy,
}

/// One tenant's result: the full single-tenant outcome plus its isolated
/// compile demand.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// The tenant's name.
    pub name: String,
    /// Exactly what [`TieredRuntime::run`] would report — adaptive run,
    /// steady run, recompiles, overrides, provenance, compile panics.
    /// `outcome.cache` is cache-*wide* (the shared cache serves every
    /// tenant).
    ///
    /// [`TieredRuntime::run`]: crate::TieredRuntime::run
    pub outcome: RuntimeOutcome,
    /// Distinct artifact keys this tenant requested over its lifetime —
    /// the compiles it would have performed with a private cache.
    pub distinct_keys: usize,
}

/// What one service run produced.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantOutcome>,
    /// Shared-cache counters after the run.
    pub cache: CacheStats,
    /// Per-shard counters (occupancy, hits, admission rejects).
    pub shards: Vec<ShardStats>,
    /// Queue counters (coalesced, rejected, batches, aged promotions).
    pub queue: QueueStats,
    /// Queue-to-install latencies, microseconds, completion order.
    pub latencies_us: Vec<u64>,
    /// Fresh compiles actually performed (adaptive workers + fixpoint).
    pub compiles_performed: u64,
    /// Σ over tenants of [`TenantOutcome::distinct_keys`] — the compile
    /// bill under per-tenant isolation. The service wins when
    /// `compiles_performed < isolated_compiles`.
    pub isolated_compiles: u64,
    /// Installs and settlements served without a fresh compile: queue
    /// coalescing fan-outs plus shared-cache hits, adaptive and fixpoint
    /// phases both. Counted as recompile events with `cache_hit` set.
    pub dedup_hits: u64,
    /// Compile jobs that panicked mid-compile and were survived —
    /// service workers and per-tenant fixpoint passes combined, each job
    /// counted once (a panicked worker job also counts in the
    /// `outcome.compile_panics` of every tenant waiting on it). The fleet
    /// keeps running; the affected functions stay at their last
    /// installed tier.
    pub compile_panics: u64,
    /// Traps recovered per strategy, summed over every tenant (each
    /// tenant's own split lives in its `outcome.recoveries`).
    pub recoveries: RecoveryCounts,
}

impl ServiceOutcome {
    /// Reconciles and convergence-checks every tenant. Each tenant must
    /// satisfy exactly the single-tenant obligations: every trap and
    /// explicit check explained by some installed tier's provenance, and
    /// every final override slot explicit in the final body.
    ///
    /// # Errors
    /// One line per violation, prefixed with the tenant name.
    pub fn verify(&self) -> Result<(), Vec<String>> {
        let mut failures = Vec::new();
        for t in &self.tenants {
            if let Err(errs) = t.outcome.reconcile() {
                failures.extend(errs.into_iter().map(|e| format!("{}: {e}", t.name)));
            }
            if let Err(errs) = t.outcome.verify_convergence() {
                failures.extend(errs.into_iter().map(|e| format!("{}: {e}", t.name)));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// Locks `m`, re-entering it if a panicking compile job poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A completed install, recorded by the worker that performed it.
struct Install {
    index: usize,
    overrides: ExplicitOverride,
    artifact: Arc<CompiledArtifact>,
    event: RecompileEvent,
    /// Counter snapshot at install time — the baseline the policy
    /// subtracts so only the *new* tier's behaviour is judged.
    baseline: SiteCounters,
}

/// Per-tenant state shared between carriers, controller, and workers.
struct TenantState<'s> {
    spec: &'s TenantSpec,
    tier0: Module,
    tier0_trace: ModuleTrace,
    tier1_base: Module,
    hooks: RuntimeHooks,
    installs: Mutex<Vec<Install>>,
    /// The adaptive VM outcome, set by the carrier that ran it.
    result: Mutex<Option<Result<Outcome, Fault>>>,
    /// Every distinct artifact key this tenant asked for.
    keys: Mutex<BTreeSet<CacheKey>>,
    /// Compile jobs that panicked while this tenant waited on them, plus
    /// its own panicked fixpoint compiles.
    compile_panics: AtomicU64,
}

/// What every thread of one service run shares besides the tenants.
struct Shared<'a> {
    platform: Platform,
    rt: RuntimeConfig,
    /// The tier-1 `OptConfig`, identical for every tenant.
    cfg1: OptConfig,
    cache: &'a ShardedCodeCache,
    queue: RecompileQueue,
    /// Serializes cache-missing compiles across workers and fixpoint
    /// threads (double-checked in [`Shared::compile`]), so two tenants
    /// deciding identically at the same instant share one compile
    /// deterministically.
    compile_lock: Mutex<()>,
    /// Panicked compile jobs, each counted once however many tenants
    /// waited on it.
    compile_panics: AtomicU64,
}

impl Shared<'_> {
    /// The tier-1 compile path: compiles function `index` of a tenant's
    /// prepared tier-1 module with `overrides`, through the shared cache.
    /// Returns the artifact and whether it was a cache hit.
    fn compile(
        &self,
        tier1_base: &Module,
        index: usize,
        overrides: &ExplicitOverride,
    ) -> (Arc<CompiledArtifact>, bool) {
        let func = tier1_base.function(FunctionId::new(index));
        let key = CacheKey::new(func, self.rt.tier1, self.cfg1.compiler_trap, overrides);
        if let Some(artifact) = self.cache.get(&key) {
            return (artifact, true);
        }
        let _serialized = lock(&self.compile_lock);
        // Double-check: another holder may have landed this key while we
        // waited on the lock.
        if let Some(artifact) = self.cache.get(&key) {
            return (artifact, true);
        }
        // Fault injection ([`RuntimeConfig::panic_on_compile_of`]): the
        // unwind happens exactly where a real optimizer bug's would, inside
        // a compile job, past the cache lookup.
        if self.rt.panic_on_compile_of == Some(func.name()) {
            panic!("injected compile-job panic");
        }
        let mut body = func.clone();
        let (_stats, trace) = optimize_function_overridden(
            tier1_base,
            &self.platform,
            &self.cfg1,
            &mut body,
            Some(overrides),
            true,
        );
        let artifact = Arc::new(CompiledArtifact {
            body: Arc::new(body),
            trace: trace.expect("traced compile yields a trace"),
        });
        // An admission-policy bounce is fine: the artifact still goes to
        // its requester, it just is not retained for the next asker.
        let _ = self.cache.insert(key, Arc::clone(&artifact));
        (artifact, false)
    }
}

/// Admission check of a tenant module: the verifier's first error, as
/// the structured fault of an unverified module.
fn admit(module: &Module) -> Result<(), Fault> {
    let Err(errors) = njc_ir::verify_module(module) else {
        return Ok(());
    };
    let e = &errors[0];
    let block = e.block.unwrap_or_else(|| {
        module
            .function_by_name(&e.function)
            .map_or(BlockId(0), |id| module.function(id).entry())
    });
    Err(Fault::IllTyped {
        function: e.function.clone(),
        block,
        detail: format!("the module does not verify: {}", e.message),
    })
}

/// The multi-tenant compilation service. One shared sharded cache and one
/// recompile queue serve every tenant; each tenant's observable behavior
/// matches a private [`TieredRuntime`](crate::TieredRuntime).
#[derive(Debug)]
pub struct ServiceRuntime {
    platform: Platform,
    config: ServiceConfig,
    cache: Arc<ShardedCodeCache>,
}

impl ServiceRuntime {
    /// A service on `platform` with [`ServiceConfig::for_platform`] knobs.
    pub fn new(platform: Platform) -> Self {
        let config = ServiceConfig::for_platform(&platform);
        Self::with_config(platform, config)
    }

    /// A service with explicit knobs.
    pub fn with_config(platform: Platform, config: ServiceConfig) -> Self {
        let cache = Arc::new(ShardedCodeCache::new(config.shards, config.shard_capacity));
        ServiceRuntime {
            platform,
            config,
            cache,
        }
    }

    /// The shared cache (persists across [`run`](Self::run) calls, so a
    /// second fleet of tenants starts warm).
    pub fn cache(&self) -> &Arc<ShardedCodeCache> {
        &self.cache
    }

    fn tier_config(&self, kind: ConfigKind) -> OptConfig {
        OptConfig {
            // Workers are already the parallelism; compiled output is
            // byte-identical at any thread count.
            threads: 1,
            interproc: self.config.runtime.interproc,
            gvn: self.config.runtime.gvn,
            ..kind.to_config(&self.platform)
        }
    }

    /// Runs every tenant to completion through the shared compile
    /// pipeline, then fixpoints and steady-measures each one.
    ///
    /// # Errors
    /// [`Fault::InvalidSetting`] when the profile policy's ratio is not a
    /// finite, non-negative number, and [`Fault::IllTyped`] naming the
    /// verifier's first error when a tenant's module does not verify (both
    /// checked before any compile: the optimizer assumes verified IR);
    /// otherwise the first VM [`Fault`] any tenant hit (adaptive or steady
    /// run).
    ///
    /// # Panics
    /// Resumes the panic of a tenant VM that panicked.
    pub fn run(&self, specs: &[TenantSpec]) -> Result<ServiceOutcome, Fault> {
        self.config.runtime.policy.validate()?;
        for spec in specs {
            admit(&spec.module)?;
        }
        let platform = self.platform;
        let rt = self.config.runtime;
        let cfg0 = self.tier_config(rt.tier0);
        let svc = Shared {
            platform,
            rt,
            cfg1: self.tier_config(rt.tier1),
            cache: &self.cache,
            queue: RecompileQueue::new(self.config.queue),
            compile_lock: Mutex::new(()),
            compile_panics: AtomicU64::new(0),
        };

        // Admission: tier-0 compile every tenant, prepare its tier-1 base.
        let state: Vec<TenantState> = specs
            .iter()
            .map(|spec| {
                let mut tier0 = spec.module.clone();
                let (_s, tier0_trace) = optimize_module_traced(&mut tier0, &platform, &cfg0);
                // The recompile base: module-level preparation (intrinsics,
                // inlining) applied once; per-function optimization happens
                // per recompile, byte-identical to a whole-module compile.
                let mut tier1_base = spec.module.clone();
                prepare_module(&mut tier1_base, &platform, &svc.cfg1);
                TenantState {
                    spec,
                    tier0,
                    tier0_trace,
                    tier1_base,
                    hooks: RuntimeHooks::new(rt.snapshot_interval),
                    installs: Mutex::new(Vec::new()),
                    result: Mutex::new(None),
                    keys: Mutex::new(BTreeSet::new()),
                    compile_panics: AtomicU64::new(0),
                }
            })
            .collect();

        let vm_config = VmConfig {
            count_sites: true,
            ..rt.vm
        };
        let next_tenant = AtomicUsize::new(0);
        // The first tenant VM panic, if any. It ends the controller's
        // polling and resumes out of `run` once the scope closes.
        let vm_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let (state_ref, svc_ref) = (&state, &svc);

        std::thread::scope(|scope| {
            // Carriers: run tenant VMs, pulling the next unstarted tenant.
            for _ in 0..self.config.carriers.max(1) {
                let (next, vm_panic) = (&next_tenant, &vm_panic);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(t) = state_ref.get(i) else { break };
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        Vm::new(&t.tier0, platform)
                            .with_config(vm_config)
                            .with_hooks(&t.hooks)
                            .with_recovery(&t.spec.recovery)
                            .run(&t.spec.entry, &t.spec.args)
                    }));
                    match out {
                        Ok(out) => *lock(&t.result) = Some(out),
                        Err(payload) => {
                            lock(vm_panic).get_or_insert(payload);
                        }
                    }
                });
            }

            // Workers: pop priority batches, compile once, install into
            // every waiter. Each job runs under `catch_unwind`: a
            // panicking compile (a buggy optimizer pass) must not take
            // the worker — or the fleet — down with it. The job was
            // already popped from the queue, so nothing stays pending;
            // every waiting tenant simply keeps its last installed tier.
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(move || {
                    while let Some(batch) = svc_ref.queue.pop_batch() {
                        for job in batch {
                            let survived = catch_unwind(AssertUnwindSafe(|| {
                                compile_and_install(svc_ref, state_ref, &job)
                            }));
                            if survived.is_err() {
                                svc_ref.compile_panics.fetch_add(1, Ordering::Relaxed);
                                for w in &job.waiters {
                                    state_ref[w.tenant]
                                        .compile_panics
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }

            // The controller: this thread polls every live tenant, plans,
            // submits. A tenant is live until its VM finished; a panicked
            // VM stops the polling altogether.
            let mut requested: Vec<HashMap<usize, ExplicitOverride>> =
                vec![HashMap::new(); state.len()];
            let live = |t: &TenantState| !t.hooks.is_finished() && lock(&t.result).is_none();
            while lock(&vm_panic).is_none() && state.iter().any(live) {
                for (ti, t) in state.iter().enumerate() {
                    if live(t) {
                        poll_tenant(&svc, ti, t, &mut requested[ti]);
                    }
                }
                std::thread::sleep(Duration::from_micros(rt.controller_poll_micros.max(1)));
            }
            svc.queue.close(); // workers drain what is pending, then exit
        });
        if let Some(payload) = vm_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }

        // Fixpoint + steady measurement, per tenant, in parallel on
        // `carriers` threads, this one included — each tenant is
        // independent; the shared cache only dedups byte-identical
        // artifacts, so order cannot change any final body.
        let fixpoint: Vec<Mutex<Option<Result<TenantOutcome, Fault>>>> =
            state.iter().map(|_| Mutex::new(None)).collect();
        let next_fix = AtomicUsize::new(0);
        let finalize_worker = || loop {
            let i = next_fix.fetch_add(1, Ordering::SeqCst);
            let Some(t) = state.get(i) else { break };
            *lock(&fixpoint[i]) = Some(finalize_tenant(t, &svc));
        };
        std::thread::scope(|scope| {
            for _ in 1..self.config.carriers.max(1) {
                scope.spawn(finalize_worker);
            }
            finalize_worker();
        });

        let mut tenants = Vec::with_capacity(state.len());
        for (i, cell) in fixpoint.iter().enumerate() {
            let r = lock(cell)
                .take()
                .unwrap_or_else(|| panic!("tenant {i} fixpoint missing"));
            tenants.push(r?);
        }

        // Every recompile event is one install/settlement; the ones with
        // `cache_hit` were served without compile work — dedup. (Fan-out
        // installs of one fresh compile record `cache_hit` for every
        // waiter past the first, so fresh work is counted exactly once.)
        let (mut compiles_performed, mut dedup_hits) = (0u64, 0u64);
        for r in tenants.iter().flat_map(|t| &t.outcome.recompiles) {
            if r.cache_hit {
                dedup_hits += 1;
            } else {
                compiles_performed += 1;
            }
        }
        let isolated_compiles = tenants.iter().map(|t| t.distinct_keys as u64).sum();
        let mut recoveries = RecoveryCounts::default();
        for t in &tenants {
            recoveries.absorb(&t.outcome.recoveries);
        }
        Ok(ServiceOutcome {
            cache: self.cache.stats(),
            shards: self.cache.shard_stats(),
            queue: svc.queue.stats(),
            latencies_us: svc.queue.latencies_us(),
            compiles_performed,
            isolated_compiles,
            dedup_hits,
            compile_panics: svc.compile_panics.load(Ordering::Relaxed),
            recoveries,
            tenants,
        })
    }
}

/// One worker job: compile once (through the shared cache) for the first
/// waiter, install into every waiter, record each install.
fn compile_and_install(svc: &Shared<'_>, state: &[TenantState<'_>], job: &PendingCompile) {
    let first = job.waiters[0];
    let (artifact, cache_hit) = svc.compile(
        &state[first.tenant].tier1_base,
        first.function_index,
        &job.overrides,
    );
    if svc.rt.install_delay_micros > 0 {
        // Fault injection: artifact done, install channel stalls.
        std::thread::sleep(Duration::from_micros(svc.rt.install_delay_micros));
    }
    for (wi, w) in job.waiters.iter().enumerate() {
        let t = &state[w.tenant];
        let snap = t.hooks.snapshot();
        t.hooks
            .install(w.function_index as u32, Arc::clone(&artifact.body));
        let event = RecompileEvent {
            function: t
                .tier1_base
                .function(FunctionId::new(w.function_index))
                .name()
                .to_string(),
            to_config: svc.cfg1.name.to_string(),
            overrides: job.overrides.len(),
            // Only the first waiter of a fresh compile paid for it.
            cache_hit: cache_hit || wi > 0,
            mid_run: !t.hooks.is_finished(),
            at_calls: snap.calls,
        };
        lock(&t.installs).push(Install {
            index: w.function_index,
            overrides: job.overrides.clone(),
            artifact: Arc::clone(&artifact),
            event,
            baseline: snap.counters,
        });
    }
    svc.queue.complete(job);
}

/// One controller poll of tenant `ti`: assess every function against the
/// published profile and submit a request wherever the wanted override
/// set differs from the last one requested.
fn poll_tenant(
    svc: &Shared<'_>,
    ti: usize,
    t: &TenantState<'_>,
    requested: &mut HashMap<usize, ExplicitOverride>,
) {
    let (rt, cost) = (&svc.rt, &svc.platform.cost);
    let snap = t.hooks.snapshot();
    let installed = lock(&t.installs);
    let offset = |f| t.spec.module.field_offset(f);
    for fi in 0..t.tier0.num_functions() {
        let latest = installed.iter().rev().find(|i| i.index == fi);
        let body: &Function = latest
            .map(|i| &*i.artifact.body)
            .unwrap_or_else(|| t.tier0.function(FunctionId::new(fi)));
        let plan = rt.policy.assess(
            fi,
            body,
            &offset,
            &snap.counters,
            latest.map(|i| &i.baseline),
        );
        if !plan.hot {
            continue;
        }
        // Desired set = what the installed body's window still justifies
        // (tier-down drops quiesced slots), plus any newly hot-trapping
        // slots from this poll.
        let mut want = match latest {
            Some(inst) if rt.tier_down => rt.policy.assess_tier_down(
                fi,
                body,
                &offset,
                &inst.overrides,
                &snap.counters,
                Some(&inst.baseline),
            ),
            Some(inst) => inst.overrides.clone(),
            None => requested.get(&fi).cloned().unwrap_or_default(),
        };
        for (off, kind) in plan.overrides.keys() {
            want.insert(off, kind);
        }
        if requested.get(&fi) == Some(&want) {
            continue;
        }
        // Priority: modeled cycles at stake for this function — trap bill
        // plus execution weight.
        let fu = fi as u32;
        let traps: u64 = snap
            .counters
            .traps
            .iter()
            .filter(|((f, _, _), _)| *f == fu)
            .map(|(_, c)| *c)
            .sum();
        let execs: u64 = snap
            .counters
            .blocks
            .iter()
            .filter(|((f, _), _)| *f == fu)
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0);
        let priority = traps
            .saturating_mul(cost.trap_taken)
            .saturating_add(execs.saturating_mul(cost.explicit_null_check));
        let key = CacheKey::new(
            t.tier1_base.function(FunctionId::new(fi)),
            rt.tier1,
            svc.cfg1.compiler_trap,
            &want,
        );
        let sub = svc.queue.submit(RecompileRequest {
            key: key.clone(),
            waiter: Waiter {
                tenant: ti,
                function_index: fi,
            },
            overrides: want.clone(),
            priority,
        });
        if sub != Submitted::Rejected {
            requested.insert(fi, want);
            lock(&t.keys).insert(key);
        }
        // Rejected: backpressure — retry on a later poll if the profile
        // still says so.
    }
}

/// One tenant's post-run pass, then its deterministic steady measurement.
///
/// The adaptive run may have ended before the controller saw the final
/// profile, and mid-run decisions depend on timing. So the fixpoint
/// assesses once more against the *complete* counters and compiles
/// anything outstanding (synchronously, through the shared cache —
/// identical keys dedup across tenants here too; no VM is left to swap
/// into, so these are recorded with `mid_run: false`).
///
/// With `tier_down` the assessment is cumulative
/// ([`ProfilePolicy::assess_cumulative`]): the final override set is
/// exactly what the run's total null-arrival history justifies, dropping
/// any mid-run override whose site quiesced. Null arrivals are counted by
/// slot key (traps) and check id (caught nulls), both independent of
/// which tier's body was installed when a null arrived — so the settled
/// set is deterministic even though mid-run swap timing is not. Without
/// `tier_down` the set only grows, reproducing the original behavior.
///
/// [`ProfilePolicy::assess_cumulative`]: crate::ProfilePolicy::assess_cumulative
fn finalize_tenant(t: &TenantState<'_>, svc: &Shared<'_>) -> Result<TenantOutcome, Fault> {
    let adaptive = lock(&t.result)
        .take()
        .expect("carrier stored the adaptive result")?;
    let installs = std::mem::take(&mut *lock(&t.installs));
    let final_snap = t.hooks.snapshot();
    let (rt, tier0) = (&svc.rt, &t.tier0);
    let offset = |f| t.spec.module.field_offset(f);

    // Per-function running state: final body, overrides, tier traces.
    struct FuncState {
        body: Option<Arc<Function>>,
        overrides: ExplicitOverride,
        baseline: Option<SiteCounters>,
        traces: Vec<FunctionTrace>,
    }
    let mut funcs: Vec<FuncState> = (0..tier0.num_functions())
        .map(|fi| FuncState {
            body: None,
            overrides: ExplicitOverride::new(),
            baseline: None,
            traces: t
                .tier0_trace
                .function(tier0.function(FunctionId::new(fi)).name())
                .cloned()
                .into_iter()
                .collect(),
        })
        .collect();
    let mut recompiles = Vec::new();
    for install in installs {
        let st = &mut funcs[install.index];
        st.body = Some(Arc::clone(&install.artifact.body));
        st.overrides = install.overrides;
        st.baseline = Some(install.baseline);
        st.traces.push(install.artifact.trace.clone());
        recompiles.push(install.event);
    }

    for (fi, st) in funcs.iter_mut().enumerate() {
        let tier0_body = tier0.function(FunctionId::new(fi));
        let body: &Function = st.body.as_deref().unwrap_or(tier0_body);
        let (hot, want) = if rt.tier_down {
            let plan = rt.policy.assess_cumulative(
                fi,
                tier0_body,
                body,
                &offset,
                &svc.cfg1.compiler_trap,
                &final_snap.counters,
            );
            (plan.hot, plan.overrides)
        } else {
            let plan = rt.policy.assess(
                fi,
                body,
                &offset,
                &final_snap.counters,
                st.baseline.as_ref(),
            );
            let mut want = st.overrides.clone();
            for (off, kind) in plan.overrides.keys() {
                want.insert(off, kind);
            }
            (plan.hot, want)
        };
        if !hot || (st.body.is_some() && want == st.overrides) {
            continue; // cold, or already at the fixpoint
        }
        let Ok((artifact, cache_hit)) =
            catch_unwind(AssertUnwindSafe(|| svc.compile(&t.tier1_base, fi, &want)))
        else {
            // The fixpoint compile panicked: keep the last installed body
            // (or tier 0) instead of wedging the whole run.
            t.compile_panics.fetch_add(1, Ordering::Relaxed);
            svc.compile_panics.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        recompiles.push(RecompileEvent {
            function: tier0_body.name().to_string(),
            to_config: svc.cfg1.name.to_string(),
            overrides: want.len(),
            cache_hit,
            mid_run: false,
            at_calls: final_snap.calls,
        });
        st.body = Some(Arc::clone(&artifact.body));
        st.overrides = want;
        st.traces.push(artifact.trace.clone());
    }

    // Final bodies → the steady-state module. The fixpoint's settled
    // artifacts also count toward the tenant's isolated compile bill.
    let mut final_module = tier0.clone();
    let mut overrides = BTreeMap::new();
    let mut tier_traces = BTreeMap::new();
    {
        let mut keys = lock(&t.keys);
        for (fi, st) in funcs.into_iter().enumerate() {
            let fid = FunctionId::new(fi);
            let name = final_module.function(fid).name().to_string();
            if let Some(body) = &st.body {
                *final_module.function_mut(fid) = (**body).clone();
                keys.insert(CacheKey::new(
                    t.tier1_base.function(fid),
                    rt.tier1,
                    svc.cfg1.compiler_trap,
                    &st.overrides,
                ));
                overrides.insert(name.clone(), st.overrides);
            }
            tier_traces.insert(name, st.traces);
        }
    }

    let steady = Vm::new(&final_module, svc.platform)
        .with_config(rt.vm)
        .with_recovery(&t.spec.recovery)
        .run(&t.spec.entry, &t.spec.args)?;
    let mut recoveries = adaptive.stats.recoveries;
    recoveries.absorb(&steady.stats.recoveries);
    Ok(TenantOutcome {
        name: t.spec.name.clone(),
        outcome: RuntimeOutcome {
            adaptive,
            steady,
            recompiles,
            cache: svc.cache.stats(),
            overrides,
            mid_run_swaps: t.hooks.swapped_calls(),
            final_module,
            tier0_trace: t.tier0_trace.clone(),
            tier_traces,
            compile_panics: t.compile_panics.load(Ordering::Relaxed),
            recoveries,
        },
        distinct_keys: lock(&t.keys).len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::hot_field_workload;
    use crate::TieredRuntime;

    fn spec(name: &str, iters: i64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            module: hot_field_workload(),
            entry: "main".to_string(),
            args: vec![Value::Int(iters), Value::Ref(0)],
            recovery: RecoveryPolicy::abort(),
        }
    }

    #[test]
    fn two_identical_tenants_share_compiles_and_match_single_tenant() {
        let platform = Platform::windows_ia32();
        let service = ServiceRuntime::new(platform);
        let out = service.run(&[spec("a", 3000), spec("b", 3000)]).unwrap();
        out.verify().unwrap();

        let single = TieredRuntime::new(hot_field_workload(), platform)
            .run("main", &[Value::Int(3000), Value::Ref(0)])
            .unwrap();
        for t in &out.tenants {
            assert_eq!(
                t.outcome.final_module, single.final_module,
                "{}: service must settle on the single-tenant bodies",
                t.name
            );
            assert_eq!(t.outcome.steady.stats, single.steady.stats);
            assert_eq!(t.outcome.overrides, single.overrides);
            single.steady.assert_equivalent(&t.outcome.steady).unwrap();
        }
        assert!(
            out.compiles_performed < out.isolated_compiles,
            "shared cache must beat isolation: {} !< {}",
            out.compiles_performed,
            out.isolated_compiles
        );
    }

    #[test]
    fn fleet_survives_panicking_compile_jobs() {
        // Fault injection: every tier-1 compile of "hot" panics inside a
        // shared service worker, while holding the cross-tenant compile
        // lock. Before poison recovery, that one panic poisoned the lock
        // and every subsequent compile — for *every* tenant — panicked on
        // lock().unwrap(): one buggy job took down the whole fleet. Now
        // workers catch the unwind, poisoned locks are re-entered, and
        // every tenant completes with unchanged observable behavior
        // ("hot" simply stays at tier 0).
        let platform = Platform::windows_ia32();
        let mut config = ServiceConfig::for_platform(&platform);
        config.runtime.panic_on_compile_of = Some("hot");
        let service = ServiceRuntime::with_config(platform, config);
        let specs: Vec<TenantSpec> = (0..4).map(|i| spec(&format!("t{i}"), 3000)).collect();
        let out = service.run(&specs).unwrap();
        assert_eq!(out.tenants.len(), 4, "every tenant completed");
        assert!(out.compile_panics > 0, "the injected panic must fire");
        out.verify().unwrap();

        let clean = TieredRuntime::new(hot_field_workload(), platform)
            .run("main", &[Value::Int(3000), Value::Ref(0)])
            .unwrap();
        for t in &out.tenants {
            assert!(
                !t.outcome.overrides.contains_key("hot"),
                "{}: no tier-1 install for the panicking function",
                t.name
            );
            clean.steady.assert_equivalent(&t.outcome.steady).unwrap();
            clean
                .adaptive
                .assert_equivalent(&t.outcome.adaptive)
                .unwrap();
        }
    }

    #[test]
    fn service_reports_shard_and_queue_traffic() {
        let platform = Platform::windows_ia32();
        let mut config = ServiceConfig::for_platform(&platform);
        config.shards = 4;
        let service = ServiceRuntime::with_config(platform, config);
        let specs: Vec<TenantSpec> = (0..6).map(|i| spec(&format!("t{i}"), 2500)).collect();
        let out = service.run(&specs).unwrap();
        assert_eq!(out.tenants.len(), 6);
        assert_eq!(out.shards.len(), 4);
        assert!(out.cache.inserts > 0, "artifacts landed in the cache");
        let occupied: usize = out.shards.iter().map(|s| s.occupancy).sum();
        assert_eq!(
            occupied,
            out.cache.inserts as usize - out.cache.evictions as usize
        );
        assert!(
            out.dedup_hits > 0,
            "six identical tenants must share artifacts: {:?}",
            out.queue
        );
    }
}
