//! The tiered execution manager: profile → recompile → swap, mid-run.
//!
//! Tier 0 compiles the whole module at a cheap baseline configuration
//! (Whaley elimination + trivial trap conversion, the paper's "Old Null
//! Check") with site counters on, and starts the VM with a
//! [`RuntimeHooks`] control surface attached. A controller polls the
//! published profile; when the [`ProfilePolicy`] finds a hot function —
//! or, the interesting case, a hot *trapping* implicit site — the
//! function is recompiled at the optimizing tier with the trapping slots
//! forced explicit via [`ExplicitOverride`], by a compile worker fed
//! through the recompile queue. The finished body is installed into the
//! swap table and takes effect at the next call entry, heap and
//! observation trace carrying straight through.
//!
//! After the adaptive run, any outstanding policy verdict is compiled
//! synchronously (so the tiering always reaches its fixpoint), and a
//! second, *measurement* run executes the final bodies with no adaptation
//! — that run is fully deterministic, which is what the steady-state
//! benchmark reports.
//!
//! [`TieredRuntime`] owns none of this machinery: it runs its module as
//! the single tenant of a [`ServiceRuntime`], whose loop is the crate's
//! only adaptive control loop.
//!
//! [`RuntimeHooks`]: njc_vm::RuntimeHooks

use std::collections::BTreeMap;

use njc_arch::Platform;
use njc_core::ExplicitOverride;
use njc_ir::{BlockId, CheckId, FunctionId, Module};
use njc_observe::{
    reconcile_recovered_tiered, reconcile_tiered, FunctionTrace, ModuleTrace, RecompileEvent,
};
use njc_opt::ConfigKind;
use njc_recover::{RecoveryCounts, RecoveryPolicy};
use njc_vm::{Fault, Outcome, Value, VmConfig};

use crate::cache::CacheStats;
use crate::policy::ProfilePolicy;
use crate::queue::QueueConfig;
use crate::tenant::{ServiceConfig, ServiceRuntime, TenantSpec};

/// Knobs of the tiered loop.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RuntimeConfig {
    /// The profile policy (thresholds from the platform's cost model).
    pub policy: ProfilePolicy,
    /// Safe points between profile publications ([`RuntimeHooks::new`](njc_vm::RuntimeHooks::new)).
    pub snapshot_interval: u64,
    /// Code cache capacity, in artifacts.
    pub cache_capacity: usize,
    /// Compile worker threads for background recompilation. Tier compiles
    /// themselves run single-threaded ([`OptConfig::threads`] = 1): the
    /// workers are the parallelism, and the output is byte-identical at
    /// any thread count.
    ///
    /// [`OptConfig::threads`]: njc_opt::OptConfig::threads
    pub threads: usize,
    /// The baseline tier every function starts in.
    pub tier0: ConfigKind,
    /// The optimizing tier hot functions are recompiled at.
    pub tier1: ConfigKind,
    /// Run the interprocedural non-nullness inference (`njc-interproc`) in
    /// every tier compile. Mid-run recompiles re-infer over the prepared
    /// module, so swapped-in bodies carry the same entry assumptions the
    /// single-shot compile would.
    pub interproc: bool,
    /// Run the value-numbered forward non-nullness (`OptConfig::gvn`) in
    /// every tier compile, so copies, phi merges, and re-loaded fields
    /// keep their facts across recompiles too.
    pub gvn: bool,
    /// Tier *down* as well as up: drop overrides whose sites have
    /// quiesced (windowed mid-run via
    /// [`ProfilePolicy::assess_tier_down`], cumulative at the fixpoint
    /// via [`ProfilePolicy::assess_cumulative`]). Off reproduces the
    /// grow-only behavior.
    pub tier_down: bool,
    /// Controller sleep between profile polls, in microseconds. Large
    /// values fault-inject a *starved controller*: the profile goes stale
    /// between polls and recompiles land late or not at all — observable
    /// behavior must not change.
    pub controller_poll_micros: u64,
    /// Artificial delay inserted by workers between finishing a compile
    /// and installing it, in microseconds. Fault-injects a *delayed
    /// install channel* — observable behavior must not change.
    pub install_delay_micros: u64,
    /// Fault injection: every tier-1 compile of the named function
    /// panics mid-compile, as a buggy optimizer pass would. The runtime
    /// must survive — workers catch the unwind, poisoned locks are
    /// re-entered, the function simply stays at its last installed tier,
    /// and observable behavior must not change.
    pub panic_on_compile_of: Option<&'static str>,
    /// VM limits for both the adaptive and the measurement run.
    pub vm: VmConfig,
}

impl RuntimeConfig {
    /// Defaults for `platform`: break-even thresholds from its cost model,
    /// Old Null Check as tier 0, the full pipeline as tier 1.
    pub fn for_platform(platform: &Platform) -> Self {
        RuntimeConfig {
            policy: ProfilePolicy::from_cost(&platform.cost),
            snapshot_interval: 32,
            cache_capacity: 32,
            threads: 2,
            tier0: ConfigKind::OldNullCheck,
            tier1: ConfigKind::Full,
            interproc: false,
            gvn: false,
            tier_down: true,
            controller_poll_micros: 200,
            install_delay_micros: 0,
            panic_on_compile_of: None,
            vm: VmConfig::default(),
        }
    }
}

/// What one tiered run produced.
#[derive(Clone, Debug)]
pub struct RuntimeOutcome {
    /// The adaptive run: tier 0 with counters, swaps landing mid-run.
    /// Timing-dependent (when a swap lands shifts the cycle total) — use
    /// [`RuntimeOutcome::steady`] for reproducible measurements.
    pub adaptive: Outcome,
    /// The deterministic steady-state run over the final bodies.
    pub steady: Outcome,
    /// Every recompile, in completion order (mid-run installs first, then
    /// the post-run fixpoint pass).
    pub recompiles: Vec<RecompileEvent>,
    /// Code cache counters after the run.
    pub cache: CacheStats,
    /// Final override set per recompiled function name.
    pub overrides: BTreeMap<String, ExplicitOverride>,
    /// Calls that entered a swapped body during the adaptive run.
    pub mid_run_swaps: u64,
    /// The module the steady run executed: tier-0 bodies with every
    /// recompiled function replaced by its final tier-1 body.
    pub final_module: Module,
    /// Tier-0 provenance for the whole module.
    pub tier0_trace: ModuleTrace,
    /// Every tier's provenance per function, install order (tier 0
    /// first). Input to tiered reconciliation.
    pub tier_traces: BTreeMap<String, Vec<FunctionTrace>>,
    /// Compile jobs that panicked mid-compile and were survived: the
    /// worker caught the unwind, any poisoned lock was re-entered, and
    /// the function stayed at its last installed tier.
    pub compile_panics: u64,
    /// Hardware traps recovered per strategy across the adaptive *and*
    /// steady runs (both execute under the runtime's
    /// [`RecoveryPolicy`]). Recovered traps still count in
    /// `traps_taken`; this splits off the ones the policy kept alive.
    pub recoveries: RecoveryCounts,
}

impl RuntimeOutcome {
    /// Tiered reconciliation of the *adaptive* run: every hardware trap
    /// and every executed explicit check must resolve to a provenance
    /// record in some installed tier of its function.
    ///
    /// # Errors
    /// One line per unexplained observation.
    pub fn reconcile(&self) -> Result<(), Vec<String>> {
        let mut failures = Vec::new();
        for fi in 0..self.final_module.num_functions() {
            let name = self.final_module.function(FunctionId::new(fi)).name();
            let Some(tiers) = self.tier_traces.get(name) else {
                failures.push(format!("{name}: no tier traces"));
                continue;
            };
            let refs: Vec<&FunctionTrace> = tiers.iter().collect();
            let traps: Vec<(BlockId, usize)> = self
                .adaptive
                .site_counts
                .traps
                .keys()
                .filter(|(f, _, _)| *f as usize == fi)
                .map(|&(_, b, i)| (BlockId::new(b as usize), i as usize))
                .collect();
            let checks: Vec<CheckId> = self
                .adaptive
                .site_counts
                .explicit_checks
                .keys()
                .filter(|(f, _)| *f as usize == fi)
                .map(|&(_, id)| CheckId(id))
                .collect();
            if let Err(mut missing) = reconcile_tiered(&refs, &traps, &checks) {
                failures.append(&mut missing);
            }
            // The recovered-trap conservation law: every recovered trap
            // resolves to site provenance in some tier, and no site
            // recovers more traps than it took.
            let recovered: Vec<(BlockId, usize, u64)> = self
                .adaptive
                .site_counts
                .recoveries
                .iter()
                .filter(|((f, _, _), _)| *f as usize == fi)
                .map(|(&(_, b, i), &n)| (BlockId::new(b as usize), i as usize, n))
                .collect();
            let trap_counts: Vec<(BlockId, usize, u64)> = self
                .adaptive
                .site_counts
                .traps
                .iter()
                .filter(|((f, _, _), _)| *f as usize == fi)
                .map(|(&(_, b, i), &n)| (BlockId::new(b as usize), i as usize, n))
                .collect();
            if let Err(mut missing) = reconcile_recovered_tiered(&refs, &recovered, &trap_counts) {
                failures.append(&mut missing);
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }

    /// Verifies the tiering converged: in every overridden function's
    /// final body, each override slot still has its access, *none* of
    /// those accesses is a marked implicit site, and the tier's provenance
    /// records the override-caused explicit checks.
    ///
    /// # Errors
    /// One line per violated condition.
    pub fn verify_convergence(&self) -> Result<(), Vec<String>> {
        use njc_observe::{CheckEvent, ExplicitCause};
        let mut failures = Vec::new();
        for (name, ov) in &self.overrides {
            if ov.is_empty() {
                continue;
            }
            let Some(fid) = self.final_module.function_by_name(name) else {
                failures.push(format!("{name}: overridden function missing"));
                continue;
            };
            let body = self.final_module.function(fid);
            let offset = |f| self.final_module.field_offset(f);
            let mut seen = ExplicitOverride::new();
            for block in body.blocks() {
                for inst in &block.insts {
                    let Some(sa) = inst.slot_access(offset) else {
                        continue;
                    };
                    let Some(off) = sa.offset else { continue };
                    if !ov.contains(off, sa.kind) {
                        continue;
                    }
                    seen.insert(off, sa.kind);
                    if inst.is_exception_site() {
                        failures.push(format!(
                            "{name}: override slot (+{off}, {:?}) still carries an implicit site",
                            sa.kind
                        ));
                    }
                }
            }
            for (off, kind) in ov.keys() {
                if !seen.contains(off, kind) {
                    failures.push(format!(
                        "{name}: override slot (+{off}, {kind:?}) has no access in the final body"
                    ));
                }
            }
            let override_events = self
                .tier_traces
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
                .unwrap_or(0);
            if override_events == 0 {
                failures.push(format!(
                    "{name}: no override-caused explicit check in the final tier's provenance"
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// The tiered execution manager: one module run as the single tenant of
/// a private [`ServiceRuntime`]. The service's code cache persists across
/// runs, so repeating a run hits instead of recompiling.
#[derive(Debug)]
pub struct TieredRuntime {
    module: Module,
    recovery: RecoveryPolicy,
    service: ServiceRuntime,
}

impl TieredRuntime {
    /// A runtime for `module` with [`RuntimeConfig::for_platform`] knobs.
    pub fn new(module: Module, platform: Platform) -> Self {
        let config = RuntimeConfig::for_platform(&platform);
        Self::with_config(module, platform, config)
    }

    /// A runtime with explicit knobs: a one-tenant service with one
    /// `cache_capacity`-artifact shard, `threads` compile workers, and one
    /// VM carrier.
    pub fn with_config(module: Module, platform: Platform, config: RuntimeConfig) -> Self {
        let service = ServiceRuntime::with_config(
            platform,
            ServiceConfig {
                shards: 1,
                shard_capacity: config.cache_capacity,
                queue: QueueConfig::default(),
                workers: config.threads,
                carriers: 1,
                runtime: config,
            },
        );
        TieredRuntime {
            module,
            recovery: RecoveryPolicy::abort(),
            service,
        }
    }

    /// Attaches a trap-recovery policy: both the adaptive and the steady
    /// run dispatch it at registered implicit sites that trap. The
    /// default ([`RecoveryPolicy::abort`]) reproduces the pre-recovery
    /// behavior exactly.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Code cache counters, cumulative over every run of this runtime.
    pub fn cache_stats(&self) -> CacheStats {
        self.service.cache().stats()
    }

    /// Runs `entry(args)` through the profile → recompile → swap loop,
    /// then once more (steady state) on the final bodies.
    ///
    /// # Errors
    /// [`Fault::InvalidSetting`] when the profile policy's ratio is not a
    /// finite, non-negative number, and [`Fault::IllTyped`] naming the
    /// verifier's first error when the module does not verify (nothing is
    /// compiled then); otherwise VM [`Fault`]s from either run, including
    /// a wrong entry arity.
    pub fn run(&self, entry: &str, args: &[Value]) -> Result<RuntimeOutcome, Fault> {
        let spec = TenantSpec {
            name: entry.to_string(),
            module: self.module.clone(),
            entry: entry.to_string(),
            args: args.to_vec(),
            recovery: self.recovery.clone(),
        };
        let out = self.service.run(std::slice::from_ref(&spec))?;
        let tenant = out
            .tenants
            .into_iter()
            .next()
            .expect("one tenant, one outcome");
        Ok(tenant.outcome)
    }
}
