//! The optimization pipeline of the paper's Figure 2, and the experiment
//! configurations of §5.
//!
//! The architecture *independent* null check optimization (phase 1) is
//! iterated together with array bounds check optimization and scalar
//! replacement — each pass enables the next — and the architecture
//! *dependent* optimization (phase 2) runs once at the end. The evaluation
//! configurations of Tables 1–2 and 6–7 are all expressible as
//! [`ConfigKind`] presets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use njc_arch::{Platform, TrapModel};
use njc_core::ctx::{AnalysisCtx, EntryAssumptions, ExplicitOverride};
use njc_core::{collect_site_records, phase1, phase2, trivial, whaley, NullCheckStats, Workspace};
use njc_ir::{CfgCache, Function, FunctionId, Module};
use njc_observe::{CheckEvent, FunctionTrace, Ledger, ModuleTrace, PassClock, Recorder};

use crate::boundcheck;
use crate::copyprop;
use crate::dce;
use crate::inline::{self, InlineConfig};
use crate::intrinsics;
use crate::loops::LoopCache;
use crate::scalar::{self, ScalarConfig};
use crate::sink;
use crate::versioning;

/// Which null check optimization the configuration runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NullOpt {
    /// No null check optimization at all.
    None,
    /// Whaley's forward elimination (the paper's "Old Null Check").
    Whaley,
    /// The paper's phase 1 (architecture independent), iterated.
    Phase1,
}

/// A fully resolved pipeline configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct OptConfig {
    /// Display name (matches the paper's table row labels).
    pub name: &'static str,
    /// Null check optimization level.
    pub null_opt: NullOpt,
    /// Run the architecture dependent optimization (phase 2).
    pub phase2: bool,
    /// Apply the trivial trap conversion (when phase 2 is off).
    pub trivial_trap: bool,
    /// The trap model the *compiler* assumes. Usually the platform's; the
    /// "No Hardware Trap" baseline uses [`TrapModel::no_traps`], and the
    /// §5.4 "Illegal Implicit" configuration pretends reads trap on AIX.
    pub compiler_trap: TrapModel,
    /// Speculative hoisting of silent reads (§3.3.1, Tables 6–7).
    pub speculation: bool,
    /// Devirtualize + inline before optimizing.
    pub inline: bool,
    /// Upper bound on the phase1/boundcheck/scalar rounds of Figure 2's
    /// loop. The loop stops early at its fixed point — after the first
    /// round that leaves the function unchanged, since every later round
    /// would repeat it — so raising the bound past convergence costs
    /// nothing and changes no output.
    pub iterations: usize,
    /// Loop versioning for bounds check removal (ablation toggle).
    pub versioning: bool,
    /// Store sinking / register promotion (ablation toggle).
    pub sinking: bool,
    /// Run the static validator (`njc-analysis`) between passes, recording
    /// any soundness violation in [`PipelineStats::validation_failures`]
    /// tagged with the pass that introduced it. Off in the presets; see
    /// [`optimize_module_validated`].
    pub validate: bool,
    /// Interprocedural non-nullness inference (`njc-interproc`): run the
    /// call-graph fixpoint over the prepared module and seed phase 1's
    /// forward analysis with the inferred parameter, return, and field
    /// facts. Off in every preset (the paper's algorithm is purely
    /// intraprocedural); when off the optimizer output is byte-identical
    /// to a build without this feature.
    pub interproc: bool,
    /// Value-numbered forward non-nullness (`njc-core`'s `gvn` module):
    /// run phase 1 / the Whaley baseline with a second, value-number
    /// indexed non-nullness solution alongside the per-variable one, so
    /// facts survive copies, phi merges, and re-loaded fields. Kills the
    /// legacy analysis cannot justify are attributed `Redundancy::Gvn`.
    /// Off in every preset; when off the optimizer output is
    /// byte-identical to a build without this feature.
    pub gvn: bool,
    /// Worker threads for the per-function stages. Functions are optimized
    /// independently (every pass reads the module only for class and field
    /// layout), so any thread count produces the same module and the same
    /// counters. Per-pass timings are thread CPU time, so they too stay
    /// meaningful under any thread count; elapsed real time is reported
    /// separately in [`PipelineStats::wall_time`]. Values are clamped to
    /// `1..=num_functions`, and [`OptConfig::validate`] forces sequential
    /// execution.
    pub threads: usize,
}

/// Named configuration presets: one per row of the paper's tables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConfigKind {
    /// "No Null Opt. (No Hardware Trap)" — explicit checks everywhere.
    NoNullOptNoTrap,
    /// "No Null Opt. (Hardware Trap)" — trivial trap conversion only.
    NoNullOptTrap,
    /// "Old Null Check" — Whaley's elimination + trivial conversion.
    OldNullCheck,
    /// "New Null Check (Phase1 only)".
    Phase1Only,
    /// "New Null Check (Phase1+Phase2)".
    Full,
    /// Reference second compiler (the HotSpot column stand-in; see
    /// DESIGN.md §5 for the substitution rationale).
    RefJit,
    /// AIX "Speculation": phase 1, all checks explicit, reads speculated.
    AixSpeculation,
    /// AIX "No Speculation": phase 1, all checks explicit.
    AixNoSpeculation,
    /// AIX "No Null Check Optimization".
    AixNoNullOpt,
    /// AIX "Illegal Implicit (No Speculation)": the Intel phase 2 applied
    /// on AIX, violating the Java specification (§5.4, experiment only).
    AixIllegalImplicit,
}

impl ConfigKind {
    /// Every Windows/IA32 configuration of Tables 1–2, in table row order.
    pub fn table12_rows() -> [ConfigKind; 5] {
        [
            ConfigKind::Full,
            ConfigKind::Phase1Only,
            ConfigKind::OldNullCheck,
            ConfigKind::NoNullOptTrap,
            ConfigKind::NoNullOptNoTrap,
        ]
    }

    /// Every AIX configuration of Tables 6–7, in table row order.
    pub fn table67_rows() -> [ConfigKind; 4] {
        [
            ConfigKind::AixSpeculation,
            ConfigKind::AixNoSpeculation,
            ConfigKind::AixNoNullOpt,
            ConfigKind::AixIllegalImplicit,
        ]
    }

    /// Every preset, in declaration order.
    pub const ALL: [ConfigKind; 10] = [
        ConfigKind::NoNullOptNoTrap,
        ConfigKind::NoNullOptTrap,
        ConfigKind::OldNullCheck,
        ConfigKind::Phase1Only,
        ConfigKind::Full,
        ConfigKind::RefJit,
        ConfigKind::AixSpeculation,
        ConfigKind::AixNoSpeculation,
        ConfigKind::AixNoNullOpt,
        ConfigKind::AixIllegalImplicit,
    ];

    /// Stable lower-case name, as accepted by `--config`.
    pub fn as_str(self) -> &'static str {
        match self {
            ConfigKind::NoNullOptNoTrap => "none",
            ConfigKind::NoNullOptTrap => "trap",
            ConfigKind::OldNullCheck => "old",
            ConfigKind::Phase1Only => "phase1",
            ConfigKind::Full => "full",
            ConfigKind::RefJit => "refjit",
            ConfigKind::AixSpeculation => "speculation",
            ConfigKind::AixNoSpeculation => "no-speculation",
            ConfigKind::AixNoNullOpt => "aix-none",
            ConfigKind::AixIllegalImplicit => "illegal-implicit",
        }
    }

    /// Parses the stable name back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Resolves the preset against a platform.
    pub fn to_config(self, platform: &Platform) -> OptConfig {
        let trap = platform.trap;
        match self {
            ConfigKind::NoNullOptNoTrap => OptConfig {
                name: "No Null Opt. (No Hardware Trap)",
                null_opt: NullOpt::None,
                phase2: false,
                trivial_trap: false,
                compiler_trap: TrapModel::no_traps(),
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::NoNullOptTrap => OptConfig {
                name: "No Null Opt. (Hardware Trap)",
                null_opt: NullOpt::None,
                phase2: false,
                trivial_trap: true,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::OldNullCheck => OptConfig {
                name: "Old Null Check",
                null_opt: NullOpt::Whaley,
                phase2: false,
                trivial_trap: true,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::Phase1Only => OptConfig {
                name: "New Null Check (Phase1 only)",
                null_opt: NullOpt::Phase1,
                phase2: false,
                trivial_trap: true,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::Full => OptConfig {
                name: "New Null Check (Phase1+Phase2)",
                null_opt: NullOpt::Phase1,
                phase2: true,
                trivial_trap: false,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::RefJit => OptConfig {
                name: "RefJit (HotSpot stand-in)",
                null_opt: NullOpt::Whaley,
                phase2: false,
                trivial_trap: true,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 1,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::AixSpeculation => OptConfig {
                name: "Speculation",
                null_opt: NullOpt::Phase1,
                phase2: false,
                trivial_trap: false, // §5.4: all null checks explicit on AIX
                compiler_trap: trap,
                speculation: true,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::AixNoSpeculation => OptConfig {
                name: "No Speculation",
                null_opt: NullOpt::Phase1,
                phase2: false,
                trivial_trap: false,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::AixNoNullOpt => OptConfig {
                name: "No Null Check Optimization",
                null_opt: NullOpt::None,
                phase2: false,
                trivial_trap: false,
                compiler_trap: trap,
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
            ConfigKind::AixIllegalImplicit => OptConfig {
                name: "Illegal Implicit (No Speculation)",
                null_opt: NullOpt::Phase1,
                phase2: true,
                trivial_trap: false,
                // Pretend the platform traps on reads and writes — on AIX
                // this is a lie and a NullPointerException may be missed
                // (§5.4; the VM records the violation).
                compiler_trap: TrapModel::windows_ia32(),
                speculation: false,
                inline: true,
                iterations: 3,
                versioning: true,
                sinking: true,
                validate: false,
                interproc: false,
                gvn: false,
                threads: 1,
            },
        }
    }
}

/// Aggregate pipeline statistics, including per-pass CPU-time breakdowns
/// for the compile-time experiments (Tables 3–5).
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Null check pass statistics.
    pub null_checks: NullCheckStats,
    /// Calls devirtualized / inlined.
    pub inline: inline::InlineStats,
    /// Intrinsic substitutions.
    pub intrinsics: intrinsics::IntrinsicStats,
    /// Bounds checks eliminated (redundancy + versioning).
    pub boundchecks_eliminated: usize,
    /// Loops versioned behind bounds guards.
    pub loops_versioned: usize,
    /// Fields promoted to registers across loops (store sinking).
    pub fields_promoted: usize,
    /// Scalar replacement totals.
    pub scalar: scalar::ScalarStats,
    /// Copy uses propagated.
    pub copies_propagated: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Per-pass *thread CPU time*, accumulated over all functions and
    /// iterations. Keys: "nullcheck", "inline", "intrinsics", "boundcheck",
    /// "scalar", "cleanup". Each sample is taken with
    /// [`njc_observe::PassClock`] on the worker thread that ran the pass,
    /// so the breakdown is free of cross-thread pollution: a pass never
    /// gets billed for time another worker spent running. The sum over
    /// passes therefore *exceeds* [`PipelineStats::wall_time`] whenever
    /// workers overlap.
    pub timings: Vec<(&'static str, Duration)>,
    /// Elapsed real time for the whole [`optimize_module`] run, measured
    /// once at module level. Compare with [`PipelineStats::total_time`]
    /// (summed CPU time) to see parallel speedup.
    pub wall_time: Duration,
    /// Violations found by the static validator when [`OptConfig::validate`]
    /// is on, each prefixed with the `[stage]` that produced it. Empty
    /// means every validated stage was proven sound.
    pub validation_failures: Vec<String>,
    /// Interprocedural inference statistics (module level; all zero when
    /// [`OptConfig::interproc`] is off or nothing was inferred).
    pub interproc: njc_interproc::InferStats,
}

impl PipelineStats {
    fn add_time(&mut self, pass: &'static str, d: Duration) {
        if let Some(t) = self.timings.iter_mut().find(|(n, _)| *n == pass) {
            t.1 += d;
        } else {
            self.timings.push((pass, d));
        }
    }

    /// Total time spent in the null check optimization passes.
    pub fn nullcheck_time(&self) -> Duration {
        self.timings
            .iter()
            .filter(|(n, _)| *n == "nullcheck")
            .map(|(_, d)| *d)
            .sum()
    }

    /// Total time spent in all passes.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|(_, d)| *d).sum()
    }

    /// Merges one function's pipeline statistics into the module-wide
    /// aggregate. [`optimize_module`] calls this in function-index order,
    /// so the aggregate is independent of worker scheduling.
    fn merge_function(&mut self, other: &PipelineStats) {
        self.null_checks.merge(&other.null_checks);
        self.boundchecks_eliminated += other.boundchecks_eliminated;
        self.loops_versioned += other.loops_versioned;
        self.fields_promoted += other.fields_promoted;
        self.scalar.hoisted_loads += other.scalar.hoisted_loads;
        self.scalar.speculative_loads += other.scalar.speculative_loads;
        self.scalar.hoisted_pure += other.scalar.hoisted_pure;
        self.scalar.hoisted_boundchecks += other.scalar.hoisted_boundchecks;
        self.scalar.local_loads_reused += other.scalar.local_loads_reused;
        self.copies_propagated += other.copies_propagated;
        self.dead_removed += other.dead_removed;
        for (pass, d) in &other.timings {
            self.add_time(pass, *d);
        }
        self.validation_failures
            .extend(other.validation_failures.iter().cloned());
    }
}

/// Records pair + invariant validator findings around one null check pass.
#[allow(clippy::too_many_arguments)]
fn validate_null_pass(
    stats: &mut PipelineStats,
    module: &Module,
    machine: TrapModel,
    assumptions: Option<&EntryAssumptions>,
    stage: &str,
    orig: &njc_ir::Function,
    opt: &njc_ir::Function,
    invariant: bool,
) {
    for v in njc_analysis::validate_pair_assumed(module, machine, assumptions, orig, opt) {
        stats.validation_failures.push(format!("[{stage}] {v}"));
    }
    if invariant {
        for v in njc_analysis::check_path_invariant(orig, opt) {
            stats.validation_failures.push(format!("[{stage}] {v}"));
        }
    }
}

/// Records coverage validator findings for one function after a pass.
fn validate_coverage(
    stats: &mut PipelineStats,
    module: &Module,
    machine: TrapModel,
    assumptions: Option<&EntryAssumptions>,
    stage: &str,
    func: &njc_ir::Function,
) {
    for v in njc_analysis::validate_function_assumed(module, machine, assumptions, func) {
        stats.validation_failures.push(format!("[{stage}] {v}"));
    }
}

/// Runs the configured pipeline over every function of `module` in place.
pub fn optimize_module(
    module: &mut Module,
    platform: &Platform,
    config: &OptConfig,
) -> PipelineStats {
    optimize_module_impl(module, platform, config, false).0
}

/// [`optimize_module`] with provenance: every null check carries a stable
/// id, every pass records what it did to which check, and the returned
/// [`ModuleTrace`] holds the per-function event streams, final-IR site
/// maps, and balanced conservation ledgers (function-index order, so the
/// trace — like the module — is identical across thread counts).
///
/// The traced and untraced pipelines produce byte-identical IR: id
/// allocation always runs (ids live in the IR), only event collection is
/// switched on here.
pub fn optimize_module_traced(
    module: &mut Module,
    platform: &Platform,
    config: &OptConfig,
) -> (PipelineStats, ModuleTrace) {
    let (stats, functions) = optimize_module_impl(module, platform, config, true);
    let trace = ModuleTrace {
        config: config.name.to_string(),
        platform: platform.name.to_string(),
        functions,
    };
    (stats, trace)
}

/// Runs the **module-level** passes only — intrinsic substitution,
/// devirtualization + inlining, and (under `validate`) the input check —
/// leaving every function ready for the per-function stages.
///
/// [`optimize_module`] is exactly `prepare_module` followed by
/// per-function optimization; the adaptive runtime calls this once per
/// tier and then recompiles individual hot functions through
/// [`optimize_function_overridden`] against the prepared module, which is
/// what makes a per-function recompile byte-identical to the function's
/// slice of a single-shot module compile.
pub fn prepare_module(
    module: &mut Module,
    platform: &Platform,
    config: &OptConfig,
) -> PipelineStats {
    let mut stats = PipelineStats::default();

    // Intrinsic substitution (before inlining: an intrinsified call site is
    // no longer a call, so it stops being an inline candidate or barrier).
    if platform.has_fp_intrinsics {
        let mut clock = PassClock::start();
        stats.intrinsics = intrinsics::run(module);
        stats.add_time("intrinsics", clock.lap());
    }

    // Devirtualization + inlining (Figure 1 / §5.1 mtrt).
    if config.inline {
        let mut clock = PassClock::start();
        stats.inline = inline::run(module, InlineConfig::default());
        stats.add_time("inline", clock.lap());
    }

    // Baseline validation of the module as handed to the iterated loop:
    // everything is still an explicit check here, so any violation is in
    // the *input* (or in intrinsics/inlining), not a null check pass.
    if config.validate {
        for v in njc_analysis::validate_module(module, platform.trap).violations {
            stats.validation_failures.push(format!("[input] {v}"));
        }
    }
    stats
}

fn optimize_module_impl(
    module: &mut Module,
    platform: &Platform,
    config: &OptConfig,
    traced: bool,
) -> (PipelineStats, Vec<FunctionTrace>) {
    let wall = Instant::now();
    let mut stats = prepare_module(module, platform, config);

    // Interprocedural non-nullness inference runs at module level: it must
    // see every real function body, so it goes after the module passes and
    // before the functions are checked out (the checked-out module holds
    // placeholder bodies). Inferring nothing is normalized to `None`, which
    // keeps the `interproc: true` pipeline byte-identical to `false` on
    // fact-free modules.
    let assumptions = config
        .interproc
        .then(|| {
            let mut clock = PassClock::start();
            let (asm, istats) = njc_interproc::infer_with_stats(module);
            stats.interproc = istats;
            stats.add_time("interproc", clock.lap());
            asm
        })
        .filter(|a| !a.is_empty());
    let asm = assumptions.as_ref();

    // Per-function stages: Figure 2's iterated architecture-independent
    // loop, loop versioning, and the architecture-dependent phase. Every
    // pass below reads the module only for class and field layout, so the
    // functions are checked out all at once and optimized independently —
    // on worker threads when `config.threads > 1`. Result slots are merged
    // in function-index order, which keeps every counter (and the output
    // module) identical across thread counts.
    let n = module.num_functions();
    let mut funcs: Vec<Function> = (0..n)
        .map(|fi| take_function(module, FunctionId::new(fi)))
        .collect();
    let threads = effective_threads(config, n);
    let results: Vec<(PipelineStats, Option<FunctionTrace>)> = if threads <= 1 {
        funcs
            .iter_mut()
            .map(|f| optimize_function_traced(module, platform, config, asm, f, traced))
            .collect()
    } else {
        optimize_functions_parallel(module, platform, config, asm, &mut funcs, threads, traced)
    };
    let mut traces = Vec::new();
    for (r, t) in results {
        stats.merge_function(&r);
        traces.extend(t);
    }
    for (fi, func) in funcs.into_iter().enumerate() {
        put_function(module, FunctionId::new(fi), func);
    }

    // In debug builds, verify the whole module after optimization: any
    // pass that produced ill-formed IR fails loudly here rather than
    // confusingly in the VM.
    #[cfg(debug_assertions)]
    if let Err(errors) = njc_ir::verify_module(module) {
        panic!(
            "pipeline `{}` produced unverifiable IR: {}",
            config.name,
            errors
                .iter()
                .take(3)
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    stats.wall_time = wall.elapsed();
    (stats, traces)
}

/// Runs [`optimize_module`] with the static validator forced on and turns
/// any violation into an `Err`, one line per finding, each tagged with the
/// stage that introduced it — the translation-validation entry point.
pub fn optimize_module_validated(
    module: &mut Module,
    platform: &Platform,
    config: &OptConfig,
) -> Result<PipelineStats, String> {
    let cfg = OptConfig {
        validate: true,
        ..*config
    };
    let stats = optimize_module(module, platform, &cfg);
    if stats.validation_failures.is_empty() {
        Ok(stats)
    } else {
        Err(stats.validation_failures.join("\n"))
    }
}

/// Resolved worker count for the per-function stages. Validation forces
/// sequential execution so violation messages arrive in the order the
/// sequential pipeline reports them; otherwise the configured count is
/// clamped to the number of functions (spawning idle workers is waste).
fn effective_threads(config: &OptConfig, num_functions: usize) -> usize {
    if config.validate {
        1
    } else {
        config.threads.clamp(1, num_functions.max(1))
    }
}

/// [`optimize_function`] plus provenance assembly: runs the function with
/// a fresh [`Recorder`] (enabled iff `traced`) and, when tracing, folds the
/// recorded events, the final-IR site map, and the per-function statistics
/// into a [`FunctionTrace`] whose [`Ledger`] obeys the conservation law.
fn optimize_function_traced(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
    assumptions: Option<&EntryAssumptions>,
    func: &mut Function,
    traced: bool,
) -> (PipelineStats, Option<FunctionTrace>) {
    let mut rec = Recorder::new(traced);
    let stats = optimize_function(module, platform, config, assumptions, func, None, &mut rec);
    let trace = traced.then(|| build_trace(func, &stats, rec));
    (stats, trace)
}

/// The public per-function recompile entry point: runs every per-function
/// stage on `func` against an already-[`prepare_module`]d `module`, with an
/// optional profile-driven [`ExplicitOverride`] set threaded into the
/// architecture-dependent phase (phase 2 materializes explicit checks at
/// the overridden slot keys instead of converting them to traps).
///
/// With `overrides = None` this is byte-identical to the function's slice
/// of [`optimize_module`] / [`optimize_module_traced`] on the same prepared
/// module — same IR, same [`CheckId`](njc_ir::CheckId) assignment (ids are
/// assigned deterministically from the pristine body, so a recompile
/// reproduces them), same ledger. The adaptive runtime's code cache relies
/// on that determinism for artifact byte-identity between a cache hit and a
/// recompile.
pub fn optimize_function_overridden(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
    func: &mut Function,
    overrides: Option<&ExplicitOverride>,
    traced: bool,
) -> (PipelineStats, Option<FunctionTrace>) {
    // Interprocedural facts are a whole-module fixpoint; re-inferring them
    // over the prepared module (whose bodies are all real on this path)
    // reproduces exactly the facts the single-shot module compile used, so
    // the recompile stays byte-identical.
    let owned = config
        .interproc
        .then(|| njc_interproc::infer(module))
        .filter(|a| !a.is_empty());
    let mut rec = Recorder::new(traced);
    let stats = optimize_function(
        module,
        platform,
        config,
        owned.as_ref(),
        func,
        overrides,
        &mut rec,
    );
    let trace = traced.then(|| build_trace(func, &stats, rec));
    (stats, trace)
}

/// Folds one optimized function's recorder into its [`FunctionTrace`].
///
/// The ledger's insertion side comes from the pass statistics (origins,
/// phase 1 insertions, phase 2 respawns, positive pass deltas); the fate
/// side from conversions, the final explicit count, eliminations, merges,
/// postponements, negative pass deltas, and substitutions. `Ledger::check`
/// holding for every function is the static half of the reconciliation.
fn build_trace(func: &Function, stats: &PipelineStats, rec: Recorder) -> FunctionTrace {
    let nc = &stats.null_checks;
    let mut ledger = Ledger {
        origins: rec
            .events
            .iter()
            .filter(|e| matches!(e, CheckEvent::Origin { .. }))
            .count() as u64,
        phase1_inserted: nc.phase1.inserted as u64,
        respawned: nc.phase2.respawned as u64,
        converted_implicit: (nc.phase2.converted_implicit + nc.trivial.converted) as u64,
        explicit_final: phase2::count_explicit(func) as u64,
        phase1_eliminated: nc.phase1.eliminated as u64,
        whaley_eliminated: nc.whaley.eliminated as u64,
        merged: nc.phase2.merged as u64,
        postponed: nc.phase2.postponed as u64,
        substituted: nc.phase2.substituted as u64,
        ..Ledger::default()
    };
    for ev in &rec.events {
        if let CheckEvent::PassDelta { delta, .. } = ev {
            if *delta > 0 {
                ledger.other_inserted += *delta as u64;
            } else {
                ledger.other_removed += delta.unsigned_abs();
            }
        }
    }
    FunctionTrace {
        function: func.name().to_string(),
        events: rec.events,
        sites: rec.sites,
        ledger,
    }
}

/// Records a [`CheckEvent::PassDelta`] for a pass that is not a null check
/// pass but changed the number of explicit checks anyway (loop versioning
/// duplicating a guarded body, dead code elimination dropping an
/// unreachable one). `before` is `None` when tracing is off.
fn record_pass_delta(
    rec: &mut Recorder,
    pass: &'static str,
    before: Option<usize>,
    func: &Function,
) {
    if let Some(before) = before {
        let delta = phase2::count_explicit(func) as i64 - before as i64;
        if delta != 0 {
            rec.record(CheckEvent::PassDelta { pass, delta });
        }
    }
}

/// Explicit check count ahead of a sandwiched pass, taken only when the
/// recorder is enabled (the untraced pipeline skips the scans entirely).
fn checks_before(rec: &Recorder, func: &Function) -> Option<usize> {
    rec.is_enabled().then(|| phase2::count_explicit(func))
}

/// Runs every per-function stage on one checked-out function: the iterated
/// architecture-independent loop, loop versioning, and the architecture-
/// dependent phase. `module` is read only for class and field layout (all
/// its function bodies may be placeholders), which is what makes the
/// per-function parallelism of [`optimize_module`] sound. One [`CfgCache`]
/// serves every analysis of the function; passes that rewrite instruction
/// lists without touching the CFG leave it warm.
///
/// Figure 2's loop stops at its fixed point: a round that leaves the
/// function unchanged, draws no check id and records no event has a
/// deterministic successor that does exactly the same nothing, so every
/// later round is skipped ([`OptConfig::iterations`] is an upper bound).
///
/// All per-pass timings are laps of one [`PassClock`] — thread CPU time —
/// so a pass is only ever billed for cycles this worker actually spent in
/// it, regardless of how many sibling workers run concurrently.
fn optimize_function(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
    assumptions: Option<&EntryAssumptions>,
    func: &mut Function,
    overrides: Option<&ExplicitOverride>,
    rec: &mut Recorder,
) -> PipelineStats {
    let mut stats = PipelineStats::default();
    let ctx = match overrides {
        Some(ov) => AnalysisCtx::with_overrides(module, config.compiler_trap, ov),
        None => AnalysisCtx::new(module, config.compiler_trap),
    }
    .with_assumptions(assumptions);
    let pipeline = FunctionPipeline {
        module,
        platform,
        config,
        assumptions,
        ctx,
    };
    let mut fw = FunctionWorkspace::default();

    // Every check the function arrives with gets its stable identity (and,
    // when tracing, an origin event) before any pass touches it.
    rec.assign_origins(func);

    // Figure 2's iterated architecture-independent loop, up to its fixed
    // point. The last permitted round needs no snapshot: nothing follows it.
    // One snapshot is refilled in place each round.
    let mut clock = PassClock::start();
    let rounds = config.iterations.max(1);
    let mut snapshot: Option<Function> = None;
    for round in 1..=rounds {
        let before = (round < rounds).then(|| {
            match &mut snapshot {
                Some(s) => s.clone_from(func),
                None => snapshot = Some(func.clone()),
            }
            (rec.issued(), rec.events.len())
        });
        pipeline.round(func, &mut fw, rec, &mut stats, &mut clock);
        if let (Some((issued, events)), Some(snapshot)) = (before, &snapshot) {
            if *func == *snapshot && rec.issued() == issued && rec.events.len() == events {
                #[cfg(debug_assertions)]
                {
                    pipeline.assert_fixed_point(func, &fw, rec);
                    clock.lap();
                }
                break;
            }
        }
    }
    let ctx = &pipeline.ctx;
    let FunctionWorkspace { cfg, loops, ws } = &mut fw;

    // Array bounds check optimization, part 2: loop versioning. Runs once
    // after the iterated loop (versioning duplicates loop bodies, which
    // would defeat later scalar-replacement rounds) — and it is effective
    // only where scalar replacement could hoist the array lengths, i.e.
    // where phase 1 hoisted the null checks first.
    let before = checks_before(rec, func);
    if config.versioning {
        let s = versioning::run(func, cfg, loops);
        stats.loops_versioned += s.loops_versioned;
        stats.boundchecks_eliminated += s.checks_removed;
    }
    // Clean up after the duplication, then give store sinking one more
    // chance: versioned fast loops just lost their bounds checks and may
    // now be promotable.
    stats.copies_propagated += copyprop::run(func).replaced_uses;
    stats.dead_removed += dce::run(func, cfg, &mut ws.solver).removed;
    if config.sinking {
        stats.fields_promoted += sink::run(ctx, func, cfg, loops, ws).promoted;
    }
    record_pass_delta(rec, "versioning", before, func);
    if config.validate {
        validate_coverage(
            &mut stats,
            module,
            platform.trap,
            assumptions,
            "versioning",
            func,
        );
    }
    stats.add_time("boundcheck", clock.lap());

    // Architecture dependent phase (or the trivial conversion).
    let orig = config.validate.then(|| func.clone());
    if config.phase2 {
        let s = phase2::run_recorded(ctx, func, cfg, ws, rec);
        stats.null_checks.phase2.converted_implicit += s.converted_implicit;
        stats.null_checks.phase2.explicit_inserted += s.explicit_inserted;
        stats.null_checks.phase2.substituted += s.substituted;
        stats.null_checks.phase2.absorbed += s.absorbed;
        stats.null_checks.phase2.respawned += s.respawned;
        stats.null_checks.phase2.merged += s.merged;
        stats.null_checks.phase2.postponed += s.postponed;
        stats.null_checks.phase2.motion_iterations += s.motion_iterations;
        stats.null_checks.phase2.subst_iterations += s.subst_iterations;
        stats.null_checks.phase2.motion_pops += s.motion_pops;
        stats.null_checks.phase2.subst_pops += s.subst_pops;
    } else if config.trivial_trap {
        stats.null_checks.trivial.converted += trivial::run_recorded(ctx, func, rec).converted;
    }
    if let Some(orig) = &orig {
        // This is the stage that bets on the hardware: validate the
        // conversion against the trap model of the *machine*, not the one
        // the compiler assumed — the gap between the two is exactly the
        // §5.4 "Illegal Implicit" unsoundness.
        let stage = if config.phase2 {
            "phase2"
        } else if config.trivial_trap {
            "trivial"
        } else {
            "final"
        };
        validate_null_pass(
            &mut stats,
            module,
            platform.trap,
            assumptions,
            stage,
            orig,
            func,
            false,
        );
        validate_coverage(&mut stats, module, platform.trap, assumptions, stage, func);
    }
    stats.add_time("nullcheck", clock.lap());

    // Resolve every marked exception site of the final IR back to the
    // conversion event that justified it (no-op when tracing is off).
    collect_site_records(ctx, func, rec);

    stats
}

/// What one function's trip through the pipeline keeps from pass to pass
/// and round to round: the CFG structures and the loops (each valid for
/// one CFG generation) and the analyses' buffers. It lives exactly as long
/// as that trip, so nothing is shared across functions or threads.
#[derive(Clone, Debug, Default)]
struct FunctionWorkspace {
    cfg: CfgCache,
    loops: LoopCache,
    ws: Workspace,
}

/// The read-only inputs of one function's trip through the pipeline.
struct FunctionPipeline<'a> {
    module: &'a Module,
    platform: &'a Platform,
    config: &'a OptConfig,
    assumptions: Option<&'a EntryAssumptions>,
    ctx: AnalysisCtx<'a>,
}

impl FunctionPipeline<'_> {
    /// One round of Figure 2's loop: null check optimization, bounds check
    /// optimization, scalar replacement (with store sinking), cleanup.
    fn round(
        &self,
        func: &mut Function,
        fw: &mut FunctionWorkspace,
        rec: &mut Recorder,
        stats: &mut PipelineStats,
        clock: &mut PassClock,
    ) {
        let FunctionWorkspace { cfg, loops, ws } = fw;
        let FunctionPipeline {
            module,
            platform,
            config,
            assumptions,
            ref ctx,
        } = *self;

        // Null check optimization.
        match config.null_opt {
            NullOpt::None => {}
            NullOpt::Whaley => {
                let orig = config.validate.then(|| func.clone());
                let s = if config.gvn {
                    whaley::run_recorded_gvn(func, cfg, ws, rec)
                } else {
                    whaley::run_recorded(func, cfg, ws, rec)
                };
                stats.null_checks.whaley.eliminated += s.eliminated;
                stats.null_checks.whaley.gvn_eliminated += s.gvn_eliminated;
                stats.null_checks.whaley.iterations += s.iterations;
                stats.null_checks.whaley.pops += s.pops;
                if let Some(orig) = &orig {
                    validate_null_pass(
                        stats,
                        module,
                        platform.trap,
                        assumptions,
                        "whaley",
                        orig,
                        func,
                        true,
                    );
                }
            }
            NullOpt::Phase1 => {
                let orig = config.validate.then(|| func.clone());
                let s = if config.gvn {
                    phase1::run_recorded_gvn(ctx, func, cfg, ws, rec)
                } else {
                    phase1::run_recorded(ctx, func, cfg, ws, rec)
                };
                stats.null_checks.phase1.eliminated += s.eliminated;
                stats.null_checks.phase1.gvn_eliminated += s.gvn_eliminated;
                stats.null_checks.phase1.inserted += s.inserted;
                stats.null_checks.phase1.motion_iterations += s.motion_iterations;
                stats.null_checks.phase1.nonnull_iterations += s.nonnull_iterations;
                stats.null_checks.phase1.motion_pops += s.motion_pops;
                stats.null_checks.phase1.nonnull_pops += s.nonnull_pops;
                if let Some(orig) = &orig {
                    validate_null_pass(
                        stats,
                        module,
                        platform.trap,
                        assumptions,
                        "phase1",
                        orig,
                        func,
                        true,
                    );
                }
            }
        }
        stats.add_time("nullcheck", clock.lap());

        // Array bounds check optimization.
        let before = checks_before(rec, func);
        stats.boundchecks_eliminated += boundcheck::run(func, cfg, &mut ws.solver).eliminated;
        record_pass_delta(rec, "boundcheck", before, func);
        if config.validate {
            validate_coverage(
                stats,
                module,
                platform.trap,
                assumptions,
                "boundcheck",
                func,
            );
        }
        stats.add_time("boundcheck", clock.lap());

        // Scalar replacement (with or without speculation).
        let before = checks_before(rec, func);
        let allow_spec = config.speculation && config.compiler_trap.reads_are_speculatable();
        let s = scalar::run(
            ctx,
            func,
            cfg,
            loops,
            ws,
            ScalarConfig {
                speculation: allow_spec,
            },
        );
        stats.scalar.hoisted_loads += s.hoisted_loads;
        stats.scalar.speculative_loads += s.speculative_loads;
        stats.scalar.hoisted_pure += s.hoisted_pure;
        stats.scalar.hoisted_boundchecks += s.hoisted_boundchecks;
        stats.scalar.local_loads_reused += s.local_loads_reused;
        // Store sinking (Figure 4 (5)) — only fires once the loop is
        // check-free, i.e. after phase 1 did its part.
        if config.sinking {
            stats.fields_promoted += sink::run(ctx, func, cfg, loops, ws).promoted;
        }
        record_pass_delta(rec, "scalar", before, func);
        if config.validate {
            validate_coverage(stats, module, platform.trap, assumptions, "scalar", func);
        }
        stats.add_time("scalar", clock.lap());

        // Cleanup.
        let before = checks_before(rec, func);
        stats.copies_propagated += copyprop::run(func).replaced_uses;
        stats.dead_removed += dce::run(func, cfg, &mut ws.solver).removed;
        record_pass_delta(rec, "cleanup", before, func);
        if config.validate {
            validate_coverage(stats, module, platform.trap, assumptions, "cleanup", func);
        }
        stats.add_time("cleanup", clock.lap());
    }

    /// The debug-build proof obligation of the loop's early exit: one more
    /// round on a copy of the fixed point changes no instruction, draws no
    /// check id, records no event and counts no transformation. The round
    /// runs on its own copy of the function workspace.
    #[cfg(debug_assertions)]
    fn assert_fixed_point(&self, func: &Function, fw: &FunctionWorkspace, rec: &Recorder) {
        let mut f = func.clone();
        let mut fork = rec.fork();
        let mut extra = PipelineStats::default();
        self.round(
            &mut f,
            &mut fw.clone(),
            &mut fork,
            &mut extra,
            &mut PassClock::start(),
        );
        let name = func.name();
        assert!(
            f == *func,
            "`{name}`: a round after the fixed point changed the IR"
        );
        assert_eq!(
            fork.issued(),
            rec.issued(),
            "`{name}`: a round after the fixed point drew a check id"
        );
        assert!(
            fork.events.is_empty(),
            "`{name}`: a round after the fixed point recorded {:?}",
            fork.events
        );
        let effects = |s: &PipelineStats| {
            let nc = &s.null_checks;
            (
                (
                    nc.phase1.eliminated,
                    nc.phase1.inserted,
                    nc.whaley.eliminated,
                ),
                (s.boundchecks_eliminated, s.fields_promoted, s.scalar),
                (s.copies_propagated, s.dead_removed),
            )
        };
        assert_eq!(
            effects(&extra),
            effects(&PipelineStats::default()),
            "`{name}`: a round after the fixed point counted a transformation"
        );
    }
}

/// Fans [`optimize_function`] out over `threads` scoped workers. Workers
/// claim function indices off a shared atomic counter; each job's mutex is
/// only ever locked by the single claiming worker, it exists to hand the
/// `&mut Function` across the thread boundary safely. The result vector is
/// indexed by function, so the caller's merge order — and therefore every
/// counter in the aggregate — is independent of scheduling.
fn optimize_functions_parallel(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
    assumptions: Option<&EntryAssumptions>,
    funcs: &mut [Function],
    threads: usize,
    traced: bool,
) -> Vec<(PipelineStats, Option<FunctionTrace>)> {
    let next = AtomicUsize::new(0);
    type Job<'f> = Mutex<(&'f mut Function, PipelineStats, Option<FunctionTrace>)>;
    let jobs: Vec<Job<'_>> = funcs
        .iter_mut()
        .map(|f| Mutex::new((f, PipelineStats::default(), None)))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let mut guard = job.lock().unwrap();
                let (func, slot, trace) = &mut *guard;
                (*slot, *trace) =
                    optimize_function_traced(module, platform, config, assumptions, func, traced);
            });
        }
    });
    jobs.into_iter()
        .map(|m| {
            let (_, stats, trace) = m.into_inner().unwrap();
            (stats, trace)
        })
        .collect()
}

/// Checks a function out of the module so passes can hold `&Module` (for
/// field layout) while mutating the function.
fn take_function(module: &mut Module, id: FunctionId) -> njc_ir::Function {
    std::mem::replace(
        module.function_mut(id),
        njc_ir::Function::from_parts(
            String::new(),
            vec![],
            None,
            false,
            vec![],
            vec![njc_ir::BasicBlock::new(njc_ir::BlockId(0))],
            njc_ir::BlockId(0),
            vec![],
        ),
    )
}

fn put_function(module: &mut Module, id: FunctionId, func: njc_ir::Function) {
    *module.function_mut(id) = func;
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_core::phase1::count_checks;
    use njc_core::phase2::{count_exception_sites, count_explicit};
    use njc_ir::{parse_function, verify_module, Type};

    fn loop_module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f", Type::Int)]);
        let f = parse_function(
            "func sum(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  v2 = const 0\n  goto bb1\nbb1:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v2 = add.int v2, v3\n  if lt v2, v1 then bb1 else bb2\nbb2:\n  return v2\n}",
        )
        .unwrap();
        m.add_function(f);
        m
    }

    /// One function under `Full` with at most `iterations` rounds of
    /// Figure 2's loop: its optimized text and its phase 1 solver pops
    /// (every round that runs adds its pops).
    fn rounds_probe(src: &str, iterations: usize) -> (String, usize) {
        let mut m = Module::new("t");
        m.add_class("C", &[("next", Type::Ref), ("f", Type::Int)]);
        m.add_function(parse_function(src).unwrap());
        let p = Platform::windows_ia32();
        let cfg = OptConfig {
            iterations,
            ..ConfigKind::Full.to_config(&p)
        };
        let stats = optimize_module(&mut m, &p, &cfg);
        let pops = stats.null_checks.phase1.motion_pops + stats.null_checks.phase1.nonnull_pops;
        (m.functions()[0].to_string(), pops)
    }

    #[test]
    fn figure2_loop_stops_at_its_fixed_point() {
        // Straight-line code: the first round changes nothing, so it is
        // the only round, whatever the bound.
        let flat = "func flat(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field1\n  return v1\n}";
        let (ir1, pops1) = rounds_probe(flat, 1);
        assert_eq!(rounds_probe(flat, 3), (ir1, pops1));

        // A pointer chase in a loop: round 1 hoists `v0`'s check and load,
        // which lets round 2 hoist `v3`'s; round 3 is the first that
        // changes nothing, so the default bound of 3 runs all three rounds
        // and a higher bound runs no fourth.
        let chase = "func chase(v0: ref, v1: int) -> int {\n  locals v2: int v3: ref v4: int\nbb0:\n  v2 = const 0\n  goto bb1\nbb1:\n  nullcheck v0\n  v3 = getfield v0, field0\n  nullcheck v3\n  v4 = getfield v3, field1\n  v2 = add.int v2, v4\n  if lt v2, v1 then bb1 else bb2\nbb2:\n  return v2\n}";
        let (ir1, _) = rounds_probe(chase, 1);
        let (ir2, pops2) = rounds_probe(chase, 2);
        let (ir3, pops3) = rounds_probe(chase, 3);
        assert_ne!(ir1, ir2, "round 2 still changes the function");
        assert_eq!(ir2, ir3, "round 3 changes nothing");
        assert!(pops3 > pops2, "the bound of 3 runs the third round");
        assert_eq!(
            rounds_probe(chase, 10),
            (ir3, pops3),
            "no round past the fixed point"
        );
    }

    #[test]
    fn per_function_recompile_matches_module_compile() {
        // prepare_module + optimize_function_overridden(None) must be
        // byte-identical to the single-shot module pipeline: same IR, same
        // events, same site records — the determinism the adaptive
        // runtime's code cache depends on.
        let p = Platform::windows_ia32();
        let cfg = ConfigKind::Full.to_config(&p);
        let mut whole = loop_module();
        let (_, trace) = optimize_module_traced(&mut whole, &p, &cfg);
        let mut split = loop_module();
        prepare_module(&mut split, &p, &cfg);
        let mut f = take_function(&mut split, FunctionId::new(0));
        let (_, ftrace) = optimize_function_overridden(&split, &p, &cfg, &mut f, None, true);
        put_function(&mut split, FunctionId::new(0), f);
        assert_eq!(whole, split, "same optimized module");
        let ftrace = ftrace.unwrap();
        assert_eq!(trace.functions[0].events, ftrace.events);
        assert_eq!(trace.functions[0].sites, ftrace.sites);
        ftrace.ledger.check().unwrap();
    }

    #[test]
    fn overridden_site_stays_explicit_through_full_pipeline() {
        let p = Platform::windows_ia32();
        let cfg = ConfigKind::Full.to_config(&p);
        let mut m = loop_module();
        let off = m.field_offset(njc_ir::FieldId(0));
        prepare_module(&mut m, &p, &cfg);
        let mut ov = ExplicitOverride::new();
        ov.insert(off, njc_ir::AccessKind::Read);
        let mut f = take_function(&mut m, FunctionId::new(0));
        let (_, trace) = optimize_function_overridden(&m, &p, &cfg, &mut f, Some(&ov), true);
        assert!(count_explicit(&f) >= 1, "override keeps a real check: {f}");
        assert_eq!(
            count_exception_sites(&f),
            0,
            "the only trap-qualifying access is overridden: {f}"
        );
        trace.unwrap().ledger.check().unwrap();
    }

    #[test]
    fn full_config_leaves_no_explicit_checks_in_loop() {
        let mut m = loop_module();
        let p = Platform::windows_ia32();
        let cfg = ConfigKind::Full.to_config(&p);
        let stats = optimize_module(&mut m, &p, &cfg);
        verify_module(&m).unwrap();
        let f = m.function(m.function_by_name("sum").unwrap());
        assert_eq!(count_explicit(f), 0, "{f}");
        assert!(count_exception_sites(f) >= 1);
        assert!(stats.null_checks.phase1.eliminated >= 1);
        assert!(stats.scalar.hoisted_loads >= 1, "{stats:?}");
    }

    #[test]
    fn baseline_keeps_explicit_check_in_loop() {
        let mut m = loop_module();
        let p = Platform::windows_ia32();
        let cfg = ConfigKind::NoNullOptNoTrap.to_config(&p);
        optimize_module(&mut m, &p, &cfg);
        verify_module(&m).unwrap();
        let f = m.function(m.function_by_name("sum").unwrap());
        assert_eq!(count_checks(f), 1, "{f}");
        assert_eq!(count_exception_sites(f), 0, "no trap reliance");
        // The load stays inside the loop: no non-nullness at the preheader.
        let loop_block = f.block(njc_ir::BlockId(1));
        assert!(loop_block
            .insts
            .iter()
            .any(|i| matches!(i, njc_ir::Inst::GetField { .. })));
    }

    #[test]
    fn old_null_check_converts_trivially_but_cannot_hoist() {
        let mut m = loop_module();
        let p = Platform::windows_ia32();
        let cfg = ConfigKind::OldNullCheck.to_config(&p);
        let stats = optimize_module(&mut m, &p, &cfg);
        let f = m.function(m.function_by_name("sum").unwrap());
        // The in-loop check became implicit (free) but the load is still
        // in the loop — §2.2's first drawback.
        assert_eq!(count_explicit(f), 0, "{f}");
        let loop_block = f.block(njc_ir::BlockId(1));
        assert!(loop_block
            .insts
            .iter()
            .any(|i| matches!(i, njc_ir::Inst::GetField { .. })));
        assert_eq!(stats.null_checks.trivial.converted, 1);
    }

    #[test]
    fn aix_speculation_config_hoists_silent_read() {
        let mut m = loop_module();
        let p = Platform::aix_ppc();
        let cfg = ConfigKind::AixSpeculation.to_config(&p);
        let stats = optimize_module(&mut m, &p, &cfg);
        // phase1 hoists the check AND the load hoists; on AIX the check
        // stays explicit.
        let f = m.function(m.function_by_name("sum").unwrap());
        assert!(stats.scalar.hoisted_loads >= 1, "{stats:?}\n{f}");
        assert!(count_explicit(f) >= 1);
        assert_eq!(count_exception_sites(f), 0, "no implicit checks on AIX");
    }

    #[test]
    fn illegal_implicit_marks_read_sites_on_aix() {
        let mut m = loop_module();
        let p = Platform::aix_ppc();
        let cfg = ConfigKind::AixIllegalImplicit.to_config(&p);
        optimize_module(&mut m, &p, &cfg);
        let f = m.function(m.function_by_name("sum").unwrap());
        // The Intel phase 2 marked the read as a site even though AIX will
        // not trap it — the (deliberate) §5.4 spec violation.
        assert!(count_exception_sites(f) >= 1, "{f}");
        assert_eq!(count_explicit(f), 0, "{f}");
    }

    #[test]
    fn ablation_toggles_disable_their_passes() {
        let p = Platform::windows_ia32();
        let full = ConfigKind::Full.to_config(&p);
        assert!(full.versioning && full.sinking);

        // A loop whose bounds check is versionable under Full...
        let mk = || {
            let mut m = Module::new("t");
            m.add_class("C", &[("f", njc_ir::Type::Int)]);
            let f = njc_ir::parse_function(
                "func work(v0: ref, v1: int) -> int {\n  locals v2: int v3: int v4: int v5: int v6: int\nbb0:\n  v2 = const 0\n  v6 = const 1\n  v3 = move v2\n  if lt v2, v1 then bb1 else bb3\nbb1:\n  goto bb2\nbb2:\n  nullcheck v0\n  v4 = arraylength v0\n  boundcheck v3, v4\n  v5 = aload.int v0[v3]\n  v2 = add.int v2, v5\n  v3 = add.int v3, v6\n  if lt v3, v1 then bb2 else bb3\nbb3:\n  return v2\n}",
            )
            .unwrap();
            m.add_function(f);
            m
        };
        let mut with = mk();
        let s_on = optimize_module(&mut with, &p, &full);
        let mut without = mk();
        let s_off = optimize_module(
            &mut without,
            &p,
            &OptConfig {
                versioning: false,
                ..full
            },
        );
        assert!(s_on.loops_versioned > 0);
        assert_eq!(s_off.loops_versioned, 0);
    }

    #[test]
    fn parallel_threads_match_sequential() {
        // A multi-function module: several renamed copies of the loop
        // function, optimized independently.
        let mk = || {
            let mut m = loop_module();
            let proto = m.function(m.function_by_name("sum").unwrap()).clone();
            for i in 0..7 {
                let mut f = proto.clone();
                f.set_name(format!("sum_{i}"));
                m.add_function(f);
            }
            m
        };
        let p = Platform::windows_ia32();
        let base = ConfigKind::Full.to_config(&p);
        let mut seq = mk();
        let s_seq = optimize_module(&mut seq, &p, &base);
        for threads in [2, 4, 64] {
            let mut par = mk();
            let s_par = optimize_module(&mut par, &p, &OptConfig { threads, ..base });
            assert_eq!(seq, par, "threads={threads} changed the module");
            assert_eq!(
                s_seq.null_checks, s_par.null_checks,
                "threads={threads} changed the counters"
            );
            assert_eq!(s_seq.boundchecks_eliminated, s_par.boundchecks_eliminated);
            assert_eq!(s_seq.scalar, s_par.scalar);
            assert_eq!(s_seq.dead_removed, s_par.dead_removed);
        }
    }

    #[test]
    fn every_preset_round_trips_through_its_name() {
        for kind in ConfigKind::ALL {
            assert_eq!(ConfigKind::parse(kind.as_str()), Some(kind), "{kind:?}");
        }
        let mut names: Vec<_> = ConfigKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ConfigKind::ALL.len(), "names are distinct");
        assert_eq!(ConfigKind::parse("bogus"), None);
    }

    #[test]
    fn validated_pipeline_accepts_sound_configs() {
        for (kinds, p) in [
            (&ConfigKind::table12_rows()[..], Platform::windows_ia32()),
            (&ConfigKind::table67_rows()[..3], Platform::aix_ppc()),
        ] {
            for &kind in kinds {
                let mut m = loop_module();
                let cfg = kind.to_config(&p);
                let stats = optimize_module_validated(&mut m, &p, &cfg)
                    .unwrap_or_else(|e| panic!("{:?} on {}: {e}", kind, p.name));
                assert!(stats.validation_failures.is_empty());
            }
        }
    }

    #[test]
    fn validated_pipeline_flags_illegal_implicit_on_aix() {
        let mut m = loop_module();
        let p = Platform::aix_ppc();
        let cfg = ConfigKind::AixIllegalImplicit.to_config(&p);
        let err = optimize_module_validated(&mut m, &p, &cfg)
            .expect_err("the §5.4 spec violation must be caught statically");
        assert!(err.contains("[phase2]"), "{err}");
        assert!(err.contains("missed-exception"), "{err}");
    }

    #[test]
    fn traced_pipeline_produces_identical_ir_and_balanced_ledgers() {
        let p = Platform::windows_ia32();
        for kind in [
            ConfigKind::NoNullOptNoTrap,
            ConfigKind::NoNullOptTrap,
            ConfigKind::OldNullCheck,
            ConfigKind::Phase1Only,
            ConfigKind::Full,
            ConfigKind::RefJit,
        ] {
            let cfg = kind.to_config(&p);
            let mut plain = loop_module();
            optimize_module(&mut plain, &p, &cfg);
            let mut traced = loop_module();
            let (stats, trace) = optimize_module_traced(&mut traced, &p, &cfg);
            assert_eq!(plain, traced, "{kind:?}: tracing changed the module");
            trace
                .check_conservation()
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(trace.functions.len(), 1);
            let ft = &trace.functions[0];
            assert_eq!(ft.function, "sum");
            assert!(
                ft.ledger.origins >= 1,
                "{kind:?}: the source check must be an origin"
            );
            if kind == ConfigKind::Full {
                assert!(stats.null_checks.phase2.absorbed >= 1);
                // On this module the loop's one check converts at the
                // loop's one trap-qualifying access: at least one site must
                // resolve to a phase 2 conversion (over-marked extras from
                // `mark_all_trap_sites` are allowed, unresolved conversions
                // are not).
                assert!(ft
                    .sites
                    .iter()
                    .any(|s| matches!(s.provenance, njc_observe::SiteProvenance::Converted(_))));
            }
        }
    }
    #[test]
    fn trace_event_stream_is_identical_across_thread_counts() {
        let mk = || {
            let mut m = loop_module();
            let proto = m.function(m.function_by_name("sum").unwrap()).clone();
            for i in 0..7 {
                let mut f = proto.clone();
                f.set_name(format!("sum_{i}"));
                m.add_function(f);
            }
            m
        };
        let p = Platform::windows_ia32();
        let base = ConfigKind::Full.to_config(&p);
        let mut seq = mk();
        let (_, t_seq) = optimize_module_traced(&mut seq, &p, &base);
        let json_seq = t_seq.to_events_json();
        for threads in [2, 4, 64] {
            let mut par = mk();
            let (_, t_par) = optimize_module_traced(&mut par, &p, &OptConfig { threads, ..base });
            assert_eq!(
                json_seq,
                t_par.to_events_json(),
                "threads={threads} changed the event stream"
            );
        }
    }

    #[test]
    fn wall_time_is_set_and_cpu_timings_accumulate() {
        let mut m = loop_module();
        let p = Platform::windows_ia32();
        let cfg = ConfigKind::Full.to_config(&p);
        let stats = optimize_module(&mut m, &p, &cfg);
        assert!(stats.wall_time > Duration::ZERO);
        assert!(stats.total_time() > Duration::ZERO);
    }

    #[test]
    fn all_presets_resolve_and_run() {
        for kind in [
            ConfigKind::NoNullOptNoTrap,
            ConfigKind::NoNullOptTrap,
            ConfigKind::OldNullCheck,
            ConfigKind::Phase1Only,
            ConfigKind::Full,
            ConfigKind::RefJit,
        ] {
            let mut m = loop_module();
            let p = Platform::windows_ia32();
            let cfg = kind.to_config(&p);
            let stats = optimize_module(&mut m, &p, &cfg);
            verify_module(&m).unwrap();
            assert!(stats.total_time() >= stats.nullcheck_time());
        }
        for kind in ConfigKind::table67_rows() {
            let mut m = loop_module();
            let p = Platform::aix_ppc();
            let cfg = kind.to_config(&p);
            optimize_module(&mut m, &p, &cfg);
            verify_module(&m).unwrap();
        }
    }
}
