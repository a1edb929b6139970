//! `njc` — command-line driver: optimize and run textual IR files.
//!
//! ```text
//! njc <file.ir> [--config <name>] [--platform <name>] [--emit] [--run] [--all]
//!               [--events-out PATH] [--trace-out PATH]
//! njc explain <file.ir> [<fn> [<check-id>]] [--config <name>] [--platform <name>]
//!               [--interproc] [--gvn] [--run] [--threads N] [--events-out PATH]
//!               [--trace-out PATH]
//! njc explain --smoke [--threads N]
//! njc difftest [--smoke] [--seeds N] [--legacy-addressing] [--no-interproc]
//!              [--no-gvn] [--fixtures DIR] [--out PATH]
//! njc runtime <file.ir> [--platform <name>] [--profile-threshold R]
//!             [--recover <strategy>] [--json]
//! njc service <file.ir> [--platform <name>] [--tenants N] [--recover <strategy>]
//!             [--json]
//! njc recover [--seeds N] [--json] [--write-fixtures] [--fixtures DIR]
//! njc emit <file.ir> [--config <name>] [--platform <name>] [--threads N] [--out PATH]
//! njc verify-binary <file.ir> [--config <name>] [--platform <name>] [--threads N]
//! njc verify-binary --smoke [--threads N]
//!
//!   --config      full (default) | phase1 | old | trap | none | refjit |
//!                 speculation | no-speculation | aix-none | illegal-implicit
//!                 (`ConfigKind::as_str`: one name per row of Tables 1–2, 6–7)
//!   --platform    ia32 (default) | aix | s390
//!   --emit        print the optimized IR
//!   --run         execute `main` and print the outcome (default when no --emit)
//!   --all         compare the Table 1–2 configurations side by side
//!   --events-out  write the deterministic JSON provenance event stream
//!   --trace-out   write a Chrome-trace (chrome://tracing) pass timing profile
//!   --help        print this usage and exit 0
//! ```
//!
//! `njc difftest` writes its report to `--out`, or to `DIFF_report.json`
//! for a full run; a `--smoke` run writes one only when `--out` is given,
//! so it never replaces the committed full report.
//!
//! Every subcommand reads its command line through `njc_bench::cli`: an
//! unknown flag, a missing value, or an unparsable value prints a message
//! naming the flag plus the usage text and exits 1.
//!
//! The `explain` subcommand runs the optimizer with provenance tracing and
//! prints the life story of every null check (or of one check, by `#N` id)
//! of the named function: where it originated, which CFG motion hoisted it,
//! which `In_fwd` fact eliminated it, under which trap-model rule it became
//! implicit, or which later check substituted it. With `--interproc` the
//! interprocedural non-nullness inference (`njc-interproc`) runs first and
//! life stories can then cite an interprocedural fact — a parameter
//! non-null at every call site, a callee that never returns null, or an
//! always-initialized field — as the eliminating justification. The
//! conservation law `inserted = implicit + explicit + removed +
//! substituted` is verified for every function; with `--run` the program
//! is executed with per-site counters and every dynamic trap and executed
//! explicit check is reconciled against the provenance stream. `--smoke`
//! does all of the above for the built-in workload corpus across platforms
//! including an interproc-enabled cell (the CI gate).
//!
//! The `difftest` subcommand runs the differential execution and
//! fault-injection harness (`njc_bench::difftest`): every workload plus a
//! generated corpus through all optimizer configurations × all platform
//! trap models, diffing full observable behavior. Exits non-zero on any
//! divergence and prints the minimized reproducer path (divergence reports
//! carry the optimizer's provenance explanation of the diverging cell).
//! `--smoke` runs the CI-sized subset; `--legacy-addressing` re-enables the
//! wrapping address arithmetic bug as a self-test of the detector. The
//! interprocedural inference is exercised by default (extra Full+interproc
//! columns, a call-heavy corpus, and a dynamic soundness oracle asserting
//! every inferred fact against the real run); `--no-interproc` turns all
//! of that off.
//!
//! The `runtime` subcommand runs a program through the adaptive tiered
//! execution manager (`njc_runtime`): tier-0 bodies with site counters, a
//! profile policy promoting hot functions — and hot-*trapping* implicit
//! sites into explicit overrides — to the optimizing tier, recompiled
//! bodies swapping in at call entries mid-run. It prints both the adaptive
//! and the deterministic steady-state outcome, every recompile event, and
//! the code-cache counters, then verifies tiered reconciliation and
//! override convergence. `--profile-threshold` overrides the cost-model
//! break-even traps-per-execution ratio. The runtime's CI gate is
//! `runtime_bench` (njc-bench), whose every run checks convergence,
//! reconciliation, and a steady state beating both static extremes.
//!
//! The `service` subcommand runs the multi-tenant compilation service
//! (`njc_runtime::ServiceRuntime`): many VM instances against one sharded
//! code cache and one batched recompile queue: `--tenants N` identical
//! copies of the program run as one fleet and the shared-cache economics
//! are printed. The service's CI gate is `service_bench` (njc-bench),
//! whose every run holds a mixed fleet on both trap-model platforms to
//! single-tenant references, cross-tenant dedup, a compile bill below
//! isolation's, and tier-down on the burst workload.
//!
//! The `recover` subcommand is the trap-recovery gate (`njc_bench::recover`,
//! DESIGN.md §17): every JOG-style pattern rule instance runs as a
//! differential cell — `vm(opt(before), policy = strategy)` must match
//! `vm(opt(after), no policy)` over result, exception, trace, events, and
//! heap digest — plus the strict identity sweep (a uniform `Strict` policy
//! must be observationally invisible on every program), the committed
//! fixture drift check (`tests/fixtures/recover_*.njc` must equal the
//! regenerated text; `--write-fixtures` regenerates them), and the binary
//! deopt round trip (emitted bytes run to the trapping site, the machine
//! frame maps back to interpreter locals, and the resumed execution must
//! match the pure-VM reference). `--json` prints a fully deterministic
//! machine-readable report. The `runtime` and `service` subcommands accept
//! `--recover <strategy>` (`abort|strict|nullobject|skipeffect`) to attach
//! a uniform recovery policy — per-run for `runtime`, per-tenant for
//! `service` — and `--json` for a machine-readable outcome whose
//! nondeterministic counters live under a `"volatile"` key, mirroring the
//! BENCH_*.json discipline.
//!
//! The `emit` subcommand lowers the optimized program all the way to x86-64
//! machine bytes (`njc_emit`) and writes a minimal ELF64 relocatable whose
//! `.njc.exctab` / `.njc.handlers` sections carry the exception-site table
//! and handler ranges as first-class binary artifacts. Emission is
//! deterministic: the same input produces byte-identical objects at any
//! `--threads` count (checked on every invocation).
//!
//! The `verify-binary` subcommand is the binary-level soundness gate: it
//! re-derives the instruction stream from the emitted bytes and proves
//! (a) every exception-site entry decodes to a memory access that can
//! genuinely fault on the null page under the platform trap model, (b) no
//! eliminated check left a residual compare-and-branch, (c) handler ranges
//! are well-formed and nest, and (d) the binary's explicit-check census
//! (`test rax, rax` fingerprints) matches the optimizer's provenance
//! ledger exactly. The ELF round-trip (`write_elf` → `parse_elf`) is also
//! checked. `--smoke` runs the gate over the whole built-in corpus across
//! platforms and configurations (the CI gate).
//!
//! The input file contains one or more functions in the textual IR syntax
//! (see `njc_ir::parse`), separated by blank lines. Classes referenced as
//! `classN`/`fieldN` are synthesized automatically: eight classes with
//! eight int fields each, so `field0..field63` and `class0..class7`
//! resolve. A function named `main` taking no arguments is the entry point.

use std::process::ExitCode;

use njc_arch::Platform;
use njc_bench::cli::{Args, Spec, UsageError};
use njc_bench::difftest::{run_difftest, write_report, DiffOptions};
use njc_ir::{CheckId, FunctionId, Module, Type};
use njc_observe::{chrome_trace_json, json_obj, reconcile, Json, ModuleTrace};
use njc_opt::{ConfigKind, OptConfig, PipelineStats};
use njc_vm::{SiteCounters, Vm, VmConfig};

/// Every subcommand's usage text; printed on `--help` and after any
/// command-line error.
const USAGE: &str = "usage: njc <file.ir> [--config <name>] [--platform <name>] [--emit] [--run] [--all] [--events-out PATH] [--trace-out PATH]
       njc explain <file.ir> [<fn> [<check-id>]] [--config <name>] [--platform <name>] [--interproc] [--gvn] [--run] [--threads N] [--events-out PATH] [--trace-out PATH]
       njc explain --smoke [--threads N]
       njc difftest [--smoke] [--seeds N] [--legacy-addressing] [--no-interproc] [--no-gvn] [--fixtures DIR] [--out PATH]
       njc runtime <file.ir> [--platform <name>] [--profile-threshold R] [--recover <strategy>] [--json]
       njc service <file.ir> [--platform <name>] [--tenants N] [--recover <strategy>] [--json]
       njc recover [--seeds N] [--json] [--write-fixtures] [--fixtures DIR]
       njc emit <file.ir> [--config <name>] [--platform <name>] [--threads N] [--out PATH]
       njc verify-binary <file.ir> [--config <name>] [--platform <name>] [--threads N]
       njc verify-binary --smoke [--threads N]

  --config    full | phase1 | old | trap | none | refjit | speculation | no-speculation |
              aix-none | illegal-implicit
  --platform  ia32 | aix | s390
  --recover   abort | strict | nullobject | skipeffect";

/// Why a subcommand stopped early: a bad command line, or an error that
/// `main` prints after the subcommand's name.
enum Stop {
    Usage(UsageError),
    Error(String),
}

impl From<UsageError> for Stop {
    fn from(e: UsageError) -> Self {
        Stop::Usage(e)
    }
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Error(e)
    }
}

type Run = Result<ExitCode, Stop>;

/// Parses one subcommand's arguments against its accepted flags.
fn parse(
    argv: &[String],
    switches: &'static [&'static str],
    options: &'static [&'static str],
    positionals: usize,
) -> Result<Args, UsageError> {
    let spec = Spec {
        usage: USAGE,
        switches,
        options,
        positionals,
    };
    spec.parse(argv.iter().cloned())
}

/// The input file, the first positional argument.
fn input_file(args: &Args) -> Result<&str, UsageError> {
    args.positional(0)
        .ok_or_else(|| args.error("missing input file".into()))
}

fn difftest_main(argv: &[String]) -> Run {
    let args = parse(
        argv,
        &[
            "--smoke",
            "--legacy-addressing",
            "--interproc",
            "--no-interproc",
            "--gvn",
            "--no-gvn",
        ],
        &["--seeds", "--fixtures", "--out"],
        0,
    )?;
    let opts = DiffOptions {
        seeds: args.seeds()?.unwrap_or(DiffOptions::default().seeds),
        smoke: args.flag("--smoke"),
        legacy_wrapping: args.flag("--legacy-addressing"),
        interproc: args.last_of(&["--interproc", "--no-interproc"]) != Some("--no-interproc"),
        gvn: args.last_of(&["--gvn", "--no-gvn"]) != Some("--no-gvn"),
        fixtures_dir: args.path("--fixtures"),
    };
    // A smoke run covers a fraction of the corpus, so it writes a report
    // only where asked: the default path holds the full run's report.
    let out_path = match args.out() {
        Some(path) => Some(path),
        None if opts.smoke => None,
        None => Some("DIFF_report.json".into()),
    };
    let report = run_difftest(&opts);
    println!(
        "difftest: {} programs, {} cells ({} byte-level, {} known wrap gaps), {} divergences, \
         {} claim-9 confirmations (Illegal Implicit missed NPEs), {} ill-typed cells survived, \
         {} panics",
        report.programs,
        report.cells,
        report.byte_cells,
        report.byte_wrap_gaps,
        report.divergences.len(),
        report.claim9_confirmations,
        report.ill_typed_cells,
        report.panicked_cells
    );
    if let Some(out_path) = out_path {
        write_report(&report, &out_path)
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
        println!("report written to {}", out_path.display());
    }
    if report.is_clean() {
        println!("difftest: CLEAN");
        return Ok(ExitCode::SUCCESS);
    }
    for d in &report.divergences {
        eprintln!(
            "DIVERGENCE [{}] {} vs {}: {}",
            d.program, d.left, d.right, d.detail
        );
        if let Some(m) = &d.minimized {
            eprintln!("  minimized: {m}");
        }
        if let Some(f) = &d.fixture {
            eprintln!("  reproducer: {}", f.display());
        }
        if let Some(p) = &d.provenance {
            for line in p.lines() {
                eprintln!("  | {line}");
            }
        }
    }
    eprintln!(
        "difftest: FAILED ({} divergences)",
        report.divergences.len()
    );
    Ok(ExitCode::FAILURE)
}

/// Prints one tiered-runtime outcome and verifies its invariants
/// (reconciliation across tiers, override convergence). Returns failure
/// lines (empty = healthy).
fn report_runtime_outcome(out: &njc_runtime::RuntimeOutcome) -> Vec<String> {
    println!(
        "adaptive:  cycles = {}  traps = {}  explicit checks = {}  mid-run swapped calls = {}",
        out.adaptive.stats.cycles,
        out.adaptive.stats.traps_taken,
        out.adaptive.stats.explicit_null_checks,
        out.mid_run_swaps
    );
    println!(
        "steady:    cycles = {}  traps = {}  explicit checks = {}  result = {:?}",
        out.steady.stats.cycles,
        out.steady.stats.traps_taken,
        out.steady.stats.explicit_null_checks,
        out.steady.result
    );
    for r in &out.recompiles {
        println!(
            "recompile: {} -> {} ({} override slot(s), {}, {})",
            r.function,
            r.to_config,
            r.overrides,
            if r.cache_hit { "cache hit" } else { "compiled" },
            if r.mid_run {
                "installed mid-run"
            } else {
                "post-run fixpoint"
            }
        );
    }
    for (name, ov) in &out.overrides {
        println!("overrides: {name} = {} slot(s)", ov.len());
    }
    let c = out.cache;
    println!(
        "cache:     {} hits, {} misses, {} inserts, {} evictions",
        c.hits, c.misses, c.inserts, c.evictions
    );
    let mut failures = Vec::new();
    match out.reconcile() {
        Ok(()) => println!("reconciliation: every trap and explicit check resolved in some tier"),
        Err(f) => failures.extend(f.into_iter().map(|l| format!("reconcile: {l}"))),
    }
    match out.verify_convergence() {
        Ok(()) => println!("convergence: every override slot explicit in its final body"),
        Err(f) => failures.extend(f.into_iter().map(|l| format!("convergence: {l}"))),
    }
    failures
}

/// Verifies a tiered-runtime outcome without printing (the `--json` path):
/// tiered reconciliation — including that every recovered trap maps back to
/// site provenance — and override convergence.
fn verify_runtime_outcome(out: &njc_runtime::RuntimeOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(f) = out.reconcile() {
        failures.extend(f.into_iter().map(|l| format!("reconcile: {l}")));
    }
    if let Err(f) = out.verify_convergence() {
        failures.extend(f.into_iter().map(|l| format!("convergence: {l}")));
    }
    failures
}

/// Deterministic-modulo-volatile JSON for one tiered-runtime outcome: the
/// steady state, overrides, and steady recovery counts are reproducible
/// run-to-run; adaptive counters (swap timing, cache traffic, recoveries
/// absorbed before an override landed) live under `"volatile"`.
fn runtime_json(
    platform: &Platform,
    recover: njc_runtime::RecoveryStrategy,
    out: &njc_runtime::RuntimeOutcome,
    verified: bool,
) -> String {
    let s = &out.steady.stats;
    let steady = json_obj! {
        "cycles": s.cycles, "traps_taken": s.traps_taken,
        "explicit_null_checks": s.explicit_null_checks, "missed_npes": s.missed_npes,
        "recoveries": &s.recoveries,
    };
    let overrides = Json::map(out.overrides.iter().map(|(name, ov)| (name, ov.len())));
    json_obj! {
        "generated_by": "njc runtime", "platform": platform.name, "recover": recover.as_str(),
        "steady": steady, "overrides": overrides, "compile_panics": out.compile_panics,
        "verified": verified,
    }
    .volatile(json_obj! {
        "adaptive_cycles": out.adaptive.stats.cycles,
        "adaptive_traps": out.adaptive.stats.traps_taken, "mid_run_swaps": out.mid_run_swaps,
        "recompiles": out.recompiles.len(), "recoveries_total": &out.recoveries,
        "cache": &out.cache,
    })
    .report()
}

fn runtime_main(argv: &[String]) -> Run {
    let args = parse(
        argv,
        &["--json"],
        &["--platform", "--profile-threshold", "--recover"],
        1,
    )?;
    let platform = args.platform()?.unwrap_or(Platform::windows_ia32());
    let threshold: Option<f64> = args.get("--profile-threshold")?;
    let recover = args.recover()?.unwrap_or_default();
    let module = read_module(input_file(&args)?)?;
    let mut config = njc_runtime::RuntimeConfig::for_platform(&platform);
    if let Some(r) = threshold {
        config.policy.trap_ratio = r;
    }
    let rt = njc_runtime::TieredRuntime::with_config(module, platform, config)
        .with_recovery(njc_runtime::RecoveryPolicy::uniform(recover));
    let out = rt.run("main", &[]).map_err(|f| format!("VM fault: {f}"))?;
    let failures = if args.flag("--json") {
        let failures = verify_runtime_outcome(&out);
        print!(
            "{}",
            runtime_json(&platform, recover, &out, failures.is_empty())
        );
        failures
    } else {
        let failures = report_runtime_outcome(&out);
        if out.recoveries.total() > 0 {
            println!(
                "recovered:  {} strict, {} nullobject, {} skipeffect",
                out.recoveries.strict, out.recoveries.null_object, out.recoveries.skip_effect
            );
        }
        failures
    };
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("njc runtime: FAIL: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Prints the shared-cache economics of one service run.
fn report_service_outcome(out: &njc_runtime::ServiceOutcome) {
    println!(
        "service:   {} tenants, {} fresh compiles vs {} isolated, {} dedup hits",
        out.tenants.len(),
        out.compiles_performed,
        out.isolated_compiles,
        out.dedup_hits
    );
    println!(
        "cache:     {} hits, {} misses, {} inserts, {} evictions across {} shards",
        out.cache.hits,
        out.cache.misses,
        out.cache.inserts,
        out.cache.evictions,
        out.shards.len()
    );
    println!(
        "queue:     {} submitted, {} coalesced, {} rejected, {} batches, {} aged promotions",
        out.queue.submitted,
        out.queue.coalesced,
        out.queue.rejected,
        out.queue.batches,
        out.queue.aged_promotions
    );
}

/// Deterministic-modulo-volatile JSON for one service run: per-tenant
/// steady rows are reproducible (each tenant's steady state matches its
/// single-tenant reference byte-for-byte); fleet-level scheduling data —
/// cache and queue traffic, dedup, compile counts, adaptive recoveries —
/// live under `"volatile"`.
fn service_json(
    platform: &Platform,
    recover: njc_runtime::RecoveryStrategy,
    out: &njc_runtime::ServiceOutcome,
    verified: bool,
) -> String {
    let rows = out.tenants.iter().map(|t| {
        let s = &t.outcome.steady.stats;
        let steady = json_obj! {
            "cycles": s.cycles, "traps_taken": s.traps_taken,
            "explicit_null_checks": s.explicit_null_checks, "recoveries": &s.recoveries,
        };
        json_obj! {"name": &t.name, "steady": steady}
    });
    json_obj! {
        "generated_by": "njc service", "platform": platform.name, "recover": recover.as_str(),
        "tenants": out.tenants.len(), "tenant_rows": Json::array(rows), "verified": verified,
    }
    .volatile(json_obj! {
        "compiles_performed": out.compiles_performed, "isolated_compiles": out.isolated_compiles,
        "dedup_hits": out.dedup_hits, "recoveries_total": &out.recoveries, "cache": &out.cache,
        "queue": &out.queue,
    })
    .report()
}

fn service_main(argv: &[String]) -> Run {
    use njc_runtime::{RecoveryPolicy, ServiceRuntime, TenantSpec};
    let args = parse(
        argv,
        &["--json"],
        &["--platform", "--tenants", "--recover"],
        1,
    )?;
    let platform = args.platform()?.unwrap_or(Platform::windows_ia32());
    let tenants: Option<usize> = args.positive("--tenants")?;
    let recover = args.recover()?.unwrap_or_default();
    let module = read_module(input_file(&args)?)?;
    let specs: Vec<TenantSpec> = (0..tenants.unwrap_or(8))
        .map(|i| TenantSpec {
            name: format!("tenant-{i}"),
            module: module.clone(),
            entry: "main".to_string(),
            args: Vec::new(),
            recovery: RecoveryPolicy::uniform(recover),
        })
        .collect();
    let out = ServiceRuntime::new(platform)
        .run(&specs)
        .map_err(|f| format!("VM fault: {f}"))?;
    let verify = out.verify();
    if args.flag("--json") {
        print!("{}", service_json(&platform, recover, &out, verify.is_ok()));
    } else {
        report_service_outcome(&out);
        for t in &out.tenants {
            println!(
                "tenant {}: steady cycles = {}, traps = {}, explicit checks = {}, {} distinct cache key(s)",
                t.name,
                t.outcome.steady.stats.cycles,
                t.outcome.steady.stats.traps_taken,
                t.outcome.steady.stats.explicit_null_checks,
                t.distinct_keys
            );
        }
        if out.recoveries.total() > 0 {
            println!(
                "recovered: {} strict, {} nullobject, {} skipeffect across the fleet",
                out.recoveries.strict, out.recoveries.null_object, out.recoveries.skip_effect
            );
        }
        if verify.is_ok() {
            println!("verify: every tenant reconciled and converged");
        }
    }
    match verify {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(errs) => {
            for e in errs {
                eprintln!("njc service: FAIL: {e}");
            }
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Reconciles one traced module against one instrumented VM run: every
/// hardware trap and every executed explicit check must map back to a
/// provenance record. Returns the failure lines (empty = fully explained).
fn reconcile_counts(module: &Module, trace: &ModuleTrace, counts: &SiteCounters) -> Vec<String> {
    let mut failures = Vec::new();
    for fi in 0..module.num_functions() {
        let name = module.function(FunctionId::new(fi)).name();
        let Some(ft) = trace.function(name) else {
            failures.push(format!("{name}: no function trace"));
            continue;
        };
        let traps: Vec<(njc_ir::BlockId, usize)> = counts
            .traps
            .keys()
            .filter(|(f, _, _)| *f as usize == fi)
            .map(|&(_, b, i)| (njc_ir::BlockId::new(b as usize), i as usize))
            .collect();
        let checks: Vec<CheckId> = counts
            .explicit_checks
            .keys()
            .filter(|(f, _)| *f as usize == fi)
            .map(|&(_, id)| CheckId(id))
            .collect();
        if let Err(missing) = reconcile(ft, &traps, &checks) {
            failures.extend(missing);
        }
    }
    failures
}

/// Optimizes with tracing, optionally runs `main` with per-site counters,
/// and reports: the requested explanation, the conservation verdict, and
/// (after a run) the dynamic reconciliation verdict.
fn explain_one(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
    fn_name: Option<&str>,
    check: Option<CheckId>,
    run: bool,
    quiet: bool,
) -> Result<(PipelineStats, ModuleTrace), String> {
    let mut optimized = module.clone();
    let (stats, trace) = njc_opt::optimize_module_traced(&mut optimized, platform, config);
    trace.check_conservation()?;
    if !quiet {
        match fn_name {
            Some(name) => {
                let ft = trace
                    .function(name)
                    .ok_or_else(|| format!("no function named `{name}`"))?;
                if let Some(id) = check {
                    if !ft.check_ids().contains(&id) {
                        return Err(format!("{name} has no check {id}"));
                    }
                }
                print!("{}", ft.explain(check));
            }
            None => {
                for ft in &trace.functions {
                    print!("{}", ft.explain(None));
                }
            }
        }
        println!(
            "conservation: balanced ({} functions)",
            trace.functions.len()
        );
    }
    if run {
        let vm = Vm::new(&optimized, *platform).with_config(VmConfig {
            count_sites: true,
            ..VmConfig::default()
        });
        let out = vm
            .run("main", &[])
            .map_err(|f| format!("VM fault while reconciling: {f}"))?;
        let failures = reconcile_counts(&optimized, &trace, &out.site_counts);
        if !failures.is_empty() {
            return Err(format!("reconciliation failed:\n{}", failures.join("\n")));
        }
        let traps: u64 = out.site_counts.traps.values().sum();
        let checks: u64 = out.site_counts.explicit_checks.values().sum();
        if !quiet {
            println!(
                "reconciliation: {traps} traps and {checks} explicit check executions all \
                 resolved to provenance records"
            );
        }
        // Machine-level reconciliation: the same module lowered, emitted to
        // x86-64 bytes, and executed over its binary exception site tables.
        // A hardware trap escaping the table is a compiler soundness bug;
        // the enriched fault carries enough provenance (function, byte
        // offset, access kind, static offset, nearest surviving site) to
        // pull the responsible check's life story out of the optimizer
        // trace instead of surfacing a bare PC.
        let em = njc_emit::emit_module(&njc_codegen::lower_module(&optimized), config.threads);
        match njc_emit::ByteMachine::new(&em, *platform).run("main") {
            Ok(mout) => {
                if !quiet {
                    println!(
                        "machine: {} traps dispatched through the site tables, {} explicit \
                         checks executed",
                        mout.stats.traps_taken, mout.stats.explicit_null_checks
                    );
                }
            }
            Err(njc_codegen::MachineFault::UnexpectedTrap {
                function,
                pc,
                kind,
                offset,
                nearest_site,
            }) => {
                let mut msg = format!(
                    "machine trap escaped the site table: {kind:?} access at byte offset {pc} \
                     in `{function}`"
                );
                match offset {
                    Some(off) => {
                        let _ = std::fmt::Write::write_fmt(
                            &mut msg,
                            format_args!(" (static offset {off})"),
                        );
                    }
                    None => msg.push_str(" (dynamic offset)"),
                }
                match nearest_site {
                    Some((spc, check)) if check.is_some() => {
                        let _ = std::fmt::Write::write_fmt(
                            &mut msg,
                            format_args!(
                                "\nnearest surviving site: byte offset {spc}, check {check}"
                            ),
                        );
                        if let Some(ft) = trace.function(&function) {
                            let _ = std::fmt::Write::write_fmt(
                                &mut msg,
                                format_args!("\n{}", ft.explain(Some(check))),
                            );
                        }
                    }
                    Some((spc, _)) => {
                        let _ = std::fmt::Write::write_fmt(
                            &mut msg,
                            format_args!(
                                "\nnearest surviving site: byte offset {spc} (over-marking)"
                            ),
                        );
                    }
                    None => {
                        if let Some(ft) = trace.function(&function) {
                            let _ = std::fmt::Write::write_fmt(
                                &mut msg,
                                format_args!(
                                    "\nno sites survive in `{function}`; its check stories:\n{}",
                                    ft.explain(None)
                                ),
                            );
                        }
                    }
                }
                return Err(msg);
            }
            Err(f) => return Err(format!("machine fault while reconciling: {f}")),
        }
    }
    Ok((stats, trace))
}

/// `njc explain --smoke`: the CI gate. Every built-in workload and micro
/// program, on every platform × a config sample covering phase 2, trivial
/// conversion, and the Whaley baseline, must (a) balance its conservation
/// ledger and (b) have every dynamic trap and executed explicit check
/// resolve to a provenance record.
fn explain_smoke(threads: usize) -> ExitCode {
    // The last cells turn the interprocedural inference and the
    // value-numbered analysis on: their kills enter the ledger as phase 1
    // (or Whaley) eliminations — GVN-only ones attributed to their
    // congruence class — so conservation and dynamic reconciliation must
    // hold with facts exactly as without.
    let cells: &[(ConfigKind, Platform, bool, bool)] = &[
        (ConfigKind::Full, Platform::windows_ia32(), false, false),
        (
            ConfigKind::NoNullOptTrap,
            Platform::windows_ia32(),
            false,
            false,
        ),
        (
            ConfigKind::OldNullCheck,
            Platform::linux_s390(),
            false,
            false,
        ),
        (
            ConfigKind::AixNoSpeculation,
            Platform::aix_ppc(),
            false,
            false,
        ),
        (ConfigKind::Full, Platform::windows_ia32(), true, false),
        (ConfigKind::Full, Platform::windows_ia32(), false, true),
        (
            ConfigKind::OldNullCheck,
            Platform::linux_s390(),
            false,
            true,
        ),
        (ConfigKind::Full, Platform::windows_ia32(), true, true),
    ];
    let mut programs: Vec<(String, Module)> = njc_workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    programs.extend(
        njc_workloads::micro::all_micro()
            .into_iter()
            .map(|(n, m)| (n.to_string(), m)),
    );
    let mut checked = 0usize;
    for (name, module) in &programs {
        for &(kind, platform, interproc, gvn) in cells {
            let config = OptConfig {
                threads,
                interproc,
                gvn,
                ..kind.to_config(&platform)
            };
            match explain_one(module, &platform, &config, None, None, true, true) {
                Ok(_) => checked += 1,
                Err(e) => {
                    eprintln!(
                        "explain --smoke: {name} × {kind:?}{}{} on {}: {e}",
                        if interproc { "+interproc" } else { "" },
                        if gvn { "+gvn" } else { "" },
                        platform.name
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "explain --smoke: {} programs × {} cells = {checked} traced runs, all ledgers balanced, \
         all traps and checks reconciled",
        programs.len(),
        cells.len()
    );
    ExitCode::SUCCESS
}

fn explain_main(argv: &[String]) -> Run {
    let args = parse(
        argv,
        &["--interproc", "--gvn", "--run", "--smoke"],
        &[
            "--config",
            "--platform",
            "--threads",
            "--events-out",
            "--trace-out",
        ],
        3,
    )?;
    let kind = args.config()?.unwrap_or(ConfigKind::Full);
    let platform = args.platform()?.unwrap_or(Platform::windows_ia32());
    let threads = args.threads()?.unwrap_or(1);
    let check = match args.positional(2) {
        Some(id) => match id.trim_start_matches('#').parse::<u32>() {
            Ok(n) => Some(CheckId(n)),
            Err(_) => return Err(args.error(format!("invalid check id `{id}`")).into()),
        },
        None => None,
    };
    if args.flag("--smoke") {
        return Ok(explain_smoke(threads));
    }
    let module = read_module(input_file(&args)?)?;
    let config = OptConfig {
        threads,
        interproc: args.flag("--interproc"),
        gvn: args.flag("--gvn"),
        ..kind.to_config(&platform)
    };
    let (stats, trace) = explain_one(
        &module,
        &platform,
        &config,
        args.positional(1),
        check,
        args.flag("--run"),
        false,
    )?;
    write_outputs(
        &stats,
        &trace,
        &args.path("--events-out"),
        &args.path("--trace-out"),
    )?;
    Ok(ExitCode::SUCCESS)
}

/// Writes the deterministic event stream and/or the Chrome-trace profile.
fn write_outputs(
    stats: &PipelineStats,
    trace: &ModuleTrace,
    events_out: &Option<std::path::PathBuf>,
    trace_out: &Option<std::path::PathBuf>,
) -> Result<(), String> {
    if let Some(path) = events_out {
        std::fs::write(path, trace.to_events_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("event stream written to {}", path.display());
    }
    if let Some(path) = trace_out {
        let json = chrome_trace_json(&stats.timings, stats.wall_time);
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace written to {}", path.display());
    }
    Ok(())
}

/// Reads `path` and loads it with [`load_module`].
fn read_module(path: &str) -> Result<Module, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    load_module(&source)
}

/// Builds a module from the file's functions plus synthetic classes so
/// `classN` / `fieldN` references resolve.
fn load_module(source: &str) -> Result<Module, String> {
    let mut module = Module::new("cli");
    for c in 0..8 {
        let fields: Vec<(String, Type)> = (0..8).map(|f| (format!("f{f}"), Type::Int)).collect();
        let refs: Vec<(&str, Type)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        module.add_class(format!("C{c}"), &refs);
    }
    // Split on lines starting a new `func`.
    let mut chunks: Vec<String> = Vec::new();
    for line in source.lines() {
        if line.trim_start().starts_with("func ") {
            chunks.push(String::new());
        }
        if let Some(cur) = chunks.last_mut() {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    if chunks.is_empty() {
        return Err("no functions found (expected lines starting with `func`)".into());
    }
    for chunk in &chunks {
        let f = njc_ir::parse_function(chunk).map_err(|e| e.to_string())?;
        module.add_function(f);
    }
    njc_ir::verify_module(&module).map_err(|e| {
        e.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    })?;
    Ok(module)
}

fn run_one(
    module: &Module,
    platform: &Platform,
    kind: ConfigKind,
    emit: bool,
    run: bool,
    events_out: &Option<std::path::PathBuf>,
    trace_out: &Option<std::path::PathBuf>,
) -> ExitCode {
    let mut optimized = module.clone();
    let config = kind.to_config(platform);
    let stats = if events_out.is_some() || trace_out.is_some() {
        let (stats, trace) = njc_opt::optimize_module_traced(&mut optimized, platform, &config);
        if let Err(e) = write_outputs(&stats, &trace, events_out, trace_out) {
            eprintln!("njc: {e}");
            return ExitCode::FAILURE;
        }
        stats
    } else {
        njc_opt::optimize_module(&mut optimized, platform, &config)
    };
    println!(
        "config: {} on {} — phase1 eliminated {}, inserted {}; implicit conversions {}; \
         trivial conversions {}; loads hoisted {}; loops versioned {}",
        config.name,
        platform.name,
        stats.null_checks.phase1.eliminated,
        stats.null_checks.phase1.inserted,
        stats.null_checks.phase2.converted_implicit,
        stats.null_checks.trivial.converted,
        stats.scalar.hoisted_loads,
        stats.loops_versioned,
    );
    if emit {
        for f in optimized.functions() {
            println!("{f}");
        }
    }
    if run {
        match Vm::new(&optimized, *platform).run("main", &[]) {
            Ok(out) => {
                println!(
                    "result = {:?}  exception = {:?}  trace = {:?}",
                    out.result, out.exception, out.trace
                );
                println!(
                    "cycles = {}  insts = {}  explicit checks = {}  traps = {}  missed NPEs = {}",
                    out.stats.cycles,
                    out.stats.insts,
                    out.stats.explicit_null_checks,
                    out.stats.traps_taken,
                    out.stats.missed_npes
                );
            }
            Err(fault) => {
                eprintln!("FAULT: {fault}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `emit_one`'s success payload: the emitted module, the per-function
/// explicit-check census expectation (`explicit_final` from the
/// provenance ledger), and the serialized ELF bytes.
type Emitted = (
    njc_emit::EmittedModule,
    std::collections::BTreeMap<String, u64>,
    Vec<u8>,
);

/// Optimizes, lowers, and emits `module`, checking the invariants every
/// invocation: emission at `threads` is byte-identical to single-threaded
/// emission, and the ELF container round-trips losslessly.
fn emit_one(
    module: &Module,
    platform: &Platform,
    kind: ConfigKind,
    threads: usize,
) -> Result<Emitted, String> {
    let mut optimized = module.clone();
    let config = kind.to_config(platform);
    let (_, trace) = njc_opt::optimize_module_traced(&mut optimized, platform, &config);
    let census: std::collections::BTreeMap<String, u64> = trace
        .functions
        .iter()
        .map(|f| (f.function.clone(), f.ledger.explicit_final))
        .collect();
    let mm = njc_codegen::lower_module(&optimized);
    let em = njc_emit::emit_module(&mm, threads);
    if em != njc_emit::emit_module(&mm, 1) {
        return Err(format!(
            "emission is thread-count-dependent at --threads {threads}"
        ));
    }
    let bytes = njc_emit::write_elf(&em);
    match njc_emit::parse_elf(&bytes) {
        Ok(parsed) if parsed == em => {}
        Ok(_) => return Err("ELF round-trip altered the module".into()),
        Err(e) => return Err(format!("emitted ELF does not parse back: {e}")),
    }
    Ok((em, census, bytes))
}

fn emit_main(argv: &[String]) -> Run {
    let args = parse(
        argv,
        &[],
        &["--config", "--platform", "--threads", "--out"],
        1,
    )?;
    let kind = args.config()?.unwrap_or(ConfigKind::Full);
    let platform = args.platform()?.unwrap_or(Platform::windows_ia32());
    let threads = args.threads()?.unwrap_or(4);
    let file = input_file(&args)?;
    let module = read_module(file)?;
    let (em, _, bytes) = emit_one(&module, &platform, kind, threads)?;
    let out_path = args
        .out()
        .unwrap_or_else(|| std::path::Path::new(file).with_extension("o"));
    std::fs::write(&out_path, &bytes)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!(
        "emitted {} functions, {} text bytes, {} exception sites ({} on {}) → {} ({} ELF bytes)",
        em.functions.len(),
        em.text.len(),
        em.total_sites(),
        kind.to_config(&platform).name,
        platform.name,
        out_path.display(),
        bytes.len(),
    );
    Ok(ExitCode::SUCCESS)
}

/// Verifies one emitted module and returns the findings (structural
/// claims a/b/c from the parallel verifier plus the explicit-check
/// census (d) against the optimizer's provenance ledger).
fn verify_one_binary(
    em: &njc_emit::EmittedModule,
    census: &std::collections::BTreeMap<String, u64>,
    platform: &Platform,
    threads: usize,
) -> (njc_emit::VerifyReport, Vec<njc_emit::VerifyFinding>) {
    let report = njc_emit::verify_module(em, platform, threads);
    let mut findings = report.findings.clone();
    findings.extend(njc_emit::check_explicit_census(&report, census));
    (report, findings)
}

fn verify_binary_smoke(threads: usize) -> ExitCode {
    let platforms = [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ];
    let mut cells = 0usize;
    let mut total_sites = 0usize;
    let mut failures = 0usize;
    for platform in &platforms {
        let kinds: Vec<ConfigKind> = if platform.trap.traps_on_read {
            vec![
                ConfigKind::NoNullOptNoTrap,
                ConfigKind::OldNullCheck,
                ConfigKind::Full,
            ]
        } else {
            vec![
                ConfigKind::NoNullOptNoTrap,
                ConfigKind::AixSpeculation,
                ConfigKind::AixNoSpeculation,
            ]
        };
        for kind in kinds {
            for w in njc_workloads::all() {
                let (em, census, _) = match emit_one(&w.module, platform, kind, threads) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("FAIL {} on {} ({:?}): {e}", w.name, platform.name, kind);
                        failures += 1;
                        continue;
                    }
                };
                let (report, findings) = verify_one_binary(&em, &census, platform, threads);
                for f in &findings {
                    eprintln!("FAIL {} on {} ({:?}): {f}", w.name, platform.name, kind);
                }
                failures += findings.len();
                total_sites += report.sites;
                cells += 1;
            }
        }
    }
    println!(
        "verify-binary smoke: {cells} corpus cells, {total_sites} site entries, {failures} findings"
    );
    if failures == 0 {
        println!("verify-binary smoke: CLEAN");
        ExitCode::SUCCESS
    } else {
        eprintln!("verify-binary smoke: FAILED");
        ExitCode::FAILURE
    }
}

fn verify_binary_main(argv: &[String]) -> Run {
    let args = parse(
        argv,
        &["--smoke"],
        &["--config", "--platform", "--threads"],
        1,
    )?;
    let kind = args.config()?.unwrap_or(ConfigKind::Full);
    let platform = args.platform()?.unwrap_or(Platform::windows_ia32());
    let threads = args.threads()?.unwrap_or(4);
    if args.flag("--smoke") {
        return Ok(verify_binary_smoke(threads));
    }
    let module = read_module(input_file(&args)?)?;
    let (em, census, _) = emit_one(&module, &platform, kind, threads)?;
    let (report, findings) = verify_one_binary(&em, &census, &platform, threads);
    println!(
        "verified {} functions, {} site entries, {} handler ranges, {} silent-read sites ({} on {})",
        report.functions,
        report.sites,
        report.handlers,
        report.silent_read_sites,
        kind.to_config(&platform).name,
        platform.name,
    );
    if findings.is_empty() {
        println!("verify-binary: CLEAN");
        return Ok(ExitCode::SUCCESS);
    }
    for f in &findings {
        eprintln!("FINDING: {f}");
    }
    eprintln!("verify-binary: FAILED ({} findings)", findings.len());
    Ok(ExitCode::FAILURE)
}

fn recover_main(argv: &[String]) -> Run {
    use njc_bench::recover::{write_fixtures, RecoverReport, COMMITTED_SEEDS};
    let args = parse(
        argv,
        &["--json", "--write-fixtures"],
        &["--seeds", "--fixtures"],
        0,
    )?;
    // The default runs the committed corpus; --seeds N sweeps fresh
    // instances 0..N instead.
    let seeds: Option<u64> = args.positive("--seeds")?;
    let fixtures = args
        .path("--fixtures")
        .unwrap_or_else(|| "tests/fixtures".into());
    if args.flag("--write-fixtures") {
        let n = write_fixtures(&fixtures, &COMMITTED_SEEDS)
            .map_err(|e| format!("cannot write fixtures: {e}"))?;
        println!(
            "njc recover: wrote {} fixture file(s) under {}",
            n,
            fixtures.display()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let seed_list: Vec<u64> = match seeds {
        None => COMMITTED_SEEDS.to_vec(),
        Some(n) => (0..n).collect(),
    };
    let report = RecoverReport::run(&seed_list, &fixtures);
    if args.flag("--json") {
        print!("{}", report.to_json());
    } else {
        for c in &report.cells {
            let status = if c.ok() { "ok" } else { "FAIL" };
            print!(
                "cell {} ({}) seed {}: {status}, {} recover(ies)",
                c.rule, c.strategy, c.seed, c.recovered
            );
            if let Some(m) = &c.mismatch {
                print!(" -- {m}");
            }
            if let Some(m) = &c.strict_mismatch {
                print!(" -- strict sweep: {m}");
            }
            println!();
        }
        for d in &report.drift {
            println!("drift: {d}");
        }
        match &report.deopt {
            Ok(s) => println!("deopt round trip: {s}"),
            Err(e) => println!("deopt round trip: FAIL: {e}"),
        }
        println!(
            "recover: {} cell(s), {} drift finding(s), {}",
            report.cells.len(),
            report.drift.len(),
            if report.is_clean() {
                "clean"
            } else {
                "NOT CLEAN"
            }
        );
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The default command: optimize one file and run and/or print it.
fn compile_main(argv: &[String]) -> Run {
    let args = parse(
        argv,
        &["--emit", "--run", "--all"],
        &["--config", "--platform", "--events-out", "--trace-out"],
        1,
    )?;
    let kind = args.config()?.unwrap_or(ConfigKind::Full);
    let platform = args.platform()?.unwrap_or(Platform::windows_ia32());
    let module = read_module(input_file(&args)?)?;
    let emit = args.flag("--emit");
    let run = args.flag("--run") || !emit;
    let (events_out, trace_out) = (args.path("--events-out"), args.path("--trace-out"));
    if !args.flag("--all") {
        return Ok(run_one(
            &module,
            &platform,
            kind,
            emit,
            run,
            &events_out,
            &trace_out,
        ));
    }
    let mut code = ExitCode::SUCCESS;
    for k in ConfigKind::table12_rows() {
        let c = run_one(&module, &platform, k, emit, run, &events_out, &trace_out);
        if c != ExitCode::SUCCESS {
            code = c;
        }
        println!();
    }
    Ok(code)
}

type Command = fn(&[String]) -> Run;

const COMMANDS: [(&str, Command); 7] = [
    ("difftest", difftest_main),
    ("emit", emit_main),
    ("verify-binary", verify_binary_main),
    ("explain", explain_main),
    ("runtime", runtime_main),
    ("service", service_main),
    ("recover", recover_main),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = COMMANDS
        .iter()
        .find(|(name, _)| argv.first().is_some_and(|a| a == name));
    let (prefix, result) = match command {
        Some((name, run)) => (format!("njc {name}"), run(&argv[1..])),
        None => ("njc".to_string(), compile_main(&argv)),
    };
    match result {
        Ok(code) => code,
        Err(Stop::Usage(e)) => e.exit(),
        Err(Stop::Error(e)) => {
            eprintln!("{prefix}: {e}");
            ExitCode::FAILURE
        }
    }
}
