//! `njc-analyze` — static null-check lint over every workload ×
//! platform × configuration.
//!
//! For each platform's configuration rows this compiles every workload
//! and runs the `njc-analysis` coverage validator against the *machine's*
//! trap model, printing one lint line per configuration (violation totals
//! by kind) and, with `--verbose`, every individual finding.
//!
//! Exit status is the self-test of the reproduction:
//! * any violation in a configuration that must be sound → exit 1;
//! * **no** violation for "Illegal Implicit" on AIX (the §5.4 negative
//!   control the validator exists to catch) → exit 1.
//!
//! ```text
//! cargo run --release -p njc-bench --bin njc_analyze [--verbose] [workload-filter]
//! ```
//!
//! With `--infer` the tool instead runs the interprocedural non-nullness
//! inference (`njc-interproc`) as a lint: for each program it prints the
//! inferred parameter/return/field facts per function and the null checks
//! those facts kill. Kills are counted from the provenance stream — phase 1
//! eliminations whose justifying fact is [`Redundancy::Interproc`] — which
//! is exactly the set of removals the intraprocedural analysis could not
//! justify. (Final-IR site counts are useless for this: phase 2 marks
//! *every* guaranteed-trapping access as an exception site, so on a
//! trapping platform the optimized IR looks the same however many checks
//! died.) `--json` emits the same data machine-readably (deterministic:
//! fact maps are ordered, nothing timing-dependent is included), and
//! `--smoke` turns the run into a CI gate: it fails when the inference
//! finds no facts at all or kills no checks on the built-in corpus.
//!
//! ```text
//! cargo run --release -p njc-bench --bin njc_analyze -- --infer [--json] [--smoke]
//! ```
//!
//! With `--gvn` the tool lints the value-numbered forward non-nullness
//! instead: every program is optimized with and without `OptConfig::gvn`
//! and the tool prints, per program, the phase-1 elimination counts of
//! both runs and the kills only the congruence classes could justify —
//! counted from the provenance stream (eliminations whose justifying fact
//! is [`Redundancy::Gvn`]), the same doctrine as `--infer`. `--json`
//! emits the rows machine-readably; `--smoke` gates CI: it fails when the
//! value numbering kills nothing on the built-in corpus, when any legacy
//! kill is lost (GVN-on must eliminate a superset), or when two
//! independent runs disagree byte-for-byte on the JSON (a determinism
//! regression).
//!
//! ```text
//! cargo run --release -p njc-bench --bin njc_analyze -- --gvn [--json] [--smoke]
//! ```
//!
//! [`Redundancy::Interproc`]: njc_observe::Redundancy::Interproc
//! [`Redundancy::Gvn`]: njc_observe::Redundancy::Gvn

use std::collections::BTreeMap;
use std::process::ExitCode;

use njc_analysis::validate_module;
use njc_arch::Platform;
use njc_bench::cli::Spec;
use njc_ir::Module;
use njc_jit::compile;
use njc_observe::{json_obj, Json};
use njc_opt::{ConfigKind, OptConfig};
use njc_workloads::gen::{build_call_module, gen_call_actions, Rng};

const SPEC: Spec = Spec {
    usage: "usage: njc_analyze [--verbose] [workload-filter]\n       \
            njc_analyze --infer [--json] [--smoke] [workload-filter]\n       \
            njc_analyze --gvn [--json] [--smoke] [workload-filter]",
    switches: &["--verbose", "-v", "--infer", "--gvn", "--json", "--smoke"],
    options: &[],
    positionals: 1,
};

fn main() -> ExitCode {
    let args = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|e| e.exit());
    let verbose = args.flag("--verbose") || args.flag("-v");
    let (json, smoke) = (args.flag("--json"), args.flag("--smoke"));
    let filter = args.positional(0).map(str::to_string);
    if args.flag("--gvn") {
        gvn_main(json, smoke, filter)
    } else if args.flag("--infer") {
        infer_main(json, smoke, filter)
    } else {
        classic_main(verbose, filter)
    }
}

/// One program's inference lint result.
struct InferRow {
    name: String,
    rounds: usize,
    /// function name → (facts, checks killed in that function).
    functions: BTreeMap<String, (njc_core::ctx::FnFacts, usize)>,
    /// `Class.field` names proven always non-null, sorted.
    fields: Vec<String>,
    /// Phase 1 eliminations without / with the inference (whole module).
    eliminated_off: usize,
    eliminated_on: usize,
    /// Eliminations attributed to an interprocedural fact (provenance).
    killed: usize,
}

/// The `--infer` corpus: every (filtered) workload plus a fixed set of
/// call-heavy generated programs, which are guaranteed to carry
/// interprocedural facts.
fn infer_corpus(smoke: bool, filter: Option<&str>) -> Vec<(String, Module)> {
    let mut programs: Vec<(String, Module)> = njc_workloads::all()
        .into_iter()
        .filter(|w| filter.is_none_or(|f| w.name.contains(f)))
        .take(if smoke { 4 } else { usize::MAX })
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    if filter.is_none() {
        for seed in 0..4u64 {
            let mut rng = Rng::new(seed ^ 0xca11);
            let len = rng.range(1, 10);
            let actions = gen_call_actions(&mut rng, len, 2);
            programs.push((format!("call-{seed}"), build_call_module(&actions)));
        }
    }
    programs
}

/// Counts, per function, the phase 1 eliminations of `trace` justified by
/// an interprocedural fact.
fn interproc_kills(trace: &njc_observe::ModuleTrace) -> BTreeMap<String, usize> {
    let mut kills = BTreeMap::new();
    for ft in &trace.functions {
        let n = ft
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    njc_observe::CheckEvent::Phase1Eliminated {
                        why: njc_observe::Redundancy::Interproc(_),
                        ..
                    }
                )
            })
            .count();
        if n > 0 {
            kills.insert(ft.function.clone(), n);
        }
    }
    kills
}

fn infer_row(name: &str, module: &Module, platform: &Platform) -> InferRow {
    let kind = ConfigKind::Full;
    let cfg_off = kind.to_config(platform);
    let cfg_on = OptConfig {
        interproc: true,
        gvn: false,
        ..kind.to_config(platform)
    };
    // Infer over the prepared module — the same input the pipeline's own
    // inference sees, so the printed facts are exactly the ones phase 1
    // consumed.
    let mut prepared = module.clone();
    njc_opt::prepare_module(&mut prepared, platform, &cfg_off);
    let (asm, stats) = njc_interproc::infer_with_stats(&prepared);

    let mut off = module.clone();
    let stats_off = njc_opt::optimize_module(&mut off, platform, &cfg_off);
    let mut on = module.clone();
    let (stats_on, trace) = njc_opt::optimize_module_traced(&mut on, platform, &cfg_on);
    let kills = interproc_kills(&trace);

    let mut functions: BTreeMap<String, (njc_core::ctx::FnFacts, usize)> = BTreeMap::new();
    for (fname, facts) in asm.functions() {
        functions.insert(
            fname.to_string(),
            (facts.clone(), kills.get(fname).copied().unwrap_or(0)),
        );
    }
    let fields = asm
        .fields()
        .map(|fid| {
            let d = prepared.field_decl(fid);
            format!("{}.{}", prepared.class(d.class).name, d.name)
        })
        .collect();
    InferRow {
        name: name.to_string(),
        rounds: stats.rounds,
        functions,
        fields,
        eliminated_off: stats_off.null_checks.phase1.eliminated,
        eliminated_on: stats_on.null_checks.phase1.eliminated,
        killed: kills.values().sum(),
    }
}

fn facts_summary(facts: &njc_core::ctx::FnFacts) -> String {
    let mut parts = Vec::new();
    if !facts.nonnull_params.is_empty() {
        let ps: Vec<String> = facts
            .nonnull_params
            .iter()
            .map(|p| format!("v{p}"))
            .collect();
        parts.push(format!(
            "params [{}] non-null at all {} call site(s)",
            ps.join(", "),
            facts.call_sites
        ));
    }
    if facts.nonnull_return {
        parts.push("return non-null".into());
    }
    parts.join("; ")
}

fn infer_json(rows: &[InferRow], total_facts: usize, total_killed: usize) -> String {
    let programs = rows.iter().map(|r| {
        let functions = r.functions.iter().map(|(fname, (facts, killed))| {
            json_obj! {
                "name": fname, "nonnull_params": Json::array(facts.nonnull_params.iter().copied()),
                "call_sites": facts.call_sites, "nonnull_return": facts.nonnull_return,
                "killed": *killed,
            }
        });
        json_obj! {
            "name": &r.name, "rounds": r.rounds,
            "phase1_eliminated_off": r.eliminated_off, "phase1_eliminated_on": r.eliminated_on,
            "killed": r.killed, "functions": Json::array(functions),
            "nonnull_fields": Json::array(&r.fields),
        }
    });
    json_obj! {
        "programs": Json::array(programs), "total_facts": total_facts,
        "total_phase1_eliminated_off": rows.iter().map(|r| r.eliminated_off).sum::<usize>(),
        "total_phase1_eliminated_on": rows.iter().map(|r| r.eliminated_on).sum::<usize>(),
        "total_killed": total_killed,
    }
    .report()
}

/// `--infer`: print (or gate on) the interprocedural inference lint.
fn infer_main(json: bool, smoke: bool, filter: Option<String>) -> ExitCode {
    let platform = Platform::windows_ia32();
    let corpus = infer_corpus(smoke, filter.as_deref());
    if corpus.is_empty() {
        eprintln!("no workload matches the filter");
        return ExitCode::FAILURE;
    }
    let rows: Vec<InferRow> = corpus
        .iter()
        .map(|(name, m)| infer_row(name, m, &platform))
        .collect();

    let mut total_facts = 0usize;
    let mut total_killed = 0usize;
    for r in &rows {
        total_killed += r.killed;
        total_facts += r.fields.len();
        for (facts, _) in r.functions.values() {
            total_facts += facts.nonnull_params.len() + usize::from(facts.nonnull_return);
        }
    }

    if json {
        print!("{}", infer_json(&rows, total_facts, total_killed));
    } else {
        for r in &rows {
            println!(
                "== {} ==  ({} fixpoint round(s), phase 1 eliminated {} -> {}, \
                 {} interproc-killed)",
                r.name, r.rounds, r.eliminated_off, r.eliminated_on, r.killed
            );
            if r.functions.is_empty() && r.fields.is_empty() {
                println!("  (no facts inferred)");
            }
            for (fname, (facts, killed)) in &r.functions {
                println!(
                    "  fn {:12} {}  [{} check(s) killed]",
                    fname,
                    facts_summary(facts),
                    killed
                );
            }
            for f in &r.fields {
                println!("  field {f} always non-null (initialized on every constructor path)");
            }
        }
        println!(
            "\ninterproc lint: {} program(s), {} fact(s), {} check(s) killed by \
             interprocedural facts",
            rows.len(),
            total_facts,
            total_killed
        );
    }

    if smoke {
        // The gate: the inference must find facts and kill checks on the
        // built-in corpus — an empty result means the analysis or its
        // pipeline threading silently broke.
        if total_facts == 0 || total_killed == 0 {
            eprintln!("FAIL: inference found {total_facts} facts, killed {total_killed} checks");
            return ExitCode::FAILURE;
        }
        if !json {
            println!("infer --smoke: OK");
        }
    }
    ExitCode::SUCCESS
}

/// One program's value-numbering lint result.
struct GvnRow {
    name: String,
    /// Phase 1 eliminations without / with the value numbering.
    eliminated_off: usize,
    eliminated_on: usize,
    /// function name → eliminations attributed to a congruence class
    /// (`Redundancy::Gvn` provenance, phase 1 and Whaley alike).
    functions: BTreeMap<String, usize>,
}

impl GvnRow {
    fn killed(&self) -> usize {
        self.functions.values().sum()
    }
}

/// Counts, per function, the eliminations of `trace` justified by a
/// congruence class rather than a per-variable fact.
fn gvn_kills(trace: &njc_observe::ModuleTrace) -> BTreeMap<String, usize> {
    let mut kills = BTreeMap::new();
    for ft in &trace.functions {
        let n = ft
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    njc_observe::CheckEvent::Phase1Eliminated {
                        why: njc_observe::Redundancy::Gvn { .. },
                        ..
                    } | njc_observe::CheckEvent::WhaleyEliminated {
                        why: njc_observe::Redundancy::Gvn { .. },
                        ..
                    }
                )
            })
            .count();
        if n > 0 {
            kills.insert(ft.function.clone(), n);
        }
    }
    kills
}

fn gvn_row(name: &str, module: &Module, platform: &Platform) -> GvnRow {
    let kind = ConfigKind::Full;
    let cfg_off = kind.to_config(platform);
    let cfg_on = OptConfig {
        gvn: true,
        ..kind.to_config(platform)
    };
    let mut off = module.clone();
    let stats_off = njc_opt::optimize_module(&mut off, platform, &cfg_off);
    let mut on = module.clone();
    let (stats_on, trace) = njc_opt::optimize_module_traced(&mut on, platform, &cfg_on);
    GvnRow {
        name: name.to_string(),
        eliminated_off: stats_off.null_checks.phase1.eliminated,
        eliminated_on: stats_on.null_checks.phase1.eliminated,
        functions: gvn_kills(&trace),
    }
}

fn gvn_json(rows: &[GvnRow]) -> String {
    let programs = rows.iter().map(|r| {
        let functions = r.functions.iter().map(|(fname, killed)| {
            json_obj! {"name": fname, "gvn_killed": *killed}
        });
        json_obj! {
            "name": &r.name, "phase1_eliminated_off": r.eliminated_off,
            "phase1_eliminated_on": r.eliminated_on, "gvn_killed": r.killed(),
            "functions": Json::array(functions),
        }
    });
    json_obj! {
        "programs": Json::array(programs),
        "total_phase1_eliminated_off": rows.iter().map(|r| r.eliminated_off).sum::<usize>(),
        "total_phase1_eliminated_on": rows.iter().map(|r| r.eliminated_on).sum::<usize>(),
        "total_gvn_killed": rows.iter().map(GvnRow::killed).sum::<usize>(),
    }
    .report()
}

/// The `--gvn` corpus: the `--infer` corpus plus the paper-figure micro
/// programs, which carry the merged-name and re-loaded-field shapes the
/// value numbering exists to catch.
fn gvn_corpus(smoke: bool, filter: Option<&str>) -> Vec<(String, Module)> {
    let mut programs = infer_corpus(smoke, filter);
    for (name, m) in njc_workloads::micro::all_micro() {
        if filter.is_none_or(|f| name.contains(f)) {
            programs.push((name.to_string(), m));
        }
    }
    programs
}

/// `--gvn`: print (or gate on) the value-numbered non-nullness lint.
fn gvn_main(json: bool, smoke: bool, filter: Option<String>) -> ExitCode {
    let platform = Platform::windows_ia32();
    let corpus = gvn_corpus(smoke, filter.as_deref());
    if corpus.is_empty() {
        eprintln!("no workload matches the filter");
        return ExitCode::FAILURE;
    }
    let rows: Vec<GvnRow> = corpus
        .iter()
        .map(|(name, m)| gvn_row(name, m, &platform))
        .collect();

    let total_killed: usize = rows.iter().map(GvnRow::killed).sum();
    let total_off: usize = rows.iter().map(|r| r.eliminated_off).sum();
    let total_on: usize = rows.iter().map(|r| r.eliminated_on).sum();

    if json {
        print!("{}", gvn_json(&rows));
    } else {
        for r in &rows {
            println!(
                "== {} ==  (phase 1 eliminated {} -> {}, {} congruence-class-killed)",
                r.name,
                r.eliminated_off,
                r.eliminated_on,
                r.killed()
            );
            for (fname, killed) in &r.functions {
                println!("  fn {fname:12} {killed} check(s) killed by a congruence class");
            }
        }
        println!(
            "\ngvn lint: {} program(s), phase 1 eliminated {total_off} -> {total_on}, \
             {total_killed} check(s) killed by congruence classes",
            rows.len()
        );
    }

    if smoke {
        // The gates: the value numbering must strictly add kills on the
        // built-in corpus, never lose a legacy one, and reproduce its own
        // report byte-for-byte on a second independent run.
        if total_killed == 0 {
            eprintln!("FAIL: the value numbering killed no checks on the corpus");
            return ExitCode::FAILURE;
        }
        if total_on < total_off + total_killed {
            eprintln!(
                "FAIL: GVN-on lost legacy kills (off {total_off}, on {total_on}, \
                 gvn-attributed {total_killed})"
            );
            return ExitCode::FAILURE;
        }
        let rerun: Vec<GvnRow> = corpus
            .iter()
            .map(|(name, m)| gvn_row(name, m, &platform))
            .collect();
        if gvn_json(&rows) != gvn_json(&rerun) {
            eprintln!("FAIL: two runs disagree byte-for-byte (determinism regression)");
            return ExitCode::FAILURE;
        }
        if !json {
            println!("gvn --smoke: OK");
        }
    }
    ExitCode::SUCCESS
}

/// The original lint: coverage-validate every workload × platform ×
/// configuration.
fn classic_main(verbose: bool, filter: Option<String>) -> ExitCode {
    let workloads: Vec<_> = njc_workloads::all()
        .into_iter()
        .filter(|w| filter.as_deref().is_none_or(|f| w.name.contains(f)))
        .collect();
    if workloads.is_empty() {
        eprintln!("no workload matches the filter");
        return ExitCode::FAILURE;
    }

    let suites: [(Platform, &[ConfigKind]); 3] = [
        (Platform::windows_ia32(), &ConfigKind::table12_rows()),
        (Platform::aix_ppc(), &ConfigKind::table67_rows()),
        (Platform::linux_s390(), &ConfigKind::table12_rows()),
    ];

    let mut failed = false;
    for (platform, kinds) in suites {
        println!("== {} ==", platform.name);
        for &kind in kinds {
            let must_be_unsound =
                kind == ConfigKind::AixIllegalImplicit && !platform.trap.traps_on_read;
            let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
            let mut total = 0usize;
            for w in &workloads {
                let c = compile(w, &platform, kind);
                let report = validate_module(&c.module, platform.trap);
                for v in &report.violations {
                    *by_kind.entry(v.kind.label()).or_default() += 1;
                    total += 1;
                    if verbose {
                        println!("    {}: {v}", w.name);
                    }
                }
            }
            let verdict = match (total, must_be_unsound) {
                (0, false) => "ok (proven sound)",
                (_, false) => {
                    failed = true;
                    "FAIL (sound configuration flagged)"
                }
                (0, true) => {
                    failed = true;
                    "FAIL (negative control not flagged)"
                }
                (_, true) => "flagged as expected (§5.4 negative control)",
            };
            let detail = if by_kind.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}: {n}")).collect();
                format!(" [{}]", parts.join(", "))
            };
            println!(
                "  {:32} {:>4} violation(s)  {}{}",
                kind.to_config(&platform).name,
                total,
                verdict,
                detail
            );
        }
    }

    if failed {
        eprintln!("\nstatic validation FAILED");
        ExitCode::FAILURE
    } else {
        println!("\nstatic validation passed");
        ExitCode::SUCCESS
    }
}
