//! End-to-end and per-layer host-time benchmark for the njc JIT.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_exec --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload as a closed loop: the next op starts
//! when the previous one has finished and been checked. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its spans
//! and the per-layer self-time table under `.bench_out/`. See
//! `perfbench/README.md` for every metric and workload.

mod clock;
mod fleet;
mod jit;
mod pipeline;
mod stats;
mod suite;
mod tiered;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workload::{Measured, Metrics, Tally, Workload};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["suite_exec", "jit_compile", "tiered_hot", "service_fleet"];

/// End-to-end metrics (untraced runs) with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs) with their units. A workload that does
/// not exercise a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("tenants_per_s", "tenants/s"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p90", "ms"),
    ("exec_ms_p50", "ms"),
    ("exec_ms_p90", "ms"),
    ("vm_minsts_per_s", "Minsts/s"),
    ("modeled_mcycles", "Mcycles"),
    ("code_bytes", "bytes"),
    ("fail_ratio", "ratio"),
    ("trace_overhead", "ratio"),
    ("ir.parse_ms", "ms"),
    ("ir.parse_mb_per_s", "MB/s"),
    ("ir.verify_ms", "ms"),
    ("interproc.infer_ms", "ms"),
    ("interproc.facts", "count"),
    ("opt.optimize_ms", "ms"),
    ("opt.pass.inline_ms", "ms"),
    ("opt.pass.nullcheck_ms", "ms"),
    ("opt.pass.boundcheck_ms", "ms"),
    ("opt.pass.scalar_ms", "ms"),
    ("opt.pass.cleanup_ms", "ms"),
    ("opt.solver_pops", "count"),
    ("opt.checks_removed", "count"),
    ("opt.checks_implicit", "count"),
    ("codegen.lower_ms", "ms"),
    ("codegen.minsts", "count"),
    ("emit.encode_ms", "ms"),
    ("emit.elf_roundtrip_ms", "ms"),
    ("emit.verify_ms", "ms"),
    ("emit.sites", "count"),
    ("emit.bytes_run_ms", "ms"),
    ("emit.bytes_minsts_per_s", "Minsts/s"),
    ("vm.run_ms", "ms"),
    ("vm.insts", "count"),
    ("vm.minsts_per_s", "Minsts/s"),
    ("vm.traps", "count"),
    ("vm.explicit_checks", "count"),
    ("vm.profiled_ms", "ms"),
    ("vm.profile_overhead", "ratio"),
    ("vm.implicit_run_ms", "ms"),
    ("vm.explicit_run_ms", "ms"),
    ("runtime.tier0_compile_ms", "ms"),
    ("runtime.recompile_ms", "ms"),
    ("runtime.steady_ms", "ms"),
    ("runtime.unexplained_ms", "ms"),
    ("runtime.recompiles", "count"),
    ("runtime.mid_run_swaps", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p99", "us"),
    ("service.dedup_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.compile_panics", "count"),
    ("recover.recoveries", "count"),
];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Ops a run measures at least, so `op_ms_p90` has ten samples beyond it.
const MIN_OPS: usize = 100;
/// A run stops measuring after this long even short of [`MIN_OPS`].
const MAX_MEASURE_S: f64 = 120.0;
/// Failure messages printed per run; the rest are only counted.
const MAX_REPORTED_FAILURES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What one measuring phase saw.
struct Phase {
    /// Process CPU time of each op, milliseconds.
    op_ms: Vec<f64>,
    /// Wall-clock time of each op, milliseconds.
    wall_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    total: Tally,
    round: Tally,
}

impl Phase {
    /// The phase as the workload's per-layer metrics read it.
    fn measured<'a>(&'a self, tracer: &'a Tracer) -> Measured<'a> {
        Measured {
            ops: self.attempted,
            op_ms: &self.op_ms,
            total: &self.total,
            round: &self.round,
            tracer,
        }
    }
}

/// Runs whole rounds (one op per input) until `seconds` have passed and
/// at least `min_ops` ops were timed. Every fault-free round's
/// deterministic counters must equal `baseline`'s; the first fault-free
/// round becomes the baseline when there is none yet.
///
/// # Errors
/// A round whose deterministic counters differ from the baseline.
fn measure<W: Workload>(
    w: &W,
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
    baseline: &mut Option<Tally>,
) -> Result<Phase, String> {
    let mut phase = Phase {
        op_ms: Vec::new(),
        wall_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        total: Tally::default(),
        round: Tally::default(),
    };
    let start = Instant::now();
    loop {
        let mut round = Tally::default();
        let mut round_failed = 0;
        for i in 0..w.len() {
            tr.set_op(phase.attempted as u64);
            let wall = Instant::now();
            let cpu = clock::process_cpu();
            let out = tr.span("op", |tr| w.run(i, tr));
            phase.op_ms.push(clock::cpu_ms_since(cpu));
            phase.wall_ms.push(wall.elapsed().as_secs_f64() * 1e3);
            phase.attempted += 1;
            let mut checked = w.check(i, &out);
            if tr.is_on() && checked.is_ok() {
                if let Err(e) = w.split(i, &out, tr) {
                    checked = Err(e);
                }
            }
            match checked {
                Ok(t) => round.absorb(&t),
                Err(e) => {
                    if phase.failed < MAX_REPORTED_FAILURES {
                        eprintln!(
                            "perfbench: op {} ({}) failed: {e}",
                            phase.attempted,
                            w.name(i)
                        );
                    }
                    phase.failed += 1;
                    round_failed += 1;
                }
            }
        }
        if round_failed == 0 {
            match baseline {
                Some(b) if b.det != round.det => {
                    return Err(deterministic_mismatch(&b.det, &round.det))
                }
                Some(_) => {}
                None => *baseline = Some(round.clone()),
            }
        }
        phase.total.absorb(&round);
        phase.round = round;
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && phase.op_ms.len() >= min_ops) || elapsed >= MAX_MEASURE_S {
            return Ok(phase);
        }
    }
}

fn deterministic_mismatch(
    want: &std::collections::BTreeMap<&'static str, u64>,
    got: &std::collections::BTreeMap<&'static str, u64>,
) -> String {
    let keys: std::collections::BTreeSet<_> = want.keys().chain(got.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| want.get(*k) != got.get(*k))
        .map(|k| format!("{k}: {:?} then {:?}", want.get(k), got.get(k)))
        .collect();
    format!(
        "deterministic counters changed between repeats of the same seed: {}",
        diffs.join(", ")
    )
}

/// The untimed warm-up round: fills lazy state and, when every op
/// passes its check, records the deterministic counters every measured
/// round must repeat.
fn warm_up<W: Workload>(w: &W) -> Option<Tally> {
    let mut tr = Tracer::new(false);
    let mut round = Tally::default();
    let mut clean = true;
    for i in 0..w.len() {
        let out = w.run(i, &mut tr);
        match w.check(i, &out) {
            Ok(t) => round.absorb(&t),
            Err(e) => {
                eprintln!("perfbench: warm-up op ({}) failed: {e}", w.name(i));
                clean = false;
            }
        }
    }
    clean.then_some(round)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line the benchmark ends with.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        let mut items = Vec::new();
        for (name, unit, value) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            items.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            items.join(", ")
        ))
    }
}

fn ms_sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Sets the workload up [`SETUP_REPS`] times, warms it up, and measures
/// it: end-to-end metrics untraced, or per-layer metrics from a traced
/// phase that follows an untraced one of the same length. Set-up and op
/// times are process CPU time (see [`clock`]).
fn bench<W: Workload>(
    args: &Args,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Report, String> {
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_parallelism={host_parallelism} threads_per_layer={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::THREADS
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = || -> Result<W, String> {
        let cpu = clock::process_cpu();
        let w = setup()?;
        setup_s.push(clock::cpu_ms_since(cpu) / 1e3);
        Ok(w)
    };
    let mut w = timed_setup()?;
    for _ in 1..SETUP_REPS {
        drop(w);
        w = timed_setup()?;
    }
    let mut baseline = warm_up(&w);

    if !args.trace {
        let phase = measure(
            &w,
            args.seconds,
            MIN_OPS,
            &mut Tracer::new(false),
            &mut baseline,
        )?;
        let n = phase.op_ms.len();
        let p90 = stats::percentile(&phase.op_ms, 90.0)
            .ok_or_else(|| format!("only {n} ops measured; op_ms_p90 needs {MIN_OPS}"))?;
        println!(
            "ops={n} inputs_per_round={} highest_supported_percentile=p{} setup_s={setup_s:?}",
            w.len(),
            stats::highest_supported(n).unwrap_or(0.0)
        );
        println!(
            "wall clock, for context: ops_per_s={} op_ms_p50={} op_ms_p90={}",
            n as f64 / (ms_sum(&phase.wall_ms) / 1e3),
            stats::median(&phase.wall_ms),
            stats::percentile(&phase.wall_ms, 90.0).unwrap_or(0.0)
        );
        let values = [
            stats::median(&setup_s),
            n as f64 / (ms_sum(&phase.op_ms) / 1e3),
            stats::median(&phase.op_ms),
            p90,
            peak_rss_mb()?,
        ];
        return Ok(Report {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect(),
        });
    }

    let half = args.seconds / 2.0;
    let plain = measure(&w, half, 1, &mut Tracer::new(false), &mut baseline)?;
    let mut tr = Tracer::new(true);
    let traced = measure(&w, half, 1, &mut tr, &mut baseline)?;
    let mut layer = w.layer_metrics(&traced.measured(&tr));
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    layer.insert("fail_ratio", failed as f64 / attempted as f64);
    layer.insert(
        "trace_overhead",
        stats::mean(&traced.op_ms) / stats::mean(&plain.op_ms) - 1.0,
    );
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("{}-seed{}.spans", args.workload, args.seed));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans and per-layer self-time table: {}", path.display());
    println!("layer calls total_ms self_ms");
    for (name, t) in tr.layer_times() {
        println!(
            "{name} {} {:.3} {:.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(Report {
        attempted,
        failed,
        metrics: layer_report(&layer)?,
    })
}

/// Every per-layer metric in [`PER_LAYER`] order, zero where the
/// workload does not exercise the layer.
///
/// # Errors
/// A workload metric missing from [`PER_LAYER`].
fn layer_report(layer: &Metrics) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if let Some(k) = layer
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload reported unlisted metric {k}"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layer.get(name).copied().unwrap_or(0.0)))
        .collect())
}

fn run(args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    match args.workload.as_str() {
        "suite_exec" => bench(args, || suite::SuiteExec::setup(seed)),
        "jit_compile" => bench(args, || Ok(jit::JitCompile::setup(seed))),
        "tiered_hot" => bench(args, || tiered::TieredHot::setup(seed, 1)),
        "service_fleet" => bench(args, || {
            fleet::ServiceFleet::setup(seed, fleet::FLEET_SCALE)
        }),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|r| r.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_vm::Value;

    /// Measures one round of `w`, traced or not, and returns the phase.
    fn one_round<W: Workload>(w: &W, traced: bool) -> (Phase, Tracer) {
        let mut tr = Tracer::new(traced);
        let phase = measure(w, 0.0, 1, &mut tr, &mut None).expect("deterministic counters");
        (phase, tr)
    }

    fn fail_ratio(p: &Phase) -> f64 {
        p.failed as f64 / p.attempted as f64
    }

    fn micro_suite() -> suite::SuiteExec {
        let programs = vec![(
            "null_seeded".to_string(),
            njc_workloads::micro::null_seeded(),
        )];
        suite::SuiteExec::build(7, programs).expect("reference runs")
    }

    #[test]
    fn planted_failure_raises_fail_ratio_on_suite_exec() {
        let mut w = micro_suite();
        let (clean, _) = one_round(&w, false);
        assert_eq!(clean.attempted, 2);
        assert_eq!(fail_ratio(&clean), 0.0);
        w.inputs[0].reference.trace.push(Value::Int(-1));
        let (planted, _) = one_round(&w, false);
        assert!(
            fail_ratio(&planted) > 0.0,
            "a corrupted reference must fail its op"
        );
        assert_eq!(planted.failed, 1);
    }

    #[test]
    fn planted_failure_raises_fail_ratio_on_tiered_hot() {
        let mut w = tiered::TieredHot::setup(3, 200).expect("reference runs");
        let (clean, _) = one_round(&w, false);
        assert_eq!(fail_ratio(&clean), 0.0);
        w.inputs[0].reference.result = Some(Value::Int(i64::MIN));
        let (planted, _) = one_round(&w, false);
        assert!(
            fail_ratio(&planted) > 0.0,
            "a corrupted reference must fail its op"
        );
    }

    #[test]
    fn deterministic_counters_must_repeat() {
        let w = micro_suite();
        let mut baseline = warm_up(&w);
        let b = baseline.as_mut().expect("clean warm-up");
        *b.det.get_mut("modeled_cycles").expect("cycles counted") += 1;
        let err = measure(&w, 0.0, 1, &mut Tracer::new(false), &mut baseline)
            .err()
            .expect("a changed counter stops the run");
        assert!(err.contains("modeled_cycles"), "{err}");
    }

    #[test]
    fn thread_caps_hold_in_every_layer() {
        assert_eq!(workload::THREADS, 1);
        let p = njc_arch::Platform::windows_ia32();
        let sc = fleet::service_config(&p);
        assert_eq!((sc.workers, sc.carriers, sc.runtime.threads), (1, 1, 1));
        assert_eq!(tiered::runtime_config(&p).threads, 1);
        assert!(micro_suite().inputs.iter().all(|i| i.config.threads == 1));
    }

    #[test]
    fn second_seed_changes_inputs_but_not_metric_names() {
        let a = jit::JitCompile::setup(1);
        let b = jit::JitCompile::setup(2);
        let generated = |w: &jit::JitCompile| -> std::collections::BTreeSet<String> {
            w.inputs
                .iter()
                .filter(|i| i.name.starts_with("gen"))
                .flat_map(|i| i.texts.clone())
                .collect()
        };
        assert_ne!(
            generated(&a),
            generated(&b),
            "generated programs follow the seed"
        );

        let fa = fleet::ServiceFleet::setup(1, 200).expect("references");
        let fb = fleet::ServiceFleet::setup(2, 200).expect("references");
        let order = |f: &fleet::ServiceFleet| -> Vec<String> {
            f.specs.iter().map(|s| s.name.clone()).collect()
        };
        assert_ne!(order(&fa), order(&fb), "fleet order follows the seed");

        for f in [&fa, &fb] {
            let (phase, tr) = one_round(f, true);
            assert_eq!(phase.failed, 0);
            let m = f.layer_metrics(&phase.measured(&tr));
            let names: Vec<_> = layer_report(&m)
                .expect("listed")
                .iter()
                .map(|r| r.0)
                .collect();
            assert_eq!(names, PER_LAYER.map(|(n, _)| n));
        }
    }

    #[test]
    fn every_workload_reports_only_listed_metrics() {
        fn listed<W: Workload>(w: &W) {
            let (phase, tr) = one_round(w, true);
            assert_eq!(phase.failed, 0);
            let m = w.layer_metrics(&phase.measured(&tr));
            layer_report(&m).expect("every reported metric is listed");
        }
        listed(&micro_suite());
        listed(&tiered::TieredHot::setup(5, 200).expect("references"));
    }

    #[test]
    fn tiered_parts_and_unexplained_add_up_to_the_op() {
        let w = tiered::TieredHot::setup(9, 200).expect("references");
        let (phase, tr) = one_round(&w, true);
        assert_eq!(phase.failed, 0);
        let m = w.layer_metrics(&phase.measured(&tr));
        let parts: f64 = [
            "runtime.tier0_compile_ms",
            "vm.profiled_ms",
            "runtime.recompile_ms",
            "runtime.steady_ms",
            "runtime.unexplained_ms",
        ]
        .iter()
        .map(|k| m[k])
        .sum();
        assert!((parts - tr.mean_ms("op")).abs() < 1e-9);
    }

    #[test]
    fn benchmark_manifest_lists_the_same_names() {
        let manifest = include_str!("../../BENCHMARK.json");
        let (head, per_layer) = manifest.split_once("\"per_layer\"").expect("per_layer key");
        let (_, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end key");
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for w in WORKLOADS {
            assert!(head.contains(&quoted(w)), "workload {w}");
        }
        for (n, u) in END_TO_END {
            assert!(end_to_end.contains(&quoted(n)), "end-to-end {n}");
            assert!(end_to_end.contains(&format!("{}, \"unit\": \"{u}\"", quoted(n))));
        }
        for (n, u) in PER_LAYER {
            assert!(per_layer.contains(&quoted(n)), "per-layer {n}");
            assert!(per_layer.contains(&format!("{}, \"unit\": \"{u}\"", quoted(n))));
        }
        let listed = manifest.matches("\"name\": ").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload suite_exec --seed 3 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload suite_exec --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload suite_exec --seconds 2")).is_err());
        assert!(parse_args(&args(
            "--workload suite_exec --seed 3 --seconds 2 --trace 2"
        ))
        .is_err());
    }
}
