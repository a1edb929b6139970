//! Compile-time benchmark: how fast is the optimizer itself?
//!
//! Times `optimize_module` + `njc_codegen` lowering per workload × thread
//! count over repeated warm runs, checks that the parallel pipeline is
//! byte-identical to the sequential one, and measures the worklist solver
//! against the round-robin oracle on the same analyses. Results go to
//! `BENCH_compile.json` (median/p90 wall time, solver pops, blocks
//! processed, per-pass thread-CPU breakdown).
//!
//! ```text
//! cargo run --release -p njc-bench --bin compile_bench            # full run
//! cargo run --release -p njc-bench --bin compile_bench -- --smoke # CI gate
//! cargo run --release -p njc-bench --bin compile_bench -- --runs 9 --out BENCH_compile.json
//! ```
//!
//! The SPECjvm98 modules are scaled into multi-function workloads (every
//! function cloned under suffixed names) so the per-function parallelism
//! has enough independent work to spread. Wall-clock speedup from threads
//! is bounded by the host: `host_parallelism` is recorded in the JSON so a
//! single-CPU container reporting ~1.0× is readable as a host limit, not
//! an optimizer regression.
//!
//! Two timing domains are reported and must not be conflated:
//!
//! * `median_ms` / `p90_ms` / `opt_wall_ms` — wall-clock, affected by the
//!   host core count and scheduler.
//! * `passes` — per-pass *thread CPU time*, summed across worker threads.
//!   CPU time measures work done, so a pass's number is stable across
//!   `threads` (an earlier wall-clock version of these timers picked up
//!   other threads' concurrent passes and showed 3–10× outliers under
//!   `threads > 1`). `pass_cpu_stability` records the worst cross-thread
//!   ratio per workload as the regression witness.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use njc_arch::Platform;
use njc_bench::cli::{Spec, UsageError};
use njc_bench::harness::{median_ms, p90_ms};
use njc_core::nonnull::{compute_sets, NonNullProblem};
use njc_dataflow::{solve_cached, solve_round_robin};
use njc_ir::{CfgCache, Cond, FuncBuilder, Module, Type};
use njc_observe::{json_obj, Json};
use njc_opt::{ConfigKind, OptConfig, PipelineStats};
use njc_workloads::Workload;

/// Extra clones of every function (8× total module size).
const SCALE_COPIES: usize = 7;
const THREAD_GRID: [usize; 3] = [1, 2, 4];

const SPEC: Spec = Spec {
    usage: "usage: compile_bench [--smoke] [--runs N] [--out PATH]",
    switches: &["--smoke"],
    options: &["--runs", "--out"],
    positionals: 0,
};

struct Args {
    smoke: bool,
    runs: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, UsageError> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    Ok(Args {
        smoke: args.flag("--smoke"),
        runs: args.get("--runs")?.unwrap_or(5),
        out: args.out().unwrap_or_else(|| "BENCH_compile.json".into()),
    })
}

/// Scales a workload into a multi-function module: every original
/// function is cloned `copies` times under a suffixed name. Clones keep
/// their callee ids (the originals stay in place), so the module stays
/// well-formed and every clone is optimized independently.
fn scale(w: &Workload, copies: usize) -> Module {
    let mut m = w.module.clone();
    let originals: Vec<_> = m.functions().to_vec();
    for k in 0..copies {
        for f in &originals {
            let mut c = f.clone();
            c.set_name(format!("{}__copy{}", f.name(), k));
            m.add_function(c);
        }
    }
    m
}

/// A synthetic function that is *hard* for the round-robin schedule: a
/// chain of `depth` back edges laid out against reverse postorder. Block
/// `k` branches forward to `k+1` and backward to `k-1`; the last block
/// overwrites the null-checked reference, and that kill must travel
/// backward through the chain one block per full RPO sweep (round-robin
/// resolves one against-order edge per pass), while the worklist
/// re-processes only the blocks the change actually reaches.
///
/// Every SPECjvm98 CFG converges in a single RPO sweep, which leaves the
/// round-robin oracle at its floor of compute + confirm = 2 passes and
/// makes `blocks_speedup` degenerate at exactly 2.0000 across the whole
/// suite. This chain is the non-degenerate point of comparison: the
/// worklist advantage scales with `depth` instead of being a constant.
fn back_edge_chain(name: &str, depth: usize) -> njc_ir::Function {
    assert!(depth >= 2, "chain needs at least two blocks");
    let mut b = FuncBuilder::new(name, &[Type::Ref, Type::Ref, Type::Int], Type::Int);
    let checked = b.param(0);
    let other = b.param(1);
    let bound = b.param(2);
    let zero = b.iconst(0);
    b.null_check(checked);
    let blocks: Vec<_> = (0..depth).map(|_| b.new_block()).collect();
    let exit = b.new_block();
    b.goto(blocks[0]);
    for k in 0..depth {
        b.switch_to(blocks[k]);
        let forward = if k + 1 < depth { blocks[k + 1] } else { exit };
        // `blocks[k] -> blocks[k-1]` is the against-RPO edge; the head of
        // the chain bails to the exit instead.
        let backward = if k == 0 { exit } else { blocks[k - 1] };
        if k + 1 == depth {
            b.assign(checked, other); // kills the non-nullness fact
        }
        b.br_if(Cond::Lt, zero, bound, forward, backward);
    }
    b.switch_to(exit);
    b.ret(Some(zero));
    b.finish()
}

/// The irregular-CFG workload for the solver comparison: chains of several
/// depths, so the reported speedup averages over a range of chain lengths
/// rather than reflecting one hand-picked constant.
fn irregular_module() -> Module {
    let mut m = Module::new("irregular");
    for &depth in &[8usize, 16, 24, 32] {
        m.add_function(back_edge_chain(&format!("chain{depth}"), depth));
    }
    m
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// The IR of every function, concatenated — the byte-identity witness.
fn module_display(m: &Module) -> String {
    let mut s = String::new();
    for f in m.functions() {
        s.push_str(&f.to_string());
        s.push('\n');
    }
    s
}

/// One compile: optimize + lower, returning wall time and the stats.
fn compile_once(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
) -> (Duration, PipelineStats, Module) {
    let mut m = module.clone();
    let t = Instant::now();
    let stats = njc_opt::optimize_module(&mut m, platform, config);
    let _machine = njc_codegen::lower_module(&m);
    (t.elapsed(), stats, m)
}

struct GridPoint {
    threads: usize,
    /// Wall-clock optimize + lower, median over runs.
    median_ms: f64,
    p90_ms: f64,
    /// Wall-clock of `optimize_module` alone, median over runs.
    opt_wall_ms: f64,
    solver_pops: usize,
    solver_iterations: usize,
    /// Per-pass thread CPU time (work done), summed across workers.
    passes: Vec<(&'static str, f64)>,
}

impl GridPoint {
    fn pass_cpu_total_ms(&self) -> f64 {
        self.passes.iter().map(|(_, v)| v).sum()
    }
}

/// The worst cross-thread-count ratio of any pass's CPU time, over passes
/// that take at least `floor_ms` at `threads = 1` (tiny passes are noise).
/// CPU time measures work, which does not change with the thread count, so
/// this should stay near 1.0; the old wall-clock timers scored 3–10× here.
fn pass_cpu_stability(grid: &[GridPoint], floor_ms: f64) -> f64 {
    let mut worst: f64 = 1.0;
    for (name, base) in &grid[0].passes {
        if *base < floor_ms {
            continue;
        }
        for g in &grid[1..] {
            if let Some((_, v)) = g.passes.iter().find(|(n, _)| n == name) {
                let ratio = if *v > *base { v / base } else { base / v };
                worst = worst.max(ratio);
            }
        }
    }
    worst
}

/// Direct solver measurement on the non-nullness analysis of every
/// function: worklist vs round-robin, summed over the module.
struct SolverSample {
    wall_ms: f64,
    pops: usize,
    blocks_processed: usize,
    iterations: usize,
}

fn solve_module(module: &Module, worklist: bool) -> SolverSample {
    let mut pops = 0;
    let mut blocks = 0;
    let mut iters = 0;
    let t = Instant::now();
    for f in module.functions() {
        if f.num_vars() == 0 {
            continue;
        }
        let problem = NonNullProblem {
            func: f,
            sets: compute_sets(f),
            earliest: None,
            entry: None,
            num_facts: f.num_vars(),
        };
        let sol = if worklist {
            solve_cached(f, &CfgCache::computed(f), &problem)
        } else {
            solve_round_robin(f, &problem)
        };
        pops += sol.worklist_pops;
        blocks += sol.blocks_processed;
        iters += sol.iterations;
    }
    SolverSample {
        wall_ms: ms(t.elapsed()),
        pops,
        blocks_processed: blocks,
        iterations: iters,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    let platform = Platform::windows_ia32();
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs = if args.smoke { 1 } else { args.runs.max(1) };

    let workloads: Vec<(String, Module)> = njc_workloads::specjvm98()
        .iter()
        .map(|w| {
            (
                format!("{} x{}", w.name, SCALE_COPIES + 1),
                scale(w, SCALE_COPIES),
            )
        })
        .collect();

    let base = ConfigKind::Full.to_config(&platform);
    let mut workload_json = Vec::new();
    let mut solver_json = Vec::new();
    let mut failures = 0usize;

    for (name, module) in &workloads {
        // Determinism gate: sequential vs max-threads must agree exactly.
        let (_, seq_stats, seq_module) = compile_once(module, &platform, &base);
        let par_cfg = OptConfig {
            threads: *THREAD_GRID.last().unwrap(),
            ..base
        };
        let (_, par_stats, par_module) = compile_once(module, &platform, &par_cfg);
        let deterministic = module_display(&seq_module) == module_display(&par_module)
            && seq_module == par_module
            && seq_stats.null_checks == par_stats.null_checks
            && seq_stats.boundchecks_eliminated == par_stats.boundchecks_eliminated
            && seq_stats.dead_removed == par_stats.dead_removed;
        if !deterministic {
            eprintln!("FAIL: {name}: parallel output differs from sequential");
            failures += 1;
        }

        let mut grid = Vec::new();
        for &threads in &THREAD_GRID {
            let config = OptConfig { threads, ..base };
            // Warmup, then timed runs.
            let (_, _, _) = compile_once(module, &platform, &config);
            let mut samples = Vec::with_capacity(runs);
            let mut opt_walls = Vec::with_capacity(runs);
            let mut last_stats = PipelineStats::default();
            for _ in 0..runs {
                let (wall, stats, _) = compile_once(module, &platform, &config);
                samples.push(ms(wall));
                opt_walls.push(ms(stats.wall_time));
                last_stats = stats;
            }
            let median = median_ms(&mut samples);
            let p90 = p90_ms(&samples);
            grid.push(GridPoint {
                threads,
                median_ms: median,
                p90_ms: p90,
                opt_wall_ms: median_ms(&mut opt_walls),
                solver_pops: last_stats.null_checks.solver_pops(),
                solver_iterations: last_stats.null_checks.solver_iterations(),
                passes: last_stats
                    .timings
                    .iter()
                    .map(|(n, d)| (*n, ms(*d)))
                    .collect(),
            });
        }

        let t1 = grid[0].median_ms;
        let t4 = grid.last().unwrap().median_ms;
        let speedup = if t4 > 0.0 { t1 / t4 } else { 1.0 };
        let stability = pass_cpu_stability(&grid, 0.25);
        println!(
            "{name}: t1={t1:.2}ms t{}={t4:.2}ms speedup={speedup:.2}x pops={} pass_cpu_stability={stability:.2}x deterministic={deterministic}",
            THREAD_GRID.last().unwrap(),
            grid[0].solver_pops,
        );

        let grid_json = grid.iter().map(|g| {
            let passes = g.passes.iter().map(|&(pass, ms)| {
                json_obj! {"pass": pass, "ms": Json::Fixed(ms, 4)}
            });
            json_obj! {
                "threads": g.threads, "median_ms": Json::Fixed(g.median_ms, 4),
                "p90_ms": Json::Fixed(g.p90_ms, 4), "opt_wall_ms": Json::Fixed(g.opt_wall_ms, 4),
                "pass_cpu_total_ms": Json::Fixed(g.pass_cpu_total_ms(), 4),
                "solver_pops": g.solver_pops, "solver_iterations": g.solver_iterations,
                "passes": Json::array(passes),
            }
        });
        workload_json.push(
            json_obj! {
                "name": name, "functions": module.num_functions(), "config": base.name,
                "deterministic": deterministic,
            }
            .with(
                format!("speedup_t{}_vs_t1", THREAD_GRID.last().unwrap()),
                Json::Fixed(speedup, 4),
            )
            .with("pass_cpu_stability", Json::Fixed(stability, 4))
            .with("grid", Json::array(grid_json)),
        );
    }

    // Algorithmic comparison: worklist vs round-robin on the same
    // analyses, independent of host core count. The SPECjvm98 CFGs all
    // converge in one RPO sweep, pinning the round-robin oracle at its
    // compute + confirm floor — `blocks_speedup` is exactly 2.0 there by
    // construction, not by measurement. The `irregular chains` workload is
    // the point where the schedules genuinely diverge; the gate below
    // requires the worklist to beat the floor on it.
    let irregular = irregular_module();
    let solver_inputs: Vec<(&str, &Module)> = workloads
        .iter()
        .map(|(n, m)| (n.as_str(), m))
        .chain(std::iter::once(("irregular chains", &irregular)))
        .collect();
    let mut irregular_blocks_speedup = 0.0f64;
    for (name, module) in solver_inputs {
        let mut wl_walls = Vec::with_capacity(runs);
        let mut rr_walls = Vec::with_capacity(runs);
        let mut wl = solve_module(module, true);
        let mut rr = solve_module(module, false);
        for _ in 0..runs {
            wl = solve_module(module, true);
            wl_walls.push(wl.wall_ms);
            rr = solve_module(module, false);
            rr_walls.push(rr.wall_ms);
        }
        let wl_med = median_ms(&mut wl_walls);
        let rr_med = median_ms(&mut rr_walls);
        let alg_speedup = if wl_med > 0.0 { rr_med / wl_med } else { 1.0 };
        let blocks_speedup = rr.blocks_processed as f64 / wl.blocks_processed.max(1) as f64;
        if name == "irregular chains" {
            irregular_blocks_speedup = blocks_speedup;
        }
        println!(
            "  solver {name}: worklist {wl_med:.3}ms ({} blocks) vs round-robin {rr_med:.3}ms ({} blocks, {} passes) = {blocks_speedup:.2}x blocks",
            wl.blocks_processed, rr.blocks_processed, rr.iterations
        );
        let worklist = json_obj! {
            "median_ms": Json::Fixed(wl_med, 4), "pops": wl.pops,
            "blocks_processed": wl.blocks_processed, "iterations": wl.iterations,
        };
        let round_robin = json_obj! {
            "median_ms": Json::Fixed(rr_med, 4), "blocks_processed": rr.blocks_processed,
            "iterations": rr.iterations,
        };
        solver_json.push(json_obj! {
            "name": name, "worklist": worklist, "round_robin": round_robin,
            "blocks_speedup": Json::Fixed(blocks_speedup, 4),
            "wall_speedup": Json::Fixed(alg_speedup, 4),
        });
    }

    // Block counts are deterministic, so this gate is flake-free: if the
    // worklist ever degrades to sweep-everything behavior the irregular
    // workload drops back to the 2.0 floor and this fails.
    if irregular_blocks_speedup <= 2.05 {
        eprintln!(
            "FAIL: irregular-CFG blocks_speedup {irregular_blocks_speedup:.4} is at the \
             round-robin compute+confirm floor; worklist shows no scheduling advantage"
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("{failures} workload(s) failed the determinism gate");
        std::process::exit(1);
    }

    if args.smoke {
        println!(
            "smoke OK: {} workloads deterministic, irregular solver speedup {irregular_blocks_speedup:.2}x",
            workloads.len()
        );
        return;
    }

    let json = json_obj! {
        "generated_by": "compile_bench", "host_parallelism": host_parallelism, "runs": runs,
        "thread_grid": Json::array(THREAD_GRID),
        "note": "median_ms/p90_ms/opt_wall_ms are wall-clock (thread speedup bounded by \
                 host_parallelism); 'passes' entries are per-pass thread CPU time summed across \
                 workers, stable across thread counts (pass_cpu_stability is the worst \
                 cross-thread ratio); blocks_speedup and wall_speedup under 'solver' compare the \
                 worklist solver to the round-robin oracle and are host-independent — one-sweep \
                 CFGs sit at the 2.0 compute+confirm floor, the 'irregular chains' entry is where \
                 the schedules diverge",
        "workloads": Json::Array(workload_json), "solver": Json::Array(solver_json),
    }
    .report();
    std::fs::write(&args.out, json).expect("write BENCH_compile.json");
    println!("wrote {}", args.out.display());
}
