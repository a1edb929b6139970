//! Compile-pipeline benchmark: is the optimizer deterministic at any
//! thread count, and how much work does its dataflow solver do?
//!
//! Per workload, compiles once sequentially and once on four threads and
//! checks the two outputs are byte-identical, and fingerprints the
//! optimized IR under `Full`, under `Full` with interprocedural inference
//! and value-numbered non-nullness on, and under `OldNullCheck` with
//! value numbering on; then runs the worklist solver and the round-robin
//! oracle once each on the same non-nullness analyses and compares the
//! blocks they process. Last, it runs the 17 paper programs on the VM under
//! IA32 `Full` and AIX `Speculation`, each without and with the two
//! optional analyses, and records their modeled cycles. Everything recorded in
//! `BENCH_compile.json` is a count or a content hash, so a fresh run
//! reproduces the committed file byte for byte. Host time lives in perfbench (its
//! `opt.pass.*_ms` metrics break the optimizer down per pass).
//!
//! ```text
//! cargo run --release -p njc-bench --bin compile_bench
//! cargo run --release -p njc-bench --bin compile_bench -- --out /tmp/bench_compile.json
//! ```
//!
//! The SPECjvm98 modules are scaled into multi-function workloads (every
//! function cloned under suffixed names) so the per-function parallelism
//! has enough independent work to spread.

use njc_arch::Platform;
use njc_bench::cli::Spec;
use njc_core::nonnull::{compute_sets, NonNullProblem};
use njc_dataflow::{solve_cached, solve_round_robin};
use njc_ir::{CfgCache, Cond, FuncBuilder, Module, Type};
use njc_jit::{compile_config, execute};
use njc_observe::{json_obj, Json};
use njc_opt::{ConfigKind, OptConfig, PipelineStats};
use njc_workloads::Workload;

/// Extra clones of every function (8× total module size).
const SCALE_COPIES: usize = 7;
/// Worker threads of the parallel compile held to the sequential one.
const PARALLEL_THREADS: usize = 4;

const SPEC: Spec = Spec {
    usage: "usage: compile_bench [--out PATH]",
    switches: &[],
    options: &["--out"],
    positionals: 0,
};

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

/// The IR of every function, concatenated — the byte-identity witness.
fn module_display(m: &Module) -> String {
    let mut s = String::new();
    for f in m.functions() {
        s.push_str(&f.to_string());
        s.push('\n');
    }
    s
}

/// Fingerprint of the optimized IR: [`njc_ir::Function::body_hash`] of
/// every function, folded in function order with FNV-1a over its
/// little-endian bytes. An optimizer change that claims to leave its
/// output alone must leave this unchanged.
fn ir_hash(m: &Module) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in m.functions() {
        for b in f.body_hash().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One compile: the optimized module and its pipeline statistics.
fn compile_once(
    module: &Module,
    platform: &Platform,
    config: &OptConfig,
) -> (PipelineStats, Module) {
    let mut m = module.clone();
    let stats = njc_opt::optimize_module(&mut m, platform, config);
    (stats, m)
}

/// Solver work on the non-nullness analysis of every function, summed
/// over the module.
#[derive(Default)]
struct SolverSample {
    pops: usize,
    blocks_processed: usize,
    iterations: usize,
}

fn solve_module(module: &Module, worklist: bool) -> SolverSample {
    let mut sample = SolverSample::default();
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
        sample.pops += sol.worklist_pops;
        sample.blocks_processed += sol.blocks_processed;
        sample.iterations += sol.iterations;
    }
    sample
}

/// The settings of the two optional analyses the modeled-cycles row
/// compares: `(name, interproc, gvn)`.
const ANALYSES: [(&str, bool, bool); 4] = [
    ("base", false, false),
    ("interproc", true, false),
    ("gvn", false, true),
    ("both", true, true),
];

/// The modeled cycles of every paper program under `kind` on `platform`,
/// once per entry of [`ANALYSES`], as a row of the report. Also prints how
/// many programs interprocedural inference slows down and how many value
/// numbering changes at all.
fn modeled_cycles(programs: &[Workload], platform: &Platform, kind: ConfigKind) -> Json {
    let mut totals = [0u64; ANALYSES.len()];
    let mut rows = Vec::new();
    let (mut slower_interproc, mut changed_gvn) = (0, 0);
    for w in programs {
        let cycles = ANALYSES.map(|(_, interproc, gvn)| {
            let config = OptConfig {
                interproc,
                gvn,
                ..kind.to_config(platform)
            };
            let out = execute(&compile_config(w, platform, kind, &config), platform)
                .unwrap_or_else(|f| panic!("{} [{kind:?}] on {}: {f}", w.name, platform.name));
            assert!(out.exception.is_none(), "{} escaped", w.name);
            out.stats.cycles
        });
        slower_interproc += usize::from(cycles[1] > cycles[0]);
        changed_gvn += usize::from(cycles[2] != cycles[0]);
        let mut row = json_obj! {"name": w.name};
        for (&(name, _, _), (c, total)) in ANALYSES.iter().zip(cycles.iter().zip(&mut totals)) {
            *total += c;
            row = row.with(name, *c);
        }
        rows.push(row);
    }
    println!(
        "  modeled cycles {} {:?}: {totals:?} (base, +interproc, +gvn, +both); \
         {slower_interproc} of {} programs slower with interproc, {changed_gvn} changed by gvn",
        platform.name,
        kind,
        programs.len()
    );
    let total = Json::map(ANALYSES.iter().zip(totals).map(|((n, _, _), t)| (*n, t)));
    json_obj! {
        "platform": platform.name, "config": kind.to_config(platform).name,
        "total": total, "programs": Json::Array(rows),
    }
}

fn main() {
    let args = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|e| e.exit());
    let out_path = args.out().unwrap_or_else(|| "BENCH_compile.json".into());
    let platform = Platform::windows_ia32();

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
    // The configuration perfbench's `jit_compile` compiles with.
    let analyses = OptConfig {
        interproc: true,
        gvn: true,
        ..base
    };
    // The Whaley baseline with value numbering, the other path GVN takes.
    let old_gvn = OptConfig {
        gvn: true,
        ..ConfigKind::OldNullCheck.to_config(&platform)
    };
    let mut workload_json = Vec::new();
    let mut solver_json = Vec::new();
    let mut failures = 0usize;

    for (name, module) in &workloads {
        // Determinism gate: sequential vs parallel must agree exactly.
        let (seq_stats, seq_module) = compile_once(module, &platform, &base);
        let par_cfg = OptConfig {
            threads: PARALLEL_THREADS,
            ..base
        };
        let (par_stats, par_module) = compile_once(module, &platform, &par_cfg);
        let deterministic = module_display(&seq_module) == module_display(&par_module)
            && seq_module == par_module
            && seq_stats.null_checks == par_stats.null_checks
            && seq_stats.boundchecks_eliminated == par_stats.boundchecks_eliminated
            && seq_stats.dead_removed == par_stats.dead_removed;
        if !deterministic {
            eprintln!("FAIL: {name}: parallel output differs from sequential");
            failures += 1;
        }
        let ir_hash_full = ir_hash(&seq_module);
        let ir_hash_analyses = ir_hash(&compile_once(module, &platform, &analyses).1);
        let ir_hash_old_gvn = ir_hash(&compile_once(module, &platform, &old_gvn).1);
        let pops = seq_stats.null_checks.solver_pops();
        let iterations = seq_stats.null_checks.solver_iterations();
        println!(
            "{name}: {} functions, solver pops={pops} iterations={iterations}, deterministic={deterministic}",
            module.num_functions()
        );
        workload_json.push(json_obj! {
            "name": name, "functions": module.num_functions(), "config": base.name,
            "deterministic": deterministic, "solver_pops": pops, "solver_iterations": iterations,
            "ir_hash": json_obj! {
                "full": ir_hash_full, "full_interproc_gvn": ir_hash_analyses,
                "old_gvn": ir_hash_old_gvn,
            },
        });
    }

    // Algorithmic comparison: worklist vs round-robin on the same
    // analyses. The SPECjvm98 CFGs all converge in one RPO sweep, pinning
    // the round-robin oracle at its compute + confirm floor —
    // `blocks_speedup` is exactly 2.0 there by construction, not by
    // measurement. The `irregular chains` workload is the point where the
    // schedules genuinely diverge; the gate below requires the worklist to
    // beat the floor on it.
    let irregular = irregular_module();
    let solver_inputs: Vec<(&str, &Module)> = workloads
        .iter()
        .map(|(n, m)| (n.as_str(), m))
        .chain(std::iter::once(("irregular chains", &irregular)))
        .collect();
    let mut irregular_blocks_speedup = 0.0f64;
    for (name, module) in solver_inputs {
        let wl = solve_module(module, true);
        let rr = solve_module(module, false);
        let blocks_speedup = rr.blocks_processed as f64 / wl.blocks_processed.max(1) as f64;
        if name == "irregular chains" {
            irregular_blocks_speedup = blocks_speedup;
        }
        println!(
            "  solver {name}: worklist {} blocks vs round-robin {} blocks ({} passes) = {blocks_speedup:.2}x blocks",
            wl.blocks_processed, rr.blocks_processed, rr.iterations
        );
        let worklist = json_obj! {
            "pops": wl.pops, "blocks_processed": wl.blocks_processed, "iterations": wl.iterations,
        };
        let round_robin = json_obj! {
            "blocks_processed": rr.blocks_processed, "iterations": rr.iterations,
        };
        solver_json.push(json_obj! {
            "name": name, "worklist": worklist, "round_robin": round_robin,
            "blocks_speedup": Json::Fixed(blocks_speedup, 4),
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

    let programs = njc_workloads::all();
    let modeled_json = vec![
        modeled_cycles(&programs, &platform, ConfigKind::Full),
        modeled_cycles(&programs, &Platform::aix_ppc(), ConfigKind::AixSpeculation),
    ];

    if failures > 0 {
        eprintln!("{failures} gate(s) failed");
        std::process::exit(1);
    }

    let json = json_obj! {
        "generated_by": "compile_bench",
        "note": "every figure is a count or a hash, reproducible run to run: 'deterministic' \
                 holds a sequential and a 4-thread compile to byte-identical output; 'ir_hash' \
                 folds the body hash of every optimized function under Full, under Full with \
                 interproc and gvn on, and under OldNullCheck with gvn on; 'solver' compares \
                 the worklist solver to the round-robin oracle — one-sweep CFGs sit at the 2.0 \
                 compute+confirm blocks_speedup floor, the 'irregular chains' entry is where the \
                 schedules diverge; 'modeled_cycles' runs the 17 paper programs on the VM under \
                 IA32 Full and AIX Speculation without the optional analyses (base), with \
                 interproc, with gvn and with both; host time is perfbench's",
        "workloads": Json::Array(workload_json), "solver": Json::Array(solver_json),
        "modeled_cycles": Json::Array(modeled_json),
    }
    .report();
    std::fs::write(&out_path, json).expect("write BENCH_compile.json");
    println!("wrote {}", out_path.display());
}
