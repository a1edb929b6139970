//! Walkthrough: traces each figure of the paper through the actual passes,
//! printing the IR at every stage — the paper's Figures 3, 4, 6 and 7
//! regenerated from the implementation rather than drawn by hand.
//!
//! ```text
//! cargo run --release -p njc-bench --bin walkthrough
//! ```

use njc_arch::TrapModel;
use njc_core::ctx::AnalysisCtx;
use njc_core::{phase1, phase2, whaley};
use njc_ir::{parse_function, CfgCache, Function, Module, Type};
use njc_opt::loops::LoopCache;
use njc_opt::scalar::{self, ScalarConfig};

fn module() -> Module {
    let mut m = Module::new("walkthrough");
    m.add_class("A", &[("f", Type::Int), ("g", Type::Int)]);
    m
}

fn banner(s: &str) {
    println!("\n{}\n{s}\n{}", "=".repeat(72), "=".repeat(72));
}

fn stage(s: &str, f: &Function) {
    println!("--- {s} ---\n{f}");
}

fn figure3() {
    banner("Figure 3: architecture independent optimization of a partially\nredundant null check (one path checks, the other does not)");
    let src = "\
func fig3(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  if lt v1, v1 then bb1 else bb2
bb1:
  observe v1
  nullcheck v0
  v2 = getfield v0, field0
  goto bb3
bb2:
  goto bb3
bb3:
  nullcheck v0
  v3 = getfield v0, field1
  return v3
}";
    let m = module();
    let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
    let mut f = parse_function(src).unwrap();
    stage(
        "input: the bb3 check is evaluated twice along the left path",
        &f,
    );
    let s = phase1::run(&ctx, &mut f);
    stage(
        &format!(
            "after phase 1 ({} eliminated, {} inserted): one check per path",
            s.eliminated, s.inserted
        ),
        &f,
    );
}

fn figure4() {
    banner("Figure 4: the loop invariant null check that forward-only analysis\ncannot hoist — and the scalar replacement it unlocks");
    let src = "\
func fig4(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  goto bb1
bb1:
  nullcheck v0
  v2 = getfield v0, field0
  v3 = add.int v2, v2
  if lt v3, v1 then bb1 else bb2
bb2:
  return v3
}";
    let m = module();
    let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());

    let mut old = parse_function(src).unwrap();
    let s = whaley::run(&mut old);
    stage(
        &format!(
            "forward-only (Whaley) elimination removes {} checks — the in-loop\ncheck survives, blocking everything downstream",
            s.eliminated
        ),
        &old,
    );

    let mut f = parse_function(src).unwrap();
    let s = phase1::run(&ctx, &mut f);
    stage(
        &format!(
            "phase 1 ({} eliminated, {} inserted): the check moved to the preheader",
            s.eliminated, s.inserted
        ),
        &f,
    );
    let s = scalar::run(
        &ctx,
        &mut f,
        &mut CfgCache::new(),
        &mut LoopCache::new(),
        ScalarConfig::default(),
    );
    stage(
        &format!(
            "scalar replacement ({} loads hoisted): the field load followed its check",
            s.hoisted_loads
        ),
        &f,
    );
    let s = phase2::run(&ctx, &mut f);
    stage(
        &format!(
            "phase 2 ({} converted to implicit): zero null check instructions remain",
            s.converted_implicit
        ),
        &f,
    );
}

fn figure6() {
    banner("Figure 6: total += b[a.I++] — the a.I store blocks the check of b,\nbut on AIX the arraylength read can be speculated out anyway");
    let src = "\
func fig6(v0: ref, v1: ref, v2: int) -> int {
  locals v3: int v4: int v5: int v6: int v7: int
bb0:
  v3 = const 0
  goto bb1
bb1:
  nullcheck v0
  v4 = getfield v0, field0
  v5 = add.int v4, v4
  nullcheck v0
  putfield v0, field0, v5
  nullcheck v1
  v6 = arraylength v1
  boundcheck v4, v6
  v7 = aload.int v1[v4]
  v3 = add.int v3, v7
  if lt v4, v2 then bb1 else bb2
bb2:
  return v3
}";
    let m = module();
    let aix = AnalysisCtx::new(&m, TrapModel::aix_ppc());

    let mut f = parse_function(src).unwrap();
    phase1::run(&aix, &mut f);
    let s = scalar::run(
        &aix,
        &mut f,
        &mut CfgCache::new(),
        &mut LoopCache::new(),
        ScalarConfig { speculation: false },
    );
    stage(
        &format!(
            "AIX, no speculation ({} loads hoisted): nullcheck v1 is pinned by the\nputfield barrier, so arraylength v1 stays in the loop",
            s.hoisted_loads
        ),
        &f,
    );

    let mut f = parse_function(src).unwrap();
    phase1::run(&aix, &mut f);
    let s = scalar::run(
        &aix,
        &mut f,
        &mut CfgCache::new(),
        &mut LoopCache::new(),
        ScalarConfig { speculation: true },
    );
    stage(
        &format!(
            "AIX, speculation ({} loads hoisted, {} speculative): the silent read\nmoved above its own null check and out of the loop",
            s.hoisted_loads, s.speculative_loads
        ),
        &f,
    );
}

fn figure7() {
    banner("Figure 7: architecture dependent optimization of the inlined method\nof Figure 1 — implicit where the object is touched, explicit where not");
    let src = "\
func fig7(v0: ref, v1: int) -> int {
  locals v2: int v3: int
bb0:
  nullcheck v0
  v3 = const 0
  if lt v1, v3 then bb1 else bb2
bb1:
  v2 = move v1
  goto bb3
bb2:
  v2 = getfield v0, field0
  goto bb3
bb3:
  return v2
}";
    let m = module();
    let ctx = AnalysisCtx::new(&m, TrapModel::windows_ia32());
    let mut f = parse_function(src).unwrap();
    stage(
        "input: the inlined call left an explicit check; the right path\ndereferences v0, the left path does not",
        &f,
    );
    let s = phase2::run(&ctx, &mut f);
    stage(
        &format!(
            "after phase 2 ({} implicit conversions, {} explicit materialized):\nthe hot right path pays nothing; only the access-free left path keeps\na real instruction",
            s.converted_implicit, s.explicit_inserted
        ),
        &f,
    );
}

fn main() {
    figure3();
    figure4();
    figure6();
    figure7();
    println!();
}
