//! Heap allocations of the compile path, counted by a `#[global_allocator]`
//! that tallies per thread (so tests running in parallel do not mix their
//! counts). Allocation counts are deterministic for a given build, which
//! makes them a gate a timing pair cannot be: the optimizer keeps one
//! workspace per function, so a compile allocates about once per function
//! and block, not once per solve, round or instruction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use njc_arch::Platform;
use njc_ir::Module;
use njc_opt::{optimize_module_traced, ConfigKind, OptConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `Full` with interprocedural inference and value-numbered non-nullness,
/// on one thread: the configuration perfbench's `jit_compile` runs.
fn config(platform: &Platform) -> OptConfig {
    OptConfig {
        interproc: true,
        gvn: true,
        threads: 1,
        ..ConfigKind::Full.to_config(platform)
    }
}

/// Allocations of optimizing, lowering, emitting and verifying a copy of
/// `module` (the copy itself is made before counting starts).
fn compile_allocations(module: &Module) -> u64 {
    let platform = Platform::windows_ia32();
    let config = config(&platform);
    let mut m = module.clone();
    let (n, findings) = allocations(|| {
        optimize_module_traced(&mut m, &platform, &config);
        let lowered = njc_codegen::lower_module(&m);
        let emitted = njc_emit::emit_module(&lowered, 1);
        njc_emit::verify_module(&emitted, &platform, 1)
            .findings
            .len()
    });
    assert_eq!(
        findings,
        0,
        "{}: the emitted binary does not verify",
        m.name()
    );
    n
}

/// `module` with every function cloned `copies` times under suffixed
/// names; clones keep their callee ids, so the module stays well formed.
fn replicate(module: &Module, copies: usize) -> Module {
    let mut m = module.clone();
    let originals = m.functions().to_vec();
    for k in 1..copies {
        for f in &originals {
            let mut c = f.clone();
            c.set_name(format!("{}__copy{k}", f.name()));
            m.add_function(c);
        }
    }
    m
}

/// The paper's programs the budget covers: a mix of loops, calls, arrays
/// and try regions.
fn programs() -> Vec<Module> {
    let keep = ["Numeric Sort", "Fourier", "mtrt", "javac", "jess", "db"];
    njc_workloads::all()
        .into_iter()
        .filter(|w| keep.contains(&w.name))
        .map(|w| w.module)
        .collect()
}

#[test]
fn compiling_the_paper_programs_stays_under_its_allocation_budget() {
    let programs = programs();
    assert_eq!(programs.len(), 6, "every budgeted program exists");
    let total: u64 = programs.iter().map(compile_allocations).sum();
    // Measured on x86-64 Linux with this test: 10,384 allocations in a
    // release build (14,151 in debug, where every fixed point is proved by
    // one more round) before the compile path reused per-function
    // workspaces, and 4,629 (debug 6,718) after. The budget sits above
    // both builds' current counts and below both earlier ones.
    const BUDGET: u64 = 8_000;
    assert!(
        total <= BUDGET,
        "compiling the budgeted programs allocated {total} times (budget {BUDGET})"
    );
}

#[test]
fn allocations_grow_linearly_with_module_size() {
    // The inliner once cloned every inlinable body per caller, which is
    // quadratic in module size; eight copies must cost about eight times
    // one. The slack above 8x is for analysis, not scaling: the copies
    // leave interprocedural inference fewer facts, so more checks survive
    // to later passes (Numeric Sort's optimizer allocates 8.8x with
    // inference on and 7.9x with it off, in a release build).
    for module in programs() {
        let one = compile_allocations(&module);
        let eight = compile_allocations(&replicate(&module, 8));
        assert!(
            eight <= one * 9,
            "{}: x8 allocates {eight} times, x1 {one} (more than 9x)",
            module.name()
        );
    }
}

#[test]
fn two_compiles_of_one_module_allocate_the_same_count() {
    for module in programs() {
        let a = compile_allocations(&module);
        let b = compile_allocations(&module);
        assert_eq!(a, b, "{}: allocation counts differ", module.name());
    }
}
