//! Oracle sensitivity: the correctness net (VM faults + observational
//! equivalence) must *catch* deliberately injected compiler bugs. A net
//! that never fires proves nothing — these tests sabotage the optimizer's
//! output in the ways a buggy null check optimization would, and assert
//! detection.

use njc_arch::Platform;
use njc_bench::difftest::{byte_verdict, ByteVerdict};
use njc_codegen::lower_module;
use njc_emit::{emit_module, ByteMachine, TrapOutcome};
use njc_ir::{Inst, Module, NullCheckKind};
use njc_jit::{execute_unoptimized, Compiled};
use njc_opt::ConfigKind;
use njc_vm::{Fault, Vm};
use njc_workloads::{micro, Suite, Workload};

fn null_seeded() -> Workload {
    Workload {
        name: "null_seeded",
        suite: Suite::Micro,
        module: micro::null_seeded(),
        entry: "main",
        work_units: 1,
    }
}

fn sabotage<F: FnMut(&mut Inst) -> bool>(module: &Module, mut f: F) -> (Module, usize) {
    let mut m = module.clone();
    let mut hits = 0;
    for fi in m.function_ids().collect::<Vec<_>>() {
        let func = m.function_mut(fi);
        for bi in 0..func.num_blocks() {
            let block = func.block_mut(njc_ir::BlockId::new(bi));
            let mut kept = Vec::new();
            for mut inst in block.insts.drain(..) {
                if f(&mut inst) {
                    hits += 1;
                    continue; // dropped
                }
                kept.push(inst);
            }
            block.insts = kept;
        }
    }
    (m, hits)
}

/// Dropping an explicit null check (without marking anything) must surface
/// as an UnexpectedTrap fault on Windows — the crash a real JIT would take.
#[test]
fn dropped_check_faults_on_windows() {
    let w = null_seeded();
    let p = Platform::windows_ia32();
    // Drop every explicit null check, mark nothing.
    let (bad, dropped) = sabotage(&w.module, |i| {
        matches!(
            i,
            Inst::NullCheck {
                kind: NullCheckKind::Explicit,
                ..
            }
        )
    });
    assert!(dropped > 0);
    let err = Vm::new(&bad, p).run("main", &[]).unwrap_err();
    assert!(
        matches!(err, Fault::UnexpectedTrap { .. }),
        "expected an unexpected-trap fault, got {err}"
    );
}

/// Dropping checks on AIX (where reads do not trap) must surface as an
/// observable divergence instead: the NPE paths silently disappear.
#[test]
fn dropped_check_diverges_on_aix() {
    let w = null_seeded();
    let p = Platform::aix_ppc();
    let base = execute_unoptimized(&w, &p).unwrap();
    let (bad, dropped) = sabotage(&w.module, |i| {
        matches!(
            i,
            Inst::NullCheck {
                kind: NullCheckKind::Explicit,
                ..
            }
        )
    });
    assert!(dropped > 0);
    let out = Vm::new(&bad, p).run("main", &[]).unwrap();
    assert!(
        base.assert_equivalent(&out).is_err(),
        "silently-missed NPEs must diverge the trace"
    );
}

/// Unmarking the exception sites of a correctly optimized program (keeping
/// the checks deleted) must fault: the trap lands at an unknown site.
#[test]
fn unmarked_sites_fault() {
    let w = null_seeded();
    let p = Platform::windows_ia32();
    let compiled: Compiled = njc_jit::compile(&w, &p, ConfigKind::Full);
    // Sanity: the optimized module runs fine as produced.
    njc_jit::execute(&compiled, &p).unwrap();
    // Now strip every exception-site mark.
    let mut bad = compiled.module.clone();
    let mut stripped = 0;
    for fi in bad.function_ids().collect::<Vec<_>>() {
        let func = bad.function_mut(fi);
        for b in func.blocks_mut() {
            for inst in &mut b.insts {
                if inst.is_exception_site() {
                    inst.set_exception_site(false);
                    stripped += 1;
                }
            }
        }
    }
    assert!(stripped > 0);
    let err = Vm::new(&bad, p).run("main", &[]).unwrap_err();
    assert!(matches!(err, Fault::UnexpectedTrap { .. }), "{err}");
}

/// Dropping a bounds check must be caught: the out-of-range store lands in
/// a neighbor allocation and corrupts the checksum (divergence), or walks
/// off the heap (wild-access fault).
#[test]
fn dropped_bound_check_is_caught() {
    // A program whose index genuinely goes out of range.
    let mut m = Module::new("oob");
    let mut b = njc_ir::FuncBuilder::new("main", &[], njc_ir::Type::Int);
    let handler = b.new_block();
    let after = b.new_block();
    let body = b.new_block();
    let code = b.var(njc_ir::Type::Int);
    let out = b.var(njc_ir::Type::Int);
    let z = b.iconst(0);
    b.assign(out, z);
    let region = b.add_try_region(handler, njc_ir::CatchKind::Any, Some(code));
    b.goto(body);
    b.set_try_region(Some(region));
    b.switch_to(body);
    let three = b.iconst(3);
    let arr = b.new_array(njc_ir::Type::Int, three);
    let nine = b.iconst(9); // out of range
    let v = b.array_load(arr, nine, njc_ir::Type::Int);
    b.assign(out, v);
    b.goto(after);
    b.set_try_region(None);
    b.switch_to(handler);
    b.observe(code);
    b.assign(out, code);
    b.goto(after);
    b.switch_to(after);
    b.ret(Some(out));
    m.add_function(b.finish());

    let p = Platform::windows_ia32();
    let good = Vm::new(&m, p).run("main", &[]).unwrap();
    assert_eq!(good.trace.len(), 1, "AIOOBE observed");

    let (bad, dropped) = sabotage(&m, |i| matches!(i, Inst::BoundCheck { .. }));
    assert!(dropped > 0);
    match Vm::new(&bad, p).run("main", &[]) {
        Err(_) => {} // wild access — caught
        Ok(out) => {
            assert!(
                good.assert_equivalent(&out).is_err(),
                "dropped bounds check must be observable"
            );
        }
    }
}

/// The null-seeded equivalence is tight: even reordering which of two
/// *different* exception kinds fires is caught. Replace a bounds check's
/// operands to flip its outcome and observe the divergence.
#[test]
fn exception_identity_is_part_of_the_oracle() {
    let w = null_seeded();
    let p = Platform::windows_ia32();
    let base = execute_unoptimized(&w, &p).unwrap();
    // Sabotage: turn every explicit NullCheck into a no-op by retargeting
    // it at a freshly allocated (non-null) object... simplest equivalent:
    // drop checks but mark every access as a site, converting NPE throw
    // *points* (checks) into NPE throw points (accesses). On this workload
    // the checks and accesses are adjacent, so outcomes should actually
    // match — the oracle accepts a *correct* transformation.
    let mut m = w.module.clone();
    for fi in m.function_ids().collect::<Vec<_>>() {
        let func = m.function_mut(fi);
        for b in func.blocks_mut() {
            let mut kept = Vec::new();
            for mut inst in b.insts.drain(..) {
                if matches!(inst, Inst::NullCheck { .. }) {
                    continue;
                }
                inst.set_exception_site(true);
                kept.push(inst);
            }
            b.insts = kept;
        }
    }
    let out = Vm::new(&m, p).run("main", &[]).unwrap();
    base.assert_equivalent(&out)
        .expect("trap-everything is a legal implementation on a read+write-trap platform");
    assert!(out.stats.traps_taken > 0, "NPEs now arrive via traps");
}

/// The `+bytes` difftest column must catch an encoder that drops a binary
/// exception-site entry: the VM still raises the NPE at that access, the
/// byte machine takes an unregistered trap.
#[test]
fn dropped_binary_site_diverges_in_the_byte_column() {
    let p = Platform::windows_ia32();
    let compiled = njc_jit::compile(&null_seeded(), &p, ConfigKind::Full);
    let em = emit_module(&lower_module(&compiled.module), 1);
    assert_eq!(
        byte_verdict(&compiled.module, &em, &p),
        ByteVerdict::Agree,
        "the honest emission agrees with the VM"
    );
    // Plant the bug at the first registered site that actually traps.
    let TrapOutcome::Trapped(snap) = ByteMachine::new(&em, p)
        .run_until_site_trap("main")
        .unwrap()
    else {
        panic!("null_seeded must trap at a registered site");
    };
    let mut planted = em.clone();
    let fi = planted.function_by_name(&snap.function).unwrap();
    let sites = &mut planted.functions[fi].sites;
    let before = sites.len();
    sites.retain(|s| s.byte_off != snap.byte_off);
    assert_eq!(sites.len(), before - 1, "exactly one entry dropped");
    let ByteVerdict::Diverged(detail) = byte_verdict(&compiled.module, &planted, &p) else {
        panic!("a dropped site entry must diverge from the VM");
    };
    assert!(detail.contains("unregistered"), "{detail}");
}
