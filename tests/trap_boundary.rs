//! Boundary fixtures for the protected trap area (§3.3.2).
//!
//! The trap models guard exactly `[0, trap_area_bytes)` of the null page:
//! a dereference at static offset `trap_area_bytes - 8` is the *last*
//! offset that faults on a null base, and an access at offset exactly
//! `trap_area_bytes` is the *first* that does not. The legality predicate
//! is strict `<` — an off-by-one in either direction is a soundness bug
//! (a "protected" access that silently reads past the guard page) or a
//! missed optimization. These fixtures pin the fence end to end on the
//! paper's two trap-area platforms:
//!
//! * IA32/Windows (4 KiB area, reads and writes trap) — read sites;
//! * AIX/PowerPC (4 KiB area, only writes trap) — write sites;
//!
//! at every level: optimized IR (check kind + exception-site marking),
//! the lowered machine site tables, execution with real null arrivals,
//! and the emitted x86-64 binary (the `njc-emit` verifier must find
//! nothing, and byte-level execution must match the IR interpreter).

use njc_arch::Platform;
use njc_bench::difftest::byte_mismatch;
use njc_codegen::lower_module;
use njc_emit::{emit_module, verify_module, ByteMachine};
use njc_ir::{CatchKind, ExceptionKind, FuncBuilder, Inst, Module, NullCheckKind, Op, Type};
use njc_opt::ConfigKind;

/// A module whose class straddles the trap-area fence: one field at the
/// last protected offset (`area - 8`), one at the first unprotected
/// offset (exactly `area`). Four leaf functions dereference a nullable
/// parameter — a read and a write on each side of the fence — and `main`
/// exercises all four with a real object and with null (inside
/// NPE-catching try regions), folding the handler count into the
/// checksum.
fn boundary_module(area: u64) -> Module {
    let mut m = Module::new("trap_boundary");
    let class = m.add_class_with_offsets(
        "Straddle",
        &[("inside", Type::Int, area - 8), ("edge", Type::Int, area)],
    );
    let f_inside = m.field(class, "inside").unwrap();
    let f_edge = m.field(class, "edge").unwrap();

    let read_inside = {
        let mut b = FuncBuilder::new("read_inside", &[Type::Ref], Type::Int);
        let o = b.param(0);
        let v = b.get_field(o, f_inside);
        b.ret(Some(v));
        m.add_function(b.finish())
    };
    let read_edge = {
        let mut b = FuncBuilder::new("read_edge", &[Type::Ref], Type::Int);
        let o = b.param(0);
        let v = b.get_field(o, f_edge);
        b.ret(Some(v));
        m.add_function(b.finish())
    };
    let write_inside = {
        let mut b = FuncBuilder::new_void("write_inside", &[Type::Ref, Type::Int]);
        let o = b.param(0);
        let v = b.param(1);
        b.put_field(o, f_inside, v);
        b.ret(None);
        m.add_function(b.finish())
    };
    let write_edge = {
        let mut b = FuncBuilder::new_void("write_edge", &[Type::Ref, Type::Int]);
        let o = b.param(0);
        let v = b.param(1);
        b.put_field(o, f_edge, v);
        b.ret(None);
        m.add_function(b.finish())
    };

    let mut b = FuncBuilder::new("main", &[], Type::Int);
    let obj = b.new_object(class);
    let a = b.iconst(17);
    let c = b.iconst(25);
    b.call_static(write_inside, &[obj, a], None);
    b.call_static(write_edge, &[obj, c], None);
    let ri = b.call_static(read_inside, &[obj], Some(Type::Int)).unwrap();
    let re = b.call_static(read_edge, &[obj], Some(Type::Int)).unwrap();
    let acc = b.add(ri, re);

    // Null arrivals on both sides of the fence, each in its own
    // NPE-catching try region. Inside the area the NPE comes from the
    // hardware trap (on platforms where the access kind traps); at the
    // fence it must come from a retained explicit check — either way the
    // handler runs and observable behavior is identical.
    let npes = b.var(Type::Int);
    let zero = b.iconst(0);
    b.assign(npes, zero);
    for callee in [read_inside, read_edge] {
        let handler = b.new_block();
        let after = b.new_block();
        let tryb = b.new_block();
        let region = b.add_try_region(handler, CatchKind::Only(ExceptionKind::NullPointer), None);
        b.goto(tryb);
        b.set_try_region(Some(region));
        b.switch_to(tryb);
        let nul = b.null_ref();
        let v = b.call_static(callee, &[nul], Some(Type::Int)).unwrap();
        b.binop_into(acc, Op::Add, acc, v);
        b.goto(after);
        b.set_try_region(None);
        b.switch_to(handler);
        let one = b.iconst(1);
        b.binop_into(npes, Op::Add, npes, one);
        b.goto(after);
        b.switch_to(after);
    }
    for callee in [write_inside, write_edge] {
        let handler = b.new_block();
        let after = b.new_block();
        let tryb = b.new_block();
        let region = b.add_try_region(handler, CatchKind::Only(ExceptionKind::NullPointer), None);
        b.goto(tryb);
        b.set_try_region(Some(region));
        b.switch_to(tryb);
        let nul = b.null_ref();
        let seven = b.iconst(7);
        b.call_static(callee, &[nul, seven], None);
        b.goto(after);
        b.set_try_region(None);
        b.switch_to(handler);
        let one = b.iconst(1);
        b.binop_into(npes, Op::Add, npes, one);
        b.goto(after);
        b.switch_to(after);
    }
    let sixteen = b.iconst(16);
    let hi = b.binop(Op::Shl, npes, sixteen);
    let out = b.add(acc, hi);
    b.observe(acc);
    b.observe(npes);
    b.ret(Some(out));
    m.add_function(b.finish());
    m
}

/// Explicit null checks and exception-site marks in one function of an
/// optimized module.
fn check_shape(m: &Module, name: &str) -> (usize, usize) {
    let fid = m.function_by_name(name).unwrap();
    let f = m.function(fid);
    let mut explicit = 0;
    let mut sites = 0;
    for block in f.blocks() {
        for inst in &block.insts {
            if matches!(
                inst,
                Inst::NullCheck {
                    kind: NullCheckKind::Explicit,
                    ..
                }
            ) {
                explicit += 1;
            }
            if inst.is_exception_site() {
                sites += 1;
            }
        }
    }
    (explicit, sites)
}

fn optimized(platform: &Platform, kind: ConfigKind) -> Module {
    let mut m = boundary_module(platform.trap.trap_area_bytes);
    njc_opt::optimize_module(&mut m, platform, &kind.to_config(platform));
    m
}

#[test]
fn ia32_read_at_last_protected_offset_is_implicit_at_fence_explicit() {
    let p = Platform::windows_ia32();
    assert_eq!(p.trap.trap_area_bytes, 4096);
    let m = optimized(&p, ConfigKind::Full);
    let (explicit_in, sites_in) = check_shape(&m, "read_inside");
    assert_eq!(
        (explicit_in, sites_in > 0),
        (0, true),
        "offset {} (== area - 8) must be an implicit exception site",
        4096 - 8
    );
    let (explicit_edge, sites_edge) = check_shape(&m, "read_edge");
    assert!(
        explicit_edge > 0,
        "offset 4096 (== area) is outside the guard: the check must stay explicit"
    );
    assert_eq!(
        sites_edge, 0,
        "an access beyond the protected area must never be marked a site"
    );
}

#[test]
fn aix_configs_keep_every_check_explicit_on_both_sides_of_the_fence() {
    // §5.4: the paper's AIX configurations never use implicit checks —
    // reads of the null page do not trap, so phase 2 is off and every
    // surviving check is explicit, protected offset or not.
    let p = Platform::aix_ppc();
    assert_eq!(p.trap.trap_area_bytes, 4096);
    for kind in [ConfigKind::AixSpeculation, ConfigKind::AixNoSpeculation] {
        let m = optimized(&p, kind);
        for name in ["read_inside", "read_edge", "write_inside", "write_edge"] {
            let (explicit, sites) = check_shape(&m, name);
            assert!(explicit > 0, "{kind:?} {name}: check must stay explicit");
            assert_eq!(sites, 0, "{kind:?} {name}: no implicit sites on AIX");
        }
    }
}

#[test]
fn aix_illegal_implicit_misses_exactly_the_protected_read() {
    // The §5.4 negative control lies to the compiler (IA32 trap model on
    // AIX). The fence must still be respected under the lie: inside-area
    // accesses become implicit sites, fence-offset accesses keep their
    // explicit checks — a `<=` boundary bug would also drop the edge
    // check and this test would count a second miss.
    let p = Platform::aix_ppc();
    let m = optimized(&p, ConfigKind::AixIllegalImplicit);
    let (explicit_in, sites_in) = check_shape(&m, "read_inside");
    assert_eq!(
        (explicit_in, sites_in > 0),
        (0, true),
        "inside read implicit"
    );
    let (explicit_win, sites_win) = check_shape(&m, "write_inside");
    assert_eq!(
        (explicit_win, sites_win > 0),
        (0, true),
        "inside write implicit"
    );
    for name in ["read_edge", "write_edge"] {
        let (explicit, sites) = check_shape(&m, name);
        assert!(
            explicit > 0,
            "{name}: fence offset stays checked even under the lie"
        );
        assert_eq!(sites, 0, "{name}: offset == area is never a site");
    }

    // Run on the real AIX trap model. The implicit *write* still traps
    // (writes trap on AIX) and raises its NPE; the implicit *read* of
    // the null page silently yields zero — exactly one missed exception,
    // and the fence-offset accesses both raise correctly through their
    // explicit checks.
    let vm_out = njc_vm::run_module(&m, p, "main", &[]).unwrap();
    assert_eq!(
        vm_out.stats.missed_npes, 1,
        "exactly the protected-offset read escapes"
    );
    let sound = optimized(&p, ConfigKind::AixNoSpeculation);
    let sound_out = njc_vm::run_module(&sound, p, "main", &[]).unwrap();
    assert_eq!(sound_out.stats.missed_npes, 0);
    // Observed handler counts: all four null arrivals caught when sound,
    // three (read_edge, write_inside, write_edge) under the lie.
    assert_eq!(
        sound_out.trace.last(),
        Some(&njc_vm::Value::Int(4)),
        "sound run catches every null arrival: {:?}",
        sound_out.trace
    );
    assert_eq!(
        vm_out.trace.last(),
        Some(&njc_vm::Value::Int(3)),
        "the silent read's handler never ran: {:?}",
        vm_out.trace
    );
}

#[test]
fn machine_tables_and_null_arrivals_respect_the_fence() {
    let p = Platform::windows_ia32();
    let m = optimized(&p, ConfigKind::Full);
    let mm = lower_module(&m);

    let inside = &mm.functions[mm.function_by_name("read_inside").unwrap()];
    assert_eq!(inside.sites.len(), 1, "one implicit site");
    let (_, info) = inside.sites.iter().next().unwrap();
    assert_eq!(info.offset, Some(4096 - 8));
    let edge = &mm.functions[mm.function_by_name("read_edge").unwrap()];
    assert!(
        edge.sites.is_empty(),
        "the fence-offset access has no site entry: {:?}",
        edge.sites.iter().collect::<Vec<_>>()
    );

    // Null actually arrives in main (through both callees): the inside
    // dereference resolves via hardware trap, the fence one via its
    // explicit check — and nothing is missed either way.
    let vm_run = njc_vm::run_module(&m, p, "main", &[]);
    let em = emit_module(&mm, 1);
    let byte_run = ByteMachine::new(&em, p).run("main");
    assert_eq!(
        byte_mismatch(&vm_run, &byte_run),
        None,
        "the emitted bytes agree with the IR interpreter"
    );
    let vm_out = vm_run.unwrap();
    let out = byte_run.unwrap();
    assert_eq!(out.stats.missed_npes, 0);
    assert!(out.stats.traps_taken > 0, "the protected side trapped");
    assert!(
        out.stats.explicit_null_checks > 0,
        "the fence side executed its explicit check"
    );

    // The un-optimized ("all checks explicit") build agrees observably.
    let baseline = optimized(&p, ConfigKind::NoNullOptNoTrap);
    let base_out = njc_vm::run_module(&baseline, p, "main", &[]).unwrap();
    base_out.assert_equivalent(&vm_out).unwrap();
}

#[test]
fn emitted_binary_verifies_clean_and_executes_the_fence_correctly() {
    for (p, kinds) in [
        (
            Platform::windows_ia32(),
            [ConfigKind::Full, ConfigKind::OldNullCheck],
        ),
        (
            Platform::aix_ppc(),
            [ConfigKind::AixSpeculation, ConfigKind::AixNoSpeculation],
        ),
    ] {
        for kind in kinds {
            let m = optimized(&p, kind);
            let mm = lower_module(&m);
            let em = emit_module(&mm, 2);
            let report = verify_module(&em, &p, 2);
            assert!(
                report.findings.is_empty(),
                "{} {kind:?}: {:#?}",
                p.name,
                report.findings
            );
            let vm_run = njc_vm::run_module(&m, p, "main", &[]);
            let byte_run = ByteMachine::new(&em, p).run("main");
            assert_eq!(
                byte_mismatch(&vm_run, &byte_run),
                None,
                "{} {kind:?}",
                p.name
            );
            vm_run.unwrap();
            let byte_out = byte_run.unwrap();
            assert_eq!(
                byte_out.stats.missed_npes, 0,
                "{} {kind:?}: no null dereference may escape",
                p.name
            );
        }
    }
}
