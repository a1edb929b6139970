//! VM semantic depth tests: exception propagation across frames, Java
//! arithmetic edge cases, catch-kind selectivity, determinism, and cost
//! model invariants.

use njc_arch::Platform;
use njc_ir::{parse_function, ExceptionKind, Module, Type};
use njc_vm::{run_module, Value, Vm, VmConfig};

fn module_with(funcs: &[&str]) -> Module {
    let mut m = Module::new("t");
    m.add_class("C", &[("x", Type::Int), ("y", Type::Ref)]);
    for f in funcs {
        m.add_function(parse_function(f).unwrap());
    }
    njc_ir::verify_module(&m).unwrap();
    m
}

fn win() -> Platform {
    Platform::windows_ia32()
}

#[test]
fn exception_propagates_through_frames_to_callers_handler() {
    let m = module_with(&[
        // fn0: dereferences its (null) argument.
        "func deref(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
        // fn1: calls fn0 inside a try region catching NPE.
        "func main() -> int {\n  locals v0: ref v1: int v2: int\n  try0: handler bb2 catch npe -> v2\nbb0:\n  v0 = const null\n  goto bb1\nbb1: [try0]\n  v1 = call fn0(v0)\n  return v1\nbb2:\n  return v2\n}",
    ]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(out.exception, None);
    assert_eq!(
        out.result,
        Some(Value::Int(ExceptionKind::NullPointer.code()))
    );
}

#[test]
fn catch_kind_selectivity_across_frames() {
    // The callee throws Arithmetic; the caller's NPE handler must NOT
    // catch it.
    let m = module_with(&[
        "func boom(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = const 0\n  v2 = div.int v0, v1\n  return v2\n}",
        "func main() -> int {\n  locals v0: int v1: int v2: int\n  try0: handler bb2 catch npe -> v2\nbb0:\n  v0 = const 7\n  goto bb1\nbb1: [try0]\n  v1 = call fn0(v0)\n  return v1\nbb2:\n  return v2\n}",
    ]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(out.exception, Some(ExceptionKind::Arithmetic));
    assert_eq!(out.result, None);
}

#[test]
fn java_division_edge_cases() {
    let m = module_with(&[
        "func main(v0: int, v1: int) -> int {\n  locals v2: int\nbb0:\n  v2 = div.int v0, v1\n  return v2\n}",
    ]);
    // i64::MIN / -1 does not trap (Java wraps).
    let out = run_module(&m, win(), "main", &[Value::Int(i64::MIN), Value::Int(-1)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(i64::MIN)));
    // Remainder of MIN % -1 is 0.
    let m2 = module_with(&[
        "func main(v0: int, v1: int) -> int {\n  locals v2: int\nbb0:\n  v2 = rem.int v0, v1\n  return v2\n}",
    ]);
    let out = run_module(&m2, win(), "main", &[Value::Int(i64::MIN), Value::Int(-1)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(0)));
}

#[test]
fn shift_amounts_are_masked() {
    let m = module_with(&[
        "func main(v0: int, v1: int) -> int {\n  locals v2: int\nbb0:\n  v2 = shl.int v0, v1\n  return v2\n}",
    ]);
    // Shifting by 64 is shifting by 0 (Java semantics).
    let out = run_module(&m, win(), "main", &[Value::Int(5), Value::Int(64)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(5)));
    let out = run_module(&m, win(), "main", &[Value::Int(5), Value::Int(65)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(10)));
}

#[test]
fn float_to_int_conversion_saturates() {
    let m = module_with(&[
        "func main(v0: float) -> int {\n  locals v1: int\nbb0:\n  v1 = convert.int v0\n  return v1\n}",
    ]);
    let out = run_module(&m, win(), "main", &[Value::Float(f64::NAN)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(0)), "NaN converts to 0");
    let out = run_module(&m, win(), "main", &[Value::Float(1e300)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(i64::MAX)));
    let out = run_module(&m, win(), "main", &[Value::Float(-1e300)]).unwrap();
    assert_eq!(out.result, Some(Value::Int(i64::MIN)));
}

#[test]
fn runs_are_deterministic() {
    for w in njc_workloads::jbytemark().into_iter().take(3) {
        let a = run_module(&w.module, win(), "main", &[]).unwrap();
        let b = run_module(&w.module, win(), "main", &[]).unwrap();
        assert_eq!(a.result, b.result, "{}", w.name);
        assert_eq!(a.trace, b.trace, "{}", w.name);
        assert_eq!(
            a.stats, b.stats,
            "{}: cycle accounting must be exact",
            w.name
        );
    }
}

#[test]
fn a_nan_returning_run_equals_itself() {
    // Outcomes compare values bit-exactly: the same NaN is the same
    // observation, and the two zeros are different ones.
    let m = module_with(&[
        "func main() -> float {\n  locals v0: float v1: float\nbb0:\n  v0 = const 0.0\n  v1 = div.float v0, v0\n  observe v1\n  return v1\n}",
    ]);
    let first = run_module(&m, win(), "main", &[]).unwrap();
    let second = run_module(&m, win(), "main", &[]).unwrap();
    assert!(matches!(first.result, Some(Value::Float(f)) if f.is_nan()));
    assert_eq!(first.assert_equivalent(&second), Ok(()));
    assert_eq!(first, second);
    assert_ne!(Value::Float(0.0), Value::Float(-0.0));
}

#[test]
fn ppc_run_costs_more_wall_cycles_at_lower_clock() {
    // Same workload, same explicit-check counts under the no-opt config:
    // the PPC's cheaper explicit check must show up in the cycle totals.
    let w = njc_workloads::jbytemark()
        .into_iter()
        .find(|w| w.name == "Numeric Sort")
        .unwrap();
    let win_out = run_module(&w.module, Platform::windows_ia32(), "main", &[]).unwrap();
    let aix_out = run_module(&w.module, Platform::aix_ppc(), "main", &[]).unwrap();
    assert_eq!(
        win_out.stats.explicit_null_checks,
        aix_out.stats.explicit_null_checks
    );
    assert!(
        aix_out.stats.cycles < win_out.stats.cycles,
        "1-cycle tw checks + cheaper divides: {} vs {}",
        aix_out.stats.cycles,
        win_out.stats.cycles
    );
}

#[test]
fn fuel_is_shared_across_frames() {
    let m = module_with(&[
        "func spin(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = const 0\n  goto bb1\nbb1:\n  v1 = add.int v1, v0\n  v2 = const 1000000\n  if lt v1, v2 then bb1 else bb2\nbb2:\n  return v1\n}",
        "func main() -> int {\n  locals v0: int v1: int\nbb0:\n  v0 = const 1\n  v1 = call fn0(v0)\n  return v1\n}",
    ]);
    let err = Vm::new(&m, win())
        .with_config(VmConfig {
            max_insts: 5_000,
            max_depth: 8,
            ..VmConfig::default()
        })
        .run("main", &[])
        .unwrap_err();
    assert_eq!(err, njc_vm::Fault::OutOfFuel);
}

#[test]
fn observation_order_crosses_call_boundaries() {
    let m = module_with(&[
        "func helper(v0: int) -> int {\n  locals v1: int\nbb0:\n  observe v0\n  v1 = add.int v0, v0\n  observe v1\n  return v1\n}",
        "func main() -> int {\n  locals v0: int v1: int\nbb0:\n  v0 = const 3\n  observe v0\n  v1 = call fn0(v0)\n  observe v1\n  return v1\n}",
    ]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(
        out.trace,
        vec![Value::Int(3), Value::Int(3), Value::Int(6), Value::Int(6)]
    );
}

#[test]
fn heap_effects_of_callee_visible_to_caller() {
    let m = module_with(&[
        "func set(v0: ref, v1: int) -> int {\nbb0:\n  nullcheck v0\n  putfield v0, field0, v1\n  return v1\n}",
        "func main() -> int {\n  locals v0: ref v1: int v2: int v3: int\nbb0:\n  v0 = new class0\n  v1 = const 11\n  v2 = call fn0(v0, v1)\n  nullcheck v0\n  v3 = getfield v0, field0\n  return v3\n}",
    ]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(out.result, Some(Value::Int(11)));
}

#[test]
fn ref_fields_store_references() {
    let m = module_with(&[
        "func main() -> int {\n  locals v0: ref v1: ref v2: ref v3: int v4: int\nbb0:\n  v0 = new class0\n  v1 = new class0\n  v3 = const 42\n  nullcheck v1\n  putfield v1, field0, v3\n  nullcheck v0\n  putfield v0, field1, v1\n  nullcheck v0\n  v2 = getfield v0, field1\n  nullcheck v2\n  v4 = getfield v2, field0\n  return v4\n}",
    ]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(out.result, Some(Value::Int(42)));
}

#[test]
fn uncaught_exception_escapes_with_empty_result() {
    let m = module_with(&["func main() -> int {\nbb0:\n  throw user 99\n}"]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(out.exception, Some(ExceptionKind::User(99)));
    assert_eq!(out.result, None);
}

#[test]
fn getfield_typed_ref_reads_null_default() {
    // A fresh object's ref field is null; dereferencing it throws.
    let m = module_with(&[
        "func main() -> int {\n  locals v0: ref v1: ref v2: int v3: int\n  try0: handler bb2 catch npe -> v3\nbb0:\n  v0 = new class0\n  goto bb1\nbb1: [try0]\n  nullcheck v0\n  v1 = getfield v0, field1\n  nullcheck v1\n  v2 = getfield v1, field0\n  return v2\nbb2:\n  return v3\n}",
    ]);
    let out = run_module(&m, win(), "main", &[]).unwrap();
    assert_eq!(
        out.result,
        Some(Value::Int(ExceptionKind::NullPointer.code()))
    );
}

// ---------------------------------------------------------------------------
// Hardening regressions: ill-typed operands and wrap-around addressing.
// These pin the two VM fixes the differential harness gates on; see
// DESIGN.md §9.

/// Builds an (intentionally unverifiable) module straight from the
/// builder, skipping `verify_module` — the point is what the VM does when
/// fed IR the verifier would reject.
fn unverified<F: FnOnce(&mut njc_ir::FuncBuilder)>(body: F) -> Module {
    let mut m = Module::new("hostile");
    let mut b = njc_ir::FuncBuilder::new("main", &[], Type::Int);
    body(&mut b);
    m.add_function(b.finish());
    m
}

#[test]
fn ill_typed_binop_over_refs_is_a_structured_fault_not_a_panic() {
    // Regression: the interpreter used to panic (`unreachable!`-style
    // operand unwraps) on a binop whose operands are references.
    let m = unverified(|b| {
        let r = b.null_ref();
        let bogus = b.binop(njc_ir::Op::Add, r, r);
        b.ret(Some(bogus));
    });
    let fault = run_module(&m, win(), "main", &[]).unwrap_err();
    assert!(
        matches!(fault, njc_vm::Fault::IllTyped { .. }),
        "expected IllTyped, got {fault:?}"
    );
}

#[test]
fn ill_typed_convert_of_ref_is_a_structured_fault() {
    let m = unverified(|b| {
        let r = b.null_ref();
        let bogus = b.convert(r, Type::Int);
        b.ret(Some(bogus));
    });
    let fault = run_module(&m, win(), "main", &[]).unwrap_err();
    assert!(
        matches!(fault, njc_vm::Fault::IllTyped { .. }),
        "expected IllTyped, got {fault:?}"
    );
}

#[test]
fn ill_typed_operand_detail_names_expected_kind_and_found_value() {
    // Entry arguments are not type-checked, so a verified module fed a
    // value of the wrong kind reaches each operand accessor's mismatch
    // path. The detail text is part of the structured verdict.
    let cases: [(&str, Value, &str); 3] = [
        (
            "func main(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = add.int v0, v0\n  return v1\n}",
            Value::Float(1.0),
            "expected int, got Float(1.0)",
        ),
        (
            "func main(v0: float) -> float {\n  locals v1: float\nbb0:\n  v1 = neg.float v0\n  return v1\n}",
            Value::Int(3),
            "expected float, got Int(3)",
        ),
        (
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            Value::Int(5),
            "expected ref, got Int(5)",
        ),
    ];
    for (src, arg, want) in cases {
        let m = module_with(&[src]);
        let fault = run_module(&m, win(), "main", &[arg]).unwrap_err();
        match &fault {
            njc_vm::Fault::IllTyped { detail, .. } => assert_eq!(detail, want),
            other => panic!("expected IllTyped, got {other:?}"),
        }
        assert_eq!(
            fault.to_string(),
            format!("ill-typed instruction in main/bb0: {want}")
        );
    }
}

/// An unmarked array load off a null base whose effective address
/// mathematically overflows u64 (index 2^61 + 14 → EA 2^64 + 128).
fn wrap_around_load() -> Module {
    let mut m = Module::new("wrap");
    let mut b = njc_ir::FuncBuilder::new("main", &[], Type::Int);
    let base = b.null_ref();
    let idx = b.iconst((1i64 << 61) + 14);
    let dst = b.var(Type::Int);
    b.emit(njc_ir::Inst::ArrayLoad {
        dst,
        arr: base,
        index: idx,
        ty: Type::Int,
        exception_site: false,
    });
    b.ret(Some(dst));
    m.add_function(b.finish());
    m
}

#[test]
fn wrap_around_index_traps_on_every_platform_model() {
    // Regression: wrapping address arithmetic let the effective address
    // wrap PAST the guard page (EA 128 lands inside it), so the AIX model
    // silently read zero while Windows/S390 trapped — a cross-platform
    // behavioral split on identical input. Checked addressing must turn
    // the overflow into a trap against the guard page on every model that
    // protects the null page.
    for platform in [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ] {
        let fault = run_module(&wrap_around_load(), platform, "main", &[]).unwrap_err();
        assert!(
            matches!(fault, njc_vm::Fault::UnexpectedTrap { .. }),
            "{}: expected UnexpectedTrap, got {fault:?}",
            platform.name
        );
    }
}

#[test]
fn legacy_wrapping_flag_reproduces_the_platform_split() {
    // The fault-injection escape hatch: with the old wrapping arithmetic
    // re-enabled, the wrapped address (128) is inside the guard page, so
    // Windows traps but AIX — whose first-page reads are silent — returns
    // the zero it read. This is exactly the divergence the differential
    // harness detects when the checked-addressing fix is reverted.
    let cfg = VmConfig {
        legacy_wrapping_addressing: true,
        ..VmConfig::default()
    };
    let m = wrap_around_load();
    let fault = Vm::new(&m, Platform::windows_ia32())
        .with_config(cfg)
        .run("main", &[])
        .unwrap_err();
    assert!(matches!(fault, njc_vm::Fault::UnexpectedTrap { .. }));
    let out = Vm::new(&m, Platform::aix_ppc())
        .with_config(cfg)
        .run("main", &[])
        .unwrap();
    assert_eq!(out.result, Some(Value::Int(0)), "AIX silently reads zero");
    assert_eq!(out.stats.silent_null_reads, 1);
}
