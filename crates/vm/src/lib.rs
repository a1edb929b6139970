//! # njc-vm — costed interpreter with simulated hardware traps
//!
//! Runs the IR on the [`njc_trap`] guarded memory under an
//! [`njc_arch::Platform`] cost model, enforcing Java's precise exception
//! semantics. The VM is both the *measurement* substrate (cycles, explicit
//! checks, traps — the raw data behind every table of the paper) and the
//! *correctness oracle*: optimized and unoptimized programs are compared
//! for observational equivalence ([`Outcome::assert_equivalent`]), and an
//! unsoundly moved null check surfaces as a [`Fault`].
//!
//! ```
//! use njc_arch::Platform;
//! use njc_ir::{parse_function, Module, Type};
//! use njc_vm::{run_module, Value};
//!
//! let mut module = Module::new("demo");
//! module.add_class("C", &[("x", Type::Int)]);
//! module.add_function(parse_function(
//!     "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = new class0\n  v1 = const 41\n  putfield v0, field0, v1\n  nullcheck v0\n  v2 = getfield v0, field0\n  v2 = add.int v2, v2\n  return v2\n}",
//! ).unwrap());
//! let out = run_module(&module, Platform::windows_ia32(), "main", &[]).unwrap();
//! assert_eq!(out.result, Some(Value::Int(82)));
//! ```

mod code;
pub mod heap;
pub mod interp;

pub use heap::Heap;
pub use interp::{
    run_module, ExceptionEvent, Fault, Outcome, ProfileSnapshot, RunStats, RuntimeHooks,
    SiteCounters, Vm, VmConfig, VmError,
};
pub use njc_ir::{Mismatch, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::Platform;
    use njc_ir::{parse_function, ExceptionKind, Module, Type};

    fn module_with(src: &str) -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("x", Type::Int), ("y", Type::Int)]);
        m.add_class_with_offsets("Big", &[("far", Type::Int, 1 << 20)]);
        m.add_function(parse_function(src).unwrap());
        m
    }

    fn win() -> Platform {
        Platform::windows_ia32()
    }

    #[test]
    fn arithmetic_and_branches() {
        let m = module_with(
            "func main(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = const 10\n  if lt v0, v1 then bb1 else bb2\nbb1:\n  v2 = add.int v0, v1\n  return v2\nbb2:\n  v2 = mul.int v0, v1\n  return v2\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Int(3)]).unwrap();
        assert_eq!(out.result, Some(Value::Int(13)));
        let out = run_module(&m, win(), "main", &[Value::Int(30)]).unwrap();
        assert_eq!(out.result, Some(Value::Int(300)));
    }

    #[test]
    fn field_round_trip_and_costs() {
        let m = module_with(
            "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = new class0\n  v1 = const 7\n  nullcheck v0\n  putfield v0, field0, v1\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        );
        let out = run_module(&m, win(), "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Int(7)));
        assert_eq!(out.stats.explicit_null_checks, 2);
        assert_eq!(out.stats.loads, 1);
        assert_eq!(out.stats.stores, 1);
        assert!(out.stats.cycles > 0);
    }

    #[test]
    fn explicit_check_throws_npe_on_null() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.result, None);
        assert_eq!(out.stats.traps_taken, 0, "software check, no trap");
    }

    #[test]
    fn marked_site_takes_hardware_trap() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.traps_taken, 1);
        assert_eq!(out.stats.explicit_null_checks, 0);
    }

    #[test]
    fn unmarked_null_deref_is_a_fault() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0\n  return v1\n}",
        );
        let err = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap_err();
        assert!(matches!(err, Fault::UnexpectedTrap { .. }), "{err}");
    }

    #[test]
    fn aix_silent_read_misses_npe_at_marked_site() {
        // The §5.4 Illegal Implicit effect: a marked read on AIX does not
        // trap; execution continues with garbage zero.
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        );
        let out = run_module(&m, Platform::aix_ppc(), "main", &[Value::Ref(0)]).unwrap();
        assert_eq!(out.exception, None, "NPE silently missed");
        assert_eq!(out.result, Some(Value::Int(0)), "garbage zero");
        assert_eq!(out.stats.missed_npes, 1);
    }

    #[test]
    fn aix_marked_write_traps() {
        let m = module_with(
            "func main(v0: ref, v1: int) -> int {\nbb0:\n  putfield v0, field0, v1 [site]\n  return v1\n}",
        );
        let out = run_module(
            &m,
            Platform::aix_ppc(),
            "main",
            &[Value::Ref(0), Value::Int(1)],
        )
        .unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.traps_taken, 1);
    }

    #[test]
    fn big_offset_null_deref_is_wild() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field2 [site]\n  return v1\n}",
        );
        let err = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap_err();
        assert!(matches!(err, Fault::WildAccess { .. }), "{err}");
    }

    #[test]
    fn arrays_allocate_load_store() {
        let m = module_with(
            "func main() -> int {\n  locals v0: int v1: ref v2: int v3: int v4: int v5: int\nbb0:\n  v0 = const 4\n  v1 = newarray int, v0\n  v2 = const 2\n  v3 = const 99\n  nullcheck v1\n  v4 = arraylength v1\n  boundcheck v2, v4\n  astore.int v1[v2], v3\n  nullcheck v1\n  v4 = arraylength v1\n  boundcheck v2, v4\n  v5 = aload.int v1[v2]\n  return v5\n}",
        );
        let out = run_module(&m, win(), "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Int(99)));
        assert_eq!(out.stats.allocations, 1);
    }

    #[test]
    fn bound_check_throws_aioobe() {
        let m = module_with(
            "func main(v0: int) -> int {\n  locals v1: int v2: ref v3: int v4: int\nbb0:\n  v1 = const 3\n  v2 = newarray int, v1\n  nullcheck v2\n  v3 = arraylength v2\n  boundcheck v0, v3\n  v4 = aload.int v2[v0]\n  return v4\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Int(5)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::ArrayIndex));
        let out = run_module(&m, win(), "main", &[Value::Int(-1)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::ArrayIndex));
        let out = run_module(&m, win(), "main", &[Value::Int(2)]).unwrap();
        assert_eq!(out.result, Some(Value::Int(0)));
    }

    #[test]
    fn division_by_zero_throws() {
        let m = module_with(
            "func main(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = const 0\n  v2 = div.int v0, v1\n  return v2\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Int(9)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::Arithmetic));
    }

    #[test]
    fn try_region_catches_and_delivers_code() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int v2: int\n  try0: handler bb1 catch npe -> v2\nbb0: [try0]\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\nbb1:\n  return v2\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap();
        assert_eq!(out.exception, None);
        assert_eq!(
            out.result,
            Some(Value::Int(ExceptionKind::NullPointer.code()))
        );
    }

    #[test]
    fn uncaught_kind_propagates_past_handler() {
        let m = module_with(
            "func main(v0: int) -> int {\n  locals v1: int v2: int\n  try0: handler bb1 catch npe -> v2\nbb0: [try0]\n  v1 = const 0\n  v1 = div.int v0, v1\n  return v1\nbb1:\n  return v2\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Int(1)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::Arithmetic));
    }

    #[test]
    fn throw_terminator_and_user_catch() {
        let m = module_with(
            "func main() -> int {\n  locals v0: int\n  try0: handler bb1 catch user 7 -> v0\nbb0: [try0]\n  throw user 7\nbb1:\n  return v0\n}",
        );
        let out = run_module(&m, win(), "main", &[]).unwrap();
        assert_eq!(out.result, Some(Value::Int(7)));
    }

    #[test]
    fn calls_static_and_observe_trace() {
        let mut m = Module::new("t");
        m.add_function(
            parse_function("func helper(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = add.int v0, v0\n  return v1\n}").unwrap(),
        );
        m.add_function(
            parse_function("func main(v0: int) -> int {\n  locals v1: int\nbb0:\n  observe v0\n  v1 = call fn0(v0)\n  observe v1\n  return v1\n}").unwrap(),
        );
        let out = run_module(&m, win(), "main", &[Value::Int(5)]).unwrap();
        assert_eq!(out.result, Some(Value::Int(10)));
        assert_eq!(out.trace, vec![Value::Int(5), Value::Int(10)]);
        assert_eq!(out.stats.calls, 1);
    }

    #[test]
    fn virtual_dispatch_selects_dynamic_class() {
        let mut m = Module::new("t");
        let a = m.add_class("A", &[]);
        let b = m.add_class("B", &[]);
        m.add_method(
            a,
            "get",
            parse_function("func A_get(v0: ref) -> int instance {\n  locals v1: int\nbb0:\n  v1 = const 1\n  return v1\n}").unwrap(),
        );
        m.add_method(
            b,
            "get",
            parse_function("func B_get(v0: ref) -> int instance {\n  locals v1: int\nbb0:\n  v1 = const 2\n  return v1\n}").unwrap(),
        );
        m.add_function(
            parse_function(
                "func main(v0: int) -> int {\n  locals v1: ref v2: int v3: int\nbb0:\n  if eq v0, v0 then bb1 else bb1\nbb1:\n  v1 = new class1\n  nullcheck v1\n  v2 = vcall class0.get(v1;)\n  return v2\n}",
            )
            .unwrap(),
        );
        let out = run_module(&m, win(), "main", &[Value::Int(0)]).unwrap();
        assert_eq!(
            out.result,
            Some(Value::Int(2)),
            "dispatches on dynamic class B"
        );
    }

    #[test]
    fn dispatch_through_a_non_object_is_a_fault_not_a_panic() {
        // An array's header word is its length, 5: as a receiver's header
        // it names class 4, which the module does not have.
        let mut m = Module::new("t");
        let a = m.add_class("A", &[]);
        m.add_method(
            a,
            "get",
            parse_function("func A_get(v0: ref) -> int instance {\n  locals v1: int\nbb0:\n  v1 = const 1\n  return v1\n}").unwrap(),
        );
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: int v1: ref v2: int\nbb0:\n  v0 = const 5\n  v1 = newarray int, v0\n  nullcheck v1\n  v2 = vcall class0.get(v1;)\n  return v2\n}",
            )
            .unwrap(),
        );
        let run = std::panic::catch_unwind(|| run_module(&m, win(), "main", &[]));
        assert!(matches!(run, Ok(Err(Fault::BadDispatch { .. }))), "{run:?}");
    }

    #[test]
    fn virtual_call_on_null_with_site_throws() {
        let mut m = Module::new("t");
        let a = m.add_class("A", &[]);
        m.add_method(
            a,
            "get",
            parse_function("func A_get(v0: ref) -> int instance {\n  locals v1: int\nbb0:\n  v1 = const 1\n  return v1\n}").unwrap(),
        );
        m.add_function(
            parse_function(
                "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = vcall class0.get(v0;) [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        let out = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.traps_taken, 1);
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let m = module_with("func main() -> int {\n  locals v0: int\nbb0:\n  goto bb0\n}");
        let err = Vm::new(&m, win())
            .with_config(VmConfig {
                max_insts: 1000,
                max_depth: 16,
                ..VmConfig::default()
            })
            .run("main", &[])
            .unwrap_err();
        assert_eq!(err, Fault::OutOfFuel);
    }

    #[test]
    fn stack_overflow_detected() {
        let mut m = Module::new("t");
        m.add_function(
            parse_function("func r(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = call fn0(v0)\n  return v1\n}").unwrap(),
        );
        let err = run_module(&m, win(), "r", &[Value::Int(0)]).unwrap_err();
        assert_eq!(err, Fault::StackOverflow);
    }

    /// `r(n)` recurses `n` calls deep.
    fn recursion_module() -> Module {
        let mut m = Module::new("t");
        m.add_function(
            parse_function("func r(v0: int) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = const 0\n  if le v0, v1 then bb1 else bb2\nbb1:\n  return v1\nbb2:\n  v2 = const 1\n  v1 = sub.int v0, v2\n  v1 = call fn0(v1)\n  v1 = add.int v1, v2\n  return v1\n}").unwrap(),
        );
        m
    }

    #[test]
    fn deep_recursion_runs_on_a_small_host_stack() {
        // Calls push frame records instead of recursing natively, so the
        // host stack a run needs does not grow with the call depth.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let m = recursion_module();
                let out = run_module(&m, win(), "r", &[Value::Int(200)]).unwrap();
                assert_eq!(out.result, Some(Value::Int(200)));
                assert_eq!(out.stats.calls, 200);
                let max_depth = VmConfig::default().max_depth as i64;
                let out = run_module(&m, win(), "r", &[Value::Int(max_depth)]).unwrap();
                assert_eq!(
                    out.result,
                    Some(Value::Int(max_depth)),
                    "depth max_depth runs"
                );
                let err = run_module(&m, win(), "r", &[Value::Int(max_depth + 1)]).unwrap_err();
                assert_eq!(err, Fault::StackOverflow, "one past max_depth faults");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn negative_array_size_throws() {
        let m = module_with(
            "func main() -> int {\n  locals v0: int v1: ref\nbb0:\n  v0 = const -1\n  v1 = newarray int, v0\n  return v0\n}",
        );
        let out = run_module(&m, win(), "main", &[]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NegativeArraySize));
    }

    #[test]
    fn intrinsic_costs_differ_by_platform() {
        let m = module_with(
            "func main(v0: float) -> float {\n  locals v1: float\nbb0:\n  v1 = intrinsic exp v0\n  return v1\n}",
        );
        let out_win = run_module(&m, win(), "main", &[Value::Float(0.0)]).unwrap();
        let out_ppc = run_module(&m, Platform::aix_ppc(), "main", &[Value::Float(0.0)]).unwrap();
        assert_eq!(out_win.result, Some(Value::Float(1.0)));
        assert_eq!(out_ppc.result, Some(Value::Float(1.0)));
        assert!(
            out_ppc.stats.cycles > out_win.stats.cycles,
            "library call beats intrinsic: {} vs {}",
            out_ppc.stats.cycles,
            out_win.stats.cycles
        );
    }

    #[test]
    fn outcome_equivalence_detects_trace_difference() {
        let a = Outcome {
            result: Some(Value::Int(1)),
            exception: None,
            trace: vec![Value::Int(1), Value::Int(2)],
            stats: RunStats::default(),
            events: vec![],
            heap_digest: 0,
            site_counts: SiteCounters::default(),
        };
        let mut b = a.clone();
        assert!(a.assert_equivalent(&b).is_ok());
        b.trace[1] = Value::Int(3);
        let err = a.assert_equivalent(&b).unwrap_err();
        assert!(
            err.starts_with("trace[1] Some(Int(2)) vs Some(Int(3))"),
            "{err}"
        );
    }

    /// `helper` (fn0) doubles its argument; `main` calls it `v0` times,
    /// observing every result — the harness for the swap tests.
    fn call_loop_module() -> Module {
        let mut m = Module::new("t");
        m.add_function(
            parse_function("func helper(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = add.int v0, v0\n  return v1\n}").unwrap(),
        );
        m.add_function(
            parse_function(
                "func main(v0: int) -> int {\n  locals v1: int v2: int v3: int\nbb0:\n  v1 = const 0\n  goto bb1\nbb1:\n  if lt v1, v0 then bb2 else bb3\nbb2:\n  v2 = call fn0(v1)\n  observe v2\n  v3 = const 1\n  v1 = add.int v1, v3\n  goto bb1\nbb3:\n  return v1\n}",
            )
            .unwrap(),
        );
        m
    }

    fn negating_helper() -> std::sync::Arc<njc_ir::Function> {
        std::sync::Arc::new(
            parse_function(
                "func helper(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = const -1\n  return v1\n}",
            )
            .unwrap(),
        )
    }

    #[test]
    fn installed_swap_takes_effect_at_call_entry() {
        let m = call_loop_module();
        let hooks = RuntimeHooks::new(1);
        hooks.install(0, negating_helper());
        let out = Vm::new(&m, win())
            .with_hooks(&hooks)
            .run("main", &[Value::Int(5)])
            .unwrap();
        assert_eq!(out.trace, vec![Value::Int(-1); 5], "swapped body ran");
        assert_eq!(hooks.swapped_calls(), 5);
        assert!(hooks.is_finished());
        assert_eq!(hooks.snapshot().calls, 5, "final profile published");
    }

    #[test]
    fn hooks_without_installs_change_nothing() {
        let m = call_loop_module();
        let hooks = RuntimeHooks::new(4);
        let plain = run_module(&m, win(), "main", &[Value::Int(6)]).unwrap();
        let hooked = Vm::new(&m, win())
            .with_hooks(&hooks)
            .run("main", &[Value::Int(6)])
            .unwrap();
        plain.assert_equivalent(&hooked).unwrap();
        assert_eq!(plain.stats.cycles, hooked.stats.cycles);
        assert_eq!(hooks.swapped_calls(), 0);
        assert!(hooks.is_finished());
    }

    #[test]
    fn mid_run_swap_preserves_the_accumulating_trace() {
        let m = call_loop_module();
        let hooks = RuntimeHooks::new(1);
        const ITERS: i64 = 30_000;
        let out = std::thread::scope(|s| {
            let vm = s.spawn(|| {
                Vm::new(&m, win())
                    .with_hooks(&hooks)
                    .run("main", &[Value::Int(ITERS)])
            });
            // Controller: wait for the profile to show the loop warming
            // up, then swap the helper while the run is in flight.
            while !hooks.is_finished() && hooks.snapshot().calls < 64 {
                std::thread::yield_now();
            }
            hooks.install(0, negating_helper());
            vm.join().unwrap()
        })
        .unwrap();
        assert_eq!(out.trace.len() as i64, ITERS, "one observation per call");
        assert!(hooks.swapped_calls() > 0, "swap landed mid-run");
        let flips = out
            .trace
            .windows(2)
            .filter(|w| (w[0] == Value::Int(-1)) != (w[1] == Value::Int(-1)))
            .count();
        assert_eq!(flips, 1, "old-body prefix then new-body suffix");
        assert_ne!(out.trace[0], Value::Int(-1), "started on the old body");
        assert_eq!(
            out.trace.last(),
            Some(&Value::Int(-1)),
            "finished on the new body"
        );
        assert_eq!(out.result, Some(Value::Int(ITERS)));
    }

    #[test]
    fn nullobject_recovery_substitutes_typed_default() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  v2 = add.int v1, v1\n  return v2\n}",
        );
        let policy =
            njc_recover::RecoveryPolicy::uniform(njc_recover::RecoveryStrategy::NullObject);
        let out = Vm::new(&m, win())
            .with_recovery(&policy)
            .run("main", &[Value::Ref(0)])
            .unwrap();
        assert_eq!(out.exception, None, "trap recovered, no NPE");
        assert_eq!(out.result, Some(Value::Int(0)), "default substituted");
        assert_eq!(out.stats.traps_taken, 1, "the trap still happened");
        assert_eq!(out.stats.recoveries.null_object, 1);
        assert!(out.events.is_empty(), "no exception origin recorded");
    }

    #[test]
    fn skipeffect_recovery_drops_store_and_keeps_stale_load_dst() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int v2: int\nbb0:\n  v1 = const 42\n  putfield v0, field0, v1 [site]\n  v2 = const 7\n  v2 = getfield v0, field1 [site]\n  return v2\n}",
        );
        let policy =
            njc_recover::RecoveryPolicy::uniform(njc_recover::RecoveryStrategy::SkipEffect);
        let out = Vm::new(&m, win())
            .with_recovery(&policy)
            .run("main", &[Value::Ref(0)])
            .unwrap();
        assert_eq!(out.exception, None);
        assert_eq!(
            out.result,
            Some(Value::Int(7)),
            "skipped load keeps the stale destination"
        );
        assert_eq!(out.stats.recoveries.skip_effect, 2, "store + load skipped");
    }

    #[test]
    fn strict_recovery_is_observationally_identical_to_abort() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int v2: int\n  try0: handler bb1 catch npe -> v2\nbb0: [try0]\n  v1 = getfield v0, field0 [site]\n  return v1\nbb1:\n  return v2\n}",
        );
        let base = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap();
        let policy = njc_recover::RecoveryPolicy::uniform(njc_recover::RecoveryStrategy::Strict);
        let strict = Vm::new(&m, win())
            .with_recovery(&policy)
            .run("main", &[Value::Ref(0)])
            .unwrap();
        base.assert_equivalent(&strict).unwrap();
        assert_eq!(base.events, strict.events);
        assert_eq!(base.heap_digest, strict.heap_digest);
        assert_eq!(strict.stats.recoveries.strict, 1);
        assert_eq!(
            strict.stats.explicit_null_checks,
            base.stats.explicit_null_checks + 1,
            "the deopt recheck is an explicit check"
        );
        assert!(
            strict.stats.cycles > base.stats.cycles,
            "strict recovery costs more than aborting"
        );
    }

    #[test]
    fn per_slot_policy_only_recovers_the_pinned_slot() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int v2: int\n  try0: handler bb1 catch npe -> v2\nbb0: [try0]\n  v1 = getfield v0, field1 [site]\n  v1 = getfield v0, field0 [site]\n  return v1\nbb1:\n  return v2\n}",
        );
        // Recover only field1's read slot (offset 16); field0's abort.
        let mut policy = njc_recover::RecoveryPolicy::abort();
        policy.set_slot(
            0,
            16,
            njc_ir::AccessKind::Read,
            njc_recover::RecoveryStrategy::NullObject,
        );
        let out = Vm::new(&m, win())
            .with_recovery(&policy)
            .run("main", &[Value::Ref(0)])
            .unwrap();
        assert_eq!(out.stats.recoveries.null_object, 1, "field1 recovered");
        assert_eq!(
            out.result,
            Some(Value::Int(ExceptionKind::NullPointer.code())),
            "field0's trap still aborted into the handler"
        );
        assert_eq!(out.stats.traps_taken, 2);
    }

    #[test]
    fn aix_silent_read_never_enters_recovery_dispatch() {
        // The negative control: no trap means no recovery. A marked read
        // on AIX silently yields zero and the NPE is *missed*, policy or
        // not — the recovery counters must stay zero.
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        );
        let policy =
            njc_recover::RecoveryPolicy::uniform(njc_recover::RecoveryStrategy::NullObject);
        let out = Vm::new(&m, Platform::aix_ppc())
            .with_recovery(&policy)
            .run("main", &[Value::Ref(0)])
            .unwrap();
        assert_eq!(out.stats.recoveries.total(), 0, "no trap, no recovery");
        assert_eq!(out.stats.missed_npes, 1, "the NPE is still missed");
        assert_eq!(out.result, Some(Value::Int(0)), "silent garbage zero");
    }

    #[test]
    fn recovery_sites_counted_when_instrumented() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        );
        let policy =
            njc_recover::RecoveryPolicy::uniform(njc_recover::RecoveryStrategy::NullObject);
        let hooks = RuntimeHooks::new(1);
        let out = Vm::new(&m, win())
            .with_recovery(&policy)
            .with_hooks(&hooks)
            .with_config(VmConfig {
                count_sites: true,
                ..VmConfig::default()
            })
            .run("main", &[Value::Ref(0)])
            .unwrap();
        assert_eq!(out.site_counts.recoveries.get(&(0, 0, 0)), Some(&1));
        assert_eq!(
            out.site_counts.traps.get(&(0, 0, 0)),
            Some(&1),
            "a recovered trap still counts as a trap at the same site"
        );
        assert_eq!(
            hooks.snapshot().counters,
            out.site_counts,
            "the published profile carries the trap-path counters"
        );
    }

    #[test]
    fn unassigned_check_ids_are_counted_under_the_sentinel() {
        // Hand-written IR leaves check ids at `CheckId::NONE` (u32::MAX);
        // counting must neither size a row by it nor drop it.
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v0\n  return v1\n}",
        );
        let out = Vm::new(&m, win())
            .with_config(VmConfig {
                count_sites: true,
                ..VmConfig::default()
            })
            .run("main", &[Value::Ref(0)])
            .unwrap();
        let none = njc_ir::CheckId::NONE.0;
        assert_eq!(out.site_counts.explicit_checks.get(&(0, none)), Some(&1));
        assert_eq!(out.site_counts.check_nulls.get(&(0, none)), Some(&1));
        assert_eq!(out.site_counts.blocks.get(&(0, 0)), Some(&1));
    }

    #[test]
    fn resume_reexecutes_under_explicit_check() {
        let m = module_with(
            "func main(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  v2 = getfield v0, field0 [site]\n  v3 = add.int v2, v1\n  return v3\n}",
        );
        // Prime an object so the non-null resume can read it back.
        let point = njc_recover::ResumePoint {
            block: njc_ir::BlockId(0),
            inst: 0,
        };
        // Null base: the resume recheck throws the NPE the trap owed.
        let out = Vm::new(&m, win())
            .resume(
                "main",
                point,
                vec![Value::Ref(0), Value::Int(5), Value::Int(0), Value::Int(0)],
            )
            .unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.explicit_null_checks, 1, "recheck is explicit");
        assert_eq!(
            out.stats.traps_taken, 0,
            "no second trap on the resume path"
        );
    }

    #[test]
    fn resume_mid_block_uses_reconstructed_locals() {
        // Resume past the first instruction: v2 arrives from the frame
        // snapshot (99), the add executes, and the function returns 104 —
        // proof the resumed frame really starts from the supplied state.
        let m = module_with(
            "func main(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  v2 = getfield v0, field0 [site]\n  v3 = add.int v2, v1\n  return v3\n}",
        );
        let point = njc_recover::ResumePoint {
            block: njc_ir::BlockId(0),
            inst: 1,
        };
        let out = Vm::new(&m, win())
            .resume(
                "main",
                point,
                vec![Value::Ref(0), Value::Int(5), Value::Int(99), Value::Int(0)],
            )
            .unwrap();
        assert_eq!(out.result, Some(Value::Int(104)));
        assert_eq!(out.exception, None, "the add has no access base to recheck");
    }

    #[test]
    fn wrong_entry_arity_is_a_structured_fault() {
        // Entry arguments come from outside the program: too few or too
        // many must be a verdict, not a panic in frame setup.
        let m = module_with("func main(v0: int) -> int {\nbb0:\n  return v0\n}");
        for args in [vec![], vec![Value::Int(1); 64]] {
            let err = run_module(&m, win(), "main", &args).unwrap_err();
            assert!(
                matches!(&err, Fault::IllTyped { detail, .. } if detail.contains("arity")),
                "{} args: {err}",
                args.len()
            );
        }
    }

    /// `main(v0: int)` calls `callee` (fn0) with `args`; `parse_function`
    /// accepts any count.
    fn call_site_arity_module(callee: &str, args: &str) -> Module {
        let mut m = Module::new("t");
        m.add_function(parse_function(callee).unwrap());
        m.add_function(
            parse_function(&format!(
                "func main(v0: int) -> int {{\n  locals v1: int\nbb0:\n  v1 = call fn0({args})\n  return v1\n}}"
            ))
            .unwrap(),
        );
        m
    }

    #[test]
    fn wrong_call_site_arity_is_a_structured_fault() {
        // Too many actuals used to panic copying them into the frame; too
        // few panicked in debug builds and zero-filled in release.
        let nullary = "func f() -> int {\n  locals v0: int\nbb0:\n  v0 = const 1\n  return v0\n}";
        let binary = "func g(v0: int, v1: int) -> int {\nbb0:\n  return v1\n}";
        for (callee, args) in [(nullary, "v0, v0, v0"), (binary, "v0")] {
            let m = call_site_arity_module(callee, args);
            let err = run_module(&m, win(), "main", &[Value::Int(1)]).unwrap_err();
            assert!(
                matches!(&err, Fault::IllTyped { detail, .. } if detail.contains("arity")),
                "{args}: {err}"
            );
        }
        let m = call_site_arity_module(binary, "v0, v0");
        let out = run_module(&m, win(), "main", &[Value::Int(1)]).unwrap();
        assert_eq!(out.result, Some(Value::Int(1)), "the matching count runs");
    }

    #[test]
    fn virtual_call_without_receiver_is_a_structured_fault() {
        let mut m = Module::new("t");
        let a = m.add_class("A", &[]);
        m.add_method(
            a,
            "get",
            parse_function("func A_get(v0: ref) -> int instance {\n  locals v1: int\nbb0:\n  v1 = const 1\n  return v1\n}").unwrap(),
        );
        m.add_function(
            parse_function(
                "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  v0 = new class0\n  v1 = vcall class0.get(v0)\n  return v1\n}",
            )
            .unwrap(),
        );
        let err = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap_err();
        assert!(
            matches!(&err, Fault::IllTyped { detail, .. } if detail.contains("arity")),
            "{err}"
        );
    }

    #[test]
    fn reused_stack_slots_start_callee_locals_at_typed_defaults() {
        // `fill` leaves non-null refs in locals 1-4 of its frame; `read`,
        // entered next on the same stretch of the locals stack, must still
        // see its int, float and ref locals there at their typed defaults.
        let mut m = Module::new("t");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function("func fill(v0: int) -> int {\n  locals v1: ref v2: ref v3: ref v4: ref\nbb0:\n  v1 = new class0\n  v2 = new class0\n  v3 = new class0\n  v4 = new class0\n  return v0\n}").unwrap(),
        );
        m.add_function(
            parse_function("func read(v0: int) -> int {\n  locals v1: int v2: float v3: ref v4: int\nbb0:\n  observe v1\n  observe v2\n  observe v3\n  observe v4\n  return v0\n}").unwrap(),
        );
        m.add_function(
            parse_function("func main(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = call fn0(v0)\n  v1 = call fn1(v0)\n  v1 = call fn0(v0)\n  v1 = call fn1(v0)\n  return v1\n}").unwrap(),
        );
        njc_ir::verify_module(&m).unwrap();
        let out = run_module(&m, win(), "main", &[Value::Int(9)]).unwrap();
        let defaults = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Ref(0),
            Value::Int(0),
        ];
        assert_eq!(out.trace, [defaults, defaults].concat());
        assert_eq!(out.result, Some(Value::Int(9)));
    }

    #[test]
    fn resumed_frame_calls_through_the_frame_stack() {
        // A deopt resume installs its supplied locals as the bottom frame;
        // the calls it makes afterwards push and pop frames above it as
        // usual.
        let mut m = call_loop_module();
        m.add_function(
            parse_function("func entry(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  v2 = getfield v0, field0 [site]\n  v3 = call fn1(v1)\n  v2 = call fn0(v1)\n  v3 = call fn0(v2)\n  return v3\n}").unwrap(),
        );
        m.add_class("C", &[("x", Type::Int)]);
        let point = njc_recover::ResumePoint {
            block: njc_ir::BlockId(0),
            inst: 1,
        };
        let out = Vm::new(&m, win())
            .resume(
                "entry",
                point,
                vec![Value::Ref(0), Value::Int(3), Value::Int(0), Value::Int(0)],
            )
            .unwrap();
        // `main(3)` observes 0, 2, 4; then 3 → 6 → 12.
        assert_eq!(out.trace, vec![Value::Int(0), Value::Int(2), Value::Int(4)]);
        assert_eq!(out.result, Some(Value::Int(12)));
    }

    #[test]
    fn swapped_body_with_more_blocks_counts_under_its_own_block_ids() {
        let m = call_loop_module();
        let hooks = RuntimeHooks::new(1);
        // Tier 0's helper has one block; this replacement has three.
        hooks.install(
            0,
            std::sync::Arc::new(
                parse_function("func helper(v0: int) -> int {\n  locals v1: int\nbb0:\n  goto bb1\nbb1:\n  goto bb2\nbb2:\n  v1 = add.int v0, v0\n  return v1\n}")
                    .unwrap(),
            ),
        );
        let out = Vm::new(&m, win())
            .with_hooks(&hooks)
            .with_config(VmConfig {
                count_sites: true,
                ..VmConfig::default()
            })
            .run("main", &[Value::Int(4)])
            .unwrap();
        let helper: Vec<_> = out
            .site_counts
            .blocks
            .iter()
            .filter(|((f, _), _)| *f == 0)
            .map(|(&(_, b), &n)| (b, n))
            .collect();
        assert_eq!(helper, vec![(0, 4), (1, 4), (2, 4)]);
        assert_eq!(
            hooks.snapshot().counters,
            out.site_counts,
            "the final publish exports the same maps"
        );
    }

    #[test]
    fn resume_with_wrong_frame_size_is_a_structured_fault() {
        let m = module_with(
            "func main(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  v2 = getfield v0, field0 [site]\n  v3 = add.int v2, v1\n  return v3\n}",
        );
        let point = njc_recover::ResumePoint {
            block: njc_ir::BlockId(0),
            inst: 0,
        };
        let err = Vm::new(&m, win())
            .resume("main", point, vec![Value::Ref(0)])
            .unwrap_err();
        assert!(matches!(err, Fault::IllTyped { .. }), "{err}");
    }

    #[test]
    fn implicit_check_instruction_is_free_documentation() {
        let m = module_with(
            "func main(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck! v0\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
        );
        let out = run_module(&m, win(), "main", &[Value::Ref(0)]).unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.explicit_null_checks, 0);
    }
}
