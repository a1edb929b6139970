//! End-to-end tests of the differential execution & fault-injection
//! harness (`njc::bench::difftest`): the smoke corpus must be
//! divergence-free on a healthy tree, the harness must detect and
//! minimize the wrapping-addressing bug when it is re-enabled, and the
//! committed minimized fixtures must replay with the fixed (uniform)
//! behavior on every platform model.

use njc::bench::difftest::{run_difftest, DiffOptions, Divergence};
use njc_arch::Platform;
use njc_ir::{Module, Type};
use njc_opt::{optimize_module, ConfigKind, OptConfig};
use njc_vm::{run_module, Fault};

fn quick(smoke: bool, seeds: u64) -> DiffOptions {
    DiffOptions {
        seeds,
        smoke,
        ..DiffOptions::default()
    }
}

#[test]
fn smoke_corpus_is_divergence_free() {
    let report = run_difftest(&quick(true, 2));
    assert!(
        report.is_clean(),
        "healthy tree must diff clean: {:?}",
        report.divergences.first()
    );
    assert_eq!(report.panicked_cells, 0);
    // Two ill-typed probes × three platform baselines, all surviving as
    // structured faults.
    assert_eq!(report.ill_typed_cells, 6);
    // The expected-unsound AixIllegalImplicit config misses NPEs on the
    // null-exercising programs — the paper's claim 9, reproduced
    // automatically on every run.
    assert!(
        report.claim9_confirmations >= 1,
        "claim 9 should reproduce: {report:?}"
    );
}

#[test]
fn reverted_addressing_fix_is_detected_and_minimized() {
    // `legacy_wrapping` simulates reverting the checked-addressing fix in
    // the heap: the harness must detect the cross-platform split (AIX
    // silently reads the guard page, Windows/S390 trap) and shrink the
    // offending generated program down to the single culprit action.
    let fixtures = std::env::temp_dir().join("njc-difftest-test-fixtures");
    let _ = std::fs::remove_dir_all(&fixtures);
    let opts = DiffOptions {
        legacy_wrapping: true,
        fixtures_dir: Some(fixtures.clone()),
        ..quick(true, 12)
    };
    let report = run_difftest(&opts);
    assert!(
        !report.divergences.is_empty(),
        "the reverted fix must be detected"
    );
    let minimized: Vec<&Divergence> = report
        .divergences
        .iter()
        .filter(|d| d.minimized.is_some())
        .collect();
    assert!(!minimized.is_empty(), "generated programs must minimize");
    for d in &minimized {
        assert_eq!(
            d.minimized.as_deref(),
            Some("[RawLoad(GuardWrap)]"),
            "every divergence under this fault mode shrinks to the \
             guard-wrap load: {d:?}"
        );
        let path = d.fixture.as_ref().expect("fixture emitted");
        let text = std::fs::read_to_string(path).expect("fixture readable");
        assert!(text.contains("func work"), "fixture is replayable IR");
    }
    let _ = std::fs::remove_dir_all(&fixtures);
}

/// Replicates the CLI's `.njc` loader: synthesized classes `C0..C7` with
/// eight int fields each, functions split on `func ` lines, header
/// comments before the first function skipped.
fn load_fixture(path: &str) -> Module {
    let source = std::fs::read_to_string(path).unwrap();
    let mut module = Module::new("fixture");
    for c in 0..8 {
        let fields: Vec<(String, Type)> = (0..8).map(|f| (format!("f{f}"), Type::Int)).collect();
        let refs: Vec<(&str, Type)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        module.add_class(format!("C{c}"), &refs);
    }
    let mut chunks: Vec<String> = Vec::new();
    for line in source.lines() {
        if line.trim_start().starts_with("func ") {
            chunks.push(String::new());
        }
        if let Some(cur) = chunks.last_mut() {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    for chunk in &chunks {
        module.add_function(njc_ir::parse_function(chunk).unwrap());
    }
    njc_ir::verify_module(&module).unwrap();
    module
}

#[test]
fn handler_entry_copy_fixture_is_config_invariant() {
    // The handler-entry fact fixture: a copy checked before the try
    // region's first throw point is re-checked inside the handler. Every
    // sound configuration — with and without the value-numbered analysis
    // — must behave exactly like the unoptimized module on every
    // platform model, whether or not it removes the handler's check.
    let m = load_fixture("tests/fixtures/handler_entry_copy.njc");
    for platform in [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ] {
        let base = run_module(&m, platform, "main", &[]).unwrap();
        for kind in [
            ConfigKind::Full,
            ConfigKind::Phase1Only,
            ConfigKind::OldNullCheck,
            ConfigKind::NoNullOptNoTrap,
        ] {
            for gvn in [false, true] {
                let mut opt = m.clone();
                optimize_module(
                    &mut opt,
                    &platform,
                    &OptConfig {
                        gvn,
                        ..kind.to_config(&platform)
                    },
                );
                let out = run_module(&opt, platform, "main", &[]).unwrap();
                base.assert_equivalent(&out).unwrap_or_else(|e| {
                    panic!(
                        "{:?}{} on {}: {e}",
                        kind,
                        if gvn { "+gvn" } else { "" },
                        platform.name
                    )
                });
            }
        }
    }
}

#[test]
fn committed_fixtures_replay_with_uniform_fault_on_every_platform() {
    // Under checked addressing (the fix), the guard-wrap load's overflow
    // is caught and reported as a trap against the guard page at an
    // unmarked site — the SAME structured fault on every platform model,
    // which is exactly why the harness diffs clean today. Under the old
    // wrapping arithmetic these fixtures split AIX from Windows/S390.
    for fixture in [
        "tests/fixtures/guard_wrap_minimized.njc",
        "tests/fixtures/seed11_guard_wrap_minimized.njc",
    ] {
        let m = load_fixture(fixture);
        for platform in [
            Platform::windows_ia32(),
            Platform::aix_ppc(),
            Platform::linux_s390(),
        ] {
            let fault = run_module(&m, platform, "main", &[]).unwrap_err();
            assert!(
                matches!(fault, Fault::UnexpectedTrap { .. }),
                "{fixture} on {}: expected UnexpectedTrap, got {fault:?}",
                platform.name
            );
        }
    }
}

#[test]
fn hostile_array_sizes_are_a_structured_fault_on_both_executors() {
    // `newarray int` of length 2^60 (a byte size no heap can hold) and
    // 2^61 (a byte size that wraps to 16 in unchecked arithmetic): the VM
    // and the byte machine must both refuse the allocation with a
    // heap-exhausted fault, and the difftest `+bytes` oracle must see them
    // agree, on every platform and under every optimization level.
    use njc::bench::difftest::{byte_verdict, ByteVerdict};
    use njc_codegen::MachineFault;
    use njc_emit::ByteMachine;
    for (fixture, requested) in [
        (
            "tests/fixtures/newarray_len_2p60.njc",
            Some((1u64 << 63) + 16),
        ),
        ("tests/fixtures/newarray_len_2p61.njc", None),
    ] {
        let m = load_fixture(fixture);
        for platform in [
            Platform::windows_ia32(),
            Platform::aix_ppc(),
            Platform::linux_s390(),
        ] {
            for kind in [ConfigKind::NoNullOptNoTrap, ConfigKind::Full] {
                let mut opt = m.clone();
                optimize_module(&mut opt, &platform, &kind.to_config(&platform));
                let fault = run_module(&opt, platform, "main", &[]).unwrap_err();
                assert_eq!(
                    fault,
                    Fault::HeapExhausted {
                        function: "main".into(),
                        requested
                    },
                    "{fixture} {kind:?} on {}",
                    platform.name
                );
                let em = njc_emit::emit_module(&njc_codegen::lower_module(&opt), 1);
                let bytes = ByteMachine::new(&em, platform).run("main").unwrap_err();
                assert_eq!(
                    bytes,
                    MachineFault::HeapExhausted {
                        function: "main".into(),
                        requested
                    },
                    "{fixture} {kind:?} on {}",
                    platform.name
                );
                assert_eq!(
                    byte_verdict(&opt, &em, &platform),
                    ByteVerdict::Agree,
                    "{fixture} {kind:?} on {}",
                    platform.name
                );
            }
        }
    }
}
