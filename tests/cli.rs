//! The `njc` command line, driven as a process.
//!
//! `--help` succeeds on every subcommand; an unknown flag, a missing
//! value, or an unparsable value exits 1 with a message naming the flag
//! and the usage text, never a panic (exit 101); and every `ConfigKind`
//! preset, one per row of the paper's tables, is reachable by its
//! `--config` name.

use std::process::{Command, Output};

use njc_arch::Platform;
use njc_opt::ConfigKind;

const FIXTURE: &str = "tests/fixtures/recover_strict_getfield_s0.njc";

fn njc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_njc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("njc starts")
}

#[test]
fn help_succeeds_on_every_subcommand() {
    for sub in [
        "",
        "explain",
        "difftest",
        "runtime",
        "service",
        "recover",
        "emit",
        "verify-binary",
    ] {
        let args: Vec<&str> = [sub, "--help"]
            .into_iter()
            .filter(|a| !a.is_empty())
            .collect();
        let out = njc(&args);
        assert_eq!(out.status.code(), Some(0), "njc {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: njc"), "njc {args:?}: {stdout}");
    }
}

#[test]
fn bad_arguments_exit_1_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&[FIXTURE, "--config", "bogus"], "--config"),
        (&["explain", FIXTURE, "--platform", "vax"], "--platform"),
        (&["emit", FIXTURE, "--threads", "0"], "--threads"),
        (&["explain", "--smoke", "--threads", "x"], "--threads"),
        (&["verify-binary", "--smoke", "--bogus"], "--bogus"),
        (&["runtime", FIXTURE, "--recover"], "--recover"),
        (
            &["runtime", FIXTURE, "--profile-threshold", "hot"],
            "--profile-threshold",
        ),
        (&["service", FIXTURE, "--tenants", "0"], "--tenants"),
        (&["difftest", "--seeds", "-1"], "--seeds"),
        (&["recover", "--seeds", "0"], "--seeds"),
        (&["recover", "--smoke"], "--smoke"),
        (&["runtime", "--smoke"], "--smoke"),
        (&["service", "--smoke"], "--smoke"),
        (&["explain", FIXTURE, "main", "#x"], "#x"),
    ];
    for (args, flag) in cases {
        let out = njc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "njc {args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("usage: njc"),
            "njc {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "njc {args:?} ran before failing");
    }
}

#[test]
fn every_preset_runs_by_name() {
    for kind in ConfigKind::ALL {
        let (platform, name) = if ConfigKind::table67_rows().contains(&kind) {
            (Platform::aix_ppc(), "aix")
        } else {
            (Platform::windows_ia32(), "ia32")
        };
        let out = njc(&[FIXTURE, "--config", kind.as_str(), "--platform", name]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{kind:?}: {stdout}");
        let expected = format!(
            "config: {} on {}",
            kind.to_config(&platform).name,
            platform.name
        );
        assert!(stdout.contains(&expected), "{kind:?}: {stdout}");
    }
}

#[test]
fn smoke_difftest_writes_no_report_without_out() {
    // The default report path holds the committed full report; a smoke
    // run covers a fraction of the corpus and must not replace it.
    let dir = std::env::temp_dir().join(format!("njc-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_njc"))
        .args(["difftest", "--smoke", "--seeds", "1"])
        .current_dir(&dir)
        .output()
        .expect("njc starts");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir.join("DIFF_report.json").exists(),
        "a smoke run wrote DIFF_report.json"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
