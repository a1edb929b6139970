//! The njc-bench binaries' command lines, driven as processes: `--help`
//! exits 0, and a bad flag or value exits 1 naming it — never a panic
//! (exit 101) — before any benchmark runs or any output file is written.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

const BINS: [&str; 5] = [
    env!("CARGO_BIN_EXE_compile_bench"),
    env!("CARGO_BIN_EXE_runtime_bench"),
    env!("CARGO_BIN_EXE_service_bench"),
    env!("CARGO_BIN_EXE_njc_analyze"),
    env!("CARGO_BIN_EXE_report"),
];

#[test]
fn help_exits_0_with_usage() {
    for bin in BINS {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("usage: "),
            "{bin}"
        );
    }
}

#[test]
fn bad_arguments_exit_1_before_any_work() {
    let out_file = std::env::temp_dir().join(format!("njc-bench-cli-{}.json", std::process::id()));
    let out_path = out_file.to_str().expect("utf-8 temp path");
    let [compile, runtime, service, analyze, report] = BINS;
    let cases: &[(&str, &[&str], &str)] = &[
        (compile, &["--runs", "x", "--out", out_path], "--runs"),
        (compile, &["--bogus"], "--bogus"),
        (compile, &["--smoke"], "--smoke"),
        (compile, &["--out"], "--out"),
        (runtime, &["--seeds", "x", "--out", out_path], "--seeds"),
        (runtime, &["--iters", "0", "--out", out_path], "--iters"),
        (runtime, &["--bogus"], "--bogus"),
        (runtime, &["--smoke"], "--smoke"),
        (
            service,
            &["--tenants", "1,a", "--out", out_path],
            "--tenants",
        ),
        (service, &["--tenants", "0"], "--tenants"),
        (service, &["--bogus"], "--bogus"),
        (service, &["--smoke"], "--smoke"),
        (analyze, &["--bogus"], "--bogus"),
        (analyze, &["mtrt", "jess"], "jess"),
        (report, &["table99"], "table99"),
        (report, &["--bogus"], "--bogus"),
    ];
    for (bin, args, flag) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran before failing");
        assert!(!out_file.exists(), "{bin} {args:?} wrote its output");
    }
}
