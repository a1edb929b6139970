//! Regenerates the paper's tables and figures. With no arguments it prints
//! the full report (the content of EXPERIMENTS.md's measured sections) and
//! syncs shape claim 9; given artifact names it prints only those.
//!
//! Usage: `cargo run --release -p njc-bench --bin report [-- ARTIFACT...]`

use std::time::Instant;

use njc_bench::cli::Spec;
use njc_bench::tables::ARTIFACTS;

const SPEC: Spec = Spec {
    usage: "usage: report [ARTIFACT...]\n  \
            ARTIFACT: table1..table7 | fig8..fig15 | compile-cost (none: the full report)",
    switches: &[],
    options: &[],
    positionals: usize::MAX,
};

fn main() {
    let args = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|e| e.exit());
    let mut generators = Vec::new();
    for name in &args.positionals {
        // Figure 13 is the chart form of Table 4's breakdown.
        let wanted = if name == "fig13" { "table4" } else { name };
        match ARTIFACTS.iter().find(|(n, _)| *n == wanted) {
            Some((_, generate)) => generators.push(*generate),
            None => args.error(format!("unknown artifact `{name}`")).exit(),
        }
    }
    let t = Instant::now();
    let mut h = njc_bench::Harness::new();
    if !generators.is_empty() {
        let sections: Vec<String> = generators.iter().map(|g| g(&mut h)).collect();
        print!("{}", sections.join("\n"));
        return;
    }
    let sections: Vec<String> = ARTIFACTS.iter().map(|(_, g)| g(&mut h)).collect();
    let body = sections.join("\n");
    let report = format!(
        "# Measured reproduction report\n\nGenerated by `cargo run --release -p njc-bench --bin report` in {:.1}s.\n\n{body}",
        t.elapsed().as_secs_f64()
    );
    // Shape claim 9 cites the missed-NPE count the differential harness
    // measured; sync the EXPERIMENTS.md prose from DIFF_report.json so the
    // number can never drift from the measurement again.
    match njc_bench::claims::apply_measured_claims(
        std::path::Path::new("EXPERIMENTS.md"),
        std::path::Path::new("DIFF_report.json"),
    ) {
        Ok(Some(n)) => eprintln!("claim 9: synced measured count {n} into EXPERIMENTS.md"),
        Ok(None) => {
            eprintln!("claim 9: EXPERIMENTS.md/DIFF_report.json not found or unmarked; skipped")
        }
        Err(e) => eprintln!("claim 9: substitution failed: {e}"),
    }
    print!("{report}");
}
