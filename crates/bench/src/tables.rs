//! Generators for every table and figure of the paper's evaluation.
//!
//! Each function renders a text artifact with the paper's published value
//! and our measured value side by side. Absolute values are not expected
//! to match (the substrate is a costed simulator, not a Pentium III); the
//! *shape* — who wins, roughly by what factor, where the crossovers are —
//! is the reproduction target, per DESIGN.md.

use njc_arch::Platform;
use njc_opt::ConfigKind;
use njc_workloads::Workload;

use crate::harness::{f2, improvement_down, improvement_up, pct, Cell, Harness, TextTable};
use crate::paper;

/// The Windows/IA32 configuration rows of Tables 1–2 (paper order),
/// with the HotSpot stand-in appended.
pub fn win_rows() -> [(&'static str, ConfigKind); 6] {
    [
        ("New Null Check (Phase1+Phase2)", ConfigKind::Full),
        ("New Null Check (Phase1 only)", ConfigKind::Phase1Only),
        ("Old Null Check", ConfigKind::OldNullCheck),
        ("No Null Opt. (Hardware Trap)", ConfigKind::NoNullOptTrap),
        (
            "No Null Opt. (No Hardware Trap)",
            ConfigKind::NoNullOptNoTrap,
        ),
        ("HotSpot (RefJit stand-in)", ConfigKind::RefJit),
    ]
}

/// The AIX configuration rows of Tables 6–7 (paper order).
pub fn aix_rows() -> [(&'static str, ConfigKind); 4] {
    [
        ("Speculation", ConfigKind::AixSpeculation),
        ("No Speculation", ConfigKind::AixNoSpeculation),
        ("No Null Check Optimization", ConfigKind::AixNoNullOpt),
        (
            "Illegal Implicit (No Speculation)",
            ConfigKind::AixIllegalImplicit,
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn metric_table(
    title: &str,
    note: &str,
    h: &mut Harness,
    workloads: &[Workload],
    platform: &Platform,
    rows: &[(&'static str, ConfigKind)],
    paper_rows: &[(&str, &[f64])],
) -> String {
    let mut header = vec!["configuration".to_string()];
    header.extend(workloads.iter().map(|w| w.name.to_string()));
    let mut t = TextTable::new(header);
    for (label, kind) in rows {
        let cells = h.measure_row(workloads, platform, *kind);
        let mut r = vec![format!("{label} [measured]")];
        r.extend(cells.iter().map(|c| f2(c.metric)));
        t.row(r);
        if let Some((plabel, pvals)) = paper_rows.iter().find(|(pl, _)| {
            label.starts_with(pl)
                || pl.starts_with(label)
                || (*pl == "HotSpot" && label.starts_with("HotSpot"))
        }) {
            let mut r = vec![format!("{plabel} [paper]")];
            r.extend(pvals.iter().map(|v| f2(*v)));
            t.row(r);
        }
    }
    format!("## {title}\n{note}\n\n{}", t.render())
}

/// Renders one table or figure.
pub type Generator = fn(&mut Harness) -> String;

/// Every artifact of the full report, by command-line name, in report
/// order. Figure 13 is the chart form of Table 4's breakdown, so it has no
/// generator of its own.
pub const ARTIFACTS: [(&str, Generator); 15] = [
    ("table1", table1),
    ("fig8", fig8),
    ("table2", table2),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table3", table3),
    ("fig12", fig12),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("fig14", fig14),
    ("table7", table7),
    ("fig15", fig15),
    ("compile-cost", compile_cost),
];

/// Table 1 — jBYTEmark on Windows/IA32 (index; larger is better).
pub fn table1(h: &mut Harness) -> String {
    let workloads = njc_workloads::jbytemark();
    let p = Platform::windows_ia32();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE1
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    metric_table(
        "Table 1. Performance for jBYTEmark v0.9 (larger numbers are better)",
        "Units: simulated work-units/second index (ours) vs jBYTEmark index (paper).",
        h,
        &workloads,
        &p,
        &win_rows(),
        &paper_rows,
    )
}

/// Table 2 — SPECjvm98 on Windows/IA32 (seconds; smaller is better).
pub fn table2(h: &mut Harness) -> String {
    let workloads = njc_workloads::specjvm98();
    let p = Platform::windows_ia32();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE2
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    metric_table(
        "Table 2. Performance for SPECjvm98 (smaller numbers are better)",
        "Units: scaled simulated seconds (ours) vs wall seconds (paper).",
        h,
        &workloads,
        &p,
        &win_rows(),
        &paper_rows,
    )
}

/// Table 6 — jBYTEmark on AIX/PowerPC.
pub fn table6(h: &mut Harness) -> String {
    let workloads = njc_workloads::jbytemark();
    let p = Platform::aix_ppc();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE6
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    metric_table(
        "Table 6. Performance for jBYTEmark v0.9 on AIX (larger numbers are better)",
        "All null checks are explicit conditional traps on AIX (§3.3.1); speculation moves reads across them.",
        h,
        &workloads,
        &p,
        &aix_rows(),
        &paper_rows,
    )
}

/// Table 7 — SPECjvm98 on AIX/PowerPC.
pub fn table7(h: &mut Harness) -> String {
    let workloads = njc_workloads::specjvm98();
    let p = Platform::aix_ppc();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE7
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    metric_table(
        "Table 7. Performance for SPECjvm98 on AIX (smaller numbers are better)",
        "",
        h,
        &workloads,
        &p,
        &aix_rows(),
        &paper_rows,
    )
}

#[allow(clippy::too_many_arguments)]
fn improvement_figure(
    title: &str,
    h: &mut Harness,
    workloads: &[Workload],
    platform: &Platform,
    rows: &[(&'static str, ConfigKind)],
    baseline: ConfigKind,
    larger_better: bool,
    paper_table: &[(&str, &[f64])],
    paper_baseline_idx: usize,
) -> String {
    let base = h.measure_row(workloads, platform, baseline);
    let mut header = vec!["improvement over baseline".to_string()];
    header.extend(workloads.iter().map(|w| w.name.to_string()));
    let mut t = TextTable::new(header);
    let paper_base = paper_table[paper_baseline_idx].1;
    for (label, kind) in rows {
        if *kind == baseline {
            continue;
        }
        let cells = h.measure_row(workloads, platform, *kind);
        let mut r = vec![format!("{label} [measured]")];
        for (c, b) in cells.iter().zip(&base) {
            let imp = if larger_better {
                improvement_up(c.metric, b.metric)
            } else {
                improvement_down(c.metric, b.metric)
            };
            r.push(pct(imp));
        }
        t.row(r);
        if let Some((pl, pv)) = paper_table
            .iter()
            .find(|(pl, _)| label.starts_with(pl) || pl.starts_with(label))
        {
            let mut r = vec![format!("{pl} [paper]")];
            for (v, b) in pv.iter().zip(paper_base) {
                let imp = if larger_better {
                    improvement_up(*v, *b)
                } else {
                    improvement_down(*v, *b)
                };
                r.push(pct(imp));
            }
            t.row(r);
        }
    }
    format!("## {title}\n\n{}", t.render())
}

/// Figure 8 — % improvement over the no-null-opt/no-trap baseline,
/// jBYTEmark on Windows.
pub fn fig8(h: &mut Harness) -> String {
    let workloads = njc_workloads::jbytemark();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE1
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    improvement_figure(
        "Figure 8. Improvement for jBYTEmark v.0.9 (over the No Null Opt / No Hardware Trap baseline)",
        h,
        &workloads,
        &Platform::windows_ia32(),
        &win_rows()[..5],
        ConfigKind::NoNullOptNoTrap,
        true,
        &paper_rows,
        4,
    )
}

/// Figure 9 — % improvement, SPECjvm98 on Windows.
pub fn fig9(h: &mut Harness) -> String {
    let workloads = njc_workloads::specjvm98();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE2
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    improvement_figure(
        "Figure 9. Improvement for SPECjvm98 (over the No Null Opt / No Hardware Trap baseline)",
        h,
        &workloads,
        &Platform::windows_ia32(),
        &win_rows()[..5],
        ConfigKind::NoNullOptNoTrap,
        false,
        &paper_rows,
        4,
    )
}

fn vs_refjit(
    title: &str,
    h: &mut Harness,
    workloads: &[Workload],
    larger_better: bool,
    paper_table: &[(&str, &[f64])],
) -> String {
    let p = Platform::windows_ia32();
    let ours = h.measure_row(workloads, &p, ConfigKind::Full);
    let refjit = h.measure_row(workloads, &p, ConfigKind::RefJit);
    let mut header = vec!["relative performance".to_string()];
    header.extend(workloads.iter().map(|w| w.name.to_string()));
    header.push("average".into());
    let mut t = TextTable::new(header);
    let rel = |a: &Cell, b: &Cell| {
        if larger_better {
            improvement_up(a.metric, b.metric)
        } else {
            improvement_down(a.metric, b.metric)
        }
    };
    let vals: Vec<f64> = ours.iter().zip(&refjit).map(|(a, b)| rel(a, b)).collect();
    let avg = vals.iter().sum::<f64>() / vals.len() as f64;
    let mut r = vec!["our JIT vs RefJit [measured]".to_string()];
    r.extend(vals.iter().map(|v| pct(*v)));
    r.push(pct(avg));
    t.row(r);
    // Paper: our JIT (row 0) vs HotSpot (row 5).
    let full = paper_table[0].1;
    let hs = paper_table[5].1;
    let pvals: Vec<f64> = full
        .iter()
        .zip(hs)
        .map(|(a, b)| {
            if larger_better {
                improvement_up(*a, *b)
            } else {
                improvement_down(*a, *b)
            }
        })
        .collect();
    let pavg = pvals.iter().sum::<f64>() / pvals.len() as f64;
    let mut r = vec!["our JIT vs HotSpot [paper]".to_string()];
    r.extend(pvals.iter().map(|v| pct(*v)));
    r.push(pct(pavg));
    t.row(r);
    format!(
        "## {title}\n\nThe HotSpot column is reproduced against the RefJit stand-in (DESIGN.md §5).\n\n{}",
        t.render()
    )
}

/// Figure 10 — our JIT vs the second compiler, jBYTEmark.
pub fn fig10(h: &mut Harness) -> String {
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE1
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    vs_refjit(
        "Figure 10. Performance comparison for jBYTEmark v.0.9 (vs second compiler)",
        h,
        &njc_workloads::jbytemark(),
        true,
        &paper_rows,
    )
}

/// Figure 11 — our JIT vs the second compiler, SPECjvm98.
pub fn fig11(h: &mut Harness) -> String {
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE2
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    vs_refjit(
        "Figure 11. Performance comparison for SPECjvm98 (vs second compiler)",
        h,
        &njc_workloads::specjvm98(),
        false,
        &paper_rows,
    )
}

/// Table 3 — JIT compilation time of SPECjvm98.
///
/// Units substitution (DESIGN.md §5): compile and execution are both
/// measured on the host clock here, so the first-run / best-run split is
/// real; magnitudes are milliseconds (our kernels are far smaller than the
/// originals), compared against the paper's seconds by *ratio*.
pub fn table3(h: &mut Harness) -> String {
    let workloads = njc_workloads::specjvm98();
    let p = Platform::windows_ia32();
    let mut t = TextTable::new(vec![
        "benchmark".into(),
        "compile ms".into(),
        "exec ms".into(),
        "first-run ms".into(),
        "compile share".into(),
        "paper share".into(),
        "RefJit compile ms".into(),
        "paper HotSpot s".into(),
    ]);
    for (i, w) in workloads.iter().enumerate() {
        let ours = h.measure(w, &p, ConfigKind::Full);
        let refjit = h.measure(w, &p, ConfigKind::RefJit);
        let compile_ms = ours.compile_wall.as_secs_f64() * 1000.0;
        let exec_ms = ours.exec_wall.as_secs_f64() * 1000.0;
        let first = compile_ms + exec_ms;
        let share = compile_ms / first * 100.0;
        let prow = &paper::TABLE3[i];
        let pshare = prow.our.2 / prow.our.0 * 100.0;
        t.row(vec![
            w.name.to_string(),
            format!("{compile_ms:.2}"),
            format!("{exec_ms:.2}"),
            format!("{first:.2}"),
            format!("{share:.1}%"),
            format!("{pshare:.1}%"),
            format!("{:.2}", refjit.compile_wall.as_secs_f64() * 1000.0),
            format!("{:.2}", prow.hotspot.2),
        ]);
    }
    format!(
        "## Table 3. JIT compilation time of SPECjvm98\n\n{}",
        t.render()
    )
}

/// Figure 12 — ratio of compile time over first-run time.
pub fn fig12(h: &mut Harness) -> String {
    let workloads = njc_workloads::specjvm98();
    let p = Platform::windows_ia32();
    let mut t = TextTable::new(vec![
        "benchmark".into(),
        "measured ratio".into(),
        "paper ratio".into(),
    ]);
    for (i, w) in workloads.iter().enumerate() {
        let ours = h.measure(w, &p, ConfigKind::Full);
        let c = ours.compile_wall.as_secs_f64();
        let e = ours.exec_wall.as_secs_f64();
        let prow = &paper::TABLE3[i];
        t.row(vec![
            w.name.to_string(),
            format!("{:.1}%", c / (c + e) * 100.0),
            format!("{:.1}%", prow.our.2 / prow.our.0 * 100.0),
        ]);
    }
    format!(
        "## Figure 12. Ratio of JIT compilation time (100% = first run)\n\n{}",
        t.render()
    )
}

/// Table 4 / Figure 13 — breakdown of compile time: null check
/// optimization vs everything else, NEW (two-phase) vs OLD (Whaley).
pub fn table4(h: &mut Harness) -> String {
    let p = Platform::windows_ia32();
    let mut t = TextTable::new(vec![
        "benchmark".into(),
        "NEW nullcheck share".into(),
        "OLD nullcheck share".into(),
        "NEW/OLD pass time".into(),
        "paper NEW share".into(),
        "paper OLD share".into(),
    ]);
    let groups: Vec<(&str, Vec<Workload>)> = {
        let spec = njc_workloads::specjvm98();
        let mut g: Vec<(&str, Vec<Workload>)> = Vec::new();
        for name in ["mtrt", "jess"] {
            g.push((
                name,
                spec.iter().filter(|w| w.name == name).cloned().collect(),
            ));
        }
        g.push((
            "db+compress+mpegaudio",
            spec.iter()
                .filter(|w| ["db", "compress", "mpegaudio"].contains(&w.name))
                .cloned()
                .collect(),
        ));
        for name in ["jack", "javac"] {
            g.push((
                name,
                spec.iter().filter(|w| w.name == name).cloned().collect(),
            ));
        }
        g.push(("jBYTEmark", njc_workloads::jbytemark()));
        g
    };
    for (i, (label, ws)) in groups.iter().enumerate() {
        let mut new_nc = 0.0;
        let mut new_total = 0.0;
        let mut old_nc = 0.0;
        let mut old_total = 0.0;
        for w in ws {
            let n = h.measure(w, &p, ConfigKind::Full);
            new_nc += n.compile.nullcheck_time().as_secs_f64();
            new_total += n.compile.total_time().as_secs_f64();
            let o = h.measure(w, &p, ConfigKind::OldNullCheck);
            old_nc += o.compile.nullcheck_time().as_secs_f64();
            old_total += o.compile.total_time().as_secs_f64();
        }
        let prow = &paper::TABLE4[i];
        t.row(vec![
            label.to_string(),
            format!("{:.2}%", new_nc / new_total * 100.0),
            format!("{:.2}%", old_nc / old_total * 100.0),
            format!("{:.2}x", new_nc / old_nc.max(1e-12)),
            format!("{:.2}%", prow.new.1),
            format!("{:.2}%", prow.old.1),
        ]);
    }
    format!(
        "## Table 4 / Figure 13. Breakdown of JIT compilation time\n\nPaper: the new optimization takes ~3x the old one's pass time yet stays ~2% of total.\n\n{}",
        t.render()
    )
}

/// Table 5 — increase in total compile time from the new algorithm.
pub fn table5(h: &mut Harness) -> String {
    let p = Platform::windows_ia32();
    let mut t = TextTable::new(vec![
        "benchmark".into(),
        "measured increase".into(),
        "paper increase".into(),
    ]);
    let mut groups: Vec<(&str, Vec<Workload>)> = Vec::new();
    {
        let spec = njc_workloads::specjvm98();
        for name in ["mtrt", "jess"] {
            groups.push((
                name,
                spec.iter().filter(|w| w.name == name).cloned().collect(),
            ));
        }
        groups.push((
            "db+compress+mpegaudio",
            spec.iter()
                .filter(|w| ["db", "compress", "mpegaudio"].contains(&w.name))
                .cloned()
                .collect(),
        ));
        for name in ["jack", "javac"] {
            groups.push((
                name,
                spec.iter().filter(|w| w.name == name).cloned().collect(),
            ));
        }
        groups.push(("jBYTEmark", njc_workloads::jbytemark()));
    }
    let mut incs = Vec::new();
    for (i, (label, ws)) in groups.iter().enumerate() {
        let mut new_total = 0.0;
        let mut old_total = 0.0;
        for w in ws {
            new_total += h
                .measure(w, &p, ConfigKind::Full)
                .compile
                .total_time()
                .as_secs_f64();
            old_total += h
                .measure(w, &p, ConfigKind::OldNullCheck)
                .compile
                .total_time()
                .as_secs_f64();
        }
        let inc = (new_total / old_total - 1.0) * 100.0;
        incs.push(inc);
        t.row(vec![
            label.to_string(),
            format!("{inc:+.2}%"),
            format!("+{:.2}%", paper::TABLE5[i].1),
        ]);
    }
    let avg = incs.iter().sum::<f64>() / incs.len() as f64;
    format!(
        "## Table 5. Increase in JIT compilation time (new vs old null check optimization)\n\nMeasured average: {avg:+.2}% (paper: +{:.1}% on average).\n\n{}",
        paper::HEADLINE_COMPILE_INCREASE,
        t.render()
    )
}

/// Figure 14 — % improvement over the AIX no-null-opt baseline, jBYTEmark.
pub fn fig14(h: &mut Harness) -> String {
    let workloads = njc_workloads::jbytemark();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE6
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    improvement_figure(
        "Figure 14. Improvement for jBYTEmark v.0.9 on AIX (over No Null Check Optimization)",
        h,
        &workloads,
        &Platform::aix_ppc(),
        &aix_rows(),
        ConfigKind::AixNoNullOpt,
        true,
        &paper_rows,
        2,
    )
}

/// Figure 15 — % improvement, SPECjvm98 on AIX.
pub fn fig15(h: &mut Harness) -> String {
    let workloads = njc_workloads::specjvm98();
    let paper_rows: Vec<(&str, &[f64])> = paper::TABLE7
        .iter()
        .map(|(l, v)| (*l, v.as_slice()))
        .collect();
    improvement_figure(
        "Figure 15. Improvement for SPECjvm98 on AIX (over No Null Check Optimization)",
        h,
        &workloads,
        &Platform::aix_ppc(),
        &aix_rows(),
        ConfigKind::AixNoNullOpt,
        false,
        &paper_rows,
        2,
    )
}

/// Compile-cost appendix — solver work and per-pass time under the full
/// configuration. Not a paper artifact: this tracks *our* optimizer's
/// compile-time cost (worklist pops, convergence depth, per-pass wall
/// breakdown) so regressions in the solver or pipeline show up in the
/// regenerated report. perfbench's `opt.pass.*_ms` metrics time the same
/// passes on a process-CPU clock with gated bounds.
pub fn compile_cost(h: &mut Harness) -> String {
    let p = Platform::windows_ia32();
    let mut t = TextTable::new(vec![
        "benchmark".into(),
        "solver pops".into(),
        "solver iters".into(),
        "nullcheck ms".into(),
        "boundcheck ms".into(),
        "scalar ms".into(),
        "cleanup ms".into(),
    ]);
    let pass_ms = |c: &Cell, pass: &str| {
        c.compile
            .timings
            .iter()
            .filter(|(n, _)| *n == pass)
            .map(|(_, d)| d.as_secs_f64() * 1000.0)
            .sum::<f64>()
    };
    let mut pops = 0usize;
    for w in njc_workloads::specjvm98() {
        let c = h.measure(&w, &p, ConfigKind::Full);
        pops += c.compile.null_checks.solver_pops();
        t.row(vec![
            w.name.to_string(),
            c.compile.null_checks.solver_pops().to_string(),
            c.compile.null_checks.solver_iterations().to_string(),
            format!("{:.3}", pass_ms(&c, "nullcheck")),
            format!("{:.3}", pass_ms(&c, "boundcheck")),
            format!("{:.3}", pass_ms(&c, "scalar")),
            format!("{:.3}", pass_ms(&c, "cleanup")),
        ]);
    }
    format!(
        "## Compile cost (SPECjvm98, Full config)\n\n{}\nTotal solver pops: {pops}\n",
        t.render()
    )
}
