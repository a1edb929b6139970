//! IR to verified bytes: optimize, lower, emit, ELF round trip, and
//! binary verification with the explicit-check census. Shared by the
//! `suite_exec` and `jit_compile` workloads.

use std::collections::BTreeMap;

use njc_arch::Platform;
use njc_emit::{EmittedModule, VerifyFinding};
use njc_ir::Module;
use njc_opt::{OptConfig, PipelineStats};

use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Measured, Metrics, Tally, THREADS};

/// Everything one compile produced.
pub struct Compiled {
    /// The optimized IR.
    pub module: Module,
    pub stats: PipelineStats,
    /// Machine instructions selected by lowering.
    pub minsts: usize,
    pub emitted: EmittedModule,
    /// The module read back from its ELF image.
    pub reparsed: Result<EmittedModule, String>,
    /// Binary verifier findings plus census mismatches.
    pub findings: Vec<VerifyFinding>,
}

/// Compiles `module` to verified bytes, one span per layer.
pub fn compile(
    mut module: Module,
    platform: &Platform,
    config: &OptConfig,
    tr: &mut Tracer,
) -> Compiled {
    let (stats, trace) = tr.span("opt.optimize", |_| {
        njc_opt::optimize_module_traced(&mut module, platform, config)
    });
    let census: BTreeMap<String, u64> = trace
        .functions
        .iter()
        .map(|f| (f.function.clone(), f.ledger.explicit_final))
        .collect();
    let lowered = tr.span("codegen.lower", |_| njc_codegen::lower_module(&module));
    let emitted = tr.span("emit.encode", |_| njc_emit::emit_module(&lowered, THREADS));
    let reparsed = tr.span("emit.elf_roundtrip", |_| {
        njc_emit::parse_elf(&njc_emit::write_elf(&emitted))
    });
    let findings = tr.span("emit.verify", |_| {
        let report = njc_emit::verify_module(&emitted, platform, THREADS);
        let mut findings = report.findings.clone();
        findings.extend(njc_emit::check_explicit_census(&report, &census));
        findings
    });
    Compiled {
        module,
        stats,
        minsts: lowered.code_size(),
        emitted,
        reparsed,
        findings,
    }
}

/// Checks the compile's own outputs (ELF round trip, verifier, census)
/// and tallies its counters.
///
/// # Errors
/// The first failed check.
pub fn check(c: &Compiled, tally: &mut Tally) -> Result<(), String> {
    match &c.reparsed {
        Ok(back) if *back == c.emitted => {}
        Ok(_) => return Err("ELF round trip altered the module".into()),
        Err(e) => return Err(format!("ELF does not parse back: {e}")),
    }
    if let Some(f) = c.findings.first() {
        return Err(format!(
            "{} verifier finding(s), first: {f}",
            c.findings.len()
        ));
    }
    let nc = &c.stats.null_checks;
    tally.det("code_bytes", c.emitted.text.len() as u64);
    tally.det("codegen.minsts", c.minsts as u64);
    tally.det("emit.sites", c.emitted.total_sites() as u64);
    tally.det("opt.solver_pops", nc.solver_pops() as u64);
    tally.det(
        "opt.checks_removed",
        (nc.phase1.eliminated + nc.whaley.eliminated) as u64,
    );
    tally.det(
        "opt.checks_implicit",
        (nc.phase2.converted_implicit + nc.trivial.converted) as u64,
    );
    let istats = c.stats.interproc;
    tally.det(
        "interproc.facts",
        (istats.param_facts + istats.return_facts + istats.field_facts) as u64,
    );
    for (pass, d) in &c.stats.timings {
        if let Some(key) = pass_key(pass) {
            tally.vol(key, d.as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

/// The metric a pipeline timing key feeds.
fn pass_key(pass: &str) -> Option<&'static str> {
    Some(match pass {
        "inline" => "opt.pass.inline_ms",
        "nullcheck" => "opt.pass.nullcheck_ms",
        "boundcheck" => "opt.pass.boundcheck_ms",
        "scalar" => "opt.pass.scalar_ms",
        "cleanup" => "opt.pass.cleanup_ms",
        "interproc" => "interproc.infer_ms",
        _ => return None,
    })
}

/// The per-layer metrics both compiling workloads share.
pub fn layer_metrics(m: &Measured<'_>, out: &mut Metrics) {
    let per_op = |v: f64| v / m.ops.max(1) as f64;
    let tr = m.tracer;
    for key in [
        "opt.pass.inline_ms",
        "opt.pass.nullcheck_ms",
        "opt.pass.boundcheck_ms",
        "opt.pass.scalar_ms",
        "opt.pass.cleanup_ms",
        "interproc.infer_ms",
    ] {
        out.insert(key, per_op(m.total.get_vol(key)));
    }
    for key in [
        "opt.solver_pops",
        "opt.checks_removed",
        "opt.checks_implicit",
        "interproc.facts",
        "codegen.minsts",
        "emit.sites",
        "code_bytes",
    ] {
        out.insert(key, m.round.get_det(key) as f64);
    }
    out.insert("opt.optimize_ms", tr.mean_ms("opt.optimize"));
    out.insert("codegen.lower_ms", tr.mean_ms("codegen.lower"));
    out.insert("emit.encode_ms", tr.mean_ms("emit.encode"));
    out.insert("emit.elf_roundtrip_ms", tr.mean_ms("emit.elf_roundtrip"));
    out.insert("emit.verify_ms", tr.mean_ms("emit.verify"));
    let compile = tr.durations_ms("compile");
    out.insert("compile_ms_p50", stats::median(&compile));
    out.insert(
        "compile_ms_p90",
        stats::percentile(&compile, 90.0).unwrap_or(0.0),
    );
}
