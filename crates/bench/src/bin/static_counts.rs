//! Static null check census: how many checks exist in the compiled code,
//! and in what form, per workload × configuration — the static view behind
//! the paper's "eliminates many null checks effectively and exploits the
//! maximum use of hardware traps" (§1). The `viol` column is the static
//! validator's verdict (njc-analysis): violations of the coverage proof
//! under the platform's real trap model, without executing anything.
//!
//! ```text
//! cargo run --release -p njc-bench --bin static_counts
//! ```

use njc_analysis::validate_module;
use njc_arch::Platform;
use njc_core::phase1::count_checks;
use njc_core::phase2::{count_exception_sites, count_explicit};
use njc_jit::compile;
use njc_opt::{ConfigKind, OptConfig};
use njc_workloads::gen::{build_call_module, gen_call_actions, Rng};

fn main() {
    let p = Platform::windows_ia32();
    println!(
        "{:22} {:>8} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5}",
        "", "original", "Full", "", "", "Old", "", "", "NoOpt", "", ""
    );
    println!(
        "{:22} {:>8} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5}",
        "workload",
        "checks",
        "explicit",
        "sites",
        "viol",
        "explicit",
        "sites",
        "viol",
        "explicit",
        "sites",
        "viol"
    );
    let line = "-".repeat(104);
    println!("{line}");
    let mut tot = [0usize; 10];
    let mut solver_pops = 0usize;
    let mut solver_iters = 0usize;
    for w in njc_workloads::all() {
        let original: usize = w.module.functions().iter().map(count_checks).sum();
        let mut row = vec![original];
        for kind in [
            ConfigKind::Full,
            ConfigKind::OldNullCheck,
            ConfigKind::NoNullOptNoTrap,
        ] {
            let c = compile(&w, &p, kind);
            let explicit: usize = c.module.functions().iter().map(count_explicit).sum();
            let sites: usize = c.module.functions().iter().map(count_exception_sites).sum();
            solver_pops += c.stats.null_checks.solver_pops();
            solver_iters += c.stats.null_checks.solver_iterations();
            row.push(explicit);
            row.push(sites);
            row.push(validate_module(&c.module, p.trap).violations.len());
        }
        println!(
            "{:22} {:>8} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5}",
            w.name, row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7], row[8], row[9]
        );
        for (t, v) in tot.iter_mut().zip(&row) {
            *t += v;
        }
    }
    println!("{line}");
    println!(
        "{:22} {:>8} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5} | {:>8} {:>6} {:>5}",
        "TOTAL", tot[0], tot[1], tot[2], tot[3], tot[4], tot[5], tot[6], tot[7], tot[8], tot[9]
    );
    println!(
        "\n`explicit` = compare-and-trap instructions left in the code;\n\
         `sites` = accesses marked as hardware-trap exception sites (zero-cost checks);\n\
         `viol` = static validator findings (must be 0 for a sound configuration).\n\
         The two-phase algorithm maximizes trap coverage; the few explicit checks it\n\
         leaves sit on paths with no object access (the Figure 7 situation), off the\n\
         hot loops — the dynamic counts in the tables are what the paper optimizes."
    );
    println!(
        "\nSolver cost across the three configurations above: {solver_pops} worklist \
         pops, {solver_iters} convergence iterations\n\
         (see perfbench's `opt.pass.*_ms` metrics for per-pass host time)."
    );

    // Interprocedural inference census: Full vs Full+interproc. Kills are
    // counted from provenance (phase 1 eliminations justified by an
    // interprocedural fact) — the final IR cannot show them, because
    // phase 2 marks every guaranteed-trapping access as an exception site
    // whether or not a check obligation reached it.
    println!(
        "\nInterprocedural inference (Full vs Full+interproc, {}):",
        p.name
    );
    println!(
        "{:22} {:>6} {:>10} {:>10} {:>8}",
        "program", "facts", "ph1-elim", "ph1-elim+", "killed"
    );
    let mut programs: Vec<(String, njc_ir::Module)> = njc_workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    for seed in 0..4u64 {
        let mut rng = Rng::new(seed ^ 0xca11);
        let len = rng.range(1, 10);
        programs.push((
            format!("call-{seed}"),
            build_call_module(&gen_call_actions(&mut rng, len, 2)),
        ));
    }
    let mut itot = [0usize; 4];
    for (name, module) in &programs {
        let base = ConfigKind::Full.to_config(&p);
        let mut prepared = module.clone();
        njc_opt::prepare_module(&mut prepared, &p, &base);
        let asm = njc_interproc::infer(&prepared);
        let facts: usize = asm.num_param_facts() + asm.num_return_facts() + asm.num_field_facts();
        let mut off = module.clone();
        let s_off = njc_opt::optimize_module(&mut off, &p, &base);
        let mut on = module.clone();
        let (s_on, trace) = njc_opt::optimize_module_traced(
            &mut on,
            &p,
            &OptConfig {
                interproc: true,
                gvn: false,
                ..base
            },
        );
        let killed = trace
            .functions
            .iter()
            .flat_map(|ft| &ft.events)
            .filter(|e| {
                matches!(
                    e,
                    njc_observe::CheckEvent::Phase1Eliminated {
                        why: njc_observe::Redundancy::Interproc(_),
                        ..
                    }
                )
            })
            .count();
        let row = [
            facts,
            s_off.null_checks.phase1.eliminated,
            s_on.null_checks.phase1.eliminated,
            killed,
        ];
        println!(
            "{:22} {:>6} {:>10} {:>10} {:>8}",
            name, row[0], row[1], row[2], row[3]
        );
        for (t, v) in itot.iter_mut().zip(&row) {
            *t += v;
        }
    }
    println!(
        "{:22} {:>6} {:>10} {:>10} {:>8}",
        "TOTAL", itot[0], itot[1], itot[2], itot[3]
    );
    println!(
        "`facts` = inferred non-null params + returns + always-initialized fields;\n\
         `ph1-elim`/`ph1-elim+` = phase 1 eliminations without/with the inference;\n\
         `killed` = eliminations provenance attributes to an interprocedural fact."
    );

    // Value-numbered non-nullness census: Full vs Full+gvn. Like the
    // interprocedural table, the kills only show up in provenance — a
    // congruence-class-justified elimination leaves the same final IR as
    // a trap-converted check.
    println!(
        "\nValue-numbered non-nullness (Full vs Full+gvn, {}):",
        p.name
    );
    println!(
        "{:22} {:>10} {:>10} {:>8}",
        "program", "ph1-elim", "ph1-elim+", "killed"
    );
    let mut gprograms: Vec<(String, njc_ir::Module)> = njc_workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    for (name, m) in njc_workloads::micro::all_micro() {
        gprograms.push((name.to_string(), m));
    }
    let mut gtot = [0usize; 3];
    for (name, module) in &gprograms {
        let base = ConfigKind::Full.to_config(&p);
        let mut off = module.clone();
        let s_off = njc_opt::optimize_module(&mut off, &p, &base);
        let mut on = module.clone();
        let (s_on, trace) =
            njc_opt::optimize_module_traced(&mut on, &p, &OptConfig { gvn: true, ..base });
        let killed = trace
            .functions
            .iter()
            .flat_map(|ft| &ft.events)
            .filter(|e| {
                matches!(
                    e,
                    njc_observe::CheckEvent::Phase1Eliminated {
                        why: njc_observe::Redundancy::Gvn { .. },
                        ..
                    }
                )
            })
            .count();
        let row = [
            s_off.null_checks.phase1.eliminated,
            s_on.null_checks.phase1.eliminated,
            killed,
        ];
        if row[2] > 0 {
            println!("{:22} {:>10} {:>10} {:>8}", name, row[0], row[1], row[2]);
        }
        for (t, v) in gtot.iter_mut().zip(&row) {
            *t += v;
        }
    }
    println!(
        "{:22} {:>10} {:>10} {:>8}   (programs with no kill elided)",
        "TOTAL", gtot[0], gtot[1], gtot[2]
    );
    println!(
        "`killed` = phase 1 eliminations provenance attributes to a value-number\n\
         congruence class (a copy, merged name, or re-loaded field the legacy\n\
         variable-indexed analysis loses)."
    );

    // The negative control: the §5.4 "Illegal Implicit" configuration
    // applies the Intel phase 2 on AIX, where guard-page reads do not
    // trap. The validator must catch this *statically* — same verdict the
    // VM reaches dynamically via its missed-NPE counter.
    let aix = Platform::aix_ppc();
    println!("\nIllegal Implicit on {} (negative control):", aix.name);
    let mut flagged = 0usize;
    for w in njc_workloads::all() {
        let c = compile(&w, &aix, ConfigKind::AixIllegalImplicit);
        let report = validate_module(&c.module, aix.trap);
        let missed = report.count(njc_analysis::ViolationKind::MissedException);
        if !report.is_sound() {
            flagged += 1;
        }
        println!(
            "  {:22} {:>3} violation(s), {:>3} missed-exception",
            w.name,
            report.violations.len(),
            missed
        );
    }
    println!(
        "  -> {flagged} workload(s) statically flagged as able to miss a \
         NullPointerException"
    );
}
