//! Recovery pattern-cell harness: executes every [`PatternRule`]
//! instance as a differential cell and drives the deopt round trip.
//!
//! A rule instance's cell is
//!
//! ```text
//! vm(opt(before), policy = rule.strategy)  ≡  vm(opt(after), no policy)
//! ```
//!
//! compared over result, escaping exception, observation trace,
//! exception events, and heap digest — the same observable surface the
//! difftest harness diffs (stats are deliberately excluded: recovery
//! *is* allowed to change cycle and check counts, that is its cost).
//! Cells pin the IA32 model and the Full configuration with inlining
//! off: IA32 is the model where both reads and writes trap (so every
//! rule's marked site exists), and inlining would let the optimizer see
//! the rule's deliberate null probe as a constant and fold the site
//! away, leaving a vacuous cell. A cell that dispatches zero recoveries
//! is reported as vacuous and fails — the corpus must actually exercise
//! the strategies it claims to test.
//!
//! Every cell additionally runs the **strict identity sweep**: the
//! before-program under a uniform `Strict` policy must be observation-
//! identical to the same program with no policy at all, whatever the
//! rule's own strategy is — deopt-and-recheck is a semantic no-op by
//! contract, and this is the direct dynamic check of that contract.
//!
//! The harness also regenerates the committed fixture instances
//! (`tests/fixtures/recover_*.njc`) and refuses drift, and exercises
//! the full binary deopt round trip: emitted x86-64 bytes run to the
//! trapping site, the machine frame is snapshotted, mapped back to
//! interpreter locals ([`njc_recover::frame_locals`]), and resumed at
//! the faulting coordinate ([`njc_recover::find_resume_point`]) with an
//! explicit recheck — the outcome must equal the pure-VM reference run.

use std::path::Path;

use njc_arch::Platform;
use njc_codegen::lower_module;
use njc_emit::{emit_module, ByteMachine, TrapOutcome};
use njc_ir::{ExceptionKind, Module, Type};
use njc_observe::{json_obj, Json};
use njc_opt::{ConfigKind, OptConfig};
use njc_recover::{find_resume_point, frame_locals, rules, PatternRule, RecoveryPolicy};
use njc_vm::{Outcome, Value, Vm};

/// Seeds whose fixture instances are committed under `tests/fixtures/`
/// and drift-checked by the smoke gate.
pub const COMMITTED_SEEDS: [u64; 3] = [0, 1, 2];

/// Loads a pattern-rule source text through the CLI's `.njc` module
/// shape: synthesized classes `C0..C7` with eight int fields each
/// (`field{K}` at byte offset `8 + 8K`), functions split on `func `
/// lines, leading `#` comment lines skipped.
///
/// # Panics
/// Panics when the source does not parse or verify — rule sources are
/// generated text, so a failure here is a bug in the rule, not input.
#[must_use]
pub fn load_pattern_module(name: &str, source: &str) -> Module {
    let mut module = Module::new(name);
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
        let f = njc_ir::parse_function(chunk)
            .unwrap_or_else(|e| panic!("pattern source {name} does not parse: {e}\n{chunk}"));
        module.add_function(f);
    }
    njc_ir::verify_module(&module)
        .unwrap_or_else(|e| panic!("pattern source {name} does not verify: {e:?}"));
    module
}

/// A value collapsed to its allocation-order-stable shape, mirroring the
/// difftest normalization: refs compare null/non-null, floats by bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Nv {
    Int(i64),
    Float(u64),
    Null,
    NonNull,
}

fn norm(v: Value) -> Nv {
    match v {
        Value::Int(i) => Nv::Int(i),
        Value::Float(f) => Nv::Float(f.to_bits()),
        Value::Ref(0) => Nv::Null,
        Value::Ref(_) => Nv::NonNull,
    }
}

/// Compares two outcomes over the recovery-observable surface — result,
/// exception, trace, exception events, heap digest — and reports the
/// first differing component. Stats are excluded by design.
#[must_use]
pub fn observable_mismatch(a: &Outcome, b: &Outcome) -> Option<String> {
    if a.result.map(norm) != b.result.map(norm) {
        return Some(format!("result {:?} vs {:?}", a.result, b.result));
    }
    if a.exception != b.exception {
        return Some(format!("exception {:?} vs {:?}", a.exception, b.exception));
    }
    let (ta, tb): (Vec<Nv>, Vec<Nv>) = (
        a.trace.iter().copied().map(norm).collect(),
        b.trace.iter().copied().map(norm).collect(),
    );
    if ta != tb {
        return Some(format!("trace {ta:?} vs {tb:?}"));
    }
    let ea: Vec<(ExceptionKind, usize)> = a.events.iter().map(|e| (e.kind, e.at_trace)).collect();
    let eb: Vec<(ExceptionKind, usize)> = b.events.iter().map(|e| (e.kind, e.at_trace)).collect();
    if ea != eb {
        return Some(format!("events {ea:?} vs {eb:?}"));
    }
    if a.heap_digest != b.heap_digest {
        return Some(format!(
            "heap digest {:#x} vs {:#x}",
            a.heap_digest, b.heap_digest
        ));
    }
    None
}

/// The cell configuration: Full on IA32 (reads and writes both trap) with
/// inlining disabled so the rules' opaque null probes stay opaque.
fn cell_config(platform: &Platform) -> OptConfig {
    OptConfig {
        inline: false,
        ..ConfigKind::Full.to_config(platform)
    }
}

fn optimized(name: &str, source: &str, platform: &Platform) -> Module {
    let mut m = load_pattern_module(name, source);
    njc_opt::optimize_module(&mut m, platform, &cell_config(platform));
    m
}

/// One executed pattern-rule instance.
#[derive(Clone, Debug)]
pub struct PatternCell {
    /// Rule name.
    pub rule: &'static str,
    /// Strategy label (`strict`, `nullobject`, `skipeffect`).
    pub strategy: &'static str,
    /// Instance seed.
    pub seed: u64,
    /// Recoveries the before-run dispatched (must be ≥ 1).
    pub recovered: u64,
    /// First observable difference between before+policy and after,
    /// or a fault/vacuity description; `None` when the cell passed.
    pub mismatch: Option<String>,
    /// First observable difference under the strict identity sweep.
    pub strict_mismatch: Option<String>,
}

impl PatternCell {
    /// Whether the cell passed both its rule comparison and the strict
    /// identity sweep.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mismatch.is_none() && self.strict_mismatch.is_none()
    }
}

fn run_with(
    module: &Module,
    platform: &Platform,
    policy: Option<&RecoveryPolicy>,
) -> Result<Outcome, String> {
    let vm = Vm::new(module, *platform);
    let vm = match policy {
        Some(p) => vm.with_recovery(p),
        None => vm,
    };
    vm.run("main", &[]).map_err(|f| format!("fault: {f:?}"))
}

/// Executes one rule instance: the rule's differential cell plus the
/// strict identity sweep on the same before-program.
#[must_use]
pub fn run_pattern_cell(rule: &PatternRule, seed: u64) -> PatternCell {
    let platform = Platform::windows_ia32();
    let before = optimized("before", &rule.before_src(seed), &platform);
    let after = optimized("after", &rule.after_src(seed), &platform);
    let policy = RecoveryPolicy::uniform(rule.strategy);
    let mut cell = PatternCell {
        rule: rule.name,
        strategy: rule.strategy.as_str(),
        seed,
        recovered: 0,
        mismatch: None,
        strict_mismatch: None,
    };
    match (
        run_with(&before, &platform, Some(&policy)),
        run_with(&after, &platform, None),
    ) {
        (Ok(b), Ok(a)) => {
            cell.recovered = b.stats.recoveries.total();
            cell.mismatch = observable_mismatch(&b, &a);
            if cell.mismatch.is_none() && cell.recovered == 0 {
                cell.mismatch = Some(
                    "vacuous cell: the before-run dispatched no recovery \
                     (no marked site trapped)"
                        .into(),
                );
            }
        }
        (b, a) => {
            cell.mismatch = Some(format!(
                "cell did not complete: before={:?} after={:?}",
                b.err(),
                a.err()
            ));
        }
    }
    let strict = RecoveryPolicy::uniform(njc_recover::RecoveryStrategy::Strict);
    match (
        run_with(&before, &platform, Some(&strict)),
        run_with(&before, &platform, None),
    ) {
        (Ok(s), Ok(plain)) => {
            cell.strict_mismatch = observable_mismatch(&s, &plain)
                .map(|m| format!("strict policy must be an observational no-op: {m}"));
        }
        (s, plain) => {
            cell.strict_mismatch = Some(format!(
                "strict sweep did not complete: strict={:?} plain={:?}",
                s.err(),
                plain.err()
            ));
        }
    }
    cell
}

/// Runs every rule at every seed in `seeds`.
#[must_use]
pub fn run_patterns(seeds: &[u64]) -> Vec<PatternCell> {
    let mut cells = Vec::new();
    for rule in rules() {
        for &seed in seeds {
            cells.push(run_pattern_cell(rule, seed));
        }
    }
    cells
}

/// Compares the committed fixture instances under `dir` against the
/// regenerated text for every rule × seed; returns one message per
/// missing or drifted fixture (empty = clean).
#[must_use]
pub fn fixture_drift(dir: &Path, seeds: &[u64]) -> Vec<String> {
    let mut drift = Vec::new();
    for rule in rules() {
        for &seed in seeds {
            let path = dir.join(rule.fixture_name(seed));
            let expected = rule.fixture_text(seed);
            match std::fs::read_to_string(&path) {
                Ok(actual) if actual == expected => {}
                Ok(_) => drift.push(format!(
                    "{} drifted from the generator (regenerate with `njc recover --write-fixtures`)",
                    path.display()
                )),
                Err(_) => drift.push(format!("{} missing", path.display())),
            }
        }
    }
    drift
}

/// Regenerates every rule × seed fixture under `dir`, returning how many
/// files were written.
///
/// # Errors
/// Propagates the first I/O error.
pub fn write_fixtures(dir: &Path, seeds: &[u64]) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for rule in rules() {
        for &seed in seeds {
            std::fs::write(dir.join(rule.fixture_name(seed)), rule.fixture_text(seed))?;
            written += 1;
        }
    }
    Ok(written)
}

/// The deopt round-trip probe: `main` dereferences an opaque null under
/// a try region, so the optimized body carries exactly one implicit
/// read site and the binary run traps inside `main` itself (the frame
/// being snapshotted must belong to the resumed function).
fn round_trip_src() -> &'static str {
    "func getnull() -> ref {\n\
       locals v0: ref\n\
     bb0:\n\
       v0 = const null\n\
       return v0\n\
     }\n\n\
     func main() -> int {\n\
       locals v0: ref v1: int v2: int v3: int\n\
       try0: handler bb2 catch npe -> v3\n\
     bb0: [try0]\n\
       v0 = call fn0()\n\
       v1 = const 29\n\
       nullcheck v0\n\
       v2 = getfield v0, field2\n\
       goto bb1\n\
     bb1:\n\
       observe v2\n\
       return v2\n\
     bb2:\n\
       observe v1\n\
       return v1\n\
     }\n"
}

/// Drives the full binary deoptimization round trip and compares the
/// resumed outcome against the pure-VM reference run.
///
/// # Errors
/// Returns a description of the first step that failed; `Ok` carries a
/// human-readable summary of the trip for reports.
pub fn deopt_round_trip() -> Result<String, String> {
    let platform = Platform::windows_ia32();
    let opt = optimized("roundtrip", round_trip_src(), &platform);
    let mm = lower_module(&opt);
    let em = emit_module(&mm, 1);
    let trapped = ByteMachine::new(&em, platform)
        .run_until_site_trap("main")
        .map_err(|f| format!("byte run faulted: {f}"))?;
    let snap = match trapped {
        TrapOutcome::Trapped(s) => s,
        TrapOutcome::Completed(_) => {
            return Err(
                "binary run completed without trapping — the probe's implicit \
                        site was optimized away"
                    .into(),
            )
        }
    };
    let fid = opt
        .function_by_name(&snap.function)
        .ok_or_else(|| format!("snapshot names unknown function {}", snap.function))?;
    let func = &opt.functions()[fid.index()];
    let point = find_resume_point(func, snap.kind, snap.offset, |f| opt.field_offset(f))
        .ok_or_else(|| {
            format!(
                "no unique resume point for slot ({:?}, {:?}) in {}",
                snap.kind, snap.offset, snap.function
            )
        })?;
    let raw = frame_locals(func, &snap.frame);
    let locals: Vec<Value> = raw
        .iter()
        .zip(func.var_types())
        .map(|(&bits, &ty)| Value::from_bits(bits, ty))
        .collect();
    let resumed = Vm::new(&opt, platform)
        .resume(&snap.function, point, locals)
        .map_err(|f| format!("resume faulted: {f:?}"))?;
    let reference = Vm::new(&opt, platform)
        .run("main", &[])
        .map_err(|f| format!("reference run faulted: {f:?}"))?;
    if let Some(m) = observable_mismatch(&resumed, &reference) {
        return Err(format!("resumed outcome diverges from reference: {m}"));
    }
    Ok(format!(
        "trap in {} at byte {:#x} (slot {:?}@{:?}) deoptimized to {:?} inst {} with {} locals; \
         resumed outcome matches the pure-VM reference",
        snap.function,
        snap.byte_off,
        snap.kind,
        snap.offset,
        point.block,
        point.inst,
        raw.len()
    ))
}

/// Aggregate result of a `njc recover` run.
#[derive(Clone, Debug)]
pub struct RecoverReport {
    /// Every executed rule instance.
    pub cells: Vec<PatternCell>,
    /// Fixture drift messages (empty = committed corpus matches).
    pub drift: Vec<String>,
    /// Deopt round-trip summary or failure.
    pub deopt: Result<String, String>,
}

impl RecoverReport {
    /// Runs the whole harness over `seeds`, drift-checking against `dir`.
    #[must_use]
    pub fn run(seeds: &[u64], fixtures_dir: &Path) -> RecoverReport {
        RecoverReport {
            cells: run_patterns(seeds),
            drift: fixture_drift(fixtures_dir, &COMMITTED_SEEDS),
            deopt: deopt_round_trip(),
        }
    }

    /// Whether the run gates CI green.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(PatternCell::ok) && self.drift.is_empty() && self.deopt.is_ok()
    }

    /// Report-form JSON, deterministic: no timing or environment data.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            json_obj! {
                "rule": c.rule, "strategy": c.strategy, "seed": c.seed,
                "recovered": c.recovered, "ok": c.ok(),
            }
            .with_opt("mismatch", c.mismatch.as_ref())
            .with_opt("strict_mismatch", c.strict_mismatch.as_ref())
        });
        let drifted = (!self.drift.is_empty()).then(|| Json::array(&self.drift));
        let report = json_obj! {"cells": Json::array(cells), "drift": self.drift.len()}
            .with_opt("drifted", drifted);
        match &self.deopt {
            Ok(s) => report.with("deopt_round_trip", s),
            Err(e) => report.with("deopt_round_trip_error", e),
        }
        .with("clean", self.is_clean())
        .report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_rule_instance_passes_its_cell() {
        for cell in run_patterns(&COMMITTED_SEEDS) {
            assert!(
                cell.ok(),
                "{} seed {}: mismatch={:?} strict={:?}",
                cell.rule,
                cell.seed,
                cell.mismatch,
                cell.strict_mismatch
            );
            assert!(cell.recovered >= 1, "{} must recover", cell.rule);
        }
    }

    #[test]
    fn deopt_round_trip_matches_reference() {
        let summary = deopt_round_trip().expect("round trip must close");
        assert!(
            summary.contains("matches the pure-VM reference"),
            "{summary}"
        );
    }

    #[test]
    fn drift_check_flags_missing_and_stale_fixtures() {
        let dir = std::env::temp_dir().join("njc-recover-drift-test");
        let _ = std::fs::remove_dir_all(&dir);
        let missing = fixture_drift(&dir, &[0]);
        assert_eq!(missing.len(), rules().len(), "all fixtures missing");
        write_fixtures(&dir, &[0]).unwrap();
        assert!(fixture_drift(&dir, &[0]).is_empty(), "regenerated = clean");
        let stale = dir.join(rules()[0].fixture_name(0));
        std::fs::write(&stale, "# edited by hand\n").unwrap();
        let drift = fixture_drift(&dir, &[0]);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("drifted"), "{:?}", drift[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_json_is_deterministic_and_structured() {
        let dir = std::env::temp_dir().join("njc-recover-json-test");
        let _ = std::fs::remove_dir_all(&dir);
        write_fixtures(&dir, &COMMITTED_SEEDS).unwrap();
        let a = RecoverReport::run(&[0], &dir);
        let b = RecoverReport::run(&[0], &dir);
        assert_eq!(a.to_json(), b.to_json(), "two runs must render identically");
        assert!(a.to_json().contains("\"deopt_round_trip\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
