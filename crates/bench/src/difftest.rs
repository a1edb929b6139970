//! Differential execution and fault-injection harness.
//!
//! Runs every workload and a corpus of generated programs through all
//! optimizer configurations × all platform trap models in the costed VM
//! and diffs the *full observable behavior* ([`Observation`]): return
//! value, exact exception trace (kind and observation-trace position),
//! observation trace, a heap effect digest, and missed NPEs. Every oracle
//! of the crate compares observations, by `==` or, where it reports what
//! moved, through [`Observation::diff`], which agrees with `==`. Two
//! comparison axes:
//!
//! * **same platform** — every sound configuration against the unoptimized
//!   baseline, including the heap digest (dead-code elimination never
//!   removes stores, calls, or allocations, so the final heap is
//!   config-invariant on a fixed platform);
//! * **cross platform** — each configuration's *normalized* behavior
//!   (references collapsed to null/non-null, digests dropped) across the
//!   Windows/IA32, AIX/PPC, and Linux/S390 trap models. The fault-injection
//!   menu ([`njc_workloads::gen::gen_fault_actions`]) only generates raw
//!   accesses that resolve identically on every model under checked address
//!   arithmetic, which is what makes this axis sound; see DESIGN.md §9.
//!
//! The harness injects faults benchmarks never exercise: receivers
//! null-seeded at randomized loop iterations, checked indices near the
//! guard-page boundary, raw loads whose effective address wraps past the
//! guard page, and ill-typed instruction sequences that bypass the
//! verifier. Divergences on generated programs are automatically minimized
//! (greedy shrinking over the generator's action language) and emitted as
//! `.njc` regression fixtures plus a machine-readable `DIFF_report.json`.
//!
//! The expected-unsound `AixIllegalImplicit` configuration is diffed too,
//! but its divergences are *confirmations* of the paper's claim that
//! Illegal Implicit misses NPEs (EXPERIMENTS.md, shape claim 9), not
//! failures.

use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use njc_arch::Platform;
use njc_codegen::{lower_module, MachineFault, MachineOutcome};
use njc_emit::{emit_module, ByteMachine, EmittedModule};
use njc_ir::{FuncBuilder, Module, Observation, Op, Type};
use njc_observe::{json_obj, Json};
use njc_opt::{ConfigKind, OptConfig};
use njc_recover::{RecoveryPolicy, RecoveryStrategy};
use njc_vm::{Fault, Outcome, Value, Vm, VmConfig};
use njc_workloads::gen::{
    action_weight, build_call_module, build_module, gen_call_actions, gen_fault_actions, minimize,
    shrink_candidates, Action, RawIndex, Rng,
};
use njc_workloads::{micro, Suite, Workload};

/// Harness options.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Number of generated fault-injection programs.
    pub seeds: u64,
    /// Smoke mode: a corpus and configuration subset sized for CI gating.
    pub smoke: bool,
    /// Run every cell with the legacy wrapping address arithmetic — the
    /// fault-injection mode that simulates reverting the checked-addressing
    /// fix. A clean tree reports divergences under this flag (that is the
    /// point); it must never be set for the gating run.
    pub legacy_wrapping: bool,
    /// Diff interprocedural-inference configurations too, and run the
    /// dynamic soundness oracle: every program's inferred non-nullness
    /// facts are asserted as explicit checks
    /// ([`njc_interproc::assertion_module`]) and the instrumented run must
    /// be observationally identical to the original — a fact that a run
    /// falsifies becomes a divergence, minimized like any other.
    pub interproc: bool,
    /// Diff value-numbered-analysis configurations too: every null-check
    /// optimizing configuration gains a `+gvn` column
    /// ([`OptConfig::gvn`]), diffed across all trap models like any other
    /// — the dynamic soundness oracle for the congruence classes. A
    /// GVN-only kill that removes a needed check shows up as a divergence
    /// and is minimized like any other.
    pub gvn: bool,
    /// Where to write minimized `.njc` regression fixtures (skipped when
    /// `None`).
    pub fixtures_dir: Option<PathBuf>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            seeds: 48,
            smoke: false,
            legacy_wrapping: false,
            interproc: true,
            gvn: true,
            fixtures_dir: None,
        }
    }
}

/// The observable behavior of one (program, config, platform) cell.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// The VM completed (possibly with an escaping Java exception).
    Ok(Observation<'static>),
    /// The VM rejected the execution with a structured fault; compared by
    /// static label only (diagnostic payloads carry function names and
    /// block ids, which legally differ under inlining and versioning).
    Fault(&'static str),
    /// The VM process panicked — always a harness failure.
    Panicked,
}

/// A structured fault's static label: the one vocabulary both executors'
/// faults map to, so runs compare by fault kind. The two enums share all
/// but one variant each (`IllTyped` for the VM, `BadCode` for the bytes).
pub(crate) fn fault_label(f: &Fault) -> &'static str {
    match f {
        Fault::UnexpectedTrap { .. } => "unexpected-trap",
        Fault::WildAccess { .. } => "wild-access",
        Fault::OutOfFuel => "out-of-fuel",
        Fault::StackOverflow => "stack-overflow",
        Fault::BadDispatch { .. } => "bad-dispatch",
        Fault::NoSuchFunction(_) => "no-such-function",
        Fault::IllTyped { .. } => "ill-typed",
        Fault::HeapExhausted { .. } => "heap-exhausted",
    }
}

/// [`fault_label`] for a byte-machine fault.
fn machine_fault_label(f: &MachineFault) -> &'static str {
    match f {
        MachineFault::UnexpectedTrap { .. } => "unexpected-trap",
        MachineFault::WildAccess { .. } => "wild-access",
        MachineFault::OutOfFuel => "out-of-fuel",
        MachineFault::StackOverflow => "stack-overflow",
        MachineFault::BadDispatch { .. } => "bad-dispatch",
        MachineFault::NoSuchFunction(_) => "no-such-function",
        MachineFault::BadCode { .. } => "bad-code",
        MachineFault::HeapExhausted { .. } => "heap-exhausted",
    }
}

impl Verdict {
    /// The cross-platform form: every non-null reference collapsed to one
    /// stand-in address (heap bases differ between trap models, so
    /// addresses do too), and the platform-specific fields (heap digest,
    /// missed-NPE count) dropped.
    fn normalized(&self) -> Verdict {
        /// The stand-in for "some non-null reference": no allocation can
        /// sit at address 1.
        fn collapse(v: Value) -> Value {
            match v {
                Value::Ref(a) if a != 0 => Value::Ref(1),
                v => v,
            }
        }
        match self {
            Verdict::Ok(o) => Verdict::Ok(Observation {
                result: o.result.map(collapse),
                trace: o.trace.iter().copied().map(collapse).collect(),
                heap_digest: 0,
                missed_npes: 0,
                ..o.clone()
            }),
            other => other.clone(),
        }
    }

    /// The first difference from `other`: the first channel
    /// [`Observation::diff`] finds, or the two verdicts' shapes.
    fn mismatch(&self, other: &Verdict) -> Option<String> {
        let shape = |v: &Verdict| match v {
            Verdict::Ok(_) => "ok".to_string(),
            Verdict::Fault(label) => format!("fault:{label}"),
            Verdict::Panicked => "PANICKED".into(),
        };
        match (self, other) {
            (Verdict::Ok(a), Verdict::Ok(b)) => a.mismatch(b),
            (a, b) => (a != b).then(|| format!("{} vs {}", shape(a), shape(b))),
        }
    }
}

/// One detected behavioral difference.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Program name (workload, probe, or `seed-N`).
    pub program: String,
    /// Configuration label (`baseline` for the unoptimized run).
    pub config: String,
    /// Left cell label (`platform/config`).
    pub left: String,
    /// Right cell label.
    pub right: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Minimized action list (generated programs only).
    pub minimized: Option<String>,
    /// Path of the emitted `.njc` fixture, if one was written.
    pub fixture: Option<PathBuf>,
    /// The traced optimizer's explanation of every null check of `main`
    /// under the diverging configuration — which checks were hoisted,
    /// converted to traps, removed, or substituted, and why. `None` for
    /// baseline (unoptimized) and vm-only cells.
    pub provenance: Option<String>,
}

/// One *expected* behavioral difference under a non-strict recovery
/// policy: `NullObject` and `SkipEffect` deliberately change what a
/// null-exercising program does (that is their point), so the harness
/// records *which* observable moved instead of failing.
#[derive(Clone, Debug)]
pub struct RecoveryObservation {
    /// Program name.
    pub program: String,
    /// Cell label, `<Kind>@<platform>`.
    pub config: String,
    /// Strategy label (`nullobject` or `skipeffect`).
    pub strategy: &'static str,
    /// Which observables differed from the policy-free cell, `+`-joined
    /// (`exception-suppressed`, `result`, `trace`, `events`,
    /// `heap-digest`, `missed-npes`, or `fault-shape`).
    pub class: String,
    /// Minimized action list (generated programs only).
    pub minimized: Option<String>,
    /// Path of the emitted `.njc` fixture, if one was written.
    pub fixture: Option<PathBuf>,
}

/// Aggregate result of a harness run.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Programs diffed.
    pub programs: usize,
    /// (program, config, platform) cells executed.
    pub cells: usize,
    /// Detected divergences (empty on a healthy tree without fault
    /// injection enabled).
    pub divergences: Vec<Divergence>,
    /// Expected divergences under `AixIllegalImplicit` — reproductions of
    /// the paper's "Illegal Implicit misses NPEs" claim.
    pub claim9_confirmations: usize,
    /// Cells that ended in a structured `ill-typed` fault (the hardened
    /// interpreter surviving hostile operands).
    pub ill_typed_cells: usize,
    /// Cells whose VM panicked — always a failure.
    pub panicked_cells: usize,
    /// Byte-level cells: sound optimized modules emitted to real x86-64
    /// bytes and executed by the byte interpreter against the VM run of
    /// the same optimized module.
    pub byte_cells: usize,
    /// Byte cells whose only difference from the VM is the known
    /// wrapping-address gap ([`ByteVerdict::WrapGap`]). Recorded, never
    /// gates CI red.
    pub byte_wrap_gaps: usize,
    /// Recovery-policy cells: sound optimized cells rerun under uniform
    /// `Strict`/`NullObject`/`SkipEffect` policies.
    pub recovery_cells: usize,
    /// Expected, classified differences under the non-strict policies.
    /// Never gates CI red — `Strict` divergences land in
    /// [`DiffReport::divergences`] instead, because those are real bugs.
    pub recovery_observations: Vec<RecoveryObservation>,
}

impl DiffReport {
    /// Whether the run gates CI green.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.panicked_cells == 0
    }

    /// The report form of `DIFF_report.json`.
    pub fn to_json(&self) -> String {
        let path = |f: &Option<PathBuf>| f.as_ref().map(|f| f.display().to_string());
        let observations = self.recovery_observations.iter().map(|o| {
            json_obj! {
                "program": &o.program, "config": &o.config, "strategy": o.strategy,
                "class": &o.class,
            }
            .with_opt("minimized", o.minimized.as_ref())
            .with_opt("fixture", path(&o.fixture))
        });
        let divergences = self.divergences.iter().map(|d| {
            json_obj! {
                "program": &d.program, "config": &d.config, "left": &d.left,
                "right": &d.right, "detail": &d.detail,
            }
            .with_opt("minimized", d.minimized.as_ref())
            .with_opt("fixture", path(&d.fixture))
            .with_opt("provenance", d.provenance.as_ref())
        });
        json_obj! {
            "programs": self.programs, "cells": self.cells,
            "claim9_confirmations": self.claim9_confirmations,
            "ill_typed_cells": self.ill_typed_cells, "panicked_cells": self.panicked_cells,
            "byte_cells": self.byte_cells, "byte_wrap_gaps": self.byte_wrap_gaps,
            "recovery_cells": self.recovery_cells,
            "recovery_observations": Json::array(observations),
            "divergences": Json::array(divergences),
        }
        .report()
    }
}

/// The three platform trap models the harness diffs across.
fn platforms() -> [Platform; 3] {
    [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ]
}

/// Sound configurations to diff (subset in smoke mode).
fn sound_kinds(smoke: bool) -> Vec<ConfigKind> {
    if smoke {
        vec![
            ConfigKind::NoNullOptNoTrap,
            ConfigKind::OldNullCheck,
            ConfigKind::Full,
            ConfigKind::AixSpeculation,
        ]
    } else {
        vec![
            ConfigKind::NoNullOptNoTrap,
            ConfigKind::NoNullOptTrap,
            ConfigKind::OldNullCheck,
            ConfigKind::Phase1Only,
            ConfigKind::Full,
            ConfigKind::RefJit,
            ConfigKind::AixSpeculation,
            ConfigKind::AixNoSpeculation,
            ConfigKind::AixNoNullOpt,
        ]
    }
}

/// Configurations additionally diffed with the interprocedural inference
/// enabled (subset in smoke mode). Their cells are labeled
/// `<Kind>+interproc` and must agree with the same-platform baseline like
/// any sound configuration.
fn interproc_kinds(smoke: bool) -> Vec<ConfigKind> {
    if smoke {
        vec![ConfigKind::Full]
    } else {
        vec![ConfigKind::Full, ConfigKind::Phase1Only]
    }
}

/// Configurations additionally diffed with the value-numbered forward
/// non-nullness enabled ([`OptConfig::gvn`], subset in smoke mode). Their
/// cells are labeled `<Kind>+gvn`; every congruence-class-justified kill
/// runs under all trap models here, which is the dynamic soundness oracle
/// for the value numbering.
fn gvn_kinds(smoke: bool) -> Vec<ConfigKind> {
    if smoke {
        vec![ConfigKind::Full]
    } else {
        vec![
            ConfigKind::Full,
            ConfigKind::Phase1Only,
            ConfigKind::OldNullCheck,
        ]
    }
}

/// One corpus entry.
struct Program {
    name: String,
    module: Module,
    /// The generator actions, when the program came from the action
    /// language (enables minimization and fixture emission).
    actions: Option<Vec<Action>>,
    /// How to lower `actions` back into a module during minimization —
    /// the call-heavy corpus needs [`build_call_module`]'s helpers.
    build: fn(&[Action]) -> Module,
    /// Run through the VM only, skipping the optimizer: the ill-typed
    /// probes are deliberately unverifiable IR, and feeding them to the
    /// optimizer would test nothing the VM hardening is responsible for.
    vm_only: bool,
}

impl Program {
    fn named(name: impl Into<String>, module: Module) -> Self {
        Program {
            name: name.into(),
            module,
            actions: None,
            build: build_module,
            vm_only: false,
        }
    }

    fn from_actions(name: impl Into<String>, actions: Vec<Action>) -> Self {
        Program {
            name: name.into(),
            module: build_module(&actions),
            actions: Some(actions),
            build: build_module,
            vm_only: false,
        }
    }

    fn from_call_actions(name: impl Into<String>, actions: Vec<Action>) -> Self {
        Program {
            name: name.into(),
            module: build_call_module(&actions),
            actions: Some(actions),
            build: build_call_module,
            vm_only: false,
        }
    }
}

/// A module whose `main` runs an ill-typed binop over references — IR the
/// verifier rejects, which is exactly why the VM must degrade to a
/// structured fault instead of a panic when fed it unverified.
fn ill_typed_binop_probe() -> Module {
    let mut m = Module::new("ill_typed_binop");
    let mut b = FuncBuilder::new("main", &[], Type::Int);
    let r = b.null_ref();
    let bogus = b.binop(Op::Add, r, r);
    b.observe(bogus);
    let z = b.iconst(0);
    b.ret(Some(z));
    m.add_function(b.finish());
    m
}

/// Same idea for `convert` over a reference.
fn ill_typed_convert_probe() -> Module {
    let mut m = Module::new("ill_typed_convert");
    let mut b = FuncBuilder::new("main", &[], Type::Int);
    let r = b.null_ref();
    let bogus = b.convert(r, Type::Int);
    b.observe(bogus);
    b.ret(Some(bogus));
    m.add_function(b.finish());
    m
}

fn build_corpus(opts: &DiffOptions) -> Vec<Program> {
    let mut corpus = Vec::new();
    if opts.smoke {
        // One representative of each macro suite plus every micro.
        let mut ws = njc_workloads::jbytemark();
        ws.truncate(1);
        let mut sp = njc_workloads::specjvm98();
        sp.truncate(1);
        for w in ws.into_iter().chain(sp) {
            corpus.push(Program::named(w.name, w.module));
        }
    } else {
        for w in njc_workloads::all() {
            corpus.push(Program::named(w.name, w.module));
        }
    }
    for (name, module) in micro::all_micro() {
        corpus.push(Program::named(name, module));
    }
    // Deterministic probes for the fault classes the generator also draws.
    corpus.push(Program::from_actions(
        "probe_guard_wrap",
        vec![Action::RawLoad(RawIndex::GuardWrap)],
    ));
    corpus.push(Program::from_actions(
        "probe_near_boundary",
        vec![Action::RawLoad(RawIndex::NearBoundary(0))],
    ));
    corpus.push(Program::from_actions(
        "probe_null_seeded_loop",
        vec![Action::NullSeededLoop(4, 2, vec![Action::Observe(0)])],
    ));
    corpus.push(Program::from_actions(
        "probe_huge_index",
        vec![Action::HugeIndexChecked(5), Action::HugeIndexChecked(6)],
    ));
    corpus.push(Program {
        name: "probe_ill_typed_binop".into(),
        module: ill_typed_binop_probe(),
        actions: None,
        build: build_module,
        vm_only: true,
    });
    corpus.push(Program {
        name: "probe_ill_typed_convert".into(),
        module: ill_typed_convert_probe(),
        actions: None,
        build: build_module,
        vm_only: true,
    });
    let seeds = if opts.smoke {
        opts.seeds.min(12)
    } else {
        opts.seeds
    };
    for seed in 0..seeds {
        let mut rng = Rng::new(seed);
        let len = rng.range(1, 14);
        let actions = gen_fault_actions(&mut rng, len, 2);
        corpus.push(Program::from_actions(format!("seed-{seed}"), actions));
    }
    // Call-heavy programs: deep chains, non-null-returning helpers, and
    // constructor-initialized fields give the interprocedural inference
    // real facts whose soundness the oracle then tests dynamically.
    if opts.interproc {
        let call_seeds = if opts.smoke {
            8
        } else {
            opts.seeds.div_ceil(2)
        };
        for seed in 0..call_seeds {
            let mut rng = Rng::new(seed ^ 0xca11);
            let len = rng.range(1, 10);
            let actions = gen_call_actions(&mut rng, len, 2);
            corpus.push(Program::from_call_actions(format!("call-{seed}"), actions));
        }
    }
    corpus
}

fn vm_config(opts: &DiffOptions) -> VmConfig {
    VmConfig {
        legacy_wrapping_addressing: opts.legacy_wrapping,
        ..VmConfig::default()
    }
}

/// Runs one cell, converting panics and faults into a [`Verdict`]. A
/// `policy` attaches a trap-recovery policy to the VM (the recovery
/// columns); `None` is the ordinary abort-on-trap execution.
fn run_cell(
    module: &Module,
    platform: &Platform,
    cfg: VmConfig,
    policy: Option<&RecoveryPolicy>,
) -> Verdict {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let vm = Vm::new(module, *platform).with_config(cfg);
        let vm = match policy {
            Some(p) => vm.with_recovery(p),
            None => vm,
        };
        vm.run("main", &[])
    }));
    match outcome {
        Err(_) => Verdict::Panicked,
        Ok(Err(fault)) => Verdict::Fault(fault_label(&fault)),
        Ok(Ok(out)) => Verdict::Ok(Observation::from(&out).into_owned()),
    }
}

/// Per-program diff outcome, before minimization.
#[derive(Default)]
struct ProgramDiff {
    cells: usize,
    divergences: Vec<(String, String, String, String)>, // config, left, right, detail
    claim9: usize,
    ill_typed: usize,
    panicked: usize,
    byte_cells: usize,
    byte_wrap_gaps: usize,
    recovery_cells: usize,
    observations: Vec<RawObservation>,
}

/// A pre-report recovery observation: enough coordinates to re-run (and
/// therefore minimize) the exact diverging cell.
struct RawObservation {
    kind: ConfigKind,
    platform: usize,
    strategy: RecoveryStrategy,
    class: String,
}

/// Classifies which observables a recovery-policy run moved relative to
/// the policy-free cell, `+`-joined in [`Observation::diff`]'s order; an
/// exception the policy swallowed reads `exception-suppressed`.
fn verdict_delta(base: &Verdict, v: &Verdict) -> String {
    match (base, v) {
        (Verdict::Ok(b), Verdict::Ok(o)) => {
            let names: Vec<&str> = b
                .diff(o)
                .into_iter()
                .map(|(channel, _)| match channel {
                    "exception" if o.exception.is_none() => "exception-suppressed",
                    other => other,
                })
                .collect();
            names.join("+")
        }
        _ => "fault-shape".into(),
    }
}

/// The first observable difference between a VM run and a byte-machine
/// run of the same optimized module: any channel of their
/// [`Observation`]s (result, escaped exception, observation trace,
/// exception events, heap digest, missed NPEs), then explicit checks and
/// traps taken; faults compare by [`fault_label`]. This is the comparison
/// behind the `+bytes` column ([`byte_verdict`]): it catches encoder bugs
/// (wrong displacement, dropped site entry, mis-dispatched trap) that the
/// IR-level axes cannot see. `None` when the two agree.
pub fn byte_mismatch(
    vm: &Result<Outcome, Fault>,
    bytes: &Result<MachineOutcome, MachineFault>,
) -> Option<String> {
    let (v, b) = match (vm, bytes) {
        (Ok(v), Ok(b)) => (v, b),
        (Err(vf), Err(bf)) => {
            return (fault_label(vf) != machine_fault_label(bf))
                .then(|| format!("fault {vf} vs {bf}"));
        }
        (Ok(_), Err(bf)) => return Some(format!("VM completed, bytes faulted: {bf}")),
        (Err(vf), Ok(_)) => return Some(format!("VM faulted ({vf}), bytes completed")),
    };
    if let Some(d) = Observation::from(v).mismatch(&Observation::from(b)) {
        return Some(d);
    }
    let counters = [
        (
            "explicit checks",
            v.stats.explicit_null_checks,
            b.stats.explicit_null_checks,
        ),
        ("traps", v.stats.traps_taken, b.stats.traps_taken),
    ];
    counters
        .iter()
        .find(|(_, x, y)| x != y)
        .map(|(what, x, y)| format!("{what} {x} vs {y}"))
}

/// How a `+bytes` cell came out.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ByteVerdict {
    /// The bytes agree with the VM on every observable.
    Agree,
    /// The known gap between the VM and the binary: the bytes disagree
    /// with the VM but agree with the VM's wrapping address arithmetic
    /// (`VmConfig::legacy_wrapping_addressing`). The VM forms indexed
    /// addresses with overflow checks; the emitted `[base + index*8 + 16]`
    /// operand wraps modulo 2^64, so a null base with an index near 2^61
    /// lands in page 0, which AIX reads silently where the VM traps.
    WrapGap,
    /// A real divergence: the first observable that differs from the VM.
    Diverged(String),
}

/// The `+bytes` oracle: runs `main` of the optimized `module` on the VM
/// and of its emitted bytes `em` on the byte machine, and classifies the
/// pair with [`byte_mismatch`]. A mismatch that the VM's wrapping address
/// arithmetic reproduces exactly is the known [`ByteVerdict::WrapGap`];
/// any other mismatch is [`ByteVerdict::Diverged`].
pub fn byte_verdict(module: &Module, em: &EmittedModule, platform: &Platform) -> ByteVerdict {
    let bytes = ByteMachine::new(em, *platform).run("main");
    let vm = Vm::new(module, *platform).run("main", &[]);
    let Some(detail) = byte_mismatch(&vm, &bytes) else {
        return ByteVerdict::Agree;
    };
    let wrapping = VmConfig {
        legacy_wrapping_addressing: true,
        ..VmConfig::default()
    };
    let wrapped = Vm::new(module, *platform)
        .with_config(wrapping)
        .run("main", &[]);
    match byte_mismatch(&wrapped, &bytes) {
        None => ByteVerdict::WrapGap,
        Some(_) => ByteVerdict::Diverged(detail),
    }
}

fn diff_program(
    module: &Module,
    vm_only: bool,
    kinds: &[ConfigKind],
    opts: &DiffOptions,
) -> ProgramDiff {
    let cfg = vm_config(opts);
    let mut out = ProgramDiff::default();
    let plats = platforms();
    let ikinds = if opts.interproc && !vm_only {
        interproc_kinds(opts.smoke)
    } else {
        Vec::new()
    };
    let gkinds = if opts.gvn && !vm_only {
        gvn_kinds(opts.smoke)
    } else {
        Vec::new()
    };
    // verdicts[p][0] = baseline; verdicts[p][1 + k] = kinds[k]; then one
    // column per interproc-enabled configuration, then one per
    // gvn-enabled configuration.
    let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
    // compiled[p][k]: `module` optimized for platform `p` under `kinds[k]`,
    // shared by the row cell, the `+bytes` column and the recovery columns.
    let mut compiled: Vec<Vec<Module>> = Vec::new();
    for platform in &plats {
        let mut row = Vec::new();
        row.push(run_cell(module, platform, cfg, None));
        let mut modules = Vec::new();
        if !vm_only {
            for kind in kinds {
                let w = Workload {
                    name: "difftest",
                    suite: Suite::Micro,
                    module: module.clone(),
                    entry: "main",
                    work_units: 1,
                };
                let m = njc_jit::compile(&w, platform, *kind).module;
                row.push(run_cell(&m, platform, cfg, None));
                modules.push(m);
            }
            for kind in &ikinds {
                let w = Workload {
                    name: "difftest",
                    suite: Suite::Micro,
                    module: module.clone(),
                    entry: "main",
                    work_units: 1,
                };
                let config = OptConfig {
                    interproc: true,
                    ..kind.to_config(platform)
                };
                let compiled = njc_jit::compile_config(&w, platform, *kind, &config);
                row.push(run_cell(&compiled.module, platform, cfg, None));
            }
            for kind in &gkinds {
                let w = Workload {
                    name: "difftest",
                    suite: Suite::Micro,
                    module: module.clone(),
                    entry: "main",
                    work_units: 1,
                };
                let config = OptConfig {
                    gvn: true,
                    ..kind.to_config(platform)
                };
                let compiled = njc_jit::compile_config(&w, platform, *kind, &config);
                row.push(run_cell(&compiled.module, platform, cfg, None));
            }
        }
        verdicts.push(row);
        compiled.push(modules);
    }
    let config_label = |c: usize| -> String {
        if c == 0 {
            "baseline".into()
        } else if c <= kinds.len() {
            format!("{:?}", kinds[c - 1])
        } else if c <= kinds.len() + ikinds.len() {
            format!("{:?}+interproc", ikinds[c - 1 - kinds.len()])
        } else {
            format!("{:?}+gvn", gkinds[c - 1 - kinds.len() - ikinds.len()])
        }
    };
    for (p, row) in verdicts.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            out.cells += 1;
            if matches!(v, Verdict::Fault("ill-typed")) {
                out.ill_typed += 1;
            }
            if matches!(v, Verdict::Panicked) {
                out.panicked += 1;
                out.divergences.push((
                    config_label(c),
                    format!("{}/{}", plats[p].name, config_label(c)),
                    String::new(),
                    "VM panicked (hardening regression)".into(),
                ));
            }
        }
    }
    // Same-platform: every config against its platform's baseline.
    for (p, row) in verdicts.iter().enumerate() {
        let base = &row[0];
        for (c, v) in row.iter().enumerate().skip(1) {
            if matches!(v, Verdict::Panicked) || matches!(base, Verdict::Panicked) {
                continue; // already reported above
            }
            if let Some(d) = base.mismatch(v) {
                out.divergences.push((
                    config_label(c),
                    format!("{}/baseline", plats[p].name),
                    format!("{}/{}", plats[p].name, config_label(c)),
                    format!("baseline vs optimized: {d}"),
                ));
            } else if let Verdict::Ok(Observation { missed_npes, .. }) = v {
                if *missed_npes != 0 {
                    out.divergences.push((
                        config_label(c),
                        format!("{}/{}", plats[p].name, config_label(c)),
                        String::new(),
                        format!("sound config silently missed {missed_npes} NPEs"),
                    ));
                }
            }
        }
    }
    // Cross-platform: each config row normalized, all platforms against
    // the first.
    for c in 0..verdicts[0].len() {
        let lead = verdicts[0][c].normalized();
        for (p, row) in verdicts.iter().enumerate().skip(1) {
            let v = row[c].normalized();
            if matches!(v, Verdict::Panicked) || matches!(lead, Verdict::Panicked) {
                continue;
            }
            if let Some(d) = lead.mismatch(&v) {
                out.divergences.push((
                    config_label(c),
                    format!("{}/{}", plats[0].name, config_label(c)),
                    format!("{}/{}", plats[p].name, config_label(c)),
                    d,
                ));
            }
        }
    }
    // Byte column: every sound optimized cell is lowered to the linear
    // ISA, emitted to real x86-64 bytes, and executed instruction-by-
    // instruction by the byte interpreter; its observable behavior must
    // match the VM's run of the same optimized module ([`byte_verdict`]).
    // The VM runs with its default checked addressing here, whatever
    // `--legacy-addressing` says for the other columns; the known
    // wrapping-address gap is counted, not gated.
    if !vm_only {
        for (platform, modules) in plats.iter().zip(&compiled) {
            for (kind, m) in kinds.iter().zip(modules) {
                let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let em = emit_module(&lower_module(m), 1);
                    byte_verdict(m, &em, platform)
                }));
                out.cells += 1;
                out.byte_cells += 1;
                let label = format!("{kind:?}+bytes");
                match ran {
                    Err(_) => {
                        out.panicked += 1;
                        out.divergences.push((
                            label.clone(),
                            format!("{}/{}", platform.name, label),
                            String::new(),
                            "VM, emitter or byte interpreter panicked".into(),
                        ));
                    }
                    Ok(ByteVerdict::Diverged(detail)) => {
                        out.divergences.push((
                            label.clone(),
                            format!("{}/{kind:?}", platform.name),
                            format!("{}/{}", platform.name, label),
                            detail,
                        ));
                    }
                    Ok(ByteVerdict::WrapGap) => out.byte_wrap_gaps += 1,
                    Ok(ByteVerdict::Agree) => {}
                }
            }
        }
    }

    // Recovery columns: every sound optimized cell is rerun under a
    // uniform per-strategy trap-recovery policy. `Strict` must be
    // observation-identical to the policy-free cell on every config ×
    // platform — deopt-and-recheck is a semantic no-op by contract, and
    // a difference here is a real divergence that gates red. The
    // behavior-changing strategies (`NullObject`, `SkipEffect`) are
    // *expected* to differ on null-exercising programs; their deltas are
    // classified by which observable moved and recorded as non-failing
    // observations, later minimized like divergences.
    if !vm_only {
        for (p, platform) in plats.iter().enumerate() {
            for (k, kind) in kinds.iter().enumerate() {
                let base = verdicts[p][1 + k].clone();
                if matches!(base, Verdict::Panicked) {
                    continue; // already reported above
                }
                for strategy in [
                    RecoveryStrategy::Strict,
                    RecoveryStrategy::NullObject,
                    RecoveryStrategy::SkipEffect,
                ] {
                    let policy = RecoveryPolicy::uniform(strategy);
                    let v = run_cell(&compiled[p][k], platform, cfg, Some(&policy));
                    out.cells += 1;
                    out.recovery_cells += 1;
                    let label = format!("{kind:?}+recover:{strategy}");
                    if matches!(v, Verdict::Panicked) {
                        out.panicked += 1;
                        out.divergences.push((
                            label.clone(),
                            format!("{}/{label}", plats[p].name),
                            String::new(),
                            "VM panicked under a recovery policy".into(),
                        ));
                        continue;
                    }
                    if strategy == RecoveryStrategy::Strict {
                        if let Some(d) = base.mismatch(&v) {
                            out.divergences.push((
                                label.clone(),
                                format!("{}/{kind:?}", plats[p].name),
                                format!("{}/{label}", plats[p].name),
                                format!("strict recovery must be observationally invisible: {d}"),
                            ));
                        }
                    } else if v != base {
                        out.observations.push(RawObservation {
                            kind: *kind,
                            platform: p,
                            strategy,
                            class: verdict_delta(&base, &v),
                        });
                    }
                }
            }
        }
    }

    // The expected-unsound configuration, on the AIX model only: a
    // divergence from the AIX baseline (or any silently missed NPE) is a
    // reproduction of the paper's §5.4 claim, not a failure.
    if !vm_only {
        let aix = Platform::aix_ppc();
        let w = Workload {
            name: "difftest",
            suite: Suite::Micro,
            module: module.clone(),
            entry: "main",
            work_units: 1,
        };
        let compiled = njc_jit::compile(&w, &aix, ConfigKind::AixIllegalImplicit);
        let v = run_cell(&compiled.module, &aix, cfg, None);
        out.cells += 1;
        match &v {
            Verdict::Panicked => {
                out.panicked += 1;
                out.divergences.push((
                    "AixIllegalImplicit".into(),
                    format!("{}/AixIllegalImplicit", aix.name),
                    String::new(),
                    "VM panicked (hardening regression)".into(),
                ));
            }
            Verdict::Ok(Observation { missed_npes, .. }) => {
                let base = &verdicts[1][0];
                if v != *base || *missed_npes > 0 {
                    out.claim9 += 1;
                }
            }
            Verdict::Fault(_) => {
                let base = &verdicts[1][0];
                if v != *base {
                    out.claim9 += 1;
                }
            }
        }
    }
    // Dynamic soundness oracle for the interprocedural inference: every
    // fact the fixpoint claims (non-null parameter, return, field) is
    // asserted as an explicit null check, and the instrumented module is
    // replayed on every platform. The checks are semantically transparent
    // iff the facts hold, so any observable difference from the baseline —
    // an extra NullPointerException, a shifted trace — is a falsified fact.
    if !vm_only && opts.interproc {
        let asm = njc_interproc::infer(module);
        if !asm.is_empty() {
            let checked = njc_interproc::assertion_module(module, &asm);
            for (p, platform) in plats.iter().enumerate() {
                let v = run_cell(&checked, platform, cfg, None);
                out.cells += 1;
                let base = &verdicts[p][0];
                if matches!(v, Verdict::Panicked) {
                    out.panicked += 1;
                    out.divergences.push((
                        "interproc-oracle".into(),
                        format!("{}/interproc-oracle", platform.name),
                        String::new(),
                        "VM panicked running the fact-assertion module".into(),
                    ));
                } else if matches!(base, Verdict::Panicked) {
                    continue; // already reported above
                } else if let Some(d) = base.mismatch(&v) {
                    out.divergences.push((
                        "interproc-oracle".into(),
                        format!("{}/baseline", platform.name),
                        format!("{}/interproc-oracle", platform.name),
                        format!(
                            "inferred non-nullness fact falsified dynamically: \
                             baseline vs fact-asserting run: {d}"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Re-optimizes a diverging program under its configuration with tracing on
/// and renders the `main` function's check life stories, so the divergence
/// report says which checks were hoisted, converted, removed, or
/// substituted — and under which rule — in the run that went wrong.
/// `optimize_module` is deterministic, so the re-run reproduces exactly the
/// module the diverging cell executed.
fn divergence_provenance(module: &Module, config: &str, cell: &str) -> Option<String> {
    let config = config.strip_suffix("+bytes").unwrap_or(config);
    let (config, interproc) = match config.strip_suffix("+interproc") {
        Some(base) => (base, true),
        None => (config, false),
    };
    let (config, gvn) = match config.strip_suffix("+gvn") {
        Some(base) => (base, true),
        None => (config, false),
    };
    let kind = match config {
        "NoNullOptNoTrap" => ConfigKind::NoNullOptNoTrap,
        "NoNullOptTrap" => ConfigKind::NoNullOptTrap,
        "OldNullCheck" => ConfigKind::OldNullCheck,
        "Phase1Only" => ConfigKind::Phase1Only,
        "Full" => ConfigKind::Full,
        "RefJit" => ConfigKind::RefJit,
        "AixSpeculation" => ConfigKind::AixSpeculation,
        "AixNoSpeculation" => ConfigKind::AixNoSpeculation,
        "AixNoNullOpt" => ConfigKind::AixNoNullOpt,
        "AixIllegalImplicit" => ConfigKind::AixIllegalImplicit,
        _ => return None, // baseline cells never ran the optimizer
    };
    let platform = if cell.starts_with("ppc-aix") {
        Platform::aix_ppc()
    } else if cell.starts_with("s390-linux") {
        Platform::linux_s390()
    } else {
        Platform::windows_ia32()
    };
    let mut m = module.clone();
    let config = OptConfig {
        interproc,
        gvn,
        ..kind.to_config(&platform)
    };
    let (_, trace) = njc_opt::optimize_module_traced(&mut m, &platform, &config);
    trace.function("main").map(|f| f.explain(None))
}

/// Prints the module in the CLI's `.njc` textual form (classes are
/// synthesized by the loader, so only functions are written).
fn fixture_text(name: &str, actions: &[Action], module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# minimized difftest regression: {name}");
    let _ = writeln!(out, "# actions: {actions:?}");
    for f in module.functions() {
        let _ = writeln!(out, "{f}");
    }
    out
}

/// Runs the full harness.
pub fn run_difftest(opts: &DiffOptions) -> DiffReport {
    let kinds = sound_kinds(opts.smoke);
    let corpus = build_corpus(opts);
    let mut report = DiffReport {
        programs: corpus.len(),
        ..DiffReport::default()
    };
    for prog in &corpus {
        let d = diff_program(&prog.module, prog.vm_only, &kinds, opts);
        report.cells += d.cells;
        report.claim9_confirmations += d.claim9;
        report.ill_typed_cells += d.ill_typed;
        report.panicked_cells += d.panicked;
        report.byte_cells += d.byte_cells;
        report.byte_wrap_gaps += d.byte_wrap_gaps;
        report.recovery_cells += d.recovery_cells;
        // Expected recovery deltas: minimize the first observation per
        // strategy for action-language programs (the divergence class may
        // legally narrow while shrinking — the predicate only demands
        // *some* policy-visible difference survives) and emit a
        // replayable fixture alongside the real-divergence ones.
        let mut minimized_strategies = std::collections::BTreeSet::new();
        for obs in &d.observations {
            let config = format!("{:?}@{}", obs.kind, platforms()[obs.platform].name);
            let (minimized, fixture) = match &prog.actions {
                Some(actions) if minimized_strategies.insert(obs.strategy) => {
                    let small =
                        minimize(actions.clone(), action_weight, shrink_candidates, |cand| {
                            recovery_observation_survives(&(prog.build)(cand), obs, opts)
                        });
                    let text = fixture_text(&prog.name, &small, &(prog.build)(&small));
                    let path = opts.fixtures_dir.as_ref().map(|dir| {
                        let path = dir.join(format!(
                            "{}_recover_{}.njc",
                            prog.name.replace(' ', "_"),
                            obs.strategy
                        ));
                        let _ = std::fs::create_dir_all(dir);
                        let _ = std::fs::write(&path, &text);
                        path
                    });
                    (Some(format!("{small:?}")), path)
                }
                _ => (None, None),
            };
            report.recovery_observations.push(RecoveryObservation {
                program: prog.name.clone(),
                config,
                strategy: obs.strategy.as_str(),
                class: obs.class.clone(),
                minimized,
                fixture,
            });
        }
        if d.divergences.is_empty() {
            continue;
        }
        // Minimize action-language programs before reporting; the
        // predicate is "any divergence or panic survives".
        let (minimized, fixture) = match &prog.actions {
            Some(actions) => {
                let small = minimize(actions.clone(), action_weight, shrink_candidates, |cand| {
                    let m = (prog.build)(cand);
                    let dd = diff_program(&m, false, &kinds, opts);
                    !dd.divergences.is_empty() || dd.panicked > 0
                });
                let text = fixture_text(&prog.name, &small, &(prog.build)(&small));
                let path = opts.fixtures_dir.as_ref().map(|dir| {
                    let path = dir.join(format!("{}.njc", prog.name.replace(' ', "_")));
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(&path, &text);
                    path
                });
                (Some(format!("{small:?}")), path)
            }
            None => (None, None),
        };
        for (config, left, right, detail) in d.divergences {
            let provenance = if prog.vm_only {
                None
            } else {
                let cell = if right.is_empty() { &left } else { &right };
                divergence_provenance(&prog.module, &config, cell)
            };
            report.divergences.push(Divergence {
                program: prog.name.clone(),
                config,
                left,
                right,
                detail,
                minimized: minimized.clone(),
                fixture: fixture.clone(),
                provenance,
            });
        }
    }
    report
}

/// Whether `module` still shows *some* policy-visible difference at the
/// observation's exact (config, platform, strategy) coordinates — the
/// minimization predicate for recovery observations.
fn recovery_observation_survives(
    module: &Module,
    obs: &RawObservation,
    opts: &DiffOptions,
) -> bool {
    let platform = platforms()[obs.platform];
    let cfg = vm_config(opts);
    let w = Workload {
        name: "difftest",
        suite: Suite::Micro,
        module: module.clone(),
        entry: "main",
        work_units: 1,
    };
    let compiled = njc_jit::compile(&w, &platform, obs.kind);
    let base = run_cell(&compiled.module, &platform, cfg, None);
    if matches!(base, Verdict::Panicked) {
        return false;
    }
    let policy = RecoveryPolicy::uniform(obs.strategy);
    let v = run_cell(&compiled.module, &platform, cfg, Some(&policy));
    !matches!(v, Verdict::Panicked) && v != base
}

/// Writes `DIFF_report.json` to `path`.
///
/// # Errors
/// Propagates the I/O error when the file cannot be written.
pub fn write_report(report: &DiffReport, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> DiffOptions {
        DiffOptions {
            seeds: 2,
            smoke: true,
            ..DiffOptions::default()
        }
    }

    #[test]
    fn probes_are_cross_platform_consistent() {
        let opts = quick_opts();
        let kinds = sound_kinds(true);
        for (name, actions) in [
            ("guard_wrap", vec![Action::RawLoad(RawIndex::GuardWrap)]),
            (
                "near_boundary",
                vec![Action::RawLoad(RawIndex::NearBoundary(0))],
            ),
            (
                "null_seeded",
                vec![Action::NullSeededLoop(4, 2, vec![Action::Observe(0)])],
            ),
        ] {
            let m = build_module(&actions);
            let d = diff_program(&m, false, &kinds, &opts);
            assert!(
                d.divergences.is_empty(),
                "{name}: {:?}",
                d.divergences.first()
            );
            assert_eq!(d.panicked, 0, "{name}");
        }
    }

    #[test]
    fn guard_wrap_probe_diverges_under_legacy_addressing() {
        // The revert detector: with the checked-addressing fix disabled,
        // the wrapped address lands inside the guard page, where AIX
        // silently reads zero while Windows and S/390 trap.
        let opts = DiffOptions {
            legacy_wrapping: true,
            ..quick_opts()
        };
        let kinds = sound_kinds(true);
        let m = build_module(&[Action::RawLoad(RawIndex::GuardWrap)]);
        let d = diff_program(&m, false, &kinds, &opts);
        assert!(
            !d.divergences.is_empty(),
            "legacy wrapping must be detected"
        );
        let (_, left, right, _) = &d.divergences[0];
        assert!(
            left.contains('/') && right.contains('/'),
            "cross-platform cells named: {left} vs {right}"
        );
    }

    #[test]
    fn ill_typed_probes_survive_as_structured_faults() {
        let opts = quick_opts();
        for m in [ill_typed_binop_probe(), ill_typed_convert_probe()] {
            let d = diff_program(&m, true, &[], &opts);
            assert_eq!(d.panicked, 0, "hardened VM must not panic");
            assert_eq!(d.ill_typed, 3, "one structured fault per platform");
            assert!(d.divergences.is_empty(), "{:?}", d.divergences.first());
        }
    }

    #[test]
    fn call_corpus_with_interproc_is_clean() {
        // Call-heavy programs exercise the inference's parameter, return,
        // and field facts; both the `+interproc` optimizer cells and the
        // fact-assertion oracle must agree with the baseline everywhere.
        let opts = quick_opts();
        let kinds = sound_kinds(true);
        for seed in 0..4u64 {
            let mut rng = Rng::new(seed ^ 0xca11);
            let len = rng.range(1, 10);
            let actions = gen_call_actions(&mut rng, len, 2);
            let m = build_call_module(&actions);
            let d = diff_program(&m, false, &kinds, &opts);
            assert!(
                d.divergences.is_empty(),
                "call seed {seed}: {:?}",
                d.divergences.first()
            );
            assert_eq!(d.panicked, 0, "call seed {seed}");
        }
    }

    #[test]
    fn oracle_catches_a_planted_false_fact() {
        use njc_core::ctx::{EntryAssumptions, FnFacts};
        // `main` passes null as `work`'s second parameter, so a parameter
        // fact on it is a lie; the assertion module must observably diverge
        // (an extra NPE), which is exactly the signal the oracle reports.
        let m = build_module(&[Action::Observe(0)]);
        let mut asm = EntryAssumptions::new();
        asm.set_function(
            "work",
            FnFacts {
                nonnull_params: vec![1],
                nonnull_return: false,
                call_sites: 1,
            },
        );
        let checked = njc_interproc::assertion_module(&m, &asm);
        let cfg = vm_config(&quick_opts());
        let p = Platform::windows_ia32();
        let base = run_cell(&m, &p, cfg, None);
        let v = run_cell(&checked, &p, cfg, None);
        assert_ne!(v, base, "a false fact must be observable");
        // And the honest inference never claims that fact, so the real
        // oracle path stays clean on the same program.
        let honest = njc_interproc::infer(&m);
        assert!(honest
            .function("work")
            .is_none_or(|f| !f.nonnull_params.contains(&1)));
    }

    #[test]
    fn oracle_catches_a_planted_false_congruence() {
        use njc_ir::{FuncBuilder, Inst, Type};
        // A store between two loads of `p.g` breaks their congruence and
        // the stored value is null, so the re-load's check is live. An
        // unsound value numbering that ignored the memory epoch would
        // kill that check anyway; plant exactly that kill by deleting
        // the check from the honestly-optimized module and assert every
        // platform cell observably diverges — the signal a difftest run
        // would minimize. (tests/gvn.rs pins the other side: the honest
        // epoch keeps the check.)
        let mut m = Module::new("false-congruence");
        let d = m.add_class("D", &[("x", Type::Int)]);
        let c = m.add_class("C", &[("g", Type::Ref)]);
        let g = m.field(c, "g").unwrap();
        let x = m.field(d, "x").unwrap();
        let helper = {
            let mut b = FuncBuilder::new("helper", &[Type::Ref], Type::Int);
            let p = b.param(0);
            let v1 = b.get_field_typed(p, g, Type::Ref);
            let a = b.get_field(v1, x);
            let nul = b.null_ref();
            b.put_field(p, g, nul); // epoch bump, and the re-load IS null
            let v3 = b.get_field_typed(p, g, Type::Ref);
            let bv = b.get_field(v3, x); // must throw NPE
            let s = b.add(a, bv);
            b.ret(Some(s));
            m.add_function(b.finish())
        };
        {
            let mut b = FuncBuilder::new("main", &[], Type::Int);
            let inner = b.new_object(d);
            let k = b.iconst(5);
            b.put_field(inner, x, k);
            let o = b.new_object(c);
            b.put_field(o, g, inner);
            let r = b.call_static(helper, &[o], Some(Type::Int)).unwrap();
            b.observe(r);
            b.ret(Some(r));
            m.add_function(b.finish());
        }

        for platform in [
            Platform::windows_ia32(),
            Platform::aix_ppc(),
            Platform::linux_s390(),
        ] {
            let cfg = vm_config(&quick_opts());
            let base = run_cell(&m, &platform, cfg, None);
            let mut opt = m.clone();
            // Phase 2 off: over-marking would otherwise absorb the
            // planted kill (the unguarded access still traps to the same
            // NPE at a marked site) — checks must keep a cost for their
            // absence to be observable, the §13/§15 measurement doctrine.
            njc_opt::optimize_module(
                &mut opt,
                &platform,
                &OptConfig {
                    gvn: true,
                    inline: false,
                    phase2: false,
                    trivial_trap: false,
                    iterations: 1,
                    ..ConfigKind::Full.to_config(&platform)
                },
            );
            // The honest analysis keeps the check: no divergence.
            assert_eq!(
                run_cell(&opt, &platform, cfg, None),
                base,
                "honest +gvn cell must match on {}",
                platform.name
            );
            // The planted kill: delete the re-load's check outright. (The
            // pipeline's store-to-load forwarding may have renamed the
            // reload, so target the function's last surviving check — the
            // one guarding the second dereference.)
            let mut planted = opt.clone();
            let fid = planted.function_by_name("helper").unwrap();
            let f = planted.function_mut(fid);
            let (bi, ii) = (0..f.blocks().len())
                .flat_map(|bi| {
                    let insts = &f.blocks()[bi].insts;
                    (0..insts.len()).map(move |ii| (bi, ii))
                })
                .rfind(|&(bi, ii)| matches!(f.blocks()[bi].insts[ii], Inst::NullCheck { .. }))
                .expect("an explicit check must survive the honest analysis");
            f.insts_mut(njc_ir::BlockId::new(bi)).remove(ii);
            assert_ne!(
                run_cell(&planted, &platform, cfg, None),
                base,
                "a falsely-killed check must be observable on {}",
                platform.name
            );
        }
    }

    #[test]
    fn strict_recovery_column_is_invisible_and_nonstrict_deltas_classify() {
        // The null-seeded probe traps under the implicit configs, so the
        // behavior-changing strategies must produce classified
        // observations — while the strict column stays silent (any strict
        // divergence would have landed in `divergences`, failing the
        // cross-platform probe test above).
        let opts = quick_opts();
        let kinds = sound_kinds(true);
        let m = build_module(&[Action::NullSeededLoop(4, 2, vec![Action::Observe(0)])]);
        let d = diff_program(&m, false, &kinds, &opts);
        assert!(d.divergences.is_empty(), "{:?}", d.divergences.first());
        assert!(d.recovery_cells > 0, "recovery columns must run");
        assert!(
            !d.observations.is_empty(),
            "suppressing the seeded NPE must be observable"
        );
        for obs in &d.observations {
            assert_ne!(obs.strategy, RecoveryStrategy::Strict);
            assert!(!obs.class.is_empty(), "every observation is classified");
        }
        assert!(
            d.observations.iter().any(|o| o.class.contains("exception")
                || o.class.contains("trace")
                || o.class.contains("result")),
            "classes: {:?}",
            d.observations.iter().map(|o| &o.class).collect::<Vec<_>>()
        );
    }

    #[test]
    fn recovery_observations_minimize_and_render() {
        let fixtures = std::env::temp_dir().join("njc-recover-obs-fixtures");
        let _ = std::fs::remove_dir_all(&fixtures);
        let opts = DiffOptions {
            seeds: 0,
            fixtures_dir: Some(fixtures.clone()),
            ..quick_opts()
        };
        let report = run_difftest(&opts);
        assert!(report.is_clean(), "{:?}", report.divergences.first());
        assert!(
            !report.recovery_observations.is_empty(),
            "the null-seeded probe must observe under non-strict policies"
        );
        let minimized: Vec<_> = report
            .recovery_observations
            .iter()
            .filter(|o| o.minimized.is_some())
            .collect();
        assert!(!minimized.is_empty(), "action programs must minimize");
        let with_fixture = minimized.iter().find(|o| o.fixture.is_some()).unwrap();
        let text = std::fs::read_to_string(with_fixture.fixture.as_ref().unwrap()).unwrap();
        assert!(text.contains("func "), "fixture is replayable IR");
        let json = report.to_json();
        assert!(json.contains("\"recovery_cells\""), "{json}");
        assert!(json.contains("\"recovery_observations\""), "{json}");
        let _ = std::fs::remove_dir_all(&fixtures);
    }

    #[test]
    fn report_json_shape() {
        let mut r = DiffReport::default();
        r.divergences.push(Divergence {
            program: "p".into(),
            config: "Full".into(),
            left: "l".into(),
            right: "r".into(),
            detail: "d \"quoted\"".into(),
            minimized: None,
            fixture: None,
            provenance: Some("check #0:\n  - origin".into()),
        });
        let json = r.to_json();
        assert!(json.contains("\"divergences\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"provenance\""), "{json}");
    }

    #[test]
    fn divergence_provenance_explains_optimized_checks() {
        let m = build_module(&[Action::NullSeededLoop(4, 2, vec![Action::Observe(0)])]);
        let p =
            divergence_provenance(&m, "Full", "ia32-winnt/Full").expect("main must have a trace");
        assert!(p.contains("function main"), "{p}");
        assert!(p.contains("ledger:"), "{p}");
        assert!(p.contains("balanced"), "{p}");
        assert!(
            divergence_provenance(&m, "baseline", "ia32-winnt/baseline").is_none(),
            "baseline cells have no optimizer provenance"
        );
    }
}
