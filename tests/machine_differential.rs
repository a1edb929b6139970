//! Differential testing of the machine-code path: every workload is
//! lowered, emitted to real x86-64 bytes, and executed by the byte
//! machine, which must agree with the IR interpreter — the semantic
//! reference — on every observable (result, exception, trace, explicit
//! checks, traps, missed NPEs) for every platform trap model and
//! optimization configuration. The comparison is the difftest harness's
//! own `+bytes` oracle ([`byte_mismatch`]).
//!
//! The site-table tests pin the binary exception-site lookup itself: traps
//! dispatch through `.njc.exctab`, a stripped table turns the first trap
//! into an `UnexpectedTrap` carrying reconcilable provenance, and the AIX
//! negative control silently misses NPEs at the byte level too.
//!
//! The robustness tests corrupt a parsed ELF's text and demand a
//! [`MachineFault::BadCode`], never a panic, and only once execution
//! reaches the corrupted instruction; the fuel tests pin that every
//! executed instruction counts against the budget, and every
//! `MachineStats` counter of the 17 programs on both perfbench
//! `suite_exec` legs is pinned.

use njc_arch::Platform;
use njc_bench::difftest::{byte_mismatch, byte_verdict, ByteVerdict};
use njc_codegen::{lower_module, MValue, MachineFault, MachineOutcome};
use njc_emit::decode::Imm32Reg;
use njc_emit::{
    decode_one, emit_module, parse_elf, verify_module, write_elf, ByteMachine, Dec, EmittedModule,
};
use njc_ir::{FuncBuilder, Inst, Module, Type};
use njc_jit::compile;
use njc_opt::ConfigKind;
use njc_vm::Vm;
use njc_workloads::{micro, Suite, Workload};

fn platforms() -> [Platform; 3] {
    [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ]
}

/// Sound configurations spanning the interesting emission shapes:
/// all-explicit, trivially converted, fully implicit, and (on AIX) the
/// speculative variants.
fn kinds(platform: &Platform) -> Vec<ConfigKind> {
    let mut kinds = vec![
        ConfigKind::NoNullOptNoTrap,
        ConfigKind::OldNullCheck,
        ConfigKind::Full,
    ];
    if !platform.trap.traps_on_read {
        kinds.extend([ConfigKind::AixSpeculation, ConfigKind::AixNoSpeculation]);
    }
    kinds
}

/// Runs `module` on the VM and its emitted bytes `em` on the byte
/// machine, each once. Both runs must complete, and they must agree on
/// every observable [`byte_mismatch`] compares. Returns the byte run.
fn assert_agree(
    what: &str,
    module: &Module,
    em: &EmittedModule,
    platform: &Platform,
) -> MachineOutcome {
    let vm = Vm::new(module, *platform).run("main", &[]);
    let bytes = ByteMachine::new(em, *platform).run("main");
    let name = platform.name;
    if let Some(detail) = byte_mismatch(&vm, &bytes) {
        panic!("{what} on {name}: {detail}");
    }
    if let Err(fault) = &vm {
        panic!("{what} on {name}: VM faulted: {fault}");
    }
    bytes.unwrap_or_else(|fault| panic!("{what} on {name}: bytes faulted: {fault}"))
}

fn emit(module: &Module) -> EmittedModule {
    emit_module(&lower_module(module), 1)
}

/// The null-seeded stress program, optimized under `kind` for `platform`.
fn null_seeded(platform: &Platform, kind: ConfigKind) -> Module {
    let w = Workload {
        name: "null_seeded",
        suite: Suite::Micro,
        module: micro::null_seeded(),
        entry: "main",
        work_units: 1,
    };
    compile(&w, platform, kind).module
}

#[test]
fn machine_matches_interpreter_on_unoptimized_workloads() {
    let p = Platform::windows_ia32();
    for w in njc_workloads::all() {
        assert_agree(w.name, &w.module, &emit(&w.module), &p);
    }
}

#[test]
fn machine_matches_interpreter_on_optimized_workloads() {
    let mut cells = 0usize;
    for platform in platforms() {
        for kind in kinds(&platform) {
            for w in njc_workloads::all() {
                let compiled = compile(&w, &platform, kind);
                let what = format!("{} [{kind:?}]", w.name);
                let mm = lower_module(&compiled.module);
                let em = emit_module(&mm, 4);

                // Emission is deterministic across thread counts.
                assert_eq!(
                    em,
                    emit_module(&mm, 1),
                    "{what} on {}: thread-count-dependent emission",
                    platform.name
                );

                // The ELF container preserves everything.
                let parsed = parse_elf(&write_elf(&em)).expect("elf parses");
                assert_eq!(em, parsed, "{what}: elf round-trip");

                // The binary verifier proves the artifact clean.
                let report = verify_module(&em, &platform, 4);
                assert!(
                    report.findings.is_empty(),
                    "{what} on {}: {:?}",
                    platform.name,
                    report.findings
                );

                assert_agree(&what, &compiled.module, &em, &platform);
                cells += 1;
            }
        }
    }
    assert!(cells >= 150, "expected a real matrix, ran {cells} cells");
}

#[test]
fn machine_traps_dispatch_through_the_site_table() {
    // The null-seeded stress program under Full: its NPEs arrive as real
    // hardware traps resolved by byte-offset lookup.
    let p = Platform::windows_ia32();
    let module = null_seeded(&p, ConfigKind::Full);
    let em = emit(&module);
    let sites: usize = em.functions.iter().map(|f| f.sites.len()).sum();
    assert!(sites > 0, "the optimized code relies on traps");
    let out = assert_agree("null_seeded [Full]", &module, &em, &p);
    assert!(
        out.stats.traps_taken > 0,
        "NPEs must arrive via hardware traps: {:?}",
        out.stats
    );
}

#[test]
fn machine_detects_unsound_code() {
    // Strip the binary exception site tables from correctly optimized
    // code: the first trap must become an UnexpectedTrap machine fault.
    let p = Platform::windows_ia32();
    let mut em = emit(&null_seeded(&p, ConfigKind::Full));
    for f in &mut em.functions {
        f.sites.clear();
    }
    let err = ByteMachine::new(&em, p).run("main").unwrap_err();
    assert!(matches!(err, MachineFault::UnexpectedTrap { .. }), "{err}");
}

#[test]
fn unexpected_trap_carries_reconcilable_provenance() {
    // The enriched fault must identify the escape precisely enough to
    // reconcile it against the intact site table: faulting function, byte
    // offset, access kind, and static offset all name the exact entry that
    // was deleted, and with the rest of the table left in place the
    // nearest surviving site is offered as the provenance lead.
    let p = Platform::windows_ia32();
    let intact = emit(&null_seeded(&p, ConfigKind::Full));

    // First escape: strip every table, so the very first trap escapes.
    let mut stripped = intact.clone();
    for f in &mut stripped.functions {
        f.sites.clear();
    }
    let err = ByteMachine::new(&stripped, p).run("main").unwrap_err();
    let MachineFault::UnexpectedTrap {
        function,
        pc,
        kind,
        offset,
        nearest_site,
    } = err
    else {
        panic!("expected UnexpectedTrap, got {err:?}");
    };
    assert!(
        nearest_site.is_none(),
        "a fully stripped function offers no lead"
    );
    // Reconcile against the intact table: the fault names exactly the
    // entry that was deleted, down to access kind and static offset.
    let fi = intact.function_by_name(&function).expect("known function");
    let site = *intact.functions[fi]
        .sites
        .iter()
        .find(|s| s.byte_off as usize == pc)
        .unwrap_or_else(|| panic!("byte offset {pc} of {function} is not a registered site"));
    assert_eq!(site.kind, kind, "access kind matches the table entry");
    assert_eq!(site.offset, offset, "static offset matches the table entry");
    assert!(
        site.offset.is_some_and(|o| o < p.trap.trap_area_bytes),
        "the escaped access is inside the trap area: {:?}",
        site.offset
    );

    // Second escape: delete only that one entry. The trap still escapes,
    // but now the nearest surviving site is handed over as the lead.
    let mut holed = intact.clone();
    holed.functions[fi]
        .sites
        .retain(|s| s.byte_off != site.byte_off);
    assert!(
        !holed.functions[fi].sites.is_empty(),
        "the function has surviving sites"
    );
    let err = ByteMachine::new(&holed, p).run("main").unwrap_err();
    let MachineFault::UnexpectedTrap {
        pc: pc2,
        nearest_site: Some((lead_off, lead_check)),
        ..
    } = err
    else {
        panic!("expected a led UnexpectedTrap, got {err:?}");
    };
    assert_eq!(pc2, pc, "the same access escapes");
    assert_ne!(lead_off, pc, "the lead is a surviving neighbor");
    let lead = intact.functions[fi]
        .sites
        .iter()
        .find(|s| s.byte_off as usize == lead_off)
        .expect("the lead is a genuine registered site");
    assert_eq!(
        lead.check, lead_check,
        "the lead hands over the surviving entry's IR check"
    );
}

#[test]
fn illegal_implicit_misses_npes_at_machine_level_too() {
    let aix = Platform::aix_ppc();
    let module = null_seeded(&aix, ConfigKind::AixIllegalImplicit);
    let em = emit(&module);
    // The VM misses exactly the same NPEs: the negative control is
    // reproduced byte for byte, not masked.
    let out = assert_agree("null_seeded [AixIllegalImplicit]", &module, &em, &aix);
    assert!(out.stats.missed_npes > 0, "{:?}", out.stats);
}

/// `main` loads element `2^61 + 14` of a null array without a bounds
/// check: the mathematical address overflows, the wrapped one is 128.
fn wrap_around_load() -> Module {
    let mut m = Module::new("wrap");
    let mut b = FuncBuilder::new("main", &[], Type::Int);
    let arr = b.null_ref();
    let index = b.iconst((1i64 << 61) + 14);
    let dst = b.var(Type::Int);
    b.emit(Inst::ArrayLoad {
        dst,
        arr,
        index,
        ty: Type::Int,
        exception_site: false,
    });
    b.ret(Some(dst));
    m.add_function(b.finish());
    m
}

#[test]
fn wrapping_index_is_the_known_vm_binary_gap() {
    // The VM checks indexed addresses for overflow and traps; the emitted
    // `[rax + rcx*8 + 16]` operand wraps modulo 2^64 into page 0. Where
    // page-0 reads trap both sides fault alike. On AIX the bytes read zero
    // silently, and the `+bytes` oracle must name that as the known gap,
    // not pass it as agreement.
    let m = wrap_around_load();
    let em = emit(&m);
    for platform in platforms() {
        let expected = if platform.trap.traps_on_read {
            ByteVerdict::Agree
        } else {
            ByteVerdict::WrapGap
        };
        assert_eq!(
            byte_verdict(&m, &em, &platform),
            expected,
            "{}",
            platform.name
        );
    }
    let aix = ByteMachine::new(&em, Platform::aix_ppc()).run("main");
    assert_eq!(aix.unwrap().result, Some(MValue::Int(0)));
}

fn workload(name: &str) -> Workload {
    njc_workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
}

/// Every instruction of `em`'s function `name`, by linear sweep:
/// `(absolute pc, instruction)`.
fn sweep(em: &EmittedModule, name: &str) -> Vec<(usize, Dec)> {
    let f = &em.functions[em.function_by_name(name).expect("known function")];
    let (mut pc, end) = (f.text_off as usize, (f.text_off + f.text_len) as usize);
    let mut insts = Vec::new();
    while pc < end {
        let (dec, len) = decode_one(&em.text, pc).expect("emitted bytes decode");
        insts.push((pc, dec));
        pc += len;
    }
    insts
}

/// `w`'s unoptimized bytes as a reader of the ELF file sees them.
fn parsed(w: &Workload) -> EmittedModule {
    parse_elf(&write_elf(&emit(&w.module))).expect("elf parses")
}

/// Runs `em`'s `main`, which must stop with a [`MachineFault::BadCode`];
/// returns its detail.
fn bad_code(em: &EmittedModule) -> String {
    let fault = ByteMachine::new(em, Platform::windows_ia32())
        .run("main")
        .expect_err("corrupted bytes must fault");
    let MachineFault::BadCode {
        function, detail, ..
    } = &fault
    else {
        panic!("expected BadCode, got {fault:?}");
    };
    assert!(em.function_by_name(function).is_some(), "{fault}");
    assert!(fault.to_string().starts_with("bad code at"), "{fault}");
    detail.clone()
}

#[test]
fn corrupted_first_byte_is_a_fault_not_a_panic() {
    let w = workload("Numeric Sort");
    let clean = parsed(&w);
    let entry = clean.functions[clean.function_by_name("main").unwrap()].text_off as usize;
    for (byte, expect) in [(0xCC, "padding"), (0x06, "undecodable byte 0x06")] {
        let mut em = clean.clone();
        em.text[entry] = byte;
        let detail = bad_code(&em);
        assert!(detail.contains(expect), "{byte:#04x}: {detail}");
    }
}

#[test]
fn corrupted_operands_are_faults_not_panics() {
    // Each corruption rewrites every instance in `main`, so whichever one
    // executes first must stop the run with a BadCode fault.
    let w = workload("mtrt");
    let clean = parsed(&w);
    let main = sweep(&clean, "main");

    // A call whose target lies past the end of `.text`.
    let mut em = clean.clone();
    let mut calls = 0;
    for &(pc, dec) in &main {
        if let Dec::Call { .. } = dec {
            em.text[pc + 1..pc + 5].copy_from_slice(&i32::MAX.to_le_bytes());
            calls += 1;
        }
    }
    assert!(calls > 0, "mtrt's main calls");
    assert!(bad_code(&em).contains("call outside every function"));

    // A service request with an id the encoder never emits.
    let mut em = clean.clone();
    for &(pc, dec) in &main {
        if let Dec::MovImm32 {
            reg: Imm32Reg::Eax, ..
        } = dec
        {
            em.text[pc + 1..pc + 5].copy_from_slice(&99u32.to_le_bytes());
        }
    }
    assert!(bad_code(&em).contains("unemitted service id 99"));

    // A conditional jump on a condition the encoder never emits (`jbe`).
    let mut em = clean.clone();
    for &(pc, dec) in &main {
        if let Dec::Jcc { .. } = dec {
            em.text[pc + 1] = 0x86;
        }
    }
    assert!(bad_code(&em).contains("unemitted jcc 0x86"));

    // Jumps retargeted to the entry of a function laid out before `main`:
    // running on there would execute another function's code in `main`'s
    // frame, with pc below `main`'s first byte.
    let main_off = clean.functions[clean.function_by_name("main").unwrap()].text_off;
    let target = clean
        .functions
        .iter()
        .map(|f| f.text_off)
        .filter(|&off| off < main_off)
        .min()
        .expect("mtrt lays out a function before main") as i64;
    let mut em = clean.clone();
    for &(pc, dec) in &main {
        let (field, len) = match dec {
            Dec::Jcc { .. } => (pc + 2, 6),
            Dec::Jmp { .. } => (pc + 1, 5),
            _ => continue,
        };
        let rel = i32::try_from(target - (pc + len) as i64).unwrap();
        em.text[field..field + 4].copy_from_slice(&rel.to_le_bytes());
    }
    assert!(bad_code(&em).contains("jump outside the current function"));
}

#[test]
fn corrupted_frame_displacement_is_a_fault_not_unbounded_growth() {
    // The first `lea rbp, [rbp + frame]` before a call in `main` gets a
    // 16 MiB displacement: the callee's frame, and every call's after it
    // (the matching `lea` still pops only `frame`), would sit far past any
    // frame a run within the call-depth limit reaches. The first slot
    // written there must fault instead of growing the slot stack.
    let clean = parsed(&workload("mtrt"));
    let (pc, _) = *sweep(&clean, "main")
        .iter()
        .find(|(_, dec)| matches!(dec, Dec::LeaRbp { disp } if *disp > 0))
        .expect("mtrt's main calls");
    let mut em = clean.clone();
    em.text[pc + 3..pc + 7].copy_from_slice(&0x0100_0000u32.to_le_bytes());
    let detail = bad_code(&em);
    assert!(detail.contains("past the frame-stack ceiling"), "{detail}");
}

/// The 17 programs on the two perfbench `suite_exec` legs, in
/// [`SUITE_LEG_STATS`] order: `(program, platform, bytes)`.
fn suite_legs() -> Vec<(&'static str, Platform, EmittedModule)> {
    let legs = [
        (Platform::windows_ia32(), ConfigKind::Full),
        (Platform::aix_ppc(), ConfigKind::AixSpeculation),
    ];
    let mut out = Vec::new();
    for w in njc_workloads::all() {
        for (platform, kind) in legs {
            out.push((w.name, platform, emit(&compile(&w, &platform, kind).module)));
        }
    }
    out
}

#[test]
fn fuel_counts_every_executed_instruction() {
    // A looping program and a call-heavy one unoptimized, and the 17
    // programs on both `suite_exec` legs: a budget of exactly the
    // instructions a full run retires reproduces that run, one fewer runs
    // out of fuel.
    let p = Platform::windows_ia32();
    let unoptimized = ["Numeric Sort", "mtrt"].map(|name| (name, p, emit(&workload(name).module)));
    for (name, p, em) in unoptimized.into_iter().chain(suite_legs()) {
        let what = format!("{name} on {}", p.name);
        let full = ByteMachine::new(&em, p).run("main").unwrap();
        let n = full.stats.insts;
        assert_eq!(
            ByteMachine::new(&em, p).with_fuel(n).run("main"),
            Ok(full),
            "{what}"
        );
        assert_eq!(
            ByteMachine::new(&em, p).with_fuel(n - 1).run("main"),
            Err(MachineFault::OutOfFuel),
            "{what}"
        );
    }
}

/// `MachineStats` of each of the 17 programs on the two perfbench
/// `suite_exec` legs, as `[insts, explicit_null_checks, traps_taken,
/// missed_npes]`: IA32 under `Full`, then AIX under `Speculation`.
const SUITE_LEG_STATS: [(&str, [[u64; 4]; 2]); 17] = [
    ("Numeric Sort", [[1_158_250, 0, 0, 0], [1_158_253, 1, 0, 0]]),
    ("String Sort", [[400_493, 0, 0, 0], [443_696, 14_401, 0, 0]]),
    ("Bitfield", [[304_379, 0, 0, 0], [304_382, 1, 0, 0]]),
    (
        "FP Emulation",
        [[331_590, 4_500, 0, 0], [331_590, 4_500, 0, 0]],
    ),
    ("Fourier", [[46_570, 0, 0, 0], [61_698, 0, 0, 0]]),
    ("Assignment", [[206_392, 0, 0, 0], [217_285, 3_631, 0, 0]]),
    (
        "IDEA encryption",
        [[469_240, 0, 0, 0], [469_232, 6_408, 0, 0]],
    ),
    (
        "Huffman Compression",
        [[266_982, 0, 0, 0], [266_737, 65, 0, 0]],
    ),
    ("Neural Net", [[196_875, 0, 0, 0], [195_675, 3_000, 0, 0]]),
    (
        "LU Decomposition",
        [[65_196, 0, 0, 0], [63_527, 1_737, 0, 0]],
    ),
    ("mtrt", [[896_755, 1, 0, 0], [929_158, 11_701, 0, 0]]),
    ("jess", [[108_915, 0, 0, 0], [115_995, 2_360, 0, 0]]),
    ("compress", [[390_903, 0, 0, 0], [385_931, 5_662, 0, 0]]),
    ("db", [[946_626, 0, 0, 0], [1_083_881, 46_055, 0, 0]]),
    ("mpegaudio", [[150_498, 0, 0, 0], [150_698, 1_980, 0, 0]]),
    ("jack", [[140_862, 0, 0, 0], [145_407, 1_515, 0, 0]]),
    ("javac", [[208_669, 0, 0, 0], [218_386, 3_239, 0, 0]]),
];

#[test]
fn suite_legs_pin_every_machine_counter() {
    let expected = SUITE_LEG_STATS
        .iter()
        .flat_map(|(name, legs)| legs.map(|stats| (*name, stats)));
    let runs = suite_legs();
    assert_eq!(runs.len(), 2 * SUITE_LEG_STATS.len());
    for ((name, p, em), (expected_name, stats)) in runs.into_iter().zip(expected) {
        assert_eq!(name, expected_name);
        let s = ByteMachine::new(&em, p).run("main").unwrap().stats;
        assert_eq!(
            [
                s.insts,
                s.explicit_null_checks,
                s.traps_taken,
                s.missed_npes
            ],
            stats,
            "{name} on {}",
            p.name
        );
    }
}

#[test]
fn corrupted_bytes_fault_only_when_reached() {
    // `bb1` is unreachable: its code sits after `bb0`'s unconditional
    // jump and never runs.
    let mut m = Module::new("dead_code");
    m.add_function(
        njc_ir::parse_function(
            "func main() -> int {\n  locals v0: int v1: int\nbb0:\n  v0 = const 1\n  v1 = const 2\n  v0 = add.int v0, v1\n  goto bb2\nbb1:\n  v0 = const 3\n  goto bb2\nbb2:\n  return v0\n}",
        )
        .unwrap(),
    );
    let clean = emit(&m);
    let p = Platform::windows_ia32();
    let expected = ByteMachine::new(&clean, p).run("main").unwrap();
    assert_eq!(expected.result, Some(MValue::Int(3)));
    let main = sweep(&clean, "main");
    let jmp = main
        .iter()
        .position(|(_, dec)| matches!(dec, Dec::Jmp { .. } | Dec::Jmp8 { opcode: 0xEB, .. }))
        .expect("bb0 jumps over bb1");
    let mut em = clean.clone();
    em.text[main[jmp + 1].0] = 0x06;
    assert_eq!(ByteMachine::new(&em, p).run("main"), Ok(expected.clone()));

    // A corrupted instruction in the middle of `bb0`'s straight line
    // faults at its own pc once the instructions before it have run, and
    // not before: with fuel for just those, the run runs out of fuel.
    let (pc, _) = main[jmp - 1];
    let mut em = clean.clone();
    em.text[pc] = 0x06;
    assert_eq!(
        ByteMachine::new(&em, p).run("main"),
        Err(MachineFault::BadCode {
            function: "main".to_string(),
            pc,
            detail: format!("undecodable byte 0x06 at offset {pc:#x}"),
        })
    );
    assert_eq!(
        ByteMachine::new(&em, p)
            .with_fuel(jmp as u64 - 1)
            .run("main"),
        Err(MachineFault::OutOfFuel)
    );
}
