//! The VM's accounting, pinned on the adaptive runtime's programs: every
//! `RunStats` counter, the heap digest, the exception events and the site
//! counters of their tier-0 and final-module runs, and the profile a run
//! has published when it runs out of fuel part-way.
//!
//! The interpreter pays each straight-line segment's fuel, cycles and
//! counts when the segment starts, refunds what an early exit skips, and
//! steps op by op where the fuel left does not cover a segment. These
//! pins hold that to exactly the numbers an op-by-op interpreter produced.

use njc_arch::Platform;
use njc_ir::Module;
use njc_opt::OptConfig;
use njc_runtime::{
    deep_chain_workload, hot_field_workload, many_hot_workload, phase_shift_workload,
    write_hot_workload, RuntimeConfig, TieredRuntime, PHASE_ALTERNATE, PHASE_CLEAN, PHASE_NULL,
};
use njc_vm::{Fault, Outcome, RuntimeHooks, Value, Vm, VmConfig};

/// The adaptive programs the `tiered_hot` benchmark times, at its
/// iteration counts: name, platform, module and entry arguments.
fn programs() -> Vec<(&'static str, Platform, Module, Vec<Value>)> {
    let ia32 = Platform::windows_ia32();
    let aix = Platform::aix_ppc();
    let args = |iters: i64, mode: Option<i64>| {
        let mut a = vec![Value::Int(iters), Value::Ref(0)];
        a.extend(mode.map(Value::Int));
        a
    };
    vec![
        ("hot_field", ia32, hot_field_workload(), args(10_000, None)),
        (
            "phase_null",
            ia32,
            phase_shift_workload(16),
            args(12_000, Some(PHASE_NULL)),
        ),
        (
            "phase_alternate",
            ia32,
            phase_shift_workload(16),
            args(8_000, Some(PHASE_ALTERNATE)),
        ),
        (
            "phase_clean",
            ia32,
            phase_shift_workload(16),
            args(8_000, Some(PHASE_CLEAN)),
        ),
        ("many_hot6", ia32, many_hot_workload(6), args(4_000, None)),
        (
            "deep_chain4",
            ia32,
            deep_chain_workload(4),
            args(4_000, None),
        ),
        ("write_hot", aix, write_hot_workload(), args(20_000, None)),
        (
            "hot_field_aix",
            aix,
            hot_field_workload(),
            args(10_000, None),
        ),
    ]
}

/// `module` compiled as the runtime's tier 0.
fn tier0(module: &Module, p: &Platform) -> Module {
    let rt = RuntimeConfig::for_platform(p);
    let mut m = module.clone();
    let config = OptConfig {
        threads: 1,
        ..rt.tier0.to_config(p)
    };
    njc_opt::optimize_module(&mut m, p, &config);
    m
}

/// FNV-1a of a rendering: a stable digest of the site counters and
/// profile snapshots, whose maps render in key order.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `RunStats` counter in declaration order (recoveries as their
/// total), then the heap digest and the number of exception events.
fn pin(out: &Outcome) -> [u64; 17] {
    let s = &out.stats;
    [
        s.cycles,
        s.insts,
        s.explicit_null_checks,
        s.implicit_site_hits,
        s.traps_taken,
        s.missed_npes,
        s.silent_null_reads,
        s.loads,
        s.stores,
        s.calls,
        s.allocations,
        s.branches,
        s.bound_checks,
        s.exceptions_thrown,
        s.recoveries.total(),
        out.heap_digest,
        out.events.len() as u64,
    ]
}

const COUNTED: VmConfig = VmConfig {
    max_insts: 200_000_000,
    max_depth: 256,
    legacy_wrapping_addressing: false,
    count_sites: true,
};

/// Tier 0 with site counters (the pin, then the counters' digest), and
/// the final module, per program in [`programs`] order.
#[rustfmt::skip]
const TIERED_PINS: &[([u64; 17], u64, [u64; 17])] = &[
    // hot_field
    ([13790085, 260018, 0, 20000, 10000, 0, 0, 50000, 5, 10000, 1, 30002, 0, 20000, 0, 0x3d6ef691a89b570, 10000],
     0x231afee96cb9c685,
     [2980085, 260018, 10000, 40005, 0, 0, 0, 40000, 5, 10000, 1, 30002, 0, 20000, 0, 0x3d6ef691a89b570, 10000]),
    // phase_null
    ([757660, 338988, 0, 24000, 16, 0, 0, 48000, 5, 12000, 1, 49503, 0, 32, 0, 0x3ac7eda0ad5f10c0, 16],
     0xa09e8eb502136b97,
     [757660, 338988, 0, 48005, 16, 0, 0, 48000, 5, 12000, 1, 49503, 0, 32, 0, 0x3ac7eda0ad5f10c0, 16]),
    // phase_alternate
    ([5759088, 218020, 0, 16000, 4000, 0, 0, 32000, 5, 8000, 1, 33003, 0, 8000, 0, 0x3ac7eda0ad5f10c0, 4000],
     0x24ee2c212c1623c1,
     [1443088, 222020, 8000, 24005, 0, 0, 0, 28000, 5, 8000, 1, 33003, 0, 8000, 0, 0x3ac7eda0ad5f10c0, 4000]),
    // phase_clean
    ([491088, 226020, 0, 16000, 0, 0, 0, 32000, 5, 8000, 1, 33003, 0, 0, 0, 0x3ac7eda0ad5f10c0, 0],
     0x6c23fafbe37b2f58,
     [491088, 226020, 0, 32005, 0, 0, 0, 32000, 5, 8000, 1, 33003, 0, 0, 0, 0x3ac7eda0ad5f10c0, 0]),
    // many_hot6
    ([16956081, 580014, 0, 48000, 12000, 0, 0, 96000, 5, 24000, 1, 32002, 0, 24000, 0, 0x3ac7eda0ad5f10c0, 12000],
     0xcff938cb380ae52a,
     [3984081, 580014, 12000, 84005, 0, 0, 0, 84000, 5, 24000, 1, 32002, 0, 24000, 0, 0x3ac7eda0ad5f10c0, 12000]),
    // deep_chain4
    ([5908081, 300014, 0, 20000, 4000, 0, 0, 52000, 5, 16000, 1, 12002, 0, 20000, 0, 0x3ac7eda0ad5f10c0, 4000],
     0x9ea5b1375e40661d,
     [1584081, 300014, 4000, 48005, 0, 0, 0, 48000, 5, 16000, 1, 12002, 0, 20000, 0, 0x3ac7eda0ad5f10c0, 4000]),
    // write_hot
    ([34020085, 560018, 20000, 20000, 20000, 0, 0, 60000, 20005, 20000, 1, 60002, 0, 40000, 0, 0x3d6ef691a89b570, 20000],
     0x8f6868ed726dae11,
     [6760085, 540018, 20000, 5, 0, 0, 0, 60000, 5, 20000, 1, 60002, 0, 40000, 0, 0x3d6ef691a89b570, 20000]),
    // hot_field_aix
    ([3400085, 270018, 20000, 0, 0, 0, 0, 40000, 5, 10000, 1, 30002, 0, 20000, 0, 0x3d6ef691a89b570, 10000],
     0xa9000db904954e70,
     [3440085, 290018, 20000, 5, 0, 0, 10000, 50000, 5, 10000, 1, 30002, 0, 20000, 0, 0x3d6ef691a89b570, 10000]),
];

#[test]
fn tiered_programs_pin_every_vm_counter() {
    let mut actual = Vec::new();
    for (name, p, module, args) in programs() {
        let t0 = tier0(&module, &p);
        let counted = Vm::new(&t0, p)
            .with_config(COUNTED)
            .run("main", &args)
            .unwrap_or_else(|f| panic!("{name} tier 0: {f}"));
        let plain = Vm::new(&t0, p).run("main", &args).unwrap();
        assert_eq!(plain, counted, "{name}: counting sites changes nothing");
        let final_module = TieredRuntime::new(module.clone(), p)
            .run("main", &args)
            .unwrap_or_else(|f| panic!("{name} tiered: {f}"))
            .final_module;
        let fin = Vm::new(&final_module, p).run("main", &args).unwrap();
        actual.push((
            pin(&counted),
            digest(&format!("{:?}", counted.site_counts)),
            pin(&fin),
        ));
    }
    assert_eq!(actual, TIERED_PINS, "actual: {actual:?}");
}

/// The profile published when a counted, hooked run of a program's
/// tier 0 runs out of fuel at the 1/7, 1/3 and 1/2 limits: the snapshot's
/// call count and digest.
#[rustfmt::skip]
const FUEL_PINS: &[(&str, [(u64, u64); 3])] = &[
    ("hot_field", [(1429, 0xf500000c698b8386), (3333, 0xcc99772a5aea32f8), (5000, 0x6415ce48cd69a840)]),
    ("deep_chain4", [(2286, 0xb3191794794490be), (5333, 0xe60c1b88ecbce9a1), (8000, 0xd6f039ed535f4fd6)]),
];

#[test]
fn fuel_sweep_faults_on_the_same_instruction_with_the_same_profile() {
    let mut actual = Vec::new();
    for (name, p, module, args) in programs() {
        if !matches!(name, "hot_field" | "deep_chain4") {
            continue;
        }
        let t0 = tier0(&module, &p);
        let run = |max_insts: u64, hooks: &RuntimeHooks| {
            let config = VmConfig {
                max_insts,
                ..COUNTED
            };
            Vm::new(&t0, p)
                .with_config(config)
                .with_hooks(hooks)
                .run("main", &args)
        };
        let full = run(u64::MAX, &RuntimeHooks::new(32)).unwrap();
        let insts = full.stats.insts;
        let mut published = Vec::new();
        for limit in [0, 1, 2, insts / 7, insts / 3, insts / 2, insts - 1] {
            let hooks = RuntimeHooks::new(32);
            assert_eq!(
                run(limit, &hooks),
                Err(Fault::OutOfFuel),
                "{name} at {limit}"
            );
            let snap = hooks.snapshot();
            if [insts / 7, insts / 3, insts / 2].contains(&limit) {
                published.push((snap.calls, digest(&format!("{snap:?}"))));
            }
        }
        let hooks = RuntimeHooks::new(32);
        let exact = run(insts, &hooks).unwrap();
        assert_eq!(exact, full, "{name}: fuel for exactly the run");
        assert_eq!(exact.site_counts, full.site_counts, "{name}");
        actual.push((name, [published[0], published[1], published[2]]));
    }
    assert_eq!(actual, FUEL_PINS, "actual: {actual:?}");
}
