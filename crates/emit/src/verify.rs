//! The parallel binary verifier: proves, from the bytes alone, that the
//! emitted artifact upholds the paper's soundness contract.
//!
//! Per function (fanned out with `std::thread::scope`, findings merged in
//! function order):
//!
//! * **Claim (a)** — every `.njc.exctab` entry's byte offset decodes to a
//!   real memory access whose null-base fault lands inside the platform's
//!   trap area: direction matches the recorded access kind, the static
//!   displacement matches the recorded offset and is **strictly less**
//!   than `trap_area_bytes` (offset == area size must never be an
//!   implicit site — the trap would not fire), and the platform can trap
//!   that access kind at all. Read sites on silent-read models (AIX) are
//!   tallied separately: they are the §5.4 "Illegal Implicit" hazard, a
//!   policy question the caller judges, not a malformation.
//! * **Claim (b)** — no eliminated check left a residual explicit test
//!   behind: the instruction window before each site access must not
//!   contain the `test rax, rax; jnz; raise-NPE` expansion guarding the
//!   same base slot; and the per-function census of explicit check
//!   fingerprints is reported for reconciliation against the optimizer's
//!   check ledger.
//! * **Claim (c)** — handler ranges are in-bounds, start before they end,
//!   begin and end on instruction boundaries, nest or stay disjoint, and
//!   their handler entry points are instruction boundaries outside the
//!   covered range.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use njc_arch::Platform;
use njc_ir::{AccessKind, CheckId};

use crate::abi;
use crate::decode::{decode_one, Dec, Imm32Reg, Scratch};
use crate::encode::{EmittedFunction, EmittedModule};

/// What a finding is about.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FindingKind {
    /// Bytes at the given offset are outside the emitted subset.
    Undecodable,
    /// A site's byte offset is not an instruction boundary.
    SiteNotOnBoundary,
    /// A site's instruction is not a memory access.
    SiteNotMemoryAccess,
    /// A site's access direction contradicts its recorded kind.
    SiteKindMismatch,
    /// A site's decoded displacement contradicts its recorded offset.
    SiteOffsetMismatch {
        /// The displacement actually encoded.
        decoded: u64,
    },
    /// A site's static offset does not fall strictly inside the trap
    /// area — the hardware would never deliver the fault.
    SiteOffsetOutsideTrapArea {
        /// The recorded offset.
        offset: u64,
        /// The platform trap-area size.
        area: u64,
    },
    /// The platform cannot trap this access kind at all.
    SiteCannotTrap,
    /// A residual explicit null check still guards a site's access.
    ResidualNullCheck {
        /// The frame slot both the check and the access use.
        slot: u32,
    },
    /// Two sites claim the same (non-`NONE`) check id.
    DuplicateCheck,
    /// A handler range is structurally broken.
    HandlerMalformed,
    /// Two handler ranges partially overlap (neither nested nor disjoint).
    HandlerOverlap,
    /// The binary explicit check census disagrees with the ledger.
    ExplicitCountMismatch {
        /// Checks the ledger expects.
        expected: u64,
        /// Fingerprints found in the bytes.
        actual: u64,
    },
}

/// One verification finding, carrying the site provenance it concerns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyFinding {
    /// The function.
    pub function: String,
    /// Function-relative byte offset the finding anchors at.
    pub byte_off: u32,
    /// The IR check involved ([`CheckId::NONE`] when not site-specific).
    pub check: CheckId,
    /// What went wrong.
    pub kind: FindingKind,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {:#x}", self.function, self.byte_off)?;
        if self.check.is_some() {
            write!(f, " (check {})", self.check)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The verifier's aggregate result.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VerifyReport {
    /// Functions verified.
    pub functions: usize,
    /// Site entries checked.
    pub sites: usize,
    /// Handler ranges checked.
    pub handlers: usize,
    /// Read sites on a platform whose reads do not trap (the AIX silent
    /// read hazard — a policy matter, not a malformation).
    pub silent_read_sites: usize,
    /// Per-function explicit null check fingerprint counts, in function
    /// order — the binary side of the check ledger.
    pub explicit_checks: Vec<(String, u64)>,
    /// All findings, in function order.
    pub findings: Vec<VerifyFinding>,
}

struct FnResult {
    silent_read_sites: usize,
    explicit_checks: u64,
    findings: Vec<VerifyFinding>,
}

/// Verifies one function's bytes and tables.
#[allow(clippy::too_many_lines)]
fn verify_function(f: &EmittedFunction, text: &[u8], platform: &Platform) -> FnResult {
    let mut findings = Vec::new();
    let finding =
        |byte_off: u32, check: CheckId, kind: FindingKind, detail: String| VerifyFinding {
            function: f.name.clone(),
            byte_off,
            check,
            kind,
            detail,
        };

    // Full decode: every byte of the function must be in the subset.
    let code = &text[f.text_off as usize..(f.text_off + f.text_len) as usize];
    let mut decoded: Vec<(u32, Dec)> = Vec::new();
    let mut pos = 0usize;
    while pos < code.len() {
        match decode_one(code, pos) {
            Ok((dec, len)) => {
                decoded.push((pos as u32, dec));
                pos += len;
            }
            Err(e) => {
                findings.push(finding(
                    pos as u32,
                    CheckId::NONE,
                    FindingKind::Undecodable,
                    format!("undecodable byte {:#04x}", e.byte),
                ));
                return FnResult {
                    silent_read_sites: 0,
                    explicit_checks: 0,
                    findings,
                };
            }
        }
    }

    // `decoded` is sorted by offset: the index of the instruction that
    // starts at `off`, if one does.
    let boundary = |off: u32| decoded.binary_search_by_key(&off, |&(p, _)| p).ok();

    let explicit_checks = decoded
        .iter()
        .filter(|(_, d)| matches!(d, Dec::TestRax))
        .count() as u64;

    // Claim (a): every site is a genuinely faulting access.
    let mut silent_read_sites = 0usize;
    let area = platform.trap.trap_area_bytes;
    let mut seen_checks: BTreeMap<u32, u32> = BTreeMap::new();
    for site in &f.sites {
        if site.check.is_some() {
            if let Some(prev) = seen_checks.insert(site.check.0, site.byte_off) {
                findings.push(finding(
                    site.byte_off,
                    site.check,
                    FindingKind::DuplicateCheck,
                    format!("check already discharged at byte {prev:#x}"),
                ));
            }
        }
        let Some(idx) = boundary(site.byte_off) else {
            findings.push(finding(
                site.byte_off,
                site.check,
                FindingKind::SiteNotOnBoundary,
                "site offset is not an instruction boundary".to_string(),
            ));
            continue;
        };
        let (kind, disp, indexed) = match decoded[idx].1 {
            Dec::LoadMem { disp, indexed } => (AccessKind::Read, disp, indexed),
            Dec::StoreMem { disp, indexed } => (AccessKind::Write, disp, indexed),
            other => {
                findings.push(finding(
                    site.byte_off,
                    site.check,
                    FindingKind::SiteNotMemoryAccess,
                    format!("site instruction is {other:?}, not a memory access"),
                ));
                continue;
            }
        };
        if kind != site.kind {
            findings.push(finding(
                site.byte_off,
                site.check,
                FindingKind::SiteKindMismatch,
                format!("table records a {:?}, bytes perform a {kind:?}", site.kind),
            ));
            continue;
        }
        // The displacement that must fall inside the trap area: the
        // static offset for field accesses, the elements base for
        // index-scaled accesses (index 0 is the null-page witness).
        match site.offset {
            Some(off) => {
                if indexed || u64::from(disp) != off {
                    findings.push(finding(
                        site.byte_off,
                        site.check,
                        FindingKind::SiteOffsetMismatch {
                            decoded: u64::from(disp),
                        },
                        format!(
                            "table records static offset {off}, bytes encode {}{}",
                            disp,
                            if indexed { " (index-scaled)" } else { "" }
                        ),
                    ));
                    continue;
                }
                if off >= area {
                    findings.push(finding(
                        site.byte_off,
                        site.check,
                        FindingKind::SiteOffsetOutsideTrapArea { offset: off, area },
                        format!(
                            "offset {off} does not fall strictly inside the {area}-byte trap area"
                        ),
                    ));
                    continue;
                }
            }
            None => {
                if !indexed {
                    findings.push(finding(
                        site.byte_off,
                        site.check,
                        FindingKind::SiteOffsetMismatch {
                            decoded: u64::from(disp),
                        },
                        "table records a dynamic offset, bytes encode a static access".to_string(),
                    ));
                    continue;
                }
                if u64::from(disp) >= area {
                    findings.push(finding(
                        site.byte_off,
                        site.check,
                        FindingKind::SiteOffsetOutsideTrapArea {
                            offset: u64::from(disp),
                            area,
                        },
                        format!(
                            "elements base {disp} does not fall strictly inside the {area}-byte trap area"
                        ),
                    ));
                    continue;
                }
            }
        }
        // Capability: the platform must trap this kind at this offset.
        if area == 0 {
            findings.push(finding(
                site.byte_off,
                site.check,
                FindingKind::SiteCannotTrap,
                "platform has no trap area; implicit sites can never fire".to_string(),
            ));
            continue;
        }
        match kind {
            AccessKind::Write if !platform.trap.traps_on_write => {
                findings.push(finding(
                    site.byte_off,
                    site.check,
                    FindingKind::SiteCannotTrap,
                    "platform does not trap writes".to_string(),
                ));
                continue;
            }
            AccessKind::Read if !platform.trap.traps_on_read => {
                // AIX: null reads complete silently — the site never
                // fires and the NPE is missed. Whether that is legal is
                // the optimizer configuration's call; tally it.
                silent_read_sites += 1;
            }
            _ => {}
        }

        // Claim (b): no residual explicit check may guard this access.
        if let Some(slot) = residual_check_slot(&decoded, idx) {
            findings.push(finding(
                site.byte_off,
                site.check,
                FindingKind::ResidualNullCheck { slot },
                format!("explicit null check on slot {slot} still guards the site access"),
            ));
        }
    }

    // Claim (c): handler ranges.
    for (i, h) in f.handlers.iter().enumerate() {
        let bad = |detail: String| {
            finding(
                h.start,
                CheckId::NONE,
                FindingKind::HandlerMalformed,
                detail,
            )
        };
        if h.start >= h.end {
            findings.push(bad(format!("empty handler range {}..{}", h.start, h.end)));
            continue;
        }
        if h.end > f.text_len {
            findings.push(bad(format!(
                "handler range {}..{} extends past the {}-byte function",
                h.start, h.end, f.text_len
            )));
            continue;
        }
        for (what, off) in [("start", h.start), ("handler entry", h.handler)] {
            if boundary(off).is_none() {
                findings.push(bad(format!(
                    "{what} {off:#x} is not an instruction boundary"
                )));
            }
        }
        if h.end < f.text_len && boundary(h.end).is_none() {
            findings.push(bad(format!(
                "end {:#x} is not an instruction boundary",
                h.end
            )));
        }
        if h.start <= h.handler && h.handler < h.end {
            findings.push(bad(format!(
                "handler entry {:#x} lies inside its own protected range",
                h.handler
            )));
        }
        for other in &f.handlers[i + 1..] {
            let disjoint = h.end <= other.start || other.end <= h.start;
            let nested = (h.start <= other.start && other.end <= h.end)
                || (other.start <= h.start && h.end <= other.end);
            if !disjoint && !nested {
                findings.push(finding(
                    h.start,
                    CheckId::NONE,
                    FindingKind::HandlerOverlap,
                    format!(
                        "ranges {}..{} and {}..{} partially overlap",
                        h.start, h.end, other.start, other.end
                    ),
                ));
            }
        }
    }

    FnResult {
        silent_read_sites,
        explicit_checks,
        findings,
    }
}

/// Looks backwards from the site access at `idx` for the explicit null
/// check expansion guarding the same base slot. Returns the slot if the
/// residual pattern is present.
fn residual_check_slot(decoded: &[(u32, Dec)], idx: usize) -> Option<u32> {
    // The access group starts at the nearest preceding `mov rax, [rbp+..]`
    // (the base-slot load); operand loads in between are rcx/rdx.
    let mut at = idx;
    let mut base_slot = None;
    while at > 0 && idx - at <= 4 {
        at -= 1;
        match decoded[at].1 {
            Dec::LoadSlot {
                reg: Scratch::Rax,
                slot,
            } => {
                base_slot = Some(slot);
                break;
            }
            Dec::LoadSlot { .. } | Dec::MovAbs { .. } | Dec::AddRdx => {}
            _ => return None,
        }
    }
    let base_slot = base_slot?;
    // The six instructions before the base load would be:
    //   mov rax,[rbp+slot]; test rax,rax; jnz; mov edi,NPE; mov eax,RAISE; syscall
    if at < 6 {
        return None;
    }
    let w = &decoded[at - 6..at];
    let check_slot = match w[0].1 {
        Dec::LoadSlot {
            reg: Scratch::Rax,
            slot,
        } => slot,
        _ => return None,
    };
    let is_residual = check_slot == base_slot
        && matches!(w[1].1, Dec::TestRax)
        && matches!(w[2].1, Dec::Jmp8 { opcode: 0x75, .. })
        && matches!(
            w[3].1,
            Dec::MovImm32 {
                reg: Imm32Reg::Edi,
                imm: abi::EXC_TAG_NPE
            }
        )
        && matches!(
            w[4].1,
            Dec::MovImm32 {
                reg: Imm32Reg::Eax,
                imm: abi::SVC_RAISE
            }
        )
        && matches!(w[5].1, Dec::Syscall);
    is_residual.then_some(base_slot)
}

/// Verifies a whole module in parallel, merging per-function results in
/// function order (the report is identical for every thread count).
pub fn verify_module(em: &EmittedModule, platform: &Platform, threads: usize) -> VerifyReport {
    let n = em.functions.len();
    let workers = threads.max(1).min(n.max(1));
    let mut results: Vec<Option<FnResult>> = (0..n).map(|_| None).collect();
    if workers <= 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(verify_function(&em.functions[i], &em.text, platform));
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<FnResult>>> =
            (0..n).map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = verify_function(&em.functions[i], &em.text, platform);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
                });
            }
        });
        for (slot, cell) in results.iter_mut().zip(slots) {
            *slot = cell
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    let mut report = VerifyReport {
        functions: n,
        sites: em.total_sites(),
        handlers: em.functions.iter().map(|f| f.handlers.len()).sum(),
        ..VerifyReport::default()
    };
    for (f, r) in em.functions.iter().zip(results) {
        let r = r.expect("every function verified");
        report.silent_read_sites += r.silent_read_sites;
        report
            .explicit_checks
            .push((f.name.clone(), r.explicit_checks));
        report.findings.extend(r.findings);
    }
    report
}

/// Cross-checks the binary explicit check census against the optimizer's
/// ledger expectation (claim (b), module side): per function, the number
/// of `test rax, rax` fingerprints must equal the checks the ledger says
/// remained explicit.
pub fn check_explicit_census(
    report: &VerifyReport,
    expected: &BTreeMap<String, u64>,
) -> Vec<VerifyFinding> {
    let mut findings = Vec::new();
    for (name, actual) in &report.explicit_checks {
        if let Some(&exp) = expected.get(name) {
            if exp != *actual {
                findings.push(VerifyFinding {
                    function: name.clone(),
                    byte_off: 0,
                    check: CheckId::NONE,
                    kind: FindingKind::ExplicitCountMismatch {
                        expected: exp,
                        actual: *actual,
                    },
                    detail: format!("ledger expects {exp} explicit checks, bytes carry {actual}"),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{emit_module, BinSite};
    use njc_codegen::lower_module;
    use njc_ir::{parse_function, Module, Type};

    fn demo() -> EmittedModule {
        let mut m = Module::new("demo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = new class0\n  v1 = const 5\n  putfield v0, field0, v1 [site]\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        emit_module(&lower_module(&m), 1)
    }

    #[test]
    fn clean_module_verifies_clean() {
        let em = demo();
        let report = verify_module(&em, &Platform::windows_ia32(), 2);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.sites, 2);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let em = demo();
        let one = verify_module(&em, &Platform::windows_ia32(), 1);
        let eight = verify_module(&em, &Platform::windows_ia32(), 8);
        assert_eq!(one, eight);
    }

    #[test]
    fn corrupted_site_offset_is_found() {
        let mut em = demo();
        em.functions[0].sites[0].byte_off += 1; // point inside an instruction
        let report = verify_module(&em, &Platform::windows_ia32(), 1);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::SiteNotOnBoundary));
    }

    #[test]
    fn boundary_offset_site_is_rejected() {
        // A site whose static offset equals the trap-area size can never
        // fire: the fault lands one byte past the guard region.
        let mut em = demo();
        let f = &mut em.functions[0];
        let real = f.sites[0];
        f.sites[0] = BinSite {
            offset: Some(4096),
            ..real
        };
        let report = verify_module(&em, &Platform::windows_ia32(), 1);
        assert!(report.findings.iter().any(|f| matches!(
            f.kind,
            FindingKind::SiteOffsetMismatch { .. }
                | FindingKind::SiteOffsetOutsideTrapArea {
                    offset: 4096,
                    area: 4096
                }
        )));
    }

    #[test]
    fn census_mismatch_is_reported() {
        let em = demo();
        let report = verify_module(&em, &Platform::windows_ia32(), 1);
        let mut expected = BTreeMap::new();
        expected.insert("main".to_string(), 7u64);
        let findings = check_explicit_census(&report, &expected);
        assert_eq!(findings.len(), 1);
        assert!(matches!(
            findings[0].kind,
            FindingKind::ExplicitCountMismatch { expected: 7, .. }
        ));
    }
}
