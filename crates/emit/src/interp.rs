//! The byte-level interpreter: executes emitted x86-64 bytes directly
//! over the guarded memory.
//!
//! This is the encoder-faithful referee: it knows nothing about the
//! virtual ISA — it decodes the actual bytes ([`crate::decode`]), keeps
//! frame slots in an upward-growing stack addressed by `rbp`, and
//! resolves hardware traps by **binary** exception-site lookup (the
//! function-relative byte offset of the faulting instruction against
//! `.njc.exctab`). Observable behaviour — result, escaped exception,
//! observation trace, trap/check/missed-NPE counters — must match the IR
//! interpreter (`njc-vm`) running the same optimized module; the difftest
//! harness holds it to that.
//!
//! Each run decodes an instruction once: the first time execution reaches
//! a pc, [`decode_one`] fills that pc's entry in a per-run table (with the
//! callee of a `call` resolved alongside), and every later visit
//! dispatches from the table. Bytes outside the emitted subset are a
//! [`MachineFault::BadCode`], never a panic.

use njc_arch::Platform;
use njc_codegen::{MValue, MachineFault, MachineOutcome, MachineStats};
use njc_ir::{AccessKind, CheckId, ExceptionKind, Type};
use njc_trap::{GuardedMemory, HeapExhausted, MemoryError};

use crate::abi;
use crate::decode::{decode_one, Dec, Imm32Reg, Scratch};
use crate::encode::{BinSite, EmittedFunction, EmittedModule};

/// Call depth limit, matching the IR interpreter's default `max_depth`.
const MAX_DEPTH: usize = 256;

/// The machine state captured at a registered-site hardware trap, in the
/// form the recovery subsystem needs to deoptimize the frame: the
/// trapping function, the site's static provenance (check id, access
/// kind, displacement), and the raw frame slots. Under the frame-slot
/// ABI slot `i` holds virtual register `r{i}` at every
/// virtual-instruction boundary, so `frame` **is** the interpreter
/// locals array for the tier-0 body of the same function — deoptimizing
/// is a copy, not a reconstruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TrapSnapshot {
    /// Name of the trapping function.
    pub function: String,
    /// Function-relative byte offset of the faulting instruction.
    pub byte_off: u32,
    /// The check the site discharges.
    pub check: CheckId,
    /// Read or write.
    pub kind: AccessKind,
    /// Static displacement of the access (`None` when index-scaled).
    pub offset: Option<u64>,
    /// Frame slots `r0..r{num_regs}` at the trapping pc, raw bits.
    pub frame: Vec<u64>,
}

/// What [`ByteMachine::run_until_site_trap`] observed: either the entry
/// ran to completion (possibly unwinding an exception) without any
/// registered site trapping, or execution stopped at the first
/// registered-site trap with the frame captured for deoptimization.
#[derive(Clone, PartialEq, Debug)]
pub enum TrapOutcome {
    /// No registered site trapped; the normal outcome.
    Completed(MachineOutcome),
    /// A registered site trapped; execution stopped there.
    Trapped(TrapSnapshot),
}

/// Executes an [`EmittedModule`]'s bytes.
pub struct ByteMachine<'m> {
    em: &'m EmittedModule,
    platform: Platform,
    fuel: u64,
}

struct Frame {
    ret_addr: usize,
    caller: usize,
    rbp_restore: u64,
}

/// One decoded instruction, with the callee's function index resolved
/// for a `call`.
#[derive(Clone, Copy)]
struct Decoded {
    dec: Dec,
    callee: u32,
}

/// Low bits of a decode-table entry holding the instruction's byte
/// length (every emitted instruction is 1..=10 bytes); the rest index
/// `decoded`.
const LEN_BITS: u32 = 4;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;

struct Exec<'m> {
    em: &'m EmittedModule,
    /// The decode table, indexed by absolute `.text` offset: 0 until
    /// execution first reaches that pc, then the instruction's index in
    /// `decoded` above its byte length ([`LEN_MASK`]). Filled lazily by
    /// pc, so a jump to any offset decodes exactly what [`decode_one`]
    /// decodes there. The length sits in the entry itself so that the
    /// next pc never waits on the `decoded` load.
    at: Vec<u32>,
    decoded: Vec<Decoded>,
    mem: GuardedMemory,
    stats: MachineStats,
    trace: Vec<MValue>,
    fuel: u64,
    stack: Vec<u64>,
    frames: Vec<Frame>,
    rax: u64,
    rcx: u64,
    rdx: u64,
    xmm0: u64,
    xmm1: u64,
    eax: u32,
    edi: u32,
    esi: u32,
    rbp: u64,
    pc: usize,
    fidx: usize,
    /// Snapshot mode: stop at the first registered-site trap and capture
    /// the frame instead of unwinding.
    deopt: bool,
    /// The captured frame, when a registered site trapped in snapshot
    /// mode.
    snapshot: Option<TrapSnapshot>,
    /// Last compare/test operand pair, signed semantics decided by the
    /// consuming jump.
    cmp: (u64, u64),
}

impl<'m> ByteMachine<'m> {
    /// Creates a byte machine for `em` under `platform`'s trap model.
    pub fn new(em: &'m EmittedModule, platform: Platform) -> Self {
        // The IR interpreter budgets 200M instructions; each lowers to a
        // bounded handful of x86 instructions.
        ByteMachine {
            em,
            platform,
            fuel: 4_000_000_000,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs `entry` (no arguments) to completion.
    ///
    /// # Errors
    /// [`MachineFault`] on compiler bugs or resource exhaustion; escaped
    /// Java exceptions are a normal outcome.
    pub fn run(self, entry: &str) -> Result<MachineOutcome, MachineFault> {
        let (exec, outcome, ret_ty) = self.exec(entry, false)?;
        Ok(Self::outcome(exec, outcome, ret_ty))
    }

    /// Runs `entry` until the first registered-site hardware trap, whose
    /// frame is captured as a [`TrapSnapshot`] for deoptimization, or to
    /// completion when no registered site traps. Unregistered traps are
    /// still [`MachineFault::UnexpectedTrap`] — snapshot mode changes
    /// what happens at *marked* sites only.
    ///
    /// # Errors
    /// [`MachineFault`] on compiler bugs or resource exhaustion.
    pub fn run_until_site_trap(self, entry: &str) -> Result<TrapOutcome, MachineFault> {
        let (exec, outcome, ret_ty) = self.exec(entry, true)?;
        if let Some(snap) = exec.snapshot {
            return Ok(TrapOutcome::Trapped(snap));
        }
        Ok(TrapOutcome::Completed(Self::outcome(exec, outcome, ret_ty)))
    }

    fn outcome(
        exec: Exec<'_>,
        outcome: Option<ExceptionKind>,
        ret_ty: Option<Type>,
    ) -> MachineOutcome {
        let (result, exception) = match outcome {
            None => (ret_ty.map(|t| MValue::from_bits(exec.rax, t)), None),
            Some(kind) => (None, Some(kind)),
        };
        MachineOutcome {
            result,
            exception,
            trace: exec.trace,
            stats: exec.stats,
        }
    }

    fn exec(
        self,
        entry: &str,
        deopt: bool,
    ) -> Result<(Exec<'m>, Option<ExceptionKind>, Option<Type>), MachineFault> {
        let fidx = self
            .em
            .function_by_name(entry)
            .ok_or_else(|| MachineFault::NoSuchFunction(entry.to_string()))?;
        let f = &self.em.functions[fidx];
        let mut exec = Exec {
            em: self.em,
            at: vec![0; self.em.text.len()],
            decoded: Vec::new(),
            mem: GuardedMemory::new(self.platform.trap),
            stats: MachineStats::default(),
            trace: Vec::new(),
            fuel: self.fuel,
            stack: Vec::new(),
            frames: Vec::new(),
            rax: 0,
            rcx: 0,
            rdx: 0,
            xmm0: 0,
            xmm1: 0,
            eax: 0,
            edi: 0,
            esi: 0,
            rbp: 0,
            pc: f.text_off as usize,
            fidx,
            deopt,
            snapshot: None,

            cmp: (0, 0),
        };
        let ret_ty = f.ret;
        let outcome = exec.run()?;
        Ok((exec, outcome, ret_ty))
    }
}

impl Exec<'_> {
    fn func(&self) -> &EmittedFunction {
        &self.em.functions[self.fidx]
    }

    fn slot_index(&self, slot: u32) -> usize {
        (self.rbp / 8) as usize + slot as usize
    }

    fn read_slot(&mut self, slot: u32) -> u64 {
        let i = self.slot_index(slot);
        self.stack.get(i).copied().unwrap_or(0)
    }

    fn write_slot(&mut self, slot: u32, value: u64) {
        let i = self.slot_index(slot);
        if self.stack.len() <= i {
            self.stack.resize(i + 1, 0);
        }
        self.stack[i] = value;
    }

    fn scratch(&mut self, reg: Scratch) -> &mut u64 {
        match reg {
            Scratch::Rax => &mut self.rax,
            Scratch::Rcx => &mut self.rcx,
            Scratch::Rdx => &mut self.rdx,
        }
    }

    /// The site entry covering the current instruction, if any.
    fn site(&self) -> Option<&BinSite> {
        let f = self.func();
        let rel = (self.pc - f.text_off as usize) as u32;
        f.sites
            .binary_search_by_key(&rel, |s| s.byte_off)
            .ok()
            .map(|i| &f.sites[i])
    }

    /// Captures the trapping frame for deoptimization: frame slots are
    /// virtual registers under the frame-slot ABI, so the copy *is* the
    /// interpreter locals array.
    fn capture(&self, site: BinSite) -> TrapSnapshot {
        let f = self.func();
        let base = (self.rbp / 8) as usize;
        let frame = (0..f.num_regs as usize)
            .map(|i| self.stack.get(base + i).copied().unwrap_or(0))
            .collect();
        TrapSnapshot {
            function: f.name.clone(),
            byte_off: (self.pc - f.text_off as usize) as u32,
            check: site.check,
            kind: site.kind,
            offset: site.offset,
            frame,
        }
    }

    /// A [`MachineFault::BadCode`] at the current pc.
    #[cold]
    fn bad_code(&self, detail: impl Into<String>) -> MachineFault {
        MachineFault::BadCode {
            function: self.func().name.clone(),
            pc: self.pc,
            detail: detail.into(),
        }
    }

    /// The fault for an allocation the heap refused.
    #[cold]
    fn heap_exhausted(&self, e: HeapExhausted) -> MachineFault {
        MachineFault::HeapExhausted {
            function: self.func().name.clone(),
            requested: e.requested,
        }
    }

    /// Decodes the instruction at the current pc into the table and
    /// returns its entry: the miss path of the run loop, taken once per
    /// executed pc per run. A jump must stay inside the current function
    /// (so every later pc lies in `func()`), and a call must land inside
    /// some function.
    #[cold]
    fn fill(&mut self) -> Result<u32, MachineFault> {
        let (dec, len) =
            decode_one(&self.em.text, self.pc).map_err(|e| self.bad_code(e.to_string()))?;
        let jump = match dec {
            Dec::Jcc { rel, .. } | Dec::Jmp { rel } => Some(i64::from(rel)),
            Dec::Jmp8 { rel, .. } => Some(i64::from(rel)),
            _ => None,
        };
        if let Some(rel) = jump {
            let target = (self.pc + len) as i64 + rel;
            let f = self.func();
            if !(i64::from(f.text_off)..i64::from(f.text_off + f.text_len)).contains(&target) {
                return Err(
                    self.bad_code(format!("jump outside the current function to {target:#x}"))
                );
            }
        }
        let callee = match dec {
            Dec::Call { rel } => {
                let target = (self.pc + len) as i64 + i64::from(rel);
                let callee = u32::try_from(target)
                    .ok()
                    .and_then(|t| self.em.function_at(t))
                    .ok_or_else(|| {
                        self.bad_code(format!("call outside every function at {target:#x}"))
                    })?;
                callee as u32
            }
            _ => 0,
        };
        let index = self.decoded.len() as u32;
        if index >> (32 - LEN_BITS) != 0 {
            return Err(self.bad_code("more instructions than the decode table indexes"));
        }
        let entry = index << LEN_BITS | len as u32;
        self.decoded.push(Decoded { dec, callee });
        self.at[self.pc] = entry;
        Ok(entry)
    }

    fn unexpected_trap(&self, kind: AccessKind, offset: Option<u64>) -> MachineFault {
        let f = self.func();
        let rel = self.pc - f.text_off as usize;
        let nearest: Option<(usize, CheckId)> = f
            .sites
            .iter()
            .min_by_key(|s| (s.byte_off as i64 - rel as i64).abs())
            .map(|s| (s.byte_off as usize, s.check));
        MachineFault::UnexpectedTrap {
            function: f.name.clone(),
            pc: rel,
            kind,
            offset,
            nearest_site: nearest,
        }
    }

    /// The effective address of a `[rax + disp]` or `[rax + rcx*8 + disp]`
    /// operand, wrapping modulo 2^64 exactly as x86-64 address generation
    /// does. The VM checks indexed addresses for overflow instead
    /// (`Heap::element_addr_checked`); the difftest `+bytes` column counts
    /// the resulting split as a known gap, `byte_wrap_gaps`.
    fn address(&self, disp: u32, indexed: bool) -> u64 {
        let addr = self.rax.wrapping_add(u64::from(disp));
        if indexed {
            addr.wrapping_add(self.rcx.wrapping_mul(8))
        } else {
            addr
        }
    }

    /// Unwinds `kind` from the current pc. Returns the kind if it escapes
    /// the entry frame; otherwise control is at the handler.
    fn unwind(&mut self, kind: ExceptionKind) -> Option<ExceptionKind> {
        loop {
            let f = &self.em.functions[self.fidx];
            let rel = (self.pc - f.text_off as usize) as u32;
            let hit = f
                .handlers
                .iter()
                .find(|h| h.start <= rel && rel < h.end && h.catch.catches(kind));
            if let Some(h) = hit {
                let (handler, code_slot) = (h.handler, h.code_slot);
                if let Some(slot) = code_slot {
                    self.write_slot(slot, kind.code() as u64);
                }
                self.pc = f.text_off as usize + handler as usize;
                return None;
            }
            match self.frames.pop() {
                Some(frame) => {
                    self.pc = frame.ret_addr;
                    self.fidx = frame.caller;
                    self.rbp = frame.rbp_restore;
                }
                None => return Some(kind),
            }
        }
    }

    /// Pushes an activation and transfers to `callee`'s entry.
    fn enter(&mut self, callee: usize, ret_addr: usize) -> Result<(), MachineFault> {
        if self.frames.len() + 1 > MAX_DEPTH {
            return Err(MachineFault::StackOverflow);
        }
        let caller_regs = u64::from(self.func().num_regs);
        self.frames.push(Frame {
            ret_addr,
            caller: self.fidx,
            rbp_restore: self.rbp - caller_regs * 8,
        });
        self.fidx = callee;
        self.pc = self.em.functions[callee].text_off as usize;
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn run(&mut self) -> Result<Option<ExceptionKind>, MachineFault> {
        loop {
            self.stats.insts += 1;
            if self.stats.insts > self.fuel {
                return Err(MachineFault::OutOfFuel);
            }
            let entry = match self.at.get(self.pc) {
                Some(&e) if e != 0 => e,
                _ => self.fill()?,
            };
            let next = self.pc + (entry & LEN_MASK) as usize;
            let d = self.decoded[(entry >> LEN_BITS) as usize];
            // Shorthand: raise an exception at the *current* pc, returning
            // whether it escaped.
            macro_rules! raise {
                ($kind:expr) => {{
                    if let Some(k) = self.unwind($kind) {
                        return Ok(Some(k));
                    }
                    continue;
                }};
            }
            match d.dec {
                Dec::Pad => return Err(self.bad_code("execution ran into inter-function padding")),
                Dec::LoadSlot { reg, slot } => {
                    let v = self.read_slot(slot);
                    *self.scratch(reg) = v;
                }
                Dec::StoreSlot { slot, reg } => {
                    let v = *self.scratch(reg);
                    self.write_slot(slot, v);
                }
                Dec::LoadMem { disp, indexed } => {
                    match self.mem.read_u64(self.address(disp, indexed)) {
                        Ok(out) => {
                            if out.from_guard && self.site().is_some() {
                                self.stats.missed_npes += 1;
                            }
                            self.rdx = out.value;
                        }
                        Err(MemoryError::Trap(_)) => {
                            if let Some(&site) = self.site() {
                                self.stats.traps_taken += 1;
                                if self.deopt {
                                    self.snapshot = Some(self.capture(site));
                                    return Ok(None);
                                }
                                raise!(ExceptionKind::NullPointer);
                            }
                            return Err(self.unexpected_trap(
                                AccessKind::Read,
                                (!indexed).then_some(u64::from(disp)),
                            ));
                        }
                        Err(MemoryError::WildAccess { address, .. }) => {
                            return Err(MachineFault::WildAccess {
                                function: self.func().name.clone(),
                                address,
                            })
                        }
                    }
                }
                Dec::StoreMem { disp, indexed } => {
                    match self.mem.write_u64(self.address(disp, indexed), self.rdx) {
                        Ok(()) => {}
                        Err(MemoryError::Trap(_)) => {
                            if let Some(&site) = self.site() {
                                self.stats.traps_taken += 1;
                                if self.deopt {
                                    self.snapshot = Some(self.capture(site));
                                    return Ok(None);
                                }
                                raise!(ExceptionKind::NullPointer);
                            }
                            return Err(self.unexpected_trap(
                                AccessKind::Write,
                                (!indexed).then_some(u64::from(disp)),
                            ));
                        }
                        Err(MemoryError::WildAccess { address, .. }) => {
                            return Err(MachineFault::WildAccess {
                                function: self.func().name.clone(),
                                address,
                            })
                        }
                    }
                }
                Dec::MovAbs { reg, imm } => *self.scratch(reg) = imm,
                Dec::MovImm32 { reg, imm } => match reg {
                    Imm32Reg::Eax => self.eax = imm,
                    Imm32Reg::Edi => self.edi = imm,
                    Imm32Reg::Esi => self.esi = imm,
                },
                Dec::AddRcx => self.rax = self.rax.wrapping_add(self.rcx),
                Dec::AddRdx => self.rax = self.rax.wrapping_add(self.rdx),
                Dec::SubRcx => self.rax = self.rax.wrapping_sub(self.rcx),
                Dec::MulRcx => self.rax = self.rax.wrapping_mul(self.rcx),
                Dec::AndRcx => self.rax &= self.rcx,
                Dec::OrRcx => self.rax |= self.rcx,
                Dec::XorRcx => self.rax ^= self.rcx,
                Dec::XorSelf => self.rax = 0,
                Dec::XorRdx => self.rax ^= self.rdx,
                Dec::ShlCl => {
                    self.rax = (self.rax as i64).wrapping_shl(self.rcx as u32 & 63) as u64;
                }
                Dec::SarCl => {
                    self.rax = (self.rax as i64).wrapping_shr(self.rcx as u32 & 63) as u64;
                }
                Dec::ShrCl => self.rax = self.rax.wrapping_shr(self.rcx as u32 & 63),
                Dec::NegRax => self.rax = (self.rax as i64).wrapping_neg() as u64,
                Dec::Cqo => self.rdx = ((self.rax as i64) >> 63) as u64,
                Dec::IdivRcx => {
                    // The encoder guards zero and MIN/-1 before `idiv`.
                    let a = self.rax as i64;
                    let b = self.rcx as i64;
                    let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) else {
                        return Err(self.bad_code(format!("unguarded idiv {a} / {b}")));
                    };
                    self.rax = q as u64;
                    self.rdx = r as u64;
                }
                Dec::MovRaxRdx => self.rax = self.rdx,
                Dec::TestRax => {
                    // `test rax, rax` exists only in the explicit null
                    // check expansion — the census fingerprint.
                    self.stats.explicit_null_checks += 1;
                    self.cmp = (self.rax, 0);
                }
                Dec::TestRcx => self.cmp = (self.rcx, 0),
                Dec::CmpRaxRcx => self.cmp = (self.rax, self.rcx),
                Dec::CmpRaxRdx => self.cmp = (self.rax, self.rdx),
                Dec::CmpRcxM1 => self.cmp = (self.rcx, u64::MAX),
                Dec::AndRax1 => self.rax &= 1,
                Dec::LeaRbp { disp } => self.rbp = self.rbp.wrapping_add(disp as i64 as u64),
                Dec::MovsdLoad { xmm, slot } => {
                    let v = self.read_slot(slot);
                    if xmm == 0 {
                        self.xmm0 = v;
                    } else {
                        self.xmm1 = v;
                    }
                }
                Dec::MovsdStore { slot } => {
                    let v = self.xmm0;
                    self.write_slot(slot, v);
                }
                Dec::Addsd => self.fop(|x, y| x + y),
                Dec::Subsd => self.fop(|x, y| x - y),
                Dec::Mulsd => self.fop(|x, y| x * y),
                Dec::Divsd => self.fop(|x, y| x / y),
                Dec::Cmpsd { pred } => {
                    let x = f64::from_bits(self.xmm0);
                    let y = f64::from_bits(self.xmm1);
                    let r = match pred {
                        0 => x == y,
                        1 => x < y,
                        2 => x <= y,
                        4 => x != y,
                        p => return Err(self.bad_code(format!("unemitted cmpsd predicate {p}"))),
                    };
                    self.xmm0 = if r { u64::MAX } else { 0 };
                }
                Dec::Cvtsi2sd => self.xmm0 = ((self.rax as i64) as f64).to_bits(),
                Dec::MovqRaxXmm0 => self.rax = self.xmm0,
                Dec::Jcc { cc, rel } => {
                    let (a, b) = (self.cmp.0 as i64, self.cmp.1 as i64);
                    let taken = match cc {
                        0x84 => a == b,
                        0x85 => a != b,
                        0x8C => a < b,
                        0x8E => a <= b,
                        0x8F => a > b,
                        0x8D => a >= b,
                        c => return Err(self.bad_code(format!("unemitted jcc {c:#x}"))),
                    };
                    if taken {
                        self.pc = (next as i64 + i64::from(rel)) as usize;
                        continue;
                    }
                }
                Dec::Jmp8 { opcode, rel } => {
                    let taken = match opcode {
                        0x75 => self.cmp.0 != self.cmp.1,
                        0x72 => self.cmp.0 < self.cmp.1,
                        0xEB => true,
                        c => return Err(self.bad_code(format!("unemitted short jump {c:#x}"))),
                    };
                    if taken {
                        self.pc = (next as i64 + i64::from(rel)) as usize;
                        continue;
                    }
                }
                Dec::Jmp { rel } => {
                    self.pc = (next as i64 + i64::from(rel)) as usize;
                    continue;
                }
                Dec::Call { .. } => {
                    self.enter(d.callee as usize, next)?;
                    continue;
                }
                Dec::Ret => match self.frames.pop() {
                    Some(frame) => {
                        self.pc = frame.ret_addr;
                        self.fidx = frame.caller;
                        // rbp is restored by the caller's `lea` epilogue.
                        continue;
                    }
                    None => return Ok(None),
                },
                Dec::Syscall => match self.eax {
                    abi::SVC_RAISE => {
                        let Some(kind) = abi::exception_from_tag(self.edi, self.rdx as i64) else {
                            return Err(self.bad_code(format!("unemitted raise tag {}", self.edi)));
                        };
                        raise!(kind);
                    }
                    abi::SVC_NEWOBJ => {
                        let Some(class) = self.em.classes.get(self.edi as usize) else {
                            return Err(self.bad_code(format!("unemitted class id {}", self.edi)));
                        };
                        let addr = match self.mem.alloc(class.size.max(8)) {
                            Ok(addr) => addr,
                            Err(e) => return Err(self.heap_exhausted(e)),
                        };
                        self.mem
                            .write_u64(addr, u64::from(self.edi) + 1)
                            .expect("fresh allocation");
                        self.rax = addr;
                    }
                    abi::SVC_NEWARR => {
                        let l = self.read_slot(self.esi) as i64;
                        if l < 0 {
                            raise!(ExceptionKind::NegativeArraySize);
                        }
                        let addr = match self.mem.alloc_slots(16, l as u64) {
                            Ok(addr) => addr,
                            Err(e) => return Err(self.heap_exhausted(e)),
                        };
                        self.mem
                            .write_u64(addr, l as u64)
                            .expect("fresh allocation");
                        self.mem
                            .write_u64(addr + 8, u64::from(self.edi))
                            .expect("fresh allocation");
                        self.rax = addr;
                    }
                    abi::SVC_OBSERVE => {
                        let Some(ty) = abi::type_from_tag(self.edi) else {
                            return Err(self.bad_code(format!("unemitted type tag {}", self.edi)));
                        };
                        let bits = self.read_slot(self.esi);
                        self.trace.push(MValue::from_bits(bits, ty));
                    }
                    abi::SVC_MATH => {
                        let Some(op) = abi::intrinsic_from_tag(self.edi) else {
                            return Err(
                                self.bad_code(format!("unemitted intrinsic tag {}", self.edi))
                            );
                        };
                        let x = f64::from_bits(self.read_slot(self.esi));
                        self.rax = op.apply(x).to_bits();
                    }
                    abi::SVC_CVT_TO_INT => {
                        let x = f64::from_bits(self.read_slot(self.esi));
                        self.rax = (x as i64) as u64;
                    }
                    abi::SVC_FREM => {
                        let x = f64::from_bits(self.read_slot(self.edi));
                        let y = f64::from_bits(self.read_slot(self.esi));
                        self.rax = (x % y).to_bits();
                    }
                    abi::SVC_CALLV => {
                        let Some(method) = self.em.method_names.get(self.edi as usize) else {
                            return Err(self.bad_code(format!("unemitted method id {}", self.edi)));
                        };
                        let tag = self.rdx;
                        let class = match tag {
                            0 => None,
                            t => self.em.classes.get((t - 1) as usize),
                        };
                        let callee = class.and_then(|c| {
                            c.methods
                                .binary_search_by_key(&self.edi, |(mid, _)| *mid)
                                .ok()
                                .map(|i| c.methods[i].1 as usize)
                        });
                        match callee {
                            Some(callee) => {
                                self.enter(callee, next)?;
                                continue;
                            }
                            None => {
                                return Err(MachineFault::BadDispatch {
                                    method: method.clone(),
                                })
                            }
                        }
                    }
                    id => return Err(self.bad_code(format!("unemitted service id {id}"))),
                },
            }
            self.pc = next;
        }
    }

    fn fop(&mut self, f: impl Fn(f64, f64) -> f64) {
        self.xmm0 = f(f64::from_bits(self.xmm0), f64::from_bits(self.xmm1)).to_bits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::emit_module;
    use njc_codegen::lower_module;
    use njc_ir::{parse_function, Module};
    use njc_opt::ConfigKind;

    #[test]
    fn byte_machine_matches_vm_on_demo() {
        let mut m = Module::new("demo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = new class0\n  v1 = const 21\n  putfield v0, field0, v1\n  v2 = getfield v0, field0 [site]\n  v2 = add.int v2, v2\n  return v2\n}",
            )
            .unwrap(),
        );
        let platform = Platform::windows_ia32();
        let vm = njc_vm::run_module(&m, platform, "main", &[]).unwrap();
        let em = emit_module(&lower_module(&m), 1);
        let out = ByteMachine::new(&em, platform).run("main").unwrap();
        assert_eq!(out.result, Some(MValue::Int(42)));
        assert_eq!(vm.result, Some(njc_vm::Value::Int(42)));
        assert_eq!(out.exception, vm.exception);
        assert!(out.trace.is_empty() && vm.trace.is_empty());
        assert_eq!(out.stats.traps_taken, vm.stats.traps_taken);
        assert_eq!(
            out.stats.explicit_null_checks,
            vm.stats.explicit_null_checks
        );
    }

    #[test]
    fn snapshot_mode_captures_frame_at_site_trap() {
        let mut m = Module::new("snapdemo");
        m.add_class("C", &[("x", Type::Int), ("y", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = const null\n  v1 = const 41\n  v2 = getfield v0, field1 [site]\n  return v2\n}",
            )
            .unwrap(),
        );
        let mm = lower_module(&m);
        let em = emit_module(&mm, 1);
        let out = ByteMachine::new(&em, Platform::windows_ia32())
            .run_until_site_trap("main")
            .unwrap();
        let TrapOutcome::Trapped(snap) = out else {
            panic!("expected a site trap, got {out:?}");
        };
        assert_eq!(snap.function, "main");
        assert_eq!(snap.kind, AccessKind::Read);
        assert_eq!(snap.offset, Some(16), "field1 lives at byte offset 16");
        // Frame slot 1 holds r1 = 41; slot 0 holds the null base.
        assert_eq!(snap.frame[0], 0);
        assert_eq!(snap.frame[1], 41);
        // A program with no trapping site completes with the same outcome
        // run() produces.
        let mut m2 = Module::new("clean");
        m2.add_class("C", &[("x", Type::Int)]);
        m2.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = new class0\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        let mm2 = lower_module(&m2);
        let em2 = emit_module(&mm2, 1);
        let done = ByteMachine::new(&em2, Platform::windows_ia32())
            .run_until_site_trap("main")
            .unwrap();
        let reference = ByteMachine::new(&em2, Platform::windows_ia32())
            .run("main")
            .unwrap();
        assert_eq!(done, TrapOutcome::Completed(reference));
    }

    #[test]
    fn trap_at_site_raises_npe_through_bytes() {
        let mut m = Module::new("trapdemo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = const null\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        let mm = lower_module(&m);
        let em = emit_module(&mm, 1);
        let out = ByteMachine::new(&em, Platform::windows_ia32())
            .run("main")
            .unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.traps_taken, 1);
    }

    #[test]
    fn decode_table_agrees_with_the_decoder() {
        // The 17 programs on both perfbench `suite_exec` legs: every entry
        // a run filled is what `decode_one` decodes at that pc, and every
        // resolved callee is `function_at` of the call target.
        let legs = [
            (Platform::windows_ia32(), ConfigKind::Full),
            (Platform::aix_ppc(), ConfigKind::AixSpeculation),
        ];
        for (platform, kind) in legs {
            for w in njc_workloads::all() {
                let mut m = w.module;
                njc_opt::optimize_module(&mut m, &platform, &kind.to_config(&platform));
                let em = emit_module(&lower_module(&m), 1);
                let (exec, _, _) = ByteMachine::new(&em, platform).exec("main", false).unwrap();
                let mut filled = 0;
                for (pc, &entry) in exec.at.iter().enumerate().filter(|(_, &e)| e != 0) {
                    let len = (entry & LEN_MASK) as usize;
                    let d = exec.decoded[(entry >> LEN_BITS) as usize];
                    assert_eq!(decode_one(&em.text, pc), Ok((d.dec, len)), "{}", w.name);
                    if let Dec::Call { rel } = d.dec {
                        let target = (pc + len) as i64 + i64::from(rel);
                        assert_eq!(
                            em.function_at(target as u32),
                            Some(d.callee as usize),
                            "{} call at {pc:#x}",
                            w.name
                        );
                    }
                    filled += 1;
                }
                assert_eq!(
                    filled,
                    exec.decoded.len(),
                    "{}: one entry per decode",
                    w.name
                );
            }
        }
    }
}
