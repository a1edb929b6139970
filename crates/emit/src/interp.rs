//! The byte-level interpreter: executes emitted x86-64 bytes directly
//! over the guarded memory.
//!
//! This is the encoder-faithful referee: it knows nothing about the
//! virtual ISA — it decodes the actual bytes ([`crate::decode`]), keeps
//! frame slots in an upward-growing stack addressed by `rbp`, and
//! resolves hardware traps by **binary** exception-site lookup (the
//! function-relative byte offset of the faulting instruction against
//! `.njc.exctab`). Observable behaviour — result, escaped exception,
//! observation trace, exception events, final heap digest,
//! trap/check/missed-NPE counters — must match the IR interpreter
//! (`njc-vm`) running the same optimized module; the difftest harness
//! holds it to that. Objects and arrays are allocated through the same
//! `njc-trap` layout functions the IR interpreter uses, so the two heaps
//! agree word for word.
//!
//! Each run decodes its code once, a block at a time. The first time
//! execution reaches a pc, [`decode_one`] decodes from there up to and
//! including the first control transfer (`jcc`, short jump, `call`,
//! `ret`, `syscall`) or up to the function's end. An unconditional `jmp`
//! does not end the block: the block goes on at its target, a bounded
//! number of times and only to code not yet in the block, so a taken
//! `jmp` costs no block lookup. Each instruction is lowered into a flat
//! op (slot moves split by register, jump conditions and targets and call
//! targets resolved), and then each fixed slot sequence the encoder emits
//! for one IR operation is fused into one three-address superinstruction:
//! `mov rax, [a]; mov rcx, [b]; add rax, rcx; mov [d], rax` becomes one
//! op, and so do the other ALU and float operations, field and array
//! loads and stores, slot-to-slot moves, a compare of two slots with its
//! `jcc`, and the explicit null check. Every later visit to that pc runs
//! the block's ops through one `match`. Blocks are keyed by their first
//! pc and may overlap, so a jump to any offset sees exactly what
//! [`decode_one`] decodes there. An instruction that does not decode,
//! padding, and a jump or call whose target is out of bounds end the
//! block before them; they fault as a [`MachineFault::BadCode`] only when
//! execution reaches them, never a panic.
//!
//! A fused op leaves every register as the sequence it stands for would.
//! Its pc, which only the cold paths read (site lookup, trap capture,
//! unwinding and faults), is that of its one instruction that can trap,
//! the heap access; an op without one takes the pc of its slot store, the
//! only [`MachineFault::BadCode`] it can raise, or else its first pc.
//!
//! Fuel is charged per block: entering a block charges all of its
//! instructions when the budget covers them. Otherwise the block is
//! lowered again without fusion or `jmp` following, one op per
//! instruction, and exactly the instructions the budget has left run
//! before the run stops with [`MachineFault::OutOfFuel`]. A hardware trap
//! that leaves a block early refunds the instructions after the faulting
//! one, counted by position in the block, so `MachineStats::insts` counts
//! exactly the instructions executed.

use njc_arch::Platform;
use njc_codegen::{MachineFault, MachineOutcome, MachineStats};
use njc_ir::{AccessKind, CheckId, ClassId, ExceptionKind, Type, Value};
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

/// One emitted instruction, or a superinstruction, lowered for dispatch.
/// A jump's operand is its absolute target and a call's the callee's
/// function index; the fall-through pc of a block's last op is the
/// block's `next`. A superinstruction packs its slots as `u16` beside at
/// most one `u32`, so an [`Inst`] is 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    /// `mov rax, [rbp + 8*slot]`.
    LoadRax(u32),
    /// `mov rcx, [rbp + 8*slot]`.
    LoadRcx(u32),
    /// `mov rdx, [rbp + 8*slot]`.
    LoadRdx(u32),
    /// `mov [rbp + 8*slot], rax`.
    StoreRax(u32),
    /// `mov [rbp + 8*slot], rcx`.
    StoreRcx(u32),
    /// `mov [rbp + 8*slot], rdx`.
    StoreRdx(u32),
    /// `mov rdx, [rax + disp]`.
    LoadMem(u32),
    /// `mov rdx, [rax + rcx*8 + disp]`.
    LoadMemIndexed(u32),
    /// `mov [rax + disp], rdx`.
    StoreMem(u32),
    /// `mov [rax + rcx*8 + disp], rdx`.
    StoreMemIndexed(u32),
    /// `movabs rax, hi:lo`.
    MovAbsRax(u32, u32),
    /// `movabs rcx, hi:lo`.
    MovAbsRcx(u32, u32),
    /// `movabs rdx, hi:lo`.
    MovAbsRdx(u32, u32),
    MovEax(u32),
    MovEdi(u32),
    MovEsi(u32),
    AddRcx,
    AddRdx,
    SubRcx,
    MulRcx,
    AndRcx,
    OrRcx,
    XorRcx,
    XorSelf,
    XorRdx,
    ShlCl,
    SarCl,
    ShrCl,
    NegRax,
    Cqo,
    IdivRcx,
    MovRaxRdx,
    TestRax,
    TestRcx,
    CmpRaxRcx,
    CmpRaxRdx,
    CmpRcxM1,
    AndRax1,
    LeaRbp(i32),
    /// `movsd xmm0, [rbp + 8*slot]`.
    MovsdXmm0(u32),
    /// `movsd xmm1, [rbp + 8*slot]`.
    MovsdXmm1(u32),
    MovsdStore(u32),
    Addsd,
    Subsd,
    Mulsd,
    Divsd,
    CmpsdEq,
    CmpsdLt,
    CmpsdLe,
    CmpsdNe,
    Cvtsi2sd,
    MovqRaxXmm0,
    // Superinstructions, each the whole slot sequence of one IR
    // operation (see `superinstruction`).
    /// `mov rax, [a]; mov rcx, [b]; add rax, rcx; mov [d], rax` as
    /// `Add(a, b, d)`, and likewise for the other integer ALU ops.
    Add(u16, u16, u16),
    Sub(u16, u16, u16),
    Mul(u16, u16, u16),
    And(u16, u16, u16),
    Or(u16, u16, u16),
    Xor(u16, u16, u16),
    Shl(u16, u16, u16),
    Sar(u16, u16, u16),
    Shr(u16, u16, u16),
    /// `movsd xmm0, [a]; movsd xmm1, [b]; addsd xmm0, xmm1;
    /// movsd [d], xmm0` as `Fadd(a, b, d)`, and likewise for the others.
    Fadd(u16, u16, u16),
    Fsub(u16, u16, u16),
    Fmul(u16, u16, u16),
    Fdiv(u16, u16, u16),
    /// `mov rax, [s]; mov [d], rax` as `Move(s, d)`.
    Move(u16, u16),
    /// `mov rax, [obj]; mov rdx, [rax + disp]; mov [d], rdx` as
    /// `GetField(obj, d, disp)`.
    GetField(u16, u16, u32),
    /// `mov rax, [arr]; mov rcx, [i]; mov rdx, [rax + rcx*8 + disp];
    /// mov [d], rdx` as `GetElem(arr, i, d, disp)`.
    GetElem(u16, u16, u16, u32),
    /// `mov rax, [obj]; mov rdx, [v]; mov [rax + disp], rdx` as
    /// `PutField(obj, v, disp)`.
    PutField(u16, u16, u32),
    /// `mov rax, [arr]; mov rcx, [i]; mov rdx, [v];
    /// mov [rax + rcx*8 + disp], rdx` as `PutElem(arr, i, v, disp)`.
    PutElem(u16, u16, u16, u32),
    // Control transfers, always a block's last op. The conditions
    // compare the last `cmp`/`test` operands, signed except `Jb`.
    Je(u32),
    Jne(u32),
    Jl(u32),
    Jle(u32),
    Jg(u32),
    Jge(u32),
    Jb(u32),
    Jmp(u32),
    /// `mov rax, [a]; mov rcx, [b]; cmp rax, rcx; je t` as
    /// `BrEq(a, b, t)`, and likewise for the other conditions.
    BrEq(u16, u16, u32),
    BrNe(u16, u16, u32),
    BrLt(u16, u16, u32),
    BrLe(u16, u16, u32),
    BrGt(u16, u16, u32),
    BrGe(u16, u16, u32),
    BrB(u16, u16, u32),
    /// The explicit null check `mov rax, [r]; test rax, rax; jne t` as
    /// `NullCheck(r, t)`.
    NullCheck(u16, u32),
    Call(u32),
    Ret,
    Syscall,
}

impl Op {
    /// Whether the op may transfer control, which ends its block.
    fn ends_block(self) -> bool {
        matches!(
            self,
            Op::Je(_)
                | Op::Jne(_)
                | Op::Jl(_)
                | Op::Jle(_)
                | Op::Jg(_)
                | Op::Jge(_)
                | Op::Jb(_)
                | Op::Jmp(_)
                | Op::BrEq(..)
                | Op::BrNe(..)
                | Op::BrLt(..)
                | Op::BrLe(..)
                | Op::BrGt(..)
                | Op::BrGe(..)
                | Op::BrB(..)
                | Op::NullCheck(..)
                | Op::Call(_)
                | Op::Ret
                | Op::Syscall
        )
    }
}

/// The byte lengths of `mov rdx, [rax + disp32]` and
/// `mov rdx, [rax + rcx*8 + disp32]`: a fused load's slot store lies
/// this far past the load's pc.
const LOAD_MEM_LEN: usize = 7;
const LOAD_MEM_INDEXED_LEN: usize = 8;

/// The most `jmp`s one block follows.
const MAX_FOLLOWED: usize = 8;

/// The superinstruction that the slot sequence `s` starts with, and how
/// many of its single-instruction ops it stands for. It takes the pc of
/// its heap access, else of its slot store, else of its first
/// instruction. A slot of 2^16 or more stays unfused.
fn superinstruction(s: &[Inst]) -> Option<(Inst, usize)> {
    use Op::*;
    let op = |k: usize| s.get(k).map(|i| i.op);
    let w = |slot: u32| u16::try_from(slot).ok();
    // The fused op, the index of the instruction whose pc it takes, and
    // the instructions it stands for. The patterns are disjoint.
    let (fused, at, n) = match (op(0)?, op(1)?, op(2), op(3)) {
        (LoadRax(a), LoadRcx(b), Some(alu), Some(StoreRax(d))) => {
            let (a, b, d) = (w(a)?, w(b)?, w(d)?);
            let fused = match alu {
                AddRcx => Add(a, b, d),
                SubRcx => Sub(a, b, d),
                MulRcx => Mul(a, b, d),
                AndRcx => And(a, b, d),
                OrRcx => Or(a, b, d),
                XorRcx => Xor(a, b, d),
                ShlCl => Shl(a, b, d),
                SarCl => Sar(a, b, d),
                ShrCl => Shr(a, b, d),
                _ => return None,
            };
            (fused, 3, 4)
        }
        (MovsdXmm0(a), MovsdXmm1(b), Some(fop), Some(MovsdStore(d))) => {
            let (a, b, d) = (w(a)?, w(b)?, w(d)?);
            let fused = match fop {
                Addsd => Fadd(a, b, d),
                Subsd => Fsub(a, b, d),
                Mulsd => Fmul(a, b, d),
                Divsd => Fdiv(a, b, d),
                _ => return None,
            };
            (fused, 3, 4)
        }
        (LoadRax(a), LoadRcx(b), Some(CmpRaxRcx), Some(jcc)) => {
            let (a, b) = (w(a)?, w(b)?);
            let fused = match jcc {
                Je(t) => BrEq(a, b, t),
                Jne(t) => BrNe(a, b, t),
                Jl(t) => BrLt(a, b, t),
                Jle(t) => BrLe(a, b, t),
                Jg(t) => BrGt(a, b, t),
                Jge(t) => BrGe(a, b, t),
                Jb(t) => BrB(a, b, t),
                _ => return None,
            };
            (fused, 0, 4)
        }
        (LoadRax(a), LoadRcx(i), Some(LoadMemIndexed(disp)), Some(StoreRdx(d))) => {
            (GetElem(w(a)?, w(i)?, w(d)?, disp), 2, 4)
        }
        (LoadRax(a), LoadRcx(i), Some(LoadRdx(v)), Some(StoreMemIndexed(disp))) => {
            (PutElem(w(a)?, w(i)?, w(v)?, disp), 3, 4)
        }
        (LoadRax(a), LoadMem(disp), Some(StoreRdx(d)), _) => (GetField(w(a)?, w(d)?, disp), 1, 3),
        (LoadRax(a), LoadRdx(v), Some(StoreMem(disp)), _) => (PutField(w(a)?, w(v)?, disp), 2, 3),
        (LoadRax(a), TestRax, Some(Jne(t)), _) => (NullCheck(w(a)?, t), 0, 3),
        (LoadRax(a), StoreRax(d), _, _) => (Move(w(a)?, w(d)?), 1, 2),
        _ => return None,
    };
    Some((
        Inst {
            pc: s[at].pc,
            op: fused,
        },
        n,
    ))
}

/// An op and the absolute pc it answers for: its own instruction's, or
/// for a superinstruction the one [`superinstruction`] names.
#[derive(Clone, Copy, Debug)]
struct Inst {
    pc: u32,
    op: Op,
}

const _: () = assert!(std::mem::size_of::<Inst>() == 16);

/// A trace of code: `ops[first..end]`, standing for `insts` instructions
/// (the `jmp`s it follows included), after which execution falls
/// through to `next`.
#[derive(Clone, Copy, Debug)]
struct Block {
    first: u32,
    end: u32,
    insts: u32,
    next: u32,
}

/// A run's decoded code.
#[derive(Default)]
struct Code {
    /// Indexed by absolute `.text` offset: 0 until execution first
    /// reaches that pc as the start of a block, then 1 + the block's
    /// index in `blocks`.
    at: Vec<u32>,
    blocks: Vec<Block>,
    ops: Vec<Inst>,
    /// Scratch for the block being lowered: one op per instruction, in
    /// the order the block runs them.
    singles: Vec<Inst>,
}

/// Where execution goes after an exception or a service request.
enum Resume {
    /// Continue at this pc.
    At(usize),
    /// The run is over: an escaped exception, or `None` for a captured
    /// snapshot.
    Exit(Option<ExceptionKind>),
}

struct Exec<'m> {
    em: &'m EmittedModule,
    /// The run's blocks; [`Exec::run`] takes them apart from the machine
    /// state it mutates.
    code: Code,
    mem: GuardedMemory,
    stats: MachineStats,
    trace: Vec<Value>,
    /// Every exception raised, as (kind, trace length at the raise).
    events: Vec<(ExceptionKind, usize)>,
    fuel: u64,
    stack: Vec<u64>,
    /// Slot indices at or past this are a [`MachineFault::BadCode`]: no
    /// call chain within [`MAX_DEPTH`] reaches them (see
    /// [`slot_ceiling`]), so only a corrupted `lea rbp` or slot
    /// displacement can, and the stack never grows to them.
    slot_ceiling: usize,
    frames: Vec<Frame>,
    regs: Regs,
    eax: u32,
    edi: u32,
    esi: u32,
    rbp: u64,
    fidx: usize,
    /// Snapshot mode: stop at the first registered-site trap and capture
    /// the frame instead of unwinding.
    deopt: bool,
    /// The captured frame, when a registered site trapped in snapshot
    /// mode.
    snapshot: Option<TrapSnapshot>,
}

/// The registers the ops compute in. The run loop keeps them in a local
/// copy, written back to [`Exec::regs`] around the service call and when
/// the entry returns, the only exit whose outcome reads `rax`.
#[derive(Clone, Copy, Default)]
struct Regs {
    rax: u64,
    rcx: u64,
    rdx: u64,
    xmm0: u64,
    xmm1: u64,
    /// Last compare/test operand pair, signed semantics decided by the
    /// consuming jump.
    cmp: (u64, u64),
}

impl Regs {
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

    fn fop(&mut self, f: impl Fn(f64, f64) -> f64) {
        self.xmm0 = f(f64::from_bits(self.xmm0), f64::from_bits(self.xmm1)).to_bits();
    }

    fn fcmp(&mut self, f: impl Fn(f64, f64) -> bool) {
        let r = f(f64::from_bits(self.xmm0), f64::from_bits(self.xmm1));
        self.xmm0 = if r { u64::MAX } else { 0 };
    }
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
            None => (ret_ty.map(|t| Value::from_bits(exec.regs.rax, t)), None),
            Some(kind) => (None, Some(kind)),
        };
        MachineOutcome {
            result,
            exception,
            trace: exec.trace,
            events: exec.events,
            heap_digest: exec.mem.digest(),
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
            code: Code {
                at: vec![0; self.em.text.len()],
                ..Code::default()
            },
            mem: GuardedMemory::new(self.platform.trap),
            stats: MachineStats::default(),
            trace: Vec::new(),
            events: Vec::new(),
            fuel: self.fuel,
            stack: Vec::new(),
            slot_ceiling: slot_ceiling(self.em),
            frames: Vec::new(),
            regs: Regs::default(),
            eax: 0,
            edi: 0,
            esi: 0,
            rbp: 0,
            fidx,
            deopt,
            snapshot: None,
        };
        let mut code = std::mem::take(&mut exec.code);
        let outcome = exec.run(&mut code, f.text_off as usize);
        exec.code = code;
        Ok((exec, outcome?, f.ret))
    }
}

/// The frame-slot stack's ceiling for `em`: each of at most
/// [`MAX_DEPTH`] activations sits `num_regs` slots above its caller's, and
/// the innermost one touches its own registers plus the outgoing
/// arguments of a call, which fit in the callee's registers. So every
/// slot a well-formed run writes lies below `MAX_DEPTH + 2` of the
/// largest frame.
fn slot_ceiling(em: &EmittedModule) -> usize {
    let largest = em
        .functions
        .iter()
        .map(|f| f.num_regs as usize)
        .max()
        .unwrap_or(0);
    (MAX_DEPTH + 2) * largest.max(1)
}

impl Exec<'_> {
    fn func(&self) -> &EmittedFunction {
        &self.em.functions[self.fidx]
    }

    fn slot_index(&self, slot: u32) -> usize {
        (self.rbp / 8) as usize + slot as usize
    }

    fn read_slot(&self, slot: u32) -> u64 {
        let i = self.slot_index(slot);
        self.stack.get(i).copied().unwrap_or(0)
    }

    /// Writes a frame slot; `pc` is the writing instruction's, for the
    /// fault past the ceiling.
    #[inline]
    fn write_slot(&mut self, slot: u32, value: u64, pc: usize) -> Result<(), MachineFault> {
        let i = self.slot_index(slot);
        match self.stack.get_mut(i) {
            Some(s) => {
                *s = value;
                Ok(())
            }
            None => self.grow_stack(i, value, pc),
        }
    }

    /// [`Exec::write_slot`] past the end of the stack: doubles it, up to
    /// the ceiling.
    #[cold]
    fn grow_stack(&mut self, i: usize, value: u64, pc: usize) -> Result<(), MachineFault> {
        if i >= self.slot_ceiling {
            return Err(self.bad_code(
                pc,
                format!(
                    "frame slot {i} past the frame-stack ceiling {}",
                    self.slot_ceiling
                ),
            ));
        }
        let len = (i + 1).max(self.stack.len() * 2).min(self.slot_ceiling);
        self.stack.resize(len, 0);
        self.stack[i] = value;
        Ok(())
    }

    /// The site entry covering the instruction at `pc`, if any.
    fn site(&self, pc: usize) -> Option<&BinSite> {
        let f = self.func();
        let rel = (pc - f.text_off as usize) as u32;
        f.sites
            .binary_search_by_key(&rel, |s| s.byte_off)
            .ok()
            .map(|i| &f.sites[i])
    }

    /// Captures the frame trapping at `pc` for deoptimization: frame
    /// slots are virtual registers under the frame-slot ABI, so the copy
    /// *is* the interpreter locals array.
    fn capture(&self, site: BinSite, pc: usize) -> TrapSnapshot {
        let f = self.func();
        let base = (self.rbp / 8) as usize;
        let frame = (0..f.num_regs as usize)
            .map(|i| self.stack.get(base + i).copied().unwrap_or(0))
            .collect();
        TrapSnapshot {
            function: f.name.clone(),
            byte_off: (pc - f.text_off as usize) as u32,
            check: site.check,
            kind: site.kind,
            offset: site.offset,
            frame,
        }
    }

    /// A [`MachineFault::BadCode`] at `pc`.
    #[cold]
    fn bad_code(&self, pc: usize, detail: impl Into<String>) -> MachineFault {
        MachineFault::BadCode {
            function: self.func().name.clone(),
            pc,
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

    /// Decodes and lowers the block starting at `pc` and returns its
    /// index: the miss path of the run loop, taken once per block start
    /// per run.
    #[cold]
    fn fill(&self, code: &mut Code, pc: usize) -> Result<usize, MachineFault> {
        let next = self.lower_block(&mut code.singles, pc, true)?;
        let first = code.ops.len();
        let singles = &code.singles;
        let mut i = 0;
        while let Some(&single) = singles.get(i) {
            let (inst, n) = superinstruction(&singles[i..]).unwrap_or((single, 1));
            // A `jmp` the block followed runs as nothing.
            if !matches!(single.op, Op::Jmp(_)) || i + 1 == singles.len() {
                code.ops.push(inst);
            }
            i += n;
        }
        let index = code.blocks.len();
        let (Ok(entry), Ok(end)) = (u32::try_from(index + 1), u32::try_from(code.ops.len())) else {
            return Err(self.bad_code(pc, "more code than the block table indexes"));
        };
        code.blocks.push(Block {
            first: first as u32,
            end,
            insts: singles.len() as u32,
            next: next as u32,
        });
        code.at[pc] = entry;
        Ok(index)
    }

    /// Lowers the block starting at `pc` into `singles`, one op per
    /// instruction, and returns the pc it falls through to. The first
    /// instruction must lower; any later one that does not ends the block
    /// before it. With `follow`, the block goes on at the target of each
    /// `jmp` (which stays in `singles`), up to [`MAX_FOLLOWED`] times and
    /// only while it reaches code not yet in the block, so no pc occurs
    /// in it twice.
    fn lower_block(
        &self,
        singles: &mut Vec<Inst>,
        pc: usize,
        follow: bool,
    ) -> Result<usize, MachineFault> {
        let f = self.func();
        let func_end = (f.text_off + f.text_len) as usize;
        let lowered = |at: usize| {
            decode_one(&self.em.text, at)
                .map_err(|e| e.to_string())
                .and_then(|(dec, len)| Ok((self.lower(dec, at, len)?, len)))
        };
        singles.clear();
        // The byte ranges of the block's code before its last `jmp`
        // target, and where the code since then starts.
        let mut ranges = [(0, 0); MAX_FOLLOWED];
        let seen =
            |ranges: &[(usize, usize)], at: usize| ranges.iter().any(|r| (r.0..r.1).contains(&at));
        let (mut followed, mut from, mut cur) = (0, pc, pc);
        loop {
            let (op, len) = match lowered(cur) {
                Ok(lowered) => lowered,
                Err(detail) if cur == pc => return Err(self.bad_code(pc, detail)),
                Err(_) => break,
            };
            singles.push(Inst { pc: cur as u32, op });
            cur += len;
            if let Op::Jmp(target) = op {
                let target = target as usize;
                if follow
                    && followed < MAX_FOLLOWED
                    && !(from..cur).contains(&target)
                    && !seen(&ranges[..followed], target)
                    && lowered(target).is_ok()
                {
                    ranges[followed] = (from, cur);
                    followed += 1;
                    (from, cur) = (target, target);
                    continue;
                }
            }
            if op.ends_block() || cur >= func_end || seen(&ranges[..followed], cur) {
                break;
            }
        }
        Ok(cur)
    }

    /// Lowers the instruction `dec` of `len` bytes at `pc`, or says why it
    /// must not run. A jump must stay inside the current function (so
    /// every later pc lies in `func()`), and a call must land inside some
    /// function.
    fn lower(&self, dec: Dec, pc: usize, len: usize) -> Result<Op, String> {
        let next = (pc + len) as i64;
        let jump = |rel: i64| {
            let target = next + rel;
            let f = self.func();
            if (i64::from(f.text_off)..i64::from(f.text_off + f.text_len)).contains(&target) {
                Ok(target as u32)
            } else {
                Err(format!("jump outside the current function to {target:#x}"))
            }
        };
        let split = |imm: u64| (imm as u32, (imm >> 32) as u32);
        Ok(match dec {
            Dec::Pad => return Err("execution ran into inter-function padding".into()),
            Dec::LoadSlot { reg, slot } => match reg {
                Scratch::Rax => Op::LoadRax(slot),
                Scratch::Rcx => Op::LoadRcx(slot),
                Scratch::Rdx => Op::LoadRdx(slot),
            },
            Dec::StoreSlot { slot, reg } => match reg {
                Scratch::Rax => Op::StoreRax(slot),
                Scratch::Rcx => Op::StoreRcx(slot),
                Scratch::Rdx => Op::StoreRdx(slot),
            },
            Dec::LoadMem { disp, indexed } => {
                if indexed {
                    Op::LoadMemIndexed(disp)
                } else {
                    Op::LoadMem(disp)
                }
            }
            Dec::StoreMem { disp, indexed } => {
                if indexed {
                    Op::StoreMemIndexed(disp)
                } else {
                    Op::StoreMem(disp)
                }
            }
            Dec::MovAbs { reg, imm } => {
                let (lo, hi) = split(imm);
                match reg {
                    Scratch::Rax => Op::MovAbsRax(lo, hi),
                    Scratch::Rcx => Op::MovAbsRcx(lo, hi),
                    Scratch::Rdx => Op::MovAbsRdx(lo, hi),
                }
            }
            Dec::MovImm32 { reg, imm } => match reg {
                Imm32Reg::Eax => Op::MovEax(imm),
                Imm32Reg::Edi => Op::MovEdi(imm),
                Imm32Reg::Esi => Op::MovEsi(imm),
            },
            Dec::AddRcx => Op::AddRcx,
            Dec::AddRdx => Op::AddRdx,
            Dec::SubRcx => Op::SubRcx,
            Dec::MulRcx => Op::MulRcx,
            Dec::AndRcx => Op::AndRcx,
            Dec::OrRcx => Op::OrRcx,
            Dec::XorRcx => Op::XorRcx,
            Dec::XorSelf => Op::XorSelf,
            Dec::XorRdx => Op::XorRdx,
            Dec::ShlCl => Op::ShlCl,
            Dec::SarCl => Op::SarCl,
            Dec::ShrCl => Op::ShrCl,
            Dec::NegRax => Op::NegRax,
            Dec::Cqo => Op::Cqo,
            Dec::IdivRcx => Op::IdivRcx,
            Dec::MovRaxRdx => Op::MovRaxRdx,
            Dec::TestRax => Op::TestRax,
            Dec::TestRcx => Op::TestRcx,
            Dec::CmpRaxRcx => Op::CmpRaxRcx,
            Dec::CmpRaxRdx => Op::CmpRaxRdx,
            Dec::CmpRcxM1 => Op::CmpRcxM1,
            Dec::AndRax1 => Op::AndRax1,
            Dec::LeaRbp { disp } => Op::LeaRbp(disp),
            Dec::MovsdLoad { xmm, slot } => {
                if xmm == 0 {
                    Op::MovsdXmm0(slot)
                } else {
                    Op::MovsdXmm1(slot)
                }
            }
            Dec::MovsdStore { slot } => Op::MovsdStore(slot),
            Dec::Addsd => Op::Addsd,
            Dec::Subsd => Op::Subsd,
            Dec::Mulsd => Op::Mulsd,
            Dec::Divsd => Op::Divsd,
            Dec::Cmpsd { pred } => match pred {
                0 => Op::CmpsdEq,
                1 => Op::CmpsdLt,
                2 => Op::CmpsdLe,
                4 => Op::CmpsdNe,
                p => return Err(format!("unemitted cmpsd predicate {p}")),
            },
            Dec::Cvtsi2sd => Op::Cvtsi2sd,
            Dec::MovqRaxXmm0 => Op::MovqRaxXmm0,
            Dec::Jcc { cc, rel } => {
                let target = jump(i64::from(rel))?;
                match cc {
                    0x84 => Op::Je(target),
                    0x85 => Op::Jne(target),
                    0x8C => Op::Jl(target),
                    0x8E => Op::Jle(target),
                    0x8F => Op::Jg(target),
                    0x8D => Op::Jge(target),
                    c => return Err(format!("unemitted jcc {c:#x}")),
                }
            }
            Dec::Jmp8 { opcode, rel } => {
                let target = jump(i64::from(rel))?;
                match opcode {
                    0x75 => Op::Jne(target),
                    0x72 => Op::Jb(target),
                    0xEB => Op::Jmp(target),
                    c => return Err(format!("unemitted short jump {c:#x}")),
                }
            }
            Dec::Jmp { rel } => Op::Jmp(jump(i64::from(rel))?),
            Dec::Call { rel } => {
                let target = next + i64::from(rel);
                let callee = u32::try_from(target)
                    .ok()
                    .and_then(|t| self.em.function_at(t))
                    .ok_or_else(|| format!("call outside every function at {target:#x}"))?;
                Op::Call(callee as u32)
            }
            Dec::Ret => Op::Ret,
            Dec::Syscall => Op::Syscall,
        })
    }

    /// Charges what is left of the budget, `left`, to the block at `pc`
    /// whose instructions exceed it: lowers the block again into
    /// `code.singles` without fusion or `jmp` following, one op per
    /// instruction, and returns how many of them run, the pc they fall
    /// through to, and whether the budget stops the run after them.
    #[cold]
    fn ration(
        &mut self,
        code: &mut Code,
        pc: usize,
        left: u64,
    ) -> Result<(usize, usize, bool), MachineFault> {
        let next = self.lower_block(&mut code.singles, pc, false)?;
        let n = code.singles.len();
        let run = usize::try_from(left).map_or(n, |left| left.min(n));
        self.stats.insts += run as u64;
        Ok((run, next, run < n))
    }

    /// How many instructions the block entered at `start` runs up to and
    /// including the one at `pc`, counted by position: a trace's pcs do
    /// not increase, but every `jmp` before `pc` is one the block
    /// followed, since any other ends it.
    fn ran_through(&self, start: usize, pc: usize) -> u64 {
        let (mut cur, mut n) = (start, 1);
        while cur != pc {
            let Ok((dec, len)) = decode_one(&self.em.text, cur) else {
                break;
            };
            cur += len;
            match dec {
                Dec::Jmp { rel } => cur = (cur as i64 + i64::from(rel)) as usize,
                Dec::Jmp8 { opcode: 0xEB, rel } => cur = (cur as i64 + i64::from(rel)) as usize,
                _ => {}
            }
            n += 1;
        }
        n
    }

    fn unexpected_trap(&self, pc: usize, kind: AccessKind, offset: Option<u64>) -> MachineFault {
        let f = self.func();
        let rel = pc - f.text_off as usize;
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

    /// A read at `pc` that the guard page answered: a marked site there
    /// missed its NPE.
    #[cold]
    fn guard_read(&mut self, pc: usize) {
        if self.site(pc).is_some() {
            self.stats.missed_npes += 1;
        }
    }

    /// The memory access at `pc` failed with `e`, inside the block
    /// entered at `start` that was charged `charged` instructions. A trap
    /// at a registered site raises the NPE (or, in snapshot mode,
    /// captures the frame) and refunds the block's instructions after
    /// `pc`, which will not run.
    #[cold]
    fn mem_fault(
        &mut self,
        e: MemoryError,
        pc: usize,
        kind: AccessKind,
        offset: Option<u64>,
        (start, charged): (usize, u64),
    ) -> Result<Resume, MachineFault> {
        match e {
            MemoryError::Trap(_) => {
                let Some(&site) = self.site(pc) else {
                    return Err(self.unexpected_trap(pc, kind, offset));
                };
                self.stats.traps_taken += 1;
                self.stats.insts -= charged - self.ran_through(start, pc);
                if self.deopt {
                    self.snapshot = Some(self.capture(site, pc));
                    return Ok(Resume::Exit(None));
                }
                self.unwind(ExceptionKind::NullPointer, pc)
            }
            MemoryError::WildAccess { address, .. } => Err(MachineFault::WildAccess {
                function: self.func().name.clone(),
                address,
            }),
        }
    }

    /// Records the raise of `kind` at `pc` and unwinds it: to the handler
    /// that catches it, or out of the entry frame.
    #[cold]
    fn unwind(&mut self, kind: ExceptionKind, mut pc: usize) -> Result<Resume, MachineFault> {
        self.events.push((kind, self.trace.len()));
        loop {
            let f = &self.em.functions[self.fidx];
            let rel = (pc - f.text_off as usize) as u32;
            let hit = f
                .handlers
                .iter()
                .find(|h| h.start <= rel && rel < h.end && h.catch.catches(kind));
            if let Some(h) = hit {
                let (handler, code_slot) = (h.handler, h.code_slot);
                let handler = f.text_off as usize + handler as usize;
                if let Some(slot) = code_slot {
                    self.write_slot(slot, kind.code() as u64, pc)?;
                }
                return Ok(Resume::At(handler));
            }
            match self.frames.pop() {
                Some(frame) => {
                    pc = frame.ret_addr;
                    self.fidx = frame.caller;
                    self.rbp = frame.rbp_restore;
                }
                None => return Ok(Resume::Exit(Some(kind))),
            }
        }
    }

    /// Pushes an activation and returns `callee`'s entry pc.
    fn enter(&mut self, callee: usize, ret_addr: usize) -> Result<usize, MachineFault> {
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
        Ok(self.em.functions[callee].text_off as usize)
    }

    /// The runtime service `eax` names, requested by the `syscall` at
    /// `pc` that returns to `next`.
    #[cold]
    fn service(&mut self, pc: usize, next: usize) -> Result<Resume, MachineFault> {
        match self.eax {
            abi::SVC_RAISE => {
                let Some(kind) = abi::exception_from_tag(self.edi, self.regs.rdx as i64) else {
                    return Err(self.bad_code(pc, format!("unemitted raise tag {}", self.edi)));
                };
                return self.unwind(kind, pc);
            }
            abi::SVC_NEWOBJ => {
                let Some(class) = self.em.classes.get(self.edi as usize) else {
                    return Err(self.bad_code(pc, format!("unemitted class id {}", self.edi)));
                };
                self.regs.rax = self
                    .mem
                    .alloc_object(ClassId(self.edi), class.size)
                    .map_err(|e| self.heap_exhausted(e))?;
            }
            abi::SVC_NEWARR => {
                let Some(elem) = abi::type_from_tag(self.edi) else {
                    return Err(self.bad_code(pc, format!("unemitted type tag {}", self.edi)));
                };
                let l = self.read_slot(self.esi) as i64;
                if l < 0 {
                    return self.unwind(ExceptionKind::NegativeArraySize, pc);
                }
                self.regs.rax = self
                    .mem
                    .alloc_array(elem, l as u64)
                    .map_err(|e| self.heap_exhausted(e))?;
            }
            abi::SVC_OBSERVE => {
                let Some(ty) = abi::type_from_tag(self.edi) else {
                    return Err(self.bad_code(pc, format!("unemitted type tag {}", self.edi)));
                };
                let bits = self.read_slot(self.esi);
                self.trace.push(Value::from_bits(bits, ty));
            }
            abi::SVC_MATH => {
                let Some(op) = abi::intrinsic_from_tag(self.edi) else {
                    return Err(self.bad_code(pc, format!("unemitted intrinsic tag {}", self.edi)));
                };
                let x = f64::from_bits(self.read_slot(self.esi));
                self.regs.rax = op.apply(x).to_bits();
            }
            abi::SVC_CVT_TO_INT => {
                let x = f64::from_bits(self.read_slot(self.esi));
                self.regs.rax = (x as i64) as u64;
            }
            abi::SVC_FREM => {
                let x = f64::from_bits(self.read_slot(self.edi));
                let y = f64::from_bits(self.read_slot(self.esi));
                self.regs.rax = (x % y).to_bits();
            }
            abi::SVC_CALLV => {
                let Some(method) = self.em.method_names.get(self.edi as usize) else {
                    return Err(self.bad_code(pc, format!("unemitted method id {}", self.edi)));
                };
                let class = njc_trap::class_from_header(self.regs.rdx)
                    .and_then(|c| self.em.classes.get(c.index()));
                let callee = class.and_then(|c| {
                    c.methods
                        .binary_search_by_key(&self.edi, |(mid, _)| *mid)
                        .ok()
                        .map(|i| c.methods[i].1 as usize)
                });
                let Some(callee) = callee else {
                    return Err(MachineFault::BadDispatch {
                        method: method.clone(),
                    });
                };
                return Ok(Resume::At(self.enter(callee, next)?));
            }
            id => return Err(self.bad_code(pc, format!("unemitted service id {id}"))),
        }
        Ok(Resume::At(next))
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        code: &mut Code,
        mut pc: usize,
    ) -> Result<Option<ExceptionKind>, MachineFault> {
        let mut r = self.regs;
        'blocks: loop {
            if self.stats.insts >= self.fuel {
                return Err(MachineFault::OutOfFuel);
            }
            let b = match code.at.get(pc) {
                Some(&b) if b != 0 => b as usize - 1,
                _ => self.fill(code, pc)?,
            };
            let block = code.blocks[b];
            let left = self.fuel - self.stats.insts;
            let (ops, next, charged, rationed) = if u64::from(block.insts) <= left {
                self.stats.insts += u64::from(block.insts);
                let ops = &code.ops[block.first as usize..block.end as usize];
                (ops, block.next as usize, u64::from(block.insts), false)
            } else {
                let (run, next, rationed) = self.ration(code, pc, left)?;
                (&code.singles[..run], next, run as u64, rationed)
            };
            // Continue at the pc a trap or service resumes at, or return.
            macro_rules! resume {
                ($resume:expr) => {
                    match $resume {
                        Resume::At(to) => {
                            pc = to;
                            continue 'blocks;
                        }
                        Resume::Exit(outcome) => return Ok(outcome),
                    }
                };
            }
            macro_rules! jump_if {
                ($taken:expr, $target:expr) => {
                    if $taken {
                        pc = $target as usize;
                        continue 'blocks;
                    }
                };
            }
            // `mov rdx, [rax (+ rcx*8) + disp]` at `$at`.
            macro_rules! load_mem {
                ($disp:expr, $indexed:expr, $at:expr) => {
                    match self.mem.read_u64(r.address($disp, $indexed)) {
                        Ok(out) => {
                            if out.from_guard {
                                self.guard_read($at);
                            }
                            r.rdx = out.value;
                        }
                        Err(e) => {
                            let offset = (!$indexed).then_some(u64::from($disp));
                            let block = (pc, charged);
                            resume!(self.mem_fault(e, $at, AccessKind::Read, offset, block)?);
                        }
                    }
                };
            }
            // `mov [rax (+ rcx*8) + disp], rdx` at `$at`.
            macro_rules! store_mem {
                ($disp:expr, $indexed:expr, $at:expr) => {
                    if let Err(e) = self.mem.write_u64(r.address($disp, $indexed), r.rdx) {
                        let offset = (!$indexed).then_some(u64::from($disp));
                        let block = (pc, charged);
                        resume!(self.mem_fault(e, $at, AccessKind::Write, offset, block)?);
                    }
                };
            }
            // An integer ALU superinstruction.
            macro_rules! alu {
                ($a:expr, $b:expr, $d:expr, $at:expr, |$x:ident, $y:ident| $value:expr) => {{
                    let ($x, $y) = (self.read_slot($a.into()), self.read_slot($b.into()));
                    r.rcx = $y;
                    r.rax = $value;
                    self.write_slot($d.into(), r.rax, $at)?;
                }};
            }
            // A float ALU superinstruction.
            macro_rules! falu {
                ($a:expr, $b:expr, $d:expr, $at:expr, $f:expr) => {{
                    r.xmm0 = self.read_slot($a.into());
                    r.xmm1 = self.read_slot($b.into());
                    r.fop($f);
                    self.write_slot($d.into(), r.xmm0, $at)?;
                }};
            }
            // A compare-two-slots-and-branch superinstruction.
            macro_rules! branch {
                ($a:expr, $b:expr, $t:expr, |$x:ident, $y:ident| $taken:expr) => {{
                    let ($x, $y) = (self.read_slot($a.into()), self.read_slot($b.into()));
                    (r.rax, r.rcx, r.cmp) = ($x, $y, ($x, $y));
                    jump_if!($taken, $t);
                }};
            }
            for &Inst { pc: at, op } in ops {
                let at = at as usize;
                match op {
                    Op::LoadRax(slot) => r.rax = self.read_slot(slot),
                    Op::LoadRcx(slot) => r.rcx = self.read_slot(slot),
                    Op::LoadRdx(slot) => r.rdx = self.read_slot(slot),
                    Op::StoreRax(slot) => self.write_slot(slot, r.rax, at)?,
                    Op::StoreRcx(slot) => self.write_slot(slot, r.rcx, at)?,
                    Op::StoreRdx(slot) => self.write_slot(slot, r.rdx, at)?,
                    Op::LoadMem(disp) => load_mem!(disp, false, at),
                    Op::LoadMemIndexed(disp) => load_mem!(disp, true, at),
                    Op::StoreMem(disp) => store_mem!(disp, false, at),
                    Op::StoreMemIndexed(disp) => store_mem!(disp, true, at),
                    Op::MovAbsRax(lo, hi) => r.rax = u64::from(hi) << 32 | u64::from(lo),
                    Op::MovAbsRcx(lo, hi) => r.rcx = u64::from(hi) << 32 | u64::from(lo),
                    Op::MovAbsRdx(lo, hi) => r.rdx = u64::from(hi) << 32 | u64::from(lo),
                    Op::MovEax(imm) => self.eax = imm,
                    Op::MovEdi(imm) => self.edi = imm,
                    Op::MovEsi(imm) => self.esi = imm,
                    Op::AddRcx => r.rax = r.rax.wrapping_add(r.rcx),
                    Op::AddRdx => r.rax = r.rax.wrapping_add(r.rdx),
                    Op::SubRcx => r.rax = r.rax.wrapping_sub(r.rcx),
                    Op::MulRcx => r.rax = r.rax.wrapping_mul(r.rcx),
                    Op::AndRcx => r.rax &= r.rcx,
                    Op::OrRcx => r.rax |= r.rcx,
                    Op::XorRcx => r.rax ^= r.rcx,
                    Op::XorSelf => r.rax = 0,
                    Op::XorRdx => r.rax ^= r.rdx,
                    Op::ShlCl => r.rax = shl(r.rax, r.rcx),
                    Op::SarCl => r.rax = sar(r.rax, r.rcx),
                    Op::ShrCl => r.rax = shr(r.rax, r.rcx),
                    Op::NegRax => r.rax = (r.rax as i64).wrapping_neg() as u64,
                    Op::Cqo => r.rdx = ((r.rax as i64) >> 63) as u64,
                    Op::IdivRcx => {
                        // The encoder guards zero and MIN/-1 before `idiv`.
                        let a = r.rax as i64;
                        let b = r.rcx as i64;
                        let (Some(q), Some(rem)) = (a.checked_div(b), a.checked_rem(b)) else {
                            return Err(self.bad_code(at, format!("unguarded idiv {a} / {b}")));
                        };
                        r.rax = q as u64;
                        r.rdx = rem as u64;
                    }
                    Op::MovRaxRdx => r.rax = r.rdx,
                    Op::TestRax => {
                        // `test rax, rax` exists only in the explicit null
                        // check expansion — the census fingerprint.
                        self.stats.explicit_null_checks += 1;
                        r.cmp = (r.rax, 0);
                    }
                    Op::TestRcx => r.cmp = (r.rcx, 0),
                    Op::CmpRaxRcx => r.cmp = (r.rax, r.rcx),
                    Op::CmpRaxRdx => r.cmp = (r.rax, r.rdx),
                    Op::CmpRcxM1 => r.cmp = (r.rcx, u64::MAX),
                    Op::AndRax1 => r.rax &= 1,
                    Op::LeaRbp(disp) => self.rbp = self.rbp.wrapping_add(disp as i64 as u64),
                    Op::MovsdXmm0(slot) => r.xmm0 = self.read_slot(slot),
                    Op::MovsdXmm1(slot) => r.xmm1 = self.read_slot(slot),
                    Op::MovsdStore(slot) => self.write_slot(slot, r.xmm0, at)?,
                    Op::Addsd => r.fop(|x, y| x + y),
                    Op::Subsd => r.fop(|x, y| x - y),
                    Op::Mulsd => r.fop(|x, y| x * y),
                    Op::Divsd => r.fop(|x, y| x / y),
                    Op::CmpsdEq => r.fcmp(|x, y| x == y),
                    Op::CmpsdLt => r.fcmp(|x, y| x < y),
                    Op::CmpsdLe => r.fcmp(|x, y| x <= y),
                    Op::CmpsdNe => r.fcmp(|x, y| x != y),
                    Op::Cvtsi2sd => r.xmm0 = ((r.rax as i64) as f64).to_bits(),
                    Op::MovqRaxXmm0 => r.rax = r.xmm0,
                    Op::Add(a, b, d) => alu!(a, b, d, at, |x, y| x.wrapping_add(y)),
                    Op::Sub(a, b, d) => alu!(a, b, d, at, |x, y| x.wrapping_sub(y)),
                    Op::Mul(a, b, d) => alu!(a, b, d, at, |x, y| x.wrapping_mul(y)),
                    Op::And(a, b, d) => alu!(a, b, d, at, |x, y| x & y),
                    Op::Or(a, b, d) => alu!(a, b, d, at, |x, y| x | y),
                    Op::Xor(a, b, d) => alu!(a, b, d, at, |x, y| x ^ y),
                    Op::Shl(a, b, d) => alu!(a, b, d, at, |x, y| shl(x, y)),
                    Op::Sar(a, b, d) => alu!(a, b, d, at, |x, y| sar(x, y)),
                    Op::Shr(a, b, d) => alu!(a, b, d, at, |x, y| shr(x, y)),
                    Op::Fadd(a, b, d) => falu!(a, b, d, at, |x, y| x + y),
                    Op::Fsub(a, b, d) => falu!(a, b, d, at, |x, y| x - y),
                    Op::Fmul(a, b, d) => falu!(a, b, d, at, |x, y| x * y),
                    Op::Fdiv(a, b, d) => falu!(a, b, d, at, |x, y| x / y),
                    Op::Move(a, d) => {
                        r.rax = self.read_slot(a.into());
                        self.write_slot(d.into(), r.rax, at)?;
                    }
                    Op::GetField(obj, d, disp) => {
                        r.rax = self.read_slot(obj.into());
                        load_mem!(disp, false, at);
                        self.write_slot(d.into(), r.rdx, at + LOAD_MEM_LEN)?;
                    }
                    Op::GetElem(arr, i, d, disp) => {
                        r.rax = self.read_slot(arr.into());
                        r.rcx = self.read_slot(i.into());
                        load_mem!(disp, true, at);
                        self.write_slot(d.into(), r.rdx, at + LOAD_MEM_INDEXED_LEN)?;
                    }
                    Op::PutField(obj, v, disp) => {
                        r.rax = self.read_slot(obj.into());
                        r.rdx = self.read_slot(v.into());
                        store_mem!(disp, false, at);
                    }
                    Op::PutElem(arr, i, v, disp) => {
                        r.rax = self.read_slot(arr.into());
                        r.rcx = self.read_slot(i.into());
                        r.rdx = self.read_slot(v.into());
                        store_mem!(disp, true, at);
                    }
                    Op::Je(t) => jump_if!(r.cmp.0 == r.cmp.1, t),
                    Op::Jne(t) => jump_if!(r.cmp.0 != r.cmp.1, t),
                    Op::Jl(t) => jump_if!((r.cmp.0 as i64) < r.cmp.1 as i64, t),
                    Op::Jle(t) => jump_if!(r.cmp.0 as i64 <= r.cmp.1 as i64, t),
                    Op::Jg(t) => jump_if!(r.cmp.0 as i64 > r.cmp.1 as i64, t),
                    Op::Jge(t) => jump_if!(r.cmp.0 as i64 >= r.cmp.1 as i64, t),
                    Op::Jb(t) => jump_if!(r.cmp.0 < r.cmp.1, t),
                    Op::Jmp(t) => jump_if!(true, t),
                    Op::BrEq(a, b, t) => branch!(a, b, t, |x, y| x == y),
                    Op::BrNe(a, b, t) => branch!(a, b, t, |x, y| x != y),
                    Op::BrLt(a, b, t) => branch!(a, b, t, |x, y| (x as i64) < y as i64),
                    Op::BrLe(a, b, t) => branch!(a, b, t, |x, y| x as i64 <= y as i64),
                    Op::BrGt(a, b, t) => branch!(a, b, t, |x, y| x as i64 > y as i64),
                    Op::BrGe(a, b, t) => branch!(a, b, t, |x, y| x as i64 >= y as i64),
                    Op::BrB(a, b, t) => branch!(a, b, t, |x, y| x < y),
                    Op::NullCheck(a, t) => {
                        r.rax = self.read_slot(a.into());
                        self.stats.explicit_null_checks += 1;
                        r.cmp = (r.rax, 0);
                        jump_if!(r.rax != 0, t);
                    }
                    Op::Call(callee) => {
                        pc = self.enter(callee as usize, next)?;
                        continue 'blocks;
                    }
                    Op::Ret => match self.frames.pop() {
                        Some(frame) => {
                            pc = frame.ret_addr;
                            self.fidx = frame.caller;
                            // rbp is restored by the caller's `lea` epilogue.
                            continue 'blocks;
                        }
                        None => {
                            self.regs = r;
                            return Ok(None);
                        }
                    },
                    Op::Syscall => {
                        self.regs = r;
                        let resume = self.service(at, next)?;
                        r = self.regs;
                        resume!(resume);
                    }
                }
            }
            if rationed {
                return Err(MachineFault::OutOfFuel);
            }
            pc = next;
        }
    }
}

/// `shl`, `sar` and `shr` of `x` by `cl`: hardware masks a 64-bit
/// operand's count to 6 bits.
fn shl(x: u64, count: u64) -> u64 {
    (x as i64).wrapping_shl(count as u32 & 63) as u64
}

fn sar(x: u64, count: u64) -> u64 {
    (x as i64).wrapping_shr(count as u32 & 63) as u64
}

fn shr(x: u64, count: u64) -> u64 {
    x.wrapping_shr(count as u32 & 63)
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
        assert_eq!(out.result, Some(Value::Int(42)));
        assert_eq!(vm.result, out.result);
        assert_eq!(out.exception, vm.exception);
        assert!(out.trace.is_empty() && vm.trace.is_empty());
        assert_eq!(out.heap_digest, vm.heap_digest, "one heap layout");
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

    /// How many instructions `op` stands for, and the index of the one
    /// whose pc it answers for.
    fn shape(op: Op) -> (usize, usize) {
        match op {
            Op::Add(..)
            | Op::Sub(..)
            | Op::Mul(..)
            | Op::And(..)
            | Op::Or(..)
            | Op::Xor(..)
            | Op::Shl(..)
            | Op::Sar(..)
            | Op::Shr(..)
            | Op::Fadd(..)
            | Op::Fsub(..)
            | Op::Fmul(..)
            | Op::Fdiv(..)
            | Op::PutElem(..) => (4, 3),
            Op::GetElem(..) => (4, 2),
            Op::BrEq(..)
            | Op::BrNe(..)
            | Op::BrLt(..)
            | Op::BrLe(..)
            | Op::BrGt(..)
            | Op::BrGe(..)
            | Op::BrB(..) => (4, 0),
            Op::PutField(..) => (3, 2),
            Op::GetField(..) => (3, 1),
            Op::NullCheck(..) => (3, 0),
            Op::Move(..) => (2, 1),
            _ => (1, 0),
        }
    }

    /// The instructions `op` stands for, given the `(pc, len)` of each:
    /// what [`decode_one`] must decode there. A call's target is checked
    /// apart, so it stands for the decoded call itself.
    #[allow(clippy::too_many_lines)]
    fn decs(op: Op, at: &[(usize, usize)], call: Dec) -> Vec<Dec> {
        use Scratch::{Rax, Rcx, Rdx};
        let (pc, len) = at[at.len() - 1];
        let rel = |target: u32| i64::from(target) - (pc + len) as i64;
        // Short forms are the near opcode minus 0x10.
        let jcc = |cc: u8, target: u32| match len {
            2 => Dec::Jmp8 {
                opcode: cc - 0x10,
                rel: rel(target) as i8,
            },
            _ => Dec::Jcc {
                cc,
                rel: rel(target) as i32,
            },
        };
        let imm = |lo: u32, hi: u32| u64::from(hi) << 32 | u64::from(lo);
        let one = |dec: Dec| vec![dec];
        let load = |reg: Scratch, slot: u16| Dec::LoadSlot {
            reg,
            slot: slot.into(),
        };
        let alu = |a: u16, b: u16, d: u16, alu: Dec| {
            vec![
                load(Rax, a),
                load(Rcx, b),
                alu,
                Dec::StoreSlot {
                    slot: d.into(),
                    reg: Rax,
                },
            ]
        };
        let falu = |a: u16, b: u16, d: u16, fop: Dec| {
            vec![
                Dec::MovsdLoad {
                    xmm: 0,
                    slot: a.into(),
                },
                Dec::MovsdLoad {
                    xmm: 1,
                    slot: b.into(),
                },
                fop,
                Dec::MovsdStore { slot: d.into() },
            ]
        };
        let branch = |a: u16, b: u16, cc: u8, t: u32| {
            vec![load(Rax, a), load(Rcx, b), Dec::CmpRaxRcx, jcc(cc, t)]
        };
        match op {
            Op::LoadRax(slot) => one(Dec::LoadSlot { reg: Rax, slot }),
            Op::LoadRcx(slot) => one(Dec::LoadSlot { reg: Rcx, slot }),
            Op::LoadRdx(slot) => one(Dec::LoadSlot { reg: Rdx, slot }),
            Op::StoreRax(slot) => one(Dec::StoreSlot { slot, reg: Rax }),
            Op::StoreRcx(slot) => one(Dec::StoreSlot { slot, reg: Rcx }),
            Op::StoreRdx(slot) => one(Dec::StoreSlot { slot, reg: Rdx }),
            Op::LoadMem(disp) => one(Dec::LoadMem {
                disp,
                indexed: false,
            }),
            Op::LoadMemIndexed(disp) => one(Dec::LoadMem {
                disp,
                indexed: true,
            }),
            Op::StoreMem(disp) => one(Dec::StoreMem {
                disp,
                indexed: false,
            }),
            Op::StoreMemIndexed(disp) => one(Dec::StoreMem {
                disp,
                indexed: true,
            }),
            Op::MovAbsRax(lo, hi) => one(Dec::MovAbs {
                reg: Rax,
                imm: imm(lo, hi),
            }),
            Op::MovAbsRcx(lo, hi) => one(Dec::MovAbs {
                reg: Rcx,
                imm: imm(lo, hi),
            }),
            Op::MovAbsRdx(lo, hi) => one(Dec::MovAbs {
                reg: Rdx,
                imm: imm(lo, hi),
            }),
            Op::MovEax(imm) => one(Dec::MovImm32 {
                reg: Imm32Reg::Eax,
                imm,
            }),
            Op::MovEdi(imm) => one(Dec::MovImm32 {
                reg: Imm32Reg::Edi,
                imm,
            }),
            Op::MovEsi(imm) => one(Dec::MovImm32 {
                reg: Imm32Reg::Esi,
                imm,
            }),
            Op::AddRcx => one(Dec::AddRcx),
            Op::AddRdx => one(Dec::AddRdx),
            Op::SubRcx => one(Dec::SubRcx),
            Op::MulRcx => one(Dec::MulRcx),
            Op::AndRcx => one(Dec::AndRcx),
            Op::OrRcx => one(Dec::OrRcx),
            Op::XorRcx => one(Dec::XorRcx),
            Op::XorSelf => one(Dec::XorSelf),
            Op::XorRdx => one(Dec::XorRdx),
            Op::ShlCl => one(Dec::ShlCl),
            Op::SarCl => one(Dec::SarCl),
            Op::ShrCl => one(Dec::ShrCl),
            Op::NegRax => one(Dec::NegRax),
            Op::Cqo => one(Dec::Cqo),
            Op::IdivRcx => one(Dec::IdivRcx),
            Op::MovRaxRdx => one(Dec::MovRaxRdx),
            Op::TestRax => one(Dec::TestRax),
            Op::TestRcx => one(Dec::TestRcx),
            Op::CmpRaxRcx => one(Dec::CmpRaxRcx),
            Op::CmpRaxRdx => one(Dec::CmpRaxRdx),
            Op::CmpRcxM1 => one(Dec::CmpRcxM1),
            Op::AndRax1 => one(Dec::AndRax1),
            Op::LeaRbp(disp) => one(Dec::LeaRbp { disp }),
            Op::MovsdXmm0(slot) => one(Dec::MovsdLoad { xmm: 0, slot }),
            Op::MovsdXmm1(slot) => one(Dec::MovsdLoad { xmm: 1, slot }),
            Op::MovsdStore(slot) => one(Dec::MovsdStore { slot }),
            Op::Addsd => one(Dec::Addsd),
            Op::Subsd => one(Dec::Subsd),
            Op::Mulsd => one(Dec::Mulsd),
            Op::Divsd => one(Dec::Divsd),
            Op::CmpsdEq => one(Dec::Cmpsd { pred: 0 }),
            Op::CmpsdLt => one(Dec::Cmpsd { pred: 1 }),
            Op::CmpsdLe => one(Dec::Cmpsd { pred: 2 }),
            Op::CmpsdNe => one(Dec::Cmpsd { pred: 4 }),
            Op::Cvtsi2sd => one(Dec::Cvtsi2sd),
            Op::MovqRaxXmm0 => one(Dec::MovqRaxXmm0),
            Op::Add(a, b, d) => alu(a, b, d, Dec::AddRcx),
            Op::Sub(a, b, d) => alu(a, b, d, Dec::SubRcx),
            Op::Mul(a, b, d) => alu(a, b, d, Dec::MulRcx),
            Op::And(a, b, d) => alu(a, b, d, Dec::AndRcx),
            Op::Or(a, b, d) => alu(a, b, d, Dec::OrRcx),
            Op::Xor(a, b, d) => alu(a, b, d, Dec::XorRcx),
            Op::Shl(a, b, d) => alu(a, b, d, Dec::ShlCl),
            Op::Sar(a, b, d) => alu(a, b, d, Dec::SarCl),
            Op::Shr(a, b, d) => alu(a, b, d, Dec::ShrCl),
            Op::Fadd(a, b, d) => falu(a, b, d, Dec::Addsd),
            Op::Fsub(a, b, d) => falu(a, b, d, Dec::Subsd),
            Op::Fmul(a, b, d) => falu(a, b, d, Dec::Mulsd),
            Op::Fdiv(a, b, d) => falu(a, b, d, Dec::Divsd),
            Op::Move(a, d) => vec![
                load(Rax, a),
                Dec::StoreSlot {
                    slot: d.into(),
                    reg: Rax,
                },
            ],
            Op::GetField(obj, d, disp) => vec![
                load(Rax, obj),
                Dec::LoadMem {
                    disp,
                    indexed: false,
                },
                Dec::StoreSlot {
                    slot: d.into(),
                    reg: Rdx,
                },
            ],
            Op::GetElem(arr, i, d, disp) => vec![
                load(Rax, arr),
                load(Rcx, i),
                Dec::LoadMem {
                    disp,
                    indexed: true,
                },
                Dec::StoreSlot {
                    slot: d.into(),
                    reg: Rdx,
                },
            ],
            Op::PutField(obj, v, disp) => vec![
                load(Rax, obj),
                load(Rdx, v),
                Dec::StoreMem {
                    disp,
                    indexed: false,
                },
            ],
            Op::PutElem(arr, i, v, disp) => vec![
                load(Rax, arr),
                load(Rcx, i),
                load(Rdx, v),
                Dec::StoreMem {
                    disp,
                    indexed: true,
                },
            ],
            Op::Je(t) => one(jcc(0x84, t)),
            Op::Jne(t) => one(jcc(0x85, t)),
            Op::Jl(t) => one(jcc(0x8C, t)),
            Op::Jle(t) => one(jcc(0x8E, t)),
            Op::Jg(t) => one(jcc(0x8F, t)),
            Op::Jge(t) => one(jcc(0x8D, t)),
            Op::Jb(t) => one(jcc(0x82, t)),
            Op::Jmp(t) => one(match len {
                2 => Dec::Jmp8 {
                    opcode: 0xEB,
                    rel: rel(t) as i8,
                },
                _ => Dec::Jmp { rel: rel(t) as i32 },
            }),
            Op::BrEq(a, b, t) => branch(a, b, 0x84, t),
            Op::BrNe(a, b, t) => branch(a, b, 0x85, t),
            Op::BrLt(a, b, t) => branch(a, b, 0x8C, t),
            Op::BrLe(a, b, t) => branch(a, b, 0x8E, t),
            Op::BrGt(a, b, t) => branch(a, b, 0x8F, t),
            Op::BrGe(a, b, t) => branch(a, b, 0x8D, t),
            Op::BrB(a, b, t) => branch(a, b, 0x82, t),
            Op::NullCheck(a, t) => vec![load(Rax, a), Dec::TestRax, jcc(0x85, t)],
            Op::Call(_) => one(call),
            Op::Ret => one(Dec::Ret),
            Op::Syscall => one(Dec::Syscall),
        }
    }

    /// The target of the unconditional `jmp` at `pc`, if one is there.
    fn jmp_target(text: &[u8], pc: usize) -> Option<usize> {
        match decode_one(text, pc).ok()? {
            (Dec::Jmp { rel }, len) => Some((pc + len) as i64 + i64::from(rel)),
            (Dec::Jmp8 { opcode: 0xEB, rel }, len) => Some((pc + len) as i64 + i64::from(rel)),
            _ => None,
        }
        .map(|t| t as usize)
    }

    /// Checks that `ops` stand for exactly what [`decode_one`] decodes
    /// from `start` on, with a `jmp` the ops leave out followed (at most
    /// [`MAX_FOLLOWED`] of them, to code not yet run), and returns the
    /// instructions they stand for and the pc after them.
    fn check_ops(em: &EmittedModule, start: usize, ops: &[Inst], what: &str) -> (u32, usize) {
        let (mut cur, mut followed) = (start, 0);
        let mut pcs = Vec::new();
        for (i, inst) in ops.iter().enumerate() {
            assert!(
                !inst.op.ends_block() || i + 1 == ops.len(),
                "{what}: {inst:?} transfers control inside a block"
            );
            if !matches!(inst.op, Op::Jmp(_)) {
                while let Some(target) = jmp_target(&em.text, cur) {
                    pcs.push(cur);
                    followed += 1;
                    cur = target;
                }
            }
            let (n, answers) = shape(inst.op);
            let mut at = Vec::new();
            let mut decoded = Vec::new();
            for _ in 0..n {
                let (dec, len) = decode_one(&em.text, cur).unwrap();
                at.push((cur, len));
                pcs.push(cur);
                decoded.push(dec);
                cur += len;
            }
            let last = decoded[decoded.len() - 1];
            assert_eq!(
                decs(inst.op, &at, last),
                decoded,
                "{what} at {:#x}",
                inst.pc
            );
            assert_eq!(inst.pc as usize, at[answers].0, "{what}: {inst:?}'s pc");
            match inst.op {
                Op::GetField(..) => assert_eq!(at[2].0, at[1].0 + LOAD_MEM_LEN),
                Op::GetElem(..) => assert_eq!(at[3].0, at[2].0 + LOAD_MEM_INDEXED_LEN),
                _ => {}
            }
            if let (Op::Call(callee), Dec::Call { rel }) = (inst.op, last) {
                let target = cur as i64 + i64::from(rel);
                assert_eq!(
                    em.function_at(target as u32),
                    Some(callee as usize),
                    "{what} call at {:#x}",
                    inst.pc
                );
            }
        }
        assert!(
            followed <= MAX_FOLLOWED,
            "{what}: {followed} jumps followed"
        );
        let mut unique = pcs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), pcs.len(), "{what}: a pc twice in one block");
        (pcs.len() as u32, cur)
    }

    /// The 17 programs compiled for perfbench `suite_exec`'s two legs
    /// (IA32 `Full`, AIX `AixSpeculation`), in `njc_workloads::all()`
    /// order, leg by leg.
    fn suite_exec_modules() -> Vec<(Platform, &'static str, EmittedModule)> {
        let legs = [
            (Platform::windows_ia32(), ConfigKind::Full),
            (Platform::aix_ppc(), ConfigKind::AixSpeculation),
        ];
        let mut modules = Vec::new();
        for (platform, kind) in legs {
            for w in njc_workloads::all() {
                let mut m = w.module;
                njc_opt::optimize_module(&mut m, &platform, &kind.to_config(&platform));
                modules.push((platform, w.name, emit_module(&lower_module(&m), 1)));
            }
        }
        modules
    }

    #[test]
    fn block_table_agrees_with_the_decoder() {
        // Every op a run lowered stands for exactly what `decode_one`
        // decodes at its pcs (a call's callee is `function_at` of its
        // target), following the `jmp`s the block followed; only a
        // block's last op may transfer control; and its charge and
        // fall-through pc are those of the instructions its ops stand
        // for. The same holds for the unfused lowering a short budget
        // runs, one op per instruction.
        let (mut fused, mut followed) = (0, 0);
        for (platform, name, em) in suite_exec_modules() {
            let (mut exec, _, _) = ByteMachine::new(&em, platform).exec("main", false).unwrap();
            let code = std::mem::take(&mut exec.code);
            let mut filled = 0;
            for (pc, &entry) in code.at.iter().enumerate().filter(|(_, &e)| e != 0) {
                let block = code.blocks[entry as usize - 1];
                let ops = &code.ops[block.first as usize..block.end as usize];
                let (insts, next) = check_ops(&em, pc, ops, name);
                assert_eq!(next, block.next as usize, "{name}: falls through");
                assert_eq!(insts, block.insts, "{name}: block charge");
                fused += ops.iter().filter(|i| shape(i.op).0 > 1).count();
                followed += block.insts as usize - ops.iter().map(|i| shape(i.op).0).sum::<usize>();
                // Unfused: what a short budget runs from here.
                exec.fidx = em.function_at(pc as u32).unwrap();
                let mut singles = Vec::new();
                let next = exec.lower_block(&mut singles, pc, false).unwrap();
                assert!(singles.iter().all(|i| shape(i.op).0 == 1), "{name}");
                let (_, unfused_next) = check_ops(&em, pc, &singles, name);
                assert_eq!(next, unfused_next, "{name}: unfused falls through");
                filled += 1;
            }
            assert_eq!(filled, code.blocks.len(), "{name}: one block per pc");
        }
        assert!(
            fused > 0 && followed > 0,
            "{fused} fused ops, {followed} jumps followed"
        );
    }

    /// The instructions each of the 17 programs runs on the byte machine,
    /// on the IA32 and the AIX leg of [`suite_exec_modules`]: the counts
    /// of the one-instruction-per-op byte machine this one replaced.
    const SUITE_INSTS: [(&str, u64, u64); 17] = [
        ("Numeric Sort", 1_158_250, 1_158_253),
        ("String Sort", 400_493, 443_696),
        ("Bitfield", 304_379, 304_382),
        ("FP Emulation", 331_590, 331_590),
        ("Fourier", 46_570, 61_698),
        ("Assignment", 206_392, 217_285),
        ("IDEA encryption", 469_240, 469_232),
        ("Huffman Compression", 266_982, 266_737),
        ("Neural Net", 196_875, 195_675),
        ("LU Decomposition", 65_196, 63_527),
        ("mtrt", 896_755, 929_158),
        ("jess", 108_915, 115_995),
        ("compress", 390_903, 385_931),
        ("db", 946_626, 1_083_881),
        ("mpegaudio", 150_498, 150_698),
        ("jack", 140_862, 145_407),
        ("javac", 208_669, 218_386),
    ];

    #[test]
    fn fuel_runs_out_on_the_exact_instruction() {
        // A budget of n, the instructions a run takes, reproduces the
        // unlimited outcome; any smaller budget, however it splits a
        // block, a superinstruction or a trace, stops with `OutOfFuel`.
        let modules = suite_exec_modules();
        assert_eq!(modules.len(), 2 * SUITE_INSTS.len());
        for (i, (platform, name, em)) in modules.iter().enumerate() {
            let (expected, ia32, aix) = SUITE_INSTS[i % SUITE_INSTS.len()];
            assert_eq!(*name, expected);
            let n = if i < SUITE_INSTS.len() { ia32 } else { aix };
            let full = ByteMachine::new(em, *platform).run("main").unwrap();
            assert_eq!(full.stats.insts, n, "{name}");
            for fuel in [0, 1, 2, n / 7, n / 3, n / 2, n - 1] {
                let out = ByteMachine::new(em, *platform).with_fuel(fuel).run("main");
                assert_eq!(out, Err(MachineFault::OutOfFuel), "{name} at fuel {fuel}");
            }
            let out = ByteMachine::new(em, *platform).with_fuel(n).run("main");
            assert_eq!(out, Ok(full), "{name} at fuel {n}");
        }
    }

    /// How many instructions `main` of `em` runs from its entry through
    /// the one at `pc`, when it runs straight there: each `jmp` on the way
    /// is taken.
    fn insts_through(em: &EmittedModule, pc: usize) -> u64 {
        let (mut cur, mut n) = (em.functions[0].text_off as usize, 1);
        while cur != pc {
            let (dec, len) = decode_one(&em.text, cur).unwrap();
            cur += len;
            match dec {
                Dec::Jmp { rel } => cur = (cur as i64 + i64::from(rel)) as usize,
                Dec::Jmp8 { opcode: 0xEB, rel } => cur = (cur as i64 + i64::from(rel)) as usize,
                _ => {}
            }
            n += 1;
        }
        n
    }

    /// `main` loads a field of null at a marked site, in the middle of a
    /// block, and (with `caught`) catches the NPE and runs on.
    fn trapping_module(caught: bool) -> EmittedModule {
        let text = if caught {
            "func main() -> int {\n  locals v0: ref v1: int v2: int\n  try0: handler bb2 catch npe -> v2\nbb0:\n  v0 = const null\n  v1 = const 1\n  goto bb1\nbb1: [try0]\n  v1 = getfield v0, field0 [site]\n  v1 = add.int v1, v1\n  goto bb3\nbb2:\n  v1 = add.int v1, v2\n  goto bb3\nbb3:\n  return v1\n}"
        } else {
            "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = const null\n  v1 = getfield v0, field0 [site]\n  v1 = add.int v1, v1\n  return v1\n}"
        };
        let mut m = Module::new("midblock");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(parse_function(text).unwrap());
        emit_module(&lower_module(&m), 1)
    }

    #[test]
    fn trap_inside_a_block_charges_only_the_instructions_run() {
        let platform = Platform::windows_ia32();
        for (caught, expected) in [(false, 10), (true, 21)] {
            let em = trapping_module(caught);
            let f = &em.functions[0];
            let site = f.text_off as usize + f.sites[0].byte_off as usize;
            // The trapping load's block runs on past it.
            let (exec, _, _) = ByteMachine::new(&em, platform).exec("main", false).unwrap();
            let code = &exec.code;
            assert!(
                code.blocks.iter().any(|b| {
                    let ops = &code.ops[b.first as usize..b.end as usize];
                    ops.iter().any(|i| i.pc as usize == site)
                        && ops.last().is_some_and(|i| i.pc as usize > site)
                }),
                "caught: {caught}"
            );
            // Raise mode: the NPE escapes, or is caught and `main` runs
            // on; snapshot mode stops at the trap.
            let out = ByteMachine::new(&em, platform).run("main").unwrap();
            assert_eq!(out.stats.traps_taken, 1);
            assert_eq!(out.exception.is_some(), !caught);
            assert_eq!(out.stats.insts, expected, "raise, caught: {caught}");
            let (snap, _, _) = ByteMachine::new(&em, platform).exec("main", true).unwrap();
            assert!(snap.snapshot.is_some());
            // `main` runs straight to the trapping load.
            let to_trap = insts_through(&em, site);
            assert_eq!(snap.stats.insts, to_trap, "snapshot, caught: {caught}");
        }
    }

    #[test]
    fn a_trap_inside_a_superinstruction_or_a_trace_refunds_what_follows() {
        // `main` runs straight to a marked load of null and lets the NPE
        // escape. The load is the heap access of a fused field or array
        // load, and in the last case also lies past a `jmp` its block
        // followed, with the code the `jmp` skipped at lower pcs. Each run
        // charges the instructions through the load: never the slot store
        // fused after it, nor the rest of the trace.
        let cases = [
            (
                "field load",
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = const null\n  v1 = getfield v0, field0 [site]\n  v1 = add.int v1, v1\n  return v1\n}",
                10,
            ),
            (
                "array load",
                "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = const null\n  v1 = const 0\n  v2 = aload.int v0[v1] [site]\n  v2 = add.int v2, v2\n  return v2\n}",
                14,
            ),
            (
                "trace",
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = const null\n  v1 = const 1\n  goto bb2\nbb1:\n  v1 = add.int v1, v1\n  return v1\nbb2:\n  v1 = getfield v0, field0 [site]\n  v1 = add.int v1, v1\n  goto bb1\n}",
                13,
            ),
        ];
        let platform = Platform::windows_ia32();
        for (what, text, expected) in cases {
            let mut m = Module::new("fused_trap");
            m.add_class("C", &[("x", Type::Int)]);
            m.add_function(parse_function(text).unwrap());
            let em = emit_module(&lower_module(&m), 1);
            let f = &em.functions[0];
            let site = f.text_off as usize + f.sites[0].byte_off as usize;
            // The block entered at `main`'s entry runs a fused load at the
            // site, with more ops after it.
            let (exec, _, _) = ByteMachine::new(&em, platform).exec("main", false).unwrap();
            let code = &exec.code;
            let block = code.blocks[code.at[f.text_off as usize] as usize - 1];
            let ops = &code.ops[block.first as usize..block.end as usize];
            let at = ops.iter().position(|i| i.pc as usize == site).expect(what);
            assert!(at + 1 < ops.len(), "{what}: {ops:?}");
            match (what, ops[at].op) {
                ("array load", Op::GetElem(..)) => {}
                ("field load" | "trace", Op::GetField(..)) => {}
                (_, op) => panic!("{what}: {op:?} at the site"),
            }
            let run = block.insts as usize - ops.iter().map(|i| shape(i.op).0).sum::<usize>();
            assert_eq!(run > 0, what == "trace", "{what}: {ops:?}");
            let to_trap = insts_through(&em, site);
            let out = ByteMachine::new(&em, platform).run("main").unwrap();
            assert_eq!(out.exception, Some(ExceptionKind::NullPointer), "{what}");
            assert_eq!(out.stats.traps_taken, 1, "{what}");
            assert_eq!((out.stats.insts, to_trap), (expected, expected), "{what}");
            let (snap, _, _) = ByteMachine::new(&em, platform).exec("main", true).unwrap();
            assert!(snap.snapshot.is_some(), "{what}");
            assert_eq!(snap.stats.insts, expected, "{what}: snapshot");
        }
    }
}
