//! The x86-64 encoder: lowers [`njc_codegen::isa::MInst`] code to real
//! machine bytes.
//!
//! Every virtual register lives in a frame slot `[rbp + 8*i]` (see
//! [`crate::abi`]). Each virtual instruction expands to a fixed byte
//! sequence with `rax`/`rcx`/`rdx`/`xmm0`/`xmm1` as scratch, so the byte
//! stream is a pure function of the machine code — emission is
//! **byte-identical across runs and thread counts** by construction, and
//! the decoder can re-derive the exact instruction stream.
//!
//! The paper's core property survives the trip to bytes: an implicit null
//! check emits *nothing*. What the encoder records instead is the byte
//! offset of the access instruction (`mov rdx, [rax+disp32]` and friends)
//! in the function's binary exception-site table, with the
//! [`SiteInfo`] provenance carried over from lowering.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use njc_codegen::isa::{AluOp, FaluOp, MInst, Reg};
use njc_codegen::{MachineFunction, MachineModule, SiteInfo};
use njc_ir::{AccessKind, CatchKind, CheckId, Cond, Type};

use crate::abi;

/// One binary exception-site entry: a function-relative byte offset whose
/// instruction is a memory access doubling as a null check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BinSite {
    /// Byte offset of the access instruction, relative to function start.
    pub byte_off: u32,
    /// The IR check this site discharges ([`CheckId::NONE`] for
    /// over-marking).
    pub check: CheckId,
    /// Read or write.
    pub kind: AccessKind,
    /// Static byte offset from the base register (`None` when
    /// index-scaled).
    pub offset: Option<u64>,
}

/// One binary handler range over function-relative byte offsets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BinHandler {
    /// First covered byte (inclusive).
    pub start: u32,
    /// First byte past the range (exclusive).
    pub end: u32,
    /// Catch filter.
    pub catch: CatchKind,
    /// Handler entry byte offset.
    pub handler: u32,
    /// Frame slot receiving the exception code, if any.
    pub code_slot: Option<u32>,
}

/// One emitted function: where its bytes live in `.text` plus the binary
/// metadata tables.
#[derive(Clone, PartialEq, Debug)]
pub struct EmittedFunction {
    /// Function name.
    pub name: String,
    /// Offset of the first byte in `.text` (16-aligned).
    pub text_off: u32,
    /// Code length in bytes (padding excluded).
    pub text_len: u32,
    /// Frame size in slots.
    pub num_regs: u32,
    /// Leading slots holding parameters.
    pub num_params: u32,
    /// Return type, if non-void.
    pub ret: Option<Type>,
    /// Binary exception-site table, ascending by byte offset.
    pub sites: Vec<BinSite>,
    /// Binary handler ranges (searched in order; first match wins).
    pub handlers: Vec<BinHandler>,
}

/// One emitted class: allocation size and the method table keyed by
/// module-wide method id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EmittedClass {
    /// Object size in bytes.
    pub size: u64,
    /// `(method id, function index)` pairs, ascending by method id.
    pub methods: Vec<(u32, u32)>,
}

/// A fully emitted module: the text bytes plus everything the runtime
/// (and the binary verifier) needs alongside them.
#[derive(Clone, PartialEq, Debug)]
pub struct EmittedModule {
    /// All function code, 0xCC-padded to 16-byte function alignment.
    pub text: Vec<u8>,
    /// Functions in source order.
    pub functions: Vec<EmittedFunction>,
    /// Classes in source order.
    pub classes: Vec<EmittedClass>,
    /// Module-wide method name table (sorted; ids are indices).
    pub method_names: Vec<String>,
}

impl EmittedModule {
    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// The function whose text range contains the absolute byte `addr`.
    pub fn function_at(&self, addr: u32) -> Option<usize> {
        self.functions
            .iter()
            .position(|f| f.text_off <= addr && addr < f.text_off + f.text_len)
    }

    /// Total site entries across all functions.
    pub fn total_sites(&self) -> usize {
        self.functions.iter().map(|f| f.sites.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Assembler primitives.
// ---------------------------------------------------------------------

/// Scratch general-purpose registers, numbered as in ModRM reg fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Gp {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
}

struct Asm {
    bytes: Vec<u8>,
}

/// A to-be-patched rel8 operand position.
struct Patch8(usize);

impl Asm {
    fn new() -> Self {
        Asm { bytes: Vec::new() }
    }

    fn here(&self) -> usize {
        self.bytes.len()
    }

    fn u8(&mut self, b: u8) {
        self.bytes.push(b);
    }

    fn raw(&mut self, bs: &[u8]) {
        self.bytes.extend_from_slice(bs);
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// `mov r64, [rbp + 8*slot]`.
    fn load_slot(&mut self, reg: Gp, slot: u32) {
        self.raw(&[0x48, 0x8B, 0x80 | ((reg as u8) << 3) | 0x05]);
        self.u32(slot * 8);
    }

    /// `mov [rbp + 8*slot], r64`.
    fn store_slot(&mut self, slot: u32, reg: Gp) {
        self.raw(&[0x48, 0x89, 0x80 | ((reg as u8) << 3) | 0x05]);
        self.u32(slot * 8);
    }

    /// `movabs rax/rcx/rdx, imm64`.
    fn movabs(&mut self, reg: Gp, imm: u64) {
        self.raw(&[0x48, 0xB8 + reg as u8]);
        self.u64(imm);
    }

    /// `mov eax, imm32`.
    fn mov_eax(&mut self, imm: u32) {
        self.u8(0xB8);
        self.u32(imm);
    }

    /// `mov edi, imm32`.
    fn mov_edi(&mut self, imm: u32) {
        self.u8(0xBF);
        self.u32(imm);
    }

    /// `mov esi, imm32`.
    fn mov_esi(&mut self, imm: u32) {
        self.u8(0xBE);
        self.u32(imm);
    }

    /// `syscall`.
    fn syscall(&mut self) {
        self.raw(&[0x0F, 0x05]);
    }

    /// `mov edi, tag; [movabs rdx, code;] mov eax, SVC_RAISE; syscall`.
    fn raise(&mut self, tag: u32, user_code: Option<i64>) {
        self.mov_edi(tag);
        if let Some(code) = user_code {
            self.movabs(Gp::Rdx, code as u64);
        }
        self.mov_eax(abi::SVC_RAISE);
        self.syscall();
    }

    /// A short conditional/unconditional jump with a back-patched rel8.
    fn jmp8(&mut self, opcode: u8) -> Patch8 {
        self.raw(&[opcode, 0x00]);
        Patch8(self.bytes.len() - 1)
    }

    /// Points a [`Patch8`] at the current position.
    fn land8(&mut self, p: Patch8) {
        let rel = self.bytes.len() - (p.0 + 1);
        assert!(rel <= 127, "rel8 overflow");
        self.bytes[p.0] = rel as u8;
    }
}

/// The jcc rel32 second opcode byte for a condition (after 0x0F).
fn jcc_opcode(cond: Cond) -> u8 {
    match cond {
        Cond::Eq => 0x84, // je
        Cond::Ne => 0x85, // jne
        Cond::Lt => 0x8C, // jl
        Cond::Le => 0x8E, // jle
        Cond::Gt => 0x8F, // jg
        Cond::Ge => 0x8D, // jge
    }
}

/// The SSE `cmpsd` predicate and operand order for a float compare.
/// `Gt`/`Ge` swap operands (`x > y` ⇔ `y < x`); `Ne` uses CMPNEQ, which is
/// true for unordered operands — exactly Rust/Java `!=` on NaN.
fn fcmp_predicate(cond: Cond) -> (u8, bool) {
    match cond {
        Cond::Eq => (0, false),
        Cond::Lt => (1, false),
        Cond::Le => (2, false),
        Cond::Ne => (4, false),
        Cond::Gt => (1, true),
        Cond::Ge => (2, true),
    }
}

// ---------------------------------------------------------------------
// Per-function encoding.
// ---------------------------------------------------------------------

struct EncodedFunction {
    bytes: Vec<u8>,
    /// Byte offset where each virtual pc's expansion starts, plus a final
    /// entry at the code end (for exclusive handler ranges).
    vstart: Vec<u32>,
    /// Virtual pc → byte offset of the trapping access instruction.
    access_byte: BTreeMap<usize, u32>,
    /// `(rel32 operand position, callee function index)` call fixups.
    call_fixups: Vec<(u32, usize)>,
}

/// Loads a float slot into an xmm register: `movsd xmm, [rbp + 8*slot]`.
fn movsd_load(a: &mut Asm, xmm: u8, slot: u32) {
    a.raw(&[0xF2, 0x0F, 0x10, 0x80 | (xmm << 3) | 0x05]);
    a.u32(slot * 8);
}

/// `movsd [rbp + 8*slot], xmm0`.
fn movsd_store(a: &mut Asm, slot: u32) {
    a.raw(&[0xF2, 0x0F, 0x11, 0x85]);
    a.u32(slot * 8);
}

/// Emits the operand loads and the access instruction for a `Load`/`Store`
/// effective address, returning the byte offset of the access instruction
/// itself. `store_src` is the slot whose value a store writes (`None` for
/// loads, which leave the loaded value in `rdx`).
fn encode_access(
    a: &mut Asm,
    base: Reg,
    index: Option<Reg>,
    imm: u64,
    store_src: Option<Reg>,
) -> u32 {
    a.load_slot(Gp::Rax, base.0);
    // Static displacements must fit in a signed 32-bit field; larger
    // offsets (wild "BigOffset" probes) are folded into the base with
    // 64-bit wrapping arithmetic.
    let disp = if imm <= i32::MAX as u64 {
        imm as u32
    } else {
        a.movabs(Gp::Rdx, imm);
        a.raw(&[0x48, 0x01, 0xD0]); // add rax, rdx
        0
    };
    if let Some(i) = index {
        a.load_slot(Gp::Rcx, i.0);
    }
    if let Some(src) = store_src {
        a.load_slot(Gp::Rdx, src.0);
    }
    let access_at = a.here() as u32;
    let opcode = if store_src.is_some() { 0x89 } else { 0x8B };
    match index {
        // mov rdx, [rax + rcx*8 + disp32] / mov [rax + rcx*8 + disp32], rdx
        Some(_) => a.raw(&[0x48, opcode, 0x94, 0xC8]),
        // mov rdx, [rax + disp32] / mov [rax + disp32], rdx
        None => a.raw(&[0x48, opcode, 0x90]),
    }
    a.u32(disp);
    access_at
}

#[allow(clippy::too_many_lines)]
fn encode_function(
    func: &MachineFunction,
    method_ids: &BTreeMap<&str, u32>,
    rets: &[Option<Type>],
) -> EncodedFunction {
    let mut a = Asm::new();
    let mut vstart = Vec::with_capacity(func.code.len() + 1);
    let mut access_byte = BTreeMap::new();
    let mut call_fixups = Vec::new();
    // (rel32 operand position, target virtual pc) branch fixups.
    let mut branch_fixups: Vec<(usize, usize)> = Vec::new();

    // Prologue: zero the non-parameter slots, matching the IR
    // interpreter's zero-initialized locals (the stack region may hold
    // stale bytes from an earlier, deeper activation).
    a.raw(&[0x48, 0x31, 0xC0]); // xor rax, rax
    for slot in func.num_params..func.num_regs {
        a.store_slot(slot as u32, Gp::Rax);
    }

    for inst in &func.code {
        vstart.push(a.here() as u32);
        match inst {
            MInst::LoadImm { dst, bits } => {
                a.movabs(Gp::Rax, *bits);
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Mov { dst, src } => {
                a.load_slot(Gp::Rax, src.0);
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Alu {
                op,
                dst,
                a: x,
                b: y,
            } => {
                a.load_slot(Gp::Rax, x.0);
                a.load_slot(Gp::Rcx, y.0);
                match op {
                    AluOp::Add => a.raw(&[0x48, 0x01, 0xC8]),
                    AluOp::Sub => a.raw(&[0x48, 0x29, 0xC8]),
                    AluOp::Mul => a.raw(&[0x48, 0x0F, 0xAF, 0xC1]),
                    AluOp::And => a.raw(&[0x48, 0x21, 0xC8]),
                    AluOp::Or => a.raw(&[0x48, 0x09, 0xC8]),
                    AluOp::Xor => a.raw(&[0x48, 0x31, 0xC8]),
                    // Hardware masks the `cl` count to 6 bits for 64-bit
                    // operands — exactly the `& 63` the IR interpreter applies.
                    AluOp::Shl => a.raw(&[0x48, 0xD3, 0xE0]),
                    AluOp::Shr => a.raw(&[0x48, 0xD3, 0xF8]),
                    AluOp::Ushr => a.raw(&[0x48, 0xD3, 0xE8]),
                    AluOp::Div | AluOp::Rem => {
                        // Java semantics: zero divisor raises, MIN/-1 wraps
                        // instead of faulting in `idiv`.
                        a.raw(&[0x48, 0x85, 0xC9]); // test rcx, rcx
                        let nonzero = a.jmp8(0x75);
                        a.raise(abi::EXC_TAG_ARITH, None);
                        a.land8(nonzero);
                        a.movabs(Gp::Rdx, i64::MIN as u64);
                        a.raw(&[0x48, 0x39, 0xD0]); // cmp rax, rdx
                        let not_min = a.jmp8(0x75);
                        a.raw(&[0x48, 0x83, 0xF9, 0xFF]); // cmp rcx, -1
                        let not_m1 = a.jmp8(0x75);
                        if *op == AluOp::Rem {
                            a.raw(&[0x48, 0x31, 0xC0]); // xor rax, rax
                        }
                        let done = a.jmp8(0xEB);
                        a.land8(not_min);
                        a.land8(not_m1);
                        a.raw(&[0x48, 0x99]); // cqo
                        a.raw(&[0x48, 0xF7, 0xF9]); // idiv rcx
                        if *op == AluOp::Rem {
                            a.raw(&[0x48, 0x89, 0xD0]); // mov rax, rdx
                        }
                        a.land8(done);
                    }
                }
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Falu {
                op,
                dst,
                a: x,
                b: y,
            } => {
                if *op == FaluOp::Rem {
                    // `fprem`-era remainders go through the runtime, like
                    // the libm call a JIT would emit.
                    a.mov_edi(x.0);
                    a.mov_esi(y.0);
                    a.mov_eax(abi::SVC_FREM);
                    a.syscall();
                    a.store_slot(dst.0, Gp::Rax);
                } else {
                    movsd_load(&mut a, 0, x.0);
                    movsd_load(&mut a, 1, y.0);
                    let sse = match op {
                        FaluOp::Add => 0x58,
                        FaluOp::Sub => 0x5C,
                        FaluOp::Mul => 0x59,
                        FaluOp::Div => 0x5E,
                        FaluOp::Rem => unreachable!(),
                    };
                    a.raw(&[0xF2, 0x0F, sse, 0xC1]); // opsd xmm0, xmm1
                    movsd_store(&mut a, dst.0);
                }
            }
            MInst::Neg { dst, a: x, float } => {
                a.load_slot(Gp::Rax, x.0);
                if *float {
                    // IEEE negate is a sign-bit flip — bit-exact with the
                    // IR interpreter's `-f64` including NaN payloads.
                    a.movabs(Gp::Rdx, 0x8000_0000_0000_0000);
                    a.raw(&[0x48, 0x31, 0xD0]); // xor rax, rdx
                } else {
                    a.raw(&[0x48, 0xF7, 0xD8]); // neg rax
                }
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Cvt { dst, src, to_int } => {
                if *to_int {
                    // `cvttsd2si` traps to 0x8000.. on overflow; the IR
                    // interpreter (Rust `as`) saturates. Routed through the
                    // runtime to keep the two bit-identical.
                    a.mov_esi(src.0);
                    a.mov_eax(abi::SVC_CVT_TO_INT);
                    a.syscall();
                } else {
                    a.load_slot(Gp::Rax, src.0);
                    a.raw(&[0xF2, 0x48, 0x0F, 0x2A, 0xC0]); // cvtsi2sd xmm0, rax
                    movsd_store(&mut a, dst.0);
                    continue;
                }
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Fcmp {
                dst,
                cond,
                a: x,
                b: y,
            } => {
                let (pred, swap) = fcmp_predicate(*cond);
                let (lo, hi) = if swap { (y, x) } else { (x, y) };
                movsd_load(&mut a, 0, lo.0);
                movsd_load(&mut a, 1, hi.0);
                a.raw(&[0xF2, 0x0F, 0xC2, 0xC1, pred]); // cmpsd xmm0, xmm1, pred
                a.raw(&[0x66, 0x48, 0x0F, 0x7E, 0xC0]); // movq rax, xmm0
                a.raw(&[0x48, 0x83, 0xE0, 0x01]); // and rax, 1
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Load {
                dst,
                base,
                index,
                imm,
            } => {
                let at = encode_access(&mut a, *base, *index, *imm, None);
                access_byte.insert(vstart.len() - 1, at);
                a.store_slot(dst.0, Gp::Rdx);
            }
            MInst::Store {
                src,
                base,
                index,
                imm,
            } => {
                let at = encode_access(&mut a, *base, *index, *imm, Some(*src));
                access_byte.insert(vstart.len() - 1, at);
            }
            MInst::Br {
                cond,
                a: x,
                b: y,
                target,
            } => {
                a.load_slot(Gp::Rax, x.0);
                a.load_slot(Gp::Rcx, y.0);
                a.raw(&[0x48, 0x39, 0xC8]); // cmp rax, rcx
                a.raw(&[0x0F, jcc_opcode(*cond)]);
                branch_fixups.push((a.here(), *target));
                a.u32(0);
            }
            MInst::Jmp { target } => {
                a.u8(0xE9);
                branch_fixups.push((a.here(), *target));
                a.u32(0);
            }
            MInst::CheckNull { reg } => {
                // THE residual pattern the binary verifier hunts for: an
                // eliminated check must leave none of these behind.
                a.load_slot(Gp::Rax, reg.0);
                a.raw(&[0x48, 0x85, 0xC0]); // test rax, rax
                let ok = a.jmp8(0x75);
                a.raise(abi::EXC_TAG_NPE, None);
                a.land8(ok);
            }
            MInst::CheckBounds { index, length } => {
                a.load_slot(Gp::Rax, index.0);
                a.load_slot(Gp::Rcx, length.0);
                a.raw(&[0x48, 0x39, 0xC8]); // cmp rax, rcx
                                            // Unsigned below folds both bounds into one branch: a
                                            // negative index is a huge unsigned value (lengths are
                                            // non-negative by construction — `NewArr` raises first).
                let ok = a.jmp8(0x72); // jb
                a.raise(abi::EXC_TAG_BOUNDS, None);
                a.land8(ok);
            }
            MInst::NewObj { dst, class } => {
                a.mov_edi(class.index() as u32);
                a.mov_eax(abi::SVC_NEWOBJ);
                a.syscall();
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::NewArr { dst, elem, len } => {
                a.mov_edi(abi::type_tag(*elem));
                a.mov_esi(len.0);
                a.mov_eax(abi::SVC_NEWARR);
                a.syscall();
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Call { target, args, dst } => {
                for (j, arg) in args.iter().enumerate() {
                    a.load_slot(Gp::Rax, arg.0);
                    a.store_slot((func.num_regs + j) as u32, Gp::Rax);
                }
                let frame = (func.num_regs * 8) as u32;
                a.raw(&[0x48, 0x8D, 0xAD]); // lea rbp, [rbp + frame]
                a.u32(frame);
                a.u8(0xE8); // call rel32
                call_fixups.push((a.here() as u32, target.index()));
                a.u32(0);
                a.raw(&[0x48, 0x8D, 0xAD]); // lea rbp, [rbp - frame]
                a.u32(frame.wrapping_neg());
                // Only a result the callee produced is stored.
                if let (Some(d), Some(_)) = (dst, rets[target.index()]) {
                    a.store_slot(d.0, Gp::Rax);
                }
            }
            MInst::CallVirtual {
                method,
                receiver,
                args,
                dst,
            } => {
                // The dispatch header load is the trapping access: the
                // class tag lands in rdx and rides into the service call.
                let at = encode_access(&mut a, *receiver, None, 0, None);
                access_byte.insert(vstart.len() - 1, at);
                a.load_slot(Gp::Rax, receiver.0);
                a.store_slot(func.num_regs as u32, Gp::Rax);
                for (j, arg) in args.iter().enumerate() {
                    a.load_slot(Gp::Rax, arg.0);
                    a.store_slot((func.num_regs + 1 + j) as u32, Gp::Rax);
                }
                let frame = (func.num_regs * 8) as u32;
                a.raw(&[0x48, 0x8D, 0xAD]); // lea rbp, [rbp + frame]
                a.u32(frame);
                a.mov_edi(method_ids[method.as_str()]);
                a.mov_eax(abi::SVC_CALLV);
                a.syscall();
                a.raw(&[0x48, 0x8D, 0xAD]); // lea rbp, [rbp - frame]
                a.u32(frame.wrapping_neg());
                if let Some(d) = dst {
                    a.store_slot(d.0, Gp::Rax);
                }
            }
            MInst::Math { op, dst, src } => {
                a.mov_edi(abi::intrinsic_tag(*op));
                a.mov_esi(src.0);
                a.mov_eax(abi::SVC_MATH);
                a.syscall();
                a.store_slot(dst.0, Gp::Rax);
            }
            MInst::Ret { src } => {
                match src {
                    Some(r) => a.load_slot(Gp::Rax, r.0),
                    None => a.raw(&[0x48, 0x31, 0xC0]), // xor rax, rax
                }
                a.u8(0xC3); // ret
            }
            MInst::Throw { kind } => {
                let code = matches!(kind, njc_ir::ExceptionKind::User(_)).then(|| kind.code());
                a.raise(abi::exception_tag(*kind), code);
            }
            MInst::Observe { src, ty } => {
                a.mov_edi(abi::type_tag(*ty));
                a.mov_esi(src.0);
                a.mov_eax(abi::SVC_OBSERVE);
                a.syscall();
            }
        }
    }
    vstart.push(a.here() as u32);

    for (pos, target) in branch_fixups {
        let rel = vstart[target] as i64 - (pos as i64 + 4);
        a.bytes[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
    }

    EncodedFunction {
        bytes: a.bytes,
        vstart,
        access_byte,
        call_fixups,
    }
}

// ---------------------------------------------------------------------
// Module assembly.
// ---------------------------------------------------------------------

/// Emits a whole module to bytes, fanning the per-function encoding out
/// over `threads` workers. The result is identical for every thread
/// count: workers pull function indices from a shared counter and the
/// assembler merges strictly in function order.
pub fn emit_module(module: &MachineModule, threads: usize) -> EmittedModule {
    // Module-wide method id table: sorted names, deterministically.
    let mut names: Vec<&str> = module
        .classes
        .iter()
        .flat_map(|c| c.methods.keys().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    let method_ids: BTreeMap<&str, u32> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, i as u32))
        .collect();

    let rets: Vec<Option<Type>> = module.functions.iter().map(|f| f.ret).collect();
    let n = module.functions.len();
    let mut encoded: Vec<Option<EncodedFunction>> = (0..n).map(|_| None).collect();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        for (i, slot) in encoded.iter_mut().enumerate() {
            *slot = Some(encode_function(&module.functions[i], &method_ids, &rets));
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<EncodedFunction>>> =
            (0..n).map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let enc = encode_function(&module.functions[i], &method_ids, &rets);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(enc);
                });
            }
        });
        for (slot, cell) in encoded.iter_mut().zip(slots) {
            *slot = cell
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    // Sequential layout: 16-aligned functions, 0xCC padding between.
    let mut text = Vec::new();
    let mut functions = Vec::with_capacity(n);
    let mut fixups: Vec<(usize, usize)> = Vec::new(); // (absolute pos, callee)
    for (i, enc) in encoded.iter().enumerate() {
        let enc = enc.as_ref().expect("every function encoded");
        while text.len() % 16 != 0 {
            text.push(0xCC);
        }
        let text_off = text.len() as u32;
        text.extend_from_slice(&enc.bytes);
        let mf = &module.functions[i];
        let sites = mf
            .sites
            .iter()
            .map(|(vpc, info)| site_entry(enc, vpc, info))
            .collect();
        let handlers = mf
            .handlers
            .entries
            .iter()
            .map(|h| BinHandler {
                start: enc.vstart[h.start_pc],
                end: enc.vstart[h.end_pc],
                catch: h.catch,
                handler: enc.vstart[h.handler_pc],
                code_slot: h.code_reg.map(|r| r.0),
            })
            .collect();
        for (pos, callee) in &enc.call_fixups {
            fixups.push((text_off as usize + *pos as usize, *callee));
        }
        functions.push(EmittedFunction {
            name: mf.name.clone(),
            text_off,
            text_len: enc.bytes.len() as u32,
            num_regs: mf.num_regs as u32,
            num_params: mf.num_params as u32,
            ret: mf.ret,
            sites,
            handlers,
        });
    }
    for (pos, callee) in fixups {
        let rel = functions[callee].text_off as i64 - (pos as i64 + 4);
        text[pos..pos + 4].copy_from_slice(&(rel as i32).to_le_bytes());
    }

    let classes = module
        .classes
        .iter()
        .map(|c| {
            let mut methods: Vec<(u32, u32)> = c
                .methods
                .iter()
                .map(|(name, fidx)| (method_ids[name.as_str()], *fidx as u32))
                .collect();
            methods.sort_unstable();
            EmittedClass {
                size: c.size,
                methods,
            }
        })
        .collect();

    EmittedModule {
        text,
        functions,
        classes,
        method_names: names.iter().map(|n| (*n).to_string()).collect(),
    }
}

fn site_entry(enc: &EncodedFunction, vpc: usize, info: &SiteInfo) -> BinSite {
    BinSite {
        byte_off: *enc
            .access_byte
            .get(&vpc)
            .expect("site registered on a memory access"),
        check: info.check,
        kind: info.kind,
        offset: info.offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_codegen::lower_module;
    use njc_ir::{parse_function, Module, Type};

    fn demo_module() -> MachineModule {
        let mut m = Module::new("demo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = new class0\n  v1 = const 21\n  putfield v0, field0, v1\n  v2 = getfield v0, field0 [site]\n  v2 = add.int v2, v2\n  return v2\n}",
            )
            .unwrap(),
        );
        lower_module(&m)
    }

    #[test]
    fn emission_is_thread_count_invariant() {
        let mm = demo_module();
        let one = emit_module(&mm, 1);
        let eight = emit_module(&mm, 8);
        assert_eq!(one, eight);
        assert!(!one.text.is_empty());
    }

    #[test]
    fn functions_are_16_aligned_and_sites_carry_provenance() {
        let mm = demo_module();
        let em = emit_module(&mm, 2);
        for f in &em.functions {
            assert_eq!(f.text_off % 16, 0);
        }
        let main = &em.functions[em.function_by_name("main").unwrap()];
        assert_eq!(main.sites.len(), mm.functions[0].sites.len());
        for s in &main.sites {
            assert!((s.byte_off as usize) < main.text_len as usize);
        }
    }

    #[test]
    fn method_ids_are_sorted_and_dense() {
        let mm = demo_module();
        let em = emit_module(&mm, 1);
        let mut sorted = em.method_names.clone();
        sorted.sort();
        assert_eq!(em.method_names, sorted);
    }
}
