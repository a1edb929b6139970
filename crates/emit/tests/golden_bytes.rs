//! Golden-byte tests: every [`njc_codegen::MInst`] opcode pins its exact
//! x86-64 expansion, byte for byte, so any encoding change is a conscious
//! decision — the binary exception-site tables, the verifier's pattern
//! matcher, and the committed fixture hashes all depend on these
//! sequences. Plus the decoder round-trip: over the whole workload and
//! committed-fixture corpus, decoding the emitted text and re-encoding
//! every instruction must reproduce the byte stream exactly.

use njc_codegen::{
    AluOp, ExceptionSiteTable, FaluOp, HandlerTable, MInst, MachineClass, MachineFunction,
    MachineModule, Reg,
};
use njc_emit::{decode_one, emit_module, Dec};
use njc_ir::{ClassId, Cond, ExceptionKind, FunctionId, Intrinsic, Type};

/// Little byte-string builder so expectations stay literal but readable.
#[derive(Default)]
struct B(Vec<u8>);

impl B {
    fn op(mut self, bs: &[u8]) -> Self {
        self.0.extend_from_slice(bs);
        self
    }
    fn d32(mut self, v: u32) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn d64(mut self, v: u64) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    /// The prologue of a function with no non-parameter slots.
    fn pro() -> Self {
        B::default().op(&[0x48, 0x31, 0xC0])
    }
    /// `mov rax, [rbp + 8*slot]`.
    fn ldax(self, slot: u32) -> Self {
        self.op(&[0x48, 0x8B, 0x85]).d32(slot * 8)
    }
    /// `mov rcx, [rbp + 8*slot]`.
    fn ldcx(self, slot: u32) -> Self {
        self.op(&[0x48, 0x8B, 0x8D]).d32(slot * 8)
    }
    /// `mov rdx, [rbp + 8*slot]`.
    fn lddx(self, slot: u32) -> Self {
        self.op(&[0x48, 0x8B, 0x95]).d32(slot * 8)
    }
    /// `mov [rbp + 8*slot], rax`.
    fn stax(self, slot: u32) -> Self {
        self.op(&[0x48, 0x89, 0x85]).d32(slot * 8)
    }
    /// `mov [rbp + 8*slot], rdx`.
    fn stdx(self, slot: u32) -> Self {
        self.op(&[0x48, 0x89, 0x95]).d32(slot * 8)
    }
}

fn r(i: u32) -> Reg {
    Reg(i)
}

/// Emits a single function (all slots are parameters, so the prologue is
/// just `xor rax, rax`) and returns its unpadded text bytes.
fn golden(code: Vec<MInst>, num_regs: usize) -> Vec<u8> {
    golden_ret(code, num_regs, Some(Type::Int))
}

fn golden_ret(code: Vec<MInst>, num_regs: usize, ret: Option<Type>) -> Vec<u8> {
    let f = MachineFunction {
        name: "f".to_string(),
        code,
        num_regs,
        num_params: num_regs,
        ret,
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let mm = MachineModule {
        functions: vec![f],
        classes: vec![],
    };
    let em = emit_module(&mm, 1);
    let f = &em.functions[0];
    em.text[f.text_off as usize..(f.text_off + f.text_len) as usize].to_vec()
}

#[test]
fn golden_prologue_zeroes_non_param_slots() {
    let got = golden_ret(vec![MInst::Ret { src: None }], 3, None);
    // Only slots 1 and 2 are zeroed: slot 0 is the parameter.
    let f = MachineFunction {
        name: "f".to_string(),
        code: vec![MInst::Ret { src: None }],
        num_regs: 3,
        num_params: 1,
        ret: None,
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let mm = MachineModule {
        functions: vec![f],
        classes: vec![],
    };
    let em = emit_module(&mm, 1);
    let with_zeroing = em.text[..em.functions[0].text_len as usize].to_vec();
    assert_eq!(
        with_zeroing,
        B::pro().stax(1).stax(2).op(&[0x48, 0x31, 0xC0, 0xC3]).0
    );
    // And with every slot a parameter, no zeroing stores at all.
    assert_eq!(got, B::pro().op(&[0x48, 0x31, 0xC0, 0xC3]).0);
}

#[test]
fn golden_load_imm_and_mov() {
    let got = golden(
        vec![
            MInst::LoadImm {
                dst: r(2),
                bits: 42,
            },
            MInst::Mov {
                dst: r(3),
                src: r(2),
            },
            MInst::Ret { src: Some(r(3)) },
        ],
        4,
    );
    let want = B::pro()
        .op(&[0x48, 0xB8])
        .d64(42)
        .stax(2)
        .ldax(2)
        .stax(3)
        .ldax(3)
        .op(&[0xC3]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_simple_alu_ops() {
    for (op, bytes) in [
        (AluOp::Add, &[0x48, 0x01, 0xC8][..]),
        (AluOp::Sub, &[0x48, 0x29, 0xC8]),
        (AluOp::Mul, &[0x48, 0x0F, 0xAF, 0xC1]),
        (AluOp::And, &[0x48, 0x21, 0xC8]),
        (AluOp::Or, &[0x48, 0x09, 0xC8]),
        (AluOp::Xor, &[0x48, 0x31, 0xC8]),
        (AluOp::Shl, &[0x48, 0xD3, 0xE0]),
        (AluOp::Shr, &[0x48, 0xD3, 0xF8]),
        (AluOp::Ushr, &[0x48, 0xD3, 0xE8]),
    ] {
        let got = golden(
            vec![MInst::Alu {
                op,
                dst: r(2),
                a: r(0),
                b: r(1),
            }],
            3,
        );
        let want = B::pro().ldax(0).ldcx(1).op(bytes).stax(2);
        assert_eq!(got, want.0, "{op:?}");
    }
}

#[test]
fn golden_div_expansion() {
    // Java semantics in full: zero-divisor raise, MIN/-1 wrap, cqo+idiv.
    let got = golden(
        vec![MInst::Alu {
            op: AluOp::Div,
            dst: r(2),
            a: r(0),
            b: r(1),
        }],
        3,
    );
    let want = B::pro()
        .ldax(0)
        .ldcx(1)
        .op(&[0x48, 0x85, 0xC9]) // test rcx, rcx
        .op(&[0x75, 0x0C]) // jnz past the raise
        .op(&[0xBF]) // mov edi, ARITH
        .d32(2)
        .op(&[0xB8]) // mov eax, SVC_RAISE
        .d32(1)
        .op(&[0x0F, 0x05]) // syscall
        .op(&[0x48, 0xBA]) // movabs rdx, i64::MIN
        .d64(i64::MIN as u64)
        .op(&[0x48, 0x39, 0xD0]) // cmp rax, rdx
        .op(&[0x75, 0x08]) // jne → cqo
        .op(&[0x48, 0x83, 0xF9, 0xFF]) // cmp rcx, -1
        .op(&[0x75, 0x02]) // jne → cqo
        .op(&[0xEB, 0x05]) // jmp done (result is rax = MIN)
        .op(&[0x48, 0x99]) // cqo
        .op(&[0x48, 0xF7, 0xF9]) // idiv rcx
        .stax(2);
    assert_eq!(got, want.0);
}

#[test]
fn golden_rem_expansion() {
    let got = golden(
        vec![MInst::Alu {
            op: AluOp::Rem,
            dst: r(2),
            a: r(0),
            b: r(1),
        }],
        3,
    );
    let want = B::pro()
        .ldax(0)
        .ldcx(1)
        .op(&[0x48, 0x85, 0xC9])
        .op(&[0x75, 0x0C])
        .op(&[0xBF])
        .d32(2)
        .op(&[0xB8])
        .d32(1)
        .op(&[0x0F, 0x05])
        .op(&[0x48, 0xBA])
        .d64(i64::MIN as u64)
        .op(&[0x48, 0x39, 0xD0])
        .op(&[0x75, 0x0B])
        .op(&[0x48, 0x83, 0xF9, 0xFF])
        .op(&[0x75, 0x05])
        .op(&[0x48, 0x31, 0xC0]) // MIN % -1 == 0
        .op(&[0xEB, 0x08])
        .op(&[0x48, 0x99])
        .op(&[0x48, 0xF7, 0xF9])
        .op(&[0x48, 0x89, 0xD0]) // remainder lives in rdx
        .stax(2);
    assert_eq!(got, want.0);
}

#[test]
fn golden_float_alu_ops() {
    for (op, sse) in [
        (FaluOp::Add, 0x58u8),
        (FaluOp::Sub, 0x5C),
        (FaluOp::Mul, 0x59),
        (FaluOp::Div, 0x5E),
    ] {
        let got = golden(
            vec![MInst::Falu {
                op,
                dst: r(2),
                a: r(0),
                b: r(1),
            }],
            3,
        );
        let want = B::pro()
            .op(&[0xF2, 0x0F, 0x10, 0x85])
            .d32(0)
            .op(&[0xF2, 0x0F, 0x10, 0x8D])
            .d32(8)
            .op(&[0xF2, 0x0F, sse, 0xC1])
            .op(&[0xF2, 0x0F, 0x11, 0x85])
            .d32(16);
        assert_eq!(got, want.0, "{op:?}");
    }
    // Remainder rides the runtime service, like a libm call.
    let got = golden(
        vec![MInst::Falu {
            op: FaluOp::Rem,
            dst: r(2),
            a: r(0),
            b: r(1),
        }],
        3,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(0)
        .op(&[0xBE])
        .d32(1)
        .op(&[0xB8])
        .d32(7) // SVC_FREM
        .op(&[0x0F, 0x05])
        .stax(2);
    assert_eq!(got, want.0);
}

#[test]
fn golden_neg() {
    let got = golden(
        vec![MInst::Neg {
            dst: r(1),
            a: r(0),
            float: false,
        }],
        2,
    );
    assert_eq!(got, B::pro().ldax(0).op(&[0x48, 0xF7, 0xD8]).stax(1).0);

    // Float negate is a sign-bit xor — bit-exact for NaN payloads.
    let got = golden(
        vec![MInst::Neg {
            dst: r(1),
            a: r(0),
            float: true,
        }],
        2,
    );
    let want = B::pro()
        .ldax(0)
        .op(&[0x48, 0xBA])
        .d64(0x8000_0000_0000_0000)
        .op(&[0x48, 0x31, 0xD0])
        .stax(1);
    assert_eq!(got, want.0);
}

#[test]
fn golden_cvt() {
    // Float → int saturates through the runtime (cvttsd2si would trap).
    let got = golden(
        vec![MInst::Cvt {
            dst: r(1),
            src: r(0),
            to_int: true,
        }],
        2,
    );
    let want = B::pro()
        .op(&[0xBE])
        .d32(0)
        .op(&[0xB8])
        .d32(6) // SVC_CVT_TO_INT
        .op(&[0x0F, 0x05])
        .stax(1);
    assert_eq!(got, want.0);

    // Int → float is a real cvtsi2sd.
    let got = golden(
        vec![MInst::Cvt {
            dst: r(1),
            src: r(0),
            to_int: false,
        }],
        2,
    );
    let want = B::pro()
        .ldax(0)
        .op(&[0xF2, 0x48, 0x0F, 0x2A, 0xC0])
        .op(&[0xF2, 0x0F, 0x11, 0x85])
        .d32(8);
    assert_eq!(got, want.0);
}

#[test]
fn golden_fcmp_and_operand_swap() {
    let got = golden(
        vec![MInst::Fcmp {
            dst: r(2),
            cond: Cond::Lt,
            a: r(0),
            b: r(1),
        }],
        3,
    );
    let want = B::pro()
        .op(&[0xF2, 0x0F, 0x10, 0x85])
        .d32(0)
        .op(&[0xF2, 0x0F, 0x10, 0x8D])
        .d32(8)
        .op(&[0xF2, 0x0F, 0xC2, 0xC1, 0x01]) // cmpltsd
        .op(&[0x66, 0x48, 0x0F, 0x7E, 0xC0]) // movq rax, xmm0
        .op(&[0x48, 0x83, 0xE0, 0x01]) // and rax, 1
        .stax(2);
    assert_eq!(got, want.0);

    // x > y flips to y < x: the operand loads swap, the predicate stays.
    let got = golden(
        vec![MInst::Fcmp {
            dst: r(2),
            cond: Cond::Gt,
            a: r(0),
            b: r(1),
        }],
        3,
    );
    let want = B::pro()
        .op(&[0xF2, 0x0F, 0x10, 0x85])
        .d32(8)
        .op(&[0xF2, 0x0F, 0x10, 0x8D])
        .d32(0)
        .op(&[0xF2, 0x0F, 0xC2, 0xC1, 0x01])
        .op(&[0x66, 0x48, 0x0F, 0x7E, 0xC0])
        .op(&[0x48, 0x83, 0xE0, 0x01])
        .stax(2);
    assert_eq!(got, want.0);
}

#[test]
fn golden_memory_accesses() {
    // Static field load: the access instruction is `mov rdx, [rax+disp]`.
    let got = golden(
        vec![MInst::Load {
            dst: r(1),
            base: r(0),
            index: None,
            imm: 8,
        }],
        2,
    );
    let want = B::pro().ldax(0).op(&[0x48, 0x8B, 0x90]).d32(8).stdx(1);
    assert_eq!(got, want.0);

    // Index-scaled array load: `mov rdx, [rax + rcx*8 + disp]`.
    let got = golden(
        vec![MInst::Load {
            dst: r(2),
            base: r(0),
            index: Some(r(1)),
            imm: 16,
        }],
        3,
    );
    let want = B::pro()
        .ldax(0)
        .ldcx(1)
        .op(&[0x48, 0x8B, 0x94, 0xC8])
        .d32(16)
        .stdx(2);
    assert_eq!(got, want.0);

    // A displacement past i32::MAX folds into the base with wrapping
    // 64-bit arithmetic (the wild "BigOffset" probes).
    let got = golden(
        vec![MInst::Load {
            dst: r(1),
            base: r(0),
            index: None,
            imm: 0x8000_0000,
        }],
        2,
    );
    let want = B::pro()
        .ldax(0)
        .op(&[0x48, 0xBA])
        .d64(0x8000_0000)
        .op(&[0x48, 0x01, 0xD0]) // add rax, rdx
        .op(&[0x48, 0x8B, 0x90])
        .d32(0)
        .stdx(1);
    assert_eq!(got, want.0);

    // Static store: value staged in rdx, `mov [rax+disp], rdx`.
    let got = golden(
        vec![MInst::Store {
            src: r(1),
            base: r(0),
            index: None,
            imm: 8,
        }],
        2,
    );
    let want = B::pro().ldax(0).lddx(1).op(&[0x48, 0x89, 0x90]).d32(8);
    assert_eq!(got, want.0);

    // Index-scaled store.
    let got = golden(
        vec![MInst::Store {
            src: r(2),
            base: r(0),
            index: Some(r(1)),
            imm: 16,
        }],
        3,
    );
    let want = B::pro()
        .ldax(0)
        .ldcx(1)
        .lddx(2)
        .op(&[0x48, 0x89, 0x94, 0xC8])
        .d32(16);
    assert_eq!(got, want.0);
}

#[test]
fn golden_branches() {
    // Forward conditional + backward unconditional, rel32s patched.
    let got = golden(
        vec![
            MInst::Br {
                cond: Cond::Eq,
                a: r(0),
                b: r(1),
                target: 2,
            },
            MInst::Jmp { target: 0 },
            MInst::Ret { src: Some(r(0)) },
        ],
        2,
    );
    let want = B::pro()
        .ldax(0)
        .ldcx(1)
        .op(&[0x48, 0x39, 0xC8]) // cmp rax, rcx
        .op(&[0x0F, 0x84]) // je
        .d32(5) // over the jmp, to vpc 2
        .op(&[0xE9]) // jmp
        .d32((-28i32) as u32) // back to vpc 0
        .ldax(0)
        .op(&[0xC3]);
    assert_eq!(got, want.0);

    // Every condition's jcc opcode byte.
    for (cond, cc) in [
        (Cond::Eq, 0x84u8),
        (Cond::Ne, 0x85),
        (Cond::Lt, 0x8C),
        (Cond::Le, 0x8E),
        (Cond::Gt, 0x8F),
        (Cond::Ge, 0x8D),
    ] {
        let got = golden(
            vec![
                MInst::Br {
                    cond,
                    a: r(0),
                    b: r(1),
                    target: 1,
                },
                MInst::Ret { src: Some(r(0)) },
            ],
            2,
        );
        assert_eq!(got[20..22], [0x0F, cc], "{cond:?}");
    }
}

#[test]
fn golden_explicit_checks() {
    // THE explicit null check fingerprint: `test rax, rax` appears here
    // and nowhere else — the verifier's census counts on it.
    let got = golden(vec![MInst::CheckNull { reg: r(0) }], 1);
    let want = B::pro()
        .ldax(0)
        .op(&[0x48, 0x85, 0xC0]) // test rax, rax
        .op(&[0x75, 0x0C]) // jnz past the raise
        .op(&[0xBF])
        .d32(0) // EXC_TAG_NPE
        .op(&[0xB8])
        .d32(1) // SVC_RAISE
        .op(&[0x0F, 0x05]);
    assert_eq!(got, want.0);

    // Bounds check folds both bounds into one unsigned branch.
    let got = golden(
        vec![MInst::CheckBounds {
            index: r(0),
            length: r(1),
        }],
        2,
    );
    let want = B::pro()
        .ldax(0)
        .ldcx(1)
        .op(&[0x48, 0x39, 0xC8]) // cmp rax, rcx
        .op(&[0x72, 0x0C]) // jb past the raise
        .op(&[0xBF])
        .d32(1) // EXC_TAG_BOUNDS
        .op(&[0xB8])
        .d32(1)
        .op(&[0x0F, 0x05]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_allocation_and_services() {
    let got = golden(
        vec![MInst::NewObj {
            dst: r(0),
            class: ClassId::new(3),
        }],
        1,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(3)
        .op(&[0xB8])
        .d32(2) // SVC_NEWOBJ
        .op(&[0x0F, 0x05])
        .stax(0);
    assert_eq!(got, want.0);

    let got = golden(
        vec![MInst::NewArr {
            dst: r(1),
            elem: Type::Int,
            len: r(0),
        }],
        2,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(1) // element tag: Int
        .op(&[0xBE])
        .d32(0) // length slot
        .op(&[0xB8])
        .d32(3) // SVC_NEWARR
        .op(&[0x0F, 0x05])
        .stax(1);
    assert_eq!(got, want.0);

    let got = golden(
        vec![MInst::Math {
            op: Intrinsic::Sqrt,
            dst: r(1),
            src: r(0),
        }],
        2,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(1) // Sqrt tag
        .op(&[0xBE])
        .d32(0)
        .op(&[0xB8])
        .d32(5) // SVC_MATH
        .op(&[0x0F, 0x05])
        .stax(1);
    assert_eq!(got, want.0);

    let got = golden(
        vec![MInst::Observe {
            src: r(0),
            ty: Type::Float,
        }],
        1,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(2) // Float tag
        .op(&[0xBE])
        .d32(0)
        .op(&[0xB8])
        .d32(4) // SVC_OBSERVE
        .op(&[0x0F, 0x05]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_throw() {
    let got = golden(
        vec![MInst::Throw {
            kind: ExceptionKind::Arithmetic,
        }],
        1,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(2)
        .op(&[0xB8])
        .d32(1)
        .op(&[0x0F, 0x05]);
    assert_eq!(got, want.0);

    // User exceptions carry their code in rdx.
    let got = golden(
        vec![MInst::Throw {
            kind: ExceptionKind::User(9),
        }],
        1,
    );
    let want = B::pro()
        .op(&[0xBF])
        .d32(4)
        .op(&[0x48, 0xBA])
        .d64(9)
        .op(&[0xB8])
        .d32(1)
        .op(&[0x0F, 0x05]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_static_call() {
    let callee = MachineFunction {
        name: "callee".to_string(),
        code: vec![MInst::Ret { src: Some(r(0)) }],
        num_regs: 1,
        num_params: 1,
        ret: Some(Type::Int),
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let main = MachineFunction {
        name: "main".to_string(),
        code: vec![
            MInst::LoadImm { dst: r(0), bits: 7 },
            MInst::Call {
                target: FunctionId::new(0),
                args: vec![r(0)],
                dst: Some(r(1)),
            },
            MInst::Ret { src: Some(r(1)) },
        ],
        num_regs: 2,
        num_params: 2,
        ret: Some(Type::Int),
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let mm = MachineModule {
        functions: vec![callee, main],
        classes: vec![],
    };
    let em = emit_module(&mm, 1);
    let mf = &em.functions[1];
    assert_eq!(mf.text_off, 16); // callee is 11 bytes, padded to 16
    let got = em.text[mf.text_off as usize..(mf.text_off + mf.text_len) as usize].to_vec();
    let want = B::pro()
        .op(&[0x48, 0xB8])
        .d64(7)
        .stax(0)
        .ldax(0)
        .stax(2) // arg staged past the caller frame
        .op(&[0x48, 0x8D, 0xAD]) // lea rbp, [rbp + 16]
        .d32(16)
        .op(&[0xE8]) // call rel32 → callee at absolute 0
        .d32((-62i32) as u32)
        .op(&[0x48, 0x8D, 0xAD]) // lea rbp, [rbp - 16]
        .d32((-16i32) as u32)
        .stax(1) // callee returns a value → store it
        .ldax(1)
        .op(&[0xC3]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_void_call_stores_nothing() {
    // A callee with no return type must leave the destination untouched.
    let callee = MachineFunction {
        name: "callee".to_string(),
        code: vec![MInst::Ret { src: None }],
        num_regs: 0,
        num_params: 0,
        ret: None,
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let main = MachineFunction {
        name: "main".to_string(),
        code: vec![
            MInst::Call {
                target: FunctionId::new(0),
                args: vec![],
                dst: Some(r(0)),
            },
            MInst::Ret { src: Some(r(0)) },
        ],
        num_regs: 1,
        num_params: 1,
        ret: Some(Type::Int),
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let mm = MachineModule {
        functions: vec![callee, main],
        classes: vec![],
    };
    let em = emit_module(&mm, 1);
    let mf = &em.functions[1];
    let got = em.text[mf.text_off as usize..(mf.text_off + mf.text_len) as usize].to_vec();
    let want = B::pro()
        .op(&[0x48, 0x8D, 0xAD])
        .d32(8)
        .op(&[0xE8])
        .d32((-31i32) as u32)
        .op(&[0x48, 0x8D, 0xAD])
        .d32((-8i32) as u32)
        // no store: the callee is void
        .ldax(0)
        .op(&[0xC3]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_virtual_call() {
    let target = MachineFunction {
        name: "m_impl".to_string(),
        code: vec![MInst::Ret { src: Some(r(0)) }],
        num_regs: 1,
        num_params: 1,
        ret: Some(Type::Int),
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let main = MachineFunction {
        name: "main".to_string(),
        code: vec![
            MInst::CallVirtual {
                method: "m".to_string(),
                receiver: r(0),
                args: vec![r(1)],
                dst: Some(r(1)),
            },
            MInst::Ret { src: Some(r(1)) },
        ],
        num_regs: 2,
        num_params: 2,
        ret: Some(Type::Int),
        sites: ExceptionSiteTable::new(),
        handlers: HandlerTable::default(),
    };
    let mut methods = std::collections::HashMap::new();
    methods.insert("m".to_string(), 0usize);
    let mm = MachineModule {
        functions: vec![target, main],
        classes: vec![MachineClass { size: 16, methods }],
    };
    let em = emit_module(&mm, 1);
    let mf = &em.functions[1];
    let got = em.text[mf.text_off as usize..(mf.text_off + mf.text_len) as usize].to_vec();
    let want = B::pro()
        // Dispatch header load — THE trapping access of a virtual call.
        .ldax(0)
        .op(&[0x48, 0x8B, 0x90])
        .d32(0)
        // Receiver + args staged into the callee frame.
        .ldax(0)
        .stax(2)
        .ldax(1)
        .stax(3)
        .op(&[0x48, 0x8D, 0xAD])
        .d32(16)
        .op(&[0xBF])
        .d32(0) // method id 0 ("m")
        .op(&[0xB8])
        .d32(8) // SVC_CALLV
        .op(&[0x0F, 0x05])
        .op(&[0x48, 0x8D, 0xAD])
        .d32((-16i32) as u32)
        .stax(1)
        .ldax(1)
        .op(&[0xC3]);
    assert_eq!(got, want.0);
}

#[test]
fn golden_return_expansion() {
    let got = golden_ret(vec![MInst::Ret { src: None }], 1, None);
    assert_eq!(got, B::pro().op(&[0x48, 0x31, 0xC0, 0xC3]).0);

    let got = golden(vec![MInst::Ret { src: Some(r(0)) }], 1);
    assert_eq!(got, B::pro().ldax(0).op(&[0xC3]).0);
}

// ---------------------------------------------------------------------
// Decoder round-trip over the full corpus.
// ---------------------------------------------------------------------

/// Replicates the CLI's `.njc` fixture loader.
fn load_fixture(path: &std::path::Path) -> njc_ir::Module {
    let source = std::fs::read_to_string(path).unwrap();
    let mut module = njc_ir::Module::new("fixture");
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
        module.add_function(njc_ir::parse_function(chunk).unwrap());
    }
    njc_ir::verify_module(&module).unwrap();
    module
}

/// Decodes the entire text stream and re-encodes every instruction: the
/// verifier's decoder must re-derive the exact byte stream the encoder
/// produced, padding included.
fn assert_round_trips(em: &njc_emit::EmittedModule, what: &str) {
    let mut rebuilt = Vec::with_capacity(em.text.len());
    let mut pos = 0usize;
    let mut insts = 0usize;
    while pos < em.text.len() {
        let (dec, len) = decode_one(&em.text, pos)
            .unwrap_or_else(|e| panic!("{what}: undecodable at {pos}: {e:?}"));
        dec.encode(&mut rebuilt);
        assert_eq!(
            rebuilt.len(),
            pos + len,
            "{what}: {dec:?} re-encoded to a different length"
        );
        pos += len;
        insts += 1;
    }
    assert_eq!(rebuilt, em.text, "{what}: re-encoded bytes differ");
    assert!(insts > 0);
    // Pad bytes only ever appear between functions, never inside one.
    for f in &em.functions {
        let code = &em.text[f.text_off as usize..(f.text_off + f.text_len) as usize];
        let mut p = 0usize;
        while p < code.len() {
            let (dec, len) = decode_one(code, p).unwrap();
            assert!(
                !matches!(dec, Dec::Pad),
                "{what}: pad byte inside {}",
                f.name
            );
            p += len;
        }
    }
}

#[test]
fn decoder_round_trips_whole_corpus() {
    use njc_opt::{optimize_module, ConfigKind};

    let platform = njc_arch::Platform::windows_ia32();
    // Every workload under the paper's full configuration...
    for w in njc_workloads::all() {
        let mut m = w.module.clone();
        optimize_module(&mut m, &platform, &ConfigKind::Full.to_config(&platform));
        let em = emit_module(&njc_codegen::lower_module(&m), 2);
        assert_round_trips(&em, w.name);
    }
    // ...and every committed difftest fixture, unoptimized (maximally
    // explicit code exercises the check expansions).
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(fixtures).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "njc") {
            let m = load_fixture(&path);
            let em = emit_module(&njc_codegen::lower_module(&m), 2);
            assert_round_trips(&em, &path.display().to_string());
            seen += 1;
        }
    }
    assert!(
        seen >= 3,
        "expected the committed fixture corpus, saw {seen}"
    );
}
