//! The emitted-code ABI: register roles, frame model, and the runtime
//! service interface.
//!
//! The encoder targets a deliberately small calling convention so that the
//! decoder (and hence the verifier) can reason about every byte:
//!
//! * every virtual register `r{i}` lives in the frame slot `[rbp + 8*i]`
//!   (the frame pointer is a slot cursor into an upward-growing stack, not
//!   the hardware stack);
//! * scratch registers are `rax`/`rcx`/`rdx` and `xmm0`/`xmm1`; no value
//!   lives in a scratch register across a virtual instruction boundary;
//! * calls advance `rbp` by the caller's frame size (`lea rbp, [rbp+8*n]`),
//!   stage arguments directly into the callee's slots, and restore on
//!   return — so unwinding only needs the per-call frame size;
//! * everything the hardware cannot do alone (allocation, dispatch,
//!   exception raising, math library calls) is a `syscall` with the
//!   service id in `eax` and operands in `edi`/`esi`/`rdx`.

use njc_ir::{ExceptionKind, Intrinsic};

/// Service id (`eax` at `syscall`): raise the exception whose tag is in
/// `edi` (and, for [`EXC_TAG_USER`], whose code is in `rdx`).
pub const SVC_RAISE: u32 = 1;
/// Service id: allocate the class whose index is in `edi`; address → `rax`.
pub const SVC_NEWOBJ: u32 = 2;
/// Service id: allocate an array — element tag in `edi`, length slot in
/// `esi`; address → `rax`. Raises `NegativeArraySize` on a negative length.
pub const SVC_NEWARR: u32 = 3;
/// Service id: observe the slot in `esi` with the type tag in `edi`.
pub const SVC_OBSERVE: u32 = 4;
/// Service id: math intrinsic `edi` over the slot in `esi`; bits → `rax`.
pub const SVC_MATH: u32 = 5;
/// Service id: float→int conversion of the slot in `esi` with Java/Rust
/// `as` saturation semantics; bits → `rax`.
pub const SVC_CVT_TO_INT: u32 = 6;
/// Service id: float remainder of slots `edi` and `esi`; bits → `rax`.
pub const SVC_FREM: u32 = 7;
/// Service id: virtual dispatch — method id in `edi`, receiver class tag
/// in `rdx` (loaded by the preceding header access, which is the trapping
/// instruction). The runtime performs the call; return bits → `rax`.
pub const SVC_CALLV: u32 = 8;

/// Exception tag for [`SVC_RAISE`]: `NullPointerException`.
pub const EXC_TAG_NPE: u32 = 0;
/// Exception tag: `ArrayIndexOutOfBoundsException`.
pub const EXC_TAG_BOUNDS: u32 = 1;
/// Exception tag: `ArithmeticException`.
pub const EXC_TAG_ARITH: u32 = 2;
/// Exception tag: `NegativeArraySizeException`.
pub const EXC_TAG_NEGSIZE: u32 = 3;
/// Exception tag: user exception (code in `rdx`).
pub const EXC_TAG_USER: u32 = 4;

/// The raise tag for an exception kind (the user code travels in `rdx`).
pub fn exception_tag(kind: ExceptionKind) -> u32 {
    match kind {
        ExceptionKind::NullPointer => EXC_TAG_NPE,
        ExceptionKind::ArrayIndex => EXC_TAG_BOUNDS,
        ExceptionKind::Arithmetic => EXC_TAG_ARITH,
        ExceptionKind::NegativeArraySize => EXC_TAG_NEGSIZE,
        ExceptionKind::User(_) => EXC_TAG_USER,
    }
}

/// Reconstructs an exception kind from a raise tag and the `rdx` code.
pub fn exception_from_tag(tag: u32, code: i64) -> Option<ExceptionKind> {
    Some(match tag {
        EXC_TAG_NPE => ExceptionKind::NullPointer,
        EXC_TAG_BOUNDS => ExceptionKind::ArrayIndex,
        EXC_TAG_ARITH => ExceptionKind::Arithmetic,
        EXC_TAG_NEGSIZE => ExceptionKind::NegativeArraySize,
        EXC_TAG_USER => ExceptionKind::User(code),
        _ => return None,
    })
}

/// The numeric tag for a type (array element headers, observe calls) and
/// its inverse: the heap layout's mapping, shared with the IR interpreter.
pub use njc_trap::{type_from_tag, type_tag};

/// The numeric tag for a math intrinsic.
pub fn intrinsic_tag(op: Intrinsic) -> u32 {
    match op {
        Intrinsic::Exp => 0,
        Intrinsic::Sqrt => 1,
        Intrinsic::Sin => 2,
        Intrinsic::Cos => 3,
        Intrinsic::Abs => 4,
        Intrinsic::Log => 5,
    }
}

/// Inverse of [`intrinsic_tag`].
pub fn intrinsic_from_tag(tag: u32) -> Option<Intrinsic> {
    Some(match tag {
        0 => Intrinsic::Exp,
        1 => Intrinsic::Sqrt,
        2 => Intrinsic::Sin,
        3 => Intrinsic::Cos,
        4 => Intrinsic::Abs,
        5 => Intrinsic::Log,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for kind in [
            ExceptionKind::NullPointer,
            ExceptionKind::ArrayIndex,
            ExceptionKind::Arithmetic,
            ExceptionKind::NegativeArraySize,
            ExceptionKind::User(-77),
        ] {
            assert_eq!(
                exception_from_tag(exception_tag(kind), kind.code()),
                Some(kind)
            );
        }
        for op in [
            Intrinsic::Exp,
            Intrinsic::Sqrt,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Abs,
            Intrinsic::Log,
        ] {
            assert_eq!(intrinsic_from_tag(intrinsic_tag(op)), Some(op));
        }
        assert_eq!(exception_from_tag(99, 0), None);
        assert_eq!(intrinsic_from_tag(6), None);
    }
}
