//! The instruction set, and the classification queries the null check
//! optimizer's dataflow analyses are built on.
//!
//! Following paper §3, potentially-trapping operations are *bare*: a
//! [`Inst::GetField`] by itself never throws; the NullPointerException
//! obligation is carried by a separate [`Inst::NullCheck`] targeting the same
//! variable. The [`crate::FuncBuilder`] emits those checks automatically so
//! that unoptimized IR has exactly one check in front of every dereference.

use crate::module::{ClassId, FieldId, FunctionId};
use crate::types::{CheckId, ConstValue, Type, VarId};

/// Binary and unary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Addition. Int or float.
    Add,
    /// Subtraction. Int or float.
    Sub,
    /// Multiplication. Int or float.
    Mul,
    /// Division. **Throws** `ArithmeticException` on integer division by zero,
    /// so it is a side-effecting instruction for the purposes of null check
    /// motion (paper §4.1.1 `Kill_bwd`).
    Div,
    /// Remainder. Same exception behaviour as [`Op::Div`].
    Rem,
    /// Bitwise and. Int only.
    And,
    /// Bitwise or. Int only.
    Or,
    /// Bitwise xor. Int only.
    Xor,
    /// Arithmetic shift left. Int only.
    Shl,
    /// Arithmetic shift right. Int only.
    Shr,
    /// Unsigned (logical) shift right. Int only.
    Ushr,
}

impl Op {
    /// Whether this operator can throw an `ArithmeticException` (integer
    /// division or remainder by zero).
    pub fn can_throw(self, ty: Type) -> bool {
        matches!(self, Op::Div | Op::Rem) && ty == Type::Int
    }
}

/// Comparison conditions for [`crate::Terminator::If`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// The condition that holds exactly when `self` does not.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Evaluates the condition over two integers.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Le => lhs <= rhs,
            Cond::Gt => lhs > rhs,
            Cond::Ge => lhs >= rhs,
        }
    }
}

/// How a null check is implemented (paper §3.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum NullCheckKind {
    /// An *explicit null check*: an actual compare-and-throw (IA32) or
    /// conditional trap (PowerPC) instruction is generated.
    #[default]
    Explicit,
    /// An *implicit null check*: no instruction is generated; the immediately
    /// following slot access is marked as the exception site and the hardware
    /// trap detects the null pointer. Produced only by the architecture
    /// dependent optimization (phase 2) or the trivial trap conversion.
    Implicit,
}

/// Whether a memory slot access reads or writes.
///
/// The distinction matters because some operating systems (AIX in the paper)
/// deliver hardware traps only for *writes* to the protected page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AccessKind {
    /// The access reads memory.
    Read,
    /// The access writes memory.
    Write,
}

/// Math intrinsics that lower to a single machine instruction on some
/// architectures (paper §5.4 discusses `java.lang.Math.exp` on IA32 vs PPC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    /// `Math.exp`.
    Exp,
    /// `Math.sqrt`.
    Sqrt,
    /// `Math.sin`.
    Sin,
    /// `Math.cos`.
    Cos,
    /// `Math.abs` (float).
    Abs,
    /// `Math.log`.
    Log,
}

impl Intrinsic {
    /// The method name this intrinsic replaces, as found in class tables.
    pub fn method_name(self) -> &'static str {
        match self {
            Intrinsic::Exp => "exp",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Abs => "abs",
            Intrinsic::Log => "log",
        }
    }

    /// Looks an intrinsic up by method name.
    pub fn from_method_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "exp" => Intrinsic::Exp,
            "sqrt" => Intrinsic::Sqrt,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "abs" => Intrinsic::Abs,
            "log" => Intrinsic::Log,
            _ => return None,
        })
    }

    /// Applies the intrinsic to a float value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Intrinsic::Exp => x.exp(),
            Intrinsic::Sqrt => x.sqrt(),
            Intrinsic::Sin => x.sin(),
            Intrinsic::Cos => x.cos(),
            Intrinsic::Abs => x.abs(),
            Intrinsic::Log => x.ln(),
        }
    }
}

/// Exception kinds thrown by IR instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExceptionKind {
    /// `java.lang.NullPointerException`.
    NullPointer,
    /// `java.lang.ArrayIndexOutOfBoundsException`.
    ArrayIndex,
    /// `java.lang.ArithmeticException` (integer division by zero).
    Arithmetic,
    /// `java.lang.NegativeArraySizeException`.
    NegativeArraySize,
    /// A user-thrown exception carrying an integer code.
    User(i64),
}

impl ExceptionKind {
    /// Integer code handed to a catch handler's exception variable.
    pub fn code(self) -> i64 {
        match self {
            ExceptionKind::NullPointer => -1,
            ExceptionKind::ArrayIndex => -2,
            ExceptionKind::Arithmetic => -3,
            ExceptionKind::NegativeArraySize => -4,
            ExceptionKind::User(c) => c,
        }
    }
}

/// The callee of a [`Inst::Call`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CallTarget {
    /// Static (class) method: no receiver.
    Static(FunctionId),
    /// Virtual dispatch through the receiver's method table. Resolving the
    /// target **reads the object header at offset 0**, so a virtual call is a
    /// slot access that traps on a null receiver (paper §2.1).
    Virtual {
        /// Class the call is declared against (used for devirtualization).
        class: ClassId,
        /// Method name looked up in the receiver's class.
        method: String,
    },
    /// Devirtualized direct call: the dynamic target is known, so **no object
    /// header access happens** and the null check must stay explicit unless
    /// something else covers it — the Figure 1 situation.
    Direct(FunctionId),
}

/// A single (non-terminator) IR instruction.
///
/// Classification queries ([`Inst::def`], [`Inst::uses`],
/// [`Inst::requires_null_check`], [`Inst::slot_access`],
/// [`Inst::writes_memory`], [`Inst::can_throw_other`]) encode exactly the
/// properties the paper's `Gen`/`Kill`/`Edge` sets are defined over.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// `dst = constant`.
    Const {
        /// Destination variable.
        dst: VarId,
        /// The constant.
        value: ConstValue,
    },
    /// `dst = src`.
    Move {
        /// Destination variable.
        dst: VarId,
        /// Source variable.
        src: VarId,
    },
    /// `dst = lhs op rhs`.
    BinOp {
        /// Destination variable.
        dst: VarId,
        /// Operator.
        op: Op,
        /// Left operand.
        lhs: VarId,
        /// Right operand.
        rhs: VarId,
        /// Operand type (int or float).
        ty: Type,
    },
    /// `dst = -src` (arithmetic negate).
    Neg {
        /// Destination variable.
        dst: VarId,
        /// Source variable.
        src: VarId,
        /// Operand type.
        ty: Type,
    },
    /// `dst = (int) src` or `dst = (float) src`.
    Convert {
        /// Destination variable.
        dst: VarId,
        /// Source variable.
        src: VarId,
        /// Target type.
        to: Type,
    },
    /// A null check of `var` (paper §3.3.1). Throws `NullPointerException`
    /// if `var` is null. `Implicit` checks generate no code; the following
    /// slot access must be marked as an exception site.
    NullCheck {
        /// The checked reference variable.
        var: VarId,
        /// Explicit or implicit implementation.
        kind: NullCheckKind,
        /// Provenance identity ([`CheckId::NONE`] until assigned). Carried
        /// through every pass so the observability layer can tell the
        /// check's life story; printed as a `#n` suffix.
        id: CheckId,
    },
    /// An array bounds check: throws `ArrayIndexOutOfBoundsException` unless
    /// `0 <= index < length`.
    BoundCheck {
        /// Index variable.
        index: VarId,
        /// Length variable (usually produced by [`Inst::ArrayLength`]).
        length: VarId,
    },
    /// `dst = obj.field` — a bare field read; its null check lives elsewhere.
    GetField {
        /// Destination variable.
        dst: VarId,
        /// Base object.
        obj: VarId,
        /// Field being read.
        field: FieldId,
        /// Marked by phase 2 when this access is the exception site of an
        /// implicit null check.
        exception_site: bool,
    },
    /// `obj.field = value` — a bare field write.
    PutField {
        /// Base object.
        obj: VarId,
        /// Field being written.
        field: FieldId,
        /// Stored value.
        value: VarId,
        /// See [`Inst::GetField::exception_site`].
        exception_site: bool,
    },
    /// `dst = arraylength arr` — reads the length slot at object offset 0.
    ArrayLength {
        /// Destination variable.
        dst: VarId,
        /// Array reference.
        arr: VarId,
        /// See [`Inst::GetField::exception_site`].
        exception_site: bool,
    },
    /// `dst = arr[index]` — a bare array element read (bounds check split
    /// into a preceding [`Inst::BoundCheck`]).
    ArrayLoad {
        /// Destination variable.
        dst: VarId,
        /// Array reference.
        arr: VarId,
        /// Index variable.
        index: VarId,
        /// Element type.
        ty: Type,
        /// See [`Inst::GetField::exception_site`].
        exception_site: bool,
    },
    /// `arr[index] = value` — a bare array element write.
    ArrayStore {
        /// Array reference.
        arr: VarId,
        /// Index variable.
        index: VarId,
        /// Stored value.
        value: VarId,
        /// Element type.
        ty: Type,
        /// See [`Inst::GetField::exception_site`].
        exception_site: bool,
    },
    /// `dst = new Class` — allocates an object; `dst` is known non-null
    /// afterwards (paper §4.1.2 `Gen_fwd`).
    New {
        /// Destination variable.
        dst: VarId,
        /// Allocated class.
        class: ClassId,
    },
    /// `dst = new ty[len]` — allocates an array. Throws
    /// `NegativeArraySizeException` if `len < 0`.
    NewArray {
        /// Destination variable.
        dst: VarId,
        /// Element type.
        elem: Type,
        /// Length variable.
        len: VarId,
    },
    /// A call. Virtual calls are slot accesses (header read at offset 0);
    /// direct and static calls are not. All calls are side-effecting
    /// barriers for null check motion.
    Call {
        /// Destination variable for the return value, if any.
        dst: Option<VarId>,
        /// Callee.
        target: CallTarget,
        /// Receiver (`this`) for virtual/direct calls.
        receiver: Option<VarId>,
        /// Argument variables (excluding the receiver).
        args: Vec<VarId>,
        /// See [`Inst::GetField::exception_site`]. Only meaningful for
        /// virtual calls (the method-table load is the trapping access).
        exception_site: bool,
    },
    /// `dst = intrinsic(src)` — a pure math operation; never throws, never
    /// touches memory, and therefore is *not* a motion barrier. Produced by
    /// the intrinsic-substitution pass on architectures that have the
    /// instruction (paper §5.4).
    IntrinsicOp {
        /// Destination variable.
        dst: VarId,
        /// The operation.
        intrinsic: Intrinsic,
        /// Float operand.
        src: VarId,
    },
    /// `dst = (lhs cond rhs) ? 1 : 0` over float operands. Pure.
    FCmp {
        /// Destination (int) variable.
        dst: VarId,
        /// Comparison condition.
        cond: Cond,
        /// Left float operand.
        lhs: VarId,
        /// Right float operand.
        rhs: VarId,
    },
    /// Appends the value of `var` to the program's observable output trace.
    /// Side-effecting: exceptions may not move across it.
    Observe {
        /// Observed variable.
        var: VarId,
    },
}

impl Inst {
    /// The variable defined (written) by this instruction, if any.
    pub fn def(&self) -> Option<VarId> {
        match *self {
            Inst::Const { dst, .. }
            | Inst::Move { dst, .. }
            | Inst::BinOp { dst, .. }
            | Inst::Neg { dst, .. }
            | Inst::Convert { dst, .. }
            | Inst::GetField { dst, .. }
            | Inst::ArrayLength { dst, .. }
            | Inst::ArrayLoad { dst, .. }
            | Inst::New { dst, .. }
            | Inst::NewArray { dst, .. }
            | Inst::IntrinsicOp { dst, .. }
            | Inst::FCmp { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst,
            Inst::NullCheck { .. }
            | Inst::BoundCheck { .. }
            | Inst::PutField { .. }
            | Inst::ArrayStore { .. }
            | Inst::Observe { .. } => None,
        }
    }

    /// Every variable read by this instruction, in operand order (a call's
    /// receiver before its arguments). Allocates nothing.
    pub fn uses(&self) -> impl Iterator<Item = VarId> + '_ {
        let (fixed, rest): ([Option<VarId>; 3], &[VarId]) = match *self {
            Inst::Const { .. } | Inst::New { .. } => ([None; 3], &[]),
            Inst::Move { src, .. }
            | Inst::Neg { src, .. }
            | Inst::Convert { src, .. }
            | Inst::IntrinsicOp { src, .. } => ([Some(src), None, None], &[]),
            Inst::BinOp { lhs, rhs, .. } | Inst::FCmp { lhs, rhs, .. } => {
                ([Some(lhs), Some(rhs), None], &[])
            }
            Inst::NullCheck { var, .. } | Inst::Observe { var } => ([Some(var), None, None], &[]),
            Inst::BoundCheck { index, length } => ([Some(index), Some(length), None], &[]),
            Inst::GetField { obj, .. } => ([Some(obj), None, None], &[]),
            Inst::PutField { obj, value, .. } => ([Some(obj), Some(value), None], &[]),
            Inst::ArrayLength { arr, .. } => ([Some(arr), None, None], &[]),
            Inst::ArrayLoad { arr, index, .. } => ([Some(arr), Some(index), None], &[]),
            Inst::ArrayStore {
                arr, index, value, ..
            } => ([Some(arr), Some(index), Some(value)], &[]),
            Inst::NewArray { len, .. } => ([Some(len), None, None], &[]),
            Inst::Call {
                receiver, ref args, ..
            } => ([receiver, None, None], args.as_slice()),
        };
        fixed.into_iter().flatten().chain(rest.iter().copied())
    }

    /// The reference variable this instruction dereferences — the *target* of
    /// the null check obligation — if any. Covers field/array accesses and
    /// receiver-taking calls.
    pub fn requires_null_check(&self) -> Option<VarId> {
        match self {
            Inst::GetField { obj, .. } | Inst::PutField { obj, .. } => Some(*obj),
            Inst::ArrayLength { arr, .. }
            | Inst::ArrayLoad { arr, .. }
            | Inst::ArrayStore { arr, .. } => Some(*arr),
            Inst::Call {
                receiver: Some(r),
                target,
                ..
            } if !matches!(target, CallTarget::Static(_)) => Some(*r),
            _ => None,
        }
    }

    /// If this instruction accesses a memory slot of an object, returns
    /// `(base variable, statically known offset, read/write)`.
    ///
    /// `None` for the offset means the offset is not statically known (array
    /// element accesses): such an access still faults on a null base at run
    /// time, but the *compiler* may not rely on it trapping, because the
    /// effective address can exceed the protected area (paper §3.3.1,
    /// Figure 5 (1)).
    pub fn slot_access(&self, field_offset: impl Fn(FieldId) -> u64) -> Option<SlotAccess> {
        match self {
            Inst::GetField { obj, field, .. } => Some(SlotAccess {
                base: *obj,
                offset: Some(field_offset(*field)),
                kind: AccessKind::Read,
            }),
            Inst::PutField { obj, field, .. } => Some(SlotAccess {
                base: *obj,
                offset: Some(field_offset(*field)),
                kind: AccessKind::Write,
            }),
            Inst::ArrayLength { arr, .. } => Some(SlotAccess {
                base: *arr,
                offset: Some(0),
                kind: AccessKind::Read,
            }),
            Inst::ArrayLoad { arr, .. } => Some(SlotAccess {
                base: *arr,
                offset: None,
                kind: AccessKind::Read,
            }),
            Inst::ArrayStore { arr, .. } => Some(SlotAccess {
                base: *arr,
                offset: None,
                kind: AccessKind::Write,
            }),
            Inst::Call {
                target: CallTarget::Virtual { .. },
                receiver: Some(r),
                ..
            } => Some(SlotAccess {
                // Virtual dispatch loads the method table pointer from the
                // object header.
                base: *r,
                offset: Some(0),
                kind: AccessKind::Read,
            }),
            _ => None,
        }
    }

    /// Whether this instruction writes to memory (heap). Memory writes are
    /// motion barriers for null checks under precise exceptions (paper
    /// §4.1.1 `Kill_bwd`, second bullet).
    pub fn writes_memory(&self) -> bool {
        matches!(
            self,
            Inst::PutField { .. } | Inst::ArrayStore { .. } | Inst::Call { .. }
        )
    }

    /// Whether this instruction can throw an exception **other than** a
    /// `NullPointerException` attributable to its own split-off null check.
    ///
    /// Explicit null check instructions themselves are *not* counted here:
    /// the analyses treat them as the facts being moved, not as barriers.
    pub fn can_throw_other(&self) -> bool {
        match self {
            Inst::BinOp { op, ty, .. } => op.can_throw(*ty),
            Inst::BoundCheck { .. } | Inst::NewArray { .. } | Inst::Call { .. } => true,
            // Allocation can throw OutOfMemoryError.
            Inst::New { .. } => true,
            _ => false,
        }
    }

    /// Whether the instruction is *side-effecting* in the paper's sense:
    /// it can throw an exception other than an NPE, or writes memory.
    /// Such instructions kill all pending null check motion.
    pub fn is_side_effecting(&self) -> bool {
        self.can_throw_other() || self.writes_memory() || matches!(self, Inst::Observe { .. })
    }

    /// Whether this access/call site is marked as the exception site of an
    /// implicit null check.
    pub fn is_exception_site(&self) -> bool {
        match self {
            Inst::GetField { exception_site, .. }
            | Inst::PutField { exception_site, .. }
            | Inst::ArrayLength { exception_site, .. }
            | Inst::ArrayLoad { exception_site, .. }
            | Inst::ArrayStore { exception_site, .. }
            | Inst::Call { exception_site, .. } => *exception_site,
            _ => false,
        }
    }

    /// Marks (or unmarks) this instruction as an implicit null check's
    /// exception site. No-op for instructions that cannot be one.
    pub fn set_exception_site(&mut self, value: bool) {
        match self {
            Inst::GetField { exception_site, .. }
            | Inst::PutField { exception_site, .. }
            | Inst::ArrayLength { exception_site, .. }
            | Inst::ArrayLoad { exception_site, .. }
            | Inst::ArrayStore { exception_site, .. }
            | Inst::Call { exception_site, .. } => *exception_site = value,
            _ => {}
        }
    }
}

/// Description of a memory slot access, as returned by [`Inst::slot_access`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlotAccess {
    /// The base object/array variable.
    pub base: VarId,
    /// Statically known byte offset from the base, or `None` when the offset
    /// is computed at run time (array element accesses).
    pub offset: Option<u64>,
    /// Read or write.
    pub kind: AccessKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn off(_f: FieldId) -> u64 {
        16
    }

    #[test]
    fn cond_negate_round_trips() {
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.negate().negate(), c);
            // A condition and its negation partition all outcomes.
            for (a, b) in [(0, 0), (0, 1), (1, 0)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn div_throws_only_for_ints() {
        assert!(Op::Div.can_throw(Type::Int));
        assert!(!Op::Div.can_throw(Type::Float));
        assert!(!Op::Add.can_throw(Type::Int));
    }

    #[test]
    fn getfield_classification() {
        let i = Inst::GetField {
            dst: VarId(1),
            obj: VarId(0),
            field: FieldId(0),
            exception_site: false,
        };
        assert_eq!(i.def(), Some(VarId(1)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VarId(0)]);
        assert_eq!(i.requires_null_check(), Some(VarId(0)));
        let sa = i.slot_access(off).unwrap();
        assert_eq!(sa.offset, Some(16));
        assert_eq!(sa.kind, AccessKind::Read);
        assert!(!i.writes_memory());
        assert!(!i.can_throw_other());
        assert!(!i.is_side_effecting());
    }

    #[test]
    fn putfield_is_memory_write_barrier() {
        let i = Inst::PutField {
            obj: VarId(0),
            field: FieldId(0),
            value: VarId(1),
            exception_site: false,
        };
        assert!(i.writes_memory());
        assert!(i.is_side_effecting());
        assert_eq!(i.slot_access(off).unwrap().kind, AccessKind::Write);
    }

    #[test]
    fn array_element_offset_is_dynamic() {
        let load = Inst::ArrayLoad {
            dst: VarId(2),
            arr: VarId(0),
            index: VarId(1),
            ty: Type::Int,
            exception_site: false,
        };
        assert_eq!(load.slot_access(off).unwrap().offset, None);
        let len = Inst::ArrayLength {
            dst: VarId(2),
            arr: VarId(0),
            exception_site: false,
        };
        assert_eq!(len.slot_access(off).unwrap().offset, Some(0));
    }

    #[test]
    fn virtual_call_is_header_read_but_direct_is_not() {
        let virt = Inst::Call {
            dst: None,
            target: CallTarget::Virtual {
                class: ClassId(0),
                method: "m".into(),
            },
            receiver: Some(VarId(0)),
            args: vec![],
            exception_site: false,
        };
        let sa = virt.slot_access(off).unwrap();
        assert_eq!((sa.offset, sa.kind), (Some(0), AccessKind::Read));
        assert_eq!(virt.requires_null_check(), Some(VarId(0)));

        let direct = Inst::Call {
            dst: None,
            target: CallTarget::Direct(FunctionId(0)),
            receiver: Some(VarId(0)),
            args: vec![],
            exception_site: false,
        };
        assert!(direct.slot_access(off).is_none());
        // Figure 1: the devirtualized call still needs its null check.
        assert_eq!(direct.requires_null_check(), Some(VarId(0)));
    }

    #[test]
    fn static_call_needs_no_check() {
        let call = Inst::Call {
            dst: Some(VarId(3)),
            target: CallTarget::Static(FunctionId(0)),
            receiver: None,
            args: vec![VarId(1)],
            exception_site: false,
        };
        assert!(call.requires_null_check().is_none());
        assert!(call.is_side_effecting());
    }

    #[test]
    fn intrinsic_is_pure() {
        let i = Inst::IntrinsicOp {
            dst: VarId(1),
            intrinsic: Intrinsic::Exp,
            src: VarId(0),
        };
        assert!(!i.is_side_effecting());
        assert!(!i.can_throw_other());
        assert!(i.slot_access(off).is_none());
    }

    #[test]
    fn exception_site_marking() {
        let mut i = Inst::GetField {
            dst: VarId(1),
            obj: VarId(0),
            field: FieldId(0),
            exception_site: false,
        };
        assert!(!i.is_exception_site());
        i.set_exception_site(true);
        assert!(i.is_exception_site());
        let mut m = Inst::Move {
            dst: VarId(0),
            src: VarId(1),
        };
        m.set_exception_site(true); // no-op
        assert!(!m.is_exception_site());
    }

    #[test]
    fn intrinsic_name_round_trip() {
        for i in [
            Intrinsic::Exp,
            Intrinsic::Sqrt,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Abs,
            Intrinsic::Log,
        ] {
            assert_eq!(Intrinsic::from_method_name(i.method_name()), Some(i));
        }
        assert_eq!(Intrinsic::from_method_name("frobnicate"), None);
    }

    #[test]
    fn exception_codes_are_distinct() {
        let codes = [
            ExceptionKind::NullPointer.code(),
            ExceptionKind::ArrayIndex.code(),
            ExceptionKind::Arithmetic.code(),
            ExceptionKind::NegativeArraySize.code(),
        ];
        let mut sorted = codes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len());
    }
}
