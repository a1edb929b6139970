//! Decoded bodies: each function's IR flattened once into a pc-indexed
//! table of compact [`Op`]s, which the interpreter loop runs.
//!
//! Decoding resolves everything an instruction needs that does not change
//! while the body runs: operands become `u32` local slots, field accesses
//! carry their byte offset and slot type, every op carries its cycle charge
//! from the platform's cost model, branch targets are pcs, and a call
//! carries its callee index and an argument range in [`Code::args`]. Every
//! block starts with an [`Op::Enter`] (the safe point and block counter)
//! and ends with its terminator as an op, so block `b`'s instruction `i`
//! sits at pc `block_pc[b] + 1 + i` and [`Code::locate`] recovers the
//! IR coordinates of any pc — on the error and trap paths only.

use std::sync::Arc;

use njc_arch::Platform;
use njc_ir::{
    BlockId, CallTarget, Cond, ConstValue, ExceptionKind, Function, Inst, Intrinsic, Module,
    NullCheckKind, Terminator, Type, Value, VarId,
};

/// The "no variable" slot: a void return, or a call whose result is
/// dropped. Also the pc of a branch to a block the function does not have,
/// which faults only if the branch executes.
pub(crate) const NONE: u32 = u32::MAX;

/// One decoded instruction. Operand fields are local slots of the running
/// frame; `cost` is the cycle charge the platform prices the op at.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Block entry: a safe point, and the block's execution counter. Costs
    /// no fuel.
    Enter {
        block: u32,
    },
    /// An implicit null check: documentation only (the following marked
    /// site is the real check), but one instruction of fuel.
    Nop,
    Const {
        ty: Type,
        dst: u32,
        cost: u32,
        bits: u64,
    },
    Move {
        dst: u32,
        src: u32,
        cost: u32,
    },
    /// Integer arithmetic; `cost` is the operator's charge (`int_div` for
    /// division and remainder).
    IntBin {
        op: njc_ir::Op,
        dst: u32,
        lhs: u32,
        rhs: u32,
        cost: u32,
    },
    /// Float arithmetic; an operator floats do not define faults after its
    /// operands are checked.
    FloatBin {
        op: njc_ir::Op,
        dst: u32,
        lhs: u32,
        rhs: u32,
        cost: u32,
    },
    NegInt {
        dst: u32,
        src: u32,
        cost: u32,
    },
    NegFloat {
        dst: u32,
        src: u32,
        cost: u32,
    },
    Convert {
        to: Type,
        dst: u32,
        src: u32,
        cost: u32,
    },
    FCmp {
        cond: Cond,
        dst: u32,
        lhs: u32,
        rhs: u32,
        cost: u32,
    },
    /// An explicit null check; `id` is its provenance id.
    NullCheck {
        var: u32,
        id: u32,
        cost: u32,
    },
    BoundCheck {
        index: u32,
        length: u32,
        cost: u32,
    },
    GetField {
        ty: Type,
        site: bool,
        dst: u32,
        obj: u32,
        cost: u32,
        offset: u64,
    },
    PutField {
        site: bool,
        obj: u32,
        value: u32,
        cost: u32,
        offset: u64,
    },
    ArrayLength {
        site: bool,
        dst: u32,
        arr: u32,
        cost: u32,
    },
    ArrayLoad {
        ty: Type,
        site: bool,
        dst: u32,
        arr: u32,
        index: u32,
        cost: u32,
    },
    ArrayStore {
        site: bool,
        arr: u32,
        index: u32,
        value: u32,
        cost: u32,
    },
    /// `cost` includes the per-slot charge of the class's size.
    New {
        dst: u32,
        class: u32,
        cost: u64,
    },
    /// The allocation charge depends on the length, so it is priced at run
    /// time.
    NewArray {
        elem: Type,
        dst: u32,
        len: u32,
    },
    /// A static or direct call: `argc` actual slots at `args` in
    /// [`Code::args`].
    Call {
        dst: u32,
        callee: u32,
        args: u32,
        argc: u32,
        cost: u32,
    },
    /// A virtual call. With `recv` the receiver is the first of the `argc`
    /// actuals; without one the call faults once it is priced.
    CallVirtual {
        site: bool,
        recv: bool,
        dst: u32,
        method: u32,
        args: u32,
        argc: u32,
        cost: u32,
    },
    Intrinsic {
        f: Intrinsic,
        dst: u32,
        src: u32,
        cost: u32,
    },
    Observe {
        var: u32,
        cost: u32,
    },
    /// An instruction no verified module contains: it faults as
    /// [`Fault::IllTyped`](crate::Fault::IllTyped) with `detail` when it
    /// executes.
    Unverifiable {
        detail: &'static str,
    },
    Goto {
        target: u32,
        cost: u32,
    },
    If {
        cond: Cond,
        lhs: u32,
        rhs: u32,
        then_pc: u32,
        else_pc: u32,
        cost: u32,
    },
    IfNull {
        var: u32,
        on_null: u32,
        on_nonnull: u32,
        cost: u32,
    },
    Return {
        var: u32,
        cost: u32,
    },
    Throw {
        kind: ExceptionKind,
        cost: u32,
    },
}

/// The IR a decoded body came from: a module function, or a swapped-in
/// replacement body, kept alive for as long as the decoded copy.
#[derive(Debug)]
pub(crate) enum Body<'m> {
    Module(&'m Function),
    Swapped(Arc<Function>),
}

impl Body<'_> {
    fn function(&self) -> &Function {
        match self {
            Body::Module(f) => f,
            Body::Swapped(f) => f,
        }
    }
}

/// One function body, decoded.
#[derive(Debug)]
pub(crate) struct Code<'m> {
    pub body: Body<'m>,
    /// The body's name, shared by every exception event raised in it.
    pub name: Arc<str>,
    /// Index of the function this body implements: the key of its site
    /// counters, the same for every tier of the function.
    pub func: u32,
    pub ops: Vec<Op>,
    /// Pc of each block's [`Op::Enter`], by block index.
    pub block_pc: Vec<u32>,
    /// Actual-argument slots of every call, receiver first.
    pub args: Vec<u32>,
    /// Method names of the virtual calls.
    pub methods: Vec<String>,
    /// The typed default of every local: a frame starts as the actuals
    /// followed by the defaults past them.
    pub defaults: Vec<Value>,
    /// Parameter count.
    pub params: usize,
    /// Pc of the entry block.
    pub entry: u32,
}

/// A cycle charge as an op field. Every charge of a real cost model is a
/// few thousand cycles at most.
fn op_cost(cycles: u64) -> u32 {
    u32::try_from(cycles).expect("a per-instruction cycle charge fits in 32 bits")
}

impl<'m> Code<'m> {
    /// Decodes `body`, which implements the function at index `func` of
    /// `module`, priced for `platform`.
    pub fn decode(module: &Module, platform: &Platform, func: u32, body: Body<'m>) -> Code<'m> {
        let f = body.function();
        let mut block_pc = Vec::with_capacity(f.num_blocks());
        let mut pc = 0u32;
        for b in f.blocks() {
            block_pc.push(pc);
            pc += b.insts.len() as u32 + 2;
        }
        let target = |b: BlockId| block_pc.get(b.index()).copied().unwrap_or(NONE);
        let slot = |v: VarId| v.0;
        let cost = &platform.cost;
        let mut ops = Vec::with_capacity(pc as usize);
        let mut args = Vec::new();
        let mut methods = Vec::new();
        for (bi, b) in f.blocks().iter().enumerate() {
            ops.push(Op::Enter { block: bi as u32 });
            for inst in &b.insts {
                ops.push(Self::decode_inst(
                    module,
                    platform,
                    inst,
                    &mut args,
                    &mut methods,
                ));
            }
            ops.push(match b.term {
                Terminator::Goto(t) => Op::Goto {
                    target: target(t),
                    cost: op_cost(cost.branch),
                },
                Terminator::If {
                    cond,
                    lhs,
                    rhs,
                    then_bb,
                    else_bb,
                } => Op::If {
                    cond,
                    lhs: slot(lhs),
                    rhs: slot(rhs),
                    then_pc: target(then_bb),
                    else_pc: target(else_bb),
                    cost: op_cost(cost.branch),
                },
                Terminator::IfNull {
                    var,
                    on_null,
                    on_nonnull,
                } => Op::IfNull {
                    var: slot(var),
                    on_null: target(on_null),
                    on_nonnull: target(on_nonnull),
                    cost: op_cost(cost.branch),
                },
                Terminator::Return(v) => Op::Return {
                    var: v.map_or(NONE, slot),
                    cost: op_cost(cost.branch),
                },
                Terminator::Throw(kind) => Op::Throw {
                    kind,
                    cost: op_cost(cost.throw_dispatch),
                },
            });
        }
        let entry = target(f.entry());
        Code {
            name: Arc::from(f.name()),
            func,
            ops,
            args,
            methods,
            defaults: f
                .var_types()
                .iter()
                .map(|&t| Value::default_of(t))
                .collect(),
            params: f.params().len(),
            entry,
            block_pc,
            body,
        }
    }

    fn decode_inst(
        module: &Module,
        platform: &Platform,
        inst: &Inst,
        args: &mut Vec<u32>,
        methods: &mut Vec<String>,
    ) -> Op {
        let cost = &platform.cost;
        let slot = |v: &VarId| v.0;
        let field =
            |id: njc_ir::FieldId| (id.index() < module.num_fields()).then(|| module.field_decl(id));
        match inst {
            Inst::Const { dst, value } => {
                let (ty, bits) = match *value {
                    ConstValue::Int(v) => (Type::Int, v as u64),
                    ConstValue::Float(v) => (Type::Float, v.to_bits()),
                    ConstValue::Null => (Type::Ref, 0),
                };
                Op::Const {
                    ty,
                    dst: slot(dst),
                    cost: op_cost(cost.int_alu),
                    bits,
                }
            }
            Inst::Move { dst, src } => Op::Move {
                dst: slot(dst),
                src: slot(src),
                cost: op_cost(cost.int_alu),
            },
            Inst::BinOp {
                dst,
                op,
                lhs,
                rhs,
                ty,
            } => {
                use njc_ir::Op as O;
                let (dst, lhs, rhs) = (slot(dst), slot(lhs), slot(rhs));
                match ty {
                    Type::Int => Op::IntBin {
                        op: *op,
                        dst,
                        lhs,
                        rhs,
                        cost: op_cost(match op {
                            O::Mul => cost.int_mul,
                            O::Div | O::Rem => cost.int_div,
                            _ => cost.int_alu,
                        }),
                    },
                    Type::Float => Op::FloatBin {
                        op: *op,
                        dst,
                        lhs,
                        rhs,
                        cost: op_cost(match op {
                            O::Div | O::Rem => cost.float_div,
                            _ => cost.float_alu,
                        }),
                    },
                    Type::Ref => Op::Unverifiable {
                        detail: "binop over refs is unverifiable",
                    },
                }
            }
            Inst::Neg { dst, src, ty } => {
                let (dst, src, cost) = (slot(dst), slot(src), op_cost(cost.int_alu));
                match ty {
                    Type::Int => Op::NegInt { dst, src, cost },
                    Type::Float => Op::NegFloat { dst, src, cost },
                    Type::Ref => Op::Unverifiable {
                        detail: "neg over ref",
                    },
                }
            }
            Inst::Convert { dst, src, to } => Op::Convert {
                to: *to,
                dst: slot(dst),
                src: slot(src),
                cost: op_cost(cost.float_alu),
            },
            Inst::FCmp {
                dst,
                cond,
                lhs,
                rhs,
            } => Op::FCmp {
                cond: *cond,
                dst: slot(dst),
                lhs: slot(lhs),
                rhs: slot(rhs),
                cost: op_cost(cost.float_alu),
            },
            Inst::NullCheck { var, kind, id } => match kind {
                NullCheckKind::Explicit => Op::NullCheck {
                    var: slot(var),
                    id: id.0,
                    cost: op_cost(cost.explicit_null_check),
                },
                NullCheckKind::Implicit => Op::Nop,
            },
            Inst::BoundCheck { index, length } => Op::BoundCheck {
                index: slot(index),
                length: slot(length),
                cost: op_cost(cost.bound_check),
            },
            Inst::GetField {
                dst,
                obj,
                field: id,
                exception_site,
            } => match field(*id) {
                Some(fd) => Op::GetField {
                    ty: fd.ty,
                    site: *exception_site,
                    dst: slot(dst),
                    obj: slot(obj),
                    cost: op_cost(cost.load),
                    offset: fd.offset,
                },
                None => Op::Unverifiable {
                    detail: "getfield of an undeclared field",
                },
            },
            Inst::PutField {
                obj,
                field: id,
                value,
                exception_site,
            } => match field(*id) {
                Some(fd) => Op::PutField {
                    site: *exception_site,
                    obj: slot(obj),
                    value: slot(value),
                    cost: op_cost(cost.store),
                    offset: fd.offset,
                },
                None => Op::Unverifiable {
                    detail: "putfield of an undeclared field",
                },
            },
            Inst::ArrayLength {
                dst,
                arr,
                exception_site,
            } => Op::ArrayLength {
                site: *exception_site,
                dst: slot(dst),
                arr: slot(arr),
                cost: op_cost(cost.load),
            },
            Inst::ArrayLoad {
                dst,
                arr,
                index,
                ty,
                exception_site,
            } => Op::ArrayLoad {
                ty: *ty,
                site: *exception_site,
                dst: slot(dst),
                arr: slot(arr),
                index: slot(index),
                cost: op_cost(cost.load),
            },
            Inst::ArrayStore {
                arr,
                index,
                value,
                exception_site,
                ..
            } => Op::ArrayStore {
                site: *exception_site,
                arr: slot(arr),
                index: slot(index),
                value: slot(value),
                cost: op_cost(cost.store),
            },
            Inst::New { dst, class } => {
                if class.index() >= module.num_classes() {
                    return Op::Unverifiable {
                        detail: "new of an undeclared class",
                    };
                }
                let slots = crate::Heap::object_slots(module, *class);
                Op::New {
                    dst: slot(dst),
                    class: class.0,
                    cost: cost.alloc_base + cost.alloc_per_slot * slots,
                }
            }
            Inst::NewArray { dst, elem, len } => Op::NewArray {
                elem: *elem,
                dst: slot(dst),
                len: slot(len),
            },
            Inst::Call {
                dst,
                target,
                receiver,
                args: actuals,
                exception_site,
            } => {
                let start = args.len() as u32;
                args.extend(receiver.iter().chain(actuals).map(slot));
                let argc = args.len() as u32 - start;
                let dst = dst.as_ref().map_or(NONE, slot);
                match target {
                    CallTarget::Static(f) | CallTarget::Direct(f) => Op::Call {
                        dst,
                        callee: f.0,
                        args: start,
                        argc,
                        cost: op_cost(cost.call_overhead),
                    },
                    CallTarget::Virtual { method, .. } => {
                        methods.push(method.clone());
                        Op::CallVirtual {
                            site: *exception_site,
                            recv: receiver.is_some(),
                            dst,
                            method: methods.len() as u32 - 1,
                            args: start,
                            argc,
                            cost: op_cost(cost.call_overhead + cost.virtual_dispatch),
                        }
                    }
                }
            }
            Inst::IntrinsicOp {
                dst,
                intrinsic,
                src,
            } => Op::Intrinsic {
                f: *intrinsic,
                dst: slot(dst),
                src: slot(src),
                // §5.4: a hardware instruction on platforms that have it,
                // an out-of-line library routine otherwise.
                cost: op_cost(if platform.has_fp_intrinsics {
                    cost.intrinsic
                } else {
                    cost.math_library_call
                }),
            },
            Inst::Observe { var } => Op::Observe {
                var: slot(var),
                cost: op_cost(cost.observe),
            },
        }
    }

    /// The IR this body was decoded from.
    pub fn body(&self) -> &Function {
        self.body.function()
    }

    /// The block and instruction index of the op at `pc`; the terminator's
    /// index is the block's length.
    pub fn locate(&self, pc: usize) -> (BlockId, usize) {
        let b = self.block_pc.partition_point(|&p| p as usize <= pc) - 1;
        (BlockId::new(b), pc - self.block_pc[b] as usize - 1)
    }

    /// The handler of the try region enclosing the op at `pc`, if it
    /// catches `kind`: its entry pc, and the slot that receives the
    /// exception code.
    pub fn handler(&self, pc: usize, kind: ExceptionKind) -> Option<(usize, Option<VarId>)> {
        let f = self.body();
        let region = f.try_region(f.block(self.locate(pc).0).try_region?);
        region.catch.catches(kind).then(|| {
            (
                self.block_pc[region.handler.index()] as usize,
                region.exception_code_dst,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_is_three_words() {
        assert!(
            std::mem::size_of::<Op>() <= 24,
            "{}",
            std::mem::size_of::<Op>()
        );
    }
}
