//! Decoded bodies: each function's IR flattened once into a pc-indexed
//! table of compact [`Op`]s, which the interpreter loop runs, and the side
//! tables its accounting and its throw paths read.
//!
//! Decoding resolves everything an instruction needs that does not change
//! while the body runs: operands become `u32` local slots, field accesses
//! carry their byte offset and slot type, an integer binop, a float binop
//! and a compare-and-branch become one op per operator, branch targets are
//! pcs, and a call carries its callee index and an argument range in
//! [`Code::args`].
//!
//! **Segments.** Every block starts with an [`Op::Enter`] (the safe point
//! and block counter) and every call is followed by an [`Op::Seg`]. These
//! headers cut the body into straight-line segments, each ending at a call
//! or a terminator. What an op adds to the run statistics whatever its
//! operands are — one instruction of fuel, its cycle charge from the
//! platform's cost model, the loads, stores, checks and branches it always
//! counts — is its [`Tally`], and it is not on the op: [`Code::rest`]
//! holds, for each pc, the tally of the ops after it in its segment. A
//! header pays `rest` of its own pc, the whole segment, at once; an op that
//! leaves its segment early (a throw or a trap) refunds `rest` of its pc;
//! and an op's own tally is `rest[pc - 1] - rest[pc]`, which is what the
//! interpreter pays op by op when the fuel left does not cover a segment.
//!
//! **Throw paths.** [`Code::coords`] names each pc's block and instruction
//! and [`Code::handlers`] each block's try handler, so raising, unwinding
//! and attributing a trap index two tables. A branch, entry or handler
//! naming a block the function does not have resolves to a sentinel
//! segment past the last block whose one op is [`Op::Unverifiable`], so
//! such a body faults when, and only when, that edge is taken.

use std::ops::{AddAssign, Sub, SubAssign};
use std::sync::Arc;

use njc_arch::Platform;
use njc_ir::{
    BlockId, CallTarget, CatchKind, Cond, ConstValue, ExceptionKind, Function, Inst, Intrinsic,
    Module, NullCheckKind, Terminator, Type, Value, VarId,
};

use crate::interp::DENSE_LIMIT;

/// The "no variable" slot: a void return, a call whose result is dropped,
/// or a try region without an exception-code variable.
pub(crate) const NONE: u32 = u32::MAX;

/// The slots of a binop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bin {
    pub dst: u32,
    pub lhs: u32,
    pub rhs: u32,
}

/// The operand slots and the two targets of a compare-and-branch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Branch {
    pub lhs: u32,
    pub rhs: u32,
    pub then_pc: u32,
    pub else_pc: u32,
}

/// One decoded instruction. Operand fields are local slots of the running
/// frame; charges and counts are in [`Code::rest`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Block entry: a safe point, the block's execution counter, and the
    /// header of the block's first segment.
    Enter {
        block: u32,
    },
    /// The header of the segment after a call.
    Seg,
    /// An implicit null check: documentation only (the following marked
    /// site is the real check), but one instruction of fuel.
    Nop,
    Const {
        ty: Type,
        dst: u32,
        bits: u64,
    },
    Move {
        dst: u32,
        src: u32,
    },
    AddInt(Bin),
    SubInt(Bin),
    MulInt(Bin),
    DivInt(Bin),
    RemInt(Bin),
    AndInt(Bin),
    OrInt(Bin),
    XorInt(Bin),
    ShlInt(Bin),
    ShrInt(Bin),
    UshrInt(Bin),
    AddFloat(Bin),
    SubFloat(Bin),
    MulFloat(Bin),
    DivFloat(Bin),
    RemFloat(Bin),
    /// A float binop with an operator floats do not define: it faults once
    /// its operands are checked.
    BadFloatBin {
        op: njc_ir::Op,
        lhs: u32,
        rhs: u32,
    },
    NegInt {
        dst: u32,
        src: u32,
    },
    NegFloat {
        dst: u32,
        src: u32,
    },
    Convert {
        to: Type,
        dst: u32,
        src: u32,
    },
    FCmp {
        cond: Cond,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// An explicit null check; `id` is its provenance id.
    NullCheck {
        var: u32,
        id: u32,
    },
    BoundCheck {
        index: u32,
        length: u32,
    },
    GetField {
        ty: Type,
        site: bool,
        dst: u32,
        obj: u32,
        offset: u64,
    },
    PutField {
        site: bool,
        obj: u32,
        value: u32,
        offset: u64,
    },
    ArrayLength {
        site: bool,
        dst: u32,
        arr: u32,
    },
    ArrayLoad {
        ty: Type,
        site: bool,
        dst: u32,
        arr: u32,
        index: u32,
    },
    ArrayStore {
        site: bool,
        arr: u32,
        index: u32,
        value: u32,
    },
    New {
        dst: u32,
        class: u32,
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
    },
    Intrinsic {
        f: Intrinsic,
        dst: u32,
        src: u32,
    },
    Observe {
        var: u32,
    },
    /// An instruction no verified module contains: it faults as
    /// [`Fault::IllTyped`](crate::Fault::IllTyped) with `detail` when it
    /// executes.
    Unverifiable {
        detail: &'static str,
    },
    Goto {
        target: u32,
    },
    IfEq(Branch),
    IfNe(Branch),
    IfLt(Branch),
    IfLe(Branch),
    IfGt(Branch),
    IfGe(Branch),
    IfNull {
        var: u32,
        on_null: u32,
        on_nonnull: u32,
    },
    Return {
        var: u32,
    },
    Throw {
        kind: ExceptionKind,
    },
}

impl Op {
    /// Whether the op starts a segment.
    pub fn is_header(&self) -> bool {
        matches!(self, Op::Enter { .. } | Op::Seg)
    }
}

/// The run statistics ops add whatever their operands are: every op's
/// instruction of fuel and static cycle charge, and the counters an op
/// bumps on every execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Tally {
    pub insts: u64,
    pub cycles: u64,
    pub loads: u64,
    pub stores: u64,
    pub implicit_site_hits: u64,
    pub explicit_null_checks: u64,
    pub bound_checks: u64,
    pub branches: u64,
}

impl Tally {
    /// One instruction charged `cycles`.
    fn op(cycles: u64) -> Tally {
        Tally {
            insts: 1,
            cycles,
            ..Tally::default()
        }
    }

    /// One slot access charged `cycles`: a load or a store, and an
    /// implicit site hit if the access is a marked site.
    fn access(cycles: u64, site: bool, store: bool) -> Tally {
        Tally {
            loads: u64::from(!store),
            stores: u64::from(store),
            implicit_site_hits: u64::from(site),
            ..Tally::op(cycles)
        }
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.insts += t.insts;
        self.cycles += t.cycles;
        self.loads += t.loads;
        self.stores += t.stores;
        self.implicit_site_hits += t.implicit_site_hits;
        self.explicit_null_checks += t.explicit_null_checks;
        self.bound_checks += t.bound_checks;
        self.branches += t.branches;
    }
}

impl SubAssign for Tally {
    fn sub_assign(&mut self, t: Tally) {
        self.insts -= t.insts;
        self.cycles -= t.cycles;
        self.loads -= t.loads;
        self.stores -= t.stores;
        self.implicit_site_hits -= t.implicit_site_hits;
        self.explicit_null_checks -= t.explicit_null_checks;
        self.bound_checks -= t.bound_checks;
        self.branches -= t.branches;
    }
}

impl Sub for Tally {
    type Output = Tally;
    fn sub(mut self, t: Tally) -> Tally {
        self -= t;
        self
    }
}

/// A block's try handler, resolved for the unwinder.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Handler {
    /// Pc of the handler block's [`Op::Enter`].
    pub pc: u32,
    pub catch: CatchKind,
    /// The slot receiving the exception code ([`NONE`]: none).
    pub code_slot: u32,
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
    /// Index of the function this body implements: the key of its site
    /// counters, the same for every tier of the function.
    pub func: u32,
    pub ops: Vec<Op>,
    /// By pc: the tally of the ops after it in its segment.
    pub rest: Vec<Tally>,
    /// By pc: the op's block and instruction index (the terminator's index
    /// is the block's length; a header's is [`NONE`]).
    pub coords: Vec<(BlockId, u32)>,
    /// By block: the try handler exceptions raised in the block go to.
    pub handlers: Vec<Option<Handler>>,
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
    /// Dense counter rows the body bumps: its block count, and one past
    /// its highest explicit check id, each capped at [`DENSE_LIMIT`].
    pub block_rows: u32,
    pub check_rows: u32,
}

/// Decoding state: the ops, their own tallies and coordinates, and the
/// sentinels that missing blocks resolve to.
struct Decoder<'a> {
    block_pc: &'a [u32],
    /// Pc of the first sentinel: one past the last block's terminator.
    end: u32,
    ops: Vec<Op>,
    own: Vec<Tally>,
    coords: Vec<(BlockId, u32)>,
    /// Each sentinel's owner (the block whose edge names the missing
    /// block) and fault detail.
    sentinels: Vec<(BlockId, &'static str)>,
}

impl Decoder<'_> {
    fn push(&mut self, op: Op, own: Tally, at: (BlockId, u32)) {
        self.ops.push(op);
        self.own.push(own);
        self.coords.push(at);
    }

    /// The pc of block `b`'s entry, or of a new sentinel owned by `from`
    /// that faults with `detail`.
    fn target(&mut self, b: BlockId, from: BlockId, detail: &'static str) -> u32 {
        self.block_pc.get(b.index()).copied().unwrap_or_else(|| {
            self.sentinels.push((from, detail));
            self.end + 2 * (self.sentinels.len() as u32 - 1)
        })
    }
}

impl<'m> Code<'m> {
    /// The body's function name (for faults, which are rare).
    pub fn name(&self) -> &str {
        self.body.function().name()
    }

    /// Decodes `body`, which implements the function at index `func` of
    /// `module`, priced for `platform`.
    pub fn decode(module: &Module, platform: &Platform, func: u32, body: Body<'m>) -> Code<'m> {
        let f = body.function();
        let cost = &platform.cost;
        // Each block is its `Enter`, its instructions with a `Seg` after
        // every call, and its terminator.
        let mut block_pc = Vec::with_capacity(f.num_blocks());
        let mut pc = 0u32;
        for b in f.blocks() {
            block_pc.push(pc);
            let calls = b
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Call { .. }))
                .count();
            pc += (b.insts.len() + calls) as u32 + 2;
        }
        let mut d = Decoder {
            block_pc: &block_pc,
            end: pc,
            ops: Vec::with_capacity(pc as usize),
            own: Vec::with_capacity(pc as usize),
            coords: Vec::with_capacity(pc as usize),
            sentinels: Vec::new(),
        };
        let mut args = Vec::new();
        let mut methods = Vec::new();
        const MISSING: &str = "branch to a block the function does not have";
        for (bi, b) in f.blocks().iter().enumerate() {
            let id = BlockId::new(bi);
            d.push(Op::Enter { block: bi as u32 }, Tally::default(), (id, NONE));
            for (i, inst) in b.insts.iter().enumerate() {
                let (op, own) = Self::decode_inst(module, platform, inst, &mut args, &mut methods);
                d.push(op, own, (id, i as u32));
                if matches!(inst, Inst::Call { .. }) {
                    d.push(Op::Seg, Tally::default(), (id, NONE));
                }
            }
            let branch = Tally {
                branches: 1,
                ..Tally::op(cost.branch)
            };
            let (op, own) = match b.term {
                Terminator::Goto(t) => (
                    Op::Goto {
                        target: d.target(t, id, MISSING),
                    },
                    branch,
                ),
                Terminator::If {
                    cond,
                    lhs,
                    rhs,
                    then_bb,
                    else_bb,
                } => {
                    let br = Branch {
                        lhs: lhs.0,
                        rhs: rhs.0,
                        then_pc: d.target(then_bb, id, MISSING),
                        else_pc: d.target(else_bb, id, MISSING),
                    };
                    let op = match cond {
                        Cond::Eq => Op::IfEq(br),
                        Cond::Ne => Op::IfNe(br),
                        Cond::Lt => Op::IfLt(br),
                        Cond::Le => Op::IfLe(br),
                        Cond::Gt => Op::IfGt(br),
                        Cond::Ge => Op::IfGe(br),
                    };
                    (op, branch)
                }
                Terminator::IfNull {
                    var,
                    on_null,
                    on_nonnull,
                } => (
                    Op::IfNull {
                        var: var.0,
                        on_null: d.target(on_null, id, MISSING),
                        on_nonnull: d.target(on_nonnull, id, MISSING),
                    },
                    branch,
                ),
                Terminator::Return(v) => (
                    Op::Return {
                        var: v.map_or(NONE, |v| v.0),
                    },
                    Tally::op(cost.branch),
                ),
                Terminator::Throw(kind) => (Op::Throw { kind }, Tally::op(cost.throw_dispatch)),
            };
            d.push(op, own, (id, b.insts.len() as u32));
        }
        let entry = d.target(
            f.entry(),
            f.entry(),
            "entry block the function does not have",
        );
        let handlers = f
            .blocks()
            .iter()
            .map(|b| {
                let r = b.try_region?;
                Some(match f.try_regions().get(r.index()) {
                    Some(region) => Handler {
                        pc: d.target(
                            region.handler,
                            b.id,
                            "handler block the function does not have",
                        ),
                        catch: region.catch,
                        code_slot: region.exception_code_dst.map_or(NONE, |v| v.0),
                    },
                    None => Handler {
                        pc: d.target(BlockId(NONE), b.id, "exception in an undeclared try region"),
                        catch: CatchKind::Any,
                        code_slot: NONE,
                    },
                })
            })
            .collect();
        // Each sentinel: a header paying one instruction, then its fault.
        for (owner, detail) in std::mem::take(&mut d.sentinels) {
            d.push(Op::Seg, Tally::default(), (owner, NONE));
            d.push(Op::Unverifiable { detail }, Tally::op(0), (owner, NONE));
        }
        let Decoder {
            ops, own, coords, ..
        } = d;
        let check_rows = ops
            .iter()
            .filter_map(|op| match *op {
                Op::NullCheck { id, .. } if id < DENSE_LIMIT => Some(id + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut rest = vec![Tally::default(); ops.len()];
        for pc in (0..ops.len().saturating_sub(1)).rev() {
            if !ops[pc + 1].is_header() {
                rest[pc] = rest[pc + 1];
                rest[pc] += own[pc + 1];
            }
        }
        Code {
            func,
            ops,
            rest,
            coords,
            handlers,
            args,
            methods,
            defaults: f
                .var_types()
                .iter()
                .map(|&t| Value::default_of(t))
                .collect(),
            params: f.params().len(),
            entry,
            block_rows: block_pc.len().min(DENSE_LIMIT as usize) as u32,
            check_rows,
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
    ) -> (Op, Tally) {
        let cost = &platform.cost;
        let slot = |v: &VarId| v.0;
        let field =
            |id: njc_ir::FieldId| (id.index() < module.num_fields()).then(|| module.field_decl(id));
        let unverifiable = |detail| (Op::Unverifiable { detail }, Tally::op(0));
        match inst {
            Inst::Const { dst, value } => {
                let (ty, bits) = match *value {
                    ConstValue::Int(v) => (Type::Int, v as u64),
                    ConstValue::Float(v) => (Type::Float, v.to_bits()),
                    ConstValue::Null => (Type::Ref, 0),
                };
                let dst = slot(dst);
                (Op::Const { ty, dst, bits }, Tally::op(cost.int_alu))
            }
            Inst::Move { dst, src } => (
                Op::Move {
                    dst: slot(dst),
                    src: slot(src),
                },
                Tally::op(cost.int_alu),
            ),
            Inst::BinOp {
                dst,
                op,
                lhs,
                rhs,
                ty,
            } => {
                use njc_ir::Op as O;
                let bin = Bin {
                    dst: slot(dst),
                    lhs: slot(lhs),
                    rhs: slot(rhs),
                };
                match ty {
                    Type::Int => {
                        let op = match op {
                            O::Add => Op::AddInt(bin),
                            O::Sub => Op::SubInt(bin),
                            O::Mul => Op::MulInt(bin),
                            O::Div => Op::DivInt(bin),
                            O::Rem => Op::RemInt(bin),
                            O::And => Op::AndInt(bin),
                            O::Or => Op::OrInt(bin),
                            O::Xor => Op::XorInt(bin),
                            O::Shl => Op::ShlInt(bin),
                            O::Shr => Op::ShrInt(bin),
                            O::Ushr => Op::UshrInt(bin),
                        };
                        let cycles = match op {
                            Op::MulInt(_) => cost.int_mul,
                            Op::DivInt(_) | Op::RemInt(_) => cost.int_div,
                            _ => cost.int_alu,
                        };
                        (op, Tally::op(cycles))
                    }
                    Type::Float => {
                        let op = match op {
                            O::Add => Op::AddFloat(bin),
                            O::Sub => Op::SubFloat(bin),
                            O::Mul => Op::MulFloat(bin),
                            O::Div => Op::DivFloat(bin),
                            O::Rem => Op::RemFloat(bin),
                            &op => Op::BadFloatBin {
                                op,
                                lhs: bin.lhs,
                                rhs: bin.rhs,
                            },
                        };
                        let cycles = match op {
                            Op::DivFloat(_) | Op::RemFloat(_) => cost.float_div,
                            _ => cost.float_alu,
                        };
                        (op, Tally::op(cycles))
                    }
                    Type::Ref => unverifiable("binop over refs is unverifiable"),
                }
            }
            Inst::Neg { dst, src, ty } => {
                let (dst, src, own) = (slot(dst), slot(src), Tally::op(cost.int_alu));
                match ty {
                    Type::Int => (Op::NegInt { dst, src }, own),
                    Type::Float => (Op::NegFloat { dst, src }, own),
                    Type::Ref => unverifiable("neg over ref"),
                }
            }
            Inst::Convert { dst, src, to } => (
                Op::Convert {
                    to: *to,
                    dst: slot(dst),
                    src: slot(src),
                },
                Tally::op(cost.float_alu),
            ),
            Inst::FCmp {
                dst,
                cond,
                lhs,
                rhs,
            } => (
                Op::FCmp {
                    cond: *cond,
                    dst: slot(dst),
                    lhs: slot(lhs),
                    rhs: slot(rhs),
                },
                Tally::op(cost.float_alu),
            ),
            Inst::NullCheck { var, kind, id } => match kind {
                NullCheckKind::Explicit => (
                    Op::NullCheck {
                        var: slot(var),
                        id: id.0,
                    },
                    Tally {
                        explicit_null_checks: 1,
                        ..Tally::op(cost.explicit_null_check)
                    },
                ),
                NullCheckKind::Implicit => (Op::Nop, Tally::op(0)),
            },
            Inst::BoundCheck { index, length } => (
                Op::BoundCheck {
                    index: slot(index),
                    length: slot(length),
                },
                Tally {
                    bound_checks: 1,
                    ..Tally::op(cost.bound_check)
                },
            ),
            Inst::GetField {
                dst,
                obj,
                field: id,
                exception_site,
            } => match field(*id) {
                Some(fd) => (
                    Op::GetField {
                        ty: fd.ty,
                        site: *exception_site,
                        dst: slot(dst),
                        obj: slot(obj),
                        offset: fd.offset,
                    },
                    Tally::access(cost.load, *exception_site, false),
                ),
                None => unverifiable("getfield of an undeclared field"),
            },
            Inst::PutField {
                obj,
                field: id,
                value,
                exception_site,
            } => match field(*id) {
                Some(fd) => (
                    Op::PutField {
                        site: *exception_site,
                        obj: slot(obj),
                        value: slot(value),
                        offset: fd.offset,
                    },
                    Tally::access(cost.store, *exception_site, true),
                ),
                None => unverifiable("putfield of an undeclared field"),
            },
            Inst::ArrayLength {
                dst,
                arr,
                exception_site,
            } => (
                Op::ArrayLength {
                    site: *exception_site,
                    dst: slot(dst),
                    arr: slot(arr),
                },
                Tally::access(cost.load, *exception_site, false),
            ),
            Inst::ArrayLoad {
                dst,
                arr,
                index,
                ty,
                exception_site,
            } => (
                Op::ArrayLoad {
                    ty: *ty,
                    site: *exception_site,
                    dst: slot(dst),
                    arr: slot(arr),
                    index: slot(index),
                },
                Tally::access(cost.load, *exception_site, false),
            ),
            Inst::ArrayStore {
                arr,
                index,
                value,
                exception_site,
                ..
            } => (
                Op::ArrayStore {
                    site: *exception_site,
                    arr: slot(arr),
                    index: slot(index),
                    value: slot(value),
                },
                Tally::access(cost.store, *exception_site, true),
            ),
            Inst::New { dst, class } => {
                if class.index() >= module.num_classes() {
                    return unverifiable("new of an undeclared class");
                }
                let slots = crate::Heap::object_slots(module, *class);
                (
                    Op::New {
                        dst: slot(dst),
                        class: class.0,
                    },
                    Tally::op(cost.alloc_base + cost.alloc_per_slot * slots),
                )
            }
            Inst::NewArray { dst, elem, len } => (
                Op::NewArray {
                    elem: *elem,
                    dst: slot(dst),
                    len: slot(len),
                },
                Tally::op(0),
            ),
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
                    CallTarget::Static(f) | CallTarget::Direct(f) => {
                        if f.index() >= module.num_functions() {
                            return unverifiable("call of a function the module does not have");
                        }
                        (
                            Op::Call {
                                dst,
                                callee: f.0,
                                args: start,
                                argc,
                            },
                            Tally::op(cost.call_overhead),
                        )
                    }
                    CallTarget::Virtual { method, .. } => {
                        methods.push(method.clone());
                        (
                            Op::CallVirtual {
                                site: *exception_site,
                                recv: receiver.is_some(),
                                dst,
                                method: methods.len() as u32 - 1,
                                args: start,
                                argc,
                            },
                            // Dispatch reads the object header at offset 0.
                            Tally::access(
                                cost.call_overhead + cost.virtual_dispatch,
                                *exception_site,
                                false,
                            ),
                        )
                    }
                }
            }
            Inst::IntrinsicOp {
                dst,
                intrinsic,
                src,
            } => (
                Op::Intrinsic {
                    f: *intrinsic,
                    dst: slot(dst),
                    src: slot(src),
                },
                // §5.4: a hardware instruction on platforms that have it,
                // an out-of-line library routine otherwise.
                Tally::op(if platform.has_fp_intrinsics {
                    cost.intrinsic
                } else {
                    cost.math_library_call
                }),
            ),
            Inst::Observe { var } => (Op::Observe { var: slot(var) }, Tally::op(cost.observe)),
        }
    }

    /// The IR this body was decoded from.
    pub fn body(&self) -> &Function {
        self.body.function()
    }

    /// The block of the op at `pc`.
    pub fn block(&self, pc: usize) -> BlockId {
        self.coords[pc].0
    }

    /// The pc of instruction `inst` of block `block` (the terminator's
    /// index is the block's length).
    pub fn pc_of(&self, block: BlockId, inst: usize) -> usize {
        let from = self.block_pc[block.index()] as usize;
        from + self.coords[from..]
            .iter()
            .position(|&at| at == (block, inst as u32))
            .expect("a block has each of its instructions")
    }

    /// The handler of the try region enclosing the op at `pc`, if it
    /// catches `kind`: its entry pc, and the slot that receives the
    /// exception code ([`NONE`]: none).
    pub fn handler(&self, pc: usize, kind: ExceptionKind) -> Option<(usize, u32)> {
        let h = self.handlers[self.block(pc).index()]?;
        h.catch
            .catches(kind)
            .then_some((h.pc as usize, h.code_slot))
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
