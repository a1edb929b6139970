//! Textual form of the IR.
//!
//! [`crate::Function`] implements [`std::fmt::Display`] producing a format
//! that [`crate::parse`] can read back (print → parse is a round trip, which
//! property tests verify). The syntax is deliberately close to the paper's
//! examples: `nullcheck a`, `arraylength b`, `boundcheck i, len`, with
//! implicit checks printed as `nullcheck! v` and trap exception sites
//! suffixed `[site]`.

use std::fmt;

use crate::block::Terminator;
use crate::function::{CatchKind, Function};
use crate::inst::{CallTarget, Cond, ExceptionKind, Inst, NullCheckKind, Op};
use crate::types::{ConstValue, Type};

/// The token writer behind every `Display` impl of this module: literals go
/// out through `write_str` and numbers through a small integer formatter,
/// never through `format_args!`, whose per-argument dispatch dominated
/// printing whole modules (the text round-trip and
/// [`Function::body_hash`]).
trait Tokens: fmt::Write {
    /// An unsigned decimal.
    fn num(&mut self, mut n: u64) -> fmt::Result {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
    }

    /// A signed decimal.
    fn int(&mut self, n: i64) -> fmt::Result {
        if n < 0 {
            self.write_str("-")?;
        }
        self.num(n.unsigned_abs())
    }

    /// A sigil followed by an index: `v3`, `bb0`, `field2`, `#7`.
    fn id(&mut self, sigil: &str, index: u32) -> fmt::Result {
        self.write_str(sigil)?;
        self.num(u64::from(index))
    }

    fn var(&mut self, v: crate::types::VarId) -> fmt::Result {
        self.id("v", v.0)
    }

    fn block(&mut self, b: crate::types::BlockId) -> fmt::Result {
        self.id("bb", b.0)
    }

    fn ty(&mut self, ty: Type) -> fmt::Result {
        self.write_str(type_name(ty))
    }

    /// ` [site]` when `site` is set.
    fn site(&mut self, site: bool) -> fmt::Result {
        if site {
            self.write_str(" [site]")
        } else {
            Ok(())
        }
    }
}

impl<W: fmt::Write + ?Sized> Tokens for W {}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Add => "add",
        Op::Sub => "sub",
        Op::Mul => "mul",
        Op::Div => "div",
        Op::Rem => "rem",
        Op::And => "and",
        Op::Or => "or",
        Op::Xor => "xor",
        Op::Shl => "shl",
        Op::Shr => "shr",
        Op::Ushr => "ushr",
    }
}

fn cond_name(cond: Cond) -> &'static str {
    match cond {
        Cond::Eq => "eq",
        Cond::Ne => "ne",
        Cond::Lt => "lt",
        Cond::Le => "le",
        Cond::Gt => "gt",
        Cond::Ge => "ge",
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(op_name(*self))
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(cond_name(*self))
    }
}

fn write_exception<W: fmt::Write + ?Sized>(w: &mut W, kind: ExceptionKind) -> fmt::Result {
    match kind {
        ExceptionKind::NullPointer => w.write_str("npe"),
        ExceptionKind::ArrayIndex => w.write_str("aioobe"),
        ExceptionKind::Arithmetic => w.write_str("arith"),
        ExceptionKind::NegativeArraySize => w.write_str("negsize"),
        ExceptionKind::User(c) => {
            w.write_str("user ")?;
            w.int(c)
        }
    }
}

impl fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_exception(f, *self)
    }
}

fn write_const<W: fmt::Write + ?Sized>(w: &mut W, value: ConstValue) -> fmt::Result {
    match value {
        ConstValue::Int(v) => w.int(v),
        // Rare, and `Debug` is what round-trips every float exactly.
        ConstValue::Float(v) => write!(w, "{v:?}"),
        ConstValue::Null => w.write_str("null"),
    }
}

fn write_inst<W: fmt::Write + ?Sized>(w: &mut W, inst: &Inst) -> fmt::Result {
    match inst {
        Inst::Const { dst, value } => {
            w.var(*dst)?;
            w.write_str(" = const ")?;
            write_const(w, *value)
        }
        Inst::Move { dst, src } => {
            w.var(*dst)?;
            w.write_str(" = move ")?;
            w.var(*src)
        }
        Inst::BinOp {
            dst,
            op,
            lhs,
            rhs,
            ty,
        } => {
            w.var(*dst)?;
            w.write_str(" = ")?;
            w.write_str(op_name(*op))?;
            w.write_str(".")?;
            w.ty(*ty)?;
            w.write_str(" ")?;
            w.var(*lhs)?;
            w.write_str(", ")?;
            w.var(*rhs)
        }
        Inst::Neg { dst, src, ty } => {
            w.var(*dst)?;
            w.write_str(" = neg.")?;
            w.ty(*ty)?;
            w.write_str(" ")?;
            w.var(*src)
        }
        Inst::Convert { dst, src, to } => {
            w.var(*dst)?;
            w.write_str(" = convert.")?;
            w.ty(*to)?;
            w.write_str(" ")?;
            w.var(*src)
        }
        Inst::NullCheck { var, kind, id } => {
            w.write_str(match kind {
                NullCheckKind::Explicit => "nullcheck ",
                NullCheckKind::Implicit => "nullcheck! ",
            })?;
            w.var(*var)?;
            if id.is_some() {
                w.id(" #", id.0)?;
            }
            Ok(())
        }
        Inst::BoundCheck { index, length } => {
            w.write_str("boundcheck ")?;
            w.var(*index)?;
            w.write_str(", ")?;
            w.var(*length)
        }
        Inst::GetField {
            dst,
            obj,
            field,
            exception_site,
        } => {
            w.var(*dst)?;
            w.write_str(" = getfield ")?;
            w.var(*obj)?;
            w.id(", field", field.0)?;
            w.site(*exception_site)
        }
        Inst::PutField {
            obj,
            field,
            value,
            exception_site,
        } => {
            w.write_str("putfield ")?;
            w.var(*obj)?;
            w.id(", field", field.0)?;
            w.write_str(", ")?;
            w.var(*value)?;
            w.site(*exception_site)
        }
        Inst::ArrayLength {
            dst,
            arr,
            exception_site,
        } => {
            w.var(*dst)?;
            w.write_str(" = arraylength ")?;
            w.var(*arr)?;
            w.site(*exception_site)
        }
        Inst::ArrayLoad {
            dst,
            arr,
            index,
            ty,
            exception_site,
        } => {
            w.var(*dst)?;
            w.write_str(" = aload.")?;
            w.ty(*ty)?;
            w.write_str(" ")?;
            w.var(*arr)?;
            w.write_str("[")?;
            w.var(*index)?;
            w.write_str("]")?;
            w.site(*exception_site)
        }
        Inst::ArrayStore {
            arr,
            index,
            value,
            ty,
            exception_site,
        } => {
            w.write_str("astore.")?;
            w.ty(*ty)?;
            w.write_str(" ")?;
            w.var(*arr)?;
            w.write_str("[")?;
            w.var(*index)?;
            w.write_str("], ")?;
            w.var(*value)?;
            w.site(*exception_site)
        }
        Inst::New { dst, class } => {
            w.var(*dst)?;
            w.id(" = new class", class.0)
        }
        Inst::NewArray { dst, elem, len } => {
            w.var(*dst)?;
            w.write_str(" = newarray ")?;
            w.ty(*elem)?;
            w.write_str(", ")?;
            w.var(*len)
        }
        Inst::Call {
            dst,
            target,
            receiver,
            args,
            exception_site,
        } => {
            if let Some(d) = dst {
                w.var(*d)?;
                w.write_str(" = ")?;
            }
            match target {
                CallTarget::Static(id) => w.id("call fn", id.0)?,
                CallTarget::Virtual { class, method } => {
                    w.id("vcall class", class.0)?;
                    w.write_str(".")?;
                    w.write_str(method)?;
                }
                CallTarget::Direct(id) => w.id("dcall fn", id.0)?,
            }
            w.write_str("(")?;
            if let Some(r) = receiver {
                w.var(*r)?;
                w.write_str(";")?;
                if !args.is_empty() {
                    w.write_str(" ")?;
                }
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                w.var(*a)?;
            }
            w.write_str(")")?;
            w.site(*exception_site)
        }
        Inst::IntrinsicOp {
            dst,
            intrinsic,
            src,
        } => {
            w.var(*dst)?;
            w.write_str(" = intrinsic ")?;
            w.write_str(intrinsic.method_name())?;
            w.write_str(" ")?;
            w.var(*src)
        }
        Inst::FCmp {
            dst,
            cond,
            lhs,
            rhs,
        } => {
            w.var(*dst)?;
            w.write_str(" = fcmp ")?;
            w.write_str(cond_name(*cond))?;
            w.write_str(" ")?;
            w.var(*lhs)?;
            w.write_str(", ")?;
            w.var(*rhs)
        }
        Inst::Observe { var } => {
            w.write_str("observe ")?;
            w.var(*var)
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_inst(f, self)
    }
}

fn write_terminator<W: fmt::Write + ?Sized>(w: &mut W, term: &Terminator) -> fmt::Result {
    match term {
        Terminator::Goto(b) => {
            w.write_str("goto ")?;
            w.block(*b)
        }
        Terminator::If {
            cond,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => {
            w.write_str("if ")?;
            w.write_str(cond_name(*cond))?;
            w.write_str(" ")?;
            w.var(*lhs)?;
            w.write_str(", ")?;
            w.var(*rhs)?;
            w.write_str(" then ")?;
            w.block(*then_bb)?;
            w.write_str(" else ")?;
            w.block(*else_bb)
        }
        Terminator::IfNull {
            var,
            on_null,
            on_nonnull,
        } => {
            w.write_str("ifnull ")?;
            w.var(*var)?;
            w.write_str(" then ")?;
            w.block(*on_null)?;
            w.write_str(" else ")?;
            w.block(*on_nonnull)
        }
        Terminator::Return(None) => w.write_str("return"),
        Terminator::Return(Some(v)) => {
            w.write_str("return ")?;
            w.var(*v)
        }
        Terminator::Throw(k) => {
            w.write_str("throw ")?;
            write_exception(w, *k)
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_terminator(f, self)
    }
}

/// Writes `func`'s canonical text (what [`crate::parse`] reads back) into
/// any [`fmt::Write`] sink: a `String`, a formatter, or a hasher.
pub(crate) fn write_function<W: fmt::Write + ?Sized>(w: &mut W, func: &Function) -> fmt::Result {
    w.write_str("func ")?;
    w.write_str(func.name())?;
    w.write_str("(")?;
    for (i, p) in func.params().iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        w.id("v", i as u32)?;
        w.write_str(": ")?;
        w.ty(*p)?;
    }
    w.write_str(")")?;
    if let Some(r) = func.return_type() {
        w.write_str(" -> ")?;
        w.ty(r)?;
    }
    if func.is_instance() {
        w.write_str(" instance")?;
    }
    w.write_str(" {\n")?;
    // Local variable declarations beyond the parameters.
    if func.num_vars() > func.params().len() {
        w.write_str("  locals")?;
        for i in func.params().len()..func.num_vars() {
            w.id(" v", i as u32)?;
            w.write_str(": ")?;
            w.ty(func.var_types()[i])?;
        }
        w.write_str("\n")?;
    }
    for (i, r) in func.try_regions().iter().enumerate() {
        w.id("  try", i as u32)?;
        w.write_str(": handler ")?;
        w.block(r.handler)?;
        w.write_str(" catch ")?;
        match r.catch {
            CatchKind::Any => w.write_str("any")?,
            CatchKind::Only(k) => write_exception(w, k)?,
        }
        if let Some(v) = r.exception_code_dst {
            w.write_str(" -> ")?;
            w.var(v)?;
        }
        w.write_str("\n")?;
    }
    for b in func.blocks() {
        w.block(b.id)?;
        w.write_str(":")?;
        if let Some(tr) = b.try_region {
            w.id(" [try", tr.0)?;
            w.write_str("]")?;
        }
        w.write_str("\n")?;
        for inst in &b.insts {
            w.write_str("  ")?;
            write_inst(w, inst)?;
            w.write_str("\n")?;
        }
        w.write_str("  ")?;
        write_terminator(w, &b.term)?;
        w.write_str("\n")?;
    }
    w.write_str("}\n")
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(f, self)
    }
}

/// Renders a [`Type`] keyword (used by the parser tests).
pub fn type_name(ty: Type) -> &'static str {
    match ty {
        Type::Int => "int",
        Type::Float => "float",
        Type::Ref => "ref",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::FieldId;
    use crate::types::VarId;

    #[test]
    fn inst_display_matches_paper_style() {
        let nc = Inst::NullCheck {
            var: VarId(3),
            kind: NullCheckKind::Explicit,
            id: crate::CheckId::NONE,
        };
        assert_eq!(nc.to_string(), "nullcheck v3");
        let imp = Inst::NullCheck {
            var: VarId(3),
            kind: NullCheckKind::Implicit,
            id: crate::CheckId::NONE,
        };
        assert_eq!(imp.to_string(), "nullcheck! v3");
        let gf = Inst::GetField {
            dst: VarId(1),
            obj: VarId(0),
            field: FieldId(2),
            exception_site: true,
        };
        assert_eq!(gf.to_string(), "v1 = getfield v0, field2 [site]");
    }

    #[test]
    fn terminator_display() {
        let t = Terminator::If {
            cond: Cond::Lt,
            lhs: VarId(0),
            rhs: VarId(1),
            then_bb: crate::types::BlockId(1),
            else_bb: crate::types::BlockId(2),
        };
        assert_eq!(t.to_string(), "if lt v0, v1 then bb1 else bb2");
        assert_eq!(Terminator::Return(None).to_string(), "return");
        assert_eq!(
            Terminator::Throw(ExceptionKind::User(9)).to_string(),
            "throw user 9"
        );
    }

    #[test]
    fn function_display_contains_blocks_and_locals() {
        let mut b = FuncBuilder::new("f", &[Type::Ref], Type::Int);
        let p = b.param(0);
        let v = b.get_field(p, FieldId(0));
        b.ret(Some(v));
        let s = b.finish().to_string();
        assert!(s.starts_with("func f(v0: ref) -> int {"));
        assert!(s.contains("bb0:"));
        assert!(s.contains("nullcheck v0"));
        assert!(s.contains("locals v1: int"));
        assert!(s.contains("return v1"));
    }
}
