//! Parser for the textual IR form produced by [`crate::display`].
//!
//! The grammar is line-oriented; see [`parse_function`] for an example.
//! Print → parse is a round trip (`f.to_string()` parses back to `f`).

use std::fmt;

use crate::block::Terminator;
use crate::function::{CatchKind, Function, TryRegion};
use crate::inst::{CallTarget, Cond, ExceptionKind, Inst, Intrinsic, NullCheckKind, Op};
use crate::module::{ClassId, FieldId, FunctionId};
use crate::types::{BlockId, CheckId, ConstValue, TryRegionId, Type, VarId};

/// An error produced while parsing textual IR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize) -> Self {
        Cursor { s, pos: 0, line }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(ParseError {
            line: self.line,
            message: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.s[self.pos..].starts_with([' ', '\t']) {
            self.pos += 1;
        }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.s.len()
    }

    /// Consumes `tok` if present (must be followed by a non-ident char).
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            let after = &self.rest()[tok.len()..];
            let boundary = tok
                .chars()
                .last()
                .map(|c| !c.is_alphanumeric() && c != '_')
                .unwrap_or(true)
                || !after
                    .chars()
                    .next()
                    .map(|c| c.is_alphanumeric() || c == '_')
                    .unwrap_or(false);
            if boundary {
                self.pos += tok.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, tok: &str) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.err(format!("expected `{tok}` at `{}`", self.rest()))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            self.err(format!("expected identifier at `{}`", self.rest()))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    fn number(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.s.as_bytes();
        if self.pos < bytes.len() && (bytes[self.pos] == b'-' || bytes[self.pos] == b'+') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_digit()
                || bytes[self.pos] == b'.'
                || bytes[self.pos] == b'e'
                || bytes[self.pos] == b'E'
                || (bytes[self.pos] == b'-'
                    && self.pos > start
                    && matches!(bytes[self.pos - 1], b'e' | b'E')))
        {
            self.pos += 1;
        }
        if self.pos == start {
            self.err(format!("expected number at `{}`", self.rest()))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    fn digits(&mut self) -> Result<&'a str> {
        let start = self.pos;
        let bytes = self.s.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            self.err(format!("expected digits at `{}`", self.rest()))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    fn prefixed_id(&mut self, prefix: &str) -> Result<u32> {
        self.skip_ws();
        if !self.rest().starts_with(prefix) {
            return self.err(format!("expected `{prefix}N` at `{}`", self.rest()));
        }
        self.pos += prefix.len();
        let n = self.digits()?;
        n.parse::<u32>().map_err(|_| ParseError {
            line: self.line,
            message: format!("bad id number `{n}`"),
        })
    }

    fn var(&mut self) -> Result<VarId> {
        Ok(VarId(self.prefixed_id("v")?))
    }

    fn block(&mut self) -> Result<BlockId> {
        Ok(BlockId(self.prefixed_id("bb")?))
    }

    fn field(&mut self) -> Result<FieldId> {
        Ok(FieldId(self.prefixed_id("field")?))
    }

    fn ty(&mut self) -> Result<Type> {
        if self.eat("int") {
            Ok(Type::Int)
        } else if self.eat("float") {
            Ok(Type::Float)
        } else if self.eat("ref") {
            Ok(Type::Ref)
        } else {
            self.err(format!("expected type at `{}`", self.rest()))
        }
    }

    fn cond(&mut self) -> Result<Cond> {
        for (name, c) in [
            ("eq", Cond::Eq),
            ("ne", Cond::Ne),
            ("lt", Cond::Lt),
            ("le", Cond::Le),
            ("gt", Cond::Gt),
            ("ge", Cond::Ge),
        ] {
            if self.eat(name) {
                return Ok(c);
            }
        }
        self.err(format!("expected condition at `{}`", self.rest()))
    }

    fn exception_kind(&mut self) -> Result<ExceptionKind> {
        if self.eat("npe") {
            Ok(ExceptionKind::NullPointer)
        } else if self.eat("aioobe") {
            Ok(ExceptionKind::ArrayIndex)
        } else if self.eat("arith") {
            Ok(ExceptionKind::Arithmetic)
        } else if self.eat("negsize") {
            Ok(ExceptionKind::NegativeArraySize)
        } else if self.eat("user") {
            let n = self.number()?;
            n.parse::<i64>()
                .map(ExceptionKind::User)
                .map_err(|_| ParseError {
                    line: self.line,
                    message: format!("bad user exception code `{n}`"),
                })
        } else {
            self.err(format!("expected exception kind at `{}`", self.rest()))
        }
    }

    fn site(&mut self) -> bool {
        self.eat("[site]")
    }

    /// Optional `#N` check-id suffix; absent means [`CheckId::NONE`].
    fn check_id(&mut self) -> Result<CheckId> {
        self.skip_ws();
        if self.rest().starts_with('#') {
            Ok(CheckId(self.prefixed_id("#")?))
        } else {
            Ok(CheckId::NONE)
        }
    }

    fn call_args(&mut self) -> Result<(Option<VarId>, Vec<VarId>)> {
        self.expect("(")?;
        let mut receiver = None;
        let mut args = Vec::new();
        self.skip_ws();
        if !self.eat(")") {
            // First entry may be `recv;` or a plain arg.
            let first = self.var()?;
            if self.eat(";") {
                receiver = Some(first);
            } else {
                args.push(first);
            }
            loop {
                self.skip_ws();
                if self.eat(")") {
                    break;
                }
                self.eat(",");
                args.push(self.var()?);
            }
        }
        Ok((receiver, args))
    }
}

fn parse_op(name: &str) -> Option<Op> {
    Some(match name {
        "add" => Op::Add,
        "sub" => Op::Sub,
        "mul" => Op::Mul,
        "div" => Op::Div,
        "rem" => Op::Rem,
        "and" => Op::And,
        "or" => Op::Or,
        "xor" => Op::Xor,
        "shl" => Op::Shl,
        "shr" => Op::Shr,
        "ushr" => Op::Ushr,
        _ => return None,
    })
}

/// Parses one instruction line (without leading whitespace handling beyond
/// spaces/tabs).
fn parse_inst(line: &str, lineno: usize) -> Result<Inst> {
    let mut c = Cursor::new(line, lineno);
    // Instructions without a destination first.
    if c.eat("nullcheck!") {
        let var = c.var()?;
        let id = c.check_id()?;
        return Ok(Inst::NullCheck {
            var,
            kind: NullCheckKind::Implicit,
            id,
        });
    }
    if c.eat("nullcheck") {
        let var = c.var()?;
        let id = c.check_id()?;
        return Ok(Inst::NullCheck {
            var,
            kind: NullCheckKind::Explicit,
            id,
        });
    }
    if c.eat("boundcheck") {
        let index = c.var()?;
        c.expect(",")?;
        let length = c.var()?;
        return Ok(Inst::BoundCheck { index, length });
    }
    if c.eat("putfield") {
        let obj = c.var()?;
        c.expect(",")?;
        let field = c.field()?;
        c.expect(",")?;
        let value = c.var()?;
        let s = c.site();
        return Ok(Inst::PutField {
            obj,
            field,
            value,
            exception_site: s,
        });
    }
    if c.eat("astore.") {
        let ty = c.ty()?;
        let arr = c.var()?;
        c.expect("[")?;
        let index = c.var()?;
        c.expect("]")?;
        c.expect(",")?;
        let value = c.var()?;
        let s = c.site();
        return Ok(Inst::ArrayStore {
            arr,
            index,
            value,
            ty,
            exception_site: s,
        });
    }
    if c.eat("observe") {
        let var = c.var()?;
        return Ok(Inst::Observe { var });
    }
    // Call without destination.
    if c.rest().trim_start().starts_with("call ")
        || c.rest().trim_start().starts_with("vcall ")
        || c.rest().trim_start().starts_with("dcall ")
    {
        return parse_call(&mut c, None);
    }
    // `dst = ...` forms.
    let dst = c.var()?;
    c.expect("=")?;
    if c.eat("const") {
        c.skip_ws();
        if c.eat("null") {
            return Ok(Inst::Const {
                dst,
                value: ConstValue::Null,
            });
        }
        let n = c.number()?;
        let value = if n.contains(['.', 'e', 'E']) {
            ConstValue::Float(n.parse::<f64>().map_err(|_| ParseError {
                line: lineno,
                message: format!("bad float `{n}`"),
            })?)
        } else {
            ConstValue::Int(n.parse::<i64>().map_err(|_| ParseError {
                line: lineno,
                message: format!("bad int `{n}`"),
            })?)
        };
        return Ok(Inst::Const { dst, value });
    }
    if c.eat("move") {
        let src = c.var()?;
        return Ok(Inst::Move { dst, src });
    }
    if c.eat("getfield") {
        let obj = c.var()?;
        c.expect(",")?;
        let field = c.field()?;
        let s = c.site();
        return Ok(Inst::GetField {
            dst,
            obj,
            field,
            exception_site: s,
        });
    }
    if c.eat("arraylength") {
        let arr = c.var()?;
        let s = c.site();
        return Ok(Inst::ArrayLength {
            dst,
            arr,
            exception_site: s,
        });
    }
    if c.eat("aload.") {
        let ty = c.ty()?;
        let arr = c.var()?;
        c.expect("[")?;
        let index = c.var()?;
        c.expect("]")?;
        let s = c.site();
        return Ok(Inst::ArrayLoad {
            dst,
            arr,
            index,
            ty,
            exception_site: s,
        });
    }
    if c.eat("newarray") {
        let elem = c.ty()?;
        c.expect(",")?;
        let len = c.var()?;
        return Ok(Inst::NewArray { dst, elem, len });
    }
    if c.eat("new") {
        let class = ClassId(c.prefixed_id("class")?);
        return Ok(Inst::New { dst, class });
    }
    if c.eat("neg.") {
        let ty = c.ty()?;
        let src = c.var()?;
        return Ok(Inst::Neg { dst, src, ty });
    }
    if c.eat("convert.") {
        let to = c.ty()?;
        let src = c.var()?;
        return Ok(Inst::Convert { dst, src, to });
    }
    if c.eat("intrinsic") {
        let name = c.ident()?;
        let intrinsic = Intrinsic::from_method_name(name).ok_or_else(|| ParseError {
            line: lineno,
            message: format!("unknown intrinsic `{name}`"),
        })?;
        let src = c.var()?;
        return Ok(Inst::IntrinsicOp {
            dst,
            intrinsic,
            src,
        });
    }
    if c.eat("fcmp") {
        let cond = c.cond()?;
        let lhs = c.var()?;
        c.expect(",")?;
        let rhs = c.var()?;
        return Ok(Inst::FCmp {
            dst,
            cond,
            lhs,
            rhs,
        });
    }
    if c.rest().trim_start().starts_with("call ")
        || c.rest().trim_start().starts_with("vcall ")
        || c.rest().trim_start().starts_with("dcall ")
    {
        return parse_call(&mut c, Some(dst));
    }
    // `dst = op.ty lhs, rhs`
    let op_name = c.ident()?;
    if let Some(op) = parse_op(op_name) {
        c.expect(".")?;
        let ty = c.ty()?;
        let lhs = c.var()?;
        c.expect(",")?;
        let rhs = c.var()?;
        return Ok(Inst::BinOp {
            dst,
            op,
            lhs,
            rhs,
            ty,
        });
    }
    c.err(format!("unknown instruction `{line}`"))
}

fn parse_call(c: &mut Cursor<'_>, dst: Option<VarId>) -> Result<Inst> {
    let target = if c.eat("vcall") {
        let class = ClassId(c.prefixed_id("class")?);
        c.expect(".")?;
        let method = c.ident()?.to_string();
        CallTarget::Virtual { class, method }
    } else if c.eat("dcall") {
        CallTarget::Direct(FunctionId(c.prefixed_id("fn")?))
    } else {
        c.expect("call")?;
        CallTarget::Static(FunctionId(c.prefixed_id("fn")?))
    };
    let (receiver, args) = c.call_args()?;
    let s = c.site();
    Ok(Inst::Call {
        dst,
        target,
        receiver,
        args,
        exception_site: s,
    })
}

fn parse_terminator(line: &str, lineno: usize) -> Result<Terminator> {
    let mut c = Cursor::new(line, lineno);
    if c.eat("goto") {
        return Ok(Terminator::Goto(c.block()?));
    }
    if c.eat("ifnull") {
        let var = c.var()?;
        c.expect("then")?;
        let on_null = c.block()?;
        c.expect("else")?;
        let on_nonnull = c.block()?;
        return Ok(Terminator::IfNull {
            var,
            on_null,
            on_nonnull,
        });
    }
    if c.eat("if") {
        let cond = c.cond()?;
        let lhs = c.var()?;
        c.expect(",")?;
        let rhs = c.var()?;
        c.expect("then")?;
        let then_bb = c.block()?;
        c.expect("else")?;
        let else_bb = c.block()?;
        return Ok(Terminator::If {
            cond,
            lhs,
            rhs,
            then_bb,
            else_bb,
        });
    }
    if c.eat("return") {
        if c.at_end() {
            return Ok(Terminator::Return(None));
        }
        return Ok(Terminator::Return(Some(c.var()?)));
    }
    if c.eat("throw") {
        return Ok(Terminator::Throw(c.exception_kind()?));
    }
    Err(ParseError {
        line: lineno,
        message: format!("unknown terminator `{line}`"),
    })
}

/// Whether a trimmed line looks like a terminator.
fn is_terminator_line(line: &str) -> bool {
    ["goto", "if", "ifnull", "return", "throw"].iter().any(|t| {
        line.strip_prefix(t)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    })
}

/// Parses a function from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] naming the offending line on malformed input.
///
/// # Example
/// ```
/// let src = "\
/// func inc(v0: int) -> int {
///   locals v1: int v2: int
/// bb0:
///   v1 = const 1
///   v2 = add.int v0, v1
///   return v2
/// }";
/// let f = njc_ir::parse::parse_function(src).unwrap();
/// assert_eq!(f.name(), "inc");
/// assert_eq!(f.num_blocks(), 1);
/// ```
pub fn parse_function(src: &str) -> Result<Function> {
    let mut lines = src.lines().enumerate().peekable();

    // Header.
    let (lineno, header) = loop {
        match lines.next() {
            Some((n, l)) if !l.trim().is_empty() => break (n + 1, l.trim()),
            Some(_) => continue,
            None => {
                return Err(ParseError {
                    line: 0,
                    message: "empty input".into(),
                })
            }
        }
    };
    let mut c = Cursor::new(header, lineno);
    c.expect("func")?;
    let name = c.ident()?.to_string();
    c.expect("(")?;
    let mut params = Vec::new();
    loop {
        c.skip_ws();
        if c.eat(")") {
            break;
        }
        c.eat(",");
        let _v = c.var()?;
        c.expect(":")?;
        params.push(c.ty()?);
    }
    let ret = if c.eat("->") { Some(c.ty()?) } else { None };
    let is_instance = c.eat("instance");
    c.expect("{")?;

    let mut var_types = params.clone();
    let mut try_regions: Vec<TryRegion> = Vec::new();
    let mut blocks: Vec<crate::block::BasicBlock> = Vec::new();
    let mut current: Option<usize> = None;
    let mut current_terminated = true;

    let ensure_var = |var_types: &mut Vec<Type>, v: VarId, ty: Type| {
        while var_types.len() <= v.index() {
            var_types.push(Type::Int);
        }
        if ty != Type::Int {
            var_types[v.index()] = ty;
        }
    };

    for (n, raw) in lines {
        let lineno = n + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            break;
        }
        if let Some(rest) = line.strip_prefix("locals") {
            let mut c = Cursor::new(rest, lineno);
            while !c.at_end() {
                let v = c.var()?;
                c.expect(":")?;
                let ty = c.ty()?;
                while var_types.len() <= v.index() {
                    var_types.push(Type::Int);
                }
                var_types[v.index()] = ty;
            }
            continue;
        }
        if line.starts_with("try") && line.contains("handler") {
            let mut c = Cursor::new(line, lineno);
            let id = c.prefixed_id("try")?;
            c.expect(":")?;
            c.expect("handler")?;
            let handler = c.block()?;
            c.expect("catch")?;
            let catch = if c.eat("any") {
                CatchKind::Any
            } else {
                CatchKind::Only(c.exception_kind()?)
            };
            let exception_code_dst = if c.eat("->") { Some(c.var()?) } else { None };
            assert_eq!(id as usize, try_regions.len(), "try regions out of order");
            try_regions.push(TryRegion {
                handler,
                catch,
                exception_code_dst,
            });
            continue;
        }
        // Block label: `bbN:` optionally followed by `[tryM]`.
        if line.starts_with("bb") && line.contains(':') {
            let mut c = Cursor::new(line, lineno);
            if let Ok(id) = c.block() {
                if c.eat(":") {
                    if !current_terminated {
                        return Err(ParseError {
                            line: lineno,
                            message: "previous block lacks a terminator".into(),
                        });
                    }
                    let region = if c.eat("[") {
                        let r = TryRegionId(c.prefixed_id("try")?);
                        c.expect("]")?;
                        Some(r)
                    } else {
                        None
                    };
                    while blocks.len() <= id.index() {
                        let nid = BlockId::new(blocks.len());
                        blocks.push(crate::block::BasicBlock::new(nid));
                    }
                    blocks[id.index()].try_region = region;
                    current = Some(id.index());
                    current_terminated = false;
                    continue;
                }
            }
        }
        let cur = current.ok_or_else(|| ParseError {
            line: lineno,
            message: "instruction outside of a block".into(),
        })?;
        if is_terminator_line(line) {
            let term = parse_terminator(line, lineno)?;
            for v in term.uses() {
                ensure_var(&mut var_types, v, Type::Int);
            }
            blocks[cur].term = term;
            current_terminated = true;
        } else {
            if current_terminated {
                return Err(ParseError {
                    line: lineno,
                    message: "instruction after terminator".into(),
                });
            }
            let inst = parse_inst(line, lineno)?;
            if let Some(d) = inst.def() {
                let ty = match &inst {
                    Inst::Const { value, .. } => value.ty(),
                    Inst::New { .. } | Inst::NewArray { .. } => Type::Ref,
                    Inst::BinOp { ty, .. } => *ty,
                    Inst::Neg { ty, .. } => *ty,
                    Inst::Convert { to, .. } => *to,
                    Inst::ArrayLoad { ty, .. } => *ty,
                    Inst::IntrinsicOp { .. } => Type::Float,
                    _ => Type::Int,
                };
                ensure_var(&mut var_types, d, ty);
            }
            for v in inst.uses() {
                ensure_var(&mut var_types, v, Type::Int);
            }
            blocks[cur].insts.push(inst);
        }
    }

    if !current_terminated {
        return Err(ParseError {
            line: 0,
            message: "last block lacks a terminator".into(),
        });
    }
    if blocks.is_empty() {
        return Err(ParseError {
            line: 0,
            message: "function has no blocks".into(),
        });
    }

    Ok(Function::from_parts(
        name,
        params,
        ret,
        is_instance,
        var_types,
        blocks,
        BlockId(0),
        try_regions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::FieldId;

    #[test]
    fn parse_simple_function() {
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck v0
  v1 = getfield v0, field0
  return v1
}";
        let f = parse_function(src).unwrap();
        assert_eq!(f.name(), "f");
        assert_eq!(f.params(), &[Type::Ref]);
        assert_eq!(f.return_type(), Some(Type::Int));
        assert_eq!(f.block(f.entry()).insts.len(), 2);
    }

    #[test]
    fn print_parse_round_trip() {
        let mut b = FuncBuilder::new("rt", &[Type::Ref, Type::Int], Type::Int);
        let obj = b.param(0);
        let i = b.param(1);
        let x = b.get_field(obj, FieldId(0));
        let t = b.new_block();
        let e = b.new_block();
        b.br_if(Cond::Lt, i, x, t, e);
        b.switch_to(t);
        b.put_field(obj, FieldId(1), i);
        b.ret(Some(x));
        b.switch_to(e);
        b.throw(ExceptionKind::User(3));
        let f = b.finish();
        let printed = f.to_string();
        let parsed = parse_function(&printed).unwrap();
        assert_eq!(parsed, f, "round trip failed for:\n{printed}");
    }

    #[test]
    fn parse_try_region() {
        let src = "\
func f(v0: ref) -> int {
  locals v1: int
  try0: handler bb1 catch npe -> v1
bb0: [try0]
  nullcheck v0
  v1 = getfield v0, field0
  return v1
bb1:
  return v1
}";
        let f = parse_function(src).unwrap();
        assert_eq!(f.try_regions().len(), 1);
        assert_eq!(f.try_regions()[0].handler, BlockId(1));
        assert_eq!(
            f.try_regions()[0].catch,
            CatchKind::Only(ExceptionKind::NullPointer)
        );
        assert_eq!(f.block(BlockId(0)).try_region, Some(TryRegionId(0)));
        assert_eq!(f.block(BlockId(1)).try_region, None);
    }

    #[test]
    fn parse_calls() {
        let src = "\
func f(v0: ref, v1: int) -> int {
bb0:
  nullcheck v0
  v2 = vcall class0.get(v0; v1)
  v3 = call fn1(v1, v2)
  nullcheck v0
  v4 = dcall fn2(v0;)
  return v4
}";
        let f = parse_function(src).unwrap();
        let insts = &f.block(f.entry()).insts;
        assert!(matches!(
            &insts[1],
            Inst::Call {
                target: CallTarget::Virtual { method, .. },
                receiver: Some(_),
                args,
                ..
            } if method == "get" && args.len() == 1
        ));
        assert!(matches!(
            &insts[2],
            Inst::Call {
                target: CallTarget::Static(_),
                receiver: None,
                args,
                ..
            } if args.len() == 2
        ));
        assert!(matches!(
            &insts[4],
            Inst::Call {
                target: CallTarget::Direct(_),
                receiver: Some(_),
                args,
                ..
            } if args.is_empty()
        ));
    }

    #[test]
    fn error_carries_line_number() {
        let src = "\
func f() -> int {
bb0:
  v0 = frobnicate v1
  return v0
}";
        let err = parse_function(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn implicit_check_and_site_round_trip() {
        let src = "\
func f(v0: ref) -> int {
bb0:
  nullcheck! v0
  v1 = getfield v0, field0 [site]
  return v1
}";
        let f = parse_function(src).unwrap();
        let insts = &f.block(f.entry()).insts;
        assert!(matches!(
            insts[0],
            Inst::NullCheck {
                kind: NullCheckKind::Implicit,
                ..
            }
        ));
        assert!(insts[1].is_exception_site());
        let reparsed = parse_function(&f.to_string()).unwrap();
        assert_eq!(reparsed, f);
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{Intrinsic, Op};
    use crate::types::Type;

    /// Every operator, condition, exception kind, and instruction form must
    /// survive print → parse.
    #[test]
    fn every_construct_round_trips() {
        let mut b = FuncBuilder::new("all", &[Type::Ref, Type::Int, Type::Float], Type::Int);
        let r = b.param(0);
        let i = b.param(1);
        let f = b.param(2);
        // Every binop over ints (and the float-legal subset over floats).
        for op in [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Rem,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Shl,
            Op::Shr,
            Op::Ushr,
        ] {
            b.binop(op, i, i);
        }
        for op in [Op::Add, Op::Sub, Op::Mul, Op::Div] {
            b.binop(op, f, f);
        }
        // Every fcmp condition.
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            b.fcmp(c, f, f);
        }
        // Every intrinsic.
        for intr in [
            Intrinsic::Exp,
            Intrinsic::Sqrt,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Abs,
            Intrinsic::Log,
        ] {
            let dst = b.var(Type::Float);
            b.emit(Inst::IntrinsicOp {
                dst,
                intrinsic: intr,
                src: f,
            });
        }
        // Memory + checks + allocation + conversion + neg + observe.
        let x = b.get_field(r, FieldId(0));
        b.put_field(r, FieldId(1), x);
        let arr = b.new_array(Type::Int, i);
        let v = b.array_load(arr, i, Type::Int);
        b.array_store(arr, i, v, Type::Int);
        let _len = b.array_length(arr);
        let _o = b.new_object(ClassId(2));
        let _n = b.neg(i);
        let _nf = b.neg(f);
        let _c = b.convert(i, Type::Float);
        let _c2 = b.convert(f, Type::Int);
        b.observe(v);
        let _null = b.null_ref();
        let _fc = b.fconst(-2.5);
        // Calls of every flavor.
        b.call_static(FunctionId(0), &[i], Some(Type::Int));
        b.call_virtual(ClassId(0), "m", r, &[i], None);
        b.call_direct(FunctionId(1), r, &[], Some(Type::Float));
        b.ret(Some(v));
        let func = b.finish();
        let printed = func.to_string();
        let reparsed = parse_function(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(reparsed, func, "{printed}");
    }

    /// Every terminator form round-trips (goto/if/ifnull/return/return-void/
    /// throw of each kind).
    #[test]
    fn every_terminator_round_trips() {
        for kind in [
            ExceptionKind::NullPointer,
            ExceptionKind::ArrayIndex,
            ExceptionKind::Arithmetic,
            ExceptionKind::NegativeArraySize,
            ExceptionKind::User(-3),
            ExceptionKind::User(7),
        ] {
            let mut b = FuncBuilder::new_void("t", &[Type::Ref, Type::Int]);
            let r = b.param(0);
            let i = b.param(1);
            let b1 = b.new_block();
            let b2 = b.new_block();
            let b3 = b.new_block();
            let b4 = b.new_block();
            b.br_if(Cond::Ge, i, i, b1, b2);
            b.switch_to(b1);
            b.br_ifnull(r, b3, b4);
            b.switch_to(b2);
            b.goto(b3);
            b.switch_to(b3);
            b.ret(None);
            b.switch_to(b4);
            b.throw(kind);
            let func = b.finish();
            let printed = func.to_string();
            let reparsed = parse_function(&printed).unwrap();
            assert_eq!(reparsed, func, "{printed}");
        }
    }

    /// Extreme constants survive the textual form.
    #[test]
    fn extreme_constants_round_trip() {
        let mut b = FuncBuilder::new("c", &[], Type::Int);
        let a = b.iconst(i64::MAX);
        let z = b.iconst(i64::MIN);
        b.fconst(f64::MIN_POSITIVE);
        b.fconst(-0.0);
        b.fconst(1e-300);
        b.fconst(12345.6789e10);
        let s = b.add(a, z);
        b.ret(Some(s));
        let func = b.finish();
        let reparsed = parse_function(&func.to_string()).unwrap();
        assert_eq!(reparsed, func, "{func}");
    }
}
