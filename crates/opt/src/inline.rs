//! Devirtualization and method inlining (paper §2.1, Figure 1).
//!
//! Devirtualization turns a virtual call into a direct call when the
//! receiver's dynamic type is known (allocation-site tracking) or the
//! method has exactly one implementation in the module (closed-world CHA).
//! Inlining then splices small callee bodies into the caller.
//!
//! The null check consequence is the paper's Figure 1: a virtual call's
//! receiver check rides on the method-table load (an implicit check), but
//! once the call is direct or inlined **no object slot is accessed**, so an
//! explicit `nullcheck` instruction must remain — the builder emits one in
//! front of every receiver-taking call, and inlining keeps it. Those
//! surviving checks are precisely what the architecture dependent
//! optimization then minimizes (§3.3.2, and the `mtrt` discussion in §5.1).

use std::collections::HashMap;

use njc_ir::{BlockId, CallTarget, ClassId, Function, FunctionId, Inst, Module, Terminator, VarId};

/// Inlining heuristics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InlineConfig {
    /// Maximum callee size (instruction count) to inline.
    pub max_callee_insts: usize,
    /// Maximum number of call sites to inline per caller (budget).
    pub max_sites_per_caller: usize,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig {
            max_callee_insts: 24,
            max_sites_per_caller: 24,
        }
    }
}

/// Statistics from one devirtualization + inlining application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InlineStats {
    /// Virtual calls rewritten to direct calls.
    pub devirtualized: usize,
    /// Call sites inlined.
    pub inlined: usize,
}

/// Devirtualizes every virtual call in `func` whose target is statically
/// known.
pub fn devirtualize(module: &Module, func: &mut Function) -> usize {
    let mut count = 0;
    for bi in 0..func.num_blocks() {
        // Allocation-site tracking, block-local: var -> known dynamic class.
        let mut known: HashMap<VarId, ClassId> = HashMap::new();
        let block = func.block_mut(BlockId::new(bi));
        for inst in &mut block.insts {
            if let Inst::Call {
                target: target @ CallTarget::Virtual { .. },
                receiver: Some(r),
                ..
            } = inst
            {
                let CallTarget::Virtual { method, .. } = &target else {
                    unreachable!()
                };
                let resolved = if let Some(&cls) = known.get(r) {
                    module.resolve_virtual(cls, method)
                } else {
                    match module.implementations_of(method).as_slice() {
                        [(_, f)] => Some(*f),
                        _ => None,
                    }
                };
                if let Some(f) = resolved {
                    *target = CallTarget::Direct(f);
                    count += 1;
                }
            }
            match inst {
                Inst::New { dst, class } => {
                    known.insert(*dst, *class);
                }
                _ => {
                    if let Some(d) = inst.def() {
                        known.remove(&d);
                    }
                }
            }
        }
    }
    count
}

/// Whether `callee` is inlinable at all: small, try-region-free, and not
/// calling anything (leaf). The leaf restriction bounds code growth and
/// sidesteps recursive inlining.
fn inlinable(callee: &Function, config: InlineConfig) -> bool {
    callee.try_regions().is_empty()
        && callee.num_insts() <= config.max_callee_insts
        && callee
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .all(|i| !matches!(i, Inst::Call { .. }))
}

/// Inlines eligible direct/static call sites in `caller`, whose id is
/// `caller_id`. `callees` maps function ids to (cloned) bodies — cloned up
/// front so the caller can be mutated while reading them. The caller's own
/// snapshot is skipped: a function never inlines itself.
fn inline_in_function(
    caller: &mut Function,
    caller_id: FunctionId,
    callees: &HashMap<FunctionId, Function>,
    config: InlineConfig,
) -> usize {
    let mut inlined = 0;
    let mut bi = 0;
    // New blocks are appended as we go; iterate by index.
    while bi < caller.num_blocks() {
        if inlined >= config.max_sites_per_caller {
            break;
        }
        let block_id = BlockId::new(bi);
        // Find the first inlinable call in this block.
        let site = caller.block(block_id).insts.iter().position(|i| {
            matches!(
                i,
                Inst::Call {
                    target: CallTarget::Direct(f) | CallTarget::Static(f),
                    ..
                } if *f != caller_id && callees.contains_key(f)
            )
        });
        let Some(pos) = site else {
            bi += 1;
            continue;
        };
        splice(caller, block_id, pos, callees);
        inlined += 1;
        // Re-examine the same block: the tail moved to a new block, but the
        // head may still contain earlier instructions (no more calls before
        // `pos`, so move on).
        bi += 1;
    }
    inlined
}

/// Splices the callee body in place of the call at `block[pos]`.
///
/// Layout afterwards:
/// ```text
/// block:        [head insts] goto entry'
/// entry'..:     callee blocks (vars and blocks remapped), returns become
///               `dst = move retvar; goto cont`
/// cont:         [tail insts] original terminator
/// ```
fn splice(
    caller: &mut Function,
    block_id: BlockId,
    pos: usize,
    callees: &HashMap<FunctionId, Function>,
) {
    let call = caller.block(block_id).insts[pos].clone();
    let Inst::Call {
        dst,
        target: CallTarget::Direct(fid) | CallTarget::Static(fid),
        receiver,
        args,
        ..
    } = call
    else {
        panic!("splice target is not a direct call");
    };
    let callee = &callees[&fid];
    let region = caller.block(block_id).try_region;

    // Variable remapping: callee v_i -> fresh caller var.
    let var_map: Vec<VarId> = callee
        .var_types()
        .iter()
        .map(|&t| caller.new_var(t))
        .collect();

    // Parameter binding: receiver (if any) then args.
    let mut actuals: Vec<VarId> = Vec::new();
    actuals.extend(receiver);
    actuals.extend(args.iter().copied());
    assert_eq!(
        actuals.len(),
        callee.params().len(),
        "arity checked by verify_module"
    );

    // Block remapping: callee bb_i -> fresh caller block.
    let block_map: Vec<BlockId> = (0..callee.num_blocks())
        .map(|_| caller.add_block())
        .collect();
    let cont = caller.add_block();

    // Move the tail of the original block to `cont`, take the terminator.
    let tail: Vec<Inst> = caller.block_mut(block_id).insts.split_off(pos + 1);
    caller.block_mut(block_id).insts.pop(); // the call itself
    let old_term = std::mem::replace(
        &mut caller.block_mut(block_id).term,
        Terminator::Goto(block_map[callee.entry().index()]),
    );
    {
        let c = caller.block_mut(cont);
        c.insts = tail;
        c.term = old_term;
        c.try_region = region;
    }

    // Bind parameters at the end of the head block.
    for (i, &actual) in actuals.iter().enumerate() {
        let formal = var_map[i];
        caller.block_mut(block_id).insts.push(Inst::Move {
            dst: formal,
            src: actual,
        });
    }

    // Copy callee blocks with remapped vars/blocks.
    for cb in callee.blocks() {
        let nb = block_map[cb.id.index()];
        let mut insts = Vec::with_capacity(cb.insts.len());
        for inst in &cb.insts {
            insts.push(remap_inst(inst, &var_map));
        }
        let term = match &cb.term {
            Terminator::Return(v) => {
                if let (Some(d), Some(v)) = (dst, v) {
                    insts.push(Inst::Move {
                        dst: d,
                        src: var_map[v.index()],
                    });
                }
                Terminator::Goto(cont)
            }
            other => {
                let mut t = remap_term(other, &var_map);
                t.map_successors(|b| block_map[b.index()]);
                t
            }
        };
        let b = caller.block_mut(nb);
        b.insts = insts;
        b.term = term;
        // Inlined code inherits the caller's try region: its exceptions now
        // propagate to the caller's handler.
        b.try_region = region;
    }
}

fn remap_var(v: VarId, map: &[VarId]) -> VarId {
    map[v.index()]
}

fn remap_inst(inst: &Inst, map: &[VarId]) -> Inst {
    let mut i = inst.clone();
    remap_inst_in_place(&mut i, map);
    i
}

fn remap_inst_in_place(inst: &mut Inst, map: &[VarId]) {
    match inst {
        Inst::Const { dst, .. } => *dst = remap_var(*dst, map),
        Inst::Move { dst, src } => {
            *dst = remap_var(*dst, map);
            *src = remap_var(*src, map);
        }
        Inst::BinOp { dst, lhs, rhs, .. } => {
            *dst = remap_var(*dst, map);
            *lhs = remap_var(*lhs, map);
            *rhs = remap_var(*rhs, map);
        }
        Inst::FCmp { dst, lhs, rhs, .. } => {
            *dst = remap_var(*dst, map);
            *lhs = remap_var(*lhs, map);
            *rhs = remap_var(*rhs, map);
        }
        Inst::Neg { dst, src, .. } | Inst::Convert { dst, src, .. } => {
            *dst = remap_var(*dst, map);
            *src = remap_var(*src, map);
        }
        Inst::IntrinsicOp { dst, src, .. } => {
            *dst = remap_var(*dst, map);
            *src = remap_var(*src, map);
        }
        Inst::NullCheck { var, .. } | Inst::Observe { var } => *var = remap_var(*var, map),
        Inst::BoundCheck { index, length } => {
            *index = remap_var(*index, map);
            *length = remap_var(*length, map);
        }
        Inst::GetField { dst, obj, .. } => {
            *dst = remap_var(*dst, map);
            *obj = remap_var(*obj, map);
        }
        Inst::PutField { obj, value, .. } => {
            *obj = remap_var(*obj, map);
            *value = remap_var(*value, map);
        }
        Inst::ArrayLength { dst, arr, .. } => {
            *dst = remap_var(*dst, map);
            *arr = remap_var(*arr, map);
        }
        Inst::ArrayLoad {
            dst, arr, index, ..
        } => {
            *dst = remap_var(*dst, map);
            *arr = remap_var(*arr, map);
            *index = remap_var(*index, map);
        }
        Inst::ArrayStore {
            arr, index, value, ..
        } => {
            *arr = remap_var(*arr, map);
            *index = remap_var(*index, map);
            *value = remap_var(*value, map);
        }
        Inst::New { dst, .. } => *dst = remap_var(*dst, map),
        Inst::NewArray { dst, len, .. } => {
            *dst = remap_var(*dst, map);
            *len = remap_var(*len, map);
        }
        Inst::Call {
            dst,
            receiver,
            args,
            ..
        } => {
            if let Some(d) = dst {
                *d = remap_var(*d, map);
            }
            if let Some(r) = receiver {
                *r = remap_var(*r, map);
            }
            for a in args {
                *a = remap_var(*a, map);
            }
        }
    }
}

fn remap_term(term: &Terminator, map: &[VarId]) -> Terminator {
    match term {
        Terminator::If {
            cond,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => Terminator::If {
            cond: *cond,
            lhs: remap_var(*lhs, map),
            rhs: remap_var(*rhs, map),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        Terminator::IfNull {
            var,
            on_null,
            on_nonnull,
        } => Terminator::IfNull {
            var: remap_var(*var, map),
            on_null: *on_null,
            on_nonnull: *on_nonnull,
        },
        Terminator::Goto(b) => Terminator::Goto(*b),
        Terminator::Return(v) => Terminator::Return(v.map(|v| remap_var(v, map))),
        Terminator::Throw(k) => Terminator::Throw(*k),
    }
}

/// Runs devirtualization followed by inlining across the whole module.
pub fn run(module: &mut Module, config: InlineConfig) -> InlineStats {
    let mut stats = InlineStats::default();
    // Devirtualize everywhere first.
    for fi in 0..module.num_functions() {
        let id = FunctionId::new(fi);
        // Split borrow: clone nothing, devirtualize reads only the class
        // table and method implementations.
        let mut func = std::mem::replace(
            module.function_mut(id),
            Function::from_parts(
                String::new(),
                vec![],
                None,
                false,
                vec![],
                vec![njc_ir::BasicBlock::new(BlockId(0))],
                BlockId(0),
                vec![],
            ),
        );
        stats.devirtualized += devirtualize(module, &mut func);
        *module.function_mut(id) = func;
    }
    // Snapshot inlinable bodies.
    let mut bodies: HashMap<FunctionId, Function> = HashMap::new();
    for fi in 0..module.num_functions() {
        let id = FunctionId::new(fi);
        let f = module.function(id);
        if inlinable(f, config) {
            bodies.insert(id, f.clone());
        }
    }
    for fi in 0..module.num_functions() {
        let id = FunctionId::new(fi);
        let mut func = std::mem::replace(
            module.function_mut(id),
            Function::from_parts(
                String::new(),
                vec![],
                None,
                false,
                vec![],
                vec![njc_ir::BasicBlock::new(BlockId(0))],
                BlockId(0),
                vec![],
            ),
        );
        stats.inlined += inline_in_function(&mut func, id, &bodies, config);
        *module.function_mut(id) = func;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::{verify_module, FuncBuilder, NullCheckKind, Type};

    /// Builds the Figure 1 module: a small accessor method called
    /// virtually.
    fn figure1_module() -> Module {
        let mut m = Module::new("fig1");
        let c = m.add_class("C", &[("field1", Type::Int)]);
        // int func(int s1) { if (s1 < 0) return s1; else return this.field1; }
        let mut b = FuncBuilder::new("C_func", &[Type::Ref, Type::Int], Type::Int);
        b.instance_method();
        let this = b.param(0);
        let s1 = b.param(1);
        let zero = b.iconst(0);
        let neg = b.new_block();
        let pos = b.new_block();
        b.br_if(njc_ir::Cond::Lt, s1, zero, neg, pos);
        b.switch_to(neg);
        b.ret(Some(s1));
        b.switch_to(pos);
        let field1 = m.field(c, "field1").unwrap();
        let v = b.get_field(this, field1);
        b.ret(Some(v));
        m.add_method(c, "func", b.finish());

        // caller: result = a.func(i)
        let mut b = FuncBuilder::new("caller", &[Type::Ref, Type::Int], Type::Int);
        let a = b.param(0);
        let i = b.param(1);
        let r = b.call_virtual(c, "func", a, &[i], Some(Type::Int)).unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn monomorphic_virtual_call_devirtualized_and_inlined() {
        let mut m = figure1_module();
        let stats = run(&mut m, InlineConfig::default());
        assert_eq!(stats.devirtualized, 1);
        assert_eq!(stats.inlined, 1);
        verify_module(&m).unwrap();
        let caller = m.function(m.function_by_name("caller").unwrap());
        // No call remains...
        assert!(caller
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .all(|i| !matches!(i, Inst::Call { .. })));
        // ... but the explicit null check of the receiver does (Figure 1's
        // requirement).
        assert!(caller
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::NullCheck { var, kind: NullCheckKind::Explicit, .. } if *var == VarId(0))));
    }

    #[test]
    fn allocation_site_devirtualization() {
        let mut m = Module::new("t");
        let c1 = m.add_class("A", &[]);
        let c2 = m.add_class("B", &[]);
        for (cls, name) in [(c1, "A_get"), (c2, "B_get")] {
            let mut b = FuncBuilder::new(name, &[Type::Ref], Type::Int);
            b.instance_method();
            let v = b.iconst(if name.starts_with('A') { 1 } else { 2 });
            b.ret(Some(v));
            m.add_method(cls, "get", b.finish());
        }
        // Polymorphic method, but the receiver is freshly allocated: the
        // allocation site pins the class.
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let obj = b.new_object(c1);
        let r = b
            .call_virtual(c1, "get", obj, &[], Some(Type::Int))
            .unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());

        let mut f = m.function(m.function_by_name("main").unwrap()).clone();
        let n = devirtualize(&m, &mut f);
        assert_eq!(n, 1);
        let a_get = m.function_by_name("A_get").unwrap();
        assert!(f
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Call { target: CallTarget::Direct(t), .. } if *t == a_get)));
    }

    #[test]
    fn polymorphic_call_not_devirtualized_without_allocation() {
        let mut m = Module::new("t");
        let c1 = m.add_class("A", &[]);
        let c2 = m.add_class("B", &[]);
        for (cls, name) in [(c1, "A_get"), (c2, "B_get")] {
            let mut b = FuncBuilder::new(name, &[Type::Ref], Type::Int);
            b.instance_method();
            let v = b.iconst(0);
            b.ret(Some(v));
            m.add_method(cls, "get", b.finish());
        }
        let mut b = FuncBuilder::new("main", &[Type::Ref], Type::Int);
        let obj = b.param(0);
        let r = b
            .call_virtual(c1, "get", obj, &[], Some(Type::Int))
            .unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());

        let mut f = m.function(m.function_by_name("main").unwrap()).clone();
        assert_eq!(devirtualize(&m, &mut f), 0);
    }

    #[test]
    fn inlined_code_inherits_caller_try_region() {
        let mut m = Module::new("t");
        let c = m.add_class("C", &[("x", Type::Int)]);
        let mut b = FuncBuilder::new("getx", &[Type::Ref], Type::Int);
        b.instance_method();
        let this = b.param(0);
        let f = m.field(c, "x").unwrap();
        let v = b.get_field(this, f);
        b.ret(Some(v));
        let getx = m.add_method(c, "getx", b.finish());

        let mut b = FuncBuilder::new("caller", &[Type::Ref], Type::Int);
        let p = b.param(0);
        let handler = b.new_block();
        let code = b.var(Type::Int);
        let region = b.add_try_region(handler, njc_ir::CatchKind::Any, Some(code));
        b.set_try_region(Some(region));
        let r = b.call_direct(getx, p, &[], Some(Type::Int)).unwrap();
        b.ret(Some(r));
        b.set_try_region(None);
        b.switch_to(handler);
        let z = b.iconst(-9);
        b.ret(Some(z));
        m.add_function(b.finish());

        let stats = run(&mut m, InlineConfig::default());
        assert_eq!(stats.inlined, 1);
        verify_module(&m).unwrap();
        let caller = m.function(m.function_by_name("caller").unwrap());
        // Every block holding inlined callee instructions (the getfield) is
        // inside the caller's try region.
        for b in caller.blocks() {
            if b.insts.iter().any(|i| matches!(i, Inst::GetField { .. })) {
                assert_eq!(b.try_region, Some(njc_ir::TryRegionId(0)), "{caller}");
            }
        }
    }

    #[test]
    fn oversized_callee_not_inlined() {
        let mut m = figure1_module();
        let stats = run(
            &mut m,
            InlineConfig {
                max_callee_insts: 1,
                max_sites_per_caller: 10,
            },
        );
        assert_eq!(stats.inlined, 0);
        assert_eq!(stats.devirtualized, 1, "devirt still happens");
    }

    #[test]
    fn void_callee_inlines_without_result_move() {
        let mut m = Module::new("t");
        let c = m.add_class("C", &[("x", Type::Int)]);
        let mut b = FuncBuilder::new_void("setx", &[Type::Ref, Type::Int]);
        b.instance_method();
        let this = b.param(0);
        let x = b.param(1);
        let f = m.field(c, "x").unwrap();
        b.put_field(this, f, x);
        b.ret(None);
        let setx = m.add_method(c, "setx", b.finish());

        let mut b = FuncBuilder::new("caller", &[Type::Ref, Type::Int], Type::Int);
        let p = b.param(0);
        let x = b.param(1);
        b.call_direct(setx, p, &[x], None);
        b.ret(Some(x));
        m.add_function(b.finish());

        let stats = run(&mut m, InlineConfig::default());
        assert_eq!(stats.inlined, 1);
        verify_module(&m).unwrap();
    }
}
