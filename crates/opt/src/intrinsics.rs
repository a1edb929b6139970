//! Math intrinsic substitution (paper §5.4).
//!
//! On IA32 the JIT converts `java.lang.Math.exp` calls into an exponential
//! instruction; on PowerPC no such instruction exists, the call remains a
//! call — and therefore remains a *barrier* for scalar replacement, which
//! is why Neural Net's implicit-check win is limited on AIX (§5.4).
//!
//! We detect intrinsic-shaped callees structurally: a function whose whole
//! body is a single [`Inst::IntrinsicOp`] followed by a return of its
//! result. When the platform has the hardware instruction, calls to such
//! functions are rewritten to the `IntrinsicOp` inline (no call, no
//! barrier).

use njc_ir::{BlockId, CallTarget, Function, FunctionId, Inst, Intrinsic, Module, Terminator};

/// Statistics from one intrinsic substitution application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IntrinsicStats {
    /// Calls replaced by inline intrinsic operations.
    pub substituted: usize,
}

/// If `func` is an intrinsic wrapper (`{ v1 = intrinsic op v0; return v1 }`),
/// returns the operation.
pub fn intrinsic_shape(func: &Function) -> Option<Intrinsic> {
    if func.num_blocks() != 1 || func.params().len() != 1 {
        return None;
    }
    let b = func.block(func.entry());
    match (b.insts.as_slice(), &b.term) {
        (
            [Inst::IntrinsicOp {
                dst,
                intrinsic,
                src,
            }],
            Terminator::Return(Some(r)),
        ) if r == dst && src.index() == 0 => Some(*intrinsic),
        _ => None,
    }
}

/// Rewrites calls to intrinsic wrappers into inline intrinsic ops across
/// the module. Call only on platforms with the hardware instruction.
pub fn run(module: &mut Module) -> IntrinsicStats {
    let mut stats = IntrinsicStats::default();
    // Identify wrappers.
    let wrappers: Vec<(FunctionId, Intrinsic)> = module
        .function_ids()
        .filter_map(|id| intrinsic_shape(module.function(id)).map(|i| (id, i)))
        .collect();
    if wrappers.is_empty() {
        return stats;
    }
    let lookup = |id: FunctionId| wrappers.iter().find(|(w, _)| *w == id).map(|(_, i)| *i);
    for fi in 0..module.num_functions() {
        let func = module.function(FunctionId::new(fi));
        // Plan replacements first (immutable pass), then apply.
        let mut plan: Vec<(usize, usize, Inst)> = Vec::new();
        for b in func.blocks() {
            for (pos, inst) in b.insts.iter().enumerate() {
                if let Inst::Call {
                    dst: Some(dst),
                    target: CallTarget::Static(id) | CallTarget::Direct(id),
                    receiver: None,
                    args,
                    ..
                } = inst
                {
                    if let (Some(op), [arg]) = (lookup(*id), args.as_slice()) {
                        plan.push((
                            b.id.index(),
                            pos,
                            Inst::IntrinsicOp {
                                dst: *dst,
                                intrinsic: op,
                                src: *arg,
                            },
                        ));
                    }
                }
            }
        }
        let func = module.function_mut(FunctionId::new(fi));
        for (bi, pos, inst) in plan {
            func.insts_mut(BlockId::new(bi))[pos] = inst;
            stats.substituted += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::{FuncBuilder, Type};

    fn math_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("Math_exp", &[Type::Float], Type::Float);
        let x = b.param(0);
        let r = b.var(Type::Float);
        b.emit(Inst::IntrinsicOp {
            dst: r,
            intrinsic: Intrinsic::Exp,
            src: x,
        });
        b.ret(Some(r));
        let exp = m.add_function(b.finish());

        let mut b = FuncBuilder::new("main", &[Type::Float], Type::Float);
        let x = b.param(0);
        let r = b.call_static(exp, &[x], Some(Type::Float)).unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn wrapper_shape_detected() {
        let m = math_module();
        let exp = m.function_by_name("Math_exp").unwrap();
        assert_eq!(intrinsic_shape(m.function(exp)), Some(Intrinsic::Exp));
        let main = m.function_by_name("main").unwrap();
        assert_eq!(intrinsic_shape(m.function(main)), None);
    }

    #[test]
    fn call_replaced_by_inline_op() {
        let mut m = math_module();
        let stats = run(&mut m);
        assert_eq!(stats.substituted, 1);
        let main = m.function(m.function_by_name("main").unwrap());
        assert!(main
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::IntrinsicOp { .. })));
        assert!(main
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .all(|i| !matches!(i, Inst::Call { .. })));
        njc_ir::verify_module(&m).unwrap();
    }
}
