//! # njc-interproc — interprocedural non-nullness inference
//!
//! The paper's elimination is purely intraprocedural: phase 1's forward
//! analysis starts every function knowing nothing about its parameters,
//! its callees' returns, or the heap. This crate closes that gap with a
//! whole-module *call-graph fixpoint* in the style of Hubert et al.'s
//! bytecode annotation inferencer and NullAway's non-null discipline:
//!
//! * **parameter facts** — a parameter is non-null if every intra-module
//!   call site passes a provably non-null argument and the function is
//!   not an entry point (so no unknown caller exists);
//! * **return facts** — a function never returns null if every `return`
//!   yields a provably non-null reference;
//! * **field facts** — a reference field is never observed null if every
//!   store to it stores a provably non-null value and every `new` of its
//!   class initializes it before the object can escape or a handler can
//!   observe it (the constructor-path condition).
//!
//! ## Lattice and fixpoint
//!
//! Each candidate fact is one boolean; the lattice is the powerset of
//! candidates ordered by inclusion. Inference starts **optimistically**
//! (all candidates assumed) and repeatedly re-judges every function's
//! body under the current assumption set — using exactly the analysis
//! phase 1 will later consume ([`njc_core::Workspace::solve_nonnull`]
//! under the assumptions' context), so inference and consumption cannot
//! drift.
//! Any violated candidate is removed and the loop repeats until no fact
//! changes: a greatest-fixpoint computation that terminates because facts
//! only ever shrink.
//!
//! ## Soundness
//!
//! At the fixpoint every surviving fact is justified by the others, and
//! the circularity grounds out by induction on execution depth: entry
//! points ([`CallGraph::is_root`]: `main` plus any function with zero
//! intra-module call sites) carry no parameter facts, so the outermost
//! judgment of every dynamic call chain uses only sound intraprocedural
//! evidence (allocations, checks, branch edges), and each deeper judgment
//! uses facts already established for shallower frames. Dynamic
//! (virtual) call targets are conservatively merged: a virtual site
//! constrains the parameters of **every** implementation of the method,
//! and a virtual return fact requires **all** implementations to carry
//! it. The companion dynamic oracle ([`assertion_module`]) rechecks every
//! inferred fact at run time.

use njc_arch::TrapModel;
use njc_core::ctx::AnalysisCtx;
use njc_core::{EntryAssumptions, FnFacts, Workspace};
use njc_dataflow::BitSet;
use njc_ir::{
    CallTarget, CfgCache, CheckId, FieldId, Function, FunctionId, Inst, Module, NullCheckKind,
    Terminator, Type, VarId,
};

/// The intra-module call graph, with dynamic targets conservatively
/// merged: a virtual call contributes one site (and one edge) to every
/// implementation of the method.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// Deduplicated `(caller, callee)` edges, ascending.
    pub edges: Vec<(FunctionId, FunctionId)>,
    /// Number of call sites per callee (indexed by function id); a
    /// virtual site counts once per implementation it may dispatch to.
    pub site_counts: Vec<u32>,
    /// Whether each function is an entry point: reachable from outside
    /// the module (`main`) or without any intra-module call site.
    roots: Vec<bool>,
}

impl CallGraph {
    /// Whether `f` is an entry point (unknown callers ⇒ no parameter
    /// facts may be inferred for it).
    pub fn is_root(&self, f: FunctionId) -> bool {
        self.roots[f.index()]
    }
}

/// All functions a call through `target` may dispatch to. Static and
/// devirtualized targets are precise; virtual targets return every
/// implementation of the method across the class table.
pub fn resolve_targets(module: &Module, target: &CallTarget) -> Vec<FunctionId> {
    match target {
        CallTarget::Static(f) | CallTarget::Direct(f) => vec![*f],
        CallTarget::Virtual { method, .. } => module
            .implementations_of(method)
            .into_iter()
            .map(|(_, f)| f)
            .collect(),
    }
}

/// Builds the intra-module call graph over [`CallTarget`]s.
pub fn build_call_graph(module: &Module) -> CallGraph {
    let n = module.num_functions();
    let mut site_counts = vec![0u32; n];
    let mut edges = Vec::new();
    for (ci, f) in module.functions().iter().enumerate() {
        for b in f.blocks() {
            for inst in &b.insts {
                if let Inst::Call { target, .. } = inst {
                    for t in resolve_targets(module, target) {
                        site_counts[t.index()] += 1;
                        edges.push((FunctionId::new(ci), t));
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let roots = (0..n)
        .map(|i| site_counts[i] == 0 || module.function(FunctionId::new(i)).name() == "main")
        .collect();
    CallGraph {
        edges,
        site_counts,
        roots,
    }
}

/// Statistics of one inference run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Fixpoint rounds until convergence (including the final no-change
    /// round).
    pub rounds: usize,
    /// Surviving parameter facts.
    pub param_facts: usize,
    /// Surviving return facts.
    pub return_facts: usize,
    /// Surviving field facts.
    pub field_facts: usize,
}

/// Mutable fixpoint state: one boolean per candidate fact.
struct State {
    /// `params[f][j]`: parameter `j` of function `f` non-null at every
    /// call site.
    params: Vec<Vec<bool>>,
    /// `rets[f]`: function `f` never returns null.
    rets: Vec<bool>,
    /// `fields[k]`: field `k` never observed null.
    fields: Vec<bool>,
}

impl State {
    fn optimistic(module: &Module, cg: &CallGraph) -> State {
        let params = module
            .function_ids()
            .map(|fid| {
                let f = module.function(fid);
                f.params()
                    .iter()
                    .map(|&t| t == Type::Ref && !cg.is_root(fid))
                    .collect()
            })
            .collect();
        let rets = module
            .functions()
            .iter()
            .map(|f| f.return_type() == Some(Type::Ref))
            .collect();
        let fields = (0..module.num_fields())
            .map(|k| module.field_decl(FieldId::new(k)).ty == Type::Ref)
            .collect();
        State {
            params,
            rets,
            fields,
        }
    }

    fn to_assumptions(&self, module: &Module, cg: &CallGraph) -> EntryAssumptions {
        let mut asm = EntryAssumptions::new();
        for fid in module.function_ids() {
            let fi = fid.index();
            let nonnull_params: Vec<u32> = self.params[fi]
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(j, _)| j as u32)
                .collect();
            asm.set_function(
                module.function(fid).name(),
                FnFacts {
                    nonnull_params,
                    nonnull_return: self.rets[fi],
                    call_sites: cg.site_counts[fi],
                },
            );
        }
        for (k, &b) in self.fields.iter().enumerate() {
            if b {
                asm.insert_field(FieldId::new(k));
            }
        }
        asm
    }
}

/// Whether, in the instruction suffix following a `new` of `obj`, the
/// candidate `field` of the fresh object is provably initialized before
/// the object can escape — or before, inside a try region, any
/// potentially-throwing instruction could hand a handler the chance to
/// observe the uninitialized field through the still-live local.
fn init_before_escape(rest: &[Inst], obj: VarId, field: FieldId, in_try: bool) -> bool {
    for inst in rest {
        match inst {
            // A store into the fresh object itself: initializes our field
            // (the stored value's non-nullness is judged by the global
            // store rule) or harmlessly fills a sibling field. Cannot
            // throw — the base is the fresh, non-null object.
            Inst::PutField {
                obj: o, field: f2, ..
            } if *o == obj => {
                if *f2 == field {
                    return true;
                }
            }
            // A null check of the fresh object never fires.
            Inst::NullCheck { var, .. } if *var == obj => {}
            _ => {
                if inst.uses().any(|v| v == obj) {
                    return false; // escapes
                }
                if in_try {
                    return false; // a throw could expose the local
                }
                if inst.def() == Some(obj) {
                    return true; // overwritten: the object is unreachable
                }
            }
        }
    }
    false // block ends with the field still uninitialized
}

/// Infers [`EntryAssumptions`] for `module`. See the crate docs for the
/// lattice and the soundness argument. Must run on real function bodies
/// (after inlining, before any body is taken out of the module).
pub fn infer(module: &Module) -> EntryAssumptions {
    infer_with_stats(module).0
}

/// [`infer`] with convergence statistics.
pub fn infer_with_stats(module: &Module) -> (EntryAssumptions, InferStats) {
    let cg = build_call_graph(module);
    let mut st = State::optimistic(module, &cg);
    let mut rounds = 0;
    // Each function's CFG is computed once and its solves share one
    // workspace: bodies do not change across rounds.
    let mut cfgs = vec![CfgCache::new(); module.num_functions()];
    let mut ws = Workspace::new();
    let mut set = BitSet::default();
    loop {
        rounds += 1;
        let asm = st.to_assumptions(module, &cg);
        let ctx = AnalysisCtx::new(module, TrapModel::no_traps()).with_assumptions(Some(&asm));
        let mut changed = false;
        let demote_param = |st: &mut State, f: usize, j: usize| {
            if st.params[f][j] {
                st.params[f][j] = false;
                true
            } else {
                false
            }
        };
        for (fi, f) in module.functions().iter().enumerate() {
            let nv = f.num_vars();
            if nv == 0 || f.num_blocks() == 0 {
                continue;
            }
            // Exactly the analysis phase 1 consumes the facts with.
            let cfg = &mut cfgs[fi];
            cfg.ensure(f);
            let (sol, _) = ws.solve_nonnull(f, cfg, Some(&ctx), None);
            for (bi, b) in f.blocks().iter().enumerate() {
                set.clone_from(&sol.ins[bi]);
                let in_try = b.try_region.is_some();
                for (ii, inst) in b.insts.iter().enumerate() {
                    // Judge the instruction against the current facts...
                    match inst {
                        Inst::Call {
                            target,
                            receiver,
                            args,
                            ..
                        } => {
                            for t in resolve_targets(module, target) {
                                let callee = module.function(t);
                                let np = callee.params().len();
                                // The actuals are the receiver (for an
                                // instance callee) followed by the args.
                                let recv: &[VarId] = if callee.is_instance() {
                                    receiver.as_slice()
                                } else {
                                    &[]
                                };
                                let arity_ok = recv.len() + args.len() == np;
                                for j in 0..np {
                                    let passes_nonnull = arity_ok && {
                                        let a = match j.checked_sub(recv.len()) {
                                            None => recv[j],
                                            Some(k) => args[k],
                                        };
                                        set.contains(a.index())
                                    };
                                    if !passes_nonnull {
                                        changed |= demote_param(&mut st, t.index(), j);
                                    }
                                }
                            }
                        }
                        Inst::PutField { field, value, .. }
                            if st.fields[field.index()] && !set.contains(value.index()) =>
                        {
                            st.fields[field.index()] = false;
                            changed = true;
                        }
                        Inst::New { dst, class } => {
                            for &fid in &module.class(*class).fields {
                                if st.fields[fid.index()]
                                    && !init_before_escape(&b.insts[ii + 1..], *dst, fid, in_try)
                                {
                                    st.fields[fid.index()] = false;
                                    changed = true;
                                }
                            }
                        }
                        _ => {}
                    }
                    // ... then apply the same transfer the solver used.
                    if let Some(d) = ctx.assumed_nonnull_def(inst) {
                        set.insert(d.index());
                    } else {
                        match inst {
                            Inst::NullCheck { var, .. } => {
                                set.insert(var.index());
                            }
                            Inst::New { dst, .. } | Inst::NewArray { dst, .. } => {
                                set.insert(dst.index());
                            }
                            _ => {
                                if let Some(d) = inst.def() {
                                    set.remove(d.index());
                                }
                            }
                        }
                    }
                }
                if st.rets[fi] {
                    if let Terminator::Return(v) = &b.term {
                        let nonnull = matches!(v, Some(v) if set.contains(v.index()));
                        if !nonnull {
                            st.rets[fi] = false;
                            changed = true;
                        }
                    }
                }
            }
            ws.solver.recycle(sol);
        }
        if !changed {
            let asm = st.to_assumptions(module, &cg);
            let stats = InferStats {
                rounds,
                param_facts: asm.num_param_facts(),
                return_facts: asm.num_return_facts(),
                field_facts: asm.num_field_facts(),
            };
            return (asm, stats);
        }
    }
}

/// Builds the dynamic soundness oracle's *fact-assertion module*: a clone
/// of `module` with an explicit null check asserting every inferred fact
/// — each proven parameter at function entry, each proven call return
/// and field load right after the defining instruction. If all facts are
/// sound the assertion module is observationally equivalent to the
/// original; a violated fact surfaces as a diverging
/// `NullPointerException`.
pub fn assertion_module(module: &Module, asm: &EntryAssumptions) -> Module {
    let ctx = AnalysisCtx::new(module, TrapModel::no_traps()).with_assumptions(Some(asm));
    let check = |var: VarId| Inst::NullCheck {
        var,
        kind: NullCheckKind::Explicit,
        id: CheckId::NONE,
    };
    let mut out = module.clone();
    for fid in module.function_ids() {
        let src: &Function = module.function(fid);
        let entry = src.entry();
        let param_checks: Vec<Inst> = asm
            .function(src.name())
            .map(|ff| {
                ff.nonnull_params
                    .iter()
                    .filter(|&&p| (p as usize) < src.num_vars())
                    .map(|&p| check(VarId::new(p as usize)))
                    .collect()
            })
            .unwrap_or_default();
        let f = out.function_mut(fid);
        for bi in 0..src.num_blocks() {
            let block = njc_ir::BlockId::new(bi);
            let old = std::mem::take(f.insts_mut(block));
            let mut rebuilt = Vec::with_capacity(old.len() + 2);
            if block == entry {
                rebuilt.extend(param_checks.iter().cloned());
            }
            for inst in old {
                let assumed = ctx.assumed_nonnull_def(&inst);
                rebuilt.push(inst);
                if let Some(d) = assumed {
                    rebuilt.push(check(d));
                }
            }
            *f.insts_mut(block) = rebuilt;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::FuncBuilder;

    /// `mk() -> ref { v = new C; v.f0 = 1; return v }`
    fn mk_helper(m: &Module, name: &str) -> Function {
        let class = m.class_by_name("C").unwrap();
        let field = m.field(class, "f0").unwrap();
        let mut b = FuncBuilder::new(name, &[], Type::Ref);
        let v = b.new_object(class);
        let one = b.iconst(1);
        b.put_field(v, field, one);
        b.ret(Some(v));
        b.finish()
    }

    fn base_module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f0", Type::Int), ("link", Type::Ref)]);
        m
    }

    /// `use(o) -> int { return o.f0 }` — wants a param fact.
    fn use_helper(m: &Module, name: &str) -> Function {
        let class = m.class_by_name("C").unwrap();
        let field = m.field(class, "f0").unwrap();
        let mut b = FuncBuilder::new(name, &[Type::Ref], Type::Int);
        let p = b.param(0);
        let x = b.get_field(p, field);
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn return_fact_survives_direct_recursion() {
        // f(n) = if n < 1 { mk() } else { f(n - 1) } — never returns null,
        // and the recursive return is justified by f's own fact.
        let mut m = base_module();
        let mk = m.add_function(mk_helper(&m, "mk"));
        let mut b = FuncBuilder::new("f", &[Type::Int], Type::Ref);
        let n = b.param(0);
        let one = b.iconst(1);
        let (then_bb, else_bb) = (b.new_block(), b.new_block());
        b.br_if(njc_ir::Cond::Lt, n, one, then_bb, else_bb);
        b.switch_to(then_bb);
        let fresh = b.call_static(mk, &[], Some(Type::Ref)).unwrap();
        b.ret(Some(fresh));
        b.switch_to(else_bb);
        let nm = b.binop(njc_ir::Op::Sub, n, one);
        let self_id = FunctionId::new(m.num_functions()); // f's own id
        let rec = b.call_static(self_id, &[nm], Some(Type::Ref)).unwrap();
        b.ret(Some(rec));
        let f = b.finish();
        let fid = m.add_function(f);
        assert_eq!(fid, self_id);
        let asm = infer(&m);
        assert!(asm.function("f").unwrap().nonnull_return, "{asm:?}");
        assert!(asm.function("mk").unwrap().nonnull_return);
    }

    #[test]
    fn param_fact_inferred_when_all_sites_pass_nonnull() {
        let mut m = base_module();
        let used = m.add_function(use_helper(&m, "use"));
        let mk = m.add_function(mk_helper(&m, "mk"));
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let o = b.call_static(mk, &[], Some(Type::Ref)).unwrap();
        let r = b.call_static(used, &[o], Some(Type::Int)).unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());
        let asm = infer(&m);
        let ff = asm.function("use").unwrap();
        assert_eq!(ff.nonnull_params, vec![0], "{asm:?}");
        assert_eq!(ff.call_sites, 1);
    }

    #[test]
    fn maybe_null_argument_blocks_param_fact() {
        let mut m = base_module();
        let used = m.add_function(use_helper(&m, "use"));
        let mk = m.add_function(mk_helper(&m, "mk"));
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let o = b.call_static(mk, &[], Some(Type::Ref)).unwrap();
        let r1 = b.call_static(used, &[o], Some(Type::Int)).unwrap();
        let nul = b.null_ref();
        let r2 = b.call_static(used, &[nul], Some(Type::Int)).unwrap();
        let r = b.binop(njc_ir::Op::Add, r1, r2);
        b.ret(Some(r));
        m.add_function(b.finish());
        let asm = infer(&m);
        assert!(
            asm.function("use")
                .is_none_or(|ff| ff.nonnull_params.is_empty()),
            "a maybe-null site must block the fact: {asm:?}"
        );
    }

    #[test]
    fn mutual_recursion_converges() {
        // even(n) = n < 1 ? mk() : odd(n-1); odd(n) = n < 1 ? null : even(n-1).
        // `odd` may return null, so `even`'s recursive arm is fine (it
        // returns odd's value — which may be null — so even loses its
        // fact too; only mk keeps one).
        let mut m = base_module();
        let mk = m.add_function(mk_helper(&m, "mk"));
        let even_id = FunctionId::new(1);
        let odd_id = FunctionId::new(2);
        let mk_fn = |name: &str, callee: FunctionId, base_null: bool, m: &Module| {
            let mut b = FuncBuilder::new(name, &[Type::Int], Type::Ref);
            let n = b.param(0);
            let one = b.iconst(1);
            let (t, e) = (b.new_block(), b.new_block());
            b.br_if(njc_ir::Cond::Lt, n, one, t, e);
            b.switch_to(t);
            if base_null {
                let nul = b.null_ref();
                b.ret(Some(nul));
            } else {
                let fresh = b.call_static(mk, &[], Some(Type::Ref)).unwrap();
                b.ret(Some(fresh));
            }
            b.switch_to(e);
            let nm = b.binop(njc_ir::Op::Sub, n, one);
            let rec = b.call_static(callee, &[nm], Some(Type::Ref)).unwrap();
            b.ret(Some(rec));
            let _ = m;
            b.finish()
        };
        let even = mk_fn("even", odd_id, false, &m);
        assert_eq!(m.add_function(even), even_id);
        let odd = mk_fn("odd", even_id, true, &m);
        assert_eq!(m.add_function(odd), odd_id);
        let asm = infer(&m);
        assert!(asm.function("mk").unwrap().nonnull_return);
        assert!(
            asm.function("odd").is_none_or(|ff| !ff.nonnull_return),
            "odd returns null on the base path: {asm:?}"
        );
        assert!(
            asm.function("even").is_none_or(|ff| !ff.nonnull_return),
            "even forwards odd's maybe-null value: {asm:?}"
        );
    }

    #[test]
    fn virtual_targets_merge_conservatively() {
        // Two implementations of `get`; one may return null ⇒ a virtual
        // call through the method has no return fact, and the maybe-null
        // receiver class's impl also drags down param facts at the site.
        let mut m = Module::new("t");
        let a = m.add_class("A", &[("f0", Type::Int)]);
        let bcls = m.add_class("B", &[("g0", Type::Int)]);
        let mk_impl = |name: &str, class_name: &str, null_ret: bool, m: &Module| {
            let class = m.class_by_name(class_name).unwrap();
            let mut b = FuncBuilder::new(name, &[Type::Ref], Type::Ref);
            b.instance_method();
            if null_ret {
                let nul = b.null_ref();
                b.ret(Some(nul));
            } else {
                let v = b.new_object(class);
                b.ret(Some(v));
            }
            b.finish()
        };
        let a_get = mk_impl("A_get", "A", false, &m);
        m.add_method(a, "get", a_get);
        let b_get = mk_impl("B_get", "B", true, &m);
        m.add_method(bcls, "get", b_get);
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let recv = b.new_object(a);
        let got = b
            .call_virtual(a, "get", recv, &[], Some(Type::Ref))
            .unwrap();
        b.observe(got);
        let z = b.iconst(0);
        b.ret(Some(z));
        m.add_function(b.finish());
        let asm = infer(&m);
        assert!(asm.function("A_get").unwrap().nonnull_return);
        assert!(asm.function("B_get").is_none_or(|ff| !ff.nonnull_return));
        let ctx = AnalysisCtx::new(&m, TrapModel::no_traps()).with_assumptions(Some(&asm));
        let virt = CallTarget::Virtual {
            class: a,
            method: "get".to_string(),
        };
        assert!(
            !ctx.call_returns_nonnull(&virt),
            "one maybe-null impl poisons the virtual meet"
        );
    }

    #[test]
    fn field_fact_requires_init_before_escape() {
        // good: new D; d.link = mk(); observe d  ⇒ link keeps its fact.
        // bad:  new D; observe d; d.link = mk()  ⇒ escape before init.
        // (class D is distinct from C: mk itself allocates a C and leaves
        // C's ref field uninitialized, which correctly kills C's fact.)
        for (escape_first, expect_fact) in [(false, true), (true, false)] {
            let mut m = base_module();
            let class = m.add_class("D", &[("link", Type::Ref)]);
            let link = m.field(class, "link").unwrap();
            let mk = m.add_function(mk_helper(&m, "mk"));
            let mut b = FuncBuilder::new("main", &[], Type::Int);
            let v = b.call_static(mk, &[], Some(Type::Ref)).unwrap();
            let c = b.new_object(class);
            if escape_first {
                b.observe(c);
                b.put_field(c, link, v);
            } else {
                b.put_field(c, link, v);
                b.observe(c);
            }
            let z = b.iconst(0);
            b.ret(Some(z));
            m.add_function(b.finish());
            let asm = infer(&m);
            assert_eq!(
                asm.field_nonnull(link),
                expect_fact,
                "escape_first={escape_first}: {asm:?}"
            );
        }
    }

    #[test]
    fn null_store_blocks_field_fact() {
        let mut m = base_module();
        let class = m.class_by_name("C").unwrap();
        let link = m.field(class, "link").unwrap();
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let c = b.new_object(class);
        let nul = b.null_ref();
        b.put_field(c, link, nul);
        let z = b.iconst(0);
        b.ret(Some(z));
        m.add_function(b.finish());
        let asm = infer(&m);
        assert!(!asm.field_nonnull(link));
    }

    #[test]
    fn roots_get_no_param_facts() {
        let mut m = base_module();
        let f = use_helper(&m, "lonely"); // zero call sites ⇒ root
        m.add_function(f);
        let asm = infer(&m);
        assert!(
            asm.function("lonely")
                .is_none_or(|ff| ff.nonnull_params.is_empty()),
            "{asm:?}"
        );
    }

    #[test]
    fn assertion_module_adds_checks_for_every_fact() {
        let mut m = base_module();
        let used = m.add_function(use_helper(&m, "use"));
        let mk = m.add_function(mk_helper(&m, "mk"));
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let o = b.call_static(mk, &[], Some(Type::Ref)).unwrap();
        let r = b.call_static(used, &[o], Some(Type::Int)).unwrap();
        b.ret(Some(r));
        m.add_function(b.finish());
        let asm = infer(&m);
        let count = |m: &Module| -> usize {
            m.functions()
                .iter()
                .flat_map(|f| f.blocks())
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, Inst::NullCheck { .. }))
                .count()
        };
        let am = assertion_module(&m, &asm);
        assert!(
            count(&am) > count(&m),
            "assertions added: {} vs {}",
            count(&am),
            count(&m)
        );
        njc_ir::verify_module(&am).expect("assertion module verifies");
    }
}
