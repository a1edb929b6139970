//! Trivial hardware-trap conversion: the pre-phase-2 state of the art
//! (Jalapeño / LaTTe, paper §2.1).
//!
//! An explicit null check of `v` is deleted — and the access marked as the
//! exception site — when the first following slot access of `v` in the same
//! basic block is guaranteed to trap, with no intervening barrier,
//! redefinition of `v`, or non-guaranteed access of `v`. No code motion is
//! performed; this is what the paper's "No Null Opt. (Hardware Trap)" and
//! "Old Null Check" configurations use to implement their remaining checks.

use njc_ir::{BlockId, Function, Inst, NullCheckKind};
use njc_observe::{CheckEvent, Recorder};

use crate::ctx::{AccessClass, AnalysisCtx};

/// Statistics from one trivial conversion application.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TrivialStats {
    /// Checks converted to implicit (deleted, access marked).
    pub converted: usize,
}

/// Runs the trivial conversion on `func` in place.
pub fn run(ctx: &AnalysisCtx<'_>, func: &mut Function) -> TrivialStats {
    run_recorded(ctx, func, &mut Recorder::disabled())
}

/// [`run`] with provenance: each conversion records the check's id and the
/// covering access's ordinal among the block's trap-qualifying accesses
/// (stable under check removal, so the final-IR site scan can resolve it).
#[allow(clippy::needless_range_loop)] // index-based forward scanning
pub fn run_recorded(
    ctx: &AnalysisCtx<'_>,
    func: &mut Function,
    rec: &mut Recorder,
) -> TrivialStats {
    let mut stats = TrivialStats::default();
    if !ctx.trap.supports_implicit_checks() {
        return stats;
    }
    for bi in 0..func.num_blocks() {
        let block_id = BlockId::new(bi);
        let in_try = func.block(block_id).try_region.is_some();
        // insts_mut: instruction-only rewrite, CFG caches stay valid.
        let insts = func.insts_mut(block_id);
        let n = insts.len();
        let mut remove = vec![false; n];
        let mut mark = vec![false; n];
        // Ordinal of each instruction among the block's trap-qualifying
        // accesses; checks are the only instructions removed, so these
        // ordinals survive into the final IR.
        let ordinal: Vec<usize> = if rec.is_enabled() {
            let mut next = 0;
            insts
                .iter()
                .map(|inst| match ctx.classify_access(inst) {
                    Some((_, AccessClass::TrapGuaranteed)) => {
                        next += 1;
                        next - 1
                    }
                    _ => usize::MAX,
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut events = Vec::new();
        for i in 0..n {
            let Inst::NullCheck {
                var,
                kind: NullCheckKind::Explicit,
                id,
            } = insts[i]
            else {
                continue;
            };
            // Scan forward for the covering access.
            for j in i + 1..n {
                let inst = &insts[j];
                if let Some((base, class)) = ctx.classify_access(inst) {
                    if base == var {
                        if class == AccessClass::TrapGuaranteed {
                            remove[i] = true;
                            mark[j] = true;
                            stats.converted += 1;
                            if !ordinal.is_empty() {
                                events.push(CheckEvent::TrivialConverted {
                                    id,
                                    var,
                                    block: block_id,
                                    site_ordinal: ordinal[j],
                                });
                            }
                        }
                        break; // covered or hazardous: stop either way
                    }
                }
                if ctx.is_barrier(inst, in_try) || inst.def() == Some(var) {
                    break;
                }
            }
        }
        for (inst, m) in insts.iter_mut().zip(&mark) {
            if *m {
                inst.set_exception_site(true);
            }
        }
        let mut it = remove.iter();
        insts.retain(|_| !*it.next().unwrap());
        for ev in events {
            rec.record(ev);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_ir::{parse_function, Module, Type};

    fn module() -> Module {
        let mut m = Module::new("t");
        m.add_class("C", &[("f", Type::Int)]);
        m.add_class_with_offsets("Big", &[("far", Type::Int, 1 << 20)]);
        m
    }

    fn convert(src: &str, trap: TrapModel) -> (Function, TrivialStats) {
        let m = module();
        let ctx = AnalysisCtx::new(&m, trap);
        let mut f = parse_function(src).unwrap();
        let stats = run(&ctx, &mut f);
        (f, stats)
    }

    #[test]
    fn adjacent_check_and_read_converted_on_windows() {
        let (f, stats) = convert(
            "func f(v0: ref) -> int {\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
            TrapModel::windows_ia32(),
        );
        assert_eq!(stats.converted, 1);
        assert_eq!(crate::phase2::count_explicit(&f), 0);
        assert!(f.block(BlockId(0)).insts[0].is_exception_site());
    }

    #[test]
    fn read_not_converted_on_aix() {
        let (f, stats) = convert(
            "func f(v0: ref) -> int {\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
            TrapModel::aix_ppc(),
        );
        assert_eq!(stats.converted, 0);
        assert_eq!(crate::phase2::count_explicit(&f), 1);
    }

    #[test]
    fn barrier_between_check_and_access_blocks_conversion() {
        let (f, stats) = convert(
            "func f(v0: ref, v1: int) -> int {\nbb0:\n  nullcheck v0\n  observe v1\n  v2 = getfield v0, field0\n  return v2\n}",
            TrapModel::windows_ia32(),
        );
        assert_eq!(stats.converted, 0, "{f}");
    }

    #[test]
    fn big_offset_access_blocks_conversion() {
        let (f, stats) = convert(
            "func f(v0: ref) -> int {\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field1\n  return v1\n}",
            TrapModel::windows_ia32(),
        );
        assert_eq!(stats.converted, 0, "{f}");
        assert_eq!(crate::phase2::count_explicit(&f), 1);
    }

    #[test]
    fn intervening_pure_code_is_skipped_over() {
        let (f, stats) = convert(
            "func f(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  nullcheck v0\n  v2 = add.int v1, v1\n  v3 = getfield v0, field0\n  return v3\n}",
            TrapModel::windows_ia32(),
        );
        assert_eq!(stats.converted, 1, "{f}");
    }

    #[test]
    fn array_sequence_converts_at_arraylength() {
        // nullcheck; arraylength (offset 0, guaranteed) — the canonical
        // array access pattern.
        let (f, stats) = convert(
            "func f(v0: ref, v1: int) -> int {\n  locals v2: int v3: int\nbb0:\n  nullcheck v0\n  v2 = arraylength v0\n  boundcheck v1, v2\n  v3 = aload.int v0[v1]\n  return v3\n}",
            TrapModel::windows_ia32(),
        );
        assert_eq!(stats.converted, 1, "{f}");
        assert!(f.block(BlockId(0)).insts[0].is_exception_site());
    }

    #[test]
    fn redefinition_blocks_conversion() {
        let (f, stats) = convert(
            "func f(v0: ref, v1: ref) -> int {\n  locals v2: int\nbb0:\n  nullcheck v0\n  v0 = move v1\n  v2 = getfield v0, field0\n  return v2\n}",
            TrapModel::windows_ia32(),
        );
        assert_eq!(stats.converted, 0, "{f}");
    }
}
