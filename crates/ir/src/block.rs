//! Basic blocks and terminators.

use crate::inst::{Cond, ExceptionKind, Inst};
use crate::types::{BlockId, TryRegionId, VarId};

/// How control leaves a [`BasicBlock`].
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way integer comparison branch.
    If {
        /// Condition evaluated over `lhs` and `rhs`.
        cond: Cond,
        /// Left operand.
        lhs: VarId,
        /// Right operand.
        rhs: VarId,
        /// Target when the condition holds.
        then_bb: BlockId,
        /// Target when the condition does not hold.
        else_bb: BlockId,
    },
    /// Branch on whether a reference is null (`ifnull` / `ifnonnull`).
    ///
    /// The *non-null edge* carries the fact that `var` is not null, which
    /// feeds the `Edge(m, n)` set of the elimination analysis (paper §4.1.2).
    IfNull {
        /// The tested reference.
        var: VarId,
        /// Target when `var` is null.
        on_null: BlockId,
        /// Target when `var` is not null.
        on_nonnull: BlockId,
    },
    /// Return from the function, optionally with a value.
    Return(Option<VarId>),
    /// Throw an exception of the given kind.
    Throw(ExceptionKind),
}

impl Terminator {
    /// Appends the terminator's explicit successor blocks to `out`
    /// (not including the exceptional edge to a try handler).
    pub fn successors_into(&self, out: &mut Vec<BlockId>) {
        match *self {
            Terminator::Goto(t) => out.push(t),
            Terminator::If {
                then_bb, else_bb, ..
            } => {
                out.push(then_bb);
                out.push(else_bb);
            }
            Terminator::IfNull {
                on_null,
                on_nonnull,
                ..
            } => {
                out.push(on_null);
                out.push(on_nonnull);
            }
            Terminator::Return(_) | Terminator::Throw(_) => {}
        }
    }

    /// Whether `b` is one of the terminator's explicit successors (not
    /// counting the exceptional edge). Allocation-free, unlike
    /// `successors().contains(&b)`.
    pub fn has_successor(&self, b: BlockId) -> bool {
        match *self {
            Terminator::Goto(t) => t == b,
            Terminator::If {
                then_bb, else_bb, ..
            } => then_bb == b || else_bb == b,
            Terminator::IfNull {
                on_null,
                on_nonnull,
                ..
            } => on_null == b || on_nonnull == b,
            Terminator::Return(_) | Terminator::Throw(_) => false,
        }
    }

    /// Returns the terminator's explicit successors as a fresh vector.
    pub fn successors(&self) -> Vec<BlockId> {
        let mut v = Vec::with_capacity(2);
        self.successors_into(&mut v);
        v
    }

    /// Rewrites every successor id through `f` (used by block splicing in the
    /// inliner and by CFG simplification).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Goto(t) => *t = f(*t),
            Terminator::If {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::IfNull {
                on_null,
                on_nonnull,
                ..
            } => {
                *on_null = f(*on_null);
                *on_nonnull = f(*on_nonnull);
            }
            Terminator::Return(_) | Terminator::Throw(_) => {}
        }
    }

    /// Variables read by the terminator.
    pub fn uses(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.for_each_use(|v| out.push(v));
        out
    }

    /// Calls `f` on every variable the terminator reads, without
    /// allocating.
    pub fn for_each_use(&self, mut f: impl FnMut(VarId)) {
        match *self {
            Terminator::If { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Terminator::IfNull { var, .. } => f(var),
            Terminator::Return(Some(v)) => f(v),
            _ => {}
        }
    }

    /// Applies `f` to every variable the terminator reads, in place. The
    /// successors are out of `f`'s reach, so this is the operand rewrite
    /// [`crate::Function::term_uses_mut`] can offer without bumping the
    /// CFG generation.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut VarId)) {
        match self {
            Terminator::If { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Terminator::IfNull { var, .. } => f(var),
            Terminator::Return(Some(v)) => f(v),
            _ => {}
        }
    }

    /// Whether this terminator ends the function (no intra-function
    /// successors other than a possible exception handler).
    pub fn is_exit(&self) -> bool {
        matches!(self, Terminator::Return(_) | Terminator::Throw(_))
    }
}

/// A basic block: straight-line instructions plus one [`Terminator`].
#[derive(Clone, PartialEq, Debug)]
pub struct BasicBlock {
    /// The block's id (its index in the function's block arena).
    pub id: BlockId,
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The block terminator.
    pub term: Terminator,
    /// The try region this block belongs to, if any. Blocks inside a try
    /// region have an implicit exceptional edge to the region's handler.
    pub try_region: Option<TryRegionId>,
}

impl BasicBlock {
    /// Creates an empty block ending in `Return(None)`; the builder replaces
    /// the terminator when the block is sealed.
    pub fn new(id: BlockId) -> Self {
        BasicBlock {
            id,
            insts: Vec::new(),
            term: Terminator::Return(None),
            try_region: None,
        }
    }

    /// Number of instructions, excluding the terminator.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block has no instructions (the terminator still exists).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goto_successors() {
        let t = Terminator::Goto(BlockId(3));
        assert_eq!(t.successors(), vec![BlockId(3)]);
        assert!(!t.is_exit());
    }

    #[test]
    fn if_successors_order_then_else() {
        let t = Terminator::If {
            cond: Cond::Lt,
            lhs: VarId(0),
            rhs: VarId(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(t.uses(), vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn return_and_throw_are_exits() {
        assert!(Terminator::Return(None).is_exit());
        assert!(Terminator::Throw(ExceptionKind::User(1)).is_exit());
        assert!(Terminator::Return(Some(VarId(0))).uses() == vec![VarId(0)]);
    }

    #[test]
    fn map_successors_rewrites_all_targets() {
        let mut t = Terminator::IfNull {
            var: VarId(0),
            on_null: BlockId(1),
            on_nonnull: BlockId(2),
        };
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn new_block_is_empty() {
        let b = BasicBlock::new(BlockId(0));
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.term, Terminator::Return(None));
    }
}
