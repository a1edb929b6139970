//! # njc-dataflow — bit-vector dataflow framework
//!
//! A small, fast framework for the iterative bit-vector dataflow analyses
//! that the two-phase null check optimizer of Kawahito et al. (ASPLOS 2000)
//! is built from: dense [`BitSet`]s over dataflow facts, and a worklist
//! [`solve`]r parameterized by direction, meet operator, block transfer
//! function, and per-edge transfer function.
//!
//! The per-edge transfer hook is what lets the paper's equations be
//! transcribed directly — e.g. §4.1.2's
//! `In_fwd(n) = ∩ (Out_fwd(m) ∪ Earliest(m) ∪ Edge(m, n))`
//! becomes an intersection-meet forward problem whose edge transfer adds
//! `Earliest(m)` and the edge facts before the meet.
//!
//! ```
//! use njc_dataflow::{solve, BitSet, Direction, Meet, Problem};
//! use njc_ir::{BlockId, FuncBuilder, Type};
//!
//! struct AllOnes;
//! impl Problem for AllOnes {
//!     fn direction(&self) -> Direction { Direction::Forward }
//!     fn meet(&self) -> Meet { Meet::Union }
//!     fn num_facts(&self) -> usize { 1 }
//!     fn transfer(&self, _b: BlockId, input: &BitSet, output: &mut BitSet) {
//!         output.copy_from(input);
//!         output.insert(0);
//!     }
//! }
//!
//! let mut b = FuncBuilder::new("f", &[], Type::Int);
//! let v = b.iconst(1);
//! b.ret(Some(v));
//! let f = b.finish();
//! let sol = solve(&f, &AllOnes);
//! assert!(sol.output(f.entry()).contains(0));
//! ```

pub mod bitset;
pub mod solver;

pub use bitset::BitSet;
pub use solver::{
    solve, solve_cached, solve_round_robin, Direction, Meet, Problem, Solution, SolverWorkspace,
};
