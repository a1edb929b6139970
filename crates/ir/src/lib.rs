//! # njc-ir — a Java-like typed intermediate representation
//!
//! This crate provides the intermediate representation used throughout the
//! reproduction of *"Effective Null Pointer Check Elimination Utilizing
//! Hardware Trap"* (Kawahito, Komatsu, Nakatani; ASPLOS 2000).
//!
//! The IR mirrors the paper's setting: a method is a control-flow graph of
//! basic blocks over typed local variables, with **null checks split from the
//! instructions that require them** (paper §3: *"For each instruction that can
//! potentially throw a null pointer exception, we split it into a null check
//! and the original operation"*). Splitting happens at construction time via
//! [`FuncBuilder`], which automatically emits a [`Inst::NullCheck`] in front of
//! every field access, array access, array-length read, and call through an
//! object reference.
//!
//! Precise-exception structure is carried by *try regions*
//! ([`TryRegion`]): every block optionally belongs to one region, and any
//! throwing instruction inside the region transfers control to the region's
//! handler block.
//!
//! ## Quick example
//!
//! ```
//! use njc_ir::{Module, Type, FuncBuilder};
//!
//! let mut module = Module::new("demo");
//! let point = module.add_class("Point", &[("x", Type::Int), ("y", Type::Int)]);
//! let x_field = module.field(point, "x").unwrap();
//! let mut b = FuncBuilder::new("get_x", &[Type::Ref], Type::Int);
//! let this = b.param(0);
//! let x = b.get_field(this, x_field);
//! b.ret(Some(x));
//! let func = b.finish();
//! assert_eq!(func.name(), "get_x");
//! module.add_function(func);
//! ```

pub mod block;
pub mod builder;
pub mod cfg;
pub mod display;
pub mod dom;
pub mod function;
pub mod inst;
pub mod module;
pub mod observation;
pub mod parse;
pub mod types;
pub mod value;
pub mod verify;

pub use block::{BasicBlock, Terminator};
pub use builder::FuncBuilder;
pub use cfg::CfgCache;
pub use dom::{DomTree, NaturalLoop};
pub use function::{CatchKind, Function, TryRegion};
pub use inst::{
    AccessKind, CallTarget, Cond, ExceptionKind, Inst, Intrinsic, NullCheckKind, Op, SlotAccess,
};
pub use module::{Class, ClassId, Field, FieldId, FunctionId, Module};
pub use observation::Observation;
pub use parse::{parse_function, ParseError};
pub use types::{BlockId, CheckId, ConstValue, TryRegionId, Type, VarId};
pub use value::{Mismatch, Value};
pub use verify::{verify, verify_module, VerifyError};
