//! # njc-codegen — code generation backend
//!
//! Lowers njc IR to a linear virtual machine code, completing the JIT
//! picture the paper assumes:
//!
//! * explicit null checks become real [`isa::MInst::CheckNull`]
//!   instructions (compare-and-branch on IA32, one-cycle `tw` on PowerPC —
//!   the cost model difference of §3.3.1);
//! * **implicit null checks emit no code at all** — they exist only as PC
//!   entries in the per-function [`table::ExceptionSiteTable`], exactly the
//!   "mark such an instruction as an exception site" of §3.3.2;
//! * try regions become PC-range entries in a [`table::HandlerTable`], the
//!   machine's exception unwinder.
//!
//! `njc-emit` encodes the lowered code to x86-64 bytes and executes them:
//! a hardware trap is resolved by PC lookup in the binary site table — site
//! hit → `NullPointerException` + handler-range unwinding; miss →
//! [`outcome::MachineFault`] (the crash a real JIT would suffer from an
//! unsoundly removed check). The [`outcome`] types are what that executor
//! reports, held observable-for-observable to the IR interpreter
//! (`njc-vm`): results and observations are the IR's [`njc_ir::Value`],
//! the one value type both executors report in.
//!
//! ## Example
//!
//! ```
//! use njc_codegen::{lower_module, MInst};
//! use njc_ir::{parse_function, AccessKind, Module, Type};
//!
//! let mut module = Module::new("demo");
//! module.add_class("C", &[("x", Type::Int)]);
//! module.add_function(parse_function(
//!     "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = new class0\n  v1 = const 21\n  putfield v0, field0, v1\n  v2 = getfield v0, field0 [site]\n  v2 = add.int v2, v2\n  return v2\n}",
//! ).unwrap());
//! let machine_module = lower_module(&module);
//! let main = &machine_module.functions[machine_module.function_by_name("main").unwrap()];
//! // The implicit check is a table entry, not an instruction.
//! assert!(!main.code.iter().any(|i| matches!(i, MInst::CheckNull { .. })));
//! assert_eq!(main.sites.len(), 1);
//! let (pc, info) = main.sites.iter().next().unwrap();
//! assert!(matches!(main.code[pc], MInst::Load { .. }), "the site is the load");
//! assert_eq!(info.kind, AccessKind::Read);
//! ```

pub mod isa;
pub mod lower;
pub mod outcome;
pub mod table;

pub use isa::{AluOp, FaluOp, MInst, Reg};
pub use lower::{lower_function, lower_module};
pub use outcome::{MachineFault, MachineOutcome, MachineStats};

/// The former name of [`njc_ir::Value`] in this crate, kept only for the
/// benchmark harness (`perfbench/src/workload.rs`), which names it; the
/// next change under `perfbench/` switches that to `Value` and drops this.
pub use njc_ir::Value as MValue;
pub use table::{
    ExceptionSiteTable, HandlerTable, MachineClass, MachineFunction, MachineModule, SiteInfo,
};
