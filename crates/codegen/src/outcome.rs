//! The observable outcome of executing lowered code: the shared result,
//! fault and counter types every machine-code executor reports in.
//!
//! A hardware trap arrives with a faulting PC; the runtime consults the
//! exception site table — a hit raises `NullPointerException` and unwinds
//! through the handler ranges, a miss is a JIT bug
//! ([`MachineFault::UnexpectedTrap`]).

use njc_ir::{AccessKind, CheckId, ExceptionKind, Type};

/// Machine execution statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MachineStats {
    /// Machine instructions retired.
    pub insts: u64,
    /// Explicit null check instructions executed.
    pub explicit_null_checks: u64,
    /// Hardware traps taken and dispatched via the site table.
    pub traps_taken: u64,
    /// Marked-site NPEs missed because the platform did not trap.
    pub missed_npes: u64,
}

/// A non-recoverable machine failure (compiler bug or resource limit).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MachineFault {
    /// Hardware trap at a PC absent from the exception site table.
    UnexpectedTrap {
        /// The function.
        function: String,
        /// The faulting instruction's function-relative byte offset.
        pc: usize,
        /// Whether the faulting instruction read or wrote memory.
        kind: AccessKind,
        /// The access's static byte offset, when it has one (`None` for
        /// index-scaled accesses).
        offset: Option<u64>,
        /// The registered site nearest the faulting PC (its byte offset) and
        /// the IR check it discharges — the provenance lead `njc explain`
        /// reconciles the escape against (`None` when the function has no
        /// sites at all).
        nearest_site: Option<(usize, CheckId)>,
    },
    /// Access outside every allocation.
    WildAccess {
        /// The function.
        function: String,
        /// The wild address.
        address: u64,
    },
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Call depth exceeded.
    StackOverflow,
    /// Virtual dispatch failure.
    BadDispatch {
        /// The method.
        method: String,
    },
    /// Unknown entry function.
    NoSuchFunction(String),
    /// Executed bytes outside the emitted subset: an undecodable
    /// instruction, padding, a call outside every function, an unemitted
    /// jump condition, compare predicate, service id or tag, or an `idiv`
    /// whose guard was skipped.
    BadCode {
        /// The function executing when the bad instruction was reached.
        function: String,
        /// The instruction's absolute `.text` offset.
        pc: usize,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for MachineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineFault::UnexpectedTrap {
                function,
                pc,
                kind,
                offset,
                nearest_site,
            } => {
                write!(
                    f,
                    "hardware trap at unregistered pc {pc} in {function}: {} access",
                    match kind {
                        AccessKind::Read => "read",
                        AccessKind::Write => "write",
                    },
                )?;
                match offset {
                    Some(off) => write!(f, " at static offset {off}")?,
                    None => write!(f, " with a dynamic offset")?,
                }
                match nearest_site {
                    Some((spc, check)) if check.is_some() => {
                        write!(f, "; nearest site pc {spc} discharges check {check}")
                    }
                    Some((spc, _)) => write!(f, "; nearest site pc {spc} is over-marking"),
                    None => write!(f, "; the function registers no sites"),
                }
            }
            MachineFault::WildAccess { function, address } => {
                write!(f, "wild access at {address:#x} in {function}")
            }
            MachineFault::OutOfFuel => write!(f, "machine fuel exhausted"),
            MachineFault::StackOverflow => write!(f, "machine call depth exceeded"),
            MachineFault::BadDispatch { method } => write!(f, "dispatch of `{method}` failed"),
            MachineFault::NoSuchFunction(n) => write!(f, "no function `{n}`"),
            MachineFault::BadCode {
                function,
                pc,
                detail,
            } => write!(
                f,
                "bad code at .text offset {pc:#x} in {function}: {detail}"
            ),
        }
    }
}

impl std::error::Error for MachineFault {}

/// A typed observable value, compatible with `njc_vm::Value` semantics
/// (compared bit-exactly for floats).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MValue {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Reference address.
    Ref(u64),
}

impl MValue {
    /// Reinterprets a raw 64-bit register or slot as a value of `ty`.
    pub fn from_bits(bits: u64, ty: Type) -> MValue {
        match ty {
            Type::Int => MValue::Int(bits as i64),
            Type::Float => MValue::Float(f64::from_bits(bits)),
            Type::Ref => MValue::Ref(bits),
        }
    }
}

/// The observable outcome of a machine run.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineOutcome {
    /// Return value of the entry function.
    pub result: Option<MValue>,
    /// Escaped exception, if any.
    pub exception: Option<ExceptionKind>,
    /// Observed values, in order.
    pub trace: Vec<MValue>,
    /// Statistics.
    pub stats: MachineStats,
}
