//! The observable outcome of executing lowered code: the shared result,
//! fault and counter types every machine-code executor reports in.
//!
//! A hardware trap arrives with a faulting PC; the runtime consults the
//! exception site table — a hit raises `NullPointerException` and unwinds
//! through the handler ranges, a miss is a JIT bug
//! ([`MachineFault::UnexpectedTrap`]).

use njc_ir::{AccessKind, CheckId, ExceptionKind, Observation, Value};

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
    /// An allocation the heap refused: its byte size overflows 64 bits or
    /// exceeds the heap ceiling (`njc_trap::HEAP_LIMIT_BYTES`).
    HeapExhausted {
        /// The function executing the allocation service call.
        function: String,
        /// The bytes asked for; `None` when the size overflowed 64 bits.
        requested: Option<u64>,
    },
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
            MachineFault::HeapExhausted {
                function,
                requested,
            } => match requested {
                Some(n) => write!(f, "heap exhausted in {function}: {n} bytes requested"),
                None => write!(f, "heap exhausted in {function}: size overflows 64 bits"),
            },
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

/// The observable outcome of a machine run: the channels the IR
/// interpreter's `Outcome` reports, in the same form.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineOutcome {
    /// Return value of the entry function.
    pub result: Option<Value>,
    /// Escaped exception, if any.
    pub exception: Option<ExceptionKind>,
    /// Observed values, in order.
    pub trace: Vec<Value>,
    /// Every exception raised (caught or not), in order of origin, as
    /// (kind, number of values observed before the raise).
    pub events: Vec<(ExceptionKind, usize)>,
    /// Digest of the final heap (`GuardedMemory::digest`).
    pub heap_digest: u64,
    /// Statistics.
    pub stats: MachineStats,
}

impl<'a> From<&'a MachineOutcome> for Observation<'a> {
    fn from(out: &'a MachineOutcome) -> Self {
        Observation {
            result: out.result,
            exception: out.exception,
            trace: (&out.trace[..]).into(),
            events: (&out.events[..]).into(),
            heap_digest: out.heap_digest,
            missed_npes: out.stats.missed_npes,
        }
    }
}
