//! The costed interpreter.
//!
//! Executes verified IR over the guarded memory, enforcing the Java
//! exception contract the optimizer must preserve:
//!
//! * an **explicit** null check compares and throws (costing the platform's
//!   compare-and-branch or conditional-trap cycles);
//! * a slot access whose base is null computes a real effective address —
//!   if the platform traps it **and the instruction is a marked exception
//!   site**, a `NullPointerException` is raised (at hardware-trap cost);
//!   if the platform traps it and the site is *not* marked, the program
//!   counter was not a known exception site: a real JIT would crash, and
//!   the VM reports [`Fault::UnexpectedTrap`] — a compiler soundness bug;
//! * a silent guard-page read (AIX) returns zero and execution continues —
//!   if the site was marked, the `NullPointerException` the program owed
//!   was **missed**, which the VM counts ([`RunStats::missed_npes`]): that
//!   is precisely the §5.4 "Illegal Implicit" spec violation;
//! * an access that lands outside every allocation is a
//!   [`Fault::WildAccess`] (the real-world consequence of skipping a
//!   "BigOffset" check, Figure 5 (1)).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use njc_arch::Platform;
use njc_ir::{
    AccessKind, BlockId, ClassId, Cond, ExceptionKind, Function, FunctionId, Module, Observation,
    Type, Value, VarId,
};
use njc_recover::{RecoveryCounts, RecoveryPolicy, RecoveryStrategy, ResumePoint};
use njc_trap::{GuardedMemory, HeapExhausted, MemoryError};

use crate::code::{Body, Code, Op, Tally, NONE};
use crate::heap::Heap;

/// Interpreter limits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VmConfig {
    /// Maximum instructions executed before [`Fault::OutOfFuel`].
    pub max_insts: u64,
    /// Maximum call depth before [`Fault::StackOverflow`].
    pub max_depth: usize,
    /// Fault-injection mode: compute array element addresses with the old
    /// wrapping arithmetic instead of the checked form. A huge index can
    /// then wrap the effective address past the guard page and silently
    /// alias mapped memory — the bug class the differential harness exists
    /// to catch. Never enable outside that harness.
    pub legacy_wrapping_addressing: bool,
    /// Collect per-site counters ([`Outcome::site_counts`]): executions of
    /// each explicit check by id, hardware traps by `(block, instruction)`,
    /// and block execution counts. Off by default — perfbench times the
    /// uninstrumented interpreter.
    pub count_sites: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_insts: 200_000_000,
            max_depth: 256,
            legacy_wrapping_addressing: false,
            count_sites: false,
        }
    }
}

/// Per-site dynamic counters, collected when [`VmConfig::count_sites`] is
/// set. Keys are raw indices (function, check id, block, instruction) so the
/// maps stay cheap to build and deterministic to serialize; the observe
/// layer resolves them back to provenance records.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SiteCounters {
    /// Executions of each explicit null check instruction, keyed by
    /// `(function index, check id)`.
    pub explicit_checks: BTreeMap<(u32, u32), u64>,
    /// Hardware traps taken at marked exception sites, keyed by
    /// `(function index, block index, instruction index)`.
    pub traps: BTreeMap<(u32, u32, u32), u64>,
    /// Block executions, keyed by `(function index, block index)`.
    pub blocks: BTreeMap<(u32, u32), u64>,
    /// Nulls *caught* by an explicit check (the check threw), keyed by
    /// `(function index, check id)`. Together with [`trap_slots`] this
    /// gives a body-independent count of null arrivals: once a site is
    /// compiled explicit it stops trapping, so traps alone under-count.
    ///
    /// [`trap_slots`]: SiteCounters::trap_slots
    pub check_nulls: BTreeMap<(u32, u32), u64>,
    /// Hardware traps keyed by *slot* — `(function index, field offset,
    /// access kind)` — instead of body coordinates. Block/instruction
    /// indices shift between compiled tiers of the same function; the slot
    /// key is stable across every tier, which is what lets a cumulative
    /// (timing-independent) profile assessment attribute traps taken under
    /// different installed bodies to the same site.
    pub trap_slots: BTreeMap<(u32, u64, AccessKind), u64>,
    /// Traps *recovered* (any non-abort strategy) at marked sites, keyed
    /// like [`traps`](SiteCounters::traps) by `(function index, block
    /// index, instruction index)`. Every recovered trap is also counted in
    /// `traps`/`trap_slots`, so per site `recovered ≤ traps` — the
    /// conservation check `reconcile()` enforces.
    pub recoveries: BTreeMap<(u32, u32, u32), u64>,
}

/// Indices at or past this count go to the [`SiteCounters`]-shaped map
/// instead of a dense row: parsed IR may carry any check id, the
/// `CheckId::NONE` sentinel (`u32::MAX`) included.
pub(crate) const DENSE_LIMIT: u32 = 1 << 12;

/// Makes `dst` equal to `src` in place. A VM's counter maps only ever gain
/// keys, so once `dst` has caught up with a key set this allocates nothing.
fn sync_map<K: Ord + Copy>(dst: &mut BTreeMap<K, u64>, src: &BTreeMap<K, u64>) {
    for (&k, &n) in src {
        dst.insert(k, n);
    }
    if dst.len() != src.len() {
        dst.retain(|k, _| src.contains_key(k));
    }
}

/// Which dense row set [`Counters::count`] bumps.
#[derive(Clone, Copy)]
enum Dense {
    Blocks,
    ExplicitChecks,
    CheckNulls,
}

/// The VM's live per-site counters. The three bumped on every block or
/// explicit check are dense rows per function, indexed by block or check
/// id and sized when a body of the function is decoded ([`Counters::fit`];
/// a body swapped in mid-run may have more blocks than tier 0). The
/// trap-path maps, and any index at or past [`DENSE_LIMIT`], stay in
/// `sparse` in their [`SiteCounters`] shape. [`Counters::export`] folds
/// the rows into that shape, omitting zeros, so it builds exactly the maps
/// that bumping them directly would have built.
#[derive(Clone, Debug, Default)]
struct Counters {
    blocks: Vec<Vec<u64>>,
    explicit_checks: Vec<Vec<u64>>,
    check_nulls: Vec<Vec<u64>>,
    sparse: SiteCounters,
    /// Whether `sparse` changed since the last [`copy_from`] of these
    /// counters.
    ///
    /// [`copy_from`]: Counters::copy_from
    sparse_changed: bool,
}

impl Counters {
    /// Sizes function `code.func`'s dense rows for the blocks and check
    /// ids of `code`.
    fn fit(&mut self, code: &Code) {
        let f = code.func as usize;
        for (rows, len) in [
            (&mut self.blocks, code.block_rows),
            (&mut self.explicit_checks, code.check_rows),
            (&mut self.check_nulls, code.check_rows),
        ] {
            if rows.len() <= f {
                rows.resize_with(f + 1, Vec::new);
            }
            if rows[f].len() < len as usize {
                rows[f].resize(len as usize, 0);
            }
        }
    }

    fn count(&mut self, which: Dense, func: u32, index: u32) {
        let (rows, map) = match which {
            Dense::Blocks => (&mut self.blocks, &mut self.sparse.blocks),
            Dense::ExplicitChecks => (&mut self.explicit_checks, &mut self.sparse.explicit_checks),
            Dense::CheckNulls => (&mut self.check_nulls, &mut self.sparse.check_nulls),
        };
        if index < DENSE_LIMIT {
            rows[func as usize][index as usize] += 1;
        } else {
            *map.entry((func, index)).or_insert(0) += 1;
            self.sparse_changed = true;
        }
    }

    /// The trap-path maps, for a bump.
    fn sparse_mut(&mut self) -> &mut SiteCounters {
        self.sparse_changed = true;
        &mut self.sparse
    }

    /// Makes `self` equal to `src`, reusing `self`'s allocations: rows are
    /// copied in place, and map entries are overwritten rather than
    /// rebuilt — only when `src`'s maps changed since it was last copied,
    /// so `self` must hold that copy.
    fn copy_from(&mut self, src: &Counters) {
        self.blocks.clone_from(&src.blocks);
        self.explicit_checks.clone_from(&src.explicit_checks);
        self.check_nulls.clone_from(&src.check_nulls);
        if src.sparse_changed {
            let (dst, src) = (&mut self.sparse, &src.sparse);
            sync_map(&mut dst.explicit_checks, &src.explicit_checks);
            sync_map(&mut dst.traps, &src.traps);
            sync_map(&mut dst.blocks, &src.blocks);
            sync_map(&mut dst.check_nulls, &src.check_nulls);
            sync_map(&mut dst.trap_slots, &src.trap_slots);
            sync_map(&mut dst.recoveries, &src.recoveries);
        }
    }

    /// The counters in their public [`SiteCounters`] shape.
    fn export(&self) -> SiteCounters {
        let mut out = self.sparse.clone();
        for (rows, map) in [
            (&self.blocks, &mut out.blocks),
            (&self.explicit_checks, &mut out.explicit_checks),
            (&self.check_nulls, &mut out.check_nulls),
        ] {
            for (f, row) in rows.iter().enumerate() {
                for (i, &n) in row.iter().enumerate() {
                    if n > 0 {
                        map.insert((f as u32, i as u32), n);
                    }
                }
            }
        }
        out
    }
}

/// A point-in-time copy of a running VM's dynamic profile, published by
/// the interpreter at safe points for a controller on another thread.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProfileSnapshot {
    /// Per-site counters as of publication.
    pub counters: SiteCounters,
    /// Calls executed as of publication.
    pub calls: u64,
}

/// Shared control surface between one running [`Vm`] and an adaptive
/// runtime controller on another thread (njc-runtime's tiered loop).
///
/// The VM *reads* the swap table at each call entry — the only safe point
/// at which a replacement body may take effect, because a frame already
/// inside the old body has its program point and locals laid out for it —
/// and *writes* a profile snapshot every `snapshot_interval` safe points
/// (call entries and block executions, so call-free hot loops still
/// publish). The controller does the reverse: it polls [`snapshot`] and
/// [`install`]s recompiled bodies. With no hooks attached the interpreter
/// behaves exactly as before, cycle accounting included.
///
/// Both directions are cheap for the VM. It reads the swap table only
/// when the install version moves, decoding each newly installed body
/// once, and it publishes by copying its dense counters into a buffer here
/// that keeps its allocations; [`snapshot`] builds the [`SiteCounters`]
/// maps on the controller's side.
///
/// [`snapshot`]: RuntimeHooks::snapshot
/// [`install`]: RuntimeHooks::install
#[derive(Debug)]
pub struct RuntimeHooks {
    /// Replacement bodies by function index, consulted at call entry.
    swap: Mutex<HashMap<u32, Arc<Function>>>,
    /// Bumped on every install. The VM takes the lock only when this
    /// differs from the version its body cache was filled at.
    version: AtomicU64,
    /// Latest published counters and call count.
    profile: Mutex<(Counters, u64)>,
    /// Safe points between profile publications.
    snapshot_interval: u64,
    /// Calls that entered a swapped body (mid-run tier switches observed),
    /// as of the latest publication.
    swapped_calls: AtomicU64,
    /// Set when the attached VM's run ends (even on a fault), so poll
    /// loops terminate.
    finished: AtomicBool,
}

impl RuntimeHooks {
    /// Creates a hook set publishing the profile every `snapshot_interval`
    /// safe points (clamped to at least 1).
    pub fn new(snapshot_interval: u64) -> Self {
        RuntimeHooks {
            swap: Mutex::new(HashMap::new()),
            version: AtomicU64::new(0),
            profile: Mutex::new((Counters::default(), 0)),
            snapshot_interval: snapshot_interval.max(1),
            swapped_calls: AtomicU64::new(0),
            finished: AtomicBool::new(false),
        }
    }

    /// Installs a replacement body for the function at `index`. Every call
    /// of that function entered afterwards executes the new body; frames
    /// already inside the old body finish on it.
    pub fn install(&self, index: u32, body: Arc<Function>) {
        self.swap.lock().unwrap().insert(index, body);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Number of [`install`](Self::install) calls so far.
    pub fn installs(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Calls that entered a swapped body — proof that a tier switch took
    /// effect *mid-run*, with heap and observation trace carried over. The
    /// VM counts them locally and adds them here with every profile
    /// publication, so the count is final once [`is_finished`] holds.
    ///
    /// [`is_finished`]: Self::is_finished
    pub fn swapped_calls(&self) -> u64 {
        self.swapped_calls.load(Ordering::Acquire)
    }

    /// The most recent profile the VM published.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let (counters, calls) = self.profile.lock().unwrap().clone();
        ProfileSnapshot {
            counters: counters.export(),
            calls,
        }
    }

    /// Whether the attached VM's run is over (set even when the run
    /// faulted, so controllers never spin on a dead VM).
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    fn publish(&self, counters: &Counters, calls: u64, swapped_calls: u64) {
        let mut p = self.profile.lock().unwrap();
        p.0.copy_from(counters);
        p.1 = calls;
        if swapped_calls != 0 {
            self.swapped_calls
                .fetch_add(swapped_calls, Ordering::Release);
        }
    }

    fn set_finished(&self) {
        self.finished.store(true, Ordering::Release);
    }
}

/// Execution statistics: the raw material of every table in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunStats {
    /// Simulated cycles (per the platform cost model).
    pub cycles: u64,
    /// Instructions executed (terminators included).
    pub insts: u64,
    /// Explicit null check instructions executed.
    pub explicit_null_checks: u64,
    /// Marked exception sites executed (implicit checks performed for free
    /// by the hardware).
    pub implicit_site_hits: u64,
    /// Hardware traps taken (null pointers actually dereferenced).
    pub traps_taken: u64,
    /// NullPointerExceptions that *should* have been thrown but were
    /// silently skipped (AIX reads under the Illegal Implicit
    /// configuration).
    pub missed_npes: u64,
    /// Silent guard-page reads (benign under speculation).
    pub silent_null_reads: u64,
    /// Memory loads executed.
    pub loads: u64,
    /// Memory stores executed.
    pub stores: u64,
    /// Calls executed.
    pub calls: u64,
    /// Objects + arrays allocated.
    pub allocations: u64,
    /// Branches executed.
    pub branches: u64,
    /// Bounds checks executed.
    pub bound_checks: u64,
    /// Exceptions thrown (software or trap).
    pub exceptions_thrown: u64,
    /// Traps recovered per strategy instead of aborting (all zero unless a
    /// [`RecoveryPolicy`] is attached). Recovered traps still count in
    /// [`traps_taken`](RunStats::traps_taken): `traps_taken` splits into
    /// aborted + recovered.
    pub recoveries: RecoveryCounts,
}

/// A non-recoverable execution failure — not a Java exception but a broken
/// program or compiler: these are test failures, never expected outcomes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// A hardware trap at an instruction not marked as an exception site
    /// (the compiler moved or removed a null check unsoundly).
    UnexpectedTrap {
        /// Function where the trap happened.
        function: String,
        /// Block where the trap happened.
        block: BlockId,
    },
    /// An access outside every allocation (e.g. unchecked BigOffset deref).
    WildAccess {
        /// Function where it happened.
        function: String,
        /// The wild address.
        address: u64,
    },
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Call depth exceeded.
    StackOverflow,
    /// Virtual dispatch failed (no such method, or a null method table was
    /// read silently).
    BadDispatch {
        /// The method name.
        method: String,
    },
    /// Entry function not found.
    NoSuchFunction(String),
    /// An allocation the heap refused: its byte size overflows 64 bits or
    /// exceeds the heap ceiling ([`njc_trap::HEAP_LIMIT_BYTES`]). A
    /// resource limit, reported instead of exhausting host memory.
    HeapExhausted {
        /// Function where the allocation executed.
        function: String,
        /// The bytes asked for; `None` when the size overflowed 64 bits.
        requested: Option<u64>,
    },
    /// An instruction's operands do not match its declared type — an
    /// ill-typed (unverified) module. Structured, not a panic, so a hostile
    /// or fuzzer-generated program yields a per-program verdict instead of
    /// killing the harness.
    IllTyped {
        /// Function where the ill-typed instruction executed.
        function: String,
        /// Block where it executed.
        block: BlockId,
        /// What was wrong (e.g. `binop.int over Ref operands`).
        detail: String,
    },
    /// A runtime setting outside its domain, refused before anything is
    /// compiled or run (e.g. a profile-policy ratio that is NaN).
    InvalidSetting {
        /// The setting, e.g. `policy.trap_ratio`.
        setting: &'static str,
        /// Why it was refused.
        detail: String,
    },
}

/// Alias for [`Fault`]: every VM error, including the structured
/// [`Fault::IllTyped`] verdict for unverified modules.
pub type VmError = Fault;

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::UnexpectedTrap { function, block } => {
                write!(f, "unexpected hardware trap in {function}/{block} (unsound null check optimization)")
            }
            Fault::WildAccess { function, address } => {
                write!(f, "wild memory access at {address:#x} in {function}")
            }
            Fault::OutOfFuel => write!(f, "instruction budget exhausted"),
            Fault::StackOverflow => write!(f, "call depth exceeded"),
            Fault::BadDispatch { method } => write!(f, "virtual dispatch of `{method}` failed"),
            Fault::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            Fault::HeapExhausted {
                function,
                requested,
            } => match requested {
                Some(n) => write!(f, "heap exhausted in {function}: {n} bytes requested"),
                None => write!(f, "heap exhausted in {function}: size overflows 64 bits"),
            },
            Fault::IllTyped {
                function,
                block,
                detail,
            } => {
                write!(f, "ill-typed instruction in {function}/{block}: {detail}")
            }
            Fault::InvalidSetting { setting, detail } => {
                write!(f, "invalid setting `{setting}`: {detail}")
            }
        }
    }
}

impl std::error::Error for Fault {}

/// One exception *origin*: recorded where the exception is first raised
/// (explicit check, hardware trap, software throw), not re-recorded as it
/// unwinds or is caught. The program point is the position in the
/// observation stream ([`ExceptionEvent::at_trace`]), which is stable under
/// every sound optimization — block ids are not (loop versioning duplicates
/// blocks; inlining moves code between functions).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExceptionEvent {
    /// What was thrown.
    pub kind: ExceptionKind,
    /// Number of values observed before the throw — the optimization-stable
    /// "program point" of the exception.
    pub at_trace: usize,
    /// Function where the exception originated (diagnostic only: inlining
    /// legitimately changes this, so equivalence checks must not compare
    /// it). An index into the module, the same for every tier of the
    /// function; a reader that displays the event resolves the name with
    /// `module.function(event.function).name()`.
    pub function: FunctionId,
    /// Block where it originated (diagnostic only, see
    /// [`ExceptionEvent::function`]).
    pub block: BlockId,
}

/// The observable outcome of a run: what equivalence checking compares.
///
/// Equality deliberately ignores [`Outcome::site_counts`]: whether the
/// per-site instrumentation was enabled is a property of the *observer*, not
/// of the execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The entry function's return value (`None` for void or when an
    /// exception escaped).
    pub result: Option<Value>,
    /// The exception that escaped the entry function, if any.
    pub exception: Option<ExceptionKind>,
    /// Values observed via `observe` instructions, in order.
    pub trace: Vec<Value>,
    /// Every exception raised (caught or not), in order of origin.
    pub events: Vec<ExceptionEvent>,
    /// Digest of the final heap contents (see `GuardedMemory::digest`).
    /// Comparable across configurations on the *same* platform: allocation
    /// order is preserved by every pass (DCE never removes allocations), so
    /// addresses — and therefore reference-valued slots — are stable.
    pub heap_digest: u64,
    /// Execution statistics.
    pub stats: RunStats,
    /// Per-site counters (empty unless [`VmConfig::count_sites`]).
    pub site_counts: SiteCounters,
}

impl PartialEq for Outcome {
    fn eq(&self, other: &Self) -> bool {
        self.result == other.result
            && self.exception == other.exception
            && self.trace == other.trace
            && self.events == other.events
            && self.heap_digest == other.heap_digest
            && self.stats == other.stats
    }
}

impl<'a> From<&'a Outcome> for Observation<'a> {
    fn from(out: &'a Outcome) -> Self {
        Observation {
            result: out.result,
            exception: out.exception,
            trace: (&out.trace[..]).into(),
            events: out.events.iter().map(|e| (e.kind, e.at_trace)).collect(),
            heap_digest: out.heap_digest,
            missed_npes: out.stats.missed_npes,
        }
    }
}

impl Outcome {
    /// Checks observational equivalence with another outcome on three
    /// [`Observation`] channels: result, escaped exception, and
    /// observation trace (statistics are expected to differ).
    ///
    /// # Errors
    /// The first difference, as [`Observation::mismatch`] renders it.
    pub fn assert_equivalent(&self, other: &Outcome) -> Result<(), String> {
        fn visible(o: &Outcome) -> Observation<'_> {
            Observation {
                result: o.result,
                exception: o.exception,
                trace: (&o.trace[..]).into(),
                ..Observation::default()
            }
        }
        visible(self).mismatch(&visible(other)).map_or(Ok(()), Err)
    }
}

/// Result of a guarded memory operation, after trap classification and
/// recovery dispatch.
enum MemAccess<T> {
    /// The access succeeded.
    Val(T),
    /// A Java exception was raised (abort/strict recovery, or a software
    /// check upstream).
    Threw(ExceptionKind),
    /// `NullObject` recovery: the instruction should yield its typed
    /// default value and continue.
    Substitute,
    /// `SkipEffect` recovery: the instruction is skipped entirely (a load
    /// destination keeps its previous value).
    Skip,
}

/// The memory slot an access op touches, as trap attribution and the
/// recovery policy key it: whether the op is a marked exception site, its
/// static offset from the base (`None` for array elements), and read or
/// write.
#[derive(Clone, Copy)]
struct Slot {
    site: bool,
    offset: Option<u64>,
    kind: AccessKind,
}

impl Slot {
    fn read(site: bool, offset: Option<u64>) -> Slot {
        Slot {
            site,
            offset,
            kind: AccessKind::Read,
        }
    }

    fn write(site: bool, offset: Option<u64>) -> Slot {
        Slot {
            site,
            offset,
            kind: AccessKind::Write,
        }
    }
}

#[derive(Debug)]
enum CallOutcome {
    Return(Option<Value>),
    Threw(ExceptionKind),
}

/// How an op leaves the straight-line path of its frame.
enum Flow {
    /// It raised an exception (or a callee's exception reached it).
    Throw(ExceptionKind),
    /// It calls function `callee` with the `argc` actual slots at `args`
    /// in its body's [`Code::args`]; the result goes to slot `dst`.
    Call {
        callee: u32,
        dst: u32,
        args: u32,
        argc: u32,
    },
    /// Its frame returns.
    Return(Option<Value>),
}

/// One activation on the frame stack.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// The running body, an index into [`Codes::list`].
    code: u32,
    /// Where the activation continues once it is innermost again: saved at
    /// a call, it is the segment header after the call.
    pc: u32,
    /// Start of the activation's locals in [`Vm::locals`].
    base: u32,
    /// The caller's slot for the return value ([`NONE`]: dropped).
    dst: u32,
}

/// The bodies a run has decoded. Append-only for the run, so an index
/// names the same body for as long as any frame runs it.
#[derive(Debug)]
struct Codes<'m> {
    list: Vec<Code<'m>>,
    /// Each module function's decoded body, by function index ([`NONE`]
    /// until its first call).
    module_code: Vec<u32>,
    /// Each swapped function's decoded replacement body, by function index
    /// ([`NONE`]: not swapped), as of `swap_version`.
    swap_code: Vec<u32>,
    /// The hooks' install version `swap_code` reflects.
    swap_version: u64,
}

impl<'m> Codes<'m> {
    fn new(module: &Module) -> Self {
        Codes {
            list: Vec::new(),
            module_code: vec![NONE; module.num_functions()],
            swap_code: Vec::new(),
            swap_version: 0,
        }
    }

    /// Decodes `body` of function `func` for the run of `st`, sizing the
    /// function's counter rows for it, and returns its index.
    fn decode(&mut self, st: &mut State<'m>, func: u32, body: Body<'m>) -> u32 {
        let code = Code::decode(st.module, &st.platform, func, body);
        if st.config.count_sites {
            st.counters.fit(&code);
        }
        self.list.push(code);
        (self.list.len() - 1) as u32
    }

    /// The decoded body of module function `id`, decoding it on first use.
    fn module_body(&mut self, st: &mut State<'m>, id: u32) -> usize {
        match self.module_code[id as usize] {
            NONE => self.decode_module_body(st, id),
            ci => ci as usize,
        }
    }

    #[cold]
    fn decode_module_body(&mut self, st: &mut State<'m>, id: u32) -> usize {
        let body = Body::Module(st.module.function(FunctionId(id)));
        self.module_code[id as usize] = self.decode(st, id, body);
        self.module_code[id as usize] as usize
    }

    /// The body a call of `id` enters: the replacement the controller
    /// installed, if any (counted in `st.swapped_calls`), else the
    /// module's. The swap table is read only when the hooks' install
    /// version has moved, and each installed body is decoded once.
    fn callee(&mut self, st: &mut State<'m>, id: u32) -> usize {
        if let Some(h) = st.hooks {
            let version = h.version.load(Ordering::Acquire);
            if version != self.swap_version {
                self.swap_version = version;
                for (&index, body) in h.swap.lock().unwrap().iter() {
                    let i = index as usize;
                    if self.swap_code.len() <= i {
                        self.swap_code.resize(i + 1, NONE);
                    }
                    let decoded = self.swap_code[i];
                    let same = decoded != NONE
                        && matches!(&self.list[decoded as usize].body,
                                    Body::Swapped(b) if Arc::ptr_eq(b, body));
                    if !same {
                        self.swap_code[i] = self.decode(st, index, Body::Swapped(Arc::clone(body)));
                    }
                }
            }
            match self.swap_code.get(id as usize) {
                Some(&ci) if ci != NONE => {
                    st.swapped_calls += 1;
                    return ci as usize;
                }
                _ => {}
            }
        }
        self.module_body(st, id)
    }
}

/// Everything a run mutates besides its frames: heap, statistics, output
/// and counters, with the settings the ops consult.
#[derive(Debug)]
struct State<'m> {
    module: &'m Module,
    platform: Platform,
    config: VmConfig,
    /// Adaptive-runtime control surface (swap table + profile channel).
    hooks: Option<&'m RuntimeHooks>,
    /// Trap-recovery policy; `None` (or an inactive policy) means every
    /// trap aborts, exactly as before the subsystem existed.
    recovery: Option<&'m RecoveryPolicy>,
    heap: Heap,
    /// The statistics that depend on operands and paths: calls,
    /// allocations, traps, exceptions, and every charge the ops' static
    /// tallies do not cover.
    stats: RunStats,
    /// The ops' static tallies, paid a segment at a time (see
    /// [`crate::code`]); [`Vm::finish`] adds them to `stats`.
    paid: Tally,
    trace: Vec<Value>,
    events: Vec<ExceptionEvent>,
    counters: Counters,
    /// Safe points since the last profile publication to `hooks`.
    ticks_since_publish: u64,
    /// Calls into swapped bodies not yet added to the hooks' count.
    swapped_calls: u64,
}

/// The interpreter.
///
/// Each function body is decoded once per run (`Code`); the run loop
/// steps through the decoded ops on the caller's thread. Calls push a
/// `Frame` record and the callee's locals onto two flat stacks instead of
/// recursing natively, so the host stack a run needs does not depend on
/// its call depth.
#[derive(Debug)]
pub struct Vm<'m> {
    codes: Codes<'m>,
    /// Every activation's locals, innermost last.
    locals: Vec<Value>,
    /// One record per activation, innermost last.
    frames: Vec<Frame>,
    st: State<'m>,
}

/// Structured verdict for an ill-typed operand in an unverified module.
#[cold]
fn ill_typed(code: &Code, pc: usize, detail: impl std::fmt::Display) -> Fault {
    Fault::IllTyped {
        function: code.name().to_string(),
        block: code.block(pc),
        detail: detail.to_string(),
    }
}

/// Structured verdict for an allocation the heap refused.
#[cold]
fn heap_exhausted(code: &Code, e: HeapExhausted) -> Fault {
    Fault::HeapExhausted {
        function: code.name().to_string(),
        requested: e.requested,
    }
}

impl<'m> Vm<'m> {
    /// Creates a VM for `module` on `platform` (the platform's trap model
    /// governs the guarded memory).
    pub fn new(module: &'m Module, platform: Platform) -> Self {
        Vm {
            codes: Codes::new(module),
            locals: Vec::new(),
            frames: Vec::new(),
            st: State {
                module,
                platform,
                config: VmConfig::default(),
                hooks: None,
                recovery: None,
                heap: Heap::new(GuardedMemory::new(platform.trap)),
                stats: RunStats::default(),
                paid: Tally::default(),
                trace: Vec::new(),
                events: Vec::new(),
                counters: Counters {
                    // The first publication copies the maps whatever the
                    // hooks held before.
                    sparse_changed: true,
                    ..Counters::default()
                },
                ticks_since_publish: 0,
                swapped_calls: 0,
            },
        }
    }

    /// Overrides the default limits.
    pub fn with_config(mut self, config: VmConfig) -> Self {
        self.st.config = config;
        self
    }

    /// Attaches an adaptive-runtime control surface: swapped bodies take
    /// effect at call entries and the dynamic profile is published through
    /// `hooks` at safe points.
    pub fn with_hooks(mut self, hooks: &'m RuntimeHooks) -> Self {
        self.st.hooks = Some(hooks);
        self
    }

    /// Attaches a trap-recovery policy: a null trap at a *registered* site
    /// dispatches its slot's [`RecoveryStrategy`] instead of
    /// unconditionally raising the NPE. Explicit checks, unexpected traps,
    /// and AIX's silent guard-page reads never consult the policy.
    pub fn with_recovery(mut self, policy: &'m RecoveryPolicy) -> Self {
        self.st.recovery = Some(policy);
        self
    }

    /// Runs `entry` with `args` and returns the outcome.
    ///
    /// # Errors
    /// Returns a [`Fault`] for non-Java failures (compiler bugs, fuel,
    /// stack overflow). Java exceptions escaping the entry function are a
    /// *normal* outcome, recorded in [`Outcome::exception`].
    pub fn run(mut self, entry: &str, args: &[Value]) -> Result<Outcome, Fault> {
        let out = match self.st.module.function_by_name(entry) {
            Some(id) => self.invoke(id.0, args),
            None => Err(Fault::NoSuchFunction(entry.to_string())),
        };
        self.finish(out)
    }

    /// Resumes a deoptimized frame of `function`: executes from
    /// `point` with the supplied `locals` (typically reconstructed from a
    /// machine frame snapshot via `njc_recover::frame_locals`), after
    /// re-checking the resumed instruction's access base with **explicit**
    /// check semantics — the `Strict` strategy's contract. A null base
    /// raises the NPE at explicit-check cost with ordinary try-region
    /// dispatch; a non-null base re-executes the access and the function
    /// runs to completion from there.
    ///
    /// # Errors
    /// [`Fault::NoSuchFunction`] when `function` is unknown; otherwise as
    /// [`Vm::run`].
    pub fn resume(
        mut self,
        function: &str,
        point: ResumePoint,
        locals: Vec<Value>,
    ) -> Result<Outcome, Fault> {
        let module = self.st.module;
        let id = module
            .function_by_name(function)
            .ok_or_else(|| Fault::NoSuchFunction(function.to_string()))?;
        let func = module.function(id);
        if locals.len() != func.var_types().len() {
            return Err(Fault::IllTyped {
                function: func.name().to_string(),
                block: point.block,
                detail: format!(
                    "resumed frame carries {} locals, `{function}` has {}",
                    locals.len(),
                    func.var_types().len()
                ),
            });
        }
        let out = self.invoke_resumed(id.0, point, locals);
        self.finish(out)
    }

    fn finish(mut self, out: Result<CallOutcome, Fault>) -> Result<Outcome, Fault> {
        if let Some(h) = self.st.hooks {
            // Final (and on a fault, last-known) profile, then release any
            // controller polling for the end of the run.
            self.st.publish(h);
            h.set_finished();
        }
        let (result, exception) = match out? {
            CallOutcome::Return(v) => (v, None),
            CallOutcome::Threw(e) => (None, Some(e)),
        };
        let st = self.st;
        let (mut stats, paid) = (st.stats, st.paid);
        stats.insts += paid.insts;
        stats.cycles += paid.cycles;
        stats.loads += paid.loads;
        stats.stores += paid.stores;
        stats.implicit_site_hits += paid.implicit_site_hits;
        stats.explicit_null_checks += paid.explicit_null_checks;
        stats.bound_checks += paid.bound_checks;
        stats.branches += paid.branches;
        Ok(Outcome {
            result,
            exception,
            trace: st.trace,
            events: st.events,
            heap_digest: st.heap.mem.digest(),
            stats,
            site_counts: st.counters.export(),
        })
    }

    /// Runs function `id` with `args` from an empty frame stack.
    fn invoke(&mut self, id: u32, args: &[Value]) -> Result<CallOutcome, Fault> {
        self.frames.clear();
        self.locals.clear();
        self.locals.extend_from_slice(args);
        self.push_frame(id, args.len(), NONE)?;
        self.exec()
    }

    /// Runs module function `id` from `point` with `locals` as its frame.
    /// The resumed block's entry runs (its safe point and counter), then
    /// the instruction at `point` with its access base re-checked
    /// explicitly — the deopt resume contract: the access trapped in
    /// compiled code, and the recovery path re-executes it under an
    /// explicit check. The run then pays the rest of the segment it
    /// entered and goes on from the instruction.
    fn invoke_resumed(
        &mut self,
        id: u32,
        point: ResumePoint,
        locals: Vec<Value>,
    ) -> Result<CallOutcome, Fault> {
        let ci = self.codes.module_body(&mut self.st, id);
        let code = &self.codes.list[ci];
        let insts = &code.body().block(point.block).insts;
        let inst = point.inst.min(insts.len());
        let pc = code.pc_of(point.block, inst);
        self.locals = locals;
        self.frames.clear();
        self.frames.push(Frame {
            code: ci as u32,
            pc: pc as u32,
            base: 0,
            dst: NONE,
        });
        self.st.safe_point();
        if self.st.config.count_sites {
            self.st
                .counters
                .count(Dense::Blocks, code.func, point.block.0);
        }
        if let Some(resumed) = insts.get(inst) {
            let module = self.st.module;
            if let Some(access) = resumed.slot_access(|f| module.field_offset(f)) {
                // The recheck is part of the resumed instruction, so it
                // needs that instruction's fuel.
                if self.st.paid.insts >= self.st.config.max_insts {
                    return Err(Fault::OutOfFuel);
                }
                self.st.charge(self.st.platform.cost.explicit_null_check);
                self.st.stats.explicit_null_checks += 1;
                if self.locals[access.base.index()].is_null() {
                    self.st.paid.insts += 1;
                    self.st.charge(self.st.platform.cost.throw_dispatch);
                    let kind = self.st.raise(ExceptionKind::NullPointer, code, pc);
                    self.frames[0].pc = pc as u32 + 1;
                    return match self.unwind(kind) {
                        Some(kind) => Ok(CallOutcome::Threw(kind)),
                        None => self.exec(),
                    };
                }
            }
        }
        // `pc - 1` is in the segment: the block's entry or the op before.
        let segment = code.rest[pc - 1];
        if self.st.covers(&segment) {
            self.st.paid += segment;
            self.exec()
        } else {
            self.step()
        }
    }

    /// Opens an activation of function `id` whose `argc` actuals are the
    /// last `argc` locals: the depth check, the call-entry safe point, the
    /// swap check, the arity check, then the typed defaults of the
    /// remaining locals. The callee's result goes to caller slot `dst`.
    fn push_frame(&mut self, id: u32, argc: usize, dst: u32) -> Result<(), Fault> {
        if self.frames.len() > self.st.config.max_depth {
            return Err(Fault::StackOverflow);
        }
        self.st.safe_point();
        let ci = self.codes.callee(&mut self.st, id);
        let code = &self.codes.list[ci];
        // Entry arguments come from outside the program and call sites
        // from unverified modules, so a wrong count is a structured
        // verdict rather than a panic in frame setup.
        if argc != code.params {
            return Err(Fault::IllTyped {
                function: code.name().to_string(),
                block: code.body().entry(),
                detail: format!(
                    "arity: `{}` takes {} argument(s), got {argc}",
                    code.name(),
                    code.params
                ),
            });
        }
        let base = self.locals.len() - argc;
        self.locals
            .extend_from_slice(code.defaults.get(argc..).unwrap_or_default());
        self.frames.push(Frame {
            code: ci as u32,
            pc: code.entry,
            base: base as u32,
            dst,
        });
        Ok(())
    }

    /// Unwinds an exception raised by the op before the innermost
    /// activation's saved pc. Every activation it reaches counts it once
    /// in `exceptions_thrown` — the raising one, and each caller at its
    /// call — and the first enclosing try region that catches it takes it.
    /// Returns the exception if it escapes the outermost activation.
    fn unwind(&mut self, kind: ExceptionKind) -> Option<ExceptionKind> {
        loop {
            self.st.stats.exceptions_thrown += 1;
            let top = self.frames.last_mut().expect("an activation to unwind");
            let code = &self.codes.list[top.code as usize];
            if let Some((handler, dst)) = code.handler(top.pc as usize - 1, kind) {
                self.st.charge(self.st.platform.cost.throw_dispatch);
                if dst != NONE {
                    self.locals[top.base as usize + dst as usize] = Value::Int(kind.code());
                }
                top.pc = handler as u32;
                return None;
            }
            let done = self.frames.pop().expect("the unwound activation");
            self.locals.truncate(done.base as usize);
            if self.frames.is_empty() {
                return Some(kind);
            }
        }
    }

    /// Runs the innermost activation's ops until the outermost activation
    /// returns or an exception escapes it, paying a segment at a time
    /// until the fuel left does not cover one, then op by op.
    fn exec(&mut self) -> Result<CallOutcome, Fault> {
        match self.run_ops::<false>()? {
            Some(out) => Ok(out),
            None => self.step(),
        }
    }

    /// [`Vm::exec`] op by op, from the innermost activation's saved pc.
    fn step(&mut self) -> Result<CallOutcome, Fault> {
        Ok(self
            .run_ops::<true>()?
            .expect("the op-by-op loop runs to the end"))
    }

    /// The run loop. Without `STEP`, a segment header pays its segment, or
    /// saves its successor's pc and returns `None` when the fuel left does
    /// not cover the segment. With `STEP`, headers pay nothing and each op
    /// pays its own tally before it runs, so [`Fault::OutOfFuel`] fires on
    /// exactly the instruction that exceeds the budget.
    fn run_ops<const STEP: bool>(&mut self) -> Result<Option<CallOutcome>, Fault> {
        let mut code: &Code;
        let mut pc: usize;
        let mut base: usize;
        let mut frame: &mut [Value];
        // Switches to the innermost activation: at the start, and after a
        // call, return or unwind changed the stack.
        macro_rules! reload {
            () => {{
                let top = *self.frames.last().expect("an activation to run");
                code = &self.codes.list[top.code as usize];
                pc = top.pc as usize;
                base = top.base as usize;
                frame = &mut self.locals[base..];
            }};
        }
        reload!();
        'run: loop {
            let at = pc;
            let op = code.ops[at];
            pc += 1;
            let st = &mut self.st;
            if STEP && !op.is_header() {
                st.paid += code.rest[at - 1] - code.rest[at];
                if st.paid.insts > st.config.max_insts {
                    return Err(Fault::OutOfFuel);
                }
            }
            let int = move |v: Value| v.try_int().map_err(|e| ill_typed(code, at, e));
            let float = move |v: Value| v.try_float().map_err(|e| ill_typed(code, at, e));
            let addr = move |v: Value| v.try_ref_addr().map_err(|e| ill_typed(code, at, e));
            // The segment header at `at` pays its segment, or hands the
            // rest of the run to the op-by-op loop.
            macro_rules! pay_segment {
                () => {
                    if !STEP {
                        let segment = &code.rest[at];
                        if !st.covers(segment) {
                            self.frames.last_mut().expect("the running activation").pc = pc as u32;
                            return Ok(None);
                        }
                        st.paid += *segment;
                    }
                };
            }
            // One arm per operator: the operands, then the result.
            macro_rules! int_bin {
                ($b:ident, |$l:ident, $r:ident| $v:expr) => {{
                    let $l = int(frame[$b.lhs as usize])?;
                    let $r = int(frame[$b.rhs as usize])?;
                    frame[$b.dst as usize] = Value::Int($v);
                }};
            }
            macro_rules! float_bin {
                ($b:ident, |$l:ident, $r:ident| $v:expr) => {{
                    let $l = float(frame[$b.lhs as usize])?;
                    let $r = float(frame[$b.rhs as usize])?;
                    frame[$b.dst as usize] = Value::Float($v);
                }};
            }
            macro_rules! branch_if {
                ($b:ident, |$l:ident, $r:ident| $c:expr) => {{
                    let $l = int(frame[$b.lhs as usize])?;
                    let $r = int(frame[$b.rhs as usize])?;
                    pc = if $c { $b.then_pc } else { $b.else_pc } as usize;
                }};
            }
            let flow = 'op: {
                match op {
                    Op::Enter { block } => {
                        st.safe_point();
                        if st.config.count_sites {
                            st.counters.count(Dense::Blocks, code.func, block);
                        }
                        pay_segment!();
                    }
                    Op::Seg => pay_segment!(),
                    Op::Nop => {}
                    Op::Const { ty, dst, bits } => frame[dst as usize] = Value::from_bits(bits, ty),
                    Op::Move { dst, src } => frame[dst as usize] = frame[src as usize],
                    Op::AddInt(b) => int_bin!(b, |l, r| l.wrapping_add(r)),
                    Op::SubInt(b) => int_bin!(b, |l, r| l.wrapping_sub(r)),
                    Op::MulInt(b) => int_bin!(b, |l, r| l.wrapping_mul(r)),
                    Op::DivInt(b) | Op::RemInt(b) => {
                        let l = int(frame[b.lhs as usize])?;
                        let r = int(frame[b.rhs as usize])?;
                        if r == 0 {
                            break 'op st.throw(ExceptionKind::Arithmetic, code, at);
                        }
                        // `i64::MIN / -1` wraps to `i64::MIN`, remainder 0.
                        frame[b.dst as usize] = Value::Int(if matches!(op, Op::DivInt(_)) {
                            l.wrapping_div(r)
                        } else {
                            l.wrapping_rem(r)
                        });
                    }
                    Op::AndInt(b) => int_bin!(b, |l, r| l & r),
                    Op::OrInt(b) => int_bin!(b, |l, r| l | r),
                    Op::XorInt(b) => int_bin!(b, |l, r| l ^ r),
                    Op::ShlInt(b) => int_bin!(b, |l, r| l.wrapping_shl(r as u32 & 63)),
                    Op::ShrInt(b) => int_bin!(b, |l, r| l.wrapping_shr(r as u32 & 63)),
                    Op::UshrInt(b) => {
                        int_bin!(b, |l, r| (l as u64).wrapping_shr(r as u32 & 63) as i64)
                    }
                    Op::AddFloat(b) => float_bin!(b, |l, r| l + r),
                    Op::SubFloat(b) => float_bin!(b, |l, r| l - r),
                    Op::MulFloat(b) => float_bin!(b, |l, r| l * r),
                    Op::DivFloat(b) => float_bin!(b, |l, r| l / r),
                    Op::RemFloat(b) => float_bin!(b, |l, r| l % r),
                    Op::BadFloatBin { op, lhs, rhs } => {
                        float(frame[lhs as usize])?;
                        float(frame[rhs as usize])?;
                        return Err(ill_typed(
                            code,
                            at,
                            format_args!("operator {op:?} not defined on floats"),
                        ));
                    }
                    Op::NegInt { dst, src } => {
                        frame[dst as usize] = Value::Int(int(frame[src as usize])?.wrapping_neg());
                    }
                    Op::NegFloat { dst, src } => {
                        frame[dst as usize] = Value::Float(-float(frame[src as usize])?);
                    }
                    Op::Convert { to, dst, src } => {
                        frame[dst as usize] = match (frame[src as usize], to) {
                            (Value::Int(v), Type::Float) => Value::Float(v as f64),
                            (Value::Float(v), Type::Int) => Value::Int(v as i64),
                            (Value::Int(v), Type::Int) => Value::Int(v),
                            (Value::Float(v), Type::Float) => Value::Float(v),
                            (v, _) => {
                                return Err(ill_typed(
                                    code,
                                    at,
                                    format_args!("convert of {v:?} to {to}"),
                                ))
                            }
                        };
                    }
                    Op::FCmp {
                        cond,
                        dst,
                        lhs,
                        rhs,
                    } => {
                        let l = float(frame[lhs as usize])?;
                        let r = float(frame[rhs as usize])?;
                        let b = match cond {
                            Cond::Eq => l == r,
                            Cond::Ne => l != r,
                            Cond::Lt => l < r,
                            Cond::Le => l <= r,
                            Cond::Gt => l > r,
                            Cond::Ge => l >= r,
                        };
                        frame[dst as usize] = Value::Int(b as i64);
                    }
                    Op::NullCheck { var, id } => {
                        if st.config.count_sites {
                            st.counters.count(Dense::ExplicitChecks, code.func, id);
                        }
                        if frame[var as usize].is_null() {
                            if st.config.count_sites {
                                st.counters.count(Dense::CheckNulls, code.func, id);
                            }
                            break 'op st.throw(ExceptionKind::NullPointer, code, at);
                        }
                    }
                    Op::BoundCheck { index, length } => {
                        let i = int(frame[index as usize])?;
                        let l = int(frame[length as usize])?;
                        if i < 0 || i >= l {
                            break 'op st.throw(ExceptionKind::ArrayIndex, code, at);
                        }
                    }
                    Op::GetField {
                        ty,
                        site,
                        dst,
                        obj,
                        offset,
                    } => {
                        let base = addr(frame[obj as usize])?;
                        let slot = Slot::read(site, Some(offset));
                        match st.mem_read(code, at, base.wrapping_add(offset), slot)? {
                            MemAccess::Val(bits) => {
                                frame[dst as usize] = Value::from_bits(bits, ty)
                            }
                            MemAccess::Threw(kind) => break 'op Flow::Throw(kind),
                            MemAccess::Substitute => frame[dst as usize] = Value::default_of(ty),
                            MemAccess::Skip => {}
                        }
                    }
                    Op::PutField {
                        site,
                        obj,
                        value,
                        offset,
                    } => {
                        let base = addr(frame[obj as usize])?;
                        let bits = frame[value as usize].to_bits();
                        let slot = Slot::write(site, Some(offset));
                        match st.mem_write(code, at, base.wrapping_add(offset), bits, slot)? {
                            // Substitute and Skip agree for a store: the
                            // faulting effect is dropped and execution
                            // continues.
                            MemAccess::Val(()) | MemAccess::Substitute | MemAccess::Skip => {}
                            MemAccess::Threw(kind) => break 'op Flow::Throw(kind),
                        }
                    }
                    Op::ArrayLength { site, dst, arr } => {
                        let base = addr(frame[arr as usize])?;
                        match st.mem_read(code, at, base, Slot::read(site, Some(0)))? {
                            MemAccess::Val(bits) => frame[dst as usize] = Value::Int(bits as i64),
                            MemAccess::Threw(kind) => break 'op Flow::Throw(kind),
                            // The null object's length is zero.
                            MemAccess::Substitute => frame[dst as usize] = Value::Int(0),
                            MemAccess::Skip => {}
                        }
                    }
                    Op::ArrayLoad {
                        ty,
                        site,
                        dst,
                        arr,
                        index,
                    } => {
                        let base = addr(frame[arr as usize])?;
                        let i = int(frame[index as usize])?;
                        let slot = Slot::read(site, None);
                        let read = match st.element_addr(code, at, base, i, slot)? {
                            MemAccess::Val(a) => st.mem_read(code, at, a, slot)?,
                            other => other,
                        };
                        match read {
                            MemAccess::Val(bits) => {
                                frame[dst as usize] = Value::from_bits(bits, ty)
                            }
                            MemAccess::Threw(kind) => break 'op Flow::Throw(kind),
                            MemAccess::Substitute => frame[dst as usize] = Value::default_of(ty),
                            MemAccess::Skip => {}
                        }
                    }
                    Op::ArrayStore {
                        site,
                        arr,
                        index,
                        value,
                    } => {
                        let base = addr(frame[arr as usize])?;
                        let i = int(frame[index as usize])?;
                        let slot = Slot::write(site, None);
                        match st.element_addr(code, at, base, i, slot)? {
                            MemAccess::Val(a) => {
                                let bits = frame[value as usize].to_bits();
                                if let MemAccess::Threw(kind) =
                                    st.mem_write(code, at, a, bits, slot)?
                                {
                                    break 'op Flow::Throw(kind);
                                }
                            }
                            MemAccess::Threw(kind) => break 'op Flow::Throw(kind),
                            // Both non-abort verdicts drop the store.
                            MemAccess::Substitute | MemAccess::Skip => {}
                        }
                    }
                    Op::New { dst, class } => {
                        st.stats.allocations += 1;
                        let addr = st
                            .heap
                            .alloc_object(st.module, ClassId(class))
                            .map_err(|e| heap_exhausted(code, e))?;
                        frame[dst as usize] = Value::Ref(addr);
                    }
                    Op::NewArray { elem, dst, len } => {
                        let l = int(frame[len as usize])?;
                        if l < 0 {
                            break 'op st.throw(ExceptionKind::NegativeArraySize, code, at);
                        }
                        // Allocate before charging: a refused size is never
                        // priced (the charge could overflow).
                        let addr = st
                            .heap
                            .alloc_array(elem, l as u64)
                            .map_err(|e| heap_exhausted(code, e))?;
                        let cost = &st.platform.cost;
                        st.charge(cost.alloc_base + cost.alloc_per_slot * l as u64);
                        st.stats.allocations += 1;
                        frame[dst as usize] = Value::Ref(addr);
                    }
                    Op::Call {
                        dst,
                        callee,
                        args,
                        argc,
                    } => {
                        st.stats.calls += 1;
                        break 'op Flow::Call {
                            callee,
                            dst,
                            args,
                            argc,
                        };
                    }
                    Op::CallVirtual {
                        site,
                        recv,
                        dst,
                        method,
                        args,
                        argc,
                    } => {
                        st.stats.calls += 1;
                        let method = &code.methods[method as usize];
                        if !recv {
                            return Err(ill_typed(
                                code,
                                at,
                                format_args!(
                                    "call arity: virtual call of `{method}` has no receiver"
                                ),
                            ));
                        }
                        let receiver = addr(frame[code.args[args as usize] as usize])?;
                        let bits =
                            match st.mem_read(code, at, receiver, Slot::read(site, Some(0)))? {
                                MemAccess::Val(bits) => bits,
                                MemAccess::Threw(kind) => break 'op Flow::Throw(kind),
                                MemAccess::Substitute => {
                                    // The null object's method returns its
                                    // result type's default value.
                                    if dst != NONE {
                                        let ty = code.body().var_type(VarId(dst));
                                        frame[dst as usize] = Value::default_of(ty);
                                    }
                                    continue 'run;
                                }
                                // The call never happens; dst keeps its value.
                                MemAccess::Skip => continue 'run,
                            };
                        let bad = || Fault::BadDispatch {
                            method: method.clone(),
                        };
                        // A silently-read null method table names no
                        // class: the jump goes into the weeds.
                        let class = njc_trap::class_from_header(bits).ok_or_else(bad)?;
                        let callee = st.module.resolve_virtual(class, method).ok_or_else(bad)?;
                        break 'op Flow::Call {
                            callee: callee.0,
                            dst,
                            args,
                            argc,
                        };
                    }
                    Op::Intrinsic { f, dst, src } => {
                        frame[dst as usize] = Value::Float(f.apply(float(frame[src as usize])?));
                    }
                    Op::Observe { var } => st.trace.push(frame[var as usize]),
                    Op::Unverifiable { detail } => return Err(ill_typed(code, at, detail)),
                    Op::Goto { target } => pc = target as usize,
                    Op::IfEq(b) => branch_if!(b, |l, r| l == r),
                    Op::IfNe(b) => branch_if!(b, |l, r| l != r),
                    Op::IfLt(b) => branch_if!(b, |l, r| l < r),
                    Op::IfLe(b) => branch_if!(b, |l, r| l <= r),
                    Op::IfGt(b) => branch_if!(b, |l, r| l > r),
                    Op::IfGe(b) => branch_if!(b, |l, r| l >= r),
                    Op::IfNull {
                        var,
                        on_null,
                        on_nonnull,
                    } => {
                        pc = if frame[var as usize].is_null() {
                            on_null
                        } else {
                            on_nonnull
                        } as usize;
                    }
                    Op::Return { var } => {
                        break 'op Flow::Return((var != NONE).then(|| frame[var as usize]));
                    }
                    Op::Throw { kind } => break 'op Flow::Throw(st.raise(kind, code, at)),
                }
                continue 'run;
            };
            match flow {
                Flow::Call {
                    callee,
                    dst,
                    args,
                    argc,
                } => {
                    let actuals = &code.args[args as usize..(args + argc) as usize];
                    for &a in actuals {
                        let v = self.locals[base + a as usize];
                        self.locals.push(v);
                    }
                    self.frames.last_mut().expect("the caller").pc = pc as u32;
                    self.push_frame(callee, argc as usize, dst)?;
                    reload!();
                }
                Flow::Return(v) => {
                    let done = self.frames.pop().expect("the returning activation");
                    self.locals.truncate(done.base as usize);
                    if self.frames.is_empty() {
                        return Ok(Some(CallOutcome::Return(v)));
                    }
                    reload!();
                    if let (true, Some(v)) = (done.dst != NONE, v) {
                        frame[done.dst as usize] = v;
                    }
                }
                Flow::Throw(kind) => {
                    // The op leaves its segment early: the ops after it
                    // never run. (A call ends its segment, so a callee's
                    // exception reaching a caller refunds nothing.)
                    if !STEP {
                        self.st.paid -= code.rest[at];
                    }
                    self.frames.last_mut().expect("the raising activation").pc = pc as u32;
                    if let Some(kind) = self.unwind(kind) {
                        return Ok(Some(CallOutcome::Threw(kind)));
                    }
                    reload!();
                }
            }
        }
    }
}

impl State<'_> {
    /// Whether the fuel left covers `segment`.
    fn covers(&self, segment: &Tally) -> bool {
        self.paid.insts + segment.insts <= self.config.max_insts
    }

    fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// A swap/publish safe point: bumps the tick counter and publishes the
    /// profile every `snapshot_interval` ticks. No-op without hooks.
    fn safe_point(&mut self) {
        let Some(h) = self.hooks else { return };
        self.ticks_since_publish += 1;
        if self.ticks_since_publish >= h.snapshot_interval {
            self.ticks_since_publish = 0;
            self.publish(h);
        }
    }

    fn publish(&mut self, h: &RuntimeHooks) {
        let swapped = std::mem::take(&mut self.swapped_calls);
        h.publish(&self.counters, self.stats.calls, swapped);
        self.counters.sparse_changed = false;
    }

    /// Records an exception *origin* raised by the op at `pc` (never the
    /// unwinding of one already recorded).
    fn raise(&mut self, kind: ExceptionKind, code: &Code, pc: usize) -> ExceptionKind {
        self.events.push(ExceptionEvent {
            kind,
            at_trace: self.trace.len(),
            function: FunctionId(code.func),
            block: code.block(pc),
        });
        kind
    }

    /// A software check's throw: the dispatch charge, then the origin.
    fn throw(&mut self, kind: ExceptionKind, code: &Code, pc: usize) -> Flow {
        self.charge(self.platform.cost.throw_dispatch);
        Flow::Throw(self.raise(kind, code, pc))
    }

    /// Classifies a [`MemoryError`] of the access op at `pc`: a hardware
    /// trap at a *marked* site is the `NullPointerException` the program
    /// owed — or, with an active [`RecoveryPolicy`], the verdict of the
    /// op's `slot`; anywhere else it is a compiler/program bug
    /// (`Err(fault)`).
    fn mem_fault<T>(
        &mut self,
        code: &Code,
        pc: usize,
        err: MemoryError,
        slot: Slot,
    ) -> Result<MemAccess<T>, Fault> {
        let (block, inst) = code.coords[pc];
        match err {
            MemoryError::Trap(_) => {
                self.stats.traps_taken += 1;
                if !slot.site {
                    return Err(Fault::UnexpectedTrap {
                        function: code.name().to_string(),
                        block,
                    });
                }
                self.charge(self.platform.cost.trap_taken);
                // Counter keys: body coordinates, and the slot (stable
                // across recompiled tiers), which also keys the policy.
                let coords = (code.func, block.0, inst);
                if self.config.count_sites {
                    let sparse = self.counters.sparse_mut();
                    *sparse.traps.entry(coords).or_insert(0) += 1;
                    if let Some(off) = slot.offset {
                        *sparse
                            .trap_slots
                            .entry((code.func, off, slot.kind))
                            .or_insert(0) += 1;
                    }
                }
                let strategy = match self.recovery.filter(|p| p.is_active()) {
                    Some(p) => p.strategy_for(code.func, slot.offset, slot.kind),
                    None => RecoveryStrategy::Abort,
                };
                Ok(self.recover_trap(strategy, code, pc, coords))
            }
            MemoryError::WildAccess { address, .. } => Err(Fault::WildAccess {
                function: code.name().to_string(),
                address,
            }),
        }
    }

    /// Applies `strategy` to a trap already attributed to the marked site
    /// of the op at `pc`, at counter coordinates `coords`. `Abort` raises
    /// the NPE exactly as before recovery existed; the others count a
    /// recovery and turn the trap into the strategy's verdict.
    fn recover_trap<T>(
        &mut self,
        strategy: RecoveryStrategy,
        code: &Code,
        pc: usize,
        coords: (u32, u32, u32),
    ) -> MemAccess<T> {
        if strategy != RecoveryStrategy::Abort {
            self.stats.recoveries.record(strategy);
            if self.config.count_sites {
                *self
                    .counters
                    .sparse_mut()
                    .recoveries
                    .entry(coords)
                    .or_insert(0) += 1;
            }
        }
        match strategy {
            RecoveryStrategy::Abort => {
                MemAccess::Threw(self.raise(ExceptionKind::NullPointer, code, pc))
            }
            RecoveryStrategy::Strict => {
                // Deoptimize and re-execute under an explicit check: the
                // base is still null, so the recheck throws the same NPE —
                // observationally identical to `Abort`, at the cost of the
                // extra explicit check on the recovery path.
                self.charge(self.platform.cost.explicit_null_check);
                self.stats.explicit_null_checks += 1;
                MemAccess::Threw(self.raise(ExceptionKind::NullPointer, code, pc))
            }
            RecoveryStrategy::NullObject => {
                // Materializing the typed default costs one ALU move.
                self.charge(self.platform.cost.int_alu);
                MemAccess::Substitute
            }
            RecoveryStrategy::SkipEffect => MemAccess::Skip,
        }
    }

    /// Array element address under the active addressing mode: checked
    /// arithmetic by default, the legacy wrapping form under the harness's
    /// fault-injection flag. A [`MemAccess::Threw`] is a Java exception (a
    /// null base whose wrapped address the guard page owes a trap).
    fn element_addr(
        &mut self,
        code: &Code,
        pc: usize,
        base: u64,
        index: i64,
        slot: Slot,
    ) -> Result<MemAccess<u64>, Fault> {
        if self.config.legacy_wrapping_addressing {
            return Ok(MemAccess::Val(Heap::element_addr(base, index)));
        }
        match Heap::element_addr_checked(base, index, slot.kind, &self.platform.trap) {
            Ok(addr) => Ok(MemAccess::Val(addr)),
            Err(err) => self.mem_fault(code, pc, err, slot),
        }
    }

    /// A guarded read; [`MemAccess::Threw`] is a Java exception,
    /// `Err(fault)` a broken program.
    fn mem_read(
        &mut self,
        code: &Code,
        pc: usize,
        addr: u64,
        slot: Slot,
    ) -> Result<MemAccess<u64>, Fault> {
        match self.heap.mem.read_u64(addr) {
            Ok(out) => {
                if out.from_guard {
                    self.stats.silent_null_reads += 1;
                    if slot.site {
                        // The hardware was supposed to trap here but this
                        // platform does not trap reads: the NPE is missed.
                        // No trap means no recovery dispatch either — a
                        // silently-read slot never consults the policy.
                        self.stats.missed_npes += 1;
                    }
                    Ok(MemAccess::Val(0))
                } else {
                    Ok(MemAccess::Val(out.value))
                }
            }
            Err(err) => self.mem_fault(code, pc, err, slot),
        }
    }

    fn mem_write(
        &mut self,
        code: &Code,
        pc: usize,
        addr: u64,
        bits: u64,
        slot: Slot,
    ) -> Result<MemAccess<()>, Fault> {
        match self.heap.mem.write_u64(addr, bits) {
            // A discarded guard write only happens on models that trap
            // neither reads nor writes; treat like the silent read.
            Ok(()) => Ok(MemAccess::Val(())),
            Err(err) => self.mem_fault(code, pc, err, slot),
        }
    }
}

/// Convenience: builds a VM and runs `entry`.
///
/// # Errors
/// See [`Vm::run`].
pub fn run_module(
    module: &Module,
    platform: Platform,
    entry: &str,
    args: &[Value],
) -> Result<Outcome, Fault> {
    Vm::new(module, platform).run(entry, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::parse_function;

    #[test]
    fn stack_overflow_leaves_a_reusable_frame_stack() {
        let mut m = Module::new("t");
        m.add_function(
            parse_function("func r(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = call fn0(v0)\n  return v1\n}").unwrap(),
        );
        m.add_function(parse_function("func id(v0: int) -> int {\nbb0:\n  return v0\n}").unwrap());
        let mut vm = Vm::new(&m, Platform::windows_ia32()).with_config(VmConfig {
            max_depth: 8,
            ..VmConfig::default()
        });
        let err = vm.invoke(0, &[Value::Int(0)]).err();
        assert_eq!(err, Some(Fault::StackOverflow));
        assert_eq!(
            vm.frames.len(),
            9,
            "depths 0..=8 were open when the tenth call faulted"
        );
        assert_eq!(
            vm.locals.len(),
            9 * 2 + 1,
            "each frame's two locals, and the refused call's actual"
        );
        let capacity = (vm.frames.capacity(), vm.locals.capacity());
        let out = vm.invoke(1, &[Value::Int(7)]);
        assert!(matches!(out, Ok(CallOutcome::Return(Some(Value::Int(7))))));
        assert!(
            vm.frames.is_empty() && vm.locals.is_empty(),
            "the return popped the only activation"
        );
        assert_eq!(
            (vm.frames.capacity(), vm.locals.capacity()),
            capacity,
            "the next call reused the stacks' allocations"
        );
        assert_eq!(vm.codes.list.len(), 2, "each body was decoded once");
    }
}
