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
    AccessKind, BlockId, CallTarget, ExceptionKind, Function, FunctionId, Inst, Module,
    NullCheckKind, Op, Terminator, Type,
};
use njc_recover::{RecoveryCounts, RecoveryPolicy, RecoveryStrategy, ResumePoint};
use njc_trap::{GuardedMemory, HeapExhausted, MemoryError};

use crate::heap::Heap;
use crate::value::Value;

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
const DENSE_LIMIT: u32 = 1 << 12;

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
/// id and grown on demand (a body swapped in mid-run may have more blocks
/// than tier 0). The trap-path maps, and any index at or past [`DENSE_LIMIT`],
/// stay in `sparse` in their [`SiteCounters`] shape. [`Counters::export`]
/// folds the rows into that shape, omitting zeros, so it builds exactly
/// the maps that bumping them directly would have built.
#[derive(Clone, Debug, Default)]
struct Counters {
    blocks: Vec<Vec<u64>>,
    explicit_checks: Vec<Vec<u64>>,
    check_nulls: Vec<Vec<u64>>,
    sparse: SiteCounters,
}

impl Counters {
    fn count(&mut self, which: Dense, func: u32, index: u32) {
        let (rows, map) = match which {
            Dense::Blocks => (&mut self.blocks, &mut self.sparse.blocks),
            Dense::ExplicitChecks => (&mut self.explicit_checks, &mut self.sparse.explicit_checks),
            Dense::CheckNulls => (&mut self.check_nulls, &mut self.sparse.check_nulls),
        };
        if index >= DENSE_LIMIT {
            *map.entry((func, index)).or_insert(0) += 1;
            return;
        }
        let (f, i) = (func as usize, index as usize);
        if rows.len() <= f {
            rows.resize_with(f + 1, Vec::new);
        }
        let row = &mut rows[f];
        if row.len() <= i {
            row.resize(i + 1, 0);
        }
        row[i] += 1;
    }

    /// Makes `self` equal to `src`, reusing `self`'s allocations: rows are
    /// copied in place, and map entries are overwritten rather than rebuilt.
    fn copy_from(&mut self, src: &Counters) {
        self.blocks.clone_from(&src.blocks);
        self.explicit_checks.clone_from(&src.explicit_checks);
        self.check_nulls.clone_from(&src.check_nulls);
        let (dst, src) = (&mut self.sparse, &src.sparse);
        sync_map(&mut dst.explicit_checks, &src.explicit_checks);
        sync_map(&mut dst.traps, &src.traps);
        sync_map(&mut dst.blocks, &src.blocks);
        sync_map(&mut dst.check_nulls, &src.check_nulls);
        sync_map(&mut dst.trap_slots, &src.trap_slots);
        sync_map(&mut dst.recoveries, &src.recoveries);
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
/// Both directions are cheap for the VM. It reads the swap table through
/// a VM-local cache that it refreshes only when the install version moves,
/// and it publishes by copying its dense counters into a buffer here that
/// keeps its allocations; [`snapshot`] builds the [`SiteCounters`] maps on
/// the controller's side.
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
    /// Calls that entered a swapped body (mid-run tier switches observed).
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
    /// effect *mid-run*, with heap and observation trace carried over.
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

    fn publish(&self, counters: &Counters, calls: u64) {
        let mut p = self.profile.lock().unwrap();
        p.0.copy_from(counters);
        p.1 = calls;
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
    /// legitimately changes this, so equivalence checks must not compare it).
    pub function: String,
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

impl Outcome {
    /// Checks observational equivalence with another outcome (result,
    /// escaped exception, and observation trace — statistics are expected
    /// to differ).
    ///
    /// # Errors
    /// Returns a description of the first difference.
    pub fn assert_equivalent(&self, other: &Outcome) -> Result<(), String> {
        if self.exception != other.exception {
            return Err(format!(
                "exception mismatch: {:?} vs {:?}",
                self.exception, other.exception
            ));
        }
        if self.result != other.result {
            return Err(format!(
                "result mismatch: {:?} vs {:?}",
                self.result, other.result
            ));
        }
        if self.trace != other.trace {
            let i = self
                .trace
                .iter()
                .zip(&other.trace)
                .position(|(a, b)| a != b)
                .unwrap_or(self.trace.len().min(other.trace.len()));
            return Err(format!(
                "trace mismatch at index {i}: {:?} vs {:?} (lengths {} vs {})",
                self.trace.get(i),
                other.trace.get(i),
                self.trace.len(),
                other.trace.len()
            ));
        }
        Ok(())
    }
}

enum BlockExit {
    Jump(BlockId),
    Return(Option<Value>),
    Threw(ExceptionKind),
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

enum CallOutcome {
    Return(Option<Value>),
    Threw(ExceptionKind),
}

/// The interpreter.
#[derive(Debug)]
pub struct Vm<'m> {
    module: &'m Module,
    platform: Platform,
    heap: Heap,
    config: VmConfig,
    stats: RunStats,
    trace: Vec<Value>,
    events: Vec<ExceptionEvent>,
    counters: Counters,
    /// Call frames returned by finished calls, reused by the next ones.
    frames: Vec<Vec<Value>>,
    /// Replacement bodies by function index, as of `swap_version`.
    swap_cache: Vec<Option<Arc<Function>>>,
    /// The hooks' install version `swap_cache` reflects.
    swap_version: u64,
    /// Function currently executing (for site-counter keys).
    cur_func: u32,
    /// Index of the instruction currently executing within its block.
    cur_inst: u32,
    /// Adaptive-runtime control surface (swap table + profile channel).
    hooks: Option<&'m RuntimeHooks>,
    /// Safe points since the last profile publication to `hooks`.
    ticks_since_publish: u64,
    /// Trap-recovery policy; `None` (or an inactive policy) means every
    /// trap aborts, exactly as before the subsystem existed.
    recovery: Option<&'m RecoveryPolicy>,
}

impl<'m> Vm<'m> {
    /// Creates a VM for `module` on `platform` (the platform's trap model
    /// governs the guarded memory).
    pub fn new(module: &'m Module, platform: Platform) -> Self {
        Vm {
            module,
            platform,
            heap: Heap::new(GuardedMemory::new(platform.trap)),
            config: VmConfig::default(),
            stats: RunStats::default(),
            trace: Vec::new(),
            events: Vec::new(),
            counters: Counters::default(),
            frames: Vec::new(),
            swap_cache: Vec::new(),
            swap_version: 0,
            cur_func: 0,
            cur_inst: 0,
            hooks: None,
            ticks_since_publish: 0,
            recovery: None,
        }
    }

    /// Overrides the default limits.
    pub fn with_config(mut self, config: VmConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an adaptive-runtime control surface: swapped bodies take
    /// effect at call entries and the dynamic profile is published through
    /// `hooks` at safe points.
    pub fn with_hooks(mut self, hooks: &'m RuntimeHooks) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Attaches a trap-recovery policy: a null trap at a *registered* site
    /// dispatches its slot's [`RecoveryStrategy`] instead of
    /// unconditionally raising the NPE. Explicit checks, unexpected traps,
    /// and AIX's silent guard-page reads never consult the policy.
    pub fn with_recovery(mut self, policy: &'m RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Runs `entry` with `args` and returns the outcome.
    ///
    /// # Errors
    /// Returns a [`Fault`] for non-Java failures (compiler bugs, fuel,
    /// stack overflow). Java exceptions escaping the entry function are a
    /// *normal* outcome, recorded in [`Outcome::exception`].
    pub fn run(self, entry: &str, args: &[Value]) -> Result<Outcome, Fault> {
        self.on_interp_thread(move |mut vm| {
            let out = vm.run_to_completion(entry, args);
            vm.finish(out)
        })
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
        self,
        function: &str,
        point: ResumePoint,
        mut locals: Vec<Value>,
    ) -> Result<Outcome, Fault> {
        self.on_interp_thread(move |mut vm| {
            let id = vm
                .module
                .function_by_name(function)
                .ok_or_else(|| Fault::NoSuchFunction(function.to_string()))?;
            let func = vm.module.function(id);
            if locals.len() != func.var_types().len() {
                return Err(Self::ill_typed(
                    func,
                    point.block,
                    format!(
                        "resumed frame carries {} locals, `{function}` has {}",
                        locals.len(),
                        func.var_types().len()
                    ),
                ));
            }
            vm.cur_func = id.index() as u32;
            let out = vm.run_frame(func, &mut locals, 0, Some(point));
            vm.finish(out)
        })
    }

    /// Runs `body` on the dedicated interpreter thread. One native frame
    /// per simulated call frame means the stack scales with `max_depth`,
    /// so the thread reserves its own stack instead of inheriting the
    /// caller's (test threads default to 2 MiB, too small for a
    /// `max_depth`-deep recursion of these large frames).
    fn on_interp_thread<F>(self, body: F) -> Result<Outcome, Fault>
    where
        F: FnOnce(Self) -> Result<Outcome, Fault> + Send,
    {
        const INTERP_STACK_BYTES: usize = 32 * 1024 * 1024;
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("njc-vm-interp".to_string())
                .stack_size(INTERP_STACK_BYTES)
                .spawn_scoped(scope, move || body(self))
                .expect("spawn interpreter thread")
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })
    }

    fn finish(self, out: Result<CallOutcome, Fault>) -> Result<Outcome, Fault> {
        if let Some(h) = self.hooks {
            // Final (and on a fault, last-known) profile, then release any
            // controller polling for the end of the run.
            h.publish(&self.counters, self.stats.calls);
            h.set_finished();
        }
        let (result, exception) = match out? {
            CallOutcome::Return(v) => (v, None),
            CallOutcome::Threw(e) => (None, Some(e)),
        };
        Ok(Outcome {
            result,
            exception,
            trace: self.trace,
            events: self.events,
            heap_digest: self.heap.mem.digest(),
            stats: self.stats,
            site_counts: self.counters.export(),
        })
    }

    fn run_to_completion(&mut self, entry: &str, args: &[Value]) -> Result<CallOutcome, Fault> {
        let id = self
            .module
            .function_by_name(entry)
            .ok_or_else(|| Fault::NoSuchFunction(entry.to_string()))?;
        self.call(id, args.len(), args.iter().copied(), 0)
    }

    /// A swap/publish safe point: bumps the tick counter and publishes the
    /// profile every `snapshot_interval` ticks. No-op without hooks.
    fn safe_point(&mut self) {
        let Some(h) = self.hooks else { return };
        self.ticks_since_publish += 1;
        if self.ticks_since_publish >= h.snapshot_interval {
            self.ticks_since_publish = 0;
            h.publish(&self.counters, self.stats.calls);
        }
    }

    /// The replacement body for `id` if the controller installed one. Reads
    /// the VM-local cache, refilled from the swap table only when the
    /// hooks' install version has moved since the last fill.
    fn swapped_body(&mut self, id: FunctionId) -> Option<Arc<Function>> {
        let h = self.hooks?;
        let version = h.version.load(Ordering::Acquire);
        if version != self.swap_version {
            self.swap_version = version;
            for (&index, body) in h.swap.lock().unwrap().iter() {
                let index = index as usize;
                if self.swap_cache.len() <= index {
                    self.swap_cache.resize(index + 1, None);
                }
                self.swap_cache[index] = Some(Arc::clone(body));
            }
        }
        let body = self.swap_cache.get(id.index()).cloned().flatten()?;
        h.swapped_calls.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    fn charge(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Records an exception *origin* (never the unwinding of one already
    /// recorded — the `Call` propagation path does not call this).
    fn raise(&mut self, kind: ExceptionKind, func: &Function, block: BlockId) -> ExceptionKind {
        self.events.push(ExceptionEvent {
            kind,
            at_trace: self.trace.len(),
            function: func.name().to_string(),
            block,
        });
        kind
    }

    /// Structured verdict for an ill-typed operand in an unverified module.
    #[cold]
    fn ill_typed(func: &Function, block: BlockId, detail: impl std::fmt::Display) -> Fault {
        Fault::IllTyped {
            function: func.name().to_string(),
            block,
            detail: detail.to_string(),
        }
    }

    /// Structured verdict for an allocation the heap refused.
    #[cold]
    fn heap_exhausted(func: &Function, e: HeapExhausted) -> Fault {
        Fault::HeapExhausted {
            function: func.name().to_string(),
            requested: e.requested,
        }
    }

    fn fuel(&mut self) -> Result<(), Fault> {
        self.stats.insts += 1;
        if self.stats.insts > self.config.max_insts {
            Err(Fault::OutOfFuel)
        } else {
            Ok(())
        }
    }

    /// Calls `id` with `count` actuals, which are written straight into a
    /// pooled callee frame.
    fn call(
        &mut self,
        id: FunctionId,
        count: usize,
        actuals: impl Iterator<Item = Value>,
        depth: usize,
    ) -> Result<CallOutcome, Fault> {
        let saved = self.cur_func;
        self.cur_func = id.index() as u32;
        let out = self.call_inner(id, count, actuals, depth);
        self.cur_func = saved;
        out
    }

    fn call_inner(
        &mut self,
        id: FunctionId,
        count: usize,
        actuals: impl Iterator<Item = Value>,
        depth: usize,
    ) -> Result<CallOutcome, Fault> {
        if depth > self.config.max_depth {
            return Err(Fault::StackOverflow);
        }
        self.safe_point();
        let swapped = self.swapped_body(id);
        let module = self.module;
        let func: &Function = swapped.as_deref().unwrap_or_else(|| module.function(id));
        // Entry arguments come from outside the program and call sites
        // from unverified modules, so a wrong count is a structured
        // verdict rather than a panic in frame setup.
        if count != func.params().len() {
            return Err(Self::ill_typed(
                func,
                func.entry(),
                format_args!(
                    "arity: `{}` takes {} argument(s), got {count}",
                    func.name(),
                    func.params().len()
                ),
            ));
        }
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        frame.extend(actuals);
        let defaults = func.var_types().iter().skip(count);
        frame.extend(defaults.map(|&t| Value::default_of(t)));
        let out = self.run_frame(func, &mut frame, depth, None);
        self.frames.push(frame);
        out
    }

    /// The frame loop: executes `func` block by block with try-region
    /// dispatch, from its entry — or, for a deoptimized frame, from
    /// `resume`, whose access base is re-checked explicitly before the
    /// access executes.
    fn run_frame(
        &mut self,
        func: &Function,
        locals: &mut [Value],
        depth: usize,
        resume: Option<ResumePoint>,
    ) -> Result<CallOutcome, Fault> {
        let mut block_id = resume.map_or_else(|| func.entry(), |p| p.block);
        let mut resume_at = resume.map(|p| p.inst);
        loop {
            let exit = self.exec_block(func, block_id, locals, depth, resume_at.take())?;
            match exit {
                BlockExit::Jump(next) => block_id = next,
                BlockExit::Return(v) => return Ok(CallOutcome::Return(v)),
                BlockExit::Threw(kind) => {
                    // Try-region dispatch.
                    let region = func.block(block_id).try_region;
                    if let Some(tr) = region {
                        let r = func.try_region(tr);
                        if r.catch.catches(kind) {
                            self.charge(self.platform.cost.throw_dispatch);
                            if let Some(dst) = r.exception_code_dst {
                                locals[dst.index()] = Value::Int(kind.code());
                            }
                            block_id = r.handler;
                            continue;
                        }
                    }
                    return Ok(CallOutcome::Threw(kind));
                }
            }
        }
    }

    /// Executes `block_id`, from its first instruction or from
    /// `resume_at`. A resumed instruction has its access base re-checked
    /// with explicit-check semantics before it executes — the deopt resume
    /// contract (the access trapped in compiled code; the recovery path
    /// re-executes it under an explicit check).
    fn exec_block(
        &mut self,
        func: &Function,
        block_id: BlockId,
        locals: &mut [Value],
        depth: usize,
        resume_at: Option<usize>,
    ) -> Result<BlockExit, Fault> {
        let block = func.block(block_id);
        self.safe_point();
        if self.config.count_sites {
            self.counters
                .count(Dense::Blocks, self.cur_func, block_id.index() as u32);
        }
        for (i, inst) in block.insts.iter().enumerate().skip(resume_at.unwrap_or(0)) {
            self.fuel()?;
            self.cur_inst = i as u32;
            if resume_at == Some(i) {
                let base = inst
                    .slot_access(|f| self.module.field_offset(f))
                    .map(|s| s.base);
                if let Some(base) = base {
                    self.charge(self.platform.cost.explicit_null_check);
                    self.stats.explicit_null_checks += 1;
                    if locals[base.index()].is_null() {
                        self.charge(self.platform.cost.throw_dispatch);
                        self.stats.exceptions_thrown += 1;
                        let kind = self.raise(ExceptionKind::NullPointer, func, block_id);
                        return Ok(BlockExit::Threw(kind));
                    }
                }
            }
            if let Some(kind) = self.exec_inst(func, block_id, inst, locals, depth)? {
                self.stats.exceptions_thrown += 1;
                return Ok(BlockExit::Threw(kind));
            }
        }
        self.fuel()?;
        self.exec_terminator(func, block_id, locals)
    }

    fn exec_terminator(
        &mut self,
        func: &Function,
        block_id: BlockId,
        locals: &mut [Value],
    ) -> Result<BlockExit, Fault> {
        let cost = self.platform.cost;
        match &func.block(block_id).term {
            Terminator::Goto(t) => {
                self.charge(cost.branch);
                self.stats.branches += 1;
                Ok(BlockExit::Jump(*t))
            }
            Terminator::If {
                cond,
                lhs,
                rhs,
                then_bb,
                else_bb,
            } => {
                self.charge(cost.branch);
                self.stats.branches += 1;
                let l = locals[lhs.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let r = locals[rhs.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                Ok(BlockExit::Jump(if cond.eval(l, r) {
                    *then_bb
                } else {
                    *else_bb
                }))
            }
            Terminator::IfNull {
                var,
                on_null,
                on_nonnull,
            } => {
                self.charge(cost.branch);
                self.stats.branches += 1;
                Ok(BlockExit::Jump(if locals[var.index()].is_null() {
                    *on_null
                } else {
                    *on_nonnull
                }))
            }
            Terminator::Return(v) => {
                self.charge(cost.branch);
                Ok(BlockExit::Return(v.map(|v| locals[v.index()])))
            }
            Terminator::Throw(kind) => {
                self.charge(cost.throw_dispatch);
                self.stats.exceptions_thrown += 1;
                let kind = self.raise(*kind, func, block_id);
                Ok(BlockExit::Threw(kind))
            }
        }
    }

    /// Executes one instruction; `Ok(Some(kind))` means it threw.
    fn exec_inst(
        &mut self,
        func: &Function,
        block_id: BlockId,
        inst: &Inst,
        locals: &mut [Value],
        depth: usize,
    ) -> Result<Option<ExceptionKind>, Fault> {
        let cost = self.platform.cost;
        match inst {
            Inst::Const { dst, value } => {
                self.charge(cost.int_alu);
                locals[dst.index()] = match value {
                    njc_ir::ConstValue::Int(v) => Value::Int(*v),
                    njc_ir::ConstValue::Float(v) => Value::Float(*v),
                    njc_ir::ConstValue::Null => Value::Ref(0),
                };
            }
            Inst::Move { dst, src } => {
                self.charge(cost.int_alu);
                locals[dst.index()] = locals[src.index()];
            }
            Inst::BinOp {
                dst,
                op,
                lhs,
                rhs,
                ty,
            } => match ty {
                Type::Int => {
                    let l = locals[lhs.index()]
                        .try_int()
                        .map_err(|e| Self::ill_typed(func, block_id, e))?;
                    let r = locals[rhs.index()]
                        .try_int()
                        .map_err(|e| Self::ill_typed(func, block_id, e))?;
                    let v = match op {
                        Op::Add => {
                            self.charge(cost.int_alu);
                            l.wrapping_add(r)
                        }
                        Op::Sub => {
                            self.charge(cost.int_alu);
                            l.wrapping_sub(r)
                        }
                        Op::Mul => {
                            self.charge(cost.int_mul);
                            l.wrapping_mul(r)
                        }
                        Op::Div | Op::Rem => {
                            self.charge(cost.int_div);
                            if r == 0 {
                                self.charge(cost.throw_dispatch);
                                return Ok(Some(self.raise(
                                    ExceptionKind::Arithmetic,
                                    func,
                                    block_id,
                                )));
                            }
                            if l == i64::MIN && r == -1 {
                                if *op == Op::Div {
                                    l
                                } else {
                                    0
                                }
                            } else if *op == Op::Div {
                                l / r
                            } else {
                                l % r
                            }
                        }
                        Op::And => {
                            self.charge(cost.int_alu);
                            l & r
                        }
                        Op::Or => {
                            self.charge(cost.int_alu);
                            l | r
                        }
                        Op::Xor => {
                            self.charge(cost.int_alu);
                            l ^ r
                        }
                        Op::Shl => {
                            self.charge(cost.int_alu);
                            l.wrapping_shl(r as u32 & 63)
                        }
                        Op::Shr => {
                            self.charge(cost.int_alu);
                            l.wrapping_shr(r as u32 & 63)
                        }
                        Op::Ushr => {
                            self.charge(cost.int_alu);
                            ((l as u64).wrapping_shr(r as u32 & 63)) as i64
                        }
                    };
                    locals[dst.index()] = Value::Int(v);
                }
                Type::Float => {
                    let l = locals[lhs.index()]
                        .try_float()
                        .map_err(|e| Self::ill_typed(func, block_id, e))?;
                    let r = locals[rhs.index()]
                        .try_float()
                        .map_err(|e| Self::ill_typed(func, block_id, e))?;
                    let v = match op {
                        Op::Add => {
                            self.charge(cost.float_alu);
                            l + r
                        }
                        Op::Sub => {
                            self.charge(cost.float_alu);
                            l - r
                        }
                        Op::Mul => {
                            self.charge(cost.float_alu);
                            l * r
                        }
                        Op::Div => {
                            self.charge(cost.float_div);
                            l / r
                        }
                        Op::Rem => {
                            self.charge(cost.float_div);
                            l % r
                        }
                        other => {
                            return Err(Self::ill_typed(
                                func,
                                block_id,
                                format!("operator {other:?} not defined on floats"),
                            ))
                        }
                    };
                    locals[dst.index()] = Value::Float(v);
                }
                Type::Ref => {
                    return Err(Self::ill_typed(
                        func,
                        block_id,
                        "binop over refs is unverifiable".to_string(),
                    ))
                }
            },
            Inst::Neg { dst, src, ty } => {
                self.charge(cost.int_alu);
                locals[dst.index()] = match ty {
                    Type::Int => Value::Int(
                        locals[src.index()]
                            .try_int()
                            .map_err(|e| Self::ill_typed(func, block_id, e))?
                            .wrapping_neg(),
                    ),
                    Type::Float => Value::Float(
                        -locals[src.index()]
                            .try_float()
                            .map_err(|e| Self::ill_typed(func, block_id, e))?,
                    ),
                    Type::Ref => {
                        return Err(Self::ill_typed(func, block_id, "neg over ref".to_string()))
                    }
                };
            }
            Inst::Convert { dst, src, to } => {
                self.charge(cost.float_alu);
                locals[dst.index()] = match (locals[src.index()], to) {
                    (Value::Int(v), Type::Float) => Value::Float(v as f64),
                    (Value::Float(v), Type::Int) => Value::Int(v as i64),
                    (Value::Int(v), Type::Int) => Value::Int(v),
                    (Value::Float(v), Type::Float) => Value::Float(v),
                    (v, _) => {
                        return Err(Self::ill_typed(
                            func,
                            block_id,
                            format!("convert of {v:?} to {to}"),
                        ))
                    }
                };
            }
            Inst::FCmp {
                dst,
                cond,
                lhs,
                rhs,
            } => {
                self.charge(cost.float_alu);
                let l = locals[lhs.index()]
                    .try_float()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let r = locals[rhs.index()]
                    .try_float()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let b = match cond {
                    njc_ir::Cond::Eq => l == r,
                    njc_ir::Cond::Ne => l != r,
                    njc_ir::Cond::Lt => l < r,
                    njc_ir::Cond::Le => l <= r,
                    njc_ir::Cond::Gt => l > r,
                    njc_ir::Cond::Ge => l >= r,
                };
                locals[dst.index()] = Value::Int(b as i64);
            }
            Inst::NullCheck { var, kind, id } => match kind {
                NullCheckKind::Explicit => {
                    self.charge(cost.explicit_null_check);
                    self.stats.explicit_null_checks += 1;
                    if self.config.count_sites {
                        self.counters
                            .count(Dense::ExplicitChecks, self.cur_func, id.0);
                    }
                    if locals[var.index()].is_null() {
                        if self.config.count_sites {
                            self.counters.count(Dense::CheckNulls, self.cur_func, id.0);
                        }
                        self.charge(cost.throw_dispatch);
                        return Ok(Some(self.raise(ExceptionKind::NullPointer, func, block_id)));
                    }
                }
                NullCheckKind::Implicit => {
                    // Documentation-only: the following marked site is the
                    // real check. No code, no cost.
                }
            },
            Inst::BoundCheck { index, length } => {
                self.charge(cost.bound_check);
                self.stats.bound_checks += 1;
                let i = locals[index.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let l = locals[length.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                if i < 0 || i >= l {
                    self.charge(cost.throw_dispatch);
                    return Ok(Some(self.raise(ExceptionKind::ArrayIndex, func, block_id)));
                }
            }
            Inst::GetField {
                dst,
                obj,
                field,
                exception_site,
            } => {
                self.charge(cost.load);
                self.stats.loads += 1;
                if *exception_site {
                    self.stats.implicit_site_hits += 1;
                }
                let base = locals[obj.index()]
                    .try_ref_addr()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let fd = self.module.field_decl(*field);
                let addr = base.wrapping_add(fd.offset);
                match self.mem_read(func, block_id, addr, *exception_site)? {
                    MemAccess::Val(bits) => locals[dst.index()] = Value::from_bits(bits, fd.ty),
                    MemAccess::Threw(kind) => return Ok(Some(kind)),
                    MemAccess::Substitute => locals[dst.index()] = Value::default_of(fd.ty),
                    MemAccess::Skip => {}
                }
            }
            Inst::PutField {
                obj,
                field,
                value,
                exception_site,
            } => {
                self.charge(cost.store);
                self.stats.stores += 1;
                if *exception_site {
                    self.stats.implicit_site_hits += 1;
                }
                let base = locals[obj.index()]
                    .try_ref_addr()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let fd = self.module.field_decl(*field);
                let addr = base.wrapping_add(fd.offset);
                let bits = locals[value.index()].to_bits();
                match self.mem_write(func, block_id, addr, bits, *exception_site)? {
                    // Substitute and Skip agree for a store: the faulting
                    // effect is dropped and execution continues.
                    MemAccess::Val(()) | MemAccess::Substitute | MemAccess::Skip => {}
                    MemAccess::Threw(kind) => return Ok(Some(kind)),
                }
            }
            Inst::ArrayLength {
                dst,
                arr,
                exception_site,
            } => {
                self.charge(cost.load);
                self.stats.loads += 1;
                if *exception_site {
                    self.stats.implicit_site_hits += 1;
                }
                let base = locals[arr.index()]
                    .try_ref_addr()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                match self.mem_read(func, block_id, base, *exception_site)? {
                    MemAccess::Val(bits) => locals[dst.index()] = Value::Int(bits as i64),
                    MemAccess::Threw(kind) => return Ok(Some(kind)),
                    // The null object's length is zero.
                    MemAccess::Substitute => locals[dst.index()] = Value::Int(0),
                    MemAccess::Skip => {}
                }
            }
            Inst::ArrayLoad {
                dst,
                arr,
                index,
                ty,
                exception_site,
            } => {
                self.charge(cost.load);
                self.stats.loads += 1;
                if *exception_site {
                    self.stats.implicit_site_hits += 1;
                }
                let base = locals[arr.index()]
                    .try_ref_addr()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let i = locals[index.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let addr = match self.element_addr(
                    func,
                    block_id,
                    base,
                    i,
                    AccessKind::Read,
                    *exception_site,
                )? {
                    MemAccess::Val(addr) => Some(addr),
                    MemAccess::Threw(kind) => return Ok(Some(kind)),
                    MemAccess::Substitute => {
                        locals[dst.index()] = Value::default_of(*ty);
                        None
                    }
                    MemAccess::Skip => None,
                };
                if let Some(addr) = addr {
                    match self.mem_read(func, block_id, addr, *exception_site)? {
                        MemAccess::Val(bits) => locals[dst.index()] = Value::from_bits(bits, *ty),
                        MemAccess::Threw(kind) => return Ok(Some(kind)),
                        MemAccess::Substitute => locals[dst.index()] = Value::default_of(*ty),
                        MemAccess::Skip => {}
                    }
                }
            }
            Inst::ArrayStore {
                arr,
                index,
                value,
                exception_site,
                ..
            } => {
                self.charge(cost.store);
                self.stats.stores += 1;
                if *exception_site {
                    self.stats.implicit_site_hits += 1;
                }
                let base = locals[arr.index()]
                    .try_ref_addr()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let i = locals[index.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                let addr = match self.element_addr(
                    func,
                    block_id,
                    base,
                    i,
                    AccessKind::Write,
                    *exception_site,
                )? {
                    MemAccess::Val(addr) => Some(addr),
                    MemAccess::Threw(kind) => return Ok(Some(kind)),
                    // Both non-abort verdicts drop the store.
                    MemAccess::Substitute | MemAccess::Skip => None,
                };
                if let Some(addr) = addr {
                    let bits = locals[value.index()].to_bits();
                    match self.mem_write(func, block_id, addr, bits, *exception_site)? {
                        MemAccess::Val(()) | MemAccess::Substitute | MemAccess::Skip => {}
                        MemAccess::Threw(kind) => return Ok(Some(kind)),
                    }
                }
            }
            Inst::New { dst, class } => {
                let slots = Heap::object_slots(self.module, *class);
                self.charge(cost.alloc_base + cost.alloc_per_slot * slots);
                self.stats.allocations += 1;
                let addr = match self.heap.alloc_object(self.module, *class) {
                    Ok(addr) => addr,
                    Err(e) => return Err(Self::heap_exhausted(func, e)),
                };
                locals[dst.index()] = Value::Ref(addr);
            }
            Inst::NewArray { dst, elem, len } => {
                let l = locals[len.index()]
                    .try_int()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                if l < 0 {
                    self.charge(cost.throw_dispatch);
                    return Ok(Some(self.raise(
                        ExceptionKind::NegativeArraySize,
                        func,
                        block_id,
                    )));
                }
                // Allocate before charging: a refused size is never priced
                // (the charge could overflow).
                let addr = match self.heap.alloc_array(*elem, l as u64) {
                    Ok(addr) => addr,
                    Err(e) => return Err(Self::heap_exhausted(func, e)),
                };
                self.charge(cost.alloc_base + cost.alloc_per_slot * l as u64);
                self.stats.allocations += 1;
                locals[dst.index()] = Value::Ref(addr);
            }
            Inst::Call {
                dst,
                target,
                receiver,
                args,
                exception_site,
            } => {
                self.stats.calls += 1;
                let callee = match target {
                    CallTarget::Static(f) | CallTarget::Direct(f) => {
                        self.charge(cost.call_overhead);
                        *f
                    }
                    CallTarget::Virtual { method, .. } => {
                        self.charge(cost.call_overhead + cost.virtual_dispatch);
                        if *exception_site {
                            self.stats.implicit_site_hits += 1;
                        }
                        // Dispatch reads the object header at offset 0.
                        self.stats.loads += 1;
                        let Some(receiver) = receiver else {
                            return Err(Self::ill_typed(
                                func,
                                block_id,
                                format_args!(
                                    "call arity: virtual call of `{method}` has no receiver"
                                ),
                            ));
                        };
                        let base = locals[receiver.index()]
                            .try_ref_addr()
                            .map_err(|e| Self::ill_typed(func, block_id, e))?;
                        match self.mem_read(func, block_id, base, *exception_site)? {
                            MemAccess::Threw(kind) => return Ok(Some(kind)),
                            MemAccess::Substitute => {
                                // The null object's method returns its
                                // result type's default value.
                                if let Some(d) = dst {
                                    locals[d.index()] = Value::default_of(func.var_type(*d));
                                }
                                return Ok(None);
                            }
                            // The call never happens; dst keeps its value.
                            MemAccess::Skip => return Ok(None),
                            MemAccess::Val(bits) => {
                                if bits == 0 {
                                    // A silently-read null method table: the
                                    // jump goes into the weeds.
                                    return Err(Fault::BadDispatch {
                                        method: method.clone(),
                                    });
                                }
                                let class = njc_ir::ClassId::new((bits - 1) as usize);
                                self.module.resolve_virtual(class, method).ok_or_else(|| {
                                    Fault::BadDispatch {
                                        method: method.clone(),
                                    }
                                })?
                            }
                        }
                    }
                };
                let count = usize::from(receiver.is_some()) + args.len();
                let actuals = receiver.iter().chain(args).map(|a| locals[a.index()]);
                match self.call(callee, count, actuals, depth + 1)? {
                    CallOutcome::Return(v) => {
                        if let (Some(d), Some(v)) = (dst, v) {
                            locals[d.index()] = v;
                        }
                    }
                    CallOutcome::Threw(kind) => return Ok(Some(kind)),
                }
            }
            Inst::IntrinsicOp {
                dst,
                intrinsic,
                src,
            } => {
                // §5.4: a hardware instruction on platforms that have it,
                // an out-of-line library routine otherwise.
                self.charge(if self.platform.has_fp_intrinsics {
                    cost.intrinsic
                } else {
                    cost.math_library_call
                });
                let x = locals[src.index()]
                    .try_float()
                    .map_err(|e| Self::ill_typed(func, block_id, e))?;
                locals[dst.index()] = Value::Float(intrinsic.apply(x));
            }
            Inst::Observe { var } => {
                self.charge(cost.observe);
                self.trace.push(locals[var.index()]);
            }
        }
        Ok(None)
    }

    /// Classifies a [`MemoryError`]: a hardware trap at a *marked* site is
    /// the `NullPointerException` the program owed — or, with an active
    /// [`RecoveryPolicy`], the site's recovery verdict; anywhere else it is
    /// a compiler/program bug (`Err(fault)`).
    fn mem_fault<T>(
        &mut self,
        func: &Function,
        block_id: BlockId,
        err: MemoryError,
        site: bool,
    ) -> Result<MemAccess<T>, Fault> {
        match err {
            MemoryError::Trap(_) => {
                self.stats.traps_taken += 1;
                if site {
                    self.charge(self.platform.cost.trap_taken);
                    // Slot provenance of the trapping instruction: counter
                    // key (stable across recompiled tiers) and recovery
                    // policy key alike.
                    let slot = func
                        .block(block_id)
                        .insts
                        .get(self.cur_inst as usize)
                        .and_then(|inst| inst.slot_access(|f| self.module.field_offset(f)));
                    if self.config.count_sites {
                        let sparse = &mut self.counters.sparse;
                        *sparse
                            .traps
                            .entry((self.cur_func, block_id.index() as u32, self.cur_inst))
                            .or_insert(0) += 1;
                        if let Some(sa) = slot {
                            if let Some(off) = sa.offset {
                                *sparse
                                    .trap_slots
                                    .entry((self.cur_func, off, sa.kind))
                                    .or_insert(0) += 1;
                            }
                        }
                    }
                    let strategy = match self.recovery.filter(|p| p.is_active()) {
                        Some(p) => match slot {
                            Some(sa) => p.strategy_for(self.cur_func, sa.offset, sa.kind),
                            None => p.default_strategy(),
                        },
                        None => RecoveryStrategy::Abort,
                    };
                    Ok(self.recover_trap(strategy, func, block_id))
                } else {
                    Err(Fault::UnexpectedTrap {
                        function: func.name().to_string(),
                        block: block_id,
                    })
                }
            }
            MemoryError::WildAccess { address, .. } => Err(Fault::WildAccess {
                function: func.name().to_string(),
                address,
            }),
        }
    }

    /// Applies `strategy` to a trap already attributed to the marked site
    /// at the current instruction. `Abort` raises the NPE exactly as
    /// before recovery existed; the others count a recovery and turn the
    /// trap into the strategy's verdict.
    fn recover_trap<T>(
        &mut self,
        strategy: RecoveryStrategy,
        func: &Function,
        block_id: BlockId,
    ) -> MemAccess<T> {
        if strategy != RecoveryStrategy::Abort {
            self.stats.recoveries.record(strategy);
            if self.config.count_sites {
                *self
                    .counters
                    .sparse
                    .recoveries
                    .entry((self.cur_func, block_id.index() as u32, self.cur_inst))
                    .or_insert(0) += 1;
            }
        }
        match strategy {
            RecoveryStrategy::Abort => {
                MemAccess::Threw(self.raise(ExceptionKind::NullPointer, func, block_id))
            }
            RecoveryStrategy::Strict => {
                // Deoptimize and re-execute under an explicit check: the
                // base is still null, so the recheck throws the same NPE —
                // observationally identical to `Abort`, at the cost of the
                // extra explicit check on the recovery path.
                self.charge(self.platform.cost.explicit_null_check);
                self.stats.explicit_null_checks += 1;
                MemAccess::Threw(self.raise(ExceptionKind::NullPointer, func, block_id))
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
    #[allow(clippy::too_many_arguments)]
    fn element_addr(
        &mut self,
        func: &Function,
        block_id: BlockId,
        base: u64,
        index: i64,
        kind: AccessKind,
        site: bool,
    ) -> Result<MemAccess<u64>, Fault> {
        if self.config.legacy_wrapping_addressing {
            return Ok(MemAccess::Val(Heap::element_addr(base, index)));
        }
        match Heap::element_addr_checked(base, index, kind, &self.platform.trap) {
            Ok(addr) => Ok(MemAccess::Val(addr)),
            Err(err) => self.mem_fault(func, block_id, err, site),
        }
    }

    /// A guarded read; [`MemAccess::Threw`] is a Java exception,
    /// `Err(fault)` a broken program.
    fn mem_read(
        &mut self,
        func: &Function,
        block_id: BlockId,
        addr: u64,
        site: bool,
    ) -> Result<MemAccess<u64>, Fault> {
        match self.heap.mem.read_u64(addr) {
            Ok(out) => {
                if out.from_guard {
                    self.stats.silent_null_reads += 1;
                    if site {
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
            Err(err) => self.mem_fault(func, block_id, err, site),
        }
    }

    fn mem_write(
        &mut self,
        func: &Function,
        block_id: BlockId,
        addr: u64,
        bits: u64,
        site: bool,
    ) -> Result<MemAccess<()>, Fault> {
        match self.heap.mem.write_u64(addr, bits) {
            Ok(()) => {
                // A discarded guard write only happens on models that trap
                // neither reads nor writes; treat like the silent read.
                Ok(MemAccess::Val(()))
            }
            Err(err) => self.mem_fault(func, block_id, err, site),
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
    fn stack_overflow_unwind_returns_every_frame_to_the_pool() {
        let mut m = Module::new("t");
        m.add_function(
            parse_function("func r(v0: int) -> int {\n  locals v1: int\nbb0:\n  v1 = call fn0(v0)\n  return v1\n}").unwrap(),
        );
        m.add_function(parse_function("func id(v0: int) -> int {\nbb0:\n  return v0\n}").unwrap());
        let mut vm = Vm::new(&m, Platform::windows_ia32()).with_config(VmConfig {
            max_depth: 8,
            ..VmConfig::default()
        });
        let err = vm
            .call(FunctionId::new(0), 1, [Value::Int(0)].into_iter(), 0)
            .err();
        assert_eq!(err, Some(Fault::StackOverflow));
        assert_eq!(
            vm.frames.len(),
            9,
            "depths 0..=8 each gave their frame back"
        );
        let out = vm.call(FunctionId::new(1), 1, [Value::Int(7)].into_iter(), 0);
        assert!(matches!(out, Ok(CallOutcome::Return(Some(Value::Int(7))))));
        assert_eq!(vm.frames.len(), 9, "the next call reused a pooled frame");
    }
}
