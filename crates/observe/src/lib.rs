//! # njc-observe — optimization provenance & runtime observability
//!
//! The paper's argument is about *where null checks went*: phase 1 hoists
//! them, phase 2 sinks them and converts them to hardware traps. Aggregate
//! counters can say *how many* moved; this crate records *which* check did
//! what, and why:
//!
//! * every null check carries a stable per-function [`CheckId`] (assigned in
//!   block order the moment a function enters the pipeline, so ids are
//!   deterministic at any thread count);
//! * each pass appends structured [`CheckEvent`]s to a [`Recorder`] —
//!   hoisted to which block, removed-redundant justified by which `In_fwd`
//!   fact ([`Redundancy`]), converted implicit under which trap-model rule,
//!   substituted by which later check ([`Cover`]);
//! * the per-function [`Ledger`] asserts the conservation law
//!   `inserted = implicit + explicit + removed + substituted` — every check
//!   ever created is accounted for by exactly one fate;
//! * [`ModuleTrace`] emits the event stream as deterministic JSON (byte
//!   identical across runs and thread counts) and per-pass timings as a
//!   Chrome trace, and renders a check's full life story for `njc explain`;
//! * [`reconcile`] maps every dynamic hardware trap the VM observed back to
//!   the provenance record of the site that took it.
//!
//! The crate depends only on `njc-ir`; passes talk to it through
//! [`Recorder`], the VM through plain `(block, inst)` keys.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub mod json;

pub use json::Json;

use njc_ir::{BlockId, CheckId, FieldId, Function, FunctionId, Inst, VarId};
use njc_recover::RecoveryStrategy;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The interprocedural fact (inferred by `njc-interproc`'s call-graph
/// fixpoint) that made a variable non-null without any intraprocedural
/// evidence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterprocFact {
    /// The variable is a parameter proven non-null at every intra-module
    /// call site of the enclosing function.
    Param {
        /// The parameter variable.
        param: VarId,
        /// How many call sites fed the meet.
        sites: u32,
    },
    /// The variable holds the return value of a callee proven to never
    /// return null. For a virtual site the id is the first implementation
    /// (all of them carry the fact, or the site has none).
    Return {
        /// The (representative) callee.
        callee: FunctionId,
    },
    /// The variable was loaded from a field assigned non-null on every
    /// constructor path and by every store (Hubert-style field fact).
    Field {
        /// The field.
        field: FieldId,
    },
}

/// Why a forward-redundancy pass (phase 1 / Whaley) removed a check: the
/// non-nullness fact that justified the removal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Redundancy {
    /// The variable is non-null in `In_fwd` at block entry (proved along
    /// every incoming path).
    NonNullAtEntry,
    /// An earlier check of the same variable in the same block.
    PriorCheck(CheckId),
    /// The variable was freshly allocated (`new`/`newarray`) in this block.
    Allocation,
    /// An interprocedural fact proved the variable non-null (the check is
    /// dead across call boundaries, not just within the function).
    Interproc(InterprocFact),
    /// The value-numbered analysis (`OptConfig::gvn`) proved the variable's
    /// congruence class non-null — a check, allocation, or assumed fact on
    /// another member of the class (a copy source, a phi input, an earlier
    /// load of the same field) covers this check, which the per-variable
    /// analysis cannot see.
    Gvn {
        /// The lowest-numbered *other* live member of the class at the
        /// kill point (the variable this check rode on), or the checked
        /// variable itself if no other member is still bound.
        representative: VarId,
        /// Members of the congruence class live at the kill point.
        class_size: u32,
    },
}

/// Why phase 2 materialized a pending check as an explicit instruction
/// instead of a trap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExplicitCause {
    /// The next access had an unknown or big offset (Figure 5 (1)): the
    /// trap is not guaranteed, the check must be real.
    Hazard,
    /// A side-effecting barrier (call, store visible to others) forced the
    /// pending check to land before it.
    Barrier,
    /// The checked variable was redefined while the check was pending.
    Overwrite,
    /// Block end, and no successor could take the check (not postponable).
    BlockEnd,
    /// A profile-driven override: the runtime observed this site taking real
    /// hardware traps (each costing `CostModel::trap_taken` cycles) and
    /// recompiled the function with the site's slot key in an
    /// `ExplicitOverride` set, so the trap-guaranteed access was deliberately
    /// treated as a hazard and kept behind an explicit check.
    Override,
}

/// What covers a check that phase 2's substitution removed (§4.2's
/// "substitutable test elimination").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cover {
    /// A later explicit check of the same variable.
    Check(CheckId),
    /// A later trap-guaranteed access of the same variable (the hardware
    /// performs the check for free).
    TrapSite {
        /// Block containing the covering access.
        block: BlockId,
    },
    /// Coverage proved across the block boundary by the backward
    /// substitution dataflow (`out` of the block).
    CrossBlock,
}

/// One structured provenance event. The stream for a function, in order, is
/// the complete life story of its null checks.
#[derive(Clone, PartialEq, Debug)]
pub enum CheckEvent {
    /// The check existed when the function entered the pipeline (after
    /// inlining): the insertion point the bytecode implied.
    Origin {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block holding the check.
        block: BlockId,
    },
    /// Phase 1 backward motion inserted a check at this block's *earliest*
    /// point (the hoist destination; paper §4.1).
    Phase1Inserted {
        /// Check identity (fresh).
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block whose exit received the check.
        block: BlockId,
    },
    /// Phase 1's forward pass removed a redundant check.
    Phase1Eliminated {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block it was removed from.
        block: BlockId,
        /// The `In_fwd` fact that justified the removal.
        why: Redundancy,
    },
    /// Whaley's forward-only elimination removed a redundant check.
    WhaleyEliminated {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block it was removed from.
        block: BlockId,
        /// The justifying fact.
        why: Redundancy,
    },
    /// The trivial (Jalapeño/LaTTe-style) conversion turned an explicit
    /// check into a marked trap site.
    TrivialConverted {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block holding check and access.
        block: BlockId,
        /// Ordinal of the covering access among the block's trap-qualifying
        /// accesses (stable under later instruction removal).
        site_ordinal: usize,
    },
    /// Phase 2's forward rewrite picked the check up (it becomes *pending*
    /// and sinks toward the next access; paper §4.2).
    Phase2Absorbed {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block it was absorbed in.
        block: BlockId,
    },
    /// An absorbed check found the same variable already pending: the two
    /// merged (one fate serves both obligations).
    Phase2Merged {
        /// The dying check.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block of the merge.
        block: BlockId,
        /// The surviving pending check.
        into: CheckId,
    },
    /// A pending fact arrived at this block's entry (`In_fwd`): the
    /// obligation postponed by the predecessors respawns here as a fresh
    /// check identity.
    Phase2Respawn {
        /// Fresh identity of the respawned obligation.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block whose entry received the fact.
        block: BlockId,
    },
    /// A pending check reached a trap-guaranteed access and became
    /// implicit: the hardware performs it for free.
    Phase2Converted {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block of the conversion.
        block: BlockId,
        /// Ordinal of the access among the block's trap-qualifying
        /// accesses.
        site_ordinal: usize,
        /// The trap-model rule that made the conversion legal (access kind,
        /// offset, and the model's verdict).
        rule: String,
    },
    /// A pending check was materialized as an explicit instruction.
    Phase2Explicit {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block it landed in.
        block: BlockId,
        /// Why it could not become a trap.
        cause: ExplicitCause,
    },
    /// A pending check reached block end and every successor can take it:
    /// the obligation is postponed (successor entries respawn it).
    Phase2Postponed {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block whose exit postponed it.
        block: BlockId,
    },
    /// Phase 2's backward pass removed an explicit check because a later
    /// check or trap covers it.
    Phase2Substituted {
        /// Check identity.
        id: CheckId,
        /// Checked variable.
        var: VarId,
        /// Block it was removed from.
        block: BlockId,
        /// What performs the check instead.
        by: Cover,
    },
    /// The recovery subsystem intercepted hardware traps at this check's
    /// implicit site at *run time* and dispatched a non-abort
    /// [`RecoveryStrategy`]. Unlike every other variant this event is
    /// dynamic — it is appended after execution by reconciliation (see
    /// [`recovery_event`]), extending the check's compile-time life story
    /// with what the trap handler actually did. Recovered traps still
    /// count as traps; the dynamic conservation law
    /// `traps = aborted + recovered` is enforced by
    /// [`reconcile_recovered`].
    Recovery {
        /// The check whose implicit site trapped.
        id: CheckId,
        /// The strategy the handler dispatched (never
        /// [`RecoveryStrategy::Abort`]; aborts are the pre-existing
        /// unwind path, not recoveries).
        strategy: RecoveryStrategy,
        /// How many traps at the site were recovered this way.
        count: u64,
    },
    /// A pass outside the four null check passes changed the number of
    /// checks in the stream (loop versioning duplicates blocks, DCE may
    /// drop unreachable ones). Positive `delta` counts as insertions,
    /// negative as removals in the ledger.
    PassDelta {
        /// The pass name ("versioning", "cleanup", ...).
        pass: &'static str,
        /// Signed change in check count.
        delta: i64,
    },
}

// ---------------------------------------------------------------------------
// Site map
// ---------------------------------------------------------------------------

/// Why a final-IR instruction is a marked exception site.
#[derive(Clone, PartialEq, Debug)]
pub enum SiteProvenance {
    /// Phase 2 sank this check onto the access.
    Converted(CheckId),
    /// The trivial conversion sank this check onto the access.
    Trivial(CheckId),
    /// The site was over-marked for soundness (a dominating check or trap
    /// already guarantees non-nullness; marking is conservative).
    OverMark,
}

/// One marked exception site in the *final* IR, mapped back to the check
/// that justified the marking. The VM keys dynamic traps by
/// `(block, inst)`, which resolves here.
#[derive(Clone, PartialEq, Debug)]
pub struct SiteRecord {
    /// Block of the access.
    pub block: BlockId,
    /// Instruction index within the block, in the final IR.
    pub inst_idx: usize,
    /// The dereferenced variable.
    pub var: VarId,
    /// Why the site is marked.
    pub provenance: SiteProvenance,
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Collects provenance for one function as it moves through the pipeline.
///
/// Id allocation always runs (ids live in the IR and must not depend on
/// whether tracing is on); event collection is skipped when disabled, so
/// the untraced pipeline pays nothing but the id writes.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    next_id: u32,
    /// The event stream, in pipeline order.
    pub events: Vec<CheckEvent>,
    /// The final-IR exception site map (filled after the last null pass).
    pub sites: Vec<SiteRecord>,
}

impl Recorder {
    /// A recorder that allocates ids but records nothing.
    pub fn disabled() -> Self {
        Recorder::new(false)
    }

    /// Creates a recorder; `enabled` controls event collection only.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            next_id: 0,
            events: Vec::new(),
            sites: Vec::new(),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// How many check ids have been drawn so far.
    pub fn issued(&self) -> u32 {
        self.next_id
    }

    /// A recorder that continues this one's id sequence with an empty
    /// event stream: what a pass would draw and record next, observed
    /// without touching this recorder.
    pub fn fork(&self) -> Recorder {
        Recorder {
            next_id: self.next_id,
            ..Recorder::new(self.enabled)
        }
    }

    /// Allocates a fresh check id (always, enabled or not).
    pub fn fresh(&mut self) -> CheckId {
        let id = CheckId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, event: CheckEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Assigns ids to every unassigned check of `func` in block order and
    /// records an [`CheckEvent::Origin`] for *every* check present. Call
    /// once, when the function enters the pipeline.
    pub fn assign_origins(&mut self, func: &mut Function) {
        let nblocks = func.num_blocks();
        let mut origins = Vec::new();
        for bi in 0..nblocks {
            let bid = BlockId::new(bi);
            for inst in func.insts_mut(bid) {
                if let Inst::NullCheck { var, id, .. } = inst {
                    if !id.is_some() {
                        *id = CheckId(self.next_id);
                        self.next_id += 1;
                    } else if id.0 >= self.next_id {
                        self.next_id = id.0 + 1;
                    }
                    origins.push((*id, *var, bid));
                }
            }
        }
        if self.enabled {
            for (id, var, block) in origins {
                self.events.push(CheckEvent::Origin { id, var, block });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

/// The conservation ledger for one function:
///
/// ```text
/// inserted = implicit + explicit + removed + substituted
/// ```
///
/// where `inserted` counts every check identity ever created (bytecode
/// origins, phase 1 insertions, phase 2 respawned obligations, and net
/// insertions by other passes such as loop versioning's block duplication),
/// and the right-hand side is the partition of fates: converted to a trap,
/// left explicit in the final IR, removed (redundant / merged / postponed),
/// or substituted by a later check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Ledger {
    /// Checks present when the function entered the pipeline.
    pub origins: u64,
    /// Checks inserted by phase 1 backward motion.
    pub phase1_inserted: u64,
    /// Obligations respawned at block entries by phase 2 (`In_fwd` facts).
    pub respawned: u64,
    /// Net checks added by passes outside the null check passes.
    pub other_inserted: u64,
    /// Checks converted to hardware traps (phase 2 + trivial).
    pub converted_implicit: u64,
    /// Explicit checks remaining in the final IR.
    pub explicit_final: u64,
    /// Checks phase 1 removed as redundant.
    pub phase1_eliminated: u64,
    /// Checks Whaley's pass removed as redundant.
    pub whaley_eliminated: u64,
    /// Checks that merged into an already-pending obligation (phase 2).
    pub merged: u64,
    /// Obligations postponed to successors at block exits (phase 2).
    pub postponed: u64,
    /// Net checks removed by passes outside the null check passes.
    pub other_removed: u64,
    /// Explicit checks removed by phase 2's substitution.
    pub substituted: u64,
}

impl Ledger {
    /// Total check identities created.
    pub fn inserted(&self) -> u64 {
        self.origins + self.phase1_inserted + self.respawned + self.other_inserted
    }

    /// Total checks that died without generating code.
    pub fn removed(&self) -> u64 {
        self.phase1_eliminated
            + self.whaley_eliminated
            + self.merged
            + self.postponed
            + self.other_removed
    }

    /// Checks performed by the hardware for free.
    pub fn implicit(&self) -> u64 {
        self.converted_implicit
    }

    /// Asserts the conservation law.
    ///
    /// # Errors
    /// Returns both sides and every component when the ledger does not
    /// balance.
    pub fn check(&self) -> Result<(), String> {
        let lhs = self.inserted();
        let rhs = self.implicit() + self.explicit_final + self.removed() + self.substituted;
        if lhs == rhs {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: inserted {lhs} != implicit {} + explicit {} + removed {} \
                 + substituted {} = {rhs} ({self:?})",
                self.implicit(),
                self.explicit_final,
                self.removed(),
                self.substituted,
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// Provenance for one function: the event stream, the final site map, and
/// the balanced ledger.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FunctionTrace {
    /// Function name.
    pub function: String,
    /// Events in pipeline order.
    pub events: Vec<CheckEvent>,
    /// Final-IR exception sites.
    pub sites: Vec<SiteRecord>,
    /// The conservation ledger.
    pub ledger: Ledger,
}

/// Provenance for a whole module, in function-index order (deterministic at
/// any thread count).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ModuleTrace {
    /// Configuration name the module was optimized under.
    pub config: String,
    /// Platform name.
    pub platform: String,
    /// Per-function traces, in function-index order.
    pub functions: Vec<FunctionTrace>,
}

fn redundancy_json(why: &Redundancy) -> Json {
    match why {
        Redundancy::NonNullAtEntry => json_obj! {"fact": "nonnull-at-entry"},
        Redundancy::PriorCheck(id) => json_obj! {"fact": "prior-check", "check": id.0},
        Redundancy::Allocation => json_obj! {"fact": "allocation"},
        Redundancy::Interproc(InterprocFact::Param { param, sites }) => {
            json_obj! {"fact": "interproc-param", "param": param.0, "sites": *sites}
        }
        Redundancy::Interproc(InterprocFact::Return { callee }) => {
            json_obj! {"fact": "interproc-return", "callee": callee.0}
        }
        Redundancy::Interproc(InterprocFact::Field { field }) => {
            json_obj! {"fact": "interproc-field", "field": field.0}
        }
        Redundancy::Gvn {
            representative,
            class_size,
        } => {
            json_obj! {"fact": "gvn", "representative": representative.0, "class_size": *class_size}
        }
    }
}

impl From<&CheckEvent> for Json {
    fn from(e: &CheckEvent) -> Json {
        let at = |ev: &str, id: &CheckId, var: &VarId, block: &BlockId| {
            json_obj! {"ev": ev, "id": id.0, "var": var.0, "block": block.0}
        };
        match e {
            CheckEvent::Origin { id, var, block } => at("origin", id, var, block),
            CheckEvent::Phase1Inserted { id, var, block } => at("phase1-inserted", id, var, block),
            CheckEvent::Phase1Eliminated {
                id,
                var,
                block,
                why,
            } => at("phase1-eliminated", id, var, block).with("why", redundancy_json(why)),
            CheckEvent::WhaleyEliminated {
                id,
                var,
                block,
                why,
            } => at("whaley-eliminated", id, var, block).with("why", redundancy_json(why)),
            CheckEvent::TrivialConverted {
                id,
                var,
                block,
                site_ordinal,
            } => at("trivial-converted", id, var, block).with("site", *site_ordinal),
            CheckEvent::Phase2Absorbed { id, var, block } => at("phase2-absorbed", id, var, block),
            CheckEvent::Phase2Merged {
                id,
                var,
                block,
                into,
            } => at("phase2-merged", id, var, block).with("into", into.0),
            CheckEvent::Phase2Respawn { id, var, block } => at("phase2-respawn", id, var, block),
            CheckEvent::Phase2Converted {
                id,
                var,
                block,
                site_ordinal,
                rule,
            } => at("phase2-converted", id, var, block)
                .with("site", *site_ordinal)
                .with("rule", rule),
            CheckEvent::Phase2Explicit {
                id,
                var,
                block,
                cause,
            } => {
                let cause = match cause {
                    ExplicitCause::Hazard => "hazard",
                    ExplicitCause::Barrier => "barrier",
                    ExplicitCause::Overwrite => "overwrite",
                    ExplicitCause::BlockEnd => "block-end",
                    ExplicitCause::Override => "override",
                };
                at("phase2-explicit", id, var, block).with("cause", cause)
            }
            CheckEvent::Phase2Postponed { id, var, block } => {
                at("phase2-postponed", id, var, block)
            }
            CheckEvent::Phase2Substituted { id, var, block, by } => {
                let by = match by {
                    Cover::Check(c) => json_obj! {"kind": "check", "check": c.0},
                    Cover::TrapSite { block } => json_obj! {"kind": "trap-site", "block": block.0},
                    Cover::CrossBlock => json_obj! {"kind": "cross-block"},
                };
                at("phase2-substituted", id, var, block).with("by", by)
            }
            CheckEvent::Recovery {
                id,
                strategy,
                count,
            } => {
                json_obj! {"ev": "recovery", "id": id.0, "strategy": strategy.as_str(), "count": *count}
            }
            CheckEvent::PassDelta { pass, delta } => {
                json_obj! {"ev": "pass-delta", "pass": *pass, "delta": *delta}
            }
        }
    }
}

impl CheckEvent {
    /// One-object JSON encoding (stable field order; no timestamps, so the
    /// stream is byte-identical across runs and thread counts).
    pub fn to_json(&self) -> String {
        Json::from(self).compact()
    }

    /// The check id this event is about, if any.
    pub fn check_id(&self) -> Option<CheckId> {
        match self {
            CheckEvent::Origin { id, .. }
            | CheckEvent::Phase1Inserted { id, .. }
            | CheckEvent::Phase1Eliminated { id, .. }
            | CheckEvent::WhaleyEliminated { id, .. }
            | CheckEvent::TrivialConverted { id, .. }
            | CheckEvent::Phase2Absorbed { id, .. }
            | CheckEvent::Phase2Merged { id, .. }
            | CheckEvent::Phase2Respawn { id, .. }
            | CheckEvent::Phase2Converted { id, .. }
            | CheckEvent::Phase2Explicit { id, .. }
            | CheckEvent::Phase2Postponed { id, .. }
            | CheckEvent::Phase2Substituted { id, .. }
            | CheckEvent::Recovery { id, .. } => Some(*id),
            CheckEvent::PassDelta { .. } => None,
        }
    }

    /// One human-readable story line for `njc explain`.
    pub fn describe(&self) -> String {
        match self {
            CheckEvent::Origin { var, block, .. } => {
                format!("born in {block}: the bytecode requires {var} checked here")
            }
            CheckEvent::Phase1Inserted { var, block, .. } => format!(
                "inserted at the exit of {block} by phase 1 backward motion (the earliest point \
                 every use of {var} passes through)"
            ),
            CheckEvent::Phase1Eliminated { var, block, why, .. } => format!(
                "eliminated as redundant in {block} by phase 1: {}",
                describe_redundancy(var, why)
            ),
            CheckEvent::WhaleyEliminated { var, block, why, .. } => format!(
                "eliminated as redundant in {block} by the forward (Whaley) pass: {}",
                describe_redundancy(var, why)
            ),
            CheckEvent::TrivialConverted { block, site_ordinal, .. } => format!(
                "converted to an implicit trap by the trivial conversion: access #{site_ordinal} \
                 in {block} is marked as the exception site"
            ),
            CheckEvent::Phase2Absorbed { var, block, .. } => format!(
                "absorbed by phase 2 in {block}: {var}'s obligation is now pending and sinking \
                 toward the next access"
            ),
            CheckEvent::Phase2Merged { var, block, into, .. } => format!(
                "merged in {block}: {var} was already pending as check {into}, one fate serves both"
            ),
            CheckEvent::Phase2Respawn { var, block, .. } => format!(
                "respawned at the entry of {block}: every predecessor postponed {var}'s obligation \
                 to here (In_fwd fact)"
            ),
            CheckEvent::Phase2Converted {
                block,
                site_ordinal,
                rule,
                ..
            } => format!(
                "converted to an implicit hardware trap in {block} at access #{site_ordinal}: {rule}"
            ),
            CheckEvent::Phase2Explicit { var, block, cause, .. } => format!(
                "materialized as an explicit check in {block}: {}",
                match cause {
                    ExplicitCause::Hazard =>
                        "the next access has an unknown or big offset, the trap is not guaranteed",
                    ExplicitCause::Barrier =>
                        "a side-effecting barrier forced the pending check to land first",
                    ExplicitCause::Overwrite => {
                        let _ = var;
                        "the checked variable is redefined, the obligation must land before"
                    }
                    ExplicitCause::BlockEnd =>
                        "block end, and a successor cannot take the obligation",
                    ExplicitCause::Override =>
                        "the profiler observed this site trapping at run time; a \
                         profile override keeps the check explicit",
                }
            ),
            CheckEvent::Phase2Postponed { var, block, .. } => format!(
                "postponed at the exit of {block}: every successor can take {var}'s obligation"
            ),
            CheckEvent::Phase2Substituted { var, block, by, .. } => format!(
                "removed by substitution in {block}: {}",
                match by {
                    Cover::Check(c) => format!("later check {c} of {var} covers it"),
                    Cover::TrapSite { block } => format!(
                        "a later trap-guaranteed access of {var} in {block} performs the check \
                         for free"
                    ),
                    Cover::CrossBlock => format!(
                        "every path from here reaches a covering check or trap of {var} \
                         (backward dataflow)"
                    ),
                }
            ),
            CheckEvent::Recovery {
                strategy, count, ..
            } => format!(
                "recovered at run time: {count} hardware trap{} at this check's implicit site \
                 {}",
                if *count == 1 { "" } else { "s" },
                match strategy {
                    RecoveryStrategy::Abort =>
                        "aborted to the unwinder (not a recovery)".to_string(),
                    RecoveryStrategy::Strict =>
                        "deoptimized the frame and re-executed under an explicit check, \
                         re-raising the same NPE (strict)"
                            .to_string(),
                    RecoveryStrategy::NullObject =>
                        "substituted the typed default and continued (nullobject)".to_string(),
                    RecoveryStrategy::SkipEffect =>
                        "skipped the faulting effect and continued (skipeffect)".to_string(),
                }
            ),
            CheckEvent::PassDelta { pass, delta } => {
                format!("pass `{pass}` changed the check population by {delta:+}")
            }
        }
    }
}

fn describe_redundancy(var: &VarId, why: &Redundancy) -> String {
    match why {
        Redundancy::NonNullAtEntry => {
            format!("{var} is non-null on every path reaching the block (In_fwd fact at entry)")
        }
        Redundancy::PriorCheck(id) => format!("check {id} already covers {var} in this block"),
        Redundancy::Allocation => format!("{var} was freshly allocated in this block"),
        Redundancy::Interproc(fact) => match fact {
            InterprocFact::Param { param, sites } => format!(
                "param {param} proven non-null at all {sites} call sites \
                 (interprocedural fixpoint)"
            ),
            InterprocFact::Return { callee } => format!(
                "{var} is returned by {callee}, which provably never returns null \
                 (interprocedural fixpoint)"
            ),
            InterprocFact::Field { field } => format!(
                "{var} was loaded from {field}, assigned non-null on every constructor \
                 path (interprocedural fixpoint)"
            ),
        },
        Redundancy::Gvn {
            representative,
            class_size,
        } => format!(
            "{var}'s congruence class is non-null — proven via {representative} \
             ({class_size} live member{} share the value number)",
            if *class_size == 1 { "" } else { "s" }
        ),
    }
}

impl FunctionTrace {
    /// Events concerning `id`, in order.
    pub fn events_for(&self, id: CheckId) -> Vec<&CheckEvent> {
        self.events
            .iter()
            .filter(|e| e.check_id() == Some(id))
            .collect()
    }

    /// Every check id mentioned in the stream, ascending.
    pub fn check_ids(&self) -> Vec<CheckId> {
        let mut ids: Vec<CheckId> = self.events.iter().filter_map(|e| e.check_id()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Resolves a dynamic trap at `(block, inst_idx)` to its site record.
    pub fn resolve_site(&self, block: BlockId, inst_idx: usize) -> Option<&SiteRecord> {
        self.sites
            .iter()
            .find(|s| s.block == block && s.inst_idx == inst_idx)
    }

    /// Renders the life story of one check (or of every check when `id` is
    /// `None`) for `njc explain`.
    pub fn explain(&self, id: Option<CheckId>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "function {}:", self.function);
        let ids = match id {
            Some(id) => vec![id],
            None => self.check_ids(),
        };
        if ids.is_empty() {
            let _ = writeln!(out, "  (no null checks)");
        }
        for id in ids {
            let events = self.events_for(id);
            let _ = writeln!(out, "  check {id}:");
            if events.is_empty() {
                let _ = writeln!(out, "    (no recorded events)");
            }
            for e in events {
                let _ = writeln!(out, "    - {}", e.describe());
            }
        }
        let l = &self.ledger;
        let _ = writeln!(
            out,
            "  ledger: inserted {} (origins {} + phase1 {} + respawned {} + other {}) = implicit \
             {} + explicit {} + removed {} (phase1 {} + whaley {} + merged {} + postponed {} + \
             other {}) + substituted {}  [{}]",
            l.inserted(),
            l.origins,
            l.phase1_inserted,
            l.respawned,
            l.other_inserted,
            l.implicit(),
            l.explicit_final,
            l.removed(),
            l.phase1_eliminated,
            l.whaley_eliminated,
            l.merged,
            l.postponed,
            l.other_removed,
            l.substituted,
            if l.check().is_ok() {
                "balanced"
            } else {
                "UNBALANCED"
            }
        );
        out
    }
}

impl From<&FunctionTrace> for Json {
    fn from(f: &FunctionTrace) -> Json {
        let sites = f.sites.iter().map(|s| {
            let provenance = match &s.provenance {
                SiteProvenance::Converted(id) => json_obj! {"kind": "phase2", "check": id.0},
                SiteProvenance::Trivial(id) => json_obj! {"kind": "trivial", "check": id.0},
                SiteProvenance::OverMark => json_obj! {"kind": "over-mark"},
            };
            json_obj! {"block": s.block.0, "inst": s.inst_idx, "var": s.var.0, "provenance": provenance}
        });
        let l = &f.ledger;
        let ledger = json_obj! {
            "origins": l.origins, "phase1_inserted": l.phase1_inserted,
            "respawned": l.respawned, "other_inserted": l.other_inserted,
            "converted_implicit": l.converted_implicit, "explicit_final": l.explicit_final,
            "phase1_eliminated": l.phase1_eliminated, "whaley_eliminated": l.whaley_eliminated,
            "merged": l.merged, "postponed": l.postponed, "other_removed": l.other_removed,
            "substituted": l.substituted, "balanced": l.check().is_ok(),
        };
        json_obj! {
            "function": &f.function, "events": Json::array(&f.events),
            "sites": Json::array(sites), "ledger": ledger,
        }
    }
}

impl ModuleTrace {
    /// Looks a function's trace up by name.
    pub fn function(&self, name: &str) -> Option<&FunctionTrace> {
        self.functions.iter().find(|f| f.function == name)
    }

    /// The deterministic JSON event stream: no timestamps, function-index
    /// order, byte-identical across runs and thread counts.
    pub fn to_events_json(&self) -> String {
        let functions = Json::array(&self.functions);
        json_obj! {"config": &self.config, "platform": &self.platform, "functions": functions}
            .compact()
            + "\n"
    }

    /// Checks the conservation ledger of every function.
    ///
    /// # Errors
    /// Returns the first unbalanced function's report.
    pub fn check_conservation(&self) -> Result<(), String> {
        for f in &self.functions {
            f.ledger
                .check()
                .map_err(|e| format!("{}: {e}", f.function))?;
        }
        Ok(())
    }
}

/// Chrome-trace (`chrome://tracing` / Perfetto "trace event") rendering of
/// per-pass durations: one complete event per pass, laid out sequentially.
/// Timings are measurements, so unlike the event stream this output is not
/// expected to be deterministic.
pub fn chrome_trace_json(passes: &[(&str, Duration)], wall: Duration) -> String {
    let span = |name: &str, ts: u128, dur: Duration, tid: u64, cat: &str| {
        let us = |t: u128| u64::try_from(t).unwrap_or(u64::MAX);
        json_obj! {
            "name": name, "ph": "X", "ts": us(ts), "dur": us(dur.as_micros()),
            "pid": 1u64, "tid": tid, "cat": cat,
        }
    };
    let mut ts = 0u128;
    let mut events: Vec<Json> = passes
        .iter()
        .map(|&(name, d)| {
            ts += d.as_micros();
            span(name, ts - d.as_micros(), d, 1, "pass")
        })
        .collect();
    events.push(span("wall", 0, wall, 0, "pipeline"));
    json_obj! {"traceEvents": Json::Array(events)}.compact() + "\n"
}

// ---------------------------------------------------------------------------
// Reconciliation
// ---------------------------------------------------------------------------

/// Maps every dynamic observation back to provenance: each hardware trap the
/// VM took must resolve to a [`SiteRecord`], and each executed explicit
/// check id must have a materialization event in the stream.
///
/// # Errors
/// Returns one line per unexplained observation.
pub fn reconcile(
    trace: &FunctionTrace,
    trap_sites: &[(BlockId, usize)],
    executed_checks: &[CheckId],
) -> Result<(), Vec<String>> {
    let mut missing = Vec::new();
    for &(block, inst) in trap_sites {
        if trace.resolve_site(block, inst).is_none() {
            missing.push(format!(
                "{}: trap at {block} inst {inst} has no provenance record",
                trace.function
            ));
        }
    }
    for &id in executed_checks {
        let materialized = trace.events_for(id).iter().any(|e| {
            matches!(
                e,
                CheckEvent::Origin { .. }
                    | CheckEvent::Phase1Inserted { .. }
                    | CheckEvent::Phase2Explicit { .. }
                    | CheckEvent::Phase2Respawn { .. }
            )
        });
        if !materialized && !trace.events.is_empty() {
            missing.push(format!(
                "{}: executed explicit check {id} has no materialization event",
                trace.function
            ));
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

/// [`reconcile`] across *tiers*: a function recompiled mid-run accumulates
/// dynamic observations under more than one compiled body, and a trap site
/// or check id need only resolve against the provenance of **some** tier
/// that was installed during the run (the CheckId conservation law holds
/// per tier; the union covers the whole run).
///
/// # Errors
/// Returns one line per observation no tier's trace can explain.
pub fn reconcile_tiered(
    traces: &[&FunctionTrace],
    trap_sites: &[(BlockId, usize)],
    executed_checks: &[CheckId],
) -> Result<(), Vec<String>> {
    let mut missing = Vec::new();
    if traces.is_empty() {
        return Ok(());
    }
    for &(block, inst) in trap_sites {
        if !traces.iter().any(|t| t.resolve_site(block, inst).is_some()) {
            missing.push(format!(
                "{}: trap at {block} inst {inst} has no provenance record in any tier",
                traces[0].function
            ));
        }
    }
    for &id in executed_checks {
        let materialized = traces.iter().any(|t| {
            t.events_for(id).iter().any(|e| {
                matches!(
                    e,
                    CheckEvent::Origin { .. }
                        | CheckEvent::Phase1Inserted { .. }
                        | CheckEvent::Phase2Explicit { .. }
                        | CheckEvent::Phase2Respawn { .. }
                )
            })
        });
        if !materialized && traces.iter().any(|t| !t.events.is_empty()) {
            missing.push(format!(
                "{}: executed explicit check {id} has no materialization event in any tier",
                traces[0].function
            ));
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

/// Resolves a recovered trap at `(block, inst)` to a
/// [`CheckEvent::Recovery`] carrying the check id of the site's
/// provenance. Returns `None` when the site is unknown or was marked
/// [`SiteProvenance::OverMark`] (an over-marked site has no owning
/// check to attach the story to; it still reconciles, it just cannot be
/// narrated per-check).
pub fn recovery_event(
    trace: &FunctionTrace,
    block: BlockId,
    inst: usize,
    strategy: RecoveryStrategy,
    count: u64,
) -> Option<CheckEvent> {
    let site = trace.resolve_site(block, inst)?;
    let id = match site.provenance {
        SiteProvenance::Converted(id) | SiteProvenance::Trivial(id) => id,
        SiteProvenance::OverMark => return None,
    };
    Some(CheckEvent::Recovery {
        id,
        strategy,
        count,
    })
}

/// The dynamic conservation law for recovered traps, per site:
///
/// ```text
/// recovered(site) <= traps(site),   and every recovered site has provenance
/// ```
///
/// `recovered` and `traps` are `(block, inst) -> count` observations from
/// the VM's instrumented run. A recovered trap at a site with no
/// [`SiteRecord`] is refused — recovery dispatch only happens at marked
/// implicit sites, so a recovery the site map cannot explain means the
/// handler fired somewhere the compiler never registered. A site whose
/// recovered count exceeds its trap count is likewise refused: recovery
/// *consumes* traps, it does not mint them.
///
/// # Errors
/// Returns one line per unexplained recovery.
pub fn reconcile_recovered(
    trace: &FunctionTrace,
    recovered: &[(BlockId, usize, u64)],
    traps: &[(BlockId, usize, u64)],
) -> Result<(), Vec<String>> {
    reconcile_recovered_tiered(&[trace], recovered, traps)
}

/// [`reconcile_recovered`] across tiers: a recovered site need only
/// resolve against **some** installed tier's site map, mirroring
/// [`reconcile_tiered`]. Trap counts are shared across tiers (the VM
/// accumulates one counter map per run), so the `recovered <= traps`
/// bound is checked against the union.
///
/// # Errors
/// Returns one line per unexplained recovery.
pub fn reconcile_recovered_tiered(
    traces: &[&FunctionTrace],
    recovered: &[(BlockId, usize, u64)],
    traps: &[(BlockId, usize, u64)],
) -> Result<(), Vec<String>> {
    let mut missing = Vec::new();
    if traces.is_empty() {
        return Ok(());
    }
    for &(block, inst, n) in recovered {
        if !traces.iter().any(|t| t.resolve_site(block, inst).is_some()) {
            missing.push(format!(
                "{}: {n} recovered trap{} at {block} inst {inst} with no matching site \
                 provenance",
                traces[0].function,
                if n == 1 { "" } else { "s" }
            ));
            continue;
        }
        let trapped = traps
            .iter()
            .find(|&&(b, i, _)| b == block && i == inst)
            .map_or(0, |&(_, _, t)| t);
        if n > trapped {
            missing.push(format!(
                "{}: site {block} inst {inst} recovered {n} traps but only took {trapped} \
                 (recovery consumes traps, it cannot mint them)",
                traces[0].function
            ));
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}

// ---------------------------------------------------------------------------
// Recompilation events
// ---------------------------------------------------------------------------

/// One adaptive-runtime recompilation, for the observability ledger: which
/// function moved tiers, why, and whether the new body came from the code
/// cache or a fresh compile.
#[derive(Clone, PartialEq, Debug)]
pub struct RecompileEvent {
    /// Function name.
    pub function: String,
    /// Configuration name the function was promoted to (e.g. `"Full"`).
    pub to_config: String,
    /// Number of slot keys in the `ExplicitOverride` set it was compiled
    /// with.
    pub overrides: usize,
    /// Whether the artifact was served from the code cache.
    pub cache_hit: bool,
    /// Whether the swap landed while the VM was still executing (a mid-run
    /// safe-point swap rather than a between-runs install).
    pub mid_run: bool,
    /// VM call count in the profile snapshot that triggered the decision.
    pub at_calls: u64,
}

// ---------------------------------------------------------------------------
// Thread CPU time
// ---------------------------------------------------------------------------

/// A lap clock for per-pass timings: it reads *this thread's* CPU time
/// where the platform provides it (Linux `CLOCK_THREAD_CPUTIME_ID`),
/// falling back to wall clock elsewhere, and reads it exactly once per pass
/// boundary — [`PassClock::lap`] returns the time since the previous read
/// and starts the next lap at the same instant, so back-to-back passes cost
/// one clock read each (a thread-CPU read is a system call).
///
/// Wall-clock pass timers on worker threads count time the thread spent
/// *preempted by its siblings*, which polluted the per-pass breakdown in
/// `BENCH_compile.json` with 3–10× outliers under `threads > 1`; thread CPU
/// time attributes to each pass only the work it actually did.
#[derive(Clone, Copy, Debug)]
pub struct PassClock {
    last: Reading,
}

/// One clock reading: thread CPU time, or wall clock where there is none.
#[derive(Clone, Copy, Debug)]
enum Reading {
    Cpu(Duration),
    Wall(Instant),
}

impl Reading {
    fn now() -> Reading {
        match thread_cpu_now() {
            Some(d) => Reading::Cpu(d),
            None => Reading::Wall(Instant::now()),
        }
    }
}

#[cfg(target_os = "linux")]
fn thread_cpu_now() -> Option<Duration> {
    // Direct syscall wrapper: no new dependency, and `clock_gettime` is in
    // libc, which every Rust binary already links.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // compile-time constant the kernel accepts for any thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Some(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    } else {
        None
    }
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_now() -> Option<Duration> {
    None
}

impl PassClock {
    /// Starts the first lap.
    pub fn start() -> Self {
        PassClock {
            last: Reading::now(),
        }
    }

    /// CPU time (or wall time, on platforms without a thread clock) since
    /// the previous lap ended, or since [`PassClock::start`]; the next lap
    /// starts now.
    pub fn lap(&mut self) -> Duration {
        let now = Reading::now();
        let d = match (self.last, now) {
            (Reading::Cpu(s), Reading::Cpu(e)) => e.saturating_sub(s),
            (Reading::Wall(s), Reading::Wall(e)) => e.saturating_duration_since(s),
            // The thread clock failed on one side only: no sound interval.
            _ => Duration::ZERO,
        };
        self.last = now;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_and_reports_violation() {
        let mut l = Ledger {
            origins: 3,
            phase1_inserted: 1,
            respawned: 2,
            converted_implicit: 2,
            explicit_final: 1,
            phase1_eliminated: 1,
            merged: 1,
            postponed: 1,
            ..Ledger::default()
        };
        assert_eq!(l.inserted(), 6);
        l.check().unwrap();
        l.substituted = 1;
        let err = l.check().unwrap_err();
        assert!(err.contains("conservation violated"), "{err}");
    }

    #[test]
    fn recorder_assigns_ids_in_block_order() {
        let mut f = njc_ir::parse_function(
            "func t(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield \
             v0, field0\n  goto bb1\nbb1:\n  nullcheck v0\n  return v1\n}",
        )
        .unwrap();
        let mut rec = Recorder::new(true);
        rec.assign_origins(&mut f);
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.fresh(), CheckId(2));
        let printed = f.to_string();
        assert!(printed.contains("nullcheck v0 #0"), "{printed}");
        assert!(printed.contains("nullcheck v0 #1"), "{printed}");
        // Round trip: the ids survive the parser.
        let f2 = njc_ir::parse_function(&printed).unwrap();
        assert_eq!(f, f2);
    }

    #[test]
    fn disabled_recorder_allocates_but_stays_silent() {
        let mut f = njc_ir::parse_function(
            "func t(v0: ref) -> int {\n  locals v1: int\nbb0:\n  nullcheck v0\n  v1 = getfield \
             v0, field0\n  return v1\n}",
        )
        .unwrap();
        let mut rec = Recorder::disabled();
        rec.assign_origins(&mut f);
        assert!(rec.events.is_empty());
        assert_eq!(rec.fresh(), CheckId(1));
    }

    #[test]
    fn event_json_is_stable_and_escaped() {
        let e = CheckEvent::Phase2Converted {
            id: CheckId(4),
            var: VarId(1),
            block: BlockId(2),
            site_ordinal: 0,
            rule: "getfield \"x\" offset 8 traps".to_string(),
        };
        assert_eq!(
            e.to_json(),
            "{\"ev\":\"phase2-converted\",\"id\":4,\"var\":1,\"block\":2,\"site\":0,\
             \"rule\":\"getfield \\\"x\\\" offset 8 traps\"}"
        );
    }

    #[test]
    fn explain_renders_a_story() {
        let trace = FunctionTrace {
            function: "f".to_string(),
            events: vec![
                CheckEvent::Origin {
                    id: CheckId(0),
                    var: VarId(0),
                    block: BlockId(0),
                },
                CheckEvent::Phase2Converted {
                    id: CheckId(0),
                    var: VarId(0),
                    block: BlockId(0),
                    site_ordinal: 0,
                    rule: "read of offset 0 traps under windows_ia32".to_string(),
                },
            ],
            sites: vec![],
            ledger: Ledger {
                origins: 1,
                converted_implicit: 1,
                ..Ledger::default()
            },
        };
        let s = trace.explain(Some(CheckId(0)));
        assert!(s.contains("check #0"), "{s}");
        assert!(s.contains("implicit hardware trap"), "{s}");
        assert!(s.contains("balanced"), "{s}");
    }

    #[test]
    fn reconcile_finds_unexplained_trap() {
        let trace = FunctionTrace {
            function: "f".to_string(),
            sites: vec![SiteRecord {
                block: BlockId(0),
                inst_idx: 1,
                var: VarId(0),
                provenance: SiteProvenance::OverMark,
            }],
            ..FunctionTrace::default()
        };
        reconcile(&trace, &[(BlockId(0), 1)], &[]).unwrap();
        let errs = reconcile(&trace, &[(BlockId(1), 0)], &[]).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("no provenance record"), "{}", errs[0]);
    }

    #[test]
    fn recovery_event_resolves_check_and_renders() {
        let trace = FunctionTrace {
            function: "f".to_string(),
            sites: vec![
                SiteRecord {
                    block: BlockId(0),
                    inst_idx: 1,
                    var: VarId(0),
                    provenance: SiteProvenance::Converted(CheckId(3)),
                },
                SiteRecord {
                    block: BlockId(2),
                    inst_idx: 0,
                    var: VarId(1),
                    provenance: SiteProvenance::OverMark,
                },
            ],
            ..FunctionTrace::default()
        };
        let ev = recovery_event(&trace, BlockId(0), 1, RecoveryStrategy::NullObject, 2).unwrap();
        assert_eq!(
            ev.to_json(),
            "{\"ev\":\"recovery\",\"id\":3,\"strategy\":\"nullobject\",\"count\":2}"
        );
        assert_eq!(ev.check_id(), Some(CheckId(3)));
        assert!(
            ev.describe().contains("substituted the typed default"),
            "{}",
            ev.describe()
        );
        // Over-marked sites reconcile but cannot be narrated per-check.
        assert!(recovery_event(&trace, BlockId(2), 0, RecoveryStrategy::Strict, 1).is_none());
        // Unknown sites resolve to nothing.
        assert!(recovery_event(&trace, BlockId(9), 9, RecoveryStrategy::Strict, 1).is_none());
    }

    #[test]
    fn reconcile_recovered_enforces_provenance_and_bound() {
        let trace = FunctionTrace {
            function: "f".to_string(),
            sites: vec![SiteRecord {
                block: BlockId(0),
                inst_idx: 1,
                var: VarId(0),
                provenance: SiteProvenance::Converted(CheckId(0)),
            }],
            ..FunctionTrace::default()
        };
        // Balanced: 2 traps, 2 recoveries at the known site.
        reconcile_recovered(&trace, &[(BlockId(0), 1, 2)], &[(BlockId(0), 1, 2)]).unwrap();
        // A recovered trap with no matching site provenance is refused.
        let errs =
            reconcile_recovered(&trace, &[(BlockId(1), 0, 1)], &[(BlockId(1), 0, 1)]).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("no matching site provenance"),
            "{}",
            errs[0]
        );
        // recovered > traps is refused: recovery consumes traps.
        let errs =
            reconcile_recovered(&trace, &[(BlockId(0), 1, 3)], &[(BlockId(0), 1, 2)]).unwrap_err();
        assert!(errs[0].contains("cannot mint"), "{}", errs[0]);
    }

    #[test]
    fn pass_clock_laps() {
        let mut clock = PassClock::start();
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        // CPU time may round to zero for tiny spins on coarse clocks; the
        // call contract is only "monotone, no panic", lap after lap.
        let _ = clock.lap();
        let _ = clock.lap();
    }

    #[test]
    fn chrome_trace_shape() {
        let s = chrome_trace_json(
            &[("nullcheck", Duration::from_micros(10))],
            Duration::from_micros(25),
        );
        assert!(s.starts_with("{\"traceEvents\":["), "{s}");
        assert!(s.contains("\"name\":\"nullcheck\""), "{s}");
        assert!(s.contains("\"dur\":25"), "{s}");
    }
}
