//! The machine-level metadata tables: exception sites and handler ranges.
//!
//! This is the machinery the paper's implicit null checks actually rest
//! on in a real JIT: the generated code contains **no instruction** for an
//! implicit check, only an entry in a PC-indexed table. When the hardware
//! delivers a trap, the runtime looks the faulting PC up — a hit means
//! "this was a null check, raise `NullPointerException` here"; a miss
//! means the compiler emitted a wild memory access and the VM aborts.
//! (Paper §3.3.2: *"we must mark such an instruction as an exception
//! site"*.)

use std::collections::BTreeMap;

use njc_ir::{AccessKind, CatchKind, CheckId, Type};

use crate::isa::Reg;

/// What one exception-site entry knows about its access — enough for the
/// runtime to attribute a trap (or a silently-missed NPE) back to the IR
/// check it discharges, and for a binary verifier to prove the access can
/// actually fault on the null page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SiteInfo {
    /// The IR null check this site discharges ([`CheckId::NONE`] for
    /// phase 2 over-marking, which guards accesses no check ever owned).
    pub check: CheckId,
    /// Whether the access reads or writes memory.
    pub kind: AccessKind,
    /// Static byte offset from the base register, when fixed (`None` for
    /// index-scaled element accesses, whose offset is dynamic).
    pub offset: Option<u64>,
}

impl SiteInfo {
    /// An entry with no recorded provenance (tests, stripped tables).
    pub fn anonymous(kind: AccessKind) -> Self {
        SiteInfo {
            check: CheckId::NONE,
            kind,
            offset: None,
        }
    }
}

/// The set of PCs whose memory access doubles as a null check, each with
/// its [`SiteInfo`] provenance. Ordered by PC so iteration (and hence the
/// emitted binary `.njc.exctab` section) is deterministic.
#[derive(Clone, Default, Debug)]
pub struct ExceptionSiteTable {
    sites: BTreeMap<usize, SiteInfo>,
}

impl ExceptionSiteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `pc` as an implicit null check site.
    pub fn insert(&mut self, pc: usize, info: SiteInfo) {
        self.sites.insert(pc, info);
    }

    /// Whether a trap at `pc` is a legal null check.
    pub fn contains(&self, pc: usize) -> bool {
        self.sites.contains_key(&pc)
    }

    /// All entries in ascending PC order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SiteInfo)> {
        self.sites.iter().map(|(pc, info)| (*pc, info))
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no sites are registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// One handler range: exceptions raised at `start_pc..end_pc` whose kind
/// matches `catch` transfer control to `handler_pc`.
#[derive(Clone, Debug)]
pub struct HandlerEntry {
    /// First covered PC (inclusive).
    pub start_pc: usize,
    /// Last covered PC (exclusive).
    pub end_pc: usize,
    /// Catch filter.
    pub catch: CatchKind,
    /// Handler entry point.
    pub handler_pc: usize,
    /// Register receiving the exception code, if any.
    pub code_reg: Option<Reg>,
}

/// Per-function handler table (searched in order; first match wins).
#[derive(Clone, Default, Debug)]
pub struct HandlerTable {
    /// The entries.
    pub entries: Vec<HandlerEntry>,
}

/// A lowered function.
#[derive(Clone, Debug)]
pub struct MachineFunction {
    /// Function name.
    pub name: String,
    /// Linear code.
    pub code: Vec<crate::isa::MInst>,
    /// Number of registers (parameters occupy `r0..`).
    pub num_regs: usize,
    /// Number of parameters.
    pub num_params: usize,
    /// Return type, if non-void.
    pub ret: Option<Type>,
    /// PC-indexed implicit null check sites.
    pub sites: ExceptionSiteTable,
    /// Exception handler ranges.
    pub handlers: HandlerTable,
}

/// A lowered class: what virtual dispatch and allocation need at run time.
#[derive(Clone, Debug)]
pub struct MachineClass {
    /// Object size in bytes (header included).
    pub size: u64,
    /// Method table: name → function index.
    pub methods: std::collections::HashMap<String, usize>,
}

/// A lowered module.
#[derive(Clone, Debug)]
pub struct MachineModule {
    /// Functions, indexed like the source module's.
    pub functions: Vec<MachineFunction>,
    /// Classes, indexed like the source module's.
    pub classes: Vec<MachineClass>,
}

impl MachineModule {
    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Total machine instruction count (code size).
    pub fn code_size(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Total implicit null check sites across all functions.
    pub fn total_sites(&self) -> usize {
        self.functions.iter().map(|f| f.sites.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_table_membership() {
        let mut t = ExceptionSiteTable::new();
        assert!(t.is_empty());
        t.insert(7, SiteInfo::anonymous(njc_ir::AccessKind::Read));
        t.insert(7, SiteInfo::anonymous(njc_ir::AccessKind::Read));
        assert_eq!(t.len(), 1);
        assert!(t.contains(7));
        assert!(!t.contains(8));
    }
}
