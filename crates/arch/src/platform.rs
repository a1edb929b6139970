//! [`Platform`] — a named (architecture, OS) pair bundling trap and cost
//! models, with presets for the machines the paper evaluates on.

use crate::cost::CostModel;
use crate::trap_model::TrapModel;

/// CPU architecture family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArchKind {
    /// Intel IA32 (Pentium III in the paper).
    Ia32,
    /// PowerPC (604e in the paper).
    PowerPc,
    /// IBM S/390.
    S390,
}

/// Operating system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OsKind {
    /// Windows NT 4.0.
    WindowsNt,
    /// AIX 4.3.3.
    Aix,
    /// Linux.
    Linux,
}

/// A complete platform description used by both the compiler (phase 2 and
/// speculation legality) and the VM (runtime fault behaviour and costs).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Platform {
    /// Short human-readable name, e.g. `"ia32-winnt"`.
    pub name: &'static str,
    /// Architecture family.
    pub arch: ArchKind,
    /// Operating system.
    pub os: OsKind,
    /// Hardware trap capabilities.
    pub trap: TrapModel,
    /// Cycle costs.
    pub cost: CostModel,
    /// Simulated clock in Hz (converts cycles to reported seconds).
    pub clock_hz: u64,
    /// Whether the JIT can lower `Math.exp`-style calls to a hardware
    /// instruction (true on IA32, false on PowerPC — paper §5.4).
    pub has_fp_intrinsics: bool,
}

impl Platform {
    /// Pentium III 600 MHz, Windows NT 4.0 — the paper's primary platform
    /// (Tables 1–5).
    pub const fn windows_ia32() -> Self {
        Platform {
            name: "ia32-winnt",
            arch: ArchKind::Ia32,
            os: OsKind::WindowsNt,
            trap: TrapModel::windows_ia32(),
            cost: CostModel::ia32(),
            clock_hz: 600_000_000,
            has_fp_intrinsics: true,
        }
    }

    /// PowerPC 604e 332 MHz, AIX 4.3.3 — the paper's secondary platform
    /// (Tables 6–7). Reads of the null page do not trap; reads may be
    /// speculated instead.
    pub const fn aix_ppc() -> Self {
        Platform {
            name: "ppc-aix",
            arch: ArchKind::PowerPc,
            os: OsKind::Aix,
            trap: TrapModel::aix_ppc(),
            cost: CostModel::ppc(),
            clock_hz: 332_000_000,
            has_fp_intrinsics: false,
        }
    }

    /// S/390 Linux (the paper's third JIT target; not separately measured).
    pub const fn linux_s390() -> Self {
        Platform {
            name: "s390-linux",
            arch: ArchKind::S390,
            os: OsKind::Linux,
            trap: TrapModel::linux_s390(),
            cost: CostModel::s390(),
            clock_hz: 500_000_000,
            has_fp_intrinsics: false,
        }
    }

    /// Parses a command-line platform name (`ia32`/`windows`, `aix`/`ppc`,
    /// `s390`); `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ia32" | "windows" => Platform::windows_ia32(),
            "aix" | "ppc" => Platform::aix_ppc(),
            "s390" => Platform::linux_s390(),
            _ => return None,
        })
    }

    /// This platform with a different trap model (used to build the
    /// "no hardware trap" baseline configuration).
    pub const fn with_trap_model(mut self, trap: TrapModel) -> Self {
        self.trap = trap;
        self
    }

    /// Converts a cycle count to seconds on this platform's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::AccessKind;

    #[test]
    fn paper_platform_presets() {
        let win = Platform::windows_ia32();
        assert_eq!(win.clock_hz, 600_000_000);
        assert!(win.trap.traps_on_read);
        assert!(win.has_fp_intrinsics);

        let aix = Platform::aix_ppc();
        assert_eq!(aix.clock_hz, 332_000_000);
        assert!(!aix.trap.traps_on_read);
        assert!(aix.trap.traps_on_write);
        assert!(!aix.has_fp_intrinsics);
    }

    #[test]
    fn with_trap_model_overrides() {
        let p = Platform::windows_ia32().with_trap_model(TrapModel::no_traps());
        assert!(!p.trap.supports_implicit_checks());
        assert!(!p.trap.access_traps(AccessKind::Read, Some(0)));
        // Cost model is unchanged.
        assert_eq!(p.cost, CostModel::ia32());
    }

    #[test]
    fn parses_command_line_names() {
        assert_eq!(Platform::parse("windows"), Some(Platform::windows_ia32()));
        assert_eq!(Platform::parse("ppc"), Some(Platform::aix_ppc()));
        assert_eq!(Platform::parse("s390"), Some(Platform::linux_s390()));
        assert_eq!(Platform::parse("ia32-winnt"), None);
    }

    #[test]
    fn cycles_to_seconds() {
        let p = Platform::windows_ia32();
        let s = p.cycles_to_seconds(600_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
