//! [`TrapModel`] — what the hardware/OS pair guarantees about null accesses.

use njc_ir::AccessKind;

/// The hardware-trap capabilities of a platform.
///
/// A *guaranteed-trapping* access is one the compiler may rely on to raise a
/// hardware trap when the base reference is null; only such accesses may
/// carry an implicit null check (paper §4.2.1, in-block insertion algorithm:
/// *"I will cause a hardware trap if object reference is null"*).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrapModel {
    /// Size in bytes of the protected area at address zero. Accesses with a
    /// statically known offset `< trap_area_bytes` fault on a null base.
    pub trap_area_bytes: u64,
    /// Whether *reads* of the protected area raise a trap. False on AIX,
    /// which silently satisfies reads of the first page (paper §1).
    pub traps_on_read: bool,
    /// Whether *writes* to the protected area raise a trap.
    pub traps_on_write: bool,
}

impl TrapModel {
    /// Windows NT on IA32: both reads and writes of page 0 fault.
    /// The protected region is a single 4 KiB page.
    pub const fn windows_ia32() -> Self {
        TrapModel {
            trap_area_bytes: 4096,
            traps_on_read: true,
            traps_on_write: true,
        }
    }

    /// AIX on PowerPC: only writes to the first page fault; reads return
    /// data silently (paper §1, §3.3.1 Figure 5 (2)).
    pub const fn aix_ppc() -> Self {
        TrapModel {
            trap_area_bytes: 4096,
            traps_on_read: false,
            traps_on_write: true,
        }
    }

    /// Linux on S/390: both reads and writes fault (the paper's JIT also
    /// targets S/390; modeled like Windows with a 4 KiB page).
    pub const fn linux_s390() -> Self {
        TrapModel {
            trap_area_bytes: 4096,
            traps_on_read: true,
            traps_on_write: true,
        }
    }

    /// Solaris on SPARC (the LaTTe assumption from §2.1): all memory reads
    /// and writes cause hardware traps; 8 KiB pages.
    pub const fn solaris_sparc() -> Self {
        TrapModel {
            trap_area_bytes: 8192,
            traps_on_read: true,
            traps_on_write: true,
        }
    }

    /// A model with no trap support at all — the paper's
    /// "No Null Opt. (No Hardware Trap)" baseline, where every null check
    /// must be an explicit instruction.
    pub const fn no_traps() -> Self {
        TrapModel {
            trap_area_bytes: 0,
            traps_on_read: false,
            traps_on_write: false,
        }
    }

    /// Whether an access of `kind` at statically-known byte offset `offset`
    /// is **guaranteed** to trap when the base is null.
    ///
    /// `offset == None` means the offset is computed at run time (array
    /// element accesses); the compiler may not rely on those trapping
    /// because the effective address can exceed the trap area.
    pub fn access_traps(&self, kind: AccessKind, offset: Option<u64>) -> bool {
        let Some(off) = offset else { return false };
        if off >= self.trap_area_bytes {
            return false;
        }
        match kind {
            AccessKind::Read => self.traps_on_read,
            AccessKind::Write => self.traps_on_write,
        }
    }

    /// Whether an access at a *runtime* effective offset would actually
    /// fault on this platform — the VM's ground truth, as opposed to the
    /// compiler-facing guarantee of [`Self::access_traps`].
    #[inline]
    pub fn runtime_faults(&self, kind: AccessKind, effective_offset: u64) -> bool {
        if effective_offset >= self.trap_area_bytes {
            return false;
        }
        match kind {
            AccessKind::Read => self.traps_on_read,
            AccessKind::Write => self.traps_on_write,
        }
    }

    /// Whether `addr` lies inside the protected area at address zero — the
    /// region where a null-base access produces a guard-page fault rather
    /// than touching mapped memory.
    #[inline]
    pub fn protects(&self, addr: u64) -> bool {
        addr < self.trap_area_bytes
    }

    /// Whether loads may be **speculated** above their null checks: legal
    /// exactly when a null-base read cannot fault (paper §3.3.1: *"If a
    /// memory read with a null pointer is guaranteed not to cause a hardware
    /// trap, it can be moved across its null check speculatively"*).
    pub fn reads_are_speculatable(&self) -> bool {
        !self.traps_on_read
    }

    /// Whether the platform supports implicit null checks at all.
    pub fn supports_implicit_checks(&self) -> bool {
        self.trap_area_bytes > 0 && (self.traps_on_read || self.traps_on_write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_traps_on_reads_and_writes() {
        let m = TrapModel::windows_ia32();
        assert!(m.access_traps(AccessKind::Read, Some(0)));
        assert!(m.access_traps(AccessKind::Write, Some(8)));
        assert!(!m.reads_are_speculatable());
        assert!(m.supports_implicit_checks());
    }

    #[test]
    fn aix_traps_only_on_writes() {
        let m = TrapModel::aix_ppc();
        assert!(!m.access_traps(AccessKind::Read, Some(0)));
        assert!(m.access_traps(AccessKind::Write, Some(0)));
        assert!(m.reads_are_speculatable());
        assert!(m.supports_implicit_checks());
    }

    #[test]
    fn big_offset_never_traps() {
        // The Figure 5 (1) case: offset beyond the protected area.
        let m = TrapModel::windows_ia32();
        assert!(!m.access_traps(AccessKind::Read, Some(4096)));
        assert!(!m.access_traps(AccessKind::Write, Some(1 << 20)));
        assert!(m.access_traps(AccessKind::Read, Some(4095)));
    }

    #[test]
    fn dynamic_offset_never_guaranteed() {
        let m = TrapModel::windows_ia32();
        assert!(!m.access_traps(AccessKind::Read, None));
        assert!(!m.access_traps(AccessKind::Write, None));
    }

    #[test]
    fn protects_matches_trap_area() {
        let m = TrapModel::windows_ia32();
        assert!(m.protects(0));
        assert!(m.protects(4095));
        assert!(!m.protects(4096));
        assert!(!TrapModel::no_traps().protects(0));
    }

    #[test]
    fn runtime_faults_follow_effective_offset() {
        let m = TrapModel::windows_ia32();
        assert!(m.runtime_faults(AccessKind::Read, 16));
        assert!(!m.runtime_faults(AccessKind::Read, 4096));
        let aix = TrapModel::aix_ppc();
        assert!(!aix.runtime_faults(AccessKind::Read, 16));
        assert!(aix.runtime_faults(AccessKind::Write, 16));
    }

    #[test]
    fn no_trap_model_disables_everything() {
        let m = TrapModel::no_traps();
        assert!(!m.supports_implicit_checks());
        assert!(!m.access_traps(AccessKind::Read, Some(0)));
        assert!(!m.runtime_faults(AccessKind::Write, 0));
        // With no read traps, reads are trivially speculatable.
        assert!(m.reads_are_speculatable());
    }
}
