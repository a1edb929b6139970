//! # njc-trap — simulated MMU with a protected null page
//!
//! The paper's implicit null checks rely on the operating system delivering
//! a hardware trap when the program dereferences a null pointer: the load or
//! store computes an effective address `null + offset` that lands inside a
//! protected page at the bottom of the address space.
//!
//! This crate reproduces that mechanism as a deterministic substrate:
//! [`GuardedMemory`] is a flat byte-addressed memory whose first
//! `trap_area_bytes` bytes form the guard region. Object allocation starts
//! above the guard, the null reference is address `0`, and every read/write
//! goes through the trap check:
//!
//! * access inside the guard region **and** the platform traps for that
//!   access kind → [`HardwareTrap`] is raised (the VM then dispatches it to
//!   a `NullPointerException` if the faulting site is a marked exception
//!   site);
//! * read inside the guard region on a platform that does *not* trap reads
//!   (AIX) → the read **silently returns zero**, exactly the behaviour the
//!   paper exploits for speculation (§3.3.1) and that makes the
//!   "Illegal Implicit" configuration of §5.4 unsound;
//! * access beyond the guard region with a null base (the "BigOffset" case
//!   of Figure 5) → lands in ordinary memory and is reported as a
//!   [`MemoryError::WildAccess`] so tests can detect the corruption a real
//!   system would suffer.
//!
//! The heap's object and array layout lives here too
//! ([`GuardedMemory::alloc_object`], [`GuardedMemory::alloc_array`]), so
//! the IR interpreter (`njc-vm`) and the byte machine (`njc-emit`) write
//! every header through the same two functions:
//!
//! ```text
//! object:  [class id + 1][field at offset 8][field at 16]...
//! array:   [length      ][elem type tag    ][elem 0 at 16][elem 1]...
//! ```
//!
//! **Substitution note** (see DESIGN.md §5): a production JIT would install
//! a real `SIGSEGV` handler. Signal handlers are process-global and
//! interfere with test harnesses, so this simulated MMU exercises the same
//! code path — effective-address computation, fault detection, exception
//! site lookup — deterministically and portably.

use std::fmt;

use njc_arch::TrapModel;
use njc_ir::module::ARRAY_ELEMENTS_OFFSET;
use njc_ir::{AccessKind, ClassId, Type};

/// A hardware trap raised by a guarded access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HardwareTrap {
    /// The faulting effective address (inside the guard region).
    pub address: u64,
    /// Whether the faulting access was a read or a write.
    pub kind: AccessKind,
}

impl fmt::Display for HardwareTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        write!(
            f,
            "hardware trap: {k} of protected address {:#x}",
            self.address
        )
    }
}

impl std::error::Error for HardwareTrap {}

/// A non-trap memory failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemoryError {
    /// The access faulted in the guard region.
    Trap(HardwareTrap),
    /// The access fell outside every allocation — e.g. a null-base access
    /// whose offset exceeds the guard region ("BigOffset" without an
    /// explicit check). A real machine would silently corrupt or crash
    /// here; we report it so the soundness tests can catch it.
    WildAccess {
        /// The wild effective address.
        address: u64,
        /// Read or write.
        kind: AccessKind,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Trap(t) => t.fmt(f),
            MemoryError::WildAccess { address, kind } => {
                let k = match kind {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                };
                write!(f, "wild {k} at address {address:#x}")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

impl From<HardwareTrap> for MemoryError {
    fn from(t: HardwareTrap) -> Self {
        MemoryError::Trap(t)
    }
}

/// The most memory one [`GuardedMemory`] hands out, guard region included:
/// 256 MiB. A fixed ceiling, so a hostile allocation size becomes a
/// structured [`HeapExhausted`] instead of a host out-of-memory abort; the
/// paper's workloads stay far below it.
pub const HEAP_LIMIT_BYTES: u64 = 1 << 28;

/// An allocation [`GuardedMemory`] refused: its size does not fit in 64
/// bits, or it would grow the heap past [`HEAP_LIMIT_BYTES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeapExhausted {
    /// The bytes asked for; `None` when the size overflowed 64 bits.
    pub requested: Option<u64>,
    /// The heap's footprint when the request was refused.
    pub footprint: u64,
}

impl fmt::Display for HeapExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.requested {
            Some(n) => write!(f, "heap exhausted: {n} bytes requested")?,
            None => write!(f, "heap exhausted: requested size overflows 64 bits")?,
        }
        write!(
            f,
            " with {} of {HEAP_LIMIT_BYTES} bytes in use",
            self.footprint
        )
    }
}

impl std::error::Error for HeapExhausted {}

/// The numeric tag of a type: the array header's element tag, and the
/// type operand the emitted code passes to the runtime services.
#[inline]
pub fn type_tag(ty: Type) -> u32 {
    match ty {
        Type::Int => 1,
        Type::Float => 2,
        Type::Ref => 3,
    }
}

/// Inverse of [`type_tag`].
#[inline]
pub fn type_from_tag(tag: u32) -> Option<Type> {
    Some(match tag {
        1 => Type::Int,
        2 => Type::Float,
        3 => Type::Ref,
        _ => return None,
    })
}

/// The class an object header word names: the header holds the class id
/// plus one, so a zero word (a silent read of the guard page) names none,
/// and neither does a word no class id fits (a header read of something
/// that is not an object).
#[inline]
pub fn class_from_header(word: u64) -> Option<ClassId> {
    let id = u32::try_from(word.checked_sub(1)?).ok()?;
    Some(ClassId(id))
}

/// Counters describing trap traffic, exposed for the experiment harness.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TrapStats {
    /// Traps taken on reads.
    pub read_traps: u64,
    /// Traps taken on writes.
    pub write_traps: u64,
    /// Guard-region reads that were *silently satisfied* (AIX semantics).
    pub silent_null_reads: u64,
    /// Guard-region writes that were silently satisfied (no-trap models).
    pub silent_null_writes: u64,
}

impl TrapStats {
    /// Total traps taken.
    pub fn total_traps(&self) -> u64 {
        self.read_traps + self.write_traps
    }
}

/// The result of a successfully *completed* guarded read: either real data,
/// or zero synthesized for a silent guard-region read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadOutcome {
    /// The value read.
    pub value: u64,
    /// Whether the value was synthesized from the guard region (and is
    /// therefore garbage from the program's point of view).
    pub from_guard: bool,
}

/// A flat, byte-addressed memory with a protected guard region at address 0.
///
/// Addresses are `u64`; the null reference is address `0`. All accesses are
/// 8-byte slots (the model's field/element size).
///
/// # Example
/// ```
/// use njc_trap::GuardedMemory;
/// use njc_arch::TrapModel;
/// use njc_ir::AccessKind;
///
/// let mut mem = GuardedMemory::new(TrapModel::windows_ia32());
/// let obj = mem.alloc(32).unwrap();
/// mem.write_u64(obj + 8, 42).unwrap();
/// assert_eq!(mem.read_u64(obj + 8).unwrap().value, 42);
/// // Null dereference: effective address 8 lies in the guard page.
/// assert!(mem.read_u64(8).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct GuardedMemory {
    model: TrapModel,
    /// Backing store, indexed from address 0 (the guard region is backed by
    /// real zero bytes so silent reads return 0 naturally).
    data: Vec<u8>,
    /// Next allocation address.
    brk: u64,
    stats: TrapStats,
}

/// Minimum heap base: allocations never start inside the guard region, and
/// never at address 0 even for trap-less models (address 0 must remain
/// distinguishable as null).
const MIN_HEAP_BASE: u64 = 64;

impl GuardedMemory {
    /// Creates a memory with the given trap model. The guard region spans
    /// `model.trap_area_bytes` bytes from address 0.
    pub fn new(model: TrapModel) -> Self {
        let base = model.trap_area_bytes.max(MIN_HEAP_BASE);
        GuardedMemory {
            model,
            data: vec![0; base as usize],
            brk: base,
            stats: TrapStats::default(),
        }
    }

    /// The trap model in force.
    pub fn model(&self) -> TrapModel {
        self.model
    }

    /// Trap statistics so far.
    pub fn stats(&self) -> TrapStats {
        self.stats
    }

    /// Allocates `size` bytes of zeroed memory, 8-byte aligned, and returns
    /// the base address (always above the guard region, never 0).
    ///
    /// # Errors
    /// [`HeapExhausted`] when the heap would grow past
    /// [`HEAP_LIMIT_BYTES`]; nothing is allocated then.
    pub fn alloc(&mut self, size: u64) -> Result<u64, HeapExhausted> {
        let refused = HeapExhausted {
            requested: Some(size),
            footprint: self.brk,
        };
        let brk = size
            .checked_next_multiple_of(8)
            .and_then(|s| self.brk.checked_add(s.max(8)))
            .filter(|&brk| brk <= HEAP_LIMIT_BYTES)
            .ok_or(refused)?;
        let base = self.brk;
        self.brk = brk;
        self.data.resize(brk as usize, 0);
        Ok(base)
    }

    /// Allocates a block of `header` bytes followed by `slots` 8-byte
    /// slots, zeroed (an array: header, then elements), with the size
    /// computed in checked arithmetic.
    ///
    /// # Errors
    /// [`HeapExhausted`] when `header + 8 * slots` overflows 64 bits or
    /// exceeds the ceiling; nothing is allocated then.
    pub fn alloc_slots(&mut self, header: u64, slots: u64) -> Result<u64, HeapExhausted> {
        match slots.checked_mul(8).and_then(|b| b.checked_add(header)) {
            Some(size) => self.alloc(size),
            None => Err(HeapExhausted {
                requested: None,
                footprint: self.brk,
            }),
        }
    }

    /// Allocates a zeroed object of `size` bytes (at least one slot) whose
    /// header word holds `class`'s id plus one — the word a virtual call
    /// reads to dispatch. Returns its address.
    ///
    /// # Errors
    /// [`HeapExhausted`] past the ceiling.
    #[inline]
    pub fn alloc_object(&mut self, class: ClassId, size: u64) -> Result<u64, HeapExhausted> {
        let addr = self.alloc(size.max(8))?;
        self.put(addr, class.index() as u64 + 1);
        Ok(addr)
    }

    /// Allocates a zeroed array of `len` elements of type `elem`: the
    /// length at offset 0 (where bounds checks read it), the element
    /// [`type_tag`] at 8, elements from `ARRAY_ELEMENTS_OFFSET`. Returns
    /// its address.
    ///
    /// # Errors
    /// [`HeapExhausted`] when the array's byte size overflows 64 bits or
    /// exceeds the ceiling.
    #[inline]
    pub fn alloc_array(&mut self, elem: Type, len: u64) -> Result<u64, HeapExhausted> {
        let addr = self.alloc_slots(ARRAY_ELEMENTS_OFFSET, len)?;
        self.put(addr, len);
        self.put(addr + 8, u64::from(type_tag(elem)));
        Ok(addr)
    }

    /// Writes a header word of a fresh allocation, which lies above the
    /// guard region and so needs no trap classification.
    #[inline]
    fn put(&mut self, addr: u64, value: u64) {
        let i = addr as usize;
        self.data[i..i + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Total bytes currently allocated (including the guard region).
    pub fn footprint(&self) -> u64 {
        self.brk
    }

    /// The lowest address object allocation can use (just above the guard
    /// region, or the 64-byte minimum for trap-less models).
    pub fn heap_base(&self) -> u64 {
        self.model.trap_area_bytes.max(MIN_HEAP_BASE)
    }

    /// Digest of the allocated heap contents (from [`Self::heap_base`] to
    /// the break), folding in the break itself so that runs differing only
    /// in footprint also differ in digest. The guard region is excluded: it
    /// is zero by construction (silent writes are discarded), so including it
    /// would only dilute the digest.
    ///
    /// The heap is hashed a word at a time: rotate, xor the word, multiply
    /// by an odd constant. Each step is a bijection of the running hash, so
    /// two heaps that differ in a single word always digest differently;
    /// the rotation carries high-bit differences (a float's sign) down, so
    /// they do not cancel pairwise.
    pub fn digest(&self) -> u64 {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
        let step = |h: u64, w: u64| (h.rotate_left(23) ^ w).wrapping_mul(MUL);
        let heap = &self.data[self.heap_base() as usize..self.brk as usize];
        let mut words = heap.chunks_exact(8);
        let mut h = SEED;
        for w in &mut words {
            h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            h = step(h, u64::from(b));
        }
        step(h, self.brk)
    }

    #[inline]
    fn classify(&mut self, addr: u64, kind: AccessKind) -> Result<bool, MemoryError> {
        // Returns Ok(true) when the access is a silent guard-region access.
        if self.model.protects(addr) {
            if self.model.runtime_faults(kind, addr) {
                match kind {
                    AccessKind::Read => self.stats.read_traps += 1,
                    AccessKind::Write => self.stats.write_traps += 1,
                }
                return Err(HardwareTrap {
                    address: addr,
                    kind,
                }
                .into());
            }
            match kind {
                AccessKind::Read => self.stats.silent_null_reads += 1,
                AccessKind::Write => self.stats.silent_null_writes += 1,
            }
            return Ok(true);
        }
        // Checked: an address within 8 bytes of `u64::MAX` must not wrap
        // around into an in-bounds slice index.
        match addr.checked_add(8) {
            Some(end) if end <= self.brk => Ok(false),
            _ => Err(MemoryError::WildAccess {
                address: addr,
                kind,
            }),
        }
    }

    /// Reads the 8-byte slot at `addr`.
    ///
    /// # Errors
    /// [`MemoryError::Trap`] when the access faults in the guard region;
    /// [`MemoryError::WildAccess`] when it falls outside every allocation.
    #[inline]
    pub fn read_u64(&mut self, addr: u64) -> Result<ReadOutcome, MemoryError> {
        let from_guard = self.classify(addr, AccessKind::Read)?;
        if from_guard {
            // AIX semantics: the first page reads as zero.
            return Ok(ReadOutcome {
                value: 0,
                from_guard: true,
            });
        }
        let i = addr as usize;
        let value = u64::from_le_bytes(self.data[i..i + 8].try_into().expect("slot"));
        Ok(ReadOutcome {
            value,
            from_guard: false,
        })
    }

    /// Writes the 8-byte slot at `addr`.
    ///
    /// # Errors
    /// Same conditions as [`Self::read_u64`]. A silent guard-region write
    /// (trap-less models) is discarded.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemoryError> {
        let to_guard = self.classify(addr, AccessKind::Write)?;
        if to_guard {
            // Writes into the guard region on a non-write-trapping model are
            // discarded: the backing page stays zero so later silent reads
            // behave like a zero page.
            return Ok(());
        }
        self.put(addr, value);
        Ok(())
    }

    /// Whether `addr` is the null reference.
    pub fn is_null(addr: u64) -> bool {
        addr == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_above_guard_and_aligned() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let a = m.alloc(24).unwrap();
        assert!(a >= 4096);
        assert_eq!(a % 8, 0);
        let b = m.alloc(1).unwrap();
        assert!(b >= a + 24);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let a = m.alloc(16).unwrap();
        m.write_u64(a, u64::MAX).unwrap();
        m.write_u64(a + 8, 7).unwrap();
        assert_eq!(m.read_u64(a).unwrap().value, u64::MAX);
        assert_eq!(m.read_u64(a + 8).unwrap().value, 7);
    }

    #[test]
    fn null_read_traps_on_windows() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let err = m.read_u64(16).unwrap_err();
        assert_eq!(
            err,
            MemoryError::Trap(HardwareTrap {
                address: 16,
                kind: AccessKind::Read
            })
        );
        assert_eq!(m.stats().read_traps, 1);
    }

    #[test]
    fn null_read_is_silent_zero_on_aix() {
        let mut m = GuardedMemory::new(TrapModel::aix_ppc());
        let r = m.read_u64(16).unwrap();
        assert_eq!(r.value, 0);
        assert!(r.from_guard);
        assert_eq!(m.stats().silent_null_reads, 1);
        // But writes trap.
        assert!(m.write_u64(16, 1).is_err());
        assert_eq!(m.stats().write_traps, 1);
    }

    #[test]
    fn big_offset_is_wild_not_trap() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        // Null base + 1 MiB offset: beyond the guard region and beyond the
        // heap — a wild access, exactly the Figure 5 (1) hazard.
        let err = m.read_u64(1 << 20).unwrap_err();
        assert!(matches!(err, MemoryError::WildAccess { .. }));
        assert_eq!(m.stats().total_traps(), 0);
    }

    #[test]
    fn big_offset_can_hit_live_heap() {
        // Worse than wild: with a large enough heap, a null-base big-offset
        // access silently reads *another object's* memory.
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let a = m.alloc(8192).unwrap();
        m.write_u64(a + 8, 0xDEAD).unwrap();
        let offset_from_null = a + 8; // as if `null.field_at(a + 8)`
        let r = m.read_u64(offset_from_null).unwrap();
        assert_eq!(r.value, 0xDEAD, "silent corruption read");
        assert!(!r.from_guard);
    }

    #[test]
    fn silent_guard_write_is_discarded() {
        let mut m = GuardedMemory::new(TrapModel {
            trap_area_bytes: 4096,
            traps_on_read: false,
            traps_on_write: false,
        });
        m.write_u64(8, 99).unwrap();
        assert_eq!(m.stats().silent_null_writes, 1);
        assert_eq!(m.read_u64(8).unwrap().value, 0, "guard page stays zero");
    }

    #[test]
    fn no_trap_model_still_reserves_null() {
        let mut m = GuardedMemory::new(TrapModel::no_traps());
        let a = m.alloc(8).unwrap();
        assert!(a >= MIN_HEAP_BASE);
        assert!(GuardedMemory::is_null(0));
        assert!(!GuardedMemory::is_null(a));
    }

    #[test]
    fn near_max_address_is_wild_not_panic() {
        // `addr + 8` used to overflow here and wrap into an in-bounds slice
        // index, panicking (or worse, silently aliasing) in release builds.
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let err = m.read_u64(u64::MAX - 4).unwrap_err();
        assert!(matches!(err, MemoryError::WildAccess { .. }));
        let err = m.write_u64(u64::MAX - 7, 1).unwrap_err();
        assert!(matches!(err, MemoryError::WildAccess { .. }));
    }

    #[test]
    fn digest_tracks_heap_contents() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let a = m.alloc(16).unwrap();
        let d0 = m.digest();
        m.write_u64(a, 7).unwrap();
        let d1 = m.digest();
        assert_ne!(d0, d1, "a visible store changes the digest");
        m.write_u64(a, 7).unwrap();
        assert_eq!(m.digest(), d1, "digest is a pure function of contents");
        // Guard-region writes are discarded and must not perturb the digest.
        let mut aix = GuardedMemory::new(TrapModel {
            trap_area_bytes: 4096,
            traps_on_read: false,
            traps_on_write: false,
        });
        let b = aix.alloc(8).unwrap();
        aix.write_u64(b, 3).unwrap();
        let d = aix.digest();
        aix.write_u64(8, 99).unwrap();
        assert_eq!(aix.digest(), d);
    }

    #[test]
    fn digest_sees_paired_sign_flips() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let a = m.alloc(16).unwrap();
        m.write_u64(a, 1.5f64.to_bits()).unwrap();
        m.write_u64(a + 8, 2.5f64.to_bits()).unwrap();
        let d = m.digest();
        m.write_u64(a, (-1.5f64).to_bits()).unwrap();
        m.write_u64(a + 8, (-2.5f64).to_bits()).unwrap();
        assert_ne!(m.digest(), d, "two high-bit differences do not cancel");
    }

    #[test]
    fn headers_follow_the_layout() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let obj = m.alloc_object(ClassId::new(2), 4).unwrap();
        assert_eq!(m.read_u64(obj).unwrap().value, 3, "class id + 1");
        assert_eq!(class_from_header(3), Some(ClassId::new(2)));
        let arr = m.alloc_array(Type::Float, 5).unwrap();
        assert_eq!(arr, obj + 8, "an object takes at least one slot");
        assert_eq!(m.read_u64(arr).unwrap().value, 5);
        assert_eq!(m.read_u64(arr + 8).unwrap().value, 2);
        assert_eq!(m.footprint(), arr + ARRAY_ELEMENTS_OFFSET + 5 * 8);
        for ty in [Type::Int, Type::Float, Type::Ref] {
            assert_eq!(type_from_tag(type_tag(ty)), Some(ty));
        }
        assert_eq!(type_from_tag(0), None);
        assert_eq!(class_from_header(0), None, "a guard-page read");
        assert_eq!(class_from_header(u64::MAX), None, "no class id fits");
        assert_eq!(m.stats(), TrapStats::default(), "headers never trap");
    }

    #[test]
    fn heap_base_respects_model() {
        assert_eq!(
            GuardedMemory::new(TrapModel::windows_ia32()).heap_base(),
            4096
        );
        assert_eq!(GuardedMemory::new(TrapModel::no_traps()).heap_base(), 64);
    }

    #[test]
    fn trap_display_mentions_kind_and_address() {
        let t = HardwareTrap {
            address: 0x10,
            kind: AccessKind::Write,
        };
        assert_eq!(
            t.to_string(),
            "hardware trap: write of protected address 0x10"
        );
    }

    #[test]
    fn oversized_allocations_are_refused_before_allocating() {
        let mut m = GuardedMemory::new(TrapModel::windows_ia32());
        let before = m.footprint();
        // 16 + 8 * 2^60 fits in 64 bits but not under the ceiling;
        // 16 + 8 * 2^61 wraps to 16 in unchecked arithmetic. Both are
        // refused, not truncated.
        let err = m.alloc_slots(16, 1 << 60).unwrap_err();
        assert_eq!(err.requested, Some((1 << 63) + 16));
        assert_eq!(err.footprint, before);
        let err = m.alloc_slots(16, 1 << 61).unwrap_err();
        assert_eq!(err.requested, None);
        assert_eq!(err.footprint, before);
        // Representable but past the ceiling.
        let err = m.alloc(HEAP_LIMIT_BYTES).unwrap_err();
        assert_eq!(err.requested, Some(HEAP_LIMIT_BYTES));
        assert_eq!(m.alloc(u64::MAX).unwrap_err().requested, Some(u64::MAX));
        assert_eq!(m.footprint(), before, "a refused request allocates nothing");
        // Ordinary requests still succeed afterwards.
        let a = m.alloc_slots(16, 4).unwrap();
        assert_eq!(m.footprint(), a + 48);
    }
}
