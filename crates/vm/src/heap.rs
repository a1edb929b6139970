//! Object and array allocation over the guarded memory.
//!
//! The layout itself — which header word holds what, where array
//! elements start, the element type tags — lives in `njc-trap`
//! ([`GuardedMemory::alloc_object`], [`GuardedMemory::alloc_array`],
//! [`njc_trap::class_from_header`]), which the byte machine allocates
//! through too. This module adds the VM's allocation counters, its
//! element addressing and its header read ([`Heap::class_of`]).
//!
//! The header word at offset 0 doubles as the "method table pointer": a
//! virtual call reads it to dispatch, which is why a virtual call is a
//! trapping slot access at offset 0 (paper §2.1) while a devirtualized one
//! is not (Figure 1). The array length also lives at offset 0, matching the
//! paper's "the array length is required for bounds checking and its offset
//! is typically zero from the top of the object" (§3.3.1).

use njc_arch::TrapModel;
use njc_ir::module::ARRAY_ELEMENTS_OFFSET;
use njc_ir::{AccessKind, ClassId, Module, Type};
use njc_trap::{GuardedMemory, HardwareTrap, HeapExhausted, MemoryError};

/// Heap helpers over a [`GuardedMemory`].
#[derive(Debug)]
pub struct Heap {
    /// The underlying guarded memory (public: the interpreter issues raw
    /// slot accesses through it so trap semantics stay centralized).
    pub mem: GuardedMemory,
    /// Objects allocated.
    pub objects_allocated: u64,
    /// Arrays allocated.
    pub arrays_allocated: u64,
}

impl Heap {
    /// Creates a heap over the given memory.
    pub fn new(mem: GuardedMemory) -> Self {
        Heap {
            mem,
            objects_allocated: 0,
            arrays_allocated: 0,
        }
    }

    /// Allocates an object of `class`, zero-initialized, header tagged with
    /// the class id. Returns its address.
    ///
    /// # Errors
    /// [`HeapExhausted`] past the memory's ceiling.
    #[inline]
    pub fn alloc_object(&mut self, module: &Module, class: ClassId) -> Result<u64, HeapExhausted> {
        let addr = self.mem.alloc_object(class, module.class(class).size)?;
        self.objects_allocated += 1;
        Ok(addr)
    }

    /// Allocates an array of `len` elements, zero-initialized.
    ///
    /// # Errors
    /// [`HeapExhausted`] when the array's byte size overflows 64 bits or
    /// exceeds the memory's ceiling.
    #[inline]
    pub fn alloc_array(&mut self, elem: Type, len: u64) -> Result<u64, HeapExhausted> {
        let addr = self.mem.alloc_array(elem, len)?;
        self.arrays_allocated += 1;
        Ok(addr)
    }

    /// Reads an object's class id from its header.
    ///
    /// # Errors
    /// Propagates the guarded memory's trap/wild errors (the caller decides
    /// whether a trap is a legal implicit null check).
    pub fn class_of(&mut self, addr: u64) -> Result<Option<ClassId>, MemoryError> {
        let word = self.mem.read_u64(addr)?;
        if word.from_guard {
            return Ok(None);
        }
        Ok(njc_trap::class_from_header(word.value))
    }

    /// Element slot address, computed with wrapping arithmetic.
    ///
    /// This is the *legacy* addressing mode: a huge index can wrap the
    /// effective address past the guard page and silently alias mapped
    /// memory. It is kept only as an opt-in fault-injection mode for the
    /// differential harness (`VmConfig::legacy_wrapping_addressing`); real
    /// runs go through [`Self::element_addr_checked`].
    pub fn element_addr(base: u64, index: i64) -> u64 {
        base.wrapping_add(ARRAY_ELEMENTS_OFFSET)
            .wrapping_add((index as u64).wrapping_mul(8))
    }

    /// Element slot address, computed with checked arithmetic against the
    /// trap model's protected-region size.
    ///
    /// The mathematical effective address `base + 16 + 8*index` is formed
    /// in 128-bit arithmetic. When it is representable as a `u64` slot
    /// address it is returned and the ordinary guard/wild classification
    /// applies at access time (negative in-range indices still produce the
    /// address just below the elements, matching real address arithmetic).
    /// When it over- or underflows the address space, the access cannot
    /// touch mapped memory:
    ///
    /// * a base inside the protected region (a null-ish reference) raises
    ///   the [`HardwareTrap`] the guard page owes the access — on every
    ///   platform model, even one whose first-page reads are silent;
    /// * any other base is a [`MemoryError::WildAccess`] (the BigOffset
    ///   hazard, Figure 5 (1)).
    ///
    /// This is the VM's reference semantics, not what x86-64 does: the
    /// emitted `[base + index*8 + 16]` operand wraps modulo 2^64, so a null
    /// base with an index near 2^61 lands in page 0, which an AIX-like
    /// model reads silently. The byte machine runs what the bytes say, and
    /// the difftest `+bytes` column counts that split as a known gap
    /// (`byte_wrap_gaps`) rather than hiding it.
    ///
    /// # Errors
    /// [`MemoryError`] as classified above; the caller maps a trap at a
    /// marked exception site to a `NullPointerException`.
    pub fn element_addr_checked(
        base: u64,
        index: i64,
        kind: AccessKind,
        model: &TrapModel,
    ) -> Result<u64, MemoryError> {
        let ea = i128::from(base) + i128::from(ARRAY_ELEMENTS_OFFSET) + i128::from(index) * 8;
        if (0..=(u64::MAX - 7) as i128).contains(&ea) {
            return Ok(ea as u64);
        }
        let wrapped = Self::element_addr(base, index);
        if model.protects(base) {
            Err(MemoryError::Trap(HardwareTrap {
                address: wrapped,
                kind,
            }))
        } else {
            Err(MemoryError::WildAccess {
                address: wrapped,
                kind,
            })
        }
    }

    /// Slots in an object of `class` (for allocation cost accounting).
    pub fn object_slots(module: &Module, class: ClassId) -> u64 {
        module.class(class).size / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;

    fn setup() -> (Module, Heap) {
        let mut m = Module::new("t");
        m.add_class("C", &[("a", Type::Int), ("b", Type::Ref)]);
        let h = Heap::new(GuardedMemory::new(TrapModel::windows_ia32()));
        (m, h)
    }

    #[test]
    fn object_header_carries_class() {
        let (m, mut h) = setup();
        let c = m.class_by_name("C").unwrap();
        let addr = h.alloc_object(&m, c).unwrap();
        assert_eq!(h.class_of(addr).unwrap(), Some(c));
        assert_eq!(h.objects_allocated, 1);
    }

    #[test]
    fn array_header_carries_length() {
        let (_m, mut h) = setup();
        let addr = h.alloc_array(Type::Int, 5).unwrap();
        assert_eq!(h.mem.read_u64(addr).unwrap().value, 5);
        // Elements zero-initialized.
        for i in 0..5 {
            assert_eq!(
                h.mem.read_u64(Heap::element_addr(addr, i)).unwrap().value,
                0
            );
        }
    }

    #[test]
    fn null_class_read_traps() {
        let (_m, mut h) = setup();
        assert!(matches!(h.class_of(0), Err(MemoryError::Trap(_))));
    }

    #[test]
    fn null_class_read_is_silent_none_on_aix() {
        let m = Module::new("t");
        let _ = m;
        let mut h = Heap::new(GuardedMemory::new(TrapModel::aix_ppc()));
        assert_eq!(h.class_of(0).unwrap(), None);
    }

    #[test]
    fn element_addr_handles_negative_index() {
        // A negative index wraps around; the resulting address is wild and
        // the memory layer reports it.
        let a = Heap::element_addr(4096, -1);
        assert_eq!(a, 4096 + 16 - 8);
    }

    #[test]
    fn checked_addr_agrees_with_wrapping_in_range() {
        let model = TrapModel::windows_ia32();
        for (base, index) in [(4096u64, 0i64), (4096, 7), (4096, -1), (8192, 1000)] {
            assert_eq!(
                Heap::element_addr_checked(base, index, AccessKind::Read, &model).unwrap(),
                Heap::element_addr(base, index),
                "base {base} index {index}"
            );
        }
    }

    #[test]
    fn checked_addr_rejects_wrap_past_guard() {
        // base 4096, index chosen so the wrapped address lands at 128 —
        // inside the guard page, where the legacy arithmetic silently read
        // zero on AIX and took a bogus trap on Windows.
        let index = ((0u64.wrapping_sub(4096 + 16 - 128)) / 8) as i64;
        assert_eq!(Heap::element_addr(4096, index), 128, "wraps into the guard");
        for model in [
            TrapModel::windows_ia32(),
            TrapModel::aix_ppc(),
            TrapModel::linux_s390(),
        ] {
            let err =
                Heap::element_addr_checked(4096, index, AccessKind::Read, &model).unwrap_err();
            assert!(
                matches!(err, MemoryError::WildAccess { .. }),
                "non-null base overflow is wild on every model: {err:?}"
            );
        }
    }

    #[test]
    fn checked_addr_null_base_overflow_traps_on_every_model() {
        // A null array base with an index so large the address wraps: the
        // guard page owes the access a trap on every platform model.
        let index = i64::MAX / 2;
        for model in [
            TrapModel::windows_ia32(),
            TrapModel::aix_ppc(),
            TrapModel::linux_s390(),
        ] {
            let err = Heap::element_addr_checked(0, index, AccessKind::Read, &model).unwrap_err();
            assert!(matches!(err, MemoryError::Trap(_)), "{err:?}");
        }
    }
}
