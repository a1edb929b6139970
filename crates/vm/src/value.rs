//! Runtime values.

use njc_ir::Type;

/// A runtime value: 64-bit integer, 64-bit float, or reference (an address
/// in the guarded memory; `Ref(0)` is `null`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Reference (address; 0 = null).
    Ref(u64),
}

impl Value {
    /// The zero/default value of a type (Java default initialization).
    pub fn default_of(ty: Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Ref => Value::Ref(0),
        }
    }

    /// The integer payload.
    ///
    /// # Panics
    /// Panics when the value is not an [`Value::Int`] — the verifier makes
    /// this unreachable for verified functions.
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    /// Panics when the value is not a [`Value::Float`].
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(v) => v,
            other => panic!("expected float, got {other:?}"),
        }
    }

    /// The reference payload (an address).
    ///
    /// # Panics
    /// Panics when the value is not a [`Value::Ref`].
    pub fn as_ref_addr(self) -> u64 {
        match self {
            Value::Ref(a) => a,
            other => panic!("expected ref, got {other:?}"),
        }
    }

    /// The integer payload, or the [`Mismatch`] found instead. The
    /// interpreter uses this for operands of instructions that an
    /// unverified (hostile or fuzzer-generated) module may have ill-typed;
    /// the mismatch becomes a structured `VmError::IllTyped` rather than a
    /// process-killing panic.
    ///
    /// # Errors
    /// The mismatched value, rendered only when the fault is reported.
    pub fn try_int(self) -> Result<i64, Mismatch> {
        match self {
            Value::Int(v) => Ok(v),
            found => Err(Mismatch {
                expected: Type::Int,
                found,
            }),
        }
    }

    /// The float payload, or the [`Mismatch`] found instead.
    ///
    /// # Errors
    /// See [`Self::try_int`].
    pub fn try_float(self) -> Result<f64, Mismatch> {
        match self {
            Value::Float(v) => Ok(v),
            found => Err(Mismatch {
                expected: Type::Float,
                found,
            }),
        }
    }

    /// The reference payload, or the [`Mismatch`] found instead.
    ///
    /// # Errors
    /// See [`Self::try_int`].
    pub fn try_ref_addr(self) -> Result<u64, Mismatch> {
        match self {
            Value::Ref(a) => Ok(a),
            found => Err(Mismatch {
                expected: Type::Ref,
                found,
            }),
        }
    }

    /// Whether this is the null reference.
    pub fn is_null(self) -> bool {
        matches!(self, Value::Ref(0))
    }

    /// Encodes to a raw memory word.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(f) => f.to_bits(),
            Value::Ref(a) => a,
        }
    }

    /// Decodes from a raw memory word, given the static slot type.
    pub fn from_bits(bits: u64, ty: Type) -> Value {
        match ty {
            Type::Int => Value::Int(bits as i64),
            Type::Float => Value::Float(f64::from_bits(bits)),
            Type::Ref => Value::Ref(bits),
        }
    }
}

/// An operand of the wrong kind: what a `try_*` accessor expected and the
/// value it found. `Copy` and allocation-free, so the checked operand path
/// costs a tag compare; [`Display`](std::fmt::Display) renders the
/// `IllTyped` detail (`expected int, got Float(1.0)`) on the cold path only.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Mismatch {
    /// The kind the instruction required.
    pub expected: Type,
    /// The value actually in the operand.
    pub found: Value,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {}, got {:?}", self.expected, self.found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(Value::default_of(Type::Int), Value::Int(0));
        assert_eq!(Value::default_of(Type::Float), Value::Float(0.0));
        assert!(Value::default_of(Type::Ref).is_null());
    }

    #[test]
    fn bit_round_trips() {
        for (v, ty) in [
            (Value::Int(-42), Type::Int),
            (Value::Float(3.25), Type::Float),
            (Value::Ref(4096), Type::Ref),
        ] {
            assert_eq!(Value::from_bits(v.to_bits(), ty), v);
        }
    }

    #[test]
    fn null_detection() {
        assert!(Value::Ref(0).is_null());
        assert!(!Value::Ref(8).is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn mismatch_renders_the_expected_and_found_kinds() {
        assert_eq!(
            Value::Float(1.0).try_int().unwrap_err().to_string(),
            "expected int, got Float(1.0)"
        );
        assert_eq!(
            Value::Ref(8).try_float().unwrap_err().to_string(),
            "expected float, got Ref(8)"
        );
        assert_eq!(
            Value::Int(3).try_ref_addr().unwrap_err().to_string(),
            "expected ref, got Int(3)"
        );
        assert_eq!(Value::Int(3).try_int(), Ok(3));
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn wrong_kind_panics() {
        Value::Float(1.0).as_int();
    }
}
