//! What one run observed, and the one comparison every oracle uses.
//!
//! Both executors — the IR interpreter (`njc-vm`) and the byte machine
//! (`njc-emit`) — convert their outcomes into an [`Observation`]
//! (`From` impls next to each outcome type), so the VM-vs-VM columns, the
//! byte oracle, the recovery oracle and the runtime's equivalence check
//! all compare the same channels with the same [`Observation::diff`].

use std::borrow::Cow;

use crate::{ExceptionKind, Value};

/// What one run observed: result, escaped exception, observation trace,
/// exception events, final heap digest and missed NPEs. Values compare
/// bit-exactly ([`Value`]'s equality) and references raw: within one
/// platform, every sound configuration allocates in the same order, so
/// addresses agree too.
///
/// The trace and the events borrow from the outcome they were read from
/// where its layout allows, so comparing two outcomes copies neither
/// trace; [`Self::into_owned`] detaches an observation that outlives its
/// outcome.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Observation<'a> {
    /// Return value of the entry function.
    pub result: Option<Value>,
    /// Escaping exception kind, if any.
    pub exception: Option<ExceptionKind>,
    /// Observation trace.
    pub trace: Cow<'a, [Value]>,
    /// Exception origins as (kind, observation-trace position) — the
    /// optimization-stable notion of "program point".
    pub events: Cow<'a, [(ExceptionKind, usize)]>,
    /// Digest of the final heap (valid same-platform only).
    pub heap_digest: u64,
    /// NPEs the platform silently swallowed at marked sites.
    pub missed_npes: u64,
}

/// Renders the first difference of two sequences, by index.
fn first_difference<T: PartialEq + std::fmt::Debug>(what: &str, a: &[T], b: &[T]) -> String {
    let i = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    format!(
        "{what}[{i}] {:?} vs {:?} (lengths {} vs {})",
        a.get(i),
        b.get(i),
        a.len(),
        b.len()
    )
}

impl Observation<'_> {
    /// This observation with its own copy of the trace and events.
    pub fn into_owned(self) -> Observation<'static> {
        Observation {
            trace: Cow::Owned(self.trace.into_owned()),
            events: Cow::Owned(self.events.into_owned()),
            ..self
        }
    }

    /// The comparison behind every oracle: each channel on which `self`
    /// and `other` differ, named (`exception`, `result`, `trace`,
    /// `events`, `heap-digest`, `missed-npes`, in that order) with its
    /// first difference rendered. Empty exactly when the two are equal.
    pub fn diff(&self, other: &Observation<'_>) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        if self.exception != other.exception {
            let d = format!("exception {:?} vs {:?}", self.exception, other.exception);
            out.push(("exception", d));
        }
        if self.result != other.result {
            let d = format!("result {:?} vs {:?}", self.result, other.result);
            out.push(("result", d));
        }
        if self.trace != other.trace {
            let d = first_difference("trace", &self.trace, &other.trace);
            out.push(("trace", d));
        }
        if self.events != other.events {
            let d = first_difference("events", &self.events, &other.events);
            out.push(("events", d));
        }
        if self.heap_digest != other.heap_digest {
            let d = format!(
                "heap digest {:#x} vs {:#x}",
                self.heap_digest, other.heap_digest
            );
            out.push(("heap-digest", d));
        }
        if self.missed_npes != other.missed_npes {
            let d = format!("missed NPEs {} vs {}", self.missed_npes, other.missed_npes);
            out.push(("missed-npes", d));
        }
        out
    }

    /// The first difference [`Self::diff`] finds, if any.
    pub fn mismatch(&self, other: &Observation<'_>) -> Option<String> {
        self.diff(other).into_iter().next().map(|(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_names_every_differing_channel_in_order() {
        let trace = [Value::Int(1), Value::Int(2)];
        let a = Observation {
            result: Some(Value::Int(1)),
            trace: Cow::Borrowed(&trace),
            events: Cow::Owned(vec![(ExceptionKind::NullPointer, 1)]),
            heap_digest: 7,
            ..Observation::default()
        };
        assert!(a.diff(&a.clone().into_owned()).is_empty());
        let mut b = a.clone();
        b.trace.to_mut()[1] = Value::Int(3);
        b.heap_digest = 8;
        let d = a.diff(&b);
        let names: Vec<_> = d.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["trace", "heap-digest"]);
        assert_eq!(
            a.mismatch(&b).unwrap(),
            "trace[1] Some(Int(2)) vs Some(Int(3)) (lengths 2 vs 2)"
        );
    }
}
