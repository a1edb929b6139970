//! What every workload provides, and the checks they share.

use std::collections::BTreeMap;

use njc_codegen::{MValue, MachineOutcome};
use njc_vm::{Outcome, Value};
use njc_workloads::gen::Rng;

use crate::trace::Tracer;

/// Worker threads every layer is configured with. The benchmark runs its
/// ops one at a time from one process; with the VM interpreter thread
/// this keeps at most two threads busy at once.
pub const THREADS: usize = 1;

/// Counters one op contributes. `det` counters are deterministic for a
/// given seed and must repeat exactly in every round; `vol` counters
/// (host times read from the program, scheduling-dependent counts) may
/// vary; `samples` keeps volatile per-event values for percentiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    pub det: BTreeMap<&'static str, u64>,
    pub vol: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    pub fn det(&mut self, key: &'static str, v: u64) {
        *self.det.entry(key).or_default() += v;
    }

    pub fn vol(&mut self, key: &'static str, v: f64) {
        *self.vol.entry(key).or_default() += v;
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    pub fn absorb(&mut self, other: &Tally) {
        for (k, v) in &other.det {
            self.det(k, *v);
        }
        for (k, v) in &other.vol {
            self.vol(k, *v);
        }
        for (k, v) in &other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    pub fn get_det(&self, key: &str) -> u64 {
        self.det.get(key).copied().unwrap_or(0)
    }

    pub fn get_vol(&self, key: &str) -> f64 {
        self.vol.get(key).copied().unwrap_or(0.0)
    }

    pub fn get_samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Per-layer metric values a workload reports from a traced run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What the traced run measured, handed to [`Workload::layer_metrics`].
pub struct Measured<'a> {
    /// Ops timed.
    pub ops: usize,
    /// Process CPU time of each op, milliseconds.
    pub op_ms: &'a [f64],
    /// Counters summed over every op.
    pub total: &'a Tally,
    /// Counters of one round (one op per input).
    pub round: &'a Tally,
    pub tracer: &'a Tracer,
}

/// A benchmark workload: a fixed list of inputs made from the seed, one
/// timed op per input, and an untimed check of each op's output.
pub trait Workload {
    /// Output of one op, kept for its check.
    type Out;

    /// Inputs per round.
    fn len(&self) -> usize;

    /// Input display name, for failure messages.
    fn name(&self, i: usize) -> String;

    /// The timed op on input `i`: calls into the system only.
    fn run(&self, i: usize, tr: &mut Tracer) -> Self::Out;

    /// Checks `out` against input `i`'s independent reference and returns
    /// the op's counters.
    ///
    /// # Errors
    /// A description of the first check that failed.
    fn check(&self, i: usize, out: &Self::Out) -> Result<Tally, String>;

    /// Traced runs only: extra measurements around the op, recorded
    /// outside its span.
    ///
    /// # Errors
    /// A description of the first check that failed.
    fn split(&self, _i: usize, _out: &Self::Out, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics of a traced run.
    fn layer_metrics(&self, m: &Measured<'_>) -> Metrics;
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i + 1);
        items.swap(i, j);
    }
}

fn same_value(v: &Value, m: &MValue) -> bool {
    match (v, m) {
        (Value::Int(a), MValue::Int(b)) => a == b,
        (Value::Float(a), MValue::Float(b)) => a.to_bits() == b.to_bits(),
        (Value::Ref(a), MValue::Ref(b)) => a == b,
        _ => false,
    }
}

/// Checks that the byte machine observed what the VM observed: result,
/// escaped exception, and the observation trace.
///
/// # Errors
/// The first difference.
pub fn bytes_match_vm(vm: &Outcome, bytes: &MachineOutcome) -> Result<(), String> {
    if vm.exception != bytes.exception {
        return Err(format!(
            "exception: vm {:?} vs bytes {:?}",
            vm.exception, bytes.exception
        ));
    }
    let results_match = match (&vm.result, &bytes.result) {
        (None, None) => true,
        (Some(v), Some(m)) => same_value(v, m),
        _ => false,
    };
    if !results_match {
        return Err(format!(
            "result: vm {:?} vs bytes {:?}",
            vm.result, bytes.result
        ));
    }
    if vm.trace.len() != bytes.trace.len() {
        return Err(format!(
            "trace length: vm {} vs bytes {}",
            vm.trace.len(),
            bytes.trace.len()
        ));
    }
    if let Some(i) = (0..vm.trace.len()).find(|&i| !same_value(&vm.trace[i], &bytes.trace[i])) {
        return Err(format!(
            "trace[{i}]: vm {:?} vs bytes {:?}",
            vm.trace[i], bytes.trace[i]
        ));
    }
    Ok(())
}

/// Ratio `num / den`, zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
