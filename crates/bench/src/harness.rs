//! Measurement harness: runs workload × configuration cells and caches
//! results so the table and figure generators can share them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use njc_arch::Platform;
use njc_jit::{compile, execute, jbm_index, spec_seconds};
use njc_opt::{ConfigKind, PipelineStats};
use njc_vm::RunStats;
use njc_workloads::{Suite, Workload};

/// One measured (workload, platform, configuration) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// The suite metric: jBYTEmark index (larger better) or SPECjvm98
    /// seconds (smaller better).
    pub metric: f64,
    /// VM statistics.
    pub run: RunStats,
    /// Pipeline statistics (per-pass wall timings included).
    pub compile: PipelineStats,
    /// Total compile wall time.
    pub compile_wall: Duration,
    /// Interpreter wall time (host clock, for Table 3's first-run split).
    pub exec_wall: Duration,
}

/// Cached measurements.
#[derive(Default)]
pub struct Harness {
    cells: HashMap<(String, &'static str, ConfigKind), Cell>,
}

impl Harness {
    /// Creates an empty harness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Measures (or returns the cached measurement of) one cell.
    ///
    /// # Panics
    /// Panics if the optimized program faults — a compiler bug that the
    /// integration tests would also catch.
    pub fn measure(&mut self, w: &Workload, p: &Platform, kind: ConfigKind) -> Cell {
        let key = (w.name.to_string(), p.name, kind);
        if let Some(c) = self.cells.get(&key) {
            return c.clone();
        }
        let compiled = compile(w, p, kind);
        let t = Instant::now();
        let out = execute(&compiled, p)
            .unwrap_or_else(|f| panic!("{} [{kind:?}] on {}: {f}", w.name, p.name));
        let exec_wall = t.elapsed();
        assert!(
            out.exception.is_none(),
            "{} escaped with {:?}",
            w.name,
            out.exception
        );
        let metric = match w.suite {
            Suite::JByteMark | Suite::Micro => jbm_index(w.work_units, out.stats.cycles, p),
            Suite::SpecJvm98 => spec_seconds(out.stats.cycles, p),
        };
        let cell = Cell {
            cycles: out.stats.cycles,
            metric,
            run: out.stats,
            compile: compiled.stats,
            compile_wall: compiled.wall,
            exec_wall,
        };
        self.cells.insert(key, cell.clone());
        cell
    }

    /// Measures a whole row (one configuration across workloads).
    pub fn measure_row(
        &mut self,
        workloads: &[Workload],
        p: &Platform,
        kind: ConfigKind,
    ) -> Vec<Cell> {
        workloads.iter().map(|w| self.measure(w, p, kind)).collect()
    }
}

/// Percentage improvement of `new` over `base` for a larger-is-better
/// metric.
pub fn improvement_up(new: f64, base: f64) -> f64 {
    (new / base - 1.0) * 100.0
}

/// Percentage improvement of `new` over `base` for a smaller-is-better
/// metric (positive when `new` is smaller).
pub fn improvement_down(new: f64, base: f64) -> f64 {
    (base / new - 1.0) * 100.0
}

/// Simple fixed-width text table builder.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .chain(std::iter::once(&self.header))
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |row: &[String]| {
            let mut s = String::new();
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("{:>w$}", c, w = widths[i]));
                }
            }
            s.push('\n');
            s
        };
        let mut out = fmt_row(&self.header);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
        }
        out
    }
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float as a signed percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvements() {
        assert!((improvement_up(150.0, 100.0) - 50.0).abs() < 1e-9);
        assert!((improvement_down(8.0, 10.0) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(vec!["name".into(), "v".into()]);
        t.row(vec!["longer-name".into(), "3.14".into()]);
        let s = t.render();
        assert!(s.contains("longer-name"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn harness_caches_cells() {
        let mut h = Harness::new();
        let w = &njc_workloads::jbytemark()[4]; // Fourier (small)
        let p = Platform::windows_ia32();
        let a = h.measure(w, &p, ConfigKind::Full);
        let b = h.measure(w, &p, ConfigKind::Full);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(h.cells.len(), 1);
    }
}
