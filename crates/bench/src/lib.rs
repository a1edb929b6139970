//! # njc-bench — the paper's evaluation, regenerated
//!
//! One generator per table and figure of the paper's §5 (see
//! [`tables`]), driven by the measurement [`harness`] against the
//! [`paper`] reference numbers. The `report` binary regenerates
//! everything, or only the artifacts it is given by name
//! ([`tables::ARTIFACTS`]):
//!
//! ```text
//! cargo run --release -p njc-bench --bin report   # writes EXPERIMENTS.md content
//! cargo run --release -p njc-bench --bin report -- table1 fig8
//! ```
//!
//! Every binary here and `njc` read their command line through [`cli`].

pub mod claims;
pub mod cli;
pub mod difftest;
pub mod harness;
pub mod paper;
pub mod recover;
pub mod runtime_diff;
pub mod tables;

pub use harness::{Cell, Harness};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_generator_produces_paper_and_measured_rows() {
        let mut h = Harness::new();
        let s = tables::fig8(&mut h);
        assert!(s.contains("[measured]"));
        assert!(s.contains("[paper]"));
        assert!(s.contains("Assignment"));
        assert!(s.contains("New Null Check (Phase1+Phase2)"));
    }

    #[test]
    fn table5_reports_an_average() {
        let mut h = Harness::new();
        let s = tables::table5(&mut h);
        assert!(s.contains("Measured average"));
        assert!(s.contains("paper: +2.3%"));
    }
}
