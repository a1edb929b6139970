//! The committed EXPERIMENTS.md against a fresh run of the paper's
//! modeled tables.
//!
//! Tables 1, 2, 6 and 7 are cost-model cycles with no host time in them,
//! so `report table1 table2 table6 table7` must reproduce each of them
//! byte for byte. Each fresh section must occur verbatim in the committed
//! file: a change that moves a modeled cycle count without regenerating
//! the report fails here.

use njc_bench::tables::{table1, table2, table6, table7};
use njc_bench::Harness;

#[test]
fn modeled_tables_occur_verbatim_in_experiments_md() {
    let committed = include_str!("../EXPERIMENTS.md");
    let mut h = Harness::new();
    for (name, generate) in [
        ("table1", table1 as fn(&mut Harness) -> String),
        ("table2", table2),
        ("table6", table6),
        ("table7", table7),
    ] {
        let section = generate(&mut h);
        let title = section.lines().next().unwrap_or_default();
        assert!(
            committed.contains(&section),
            "{name} ({title}) differs from EXPERIMENTS.md; regenerate it with `report`:\n{section}"
        );
    }
}
