//! # cohana-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (§5):
//!
//! | Experiment | Paper artifact | Function |
//! |------------|----------------|----------|
//! | `table2`   | Table 2 (plain GROUP BY weekly trend) | [`experiments::table2`] |
//! | `table3`   | Table 3 / Figure 1 (cohort matrix) | [`experiments::table3`] |
//! | `fig6`     | Figure 6 (COHANA vs chunk size, Q1–Q4, scales) | [`experiments::fig6`] |
//! | `fig7`     | Figure 7 (storage vs chunk size) | [`experiments::fig7`] |
//! | `fig8`     | Figure 8 (birth-selection selectivity) | [`experiments::fig8`] |
//! | `fig9`     | Figure 9 (age-selection selectivity) | [`experiments::fig9`] |
//! | `fig10`    | Figure 10 (MV generation vs compression time) | [`experiments::fig10`] |
//! | `fig11`    | Figure 11 (five evaluation schemes, Q1–Q4, scales) | [`experiments::fig11`] |
//! | `ablation` | DESIGN.md D1–D4 optimization ablations | [`experiments::ablation`] |
//! | `parallel` | extension: chunk-parallel speedup | [`experiments::parallel`] |
//!
//! The `cohana-bench` binary drives them (`cohana-bench --exp fig11`); the
//! ids are the keys of [`experiments::EXPERIMENTS`].
//!
//! Every measurement has exactly one home. Paper figures live here, as
//! `--exp` experiments. Engine-layer measurements (`storage`, `decode`,
//! `lazy_io`, `scan_throughput`, `morsel_scheduler`, `ingest`,
//! `sharded_ingest`, `serving`) live only as criterion targets in
//! `benches/`, which share this crate's [`report::record_line`],
//! [`datasets::time_slices`] and [`timing::percentile`]. End-to-end
//! workloads live in the separate `perfbench/` workspace.
//!
//! Absolute times differ from the paper's testbed; the harness is about
//! reproducing the *shape*: who wins, by how many orders of magnitude, and
//! how costs move with scale, chunk size, and selectivity.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod timing;

pub use datasets::{BenchConfig, DatasetCache};
pub use report::ExperimentResult;
pub use timing::time_once;
