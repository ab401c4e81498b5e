//! Shared helpers for the paper-reproduction binaries and the test
//! suites: the SVG plotting helper and the test-support builders.
//!
//! The report, checkpoint and sweep-harness machinery the binaries run
//! on lives in `gncg-sweep` (`gncg_sweep::{Report, harness, checkpoint}`).

pub mod svg;
pub mod testsupport;
