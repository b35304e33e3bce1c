//! The circlekit benchmark: drives the real `circlekit serve` daemon with
//! seeded closed-loop workloads, checks every answer against the offline
//! scorer, and replays each run's inputs through the crates' public
//! functions for per-layer numbers. See `README.md` in this directory.

pub mod check;
pub mod corpus;
pub mod daemon;
pub mod load;
pub mod percentile;
pub mod replay;
pub mod report;
pub mod trace;
pub mod workload;
