//! The ACACIA simulator's benchmark: three workloads run through the
//! public scenario API of `acacia`, host-time and simulated-fidelity
//! metrics end to end, and a traced run that attributes host time to the
//! layers (`core`, `simnet`, `simnet.link`, `lte`, `lte.wire`,
//! `core.msg`, `vision`) by timing the benchmark's own calls into them.
//!
//! Run it with `python3 perfbench/run.py --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` from the repository root; see `main.rs`
//! for every mode.

pub mod checks;
pub mod kernels;
pub mod measure;
pub mod metrics;
pub mod orchestrate;
pub mod sample;
pub mod workload;
