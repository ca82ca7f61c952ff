//! The repository benchmark's building blocks: engine set-up from generated
//! inputs, load generation, outside-in tracing and metric assembly. The
//! `perfbench` binary strings them into the three workloads.

pub mod drive;
pub mod report;
pub mod setup;
pub mod sys;
pub mod trace;
