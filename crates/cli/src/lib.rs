//! # gentrius-cli — command-line interface
//!
//! An IQ-TREE-2-flavoured front end to the gentrius-rs workspace:
//! stand enumeration (serial or parallel), induced-subtree extraction from
//! a species tree plus PAM, seeded dataset generation, and virtual-time
//! speedup tables. Run `gentrius help` for usage.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod pipeline;

pub use commands::{run, run_to, CliError, USAGE};
