//! The lint passes, one module per family.

pub mod determinism;
pub mod panics;
pub mod replay;
