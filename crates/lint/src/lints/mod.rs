//! The lint passes, one module per family.

pub mod determinism;
pub mod locks;
pub mod panics;
pub mod replay;
