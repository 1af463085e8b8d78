#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pdm-workload — synthetic product structures
//!
//! The paper evaluates on complete β-ary product trees of depth δ with
//! branch-visibility probability γ (its industrial data is proprietary, so
//! the tables themselves are computed over this synthetic family — which
//! makes the generator *the* faithful workload). This crate builds such
//! trees as rows for the Figure-2 schema (`assy`, `comp`, `link`, `spec`,
//! `specified_by`) and loads them into a [`pdm_sql::Database`].
//!
//! Node payloads are padded so one transferred node occupies the paper's
//! average node size (512 bytes) on the wire, making the simulator's volume
//! accounting line up with the closed-form model.

pub mod generator;
pub mod irregular;
pub mod multisite;
pub mod openloop;
pub mod partition;
pub mod populate;
pub mod spec;
pub mod views;

pub use generator::{generate, GeneratedLink, GeneratedNode, NodeKind, ProductData};
pub use irregular::{build_irregular_database, generate_irregular, IrregularSpec};
pub use multisite::{multisite_plan, SiteOp, SiteStep};
pub use openloop::{Arrival, ArrivalClass, ClassMix, OpenLoop};
pub use partition::{partition, Mount, PartitionInfo};
pub use populate::{build_database, create_schema, populate};
pub use spec::{TreeSpec, VisibilityMode};

/// The structure option the simulated user has selected; links carrying it
/// are visible (§3.1 example 3).
pub const USER_OPTION: &str = "OPTA";

/// The structure option marking an invisible branch.
pub const OTHER_OPTION: &str = "NONE";
