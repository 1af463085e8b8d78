#![allow(clippy::unwrap_used)]

//! The §6 check-out workflow over the WAN: retrieve a subtree for exclusive
//! update, observe the extra UPDATE round trips that one recursive query
//! cannot absorb, then compare against the paper's function-shipping
//! remedy — and watch a concurrent check-out get refused.
//!
//! ```sh
//! cargo run --example checkout_workflow
//! ```

use pdm_repro::core::rules::condition::{CmpOp, Condition, RowPredicate};
use pdm_repro::core::rules::{visibility_rules, ActionKind, Rule};
use pdm_repro::core::{RuleTable, Session, SessionConfig, Strategy};
use pdm_repro::net::LinkProfile;
use pdm_repro::workload::{build_database, TreeSpec};

fn rules() -> RuleTable {
    let mut t = visibility_rules();
    // The paper's example 2: check-out requires every node checked in.
    t.add(Rule::for_all_users(
        ActionKind::CheckOut,
        "assy",
        Condition::ForAllRows {
            object_type: None,
            predicate: RowPredicate::compare("checkedout", CmpOp::Eq, false),
        },
    ));
    t
}

fn main() {
    let spec = TreeSpec::new(3, 4, 1.0).with_node_size(512);
    let (db, _) = build_database(&spec).expect("workload builds");
    let mut session = Session::new(
        db,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_256()),
        rules(),
    );

    // --- classic check-out: recursive retrieval + separate UPDATEs -------
    let out = session.check_out(1).expect("check-out runs");
    let tree = out.tree.expect("nothing was checked out yet");
    println!(
        "classic check-out: {} objects locked, {} communications \
         ({} update round trips), T = {:.2}s",
        tree.len(),
        out.stats.communications,
        out.update_round_trips,
        out.stats.response_time()
    );

    // --- a second user cannot check out the same subtree ----------------
    let denied = session.check_out(2).expect("check-out runs");
    match denied.tree {
        None => println!("second check-out of an overlapping subtree: refused ✓"),
        Some(_) => unreachable!("the ∀rows condition must refuse this"),
    }

    // --- check the subtree back in ---------------------------------------
    let released = session.check_in(&tree).expect("check-in runs");
    println!("check-in released {released} objects");

    // --- function shipping (§6's remedy): one round trip ------------------
    let out = session
        .check_out_function_shipping(1)
        .expect("procedure runs");
    let tree = out.tree.expect("available again after check-in");
    println!(
        "function-shipped check-out: {} objects locked, {} communications, T = {:.2}s",
        tree.len(),
        out.stats.communications,
        out.stats.response_time()
    );
    session.check_in(&tree).expect("cleanup");

    println!(
        "\nThe retrieval itself is one recursive query either way; the win of\n\
         function shipping is folding the ∀rows verification and the flag\n\
         updates into the same WAN exchange."
    );
}
