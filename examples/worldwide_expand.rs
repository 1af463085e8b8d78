#![allow(clippy::unwrap_used)]

//! The paper's opening story, measured: the same multi-level expand takes
//! half a minute on a LAN and half an hour over an intercontinental WAN —
//! unless the client uses recursive SQL.
//!
//! ```sh
//! cargo run --release --example worldwide_expand
//! ```

use pdm_repro::core::rules::visibility_rules;
use pdm_repro::core::{Session, SessionConfig, Strategy};
use pdm_repro::net::LinkProfile;
use pdm_repro::workload::{build_database, TreeSpec};

fn main() {
    // A digital-mockup-sized structure: δ=6, β=5 → 19,530 objects.
    let spec = TreeSpec::new(6, 5, 0.6).with_node_size(512);
    let (db, data) = build_database(&spec).expect("workload builds");
    println!(
        "product structure: {} objects, {} visible to this user",
        data.total_nodes() + 1,
        data.visible_nodes() + 1
    );

    let settings = [
        ("office LAN", LinkProfile::lan()),
        ("WAN 1024 kbit/s, 50ms", LinkProfile::wan_1024()),
        ("WAN 512 kbit/s, 150ms", LinkProfile::wan_512()),
        (
            "WAN 256 kbit/s, 150ms (Germany↔Brazil)",
            LinkProfile::wan_256(),
        ),
    ];

    let mut session = Session::new(
        db,
        SessionConfig::new("scott", Strategy::LateEval, settings[0].1),
        visibility_rules(),
    );

    println!("\n{:<42}{:>16}{:>16}", "link", "navigational", "recursive");
    for (name, link) in settings {
        session.set_link(link);
        session.set_strategy(Strategy::LateEval);
        let nav = session
            .multi_level_expand(1)
            .expect("expand")
            .stats
            .response_time();
        session.set_strategy(Strategy::Recursive);
        let rec = session
            .multi_level_expand(1)
            .expect("expand")
            .stats
            .response_time();
        println!("{:<42}{:>15.1}s{:>15.1}s", name, nav, rec);
    }

    println!(
        "\nOn the LAN the navigational PDM is fine — the paper's observation\n\
         that nobody notices the problem until the server moves continents.\n\
         Over the WAN, only the recursive client stays usable."
    );
}
