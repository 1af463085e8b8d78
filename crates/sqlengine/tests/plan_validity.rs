#![allow(clippy::unwrap_used)]

//! Plan validity, composed: a result-cache miss runs the plan its template
//! keeps, and that plan answers what a fresh parse and compile of the text
//! answers — across DML, which keeps it, and DDL, which drops it.
//!
//! One seeded, single-threaded stream over a server mixes `query_cached`
//! reads of the nine shapes a session ships (`common::NINE_SHAPES`, under the
//! visibility and the paper rules, over random ids) and of two templates of
//! this test's own — one over a scratch table, one over a view that does not
//! exist yet — with check-out flag flips and payload UPDATEs, and, at seeded
//! points, DDL: `CREATE INDEX`, `CREATE VIEW`, `DROP TABLE` of the scratch
//! table, and its `CREATE TABLE` again with its columns the other way round.
//! After every read the result is byte for byte `query_uncached`'s (the
//! parse path), or its error text. A kept plan that outlived the shape it
//! was compiled on reads the re-created table's columns at the old ordinals.
//!
//! A second run shares one server between two reader threads under DML
//! only: a read whose storage version did not move while it ran equals the
//! parse path's.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};

use pdm_core::rules::visibility_rules;
use pdm_core::{RuleTable, SharedServer};
use pdm_obs::Recorder;
use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_sql::exec::plan::compile;
use pdm_sql::template::Templates;
use pdm_sql::Database;
use pdm_workload::views::{generate_view_links, install_view};
use pdm_workload::{build_database, TreeSpec};

/// A tree with specifications and a second structure view, and the ids of
/// its assemblies and components.
fn database() -> (Database, Vec<i64>) {
    let spec = TreeSpec::new(3, 3, 0.8)
        .with_node_size(64)
        .with_specified_fraction(0.6);
    let (mut db, data) = build_database(&spec).unwrap();
    install_view(&mut db, "flink", &generate_view_links(&data, 0.8, 7)).unwrap();
    let ids = data.nodes.iter().map(|n| n.obid).collect();
    (db, ids)
}

/// The scratch table, with one row per id; `swapped` puts its columns the
/// other way round.
fn create_scratch(server: &SharedServer, ids: &[i64], swapped: bool) {
    let (columns, row): (_, fn(i64) -> String) = if swapped {
        ("(note VARCHAR, obid INTEGER)", |id| {
            format!("('n{id}', {id})")
        })
    } else {
        ("(obid INTEGER, note VARCHAR)", |id| {
            format!("({id}, 'n{id}')")
        })
    };
    execute(server, &format!("CREATE TABLE scratch {columns}"));
    let rows: Vec<String> = ids.iter().map(|&id| row(id)).collect();
    execute(
        server,
        &format!("INSERT INTO scratch VALUES {}", rows.join(", ")),
    );
}

fn execute(server: &SharedServer, sql: &str) {
    server
        .execute_deadline_obs(sql, None, &Recorder::disabled())
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// A read the stream can make: a statement of one of the nine shapes, or
/// one of the two templates of this test.
fn read_text(rng: &mut Prng, ids: &[i64], rules: &[RuleTable]) -> String {
    let id = match rng.index(8) {
        0 => 424_242,
        _ => ids[rng.index(ids.len())],
    };
    match rng.index(12) {
        0 => format!("SELECT obid, note FROM scratch WHERE obid = {id}"),
        1 => format!(
            "SELECT obid FROM light WHERE obid = {id} OR obid < {}",
            id / 2
        ),
        shape => {
            let (_, shape, action, view) = common::NINE_SHAPES[(shape - 2) % 9];
            let rules = &rules[rng.index(rules.len())];
            let batch = [id, ids[rng.index(ids.len())], 1];
            common::shape_text(shape, action, &batch, view, rules)
        }
    }
}

/// `query_cached` answers `sql` byte for byte as the parse path does.
fn read_as_parsed(server: &SharedServer, sql: &str) {
    let parsed = server.query_uncached(sql);
    match (server.query_cached(sql), parsed) {
        (Ok(cached), Ok(parsed)) => {
            assert_eq!(*cached, parsed, "{sql}");
            assert_eq!(cached.to_string(), parsed.to_string(), "{sql}");
        }
        (Err(cached), Err(parsed)) => assert_eq!(cached.to_string(), parsed.to_string()),
        (cached, parsed) => panic!("{sql}:\n cached {cached:?}\n parsed {parsed:?}"),
    }
}

/// A flag flip or a payload UPDATE of one object.
fn dml(rng: &mut Prng, ids: &[i64]) -> String {
    let id = ids[rng.index(ids.len())];
    let table = ["assy", "comp"][rng.index(2)];
    match rng.index(3) {
        0 => format!(
            "UPDATE {table} SET payload = 'p{}' WHERE obid = {id}",
            rng.index(100)
        ),
        _ => format!(
            "UPDATE {table} SET checkedout = {} WHERE obid = {id}",
            rng.bool()
        ),
    }
}

/// The DDL of the stream, in the order it runs: the scratch table's index,
/// the view the second template reads, an index on a structure table, the
/// scratch table dropped, and created again with its columns swapped.
fn ddl(server: &SharedServer, ids: &[i64], step: usize) {
    match step {
        0 => execute(server, "CREATE INDEX ON scratch (obid)"),
        1 => execute(
            server,
            "CREATE VIEW light AS SELECT obid, name FROM assy WHERE checkedout = FALSE",
        ),
        2 => execute(server, "CREATE INDEX ON link (eff_from)"),
        3 => execute(server, "DROP TABLE scratch"),
        _ => create_scratch(server, ids, true),
    }
}

const DDL_STEPS: usize = 5;

/// What a session ships is kept: no statement of the nine shapes has a
/// decision that reads its values.
#[test]
fn no_statement_a_session_ships_is_bound_to_its_values() {
    let (db, ids) = database();
    let templates = Templates::default();
    for rules in [visibility_rules(), common::paper_rules()] {
        for (label, text) in common::nine_shape_texts(&rules, &ids[..3]) {
            let r = templates.resolve(&text).unwrap();
            let plan = compile(&db.catalog, &db.config, r.template.query(), &r.values).unwrap();
            assert!(!r.values.is_empty() && !plan.is_bound(), "{label}");
        }
    }
}

#[test]
fn kept_plans_answer_as_the_parse_path_across_dml_and_ddl() {
    let (db, ids) = database();
    let rules = [visibility_rules(), common::paper_rules()];
    cases("plan_validity", 4, 0x26, |rng| {
        let server = SharedServer::new(db.clone());
        create_scratch(&server, &ids, false);
        let ops = 240;
        // DDL at seeded points, in order, none in the first reads.
        let mut at: Vec<usize> = (0..DDL_STEPS).map(|_| 20 + rng.index(ops - 20)).collect();
        at.sort_unstable();
        let mut done = 0;
        for op in 0..ops {
            while done < DDL_STEPS && at[done] == op {
                ddl(&server, &ids, done);
                done += 1;
            }
            match rng.index(10) {
                0 | 1 => execute(&server, &dml(rng, &ids)),
                _ => read_as_parsed(&server, &read_text(rng, &ids, &rules)),
            }
        }
        // The re-created scratch table, read through its template's plan.
        for &id in &ids[..8] {
            read_as_parsed(
                &server,
                &format!("SELECT obid, note FROM scratch WHERE obid = {id}"),
            );
        }
    });
}

#[test]
fn two_readers_under_dml_read_as_the_parse_path() {
    let (db, ids) = database();
    let rules = [visibility_rules(), common::paper_rules()];
    let server = SharedServer::new(db);
    create_scratch(&server, &ids, false);
    let writing = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|reader| {
                let (server, ids, rules, writing) = (&server, &ids, &rules, &writing);
                scope.spawn(move || {
                    let mut rng = Prng::seed_from_u64(0x2600 + reader);
                    let mut compared = 0;
                    while writing.load(Ordering::Relaxed) || compared < 50 {
                        let sql = read_text(&mut rng, ids, rules);
                        let version = server.database().version();
                        let cached = server.query_cached(&sql).map(|rs| rs.to_string());
                        let parsed = server.query_uncached(&sql).map(|rs| rs.to_string());
                        if server.database().version() == version {
                            assert_eq!(
                                cached.map_err(|e| e.to_string()),
                                parsed.map_err(|e| e.to_string()),
                                "{sql}"
                            );
                            compared += 1;
                        }
                    }
                    compared
                })
            })
            .collect();
        let mut rng = Prng::seed_from_u64(0x26);
        for _ in 0..200 {
            execute(&server, &dml(&mut rng, &ids));
        }
        writing.store(false, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() >= 50);
        }
    });
}
