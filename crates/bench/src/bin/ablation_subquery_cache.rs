#![allow(clippy::unwrap_used, clippy::disallowed_methods)]

//! Ablation: the §5.3.1 optimizer assumption. The ∀rows translation places
//! an uncorrelated `NOT EXISTS (SELECT * FROM rtbl ...)` in the outer WHERE
//! clause; the paper notes that "an intelligent query optimizer will
//! recognize that the inner clause needs to be evaluated only once". This
//! binary measures what happens at the server when it doesn't.

use std::time::Instant;

use pdm_obs::Recorder;
use pdm_sql::parser::parse_query;
use pdm_workload::{build_database, TreeSpec};

fn forall_sql() -> String {
    "WITH RECURSIVE rtbl (type, obid, name, dec) AS \
     (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1 \
      UNION SELECT assy.type, assy.obid, assy.name, assy.dec \
      FROM rtbl JOIN link ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid \
      UNION SELECT comp.type, comp.obid, comp.name, '' \
      FROM rtbl JOIN link ON rtbl.obid = link.left JOIN comp ON link.right = comp.obid) \
     SELECT type, obid FROM rtbl \
     WHERE NOT EXISTS (SELECT * FROM rtbl WHERE type = 'assy' AND NOT dec = '+')"
        .to_string()
}

fn main() {
    println!("∀rows uncorrelated-subquery ablation (server-side execution)");
    println!(
        "{:<12}{:>10}{:>14}{:>14}{:>12}{:>12}",
        "tree", "rows", "evals(on)", "evals(off)", "t_on(ms)", "t_off(ms)"
    );
    for (depth, branching) in [(3u32, 3u32), (4, 3), (5, 3), (4, 5)] {
        let spec = TreeSpec::new(depth, branching, 1.0).with_node_size(128);
        let query = parse_query(&forall_sql()).unwrap();

        let (db_on, _) = build_database(&spec).unwrap();
        let start = Instant::now();
        let (rs_on, stats_on) = db_on
            .query_ast_profiled(&query, &Recorder::disabled())
            .unwrap();
        let t_on = start.elapsed().as_secs_f64() * 1e3;

        let (mut db_off, _) = build_database(&spec).unwrap();
        db_off.config.subquery_cache = false;
        let start = Instant::now();
        let (rs_off, stats_off) = db_off
            .query_ast_profiled(&query, &Recorder::disabled())
            .unwrap();
        let t_off = start.elapsed().as_secs_f64() * 1e3;

        assert_eq!(rs_on.len(), rs_off.len(), "results must agree");
        println!(
            "{:<12}{:>10}{:>14}{:>14}{:>12.2}{:>12.2}",
            format!("δ{depth}β{branching}"),
            rs_on.len(),
            stats_on.subquery_evals,
            stats_off.subquery_evals,
            t_on,
            t_off
        );
    }
    println!();
    println!(
        "With the cache the NOT EXISTS body runs once per query; without it,\n\
         once per candidate row — the blow-up the paper's remark wards off."
    );
}
