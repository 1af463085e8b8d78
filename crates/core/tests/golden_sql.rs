#![allow(clippy::unwrap_used)]

//! Golden SQL snapshots: the exact text of the §5.2 recursive
//! tree-retrieval query and its §5.5 fully-modified form.
//!
//! These strings are the repository's contract with the paper. Any change
//! to the generators, the rule translator, or the SQL printer that alters
//! them is visible here as a full-text diff — intentional changes update
//! the snapshot in the same commit, accidental ones fail CI.

use pdm_core::query::modificator::Modificator;
use pdm_core::query::{navigational, recursive, T_LINK};
use pdm_core::rules::{paper_rules, ActionKind};
use pdm_sql::parser::parse_query;
use std::collections::HashSet;

/// §5.2: WITH RECURSIVE over the homogenized node projection — seed term,
/// assy descent term, comp descent term, final SELECT dropping the root.
const GOLDEN_MLE: &str = "WITH RECURSIVE rtbl (type, obid, name, dec, parent, link_id, eff_from, eff_to, strc_opt, checkedout, payload) AS \
(SELECT assy.type, assy.obid, assy.name, assy.dec AS \"dec\", CAST (NULL AS integer) AS \"parent\", CAST (NULL AS integer) AS \"link_id\", CAST (NULL AS integer) AS \"eff_from\", CAST (NULL AS integer) AS \"eff_to\", assy.strc_opt, assy.checkedout, assy.payload FROM assy WHERE assy.obid = 1 \
UNION SELECT assy.type, assy.obid, assy.name, assy.dec AS \"dec\", link.left AS \"parent\", link.obid AS \"link_id\", link.eff_from, link.eff_to, link.strc_opt, assy.checkedout, assy.payload FROM rtbl JOIN link ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid \
UNION SELECT comp.type, comp.obid, comp.name, '' AS \"dec\", link.left AS \"parent\", link.obid AS \"link_id\", link.eff_from, link.eff_to, link.strc_opt, comp.checkedout, comp.payload FROM rtbl JOIN link ON rtbl.obid = link.left JOIN comp ON link.right = comp.obid) \
SELECT type, obid, name, dec, parent, link_id, eff_from, eff_to, strc_opt, checkedout, payload FROM rtbl WHERE obid <> 1";

/// §5.5 steps A–D applied to [`GOLDEN_MLE`]: row visibility conditions in
/// every block (D), the ∃structure check in the comp term (C), and the
/// ∀rows + tree-aggregate conditions on the outer SELECT (A, B).
const GOLDEN_MLE_MODIFIED: &str = "WITH RECURSIVE rtbl (type, obid, name, dec, parent, link_id, eff_from, eff_to, strc_opt, checkedout, payload) AS \
(SELECT assy.type, assy.obid, assy.name, assy.dec AS \"dec\", CAST (NULL AS integer) AS \"parent\", CAST (NULL AS integer) AS \"link_id\", CAST (NULL AS integer) AS \"eff_from\", CAST (NULL AS integer) AS \"eff_to\", assy.strc_opt, assy.checkedout, assy.payload FROM assy WHERE assy.obid = 1 AND assy.strc_opt = 'OPTA' \
UNION SELECT assy.type, assy.obid, assy.name, assy.dec AS \"dec\", link.left AS \"parent\", link.obid AS \"link_id\", link.eff_from, link.eff_to, link.strc_opt, assy.checkedout, assy.payload FROM rtbl JOIN link ON rtbl.obid = link.left JOIN assy ON link.right = assy.obid WHERE link.strc_opt = 'OPTA' AND assy.strc_opt = 'OPTA' \
UNION SELECT comp.type, comp.obid, comp.name, '' AS \"dec\", link.left AS \"parent\", link.obid AS \"link_id\", link.eff_from, link.eff_to, link.strc_opt, comp.checkedout, comp.payload FROM rtbl JOIN link ON rtbl.obid = link.left JOIN comp ON link.right = comp.obid WHERE EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid) AND link.strc_opt = 'OPTA' AND comp.strc_opt = 'OPTA') \
SELECT type, obid, name, dec, parent, link_id, eff_from, eff_to, strc_opt, checkedout, payload FROM rtbl WHERE obid <> 1 \
AND NOT EXISTS (SELECT * FROM rtbl WHERE type = 'assy' AND NOT rtbl.dec = '+') \
AND (SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10000";

fn modified_mle() -> pdm_sql::ast::Query {
    let rules = paper_rules();
    let views = HashSet::new();
    let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
    let mut q = recursive::mle_query(1);
    m.modify_recursive(&mut q).unwrap();
    q
}

#[test]
fn recursive_query_matches_golden_snapshot() {
    assert_eq!(recursive::mle_query(1).to_string(), GOLDEN_MLE);
}

#[test]
fn fully_modified_query_matches_golden_snapshot() {
    assert_eq!(modified_mle().to_string(), GOLDEN_MLE_MODIFIED);
}

#[test]
fn golden_snapshots_reparse_to_the_generated_asts() {
    // The snapshots are not just strings: parsed back, they reproduce the
    // exact ASTs the pipeline built (printer and parser stay symmetric).
    assert_eq!(parse_query(GOLDEN_MLE).unwrap(), recursive::mle_query(1));
    assert_eq!(parse_query(GOLDEN_MLE_MODIFIED).unwrap(), modified_mle());
}

/// Every query the pipeline ships — generator output and both modificator
/// paths — must survive print→parse unchanged.
#[test]
fn pipeline_queries_round_trip() {
    let rules = paper_rules();
    let views = HashSet::new();
    let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
    let mut nav = navigational::expand_query_in(42, T_LINK);
    m.modify_navigational(&mut nav).unwrap();

    for q in [
        navigational::expand_query_in(42, T_LINK),
        navigational::expand_many_query(&[1, 2, 3], "link"),
        navigational::query_all_query(1),
        navigational::fetch_node_query(7),
        recursive::mle_query(1),
        recursive::mle_query_in(1, T_LINK, true),
        modified_mle(),
        nav,
    ] {
        let sql = q.to_string();
        let reparsed = parse_query(&sql).unwrap();
        assert_eq!(q, reparsed, "round-trip mismatch for: {sql}");
    }
}
