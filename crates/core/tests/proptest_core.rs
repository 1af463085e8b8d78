#![allow(clippy::unwrap_used)]

//! Property-based tests on the PDM layer. The central property is the one
//! the whole paper rests on: **the three strategies are semantically
//! equivalent** — late evaluation, early evaluation, and the recursive
//! query return the same visible tree for any product structure, rule
//! selectivity, and user — they only differ in traffic.
//!
//! Uses the in-repo `pdm_prng::check` harness (explicit generator loops)
//! instead of proptest, which the offline build cannot fetch.

use pdm_prng::check::cases;
use pdm_prng::Prng;
use std::collections::{BTreeMap, HashMap, VecDeque};

use pdm_core::client::{permission_groups, permitted, row_attrs, NodeShape};
use pdm_core::functions::client_registry;
use pdm_core::query::prepared::Shape;
use pdm_core::query::{T_ASSY, T_COMP, T_LINK};
use pdm_core::rules::condition::{CmpOp, Condition, RowPredicate};
use pdm_core::rules::{visibility_rules, ActionKind, Rule};
use pdm_core::{
    Federation, MountPoint, ProductNode, ProductTree, RuleTable, Session, SessionConfig,
    Strategy as ClientStrategy,
};
use pdm_net::LinkProfile;
use pdm_obs::kinds;
use pdm_obs::metrics::families;
use pdm_sql::{Column, DataType, ResultSet, Row, Schema, Value};
use pdm_workload::{build_database, generate, partition, TreeSpec, VisibilityMode};

fn arb_spec(rng: &mut Prng) -> TreeSpec {
    let depth = rng.u32_inclusive(2, 4);
    let branching = rng.u32_inclusive(2, 4);
    let gamma = rng.f64_range(0.2, 1.0);
    let seed = rng.u64_inclusive(0, 499);
    let vis = if rng.bool() {
        VisibilityMode::Random { seed }
    } else {
        VisibilityMode::Deterministic
    };
    TreeSpec::new(depth, branching, gamma)
        .with_node_size(128)
        .with_visibility(vis)
        .with_attribute_seed(seed)
}

/// Strategy equivalence: identical trees under all three strategies,
/// with the traffic ordering the paper predicts.
#[test]
fn strategies_agree_and_traffic_orders() {
    cases("strategies_agree_and_traffic_orders", 32, 0x21, |rng| {
        let spec = arb_spec(rng);
        let mut trees = Vec::new();
        let mut stats = Vec::new();
        for strategy in ClientStrategy::ALL {
            let (db, _) = build_database(&spec).unwrap();
            let mut s = Session::new(
                db,
                SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
                visibility_rules(),
            );
            let out = s.multi_level_expand(1).unwrap();
            trees.push(out.tree.node_ids().collect::<Vec<_>>());
            stats.push(out.stats);
        }
        assert_eq!(&trees[0], &trees[1], "late vs early tree mismatch");
        assert_eq!(&trees[0], &trees[2], "late vs recursive tree mismatch");

        let (late, early, rec) = (&stats[0], &stats[1], &stats[2]);
        // early never ships more payload, never uses more queries
        assert!(early.response_payload_bytes <= late.response_payload_bytes);
        assert_eq!(early.queries, late.queries);
        // recursive is always exactly one query / two communications
        assert_eq!(rec.queries, 1);
        assert_eq!(rec.communications, 2);
        // and never slower than navigational late evaluation
        assert!(rec.response_time() <= late.response_time() + 1e-9);
    });
}

/// Client-side (late) and server-side (SQL) evaluation of a random row
/// predicate agree on every row — the property that makes late and
/// early evaluation interchangeable.
#[test]
fn predicate_eval_agrees_client_and_server() {
    cases("predicate_eval_agrees_client_and_server", 32, 0x22, |rng| {
        let n = rng.usize_inclusive(1, 19);
        let rows: Vec<(i64, i64, bool)> = (0..n)
            .map(|_| {
                (
                    rng.i64_inclusive(0, 19),
                    rng.i64_inclusive(0, 19),
                    rng.bool(),
                )
            })
            .collect();
        let bound_a = rng.i64_inclusive(0, 19);
        let bound_b = rng.i64_inclusive(0, 19);
        let flip = rng.bool();

        // Table with three attributes.
        let mut db = pdm_sql::Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER, c BOOLEAN)")
            .unwrap();
        for (a, b, c) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({a}, {b}, {c})"))
                .unwrap();
        }

        // Random predicate: (a < A AND c = flip) OR b >= B
        let pred = RowPredicate::compare("a", CmpOp::Lt, bound_a)
            .and(RowPredicate::compare("c", CmpOp::Eq, flip))
            .or(RowPredicate::compare("b", CmpOp::GtEq, bound_b));

        // Server-side: translate to SQL.
        let sql_pred = pdm_core::rules::translate::row_predicate_expr(&pred, "t");
        let rs = db
            .query(&format!("SELECT a, b, c FROM t WHERE {sql_pred}"))
            .unwrap();
        let server_count = rs.len();

        // Client-side: evaluate on attribute maps.
        let funcs = pdm_core::functions::client_registry();
        let client_count = rows
            .iter()
            .filter(|(a, b, c)| {
                let attrs: HashMap<String, Value> = [
                    ("a".to_string(), Value::Int(*a)),
                    ("b".to_string(), Value::Int(*b)),
                    ("c".to_string(), Value::Bool(*c)),
                ]
                .into_iter()
                .collect();
                pred.eval(&attrs, &funcs)
            })
            .count();

        assert_eq!(server_count, client_count);
    });
}

/// The recursive query produced by the modificator re-parses and returns
/// the same rows when executed twice (engine determinism through the
/// full rule pipeline).
#[test]
fn modified_query_is_deterministic() {
    cases("modified_query_is_deterministic", 32, 0x23, |rng| {
        use pdm_core::query::{modificator::Modificator, recursive};
        let spec = arb_spec(rng);
        let (db, _) = build_database(&spec).unwrap();
        let server = pdm_core::PdmServer::new(db);
        let rules = visibility_rules();
        let views = std::collections::HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = recursive::mle_query(1);
        m.modify_recursive(&mut q).unwrap();
        let sql = q.to_string();
        let a = server.query(&sql).unwrap();
        let b = server.query(&sql).unwrap();
        assert_eq!(a.len(), b.len());
        // reparse gives the same AST
        let reparsed = pdm_sql::parser::parse_query(&sql).unwrap();
        assert_eq!(q, reparsed);
    });
}

/// Traffic accounting is self-consistent: elapsed time equals the stats'
/// response time, and volume ≥ payload.
#[test]
fn traffic_accounting_consistent() {
    cases("traffic_accounting_consistent", 32, 0x24, |rng| {
        let spec = arb_spec(rng);
        let (db, _) = build_database(&spec).unwrap();
        let mut s = Session::new(
            db,
            SessionConfig::new("scott", ClientStrategy::EarlyEval, LinkProfile::wan_512()),
            visibility_rules(),
        );
        let out = s.multi_level_expand(1).unwrap();
        assert!((s.elapsed() - out.stats.response_time()).abs() < 1e-9);
        assert!(out.stats.volume_bytes >= out.stats.response_payload_bytes as f64);
        assert_eq!(out.stats.communications, 2 * out.stats.queries);
    });
}

/// The attribute-map oracle a result row became a node through before
/// `NodeShape`: hash every column name into a map, then read four of them
/// back by name.
fn node_by_names(rs: &ResultSet, row: &Row, parent: Option<i64>) -> ProductNode {
    let attrs = row_attrs(rs, row);
    let id = |v: Option<&Value>| match v {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    };
    let text = |v: Option<&Value>| match v {
        Some(Value::Text(t)) => t.clone(),
        _ => String::new(),
    };
    ProductNode {
        obid: id(attrs.get("obid")).unwrap_or_default(),
        parent: parent.or_else(|| id(attrs.get("parent"))),
        type_name: text(attrs.get("type")),
        name: text(attrs.get("name")),
        attrs,
    }
}

/// A node with its values spelled out: `Value`'s own equality holds an
/// `Int` equal to the `Float` of the same number, and a position left in
/// place of a value must not pass for it.
fn spelled(node: &ProductNode) -> String {
    let attrs: BTreeMap<&String, String> = node
        .attrs
        .iter()
        .map(|(k, v)| (k, format!("{v:?}")))
        .collect();
    format!(
        "{} {:?} {:?} {:?} {attrs:?}",
        node.obid, node.parent, node.type_name, node.name
    )
}

fn arb_value(rng: &mut Prng) -> Value {
    match rng.index(6) {
        0 => Value::Null,
        // Small integers collide with column positions on purpose.
        1 => Value::Int(rng.i64_inclusive(-2, 15)),
        2 => Value::Float(rng.i64_inclusive(-2, 15) as f64),
        3 => Value::Float(rng.f64_range(-1e6, 1e6)),
        4 => Value::Text(rng.ident(0, 6)),
        _ => Value::Bool(rng.bool()),
    }
}

fn schema_of(names: &[&str], dtype: DataType) -> Schema {
    Schema::new(names.iter().map(|n| Column::new(*n, dtype)).collect())
}

/// A row becomes the node the attribute-map oracle builds — for schemas of
/// 0–14 columns over a small name pool (so names repeat), with and without
/// each of `obid`, `type`, `name` and `parent`, every `Value` variant in
/// every position and any `parent` argument — and a kept shape is reused
/// exactly when a result's column names equal its own, in order.
#[test]
fn node_shape_matches_the_attribute_map_oracle() {
    const SPECIAL: [&str; 4] = ["obid", "type", "name", "parent"];
    const PLAIN: [&str; 4] = ["strc_opt", "dec", "payload", "x"];
    let mut kept = NodeShape::default();
    cases(
        "node_shape_matches_the_attribute_map_oracle",
        512,
        0x25,
        |rng| {
            let mut pool: Vec<&str> = PLAIN.to_vec();
            pool.extend(SPECIAL.iter().filter(|_| rng.bool()));
            let width = rng.usize_inclusive(0, 14);
            let names: Vec<&str> = (0..width).map(|_| pool[rng.index(pool.len())]).collect();

            // The reuse rule: the same names (whatever their types) keep the
            // shape; a renamed, reordered, longer or shorter list rebuilds it.
            let mut other = names.clone();
            match rng.index(5) {
                0 => {}
                1 if !other.is_empty() => {
                    let i = rng.index(other.len());
                    other[i] = if other[i] == "x" { "obid" } else { "x" };
                }
                2 if other.len() >= 2 => {
                    let (i, j) = (rng.index(other.len()), rng.index(other.len()));
                    other.swap(i, j);
                }
                3 => other.push(SPECIAL[rng.index(SPECIAL.len())]),
                _ => {
                    other.pop();
                }
            }
            let before = kept.names().to_vec();
            let rebuilt = kept.refit(&schema_of(&names, DataType::Text));
            assert_eq!(rebuilt, before != names, "{before:?} → {names:?}");
            assert_eq!(kept.names(), names.as_slice());
            let rebuilt = kept.refit(&schema_of(&other, DataType::Int));
            assert_eq!(rebuilt, names != other, "{names:?} → {other:?}");
            assert_eq!(kept.names(), other.as_slice());

            for names in [&names, &other] {
                let rows: Vec<Row> = (0..rng.usize_inclusive(1, 4))
                    .map(|_| Row::new((0..names.len()).map(|_| arb_value(rng)).collect()))
                    .collect();
                let rs = ResultSet::new(schema_of(names, DataType::Text), rows);
                kept.refit(&rs.schema);
                let fresh = NodeShape::new(&rs.schema);
                for row in &rs.rows {
                    let parent = rng.bool().then(|| rng.i64_inclusive(-2, 15));
                    let want = spelled(&node_by_names(&rs, row, parent));
                    assert_eq!(spelled(&kept.node(row, parent)), want, "{names:?} {row}");
                    assert_eq!(spelled(&fresh.node(row, parent)), want, "{names:?} {row}");
                    let obid = match row_attrs(&rs, row).get("obid") {
                        Some(Value::Int(i)) => Some(*i),
                        _ => None,
                    };
                    assert_eq!(kept.obid(row), obid);
                }
            }
        },
    );
}

/// A rule table that filters late: the visibility rules, and at random a
/// `dec` rule on assemblies and an `obid` bound on components (so a
/// component can be dropped for its own attributes, not only its link's).
fn arb_late_rules(rng: &mut Prng) -> RuleTable {
    let mut rules = visibility_rules();
    if rng.bool() {
        rules.add(Rule::for_all_users(
            ActionKind::Access,
            T_ASSY,
            Condition::Row(RowPredicate::compare("dec", CmpOp::Eq, "+")),
        ));
    }
    if rng.bool() {
        let bound = rng.i64_inclusive(2, 120);
        rules.add(Rule::for_all_users(
            ActionKind::Access,
            T_COMP,
            Condition::Row(RowPredicate::compare("obid", CmpOp::Lt, bound)),
        ));
    }
    rules
}

/// The eager path a retrieval took before its nodes stayed rows: ship the
/// session's own statement, build a node from every row, then keep the
/// ones `permitted` passes under the late strategy. Returns the nodes and
/// the number of rows transferred.
fn eager_nodes(
    s: &mut Session,
    shape: Shape,
    ids: &[i64],
    action: ActionKind,
    tables: &[&str],
    parent: Option<i64>,
) -> (Vec<ProductNode>, usize) {
    let sql = s.statement(shape, action, ids).unwrap();
    let rs = s.server().query(&sql).unwrap();
    let node_shape = NodeShape::new(&rs.schema);
    let late = !s.config().strategy.early_rules();
    let groups = permission_groups(s.rules(), &s.config().user, action, tables);
    let funcs = client_registry();
    let nodes = rs
        .rows
        .iter()
        .map(|row| node_shape.node(row, parent))
        .filter(|node| !late || permitted(&node.attrs, &groups, &funcs))
        .collect();
    (nodes, rs.len())
}

/// How an expand assembles its tree.
#[derive(Debug, Clone, Copy)]
enum Expand {
    /// The direct children only (single-level expand).
    Single,
    /// The session's multi-level expand: per-node statements
    /// (navigational) or one recursive statement.
    Multi,
    /// One IN-list statement per level.
    Batched,
}

/// A tree holding the unmetered root row as a node.
fn eager_root(s: &mut Session, root: i64) -> ProductTree {
    let mut tree = ProductTree::new();
    let sql = s
        .statement(Shape::FetchNode, ActionKind::Access, &[root])
        .unwrap();
    let rs = s.server().query(&sql).unwrap();
    tree.insert(NodeShape::new(&rs.schema).node(&rs.rows[0], None));
    tree
}

/// The tree the eager path assembled for `root`: the unmetered root row,
/// then the rows of `how`'s statements as nodes.
fn eager_tree(s: &mut Session, root: i64, how: Expand) -> ProductTree {
    let tables = [T_LINK, T_ASSY, T_COMP];
    let mle = ActionKind::MultiLevelExpand;
    let mut tree = eager_root(s, root);
    let recursive = s.config().strategy == ClientStrategy::Recursive;
    match how {
        Expand::Single => {
            let action = ActionKind::Expand;
            let (nodes, _) = eager_nodes(s, Shape::Expand, &[root], action, &tables, Some(root));
            nodes.into_iter().for_each(|n| tree.insert(n));
        }
        Expand::Multi if recursive => {
            let shape = Shape::Mle {
                include_root: false,
            };
            let (nodes, _) = eager_nodes(s, shape, &[root], mle, &tables, None);
            nodes.into_iter().for_each(|n| tree.insert(n));
        }
        Expand::Multi => {
            let mut queue = VecDeque::from([root]);
            while let Some(parent) = queue.pop_front() {
                let (nodes, _) =
                    eager_nodes(s, Shape::Expand, &[parent], mle, &tables, Some(parent));
                queue.extend(nodes.iter().map(|n| n.obid));
                nodes.into_iter().for_each(|n| tree.insert(n));
            }
        }
        Expand::Batched => {
            let mut frontier = vec![root];
            while !frontier.is_empty() {
                let (nodes, _) = eager_nodes(s, Shape::ExpandMany, &frontier, mle, &tables, None);
                frontier = nodes.iter().map(|n| n.obid).collect();
                nodes.into_iter().for_each(|n| tree.insert(n));
            }
        }
    }
    tree
}

/// A tree spelled out node by node, with each node's children in order.
fn spelled_tree(tree: &ProductTree) -> Vec<String> {
    let mut lines = vec![format!("root {:?}", tree.root())];
    lines.extend(
        tree.nodes()
            .map(|n| format!("{} → {:?}", spelled(n), tree.children(n.obid))),
    );
    lines
}

/// A Query action's row-backed nodes are the nodes the eager path built —
/// a node from every shipped row, then `permitted` under late evaluation —
/// for random trees, every strategy and rule tables that filter late; its
/// ids read by position are those nodes' ids; the γ counters and the
/// `LATE_FILTER` span count what the eager filter kept; and every expand
/// still assembles the eager path's tree.
#[test]
fn query_rows_match_the_eager_node_oracle() {
    // Late Query actions that dropped some shipped rows and kept others.
    let mut filtered = 0;
    cases("query_rows_match_the_eager_node_oracle", 32, 0x26, |rng| {
        let spec = arb_spec(rng);
        let rules = arb_late_rules(rng);
        for strategy in ClientStrategy::ALL {
            let (db, _) = build_database(&spec).unwrap();
            let mut s = Session::new(
                db,
                SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
                rules.clone(),
            );
            s.enable_profiling();

            let out = s.query_all(1).unwrap();
            let spans = s.recorder().spans();
            let late: Vec<_> = spans
                .iter()
                .filter(|span| span.kind == kinds::LATE_FILTER)
                .map(|span| (span.label.as_str(), span.rows_in, span.rows_out))
                .collect();
            let metrics = s.metrics().snapshot();
            let gamma = (
                metrics.counter(families::SESSION_ROWS_KEPT),
                metrics.counter(families::SESSION_ROWS_FILTERED_LATE),
            );

            let (want, shipped) = eager_nodes(
                &mut s,
                Shape::QueryAll,
                &[1],
                ActionKind::Query,
                &[T_ASSY, T_COMP],
                None,
            );
            let spell = |nodes: &[ProductNode]| nodes.iter().map(spelled).collect::<Vec<_>>();
            let got: Vec<ProductNode> = out.nodes.iter().collect();
            assert_eq!(spell(&got), spell(&want), "{strategy:?}");
            assert_eq!(out.nodes.len(), want.len());
            assert_eq!(out.nodes.rows().len(), shipped, "{strategy:?}");
            for (i, node) in want.iter().enumerate() {
                assert_eq!(out.nodes.get(i).as_ref().map(spelled), Some(spelled(node)));
            }
            assert_eq!(out.nodes.get(want.len()), None);
            assert_eq!(
                out.nodes.obids().collect::<Vec<_>>(),
                out.nodes.iter().map(|n| n.obid).collect::<Vec<_>>()
            );

            let (kept, transferred) = (want.len() as u64, shipped as u64);
            if strategy.early_rules() {
                assert_eq!(late, vec![], "{strategy:?}");
                assert_eq!(gamma, (0, 0), "{strategy:?}");
            } else {
                assert_eq!(late, vec![("query_all", transferred, kept)]);
                assert_eq!(gamma, (kept, transferred - kept));
                filtered += usize::from(0 < kept && kept < transferred);
            }

            for how in [Expand::Single, Expand::Multi, Expand::Batched] {
                let tree = match how {
                    Expand::Single => s.single_level_expand(1),
                    Expand::Multi => s.multi_level_expand(1),
                    Expand::Batched => s.multi_level_expand_batched(1),
                }
                .unwrap()
                .tree;
                assert_eq!(
                    spelled_tree(&tree),
                    spelled_tree(&eager_tree(&mut s, 1, how)),
                    "{strategy:?} {how:?}"
                );
            }
        }
    });
    assert!(
        filtered >= 16,
        "only {filtered} of 32 late Query actions filtered"
    );
}

/// The check-in's id split of a tree: its assemblies' and components' ids.
fn id_split<'a>(typed: impl Iterator<Item = (i64, &'a str)>) -> [Vec<i64>; 2] {
    let mut split = [Vec::new(), Vec::new()];
    for (obid, type_name) in typed {
        match type_name {
            "assy" => split[0].push(obid),
            "comp" => split[1].push(obid),
            _ => {}
        }
    }
    split
}

/// Holds a tree that keeps its rows to the eager tree of the same
/// retrievals: its structure, ids and types are read before any node and
/// equal the eager tree's, then every node equals the one the eager path
/// built from its row. A clone taken before any read, once read, equals the
/// original, and `Debug` prints the same before and after the nodes are
/// read. Children are compared in order when `ordered`, else as sets; the
/// nodes in `fetched` are compared by id, parent, type and name only (a
/// federation fetches a mount's child by its own row, without its link's
/// columns).
fn assert_lazy_equals_eager(
    lazy: &ProductTree,
    eager: &ProductTree,
    ordered: bool,
    fetched: &[i64],
    what: &str,
) {
    let (clone, printed) = (lazy.clone(), lazy.clone());
    assert_eq!(lazy.len(), eager.len(), "{what}");
    assert_eq!(lazy.root(), eager.root(), "{what}");
    let ids: Vec<i64> = lazy.node_ids().collect();
    assert_eq!(ids, eager.node_ids().collect::<Vec<_>>(), "{what}");
    for &id in &ids {
        let (mut got, mut want) = (lazy.children(id).to_vec(), eager.children(id).to_vec());
        if !ordered {
            got.sort_unstable();
            want.sort_unstable();
        }
        assert_eq!(got, want, "{what}: children of {id}");
    }
    for t in ["assy", "comp", ""] {
        assert_eq!(lazy.count_of_type(t), eager.count_of_type(t), "{what}: {t}");
    }
    let eager_typed = eager.nodes().map(|n| (n.obid, n.type_name.as_str()));
    assert_eq!(
        id_split(lazy.ids_and_types()),
        id_split(eager_typed),
        "{what}"
    );

    let unread = format!("{printed:?}");
    let spelled = |tree: &ProductTree| {
        if ordered {
            return spelled_tree(tree);
        }
        let head =
            |n: &ProductNode| format!("{} {:?} {:?} {:?}", n.obid, n.parent, n.type_name, n.name);
        tree.nodes()
            .map(|n| {
                if fetched.contains(&n.obid) {
                    head(n)
                } else {
                    spelled(n)
                }
            })
            .collect()
    };
    assert_eq!(spelled(lazy), spelled(eager), "{what}");
    assert_eq!(format!("{lazy:?}"), unread, "{what}");
    assert_eq!(spelled(&clone), spelled(lazy), "{what}");
}

/// The function-shipping check-out of `root` as the eager path assembled
/// it: the root and a node from every row its statement returns, all read
/// before the flags flip. Returns the check-out's tree and the eager one.
fn checkout_and_eager_tree(s: &mut Session, root: i64) -> (ProductTree, ProductTree) {
    let sql = s
        .statement(Shape::MlePhysical, ActionKind::CheckOut, &[root])
        .unwrap();
    let rs = s.server().query(&sql).unwrap();
    let mut eager = eager_root(s, root);
    let tree = s.check_out_function_shipping(root).unwrap().tree.unwrap();
    let shape = NodeShape::new(&rs.schema);
    rs.rows
        .iter()
        .for_each(|row| eager.insert(shape.node(row, None)));
    (tree, eager)
}

/// A tree keeps the rows it was assembled from and builds a node when it is
/// read; read that way it is the eager path's tree — for random trees and
/// late rule tables, every strategy, the single-level, multi-level and
/// level-batched expands, the function-shipping check-out, and a
/// federation's expand over one to three sites (whose navigational loop
/// inserts each retrieval under its parent, and whose recursive loop
/// attaches a remote subtree's root to its mount).
#[test]
fn tree_rows_match_the_eager_node_oracle() {
    cases("tree_rows_match_the_eager_node_oracle", 24, 0x27, |rng| {
        let spec = arb_spec(rng);
        let rules = arb_late_rules(rng);
        let sites = rng.usize_inclusive(1, 3);
        for strategy in ClientStrategy::ALL {
            let (db, _) = build_database(&spec).unwrap();
            let mut s = Session::new(
                db,
                SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
                rules.clone(),
            );
            for how in [Expand::Single, Expand::Multi, Expand::Batched] {
                let tree = match how {
                    Expand::Single => s.single_level_expand(1),
                    Expand::Multi => s.multi_level_expand(1),
                    Expand::Batched => s.multi_level_expand_batched(1),
                }
                .unwrap()
                .tree;
                let eager = eager_tree(&mut s, 1, how);
                let what = format!("{strategy:?} {how:?}");
                assert_lazy_equals_eager(&tree, &eager, true, &[], &what);
            }

            let (tree, eager) = checkout_and_eager_tree(&mut s, 1);
            let what = format!("{strategy:?} check-out");
            assert_lazy_equals_eager(&tree, &eager, true, &[], &what);
            assert_eq!(s.check_in(&tree).unwrap(), tree.len(), "{strategy:?}");

            let (dbs, info) = partition(&generate(&spec), sites).unwrap();
            let fetched: Vec<i64> = info.mounts.iter().map(|m| m.child).collect();
            let mounts = info
                .mounts
                .iter()
                .map(|m| MountPoint {
                    parent: m.parent,
                    child: m.child,
                    child_site: m.child_site,
                    visible: m.visible,
                })
                .collect();
            let mut federation = Federation::new(
                dbs,
                vec![LinkProfile::wan_256(); sites],
                (0..sites).map(|i| format!("site{i}")).collect(),
                info.site_of,
                mounts,
                "scott",
                strategy,
                rules.clone(),
            );
            let tree = federation.multi_level_expand(1).unwrap().tree;
            let eager = eager_tree(&mut s, 1, Expand::Multi);
            let what = format!("{strategy:?} federation over {sites}");
            assert_lazy_equals_eager(&tree, &eager, sites == 1, &fetched, &what);
        }
    });
}
