//! Parallel structure views (paper §1, footnote 1): "the product structure
//! is (a) a recursive one and (b) different hierarchical views may have to
//! be supported in parallel on the same set of data" — e.g. designers
//! navigate the physical decomposition while function owners see the same
//! objects grouped into functional units. In the flat representation this
//! is simply a *second link table* over the same object rows.

use pdm_prng::Prng;

use pdm_sql::{Column, DataType, Database, Result, Row, Schema, Value};

use crate::generator::{GeneratedLink, NodeKind, ProductData};

/// Generate an alternative hierarchical view over the same objects: a fresh
/// tree rooted at the same root, where every node hangs under a random
/// already-placed assembly. Link visibility is re-drawn with `gamma`
/// (different disciplines see different slices).
pub fn generate_view_links(data: &ProductData, gamma: f64, seed: u64) -> Vec<GeneratedLink> {
    let mut rng = Prng::seed_from_u64(seed);
    let root = data.root_obid();

    // Shuffle non-root nodes, then attach each to a random assembly that is
    // already part of the view (guarantees a tree; components stay leaves).
    let mut others: Vec<&crate::generator::GeneratedNode> =
        data.nodes.iter().filter(|n| n.obid != root).collect();
    for i in (1..others.len()).rev() {
        let j = rng.usize_inclusive(0, i);
        others.swap(i, j);
    }

    let link_base = data
        .links
        .iter()
        .map(|l| l.obid)
        .max()
        .unwrap_or(0)
        .max(data.spec_ids.iter().copied().max().unwrap_or(0))
        + 1_000_000;

    let mut placed_assemblies: Vec<i64> = vec![root];
    let mut links = Vec::with_capacity(others.len());
    for (i, node) in others.iter().enumerate() {
        let parent = placed_assemblies[rng.index(placed_assemblies.len())];
        links.push(GeneratedLink {
            obid: link_base + i as i64,
            left: parent,
            right: node.obid,
            eff_from: 1,
            eff_to: 10,
            visible: rng.f64() < gamma,
        });
        if node.kind == NodeKind::Assembly {
            placed_assemblies.push(node.obid);
        }
    }
    links
}

/// Install an additional structure view as a link table named `table` (same
/// schema as `link`), with the indexes the navigational path needs.
pub fn install_view(db: &mut Database, table: &str, links: &[GeneratedLink]) -> Result<()> {
    db.catalog.create_table(
        table,
        Schema::new(vec![
            Column::new("type", DataType::Text).not_null(),
            Column::new("obid", DataType::Int).not_null(),
            Column::new("left", DataType::Int),
            Column::new("right", DataType::Int),
            Column::new("eff_from", DataType::Int),
            Column::new("eff_to", DataType::Int),
            Column::new("strc_opt", DataType::Text),
        ]),
    )?;
    let rows: Vec<Row> = links
        .iter()
        .map(|l| {
            Row::new(vec![
                Value::from("link"),
                Value::Int(l.obid),
                Value::Int(l.left),
                Value::Int(l.right),
                Value::Int(l.eff_from),
                Value::Int(l.eff_to),
                Value::from(l.strc_opt()),
            ])
        })
        .collect();
    db.insert_rows(table, rows)?;
    db.catalog.create_index(table, "left")?;
    db.catalog.create_index(table, "right")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::populate::build_database;
    use crate::spec::TreeSpec;

    #[test]
    fn view_links_form_a_tree_over_the_same_objects() {
        let spec = TreeSpec::new(3, 3, 1.0).with_node_size(128);
        let data = crate::generator::generate(&spec);
        let vlinks = generate_view_links(&data, 1.0, 7);
        assert_eq!(vlinks.len(), data.nodes.len() - 1);
        // every non-root node exactly once as a target
        let mut targets: Vec<i64> = vlinks.iter().map(|l| l.right).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), vlinks.len());
        // parents are assemblies
        let assys: std::collections::HashSet<i64> = data
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Assembly)
            .map(|n| n.obid)
            .collect();
        assert!(vlinks.iter().all(|l| assys.contains(&l.left)));
        // no id collision with physical links
        let phys: std::collections::HashSet<i64> = data.links.iter().map(|l| l.obid).collect();
        assert!(vlinks.iter().all(|l| !phys.contains(&l.obid)));
    }

    #[test]
    fn view_differs_from_physical_structure() {
        let spec = TreeSpec::new(3, 3, 1.0).with_node_size(128);
        let data = crate::generator::generate(&spec);
        let vlinks = generate_view_links(&data, 1.0, 7);
        let same = vlinks.iter().filter(|v| {
            data.links
                .iter()
                .any(|p| p.left == v.left && p.right == v.right)
        });
        // a random reattachment shares only a few edges with the original
        assert!(same.count() < data.links.len() / 2);
    }

    #[test]
    fn install_view_queryable() {
        let spec = TreeSpec::new(2, 3, 1.0).with_node_size(128);
        let (mut db, data) = build_database(&spec).unwrap();
        let vlinks = generate_view_links(&data, 1.0, 9);
        install_view(&mut db, "flink", &vlinks).unwrap();
        let rs = db.query("SELECT COUNT(*) FROM flink").unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(vlinks.len() as i64));
        // indexed probe works
        let (_, stats) = db
            .query_with_stats("SELECT * FROM flink WHERE left = 1")
            .unwrap();
        assert_eq!(stats.index_probes, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = TreeSpec::new(3, 2, 1.0).with_node_size(128);
        let data = crate::generator::generate(&spec);
        let a = generate_view_links(&data, 0.7, 5);
        let b = generate_view_links(&data, 0.7, 5);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.left == y.left && x.right == y.right));
    }
}
