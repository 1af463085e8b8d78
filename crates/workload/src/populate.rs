//! Load a generated product structure into a `pdm_sql` database with the
//! Figure-2 schema, padding payloads so a transferred node row hits the
//! configured wire size.

use pdm_sql::{Column, DataType, Database, Result, Row, Schema, Value};

use crate::generator::{generate, NodeKind, ProductData};
use crate::spec::TreeSpec;

/// Fixed wire overhead of one homogenized expand-result row, excluding the
/// payload column's characters: parent(8) + link obid(8) + eff_from(8) +
/// eff_to(8) + strc_opt(4+4) + type(4+4) + obid(8) + name(4+9) + dec(4+1) +
/// checkedout(1) + payload length prefix(4) = 79 bytes.
pub const ROW_OVERHEAD_BYTES: usize = 79;

/// Characters of padding needed so an expand-result row occupies
/// `node_size` bytes on the wire.
pub fn payload_len(node_size: usize) -> usize {
    node_size.saturating_sub(ROW_OVERHEAD_BYTES)
}

/// Structure option stored on a node row: the user's option when the node is
/// visible from the root, a different option otherwise.
fn node_opt(visible: bool) -> &'static str {
    if visible {
        crate::USER_OPTION
    } else {
        crate::OTHER_OPTION
    }
}

/// Create the Figure-2 schema, insert all generated rows, and build the
/// indexes the navigational access path needs.
pub fn populate(db: &mut Database, data: &ProductData) -> Result<()> {
    create_schema(db)?;

    let payload = "x".repeat(payload_len(data.spec.node_size));
    // Components render an empty `dec` (one byte less than assemblies'
    // '+'/'-'), so their payload is one character longer to keep every
    // homogenized row at exactly the target node size.
    let comp_payload = "x".repeat(payload_len(data.spec.node_size) + 1);

    let mut assy_rows = Vec::new();
    let mut comp_rows = Vec::new();
    for n in &data.nodes {
        match n.kind {
            NodeKind::Assembly => assy_rows.push(Row::new(vec![
                Value::from("assy"),
                Value::Int(n.obid),
                Value::from(n.name.clone()),
                Value::from(if n.decomposable { "+" } else { "-" }),
                Value::from(if n.make { "make" } else { "buy" }),
                Value::from(node_opt(n.visible)),
                Value::Bool(false),
                Value::from(payload.clone()),
            ])),
            NodeKind::Component => comp_rows.push(Row::new(vec![
                Value::from("comp"),
                Value::Int(n.obid),
                Value::from(n.name.clone()),
                Value::from(node_opt(n.visible)),
                Value::Bool(false),
                Value::from(comp_payload.clone()),
            ])),
        }
    }
    db.insert_rows("assy", assy_rows)?;
    db.insert_rows("comp", comp_rows)?;

    let link_rows: Vec<Row> = data
        .links
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
    db.insert_rows("link", link_rows)?;

    let spec_rows: Vec<Row> = data
        .spec_ids
        .iter()
        .map(|&sid| {
            Row::new(vec![
                Value::from("spec"),
                Value::Int(sid),
                Value::from(format!("S{sid:08}")),
            ])
        })
        .collect();
    db.insert_rows("spec", spec_rows)?;

    let sb_rows: Vec<Row> = data
        .specified_by
        .iter()
        .enumerate()
        .map(|(i, &(comp, spec))| {
            Row::new(vec![
                Value::Int(900_000_000 + i as i64),
                Value::Int(comp),
                Value::Int(spec),
            ])
        })
        .collect();
    db.insert_rows("specified_by", sb_rows)?;

    // Indexes for the navigational hot paths.
    for (table, col) in [
        ("link", "left"),
        ("link", "right"),
        ("assy", "obid"),
        ("comp", "obid"),
        ("specified_by", "left"),
    ] {
        db.catalog.create_index(table, col)?;
    }
    Ok(())
}

fn create_schema(db: &mut Database) -> Result<()> {
    db.catalog.create_table(
        "assy",
        Schema::new(vec![
            Column::new("type", DataType::Text).not_null(),
            Column::new("obid", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
            Column::new("dec", DataType::Text),
            Column::new("make_or_buy", DataType::Text),
            Column::new("strc_opt", DataType::Text),
            Column::new("checkedout", DataType::Bool),
            Column::new("payload", DataType::Text),
        ]),
    )?;
    db.catalog.create_table(
        "comp",
        Schema::new(vec![
            Column::new("type", DataType::Text).not_null(),
            Column::new("obid", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
            Column::new("strc_opt", DataType::Text),
            Column::new("checkedout", DataType::Bool),
            Column::new("payload", DataType::Text),
        ]),
    )?;
    db.catalog.create_table(
        "link",
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
    db.catalog.create_table(
        "spec",
        Schema::new(vec![
            Column::new("type", DataType::Text).not_null(),
            Column::new("obid", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
        ]),
    )?;
    db.catalog.create_table(
        "specified_by",
        Schema::new(vec![
            Column::new("obid", DataType::Int).not_null(),
            Column::new("left", DataType::Int),
            Column::new("right", DataType::Int),
        ]),
    )?;
    Ok(())
}

/// Generate and load in one step.
pub fn build_database(spec: &TreeSpec) -> Result<(Database, ProductData)> {
    let data = generate(spec);
    let mut db = Database::new();
    populate(&mut db, &data)?;
    Ok((db, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TreeSpec;
    use pdm_sql::Value;

    #[test]
    fn populate_small_tree() {
        let spec = TreeSpec::new(2, 3, 1.0).with_node_size(128);
        let (db, data) = build_database(&spec).unwrap();
        let rs = db.query("SELECT COUNT(*) AS n FROM assy").unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(1 + 3));
        let rs = db.query("SELECT COUNT(*) AS n FROM comp").unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(9));
        let rs = db.query("SELECT COUNT(*) AS n FROM link").unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(data.links.len() as i64));
    }

    #[test]
    fn expand_row_hits_target_wire_size() {
        let spec = TreeSpec::new(2, 2, 1.0).with_node_size(512);
        let (db, _) = build_database(&spec).unwrap();
        // The homogenized expand projection for assembly children of node 1.
        let rs = db
            .query(
                "SELECT link.left AS parent, link.obid AS link_id, link.eff_from, link.eff_to, \
                        link.strc_opt, assy.type, assy.obid, assy.name, assy.dec, \
                        assy.checkedout, assy.payload \
                 FROM link JOIN assy ON link.right = assy.obid WHERE link.left = 1",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        for row in &rs.rows {
            assert_eq!(row.wire_size(), 512);
        }
    }

    #[test]
    fn indexes_exist_for_navigational_path() {
        let spec = TreeSpec::new(2, 2, 1.0);
        let (db, _) = build_database(&spec).unwrap();
        let q = pdm_sql::parser::parse_query("SELECT * FROM link WHERE left = 1").unwrap();
        let (_, stats) = db
            .query_ast_profiled(&q, &pdm_obs::Recorder::disabled())
            .unwrap();
        assert_eq!(stats.index_probes, 1);
    }

    #[test]
    fn specs_loaded_and_joinable() {
        let spec = TreeSpec::new(2, 2, 1.0).with_specified_fraction(1.0);
        let (db, data) = build_database(&spec).unwrap();
        let rs = db
            .query("SELECT COUNT(*) AS n FROM specified_by AS s JOIN spec ON s.right = spec.obid")
            .unwrap();
        assert_eq!(
            rs.rows[0].get(0),
            &Value::Int(data.specified_by.len() as i64)
        );
    }

    #[test]
    fn strc_opt_partitions_by_visibility() {
        let spec = TreeSpec::new(3, 5, 0.6); // deterministic γβ=3
        let (db, data) = build_database(&spec).unwrap();
        let rs = db
            .query("SELECT COUNT(*) AS n FROM link WHERE strc_opt = 'OPTA'")
            .unwrap();
        let visible_links = data.links.iter().filter(|l| l.visible).count() as i64;
        assert_eq!(rs.rows[0].get(0), &Value::Int(visible_links));
    }
}
