//! The analyzer's schema environment: an engine database holding the
//! schema's tables, views and functions. Name resolution is the engine's
//! binder compiling against it; a DML statement runs on a copy of it. A
//! query over another table (an alternative structure view's link table)
//! needs that table created in the database first.

use pdm_sql::Database;

/// Schema and function environment for one analysis run.
#[derive(Debug, Clone)]
pub struct SchemaInfo {
    db: Database,
}

impl SchemaInfo {
    /// The flattened Figure-2 PDM schema the workload populates: `assy`,
    /// `comp`, `link`, `spec`, `specified_by` — the workload's own DDL —
    /// with the engine's built-ins and the PDM stored functions registered,
    /// and no rows.
    pub fn paper() -> Self {
        let mut db = Database::new();
        pdm_workload::create_schema(&mut db).expect("the Figure-2 DDL applies to an empty catalog");
        pdm_core::functions::register_pdm_functions(&mut db);
        SchemaInfo { db }
    }

    /// A live engine database: its tables, views and registered functions
    /// are what the analyzer resolves against. Tables are copy-on-write, so
    /// nothing is copied; a DML check writes only its own copy, over the
    /// rows `db` holds.
    pub fn from_database(db: &Database) -> Self {
        SchemaInfo { db: db.clone() }
    }

    pub(crate) fn database(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_has_figure2_tables() {
        let catalog = &SchemaInfo::paper().db.catalog;
        for t in ["assy", "comp", "link", "spec", "specified_by"] {
            assert!(catalog.has_table(t), "missing table {t}");
        }
        assert!(catalog
            .table("assy")
            .is_ok_and(|t| t.schema.index_of("make_or_buy").is_some()));
        assert!(catalog.functions().get("OVERLAPS_INTERVAL").is_some());
        assert!(catalog.functions().get("coalesce").is_some());
        assert!(!catalog.has_table("nonesuch"));
    }

    #[test]
    fn from_database_snapshots_catalog() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
            .expect("create");
        db.execute("CREATE VIEW v AS SELECT a FROM t")
            .expect("view");
        db.catalog
            .functions_mut()
            .register("Twice", |args| Ok(args[0].clone()));
        let s = SchemaInfo::from_database(&db);
        db.execute("DROP TABLE t").expect("drop");
        let catalog = &s.database().catalog;
        assert_eq!(
            catalog.table("t").map(|t| t.schema.names()),
            Ok(vec!["a", "b"])
        );
        assert!(catalog.has_view("v"));
        assert!(catalog.functions().get("twice").is_some());
        assert!(catalog.functions().get("coalesce").is_some());
        assert!(catalog.functions().get("overlaps_interval").is_none());
    }
}
