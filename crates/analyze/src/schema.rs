//! The analyzer's view of the database schema: table → column names, view
//! names, and the set of callable functions. Every table reference must
//! resolve against it: a query over another table (an alternative
//! structure view's link table) registers that table first.

use std::collections::{HashMap, HashSet};

/// Schema and function environment for one analysis run.
#[derive(Debug, Clone)]
pub struct SchemaInfo {
    /// table name (lowercase) → column names (lowercase, in order).
    tables: HashMap<String, Vec<String>>,
    /// View names (lowercase). Views resolve but expose unknown columns —
    /// exactly the §5.5 opacity the modificator suffers from.
    views: HashSet<String>,
    /// Callable scalar function names (lowercase), aggregates excluded.
    functions: HashSet<String>,
}

impl SchemaInfo {
    /// An empty schema (every table and function unknown).
    pub fn empty() -> Self {
        SchemaInfo {
            tables: HashMap::new(),
            views: HashSet::new(),
            functions: HashSet::new(),
        }
    }

    /// The flattened Figure-2 PDM schema the workload populates: `assy`,
    /// `comp`, `link`, `spec`, `specified_by` — the workload's own DDL —
    /// with the engine's built-ins and the PDM stored functions registered.
    pub fn paper() -> Self {
        let mut db = pdm_sql::Database::new();
        pdm_workload::create_schema(&mut db).expect("the Figure-2 DDL applies to an empty catalog");
        pdm_core::functions::register_pdm_functions(&mut db);
        SchemaInfo::from_database(&db)
    }

    /// Snapshot a live engine catalog: its tables (with columns), views, and
    /// registered functions are what the analyzer resolves against.
    pub fn from_database(db: &pdm_sql::Database) -> Self {
        let mut s = SchemaInfo::empty();
        for name in db.catalog.table_names() {
            if let Ok(table) = db.catalog.table(name) {
                let cols: Vec<&str> = table.schema.names();
                s.add_table(name, &cols);
            }
        }
        for name in db.catalog.view_names() {
            s.add_view(name);
        }
        for name in db.catalog.functions().names() {
            s.add_function(name);
        }
        s
    }

    pub fn add_table(&mut self, name: &str, columns: &[&str]) {
        self.tables.insert(
            name.to_ascii_lowercase(),
            columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
        );
    }

    pub fn add_view(&mut self, name: &str) {
        self.views.insert(name.to_ascii_lowercase());
    }

    pub fn add_function(&mut self, name: &str) {
        self.functions.insert(name.to_ascii_lowercase());
    }

    /// Columns of a base table, if known.
    pub fn table_columns(&self, name: &str) -> Option<&Vec<String>> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains(&name.to_ascii_lowercase())
    }

    pub fn has_function(&self, name: &str) -> bool {
        self.functions.contains(&name.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_has_figure2_tables() {
        let s = SchemaInfo::paper();
        for t in ["assy", "comp", "link", "spec", "specified_by"] {
            assert!(s.has_table(t), "missing table {t}");
        }
        assert!(s
            .table_columns("assy")
            .is_some_and(|c| c.contains(&"make_or_buy".to_string())));
        assert!(s.has_function("OVERLAPS_INTERVAL"));
        assert!(s.has_function("coalesce"));
        assert!(!s.has_table("nonesuch"));
    }

    #[test]
    fn from_database_snapshots_catalog() {
        let mut db = pdm_sql::Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
            .expect("create");
        db.execute("CREATE VIEW v AS SELECT a FROM t")
            .expect("view");
        db.catalog
            .functions_mut()
            .register("Twice", |args| Ok(args[0].clone()));
        let s = SchemaInfo::from_database(&db);
        assert_eq!(
            s.table_columns("t"),
            Some(&vec!["a".to_string(), "b".to_string()])
        );
        assert!(s.has_view("v"));
        assert!(s.has_function("twice"));
        assert!(s.has_function("coalesce"));
        assert!(!s.has_function("overlaps_interval"));
    }
}
