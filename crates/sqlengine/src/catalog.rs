//! Database catalog: tables, views, and the function registry.
//!
//! Tables are held behind [`Arc`] so a catalog clone is a cheap snapshot:
//! only the table maps and `Arc` pointers are copied, never the rows. DML
//! then copies-on-write exactly the tables it touches (via
//! [`Arc::make_mut`]) — and of such a table only the spine: one pointer per
//! chunk of [`crate::storage::CHUNK`] rows, the chunks, rows and indexes
//! themselves staying shared until written (see [`crate::storage`]). That
//! is what makes the shared-server storage model
//! ([`crate::shared::SharedDatabase`]) affordable — every write produces a
//! new immutable snapshot whose cost follows the rows it touched, not the
//! size of the database.
//!
//! A catalog also carries its *shape*: a number that names what a compiled
//! plan may rely on — which tables exist with which columns and indexes,
//! which views, which functions. DDL and function registration give it a new
//! one; DML never does, and a clone keeps it. Shapes come from one counter
//! for the whole process, so two catalogs share one only if one was cloned
//! from the other with no DDL since: a catalog decoded from a checkpoint, or
//! re-seeded on a replica, never matches a plan compiled on another. The
//! shape is not encoded ([`crate::persist`] writes tables and views only).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::Query;
use crate::error::{Error, Result};
use crate::functions::FunctionRegistry;
use crate::schema::Schema;
use crate::storage::Table;

/// A named view: its defining query, kept as both AST and original text.
///
/// The PDM query modificator needs views to reproduce the paper's §5.5
/// caveat — a recursive query hidden behind a view cannot be modified because
/// "the query structure is not visible to the query modificator".
#[derive(Debug, Clone)]
pub struct ViewDef {
    pub name: String,
    pub query: Query,
    pub sql: String,
}

/// The catalog: every named object the executor can resolve.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    views: HashMap<String, ViewDef>,
    functions: FunctionRegistry,
    /// See the module docs.
    shape: u64,
}

/// A shape no catalog had before.
fn fresh_shape() -> u64 {
    static SHAPES: AtomicU64 = AtomicU64::new(0);
    SHAPES.fetch_add(1, Ordering::Relaxed)
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: HashMap::new(),
            views: HashMap::new(),
            functions: FunctionRegistry::with_builtins(),
            shape: fresh_shape(),
        }
    }
}

/// `name` folded to lower case — the key it is stored under. Names that
/// already are (what the lexer produces) are borrowed, not copied.
pub(crate) fn lower(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(Error::Catalog(format!("'{key}' already exists")));
        }
        self.tables
            .insert(key.clone(), Arc::new(Table::new(key, schema)));
        self.shape = fresh_shape();
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        self.tables
            .remove(&key)
            .ok_or_else(|| Error::Catalog(format!("no table '{key}'")))?;
        self.shape = fresh_shape();
        Ok(())
    }

    /// Build a hash index on `column` of `table`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table_mut(table)?.create_index(column)?;
        self.shape = fresh_shape();
        Ok(())
    }

    pub fn create_view(&mut self, name: &str, query: Query) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(Error::Catalog(format!("'{key}' already exists")));
        }
        let sql = query.to_string();
        self.views.insert(
            key.clone(),
            ViewDef {
                name: key,
                query,
                sql,
            },
        );
        self.shape = fresh_shape();
        Ok(())
    }

    /// What a plan compiled on this catalog may rely on (see the module
    /// docs): equal shapes, equal tables, columns, indexes, views and
    /// functions.
    pub fn shape(&self) -> u64 {
        self.shape
    }

    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }

    /// The function registry, to register into: the catalog takes a new
    /// shape.
    pub fn functions_mut(&mut self) -> &mut FunctionRegistry {
        self.shape = fresh_shape();
        &mut self.functions
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        let key = lower(name);
        self.tables
            .get(&*key)
            .map(Arc::as_ref)
            .ok_or_else(|| Error::Bind(format!("unknown table '{key}'")))
    }

    /// The shared handle to a table (cheap clone; used by snapshot readers
    /// that must keep the rows alive past the catalog borrow).
    pub fn table_arc(&self, name: &str) -> Result<Arc<Table>> {
        let key = lower(name);
        self.tables
            .get(&*key)
            .cloned()
            .ok_or_else(|| Error::Bind(format!("unknown table '{key}'")))
    }

    /// Mutable access for DML. If the table is shared with an older
    /// snapshot, this copies its spine first (`Arc::make_mut`: one pointer
    /// per chunk of [`crate::storage::CHUNK`] rows; the table's mutators
    /// then copy the chunks they write into and the rows they change), so
    /// writes never reach rows a concurrent reader is scanning.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let key = lower(name);
        self.tables
            .get_mut(&*key)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::Bind(format!("unknown table '{key}'")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&*lower(name))
    }

    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(&*lower(name))
    }

    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(&*lower(name))
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    pub fn view_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.views.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("obid", DataType::Int)])
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table("Assy", schema()).unwrap();
        assert!(c.has_table("ASSY"));
        assert!(c.table("assy").is_ok());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        assert!(matches!(
            c.create_table("T", schema()),
            Err(Error::Catalog(_))
        ));
    }

    #[test]
    fn view_name_conflicts_with_table() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        let q = parse_query("SELECT * FROM t").unwrap();
        assert!(c.create_view("t", q).is_err());
    }

    #[test]
    fn view_keeps_sql_text() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        let q = parse_query("SELECT obid FROM t").unwrap();
        c.create_view("v", q).unwrap();
        assert_eq!(c.view("V").unwrap().sql, "SELECT obid FROM t");
    }

    #[test]
    fn drop_table() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        c.drop_table("t").unwrap();
        assert!(!c.has_table("t"));
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn clone_is_copy_on_write() {
        use crate::row::Row;
        use crate::value::Value;
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        c.table_mut("t")
            .unwrap()
            .insert(Row::new(vec![Value::Int(1)]))
            .unwrap();

        let snapshot = c.clone();
        let shared_before = Arc::ptr_eq(
            &c.table_arc("t").unwrap(),
            &snapshot.table_arc("t").unwrap(),
        );
        assert!(shared_before, "clone shares table storage until a write");

        c.table_mut("t")
            .unwrap()
            .insert(Row::new(vec![Value::Int(2)]))
            .unwrap();
        assert_eq!(c.table("t").unwrap().len(), 2);
        assert_eq!(
            snapshot.table("t").unwrap().len(),
            1,
            "write must not reach the snapshot"
        );
    }

    #[test]
    fn ddl_and_registration_reshape_dml_and_clones_do_not() {
        let mut c = Catalog::new();
        let mut shapes = vec![c.shape()];
        c.create_table("t", schema()).unwrap();
        shapes.push(c.shape());
        c.create_index("t", "obid").unwrap();
        shapes.push(c.shape());
        c.create_view("v", parse_query("SELECT obid FROM t").unwrap())
            .unwrap();
        shapes.push(c.shape());
        c.functions_mut()
            .register("f", |_| Ok(crate::value::Value::Null));
        shapes.push(c.shape());
        let before_dml = c.shape();
        c.table_mut("t")
            .unwrap()
            .insert(crate::row::Row::new(vec![crate::value::Value::Int(1)]))
            .unwrap();
        assert_eq!(c.shape(), before_dml);
        assert_eq!(c.clone().shape(), before_dml);
        c.drop_table("t").unwrap();
        shapes.push(c.shape());
        // A failed statement keeps the shape; a new catalog has its own.
        assert!(c.drop_table("t").is_err());
        assert_eq!(c.shape(), shapes[shapes.len() - 1]);
        shapes.push(Catalog::new().shape());
        let mut distinct = shapes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), shapes.len(), "{shapes:?}");
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.create_table("b", schema()).unwrap();
        c.create_table("a", schema()).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
