//! Table and result-set schemas.

use std::fmt;

use crate::error::{Error, Result};
use crate::value::DataType;

/// A column definition: name, type, nullability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into().to_ascii_lowercase(),
            dtype,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered set of columns. Column names are stored lowercase; lookups are
/// case-insensitive (SQL identifier folding).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    pub fn empty() -> Self {
        Schema {
            columns: Vec::new(),
        }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Like [`Schema::index_of`] but errors with the unknown name.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| Error::Bind(format!("unknown column '{name}'")))
    }

    pub fn push(&mut self, col: Column) {
        self.columns.push(col);
    }

    /// Column names in order (useful for tests and display).
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.dtype)?;
            if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("OBID", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
            Column::new("dec", DataType::Text),
        ])
    }

    #[test]
    fn names_are_folded_to_lowercase() {
        let s = sample();
        assert_eq!(s.names(), vec!["obid", "name", "dec"]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ObId"), Some(0));
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn require_reports_unknown_column() {
        let s = sample();
        assert!(s.require("obid").is_ok());
        let err = s.require("nope").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn display_renders_columns() {
        let s = sample();
        let d = s.to_string();
        assert!(d.contains("obid INTEGER NOT NULL"));
        assert!(d.contains("name VARCHAR"));
    }
}
