//! Rows and result sets.

use std::fmt;
use std::sync::Arc;

use crate::schema::Schema;
use crate::value::Value;

/// One tuple. Values are positional; the owning [`Schema`] names them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Bytes this row occupies on the wire (sum of value sizes). Used by the
    /// WAN simulator to charge data volume for a response.
    pub fn wire_size(&self) -> usize {
        self.0.iter().map(Value::wire_size).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A materialized query result: schema plus rows. The schema is shared
/// with the plan that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub schema: Arc<Schema>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    pub fn new(schema: impl Into<Arc<Schema>>, rows: Vec<Row>) -> Self {
        ResultSet {
            schema: schema.into(),
            rows,
        }
    }

    pub fn empty(schema: impl Into<Arc<Schema>>) -> Self {
        ResultSet::new(schema, Vec::new())
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total wire size of all rows — the paper's `vol` contribution of a
    /// response, before packet-overhead correction.
    pub fn wire_size(&self) -> usize {
        self.rows.iter().map(Row::wire_size).sum()
    }

    /// Column values by name across all rows; convenience for tests.
    pub fn column_values(&self, name: &str) -> Option<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        Some(self.rows.iter().map(|r| r.get(idx).clone()).collect())
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn rs() -> ResultSet {
        ResultSet::new(
            Schema::new(vec![
                Column::new("obid", DataType::Int),
                Column::new("name", DataType::Text),
            ]),
            vec![
                Row::new(vec![Value::Int(1), Value::Text("Assy1".into())]),
                Row::new(vec![Value::Int(2), Value::Text("Assy2".into())]),
            ],
        )
    }

    #[test]
    fn row_wire_size_sums_values() {
        let r = Row::new(vec![Value::Int(1), Value::Text("abc".into())]);
        assert_eq!(r.wire_size(), 8 + 4 + 3);
    }

    #[test]
    fn result_set_wire_size_sums_rows() {
        let rs = rs();
        // each row: 8 (int) + 4+5 (text) = 17
        assert_eq!(rs.wire_size(), 34);
    }

    #[test]
    fn column_values_by_name() {
        let rs = rs();
        assert_eq!(
            rs.column_values("obid").unwrap(),
            vec![Value::Int(1), Value::Int(2)]
        );
        assert!(rs.column_values("missing").is_none());
    }

    #[test]
    fn display_shows_row_count() {
        let text = rs().to_string();
        assert!(text.contains("(2 rows)"));
        assert!(text.contains("'Assy1'"));
    }
}
