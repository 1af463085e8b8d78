//! Rows and result sets.
//!
//! A [`Row`] has two forms that no reader can tell apart. Most rows own
//! their values. A row of a *sharing* SELECT block — one base table, plain
//! columns and constants projected, at the top of a statement (see
//! `exec::plan`) — is the stored row itself (a [`SharedRow`], one `Arc`
//! clone) read through the block's layout: each output position is a
//! column of the stored row or a constant. Every method and trait reads the
//! values position by position, so `get`, `iter`, `len`, `wire_size`,
//! `Display`, `Debug`, equality and `Hash` give the same answer for both
//! forms of equal values. A later write to the table copies the stored row
//! before it changes it (`Arc::make_mut`), so a kept row keeps the values
//! it was read with.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::schema::Schema;
use crate::storage::SharedRow;
use crate::value::Value;

/// One tuple. Values are positional; the owning [`Schema`] names them.
#[derive(Clone, Default)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Vec<Value>),
    /// The stored row, read through the layout of the block that admitted
    /// it.
    Shared(SharedRow, Arc<[Slot]>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Owned(Vec::new())
    }
}

/// Where one output position of a shared row reads its value.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// This column of the stored row.
    Column(usize),
    /// A value no row holds: a literal, or a cast folded into one.
    Const(Value),
}

impl Slot {
    fn read<'r>(&'r self, stored: &'r [Value]) -> &'r Value {
        match self {
            Slot::Column(ordinal) => &stored[*ordinal],
            Slot::Const(value) => value,
        }
    }
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(Repr::Owned(values))
    }

    /// `stored` read through `layout` (module docs).
    pub(crate) fn shared(stored: SharedRow, layout: Arc<[Slot]>) -> Self {
        Row(Repr::Shared(stored, layout))
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Owned(values) => values.len(),
            Repr::Shared(_, layout) => layout.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx`. Panics if the row is not that wide.
    pub fn get(&self, idx: usize) -> &Value {
        match &self.0 {
            Repr::Owned(values) => &values[idx],
            Repr::Shared(stored, layout) => layout[idx].read(stored),
        }
    }

    /// The value at `idx`, if the row is that wide.
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        match &self.0 {
            Repr::Owned(values) => values.get(idx),
            Repr::Shared(stored, layout) => layout.get(idx).map(|slot| slot.read(stored)),
        }
    }

    /// The values in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.0 {
            Repr::Owned(values) => IterRepr::Owned(values.iter()),
            Repr::Shared(stored, layout) => IterRepr::Shared(layout.iter(), stored),
        })
    }

    /// The values, owned: moved out of an owned row, cloned out of a shared
    /// one.
    pub fn into_values(self) -> Vec<Value> {
        match self.0 {
            Repr::Owned(values) => values,
            Repr::Shared(..) => self.iter().cloned().collect(),
        }
    }

    /// The values of an owned row. The rows an operator binds in a FROM
    /// clause (a CTE's, a view's, a derived table's) are never shared: only
    /// a statement's own result is.
    pub(crate) fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Owned(values) => values,
            Repr::Shared(..) => unreachable!("a shared row is bound in no FROM clause"),
        }
    }

    /// Keep the first `len` values.
    pub(crate) fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Owned(values) => values.truncate(len),
            Repr::Shared(..) => *self = Row::new(self.iter().take(len).cloned().collect()),
        }
    }

    /// Bytes this row occupies on the wire (sum of value sizes). Used by the
    /// WAN simulator to charge data volume for a response.
    pub fn wire_size(&self) -> usize {
        self.iter().map(Value::wire_size).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// The values of a [`Row`], in order ([`Row::iter`]).
pub struct Iter<'r>(IterRepr<'r>);

enum IterRepr<'r> {
    Owned(std::slice::Iter<'r, Value>),
    Shared(std::slice::Iter<'r, Slot>, &'r [Value]),
}

impl<'r> Iterator for Iter<'r> {
    type Item = &'r Value;

    fn next(&mut self) -> Option<&'r Value> {
        match &mut self.0 {
            IterRepr::Owned(values) => values.next(),
            IterRepr::Shared(slots, stored) => slots.next().map(|slot| slot.read(stored)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            IterRepr::Owned(values) => values.len(),
            IterRepr::Shared(slots, _) => slots.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'r> IntoIterator for &'r Row {
    type Item = &'r Value;
    type IntoIter = Iter<'r>;

    fn into_iter(self) -> Iter<'r> {
        self.iter()
    }
}

/// Equal values, position by position, whatever the rows' forms.
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Owned(a), Repr::Owned(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Row {}

/// What a `Vec<Value>` feeds a hasher — its length, then each value — so a
/// row hashes as it did when it was one, in either form.
impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for value in self {
            value.hash(state);
        }
    }
}

/// `Row([…])`, as for a tuple struct of a `Vec<Value>`, in either form.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Values<'r>(&'r Row);
        impl fmt::Debug for Values<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0).finish()
            }
        }
        f.debug_tuple("Row").field(&Values(self)).finish()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.iter().enumerate() {
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
    use crate::persist::WordHasher;
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

    /// `(name, 7, obid, NULL)` of a stored `(obid, name, payload)`, in both
    /// forms.
    fn twins() -> (Row, Row) {
        let stored: SharedRow = vec![
            Value::Int(1),
            Value::Text("Assy1".into()),
            Value::Text("p".repeat(256)),
        ]
        .into();
        let layout: Arc<[Slot]> = vec![
            Slot::Column(1),
            Slot::Const(Value::Int(7)),
            Slot::Column(0),
            Slot::Const(Value::Null),
        ]
        .into();
        let owned = Row::new(vec![
            Value::Text("Assy1".into()),
            Value::Int(7),
            Value::Int(1),
            Value::Null,
        ]);
        (Row::shared(stored, layout), owned)
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

    #[test]
    fn a_shared_row_reads_as_its_owned_twin() {
        let (shared, owned) = twins();
        assert_eq!(shared, owned);
        assert_eq!(owned, shared);
        assert_eq!(shared.len(), 4);
        assert_eq!(shared.get(0), owned.get(0));
        assert_eq!(shared.try_get(3), Some(&Value::Null));
        assert_eq!(shared.try_get(4), None);
        assert!(shared.iter().eq(owned.iter()));
        assert_eq!(shared.iter().len(), 4);
        assert_eq!(shared.wire_size(), owned.wire_size());
        assert_eq!(shared.to_string(), owned.to_string());
        assert_eq!(format!("{shared:?}"), format!("{owned:?}"));
        assert_eq!(format!("{shared:#?}"), format!("{owned:#?}"));
        assert_eq!(shared.clone().into_values(), owned.clone().into_values());
        let mut narrowed = shared.clone();
        narrowed.truncate(2);
        assert_eq!(narrowed, Row::new(owned.iter().take(2).cloned().collect()));
    }

    #[test]
    fn a_row_hashes_and_prints_as_the_vector_it_was() {
        let hash = |h: &dyn Fn(&mut WordHasher)| {
            let mut hasher = WordHasher::new(0);
            h(&mut hasher);
            hasher.finish()
        };
        let (shared, owned) = twins();
        let values = owned.clone().into_values();
        let expected = hash(&|h| values.hash(h));
        assert_eq!(hash(&|h| owned.hash(h)), expected);
        assert_eq!(hash(&|h| shared.hash(h)), expected);
        assert_eq!(format!("{owned:?}"), format!("Row({values:?})"));
    }
}
