//! UNION / UNION ALL / INTERSECT / EXCEPT over materialized rows.
//!
//! Column names and types come from the left operand (standard behaviour);
//! operands must agree in arity. Dedup uses the engine's total value
//! equality (NULL == NULL, INT and FLOAT compare numerically).

use std::hash::{DefaultHasher, Hash, Hasher};

use crate::ast::SetOp;
use crate::error::{Error, Result};
use crate::row::Row;

/// De-duplication by full-row hash over rows the caller stores: the set
/// remembers *positions* in that store, so a row is hashed once, compared
/// against the rows already kept, and never copied. (Open addressing with
/// linear probing; a slot holds the row's hash and its position + 1.)
#[derive(Default)]
pub(crate) struct Seen {
    slots: Vec<(u64, u32)>,
    len: usize,
}

/// Fixed-key hash: results never depend on it, and runs must repeat exactly.
fn hash_of(row: &Row) -> u64 {
    let mut hasher = DefaultHasher::new();
    row.hash(&mut hasher);
    hasher.finish()
}

impl Seen {
    /// Position in `stored` of a row equal to `row`, among the rows this set
    /// was told about.
    pub fn find(&self, stored: &[Row], row: &Row) -> Option<usize> {
        self.probe(stored, row, hash_of(row)).ok()
    }

    /// True if no row of `stored` seen so far equals `row`, which is then
    /// remembered as the row the caller is about to push at `stored.len()`.
    pub fn is_new(&mut self, stored: &[Row], row: &Row) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = hash_of(row);
        match self.probe(stored, row, hash) {
            Ok(_) => false,
            Err(slot) => {
                self.slots[slot] = (hash, stored.len() as u32 + 1);
                self.len += 1;
                true
            }
        }
    }

    /// The position of the equal row, or the empty slot where the probe for
    /// it ended.
    fn probe(&self, stored: &[Row], row: &Row, hash: u64) -> std::result::Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                (_, 0) => return Err(at),
                (h, pos) if h == hash && stored[pos as usize - 1] == *row => {
                    return Ok(pos as usize - 1)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        for (hash, pos) in old.into_iter().filter(|(_, pos)| *pos != 0) {
            let mut at = hash as usize & (size - 1);
            while self.slots[at].1 != 0 {
                at = (at + 1) & (size - 1);
            }
            self.slots[at] = (hash, pos);
        }
    }
}

/// Keep the first occurrence of each row, in order.
pub(crate) fn distinct(rows: impl Iterator<Item = Row>) -> Vec<Row> {
    let mut seen = Seen::default();
    let mut out = Vec::with_capacity(rows.size_hint().0);
    for row in rows {
        if seen.is_new(&out, &row) {
            out.push(row);
        }
    }
    out
}

pub(crate) fn check_arity(left: usize, right: usize) -> Result<()> {
    if left != right {
        return Err(Error::Bind(format!(
            "set operation arity mismatch: {left} vs {right} columns"
        )));
    }
    Ok(())
}

/// Apply a set operation to operands of equal arity.
pub(crate) fn apply(op: SetOp, all: bool, mut left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    match (op, all) {
        (SetOp::Union, true) => {
            left.extend(right);
            left
        }
        (SetOp::Union, false) => distinct(left.into_iter().chain(right)),
        (SetOp::Intersect | SetOp::Except, _) => {
            let keep_members = op == SetOp::Intersect;
            let mut members = Seen::default();
            let mut right_rows = Vec::with_capacity(right.len());
            for row in right {
                if members.is_new(&right_rows, &row) {
                    right_rows.push(row);
                }
            }
            let mut seen = Seen::default();
            let mut out = Vec::new();
            for row in left {
                let member = members.find(&right_rows, &row).is_some();
                if member == keep_members && seen.is_new(&out, &row) {
                    out.push(row);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rs(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|&v| Row(vec![Value::Int(v)])).collect()
    }

    fn xs(rows: &[Row]) -> Vec<i64> {
        rows.iter()
            .map(|row| match row.get(0) {
                Value::Int(i) => *i,
                _ => panic!(),
            })
            .collect()
    }

    #[test]
    fn union_dedups_preserving_first_occurrence() {
        let out = apply(SetOp::Union, false, rs(&[1, 2, 2]), rs(&[2, 3]));
        assert_eq!(xs(&out), vec![1, 2, 3]);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let out = apply(SetOp::Union, true, rs(&[1, 2]), rs(&[2, 3]));
        assert_eq!(xs(&out), vec![1, 2, 2, 3]);
    }

    #[test]
    fn intersect() {
        let out = apply(SetOp::Intersect, false, rs(&[1, 2, 2, 3]), rs(&[2, 3, 4]));
        assert_eq!(xs(&out), vec![2, 3]);
    }

    #[test]
    fn except() {
        let out = apply(SetOp::Except, false, rs(&[1, 2, 2, 3]), rs(&[2]));
        assert_eq!(xs(&out), vec![1, 3]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(check_arity(1, 2).is_err());
        assert!(check_arity(2, 2).is_ok());
    }

    #[test]
    fn union_treats_nulls_as_duplicates() {
        let l = vec![Row(vec![Value::Null]), Row(vec![Value::Null])];
        let r = vec![Row(vec![Value::Null])];
        assert_eq!(apply(SetOp::Union, false, l, r).len(), 1);
    }

    #[test]
    fn seen_survives_growth_and_collisions() {
        // Many rows, INT/FLOAT twins included (equal, and hashed equal).
        let mut seen = Seen::default();
        let mut stored = Vec::new();
        for i in 0..5000 {
            let row = Row(vec![
                Value::Int(i % 300),
                Value::Text(format!("r{}", i % 7)),
            ]);
            let twin = Row(vec![Value::Float((i % 300) as f64), row.0[1].clone()]);
            let fresh = seen.is_new(&stored, &row);
            if fresh {
                stored.push(row);
            }
            assert!(seen.find(&stored, &twin).is_some());
        }
        assert_eq!(stored.len(), 300 * 7);
    }
}
