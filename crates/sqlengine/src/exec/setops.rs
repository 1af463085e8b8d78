//! UNION / UNION ALL / INTERSECT / EXCEPT over materialized rows.
//!
//! Column names and types come from the left operand (standard behaviour);
//! operands must agree in arity. Dedup uses the engine's total value
//! equality (NULL == NULL, INT and FLOAT compare numerically).

use std::hash::{Hash, Hasher};

use crate::ast::SetOp;
use crate::error::{Error, Result};
use crate::persist::WordHasher;
use crate::row::Row;

/// De-duplication by hash over rows the caller stores: the set remembers
/// *positions* in that store, so a row is hashed once, compared against the
/// rows already kept, and never copied. (Open addressing with linear
/// probing; a slot holds the row's hash and its position + 1.)
///
/// A set hashes the whole row, or — `key` — the one value at that output
/// ordinal. Either hash is consistent with full-row equality (`Row::eq`,
/// which alone decides a match): equal rows hold equal values at every
/// ordinal, and equal values hash equal. So a key only changes which rows
/// share a hash, never which rows are kept. A UNION of two sharing blocks
/// keys on a column each block's table holds unique (`exec::run_set`):
/// each operand then adds at most one row per key value, so a probe meets
/// at most two rows of its key value, and the row's other values — a PDM
/// node's payload among them — are never read into a hash. Correctness
/// does not rest on that reading: a key that turned out not unique would
/// only make longer probe chains.
#[derive(Default)]
pub(crate) struct Seen {
    slots: Vec<(u64, u32)>,
    len: usize,
    key: Option<usize>,
}

/// A fixed hash ([`WordHasher`]) of `row`, or of its value at `key`:
/// results never depend on it, and runs must repeat exactly. Not keyed, so
/// a client could choose rows that collide — as under
/// `DefaultHasher::new()` (SipHash with fixed keys), which costs several
/// times as much per row.
fn hash_of(row: &Row, key: Option<usize>) -> u64 {
    let mut hasher = WordHasher::new(0);
    match key {
        None => row.hash(&mut hasher),
        Some(ordinal) => row.get(ordinal).hash(&mut hasher),
    }
    hasher.finish()
}

impl Seen {
    /// A set hashing the value at `key` (`None`: the whole row) that holds
    /// `n` rows before it first grows.
    pub fn with_capacity(n: usize, key: Option<usize>) -> Self {
        let mut seen = Seen {
            key,
            ..Seen::default()
        };
        if n > 0 {
            seen.slots = vec![(0, 0); (n * 2).next_power_of_two().max(16)];
        }
        seen
    }

    /// Position in `stored` of a row equal to `row`, among the rows this set
    /// was told about.
    pub fn find(&self, stored: &[Row], row: &Row) -> Option<usize> {
        self.probe(stored, row, hash_of(row, self.key)).ok()
    }

    /// True if no row of `stored` seen so far equals `row`, which is then
    /// remembered as the row the caller is about to push at `stored.len()`.
    pub fn is_new(&mut self, stored: &[Row], row: &Row) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = hash_of(row, self.key);
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

/// Keep the first occurrence of each row, in order, remembering them in
/// `seen` (empty).
pub(crate) fn distinct(rows: impl Iterator<Item = Row>, mut seen: Seen) -> Vec<Row> {
    let mut out = Vec::with_capacity(rows.size_hint().0);
    for row in rows {
        if seen.is_new(&out, &row) {
            out.push(row);
        }
    }
    out
}

/// The operands of a set operation agree in arity: checked when the plan is
/// built, so [`apply`] never meets a mismatch.
pub(crate) fn check_arity(left: usize, right: usize) -> Result<()> {
    if left != right {
        return Err(Error::Bind(format!(
            "set operation arity mismatch: {left} vs {right} columns"
        )));
    }
    Ok(())
}

/// Apply a set operation to operands of equal arity. A UNION's dedup hashes
/// the value at `key` (`None`: the whole row; see [`Seen`]); INTERSECT and
/// EXCEPT hash whole rows.
pub(crate) fn apply(
    op: SetOp,
    all: bool,
    key: Option<usize>,
    mut left: Vec<Row>,
    right: Vec<Row>,
) -> Vec<Row> {
    match (op, all) {
        (SetOp::Union, true) => {
            left.extend(right);
            left
        }
        (SetOp::Union, false) => {
            // Sized for operands of mostly distinct rows (the Query's UNION
            // of assemblies and components), so the set never grows.
            let seen = Seen::with_capacity(left.len() + right.len(), key);
            distinct(left.into_iter().chain(right), seen)
        }
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
        vals.iter()
            .map(|&v| Row::new(vec![Value::Int(v)]))
            .collect()
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
        let out = apply(SetOp::Union, false, None, rs(&[1, 2, 2]), rs(&[2, 3]));
        assert_eq!(xs(&out), vec![1, 2, 3]);
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let out = apply(SetOp::Union, true, None, rs(&[1, 2]), rs(&[2, 3]));
        assert_eq!(xs(&out), vec![1, 2, 2, 3]);
    }

    #[test]
    fn intersect() {
        let out = apply(
            SetOp::Intersect,
            false,
            None,
            rs(&[1, 2, 2, 3]),
            rs(&[2, 3, 4]),
        );
        assert_eq!(xs(&out), vec![2, 3]);
    }

    #[test]
    fn except() {
        let out = apply(SetOp::Except, false, None, rs(&[1, 2, 2, 3]), rs(&[2]));
        assert_eq!(xs(&out), vec![1, 3]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(check_arity(1, 2).is_err());
        assert!(check_arity(2, 2).is_ok());
    }

    #[test]
    fn union_treats_nulls_as_duplicates() {
        let l = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Null])];
        let r = vec![Row::new(vec![Value::Null])];
        assert_eq!(apply(SetOp::Union, false, None, l, r).len(), 1);
    }

    #[test]
    fn equal_rows_hash_equal() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(1 << 53),
            Value::Float((1u64 << 53) as f64),
            Value::Int((1 << 53) + 1),
            Value::Int(-3),
            Value::Float(-3.0),
            Value::Float(-2.5),
            Value::Float(f64::NAN),
            Value::Text("ab".into()),
            Value::Text("ab\0".into()),
        ];
        for a in &values {
            for b in &values {
                let row = |v: &Value| Row::new(vec![v.clone(), Value::Text("x".into())]);
                if a.dedup_eq(b) {
                    assert_eq!(hash_of(&row(a), None), hash_of(&row(b), None), "{a} vs {b}");
                    assert_eq!(hash_of(&row(a), Some(0)), hash_of(&row(b), Some(0)));
                }
            }
        }
    }

    #[test]
    fn consecutive_keys_spread_over_the_low_bits() {
        // `Seen` indexes by the low bits: 1,024 consecutive ids (as an
        // expand's rows differ) must not crowd into few of 2,048 slots,
        // whether the whole row is hashed or only its key column.
        for key in [None, Some(0)] {
            let mut used = vec![false; 2048];
            for i in 0..1024 {
                used[hash_of(&Row::new(vec![Value::Int(i)]), key) as usize & 2047] = true;
            }
            let spread = used.iter().filter(|u| **u).count();
            assert!(spread > 700, "{key:?}: {spread} slots");
        }
    }

    #[test]
    fn seen_survives_growth_and_collisions() {
        // Many rows, INT/FLOAT twins included (equal, and hashed equal),
        // hashed whole or by either value: a key that is not unique makes
        // longer chains, never a different set.
        for key in [None, Some(0), Some(1)] {
            let mut seen = Seen::with_capacity(0, key);
            let mut stored = Vec::new();
            for i in 0..5000 {
                let row = Row::new(vec![
                    Value::Int(i % 300),
                    Value::Text(format!("r{}", i % 7)),
                ]);
                let twin = Row::new(vec![Value::Float((i % 300) as f64), row.get(1).clone()]);
                if seen.is_new(&stored, &row) {
                    stored.push(row);
                }
                assert!(seen.find(&stored, &twin).is_some());
            }
            assert_eq!(stored.len(), 300 * 7, "{key:?}");
        }
    }
}
