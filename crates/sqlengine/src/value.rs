//! Runtime values and SQL comparison semantics.
//!
//! The engine uses SQL's three-valued logic: comparisons involving NULL yield
//! "unknown", represented here as `None` from [`Value::sql_cmp`] /
//! [`Value::sql_eq`]. Set operations (UNION dedup, ORDER BY, hash joins) need
//! a *total* order and hashable equality instead, which
//! [`Value::total_cmp`] and the `Hash` impl provide (NULL sorts first,
//! NULL == NULL for dedup purposes, matching SQL's `UNION`/`GROUP BY`
//! treatment of nulls as duplicates of one another).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// Column data types understood by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INTEGER"),
            DataType::Float => write!(f, "DOUBLE"),
            DataType::Text => write!(f, "VARCHAR"),
            DataType::Bool => write!(f, "BOOLEAN"),
        }
    }
}

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl Value {
    /// Runtime type of the value, `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for WHERE clauses: only TRUE passes; NULL and FALSE filter
    /// the row out (SQL semantics).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Size of the value when shipped over the wire, in bytes. This feeds the
    /// WAN simulator's data-volume accounting; the constants mirror a typical
    /// client/server wire protocol (fixed-width numerics, length-prefixed
    /// text).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => 4 + s.len(),
        }
    }

    /// SQL equality: NULL compared with anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL ordering comparison. Numeric types compare cross-type (INT vs
    /// FLOAT, exactly: no INT is rounded to a FLOAT first); NULL, NaN or
    /// mixed non-numeric types yield `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_cmp_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_cmp_float(*b, *a).map(Ordering::reverse),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting and dedup: NULL < Bool < Int/Float < Text.
    /// Cross-type numeric values interleave by exact numeric value, `-0.0`
    /// equals `0.0`, and a NaN sorts beyond the infinity of its sign.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => unsigned_zero(*a).total_cmp(&unsigned_zero(*b)),
            (Value::Int(a), Value::Float(b)) => int_total_cmp_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_total_cmp_float(*b, *a).reverse(),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Equality used by hash-based dedup/joins: NULL equals NULL, numerics
    /// compare by value across INT/FLOAT.
    pub fn dedup_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// CAST the value to `target`, following SQL's permissive conversion
    /// rules. NULL casts to NULL of any type.
    pub fn cast(&self, target: DataType) -> Result<Value> {
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (v, t) if v.data_type() == Some(t) => Ok(v.clone()),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) => Ok(Value::Int(*f as i64)),
            (Value::Int(i), DataType::Text) => Ok(Value::Text(i.to_string())),
            (Value::Float(f), DataType::Text) => Ok(Value::Text(f.to_string())),
            (Value::Bool(b), DataType::Text) => {
                Ok(Value::Text(if *b { "true" } else { "false" }.into()))
            }
            (Value::Bool(b), DataType::Int) => Ok(Value::Int(i64::from(*b))),
            (Value::Text(s), DataType::Int) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::Eval(format!("cannot cast '{s}' to INTEGER"))),
            (Value::Text(s), DataType::Float) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::Eval(format!("cannot cast '{s}' to DOUBLE"))),
            (Value::Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "0" => Ok(Value::Bool(false)),
                _ => Err(Error::Eval(format!("cannot cast '{s}' to BOOLEAN"))),
            },
            (v, t) => Err(Error::Eval(format!(
                "cannot cast {} to {t}",
                v.data_type()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "NULL".into())
            ))),
        }
    }

    /// Coerce a value on INSERT into a column of type `target`. Stricter than
    /// CAST: only the lossless numeric widening INT -> FLOAT is implicit.
    pub fn coerce_for_column(&self, target: DataType) -> Result<Value> {
        match (self, target) {
            (Value::Null, _) => Ok(Value::Null),
            (v, t) if v.data_type() == Some(t) => Ok(v.clone()),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (v, t) => Err(Error::Schema(format!(
                "value {v} does not fit column type {t}"
            ))),
        }
    }
}

/// `i` against `f` by exact value — `None` only for a NaN. The one
/// definition of mixed INT/FLOAT order, for [`Value::sql_cmp`] and
/// [`Value::total_cmp`]: rounding `i` to `f64` first would make
/// `9007199254740993` equal `9007199254740992.0`, and `=` intransitive.
fn int_cmp_float(i: i64, f: f64) -> Option<Ordering> {
    // 2^63: every i64 is below it, and every f64 below it and at least
    // -2^63 truncates to an i64 exactly.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        None
    } else if f >= TWO_63 {
        Some(Ordering::Less)
    } else if f < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let whole = f.trunc();
        // Equal whole parts: the fraction decides (`0 < f - whole` means
        // `i < f`).
        Some(
            i.cmp(&(whole as i64))
                .then(0.0_f64.total_cmp(&unsigned_zero(f - whole))),
        )
    }
}

/// [`int_cmp_float`] with a NaN placed where `f64::total_cmp` puts it:
/// beyond the infinity of its sign.
fn int_total_cmp_float(i: i64, f: f64) -> Ordering {
    int_cmp_float(i, f).unwrap_or(if f.is_sign_negative() {
        Ordering::Greater
    } else {
        Ordering::Less
    })
}

/// `-0.0` as `0.0` (SQL `=` holds between them), anything else unchanged.
fn unsigned_zero(f: f64) -> f64 {
    if f == 0.0 {
        0.0
    } else {
        f
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.dedup_eq(other)
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // INT and FLOAT must hash identically when numerically equal
            // because dedup_eq treats them as equal: an INT equal to a FLOAT
            // converts to it exactly, and both zeros hash as `0.0`.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                unsigned_zero(*f).to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Float(2.0)), Some(true));
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incompatible_types_do_not_compare() {
        assert_eq!(Value::Text("1".into()).sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_sorts_null_first() {
        let mut vs = [
            Value::Text("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(false),
            Value::Float(2.5),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Bool(false));
        assert_eq!(vs[2], Value::Float(2.5));
        assert_eq!(vs[3], Value::Int(5));
        assert_eq!(vs[4], Value::Text("a".into()));
    }

    #[test]
    fn dedup_eq_treats_nulls_equal() {
        assert!(Value::Null.dedup_eq(&Value::Null));
        assert!(Value::Int(3).dedup_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).dedup_eq(&Value::Float(3.5)));
    }

    #[test]
    fn hash_consistent_with_dedup_eq_across_numeric_types() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn int_and_float_compare_exactly() {
        // 2^53 + 1 has no f64: rounding it would make it equal 2^53.
        let (odd, even) = (Value::Int((1 << 53) + 1), Value::Float((1u64 << 53) as f64));
        assert_eq!(odd.sql_eq(&even), Some(false));
        assert_eq!(odd.sql_cmp(&even), Some(Ordering::Greater));
        assert_eq!(even.total_cmp(&odd), Ordering::Less);
        assert!(Value::Int(1 << 53).dedup_eq(&even));
        let two_63 = 9_223_372_036_854_775_808.0;
        let top = Value::Float(two_63);
        assert_eq!(Value::Int(i64::MAX).sql_cmp(&top), Some(Ordering::Less));
        assert_eq!(
            Value::Int(i64::MIN).sql_eq(&Value::Float(-two_63)),
            Some(true)
        );
        assert_eq!(
            Value::Float(-2.5).sql_cmp(&Value::Int(-2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(f64::NAN)), None);
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(i64::MIN).total_cmp(&Value::Float(-f64::NAN)),
            Ordering::Greater
        );
    }

    #[test]
    fn zeros_are_one_value() {
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg.sql_eq(&pos), Some(true));
        assert!(neg.dedup_eq(&pos) && neg.dedup_eq(&Value::Int(0)));
        assert_eq!(hash_of(&neg), hash_of(&pos));
        assert_eq!(hash_of(&neg), hash_of(&Value::Int(0)));
    }

    #[test]
    fn cast_text_to_int_and_back() {
        assert_eq!(
            Value::Text(" 42 ".into()).cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(42).cast(DataType::Text).unwrap(),
            Value::Text("42".into())
        );
        assert!(Value::Text("abc".into()).cast(DataType::Int).is_err());
    }

    #[test]
    fn cast_null_is_null_of_any_type() {
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
        assert!(Value::Null.cast(DataType::Text).unwrap().is_null());
    }

    #[test]
    fn coerce_rejects_lossy() {
        assert!(Value::Float(1.5).coerce_for_column(DataType::Int).is_err());
        assert_eq!(
            Value::Int(1).coerce_for_column(DataType::Float).unwrap(),
            Value::Float(1.0)
        );
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Int(0).wire_size(), 8);
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Text("abcd".into()).wire_size(), 8);
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Null.is_true());
        assert!(!Value::Int(1).is_true());
    }
}
