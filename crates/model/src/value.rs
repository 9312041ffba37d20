//! Values, dates, and the comparator vocabulary of the query language.
//!
//! §3.1 of the chapter defines selection predicates `A op const` and join
//! predicates `A op B` with `op ∈ {=, <, <=, >, >=, like}`. This module
//! provides the runtime [`Value`] representation and the evaluation of
//! those comparators, including SQL-style `like` pattern matching with
//! `%` (any sequence) and `_` (any single character).

use std::cmp::Ordering;
use std::fmt;

use crate::error::ModelError;

/// A calendar date, used for attributes such as `Movie.Openings.Date`.
///
/// Ordering is chronological. Only the fields needed by the running
/// example are modelled; no time-zone or time-of-day support is required
/// by the chapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Four-digit year.
    pub year: i32,
    /// Month in `1..=12`.
    pub month: u8,
    /// Day in `1..=31`.
    pub day: u8,
}

impl Date {
    /// Builds a date, clamping month and day into their calendar ranges.
    ///
    /// Synthetic data generators produce arbitrary integers; clamping
    /// keeps the invariant `1 <= month <= 12 && 1 <= day <= 31` without
    /// forcing every generator to handle an error case.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        Date {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 31),
        }
    }

    /// A total order key useful for arithmetic on synthetic dates.
    pub fn ordinal(&self) -> i64 {
        self.year as i64 * 372 + (self.month as i64 - 1) * 31 + (self.day as i64 - 1)
    }

    /// Inverse of [`Date::ordinal`].
    pub fn from_ordinal(ord: i64) -> Self {
        let year = ord.div_euclid(372);
        let rem = ord.rem_euclid(372);
        let month = rem / 31 + 1;
        let day = rem % 31 + 1;
        Date {
            year: year as i32,
            month: month as u8,
            day: day as u8,
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A runtime value for an atomic attribute or sub-attribute.
///
/// `Int`/`Float` compare across variants (numeric promotion); all other
/// cross-variant comparisons are errors surfaced as
/// [`ModelError::IncomparableValues`] so that a mistyped query fails
/// loudly instead of silently filtering everything out.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// Absence of a value; compares equal only to itself under `=`, and
    /// is incomparable under ordering comparators.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is rejected at construction via [`Value::float`].
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Calendar date.
    Date(Date),
}

impl Clone for Value {
    fn clone(&self) -> Self {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Text(s) => Value::Text(s.clone()),
            Value::Date(d) => Value::Date(*d),
        }
    }

    /// Text over text reuses the buffer: a pipe stage rewrites one
    /// binding slot per input tuple.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Value::Text(slot), Value::Text(text)) => slot.clone_from(text),
            (slot, source) => *slot = source.clone(),
        }
    }
}

impl Value {
    /// Builds a float value, normalising `NaN` to `Null` so that every
    /// stored float participates in a total order.
    pub fn float(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }

    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Returns a short name of the variant, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Date(_) => "date",
        }
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Three-way comparison with numeric promotion.
    ///
    /// Returns an error for incomparable variants (e.g. text vs int).
    /// `Null` is only comparable to `Null`, and only for equality: the
    /// ordering of `Null` against anything (including itself) is `Equal`
    /// for `Null`/`Null` and an error otherwise, matching the chapter's
    /// "natural interpretation of comparators".
    pub fn compare(&self, other: &Value) -> Result<Ordering, ModelError> {
        use Value::*;
        let incomparable = || ModelError::IncomparableValues {
            left: self.to_string(),
            right: other.to_string(),
        };
        match (self, other) {
            (Null, Null) => Ok(Ordering::Equal),
            (Bool(a), Bool(b)) => Ok(a.cmp(b)),
            (Int(a), Int(b)) => Ok(a.cmp(b)),
            (Date(a), Date(b)) => Ok(a.cmp(b)),
            (Text(a), Text(b)) => Ok(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).ok_or_else(incomparable),
                _ => Err(incomparable()),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "\"{s}\""),
            Value::Date(d) => write!(f, "{d}"),
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
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
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
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

/// The comparators of §3.1: `{=, <, <=, >, >=, like}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparator {
    /// Equality.
    Eq,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// SQL-style pattern match; right operand is the pattern.
    Like,
}

impl Comparator {
    /// Evaluates `left op right`.
    ///
    /// Comparisons involving `Null` under ordering comparators evaluate
    /// to `false` (three-valued logic collapsed to boolean, as in SQL
    /// `WHERE`), while type errors between non-null values are reported.
    pub fn eval(&self, left: &Value, right: &Value) -> Result<bool, ModelError> {
        if let Comparator::Like = self {
            return match (left, right) {
                (Value::Text(s), Value::Text(p)) => Ok(like_match(s, p)),
                (Value::Null, _) | (_, Value::Null) => Ok(false),
                _ => Err(ModelError::IncomparableValues {
                    left: left.to_string(),
                    right: right.to_string(),
                }),
            };
        }
        if left.is_null() || right.is_null() {
            // SQL semantics: NULL op x is unknown -> filtered out.
            return Ok(matches!(self, Comparator::Eq) && left.is_null() && right.is_null());
        }
        let ord = left.compare(right)?;
        Ok(match self {
            Comparator::Eq => ord == Ordering::Equal,
            Comparator::Lt => ord == Ordering::Less,
            Comparator::Le => ord != Ordering::Greater,
            Comparator::Gt => ord == Ordering::Greater,
            Comparator::Ge => ord != Ordering::Less,
            Comparator::Like => unreachable!("handled above"),
        })
    }

    /// Parses the textual form used in the query language.
    pub fn parse(token: &str) -> Option<Comparator> {
        Some(match token {
            "=" => Comparator::Eq,
            "<" => Comparator::Lt,
            "<=" => Comparator::Le,
            ">" => Comparator::Gt,
            ">=" => Comparator::Ge,
            tok if tok.eq_ignore_ascii_case("like") => Comparator::Like,
            _ => return None,
        })
    }

    /// An estimate of the fraction of uniformly distributed candidate
    /// pairs satisfying this comparator, used by the cost model when no
    /// per-predicate selectivity is supplied (§3.2's uniformity
    /// assumption). Equality is assumed highly selective; range
    /// comparators pass roughly half of the pairs.
    pub fn default_selectivity(&self) -> f64 {
        match self {
            Comparator::Eq => 0.1,
            Comparator::Like => 0.25,
            _ => 0.5,
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparator::Eq => "=",
            Comparator::Lt => "<",
            Comparator::Le => "<=",
            Comparator::Gt => ">",
            Comparator::Ge => ">=",
            Comparator::Like => "like",
        };
        f.write_str(s)
    }
}

/// SQL-`LIKE` matcher: `%` matches any (possibly empty) sequence, `_`
/// matches exactly one character. Matching is case-sensitive; services
/// that want case-insensitive behaviour normalise their data.
///
/// Implemented as an iterative two-pointer scan with backtracking to the
/// last `%`, which runs in `O(|s| * |p|)` worst case without recursion.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, s idx)
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, si));
            pi += 1;
        } else if let Some((sp, ss)) = star {
            // Backtrack: let the last % absorb one more character.
            pi = sp;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_ordering_is_chronological() {
        let a = Date::new(2009, 3, 29);
        let b = Date::new(2009, 4, 1);
        let c = Date::new(2010, 1, 1);
        assert!(a < b && b < c);
        assert_eq!(Date::from_ordinal(a.ordinal()), a);
        assert_eq!(Date::from_ordinal(c.ordinal()), c);
    }

    #[test]
    fn date_clamps_out_of_range_fields() {
        let d = Date::new(2009, 13, 0);
        assert_eq!((d.month, d.day), (12, 1));
    }

    #[test]
    fn numeric_promotion_compares_int_and_float() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Float(1.5).compare(&Value::Int(2)).unwrap(),
            Ordering::Less
        );
    }

    #[test]
    fn incompatible_types_error() {
        let err = Value::text("x").compare(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, ModelError::IncomparableValues { .. }));
    }

    #[test]
    fn nan_is_normalised_to_null() {
        assert!(Value::float(f64::NAN).is_null());
    }

    #[test]
    fn comparator_eval_covers_all_operators() {
        let one = Value::Int(1);
        let two = Value::Int(2);
        assert!(Comparator::Lt.eval(&one, &two).unwrap());
        assert!(Comparator::Le.eval(&one, &one).unwrap());
        assert!(Comparator::Gt.eval(&two, &one).unwrap());
        assert!(Comparator::Ge.eval(&two, &two).unwrap());
        assert!(Comparator::Eq.eval(&one, &one).unwrap());
        assert!(!Comparator::Eq.eval(&one, &two).unwrap());
    }

    #[test]
    fn null_semantics_follow_sql_where() {
        assert!(!Comparator::Lt.eval(&Value::Null, &Value::Int(1)).unwrap());
        assert!(!Comparator::Eq.eval(&Value::Null, &Value::Int(1)).unwrap());
        // Two nulls are treated as equal so duplicate-elimination joins work.
        assert!(Comparator::Eq.eval(&Value::Null, &Value::Null).unwrap());
    }

    #[test]
    fn like_basic_patterns() {
        assert!(like_match("restaurant", "rest%"));
        assert!(like_match("restaurant", "%rant"));
        assert!(like_match("restaurant", "%taur%"));
        assert!(like_match("restaurant", "r_staurant"));
        assert!(!like_match("restaurant", "rest"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
    }

    #[test]
    fn like_backtracking_cases() {
        assert!(like_match("aaab", "%ab"));
        assert!(like_match("mississippi", "%iss%ppi"));
        assert!(!like_match("mississippi", "%issa%"));
        assert!(like_match("abc", "%%%abc%%"));
    }

    #[test]
    fn like_via_comparator() {
        assert!(Comparator::Like
            .eval(&Value::text("Pizzeria Roma"), &Value::text("Pizzeria%"))
            .unwrap());
        assert!(Comparator::Like
            .eval(&Value::Null, &Value::text("x%"))
            .map(|b| !b)
            .unwrap());
        assert!(Comparator::Like
            .eval(&Value::Int(3), &Value::text("3"))
            .is_err());
    }

    #[test]
    fn comparator_parse_round_trips() {
        for op in ["=", "<", "<=", ">", ">=", "like"] {
            let c = Comparator::parse(op).unwrap();
            assert_eq!(c.to_string(), op);
        }
        assert_eq!(Comparator::parse("LIKE"), Some(Comparator::Like));
        assert_eq!(Comparator::parse("!="), None);
    }

    #[test]
    fn value_display_renders_each_variant() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::text("x").to_string(), "\"x\"");
        assert_eq!(Value::Date(Date::new(2009, 1, 2)).to_string(), "2009-01-02");
    }
}
