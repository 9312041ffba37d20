//! Columnar storage for service-result chunks.
//!
//! A chunk decomposes into one [`Column`] per atomic schema attribute
//! (plus row-wise storage for repeating groups), with a [`BitMask`]
//! marking nulls. Typed columns keep every value representable
//! bit-exactly — `Float` columns store the raw `f64` (including `NaN`
//! and `-0.0` as produced), `Text` columns own their bytes in one
//! buffer per column ([`TextCells`], Arrow's Utf8 layout), and
//! heterogeneously-typed slots fall back to a row-wise [`Column::Mixed`]
//! — so materializing the row view reproduces the original tuples
//! byte-for-byte. A column holds values only: nothing here touches the
//! process-wide [`crate::Symbol`] table, which is for names.
//!
//! Predicate kernels consume borrowed [`ColumnRef`] handles and produce
//! selection [`BitMask`]s; see `seco-query`'s batch evaluator.

use crate::tuple::{FieldSlot, GroupTuple, Tuple};
use crate::value::{Date, Value};

/// A fixed-length bitmask over the rows of a chunk: selection masks and
/// null masks. Bit `i` set means "row `i` is selected" (or, for null
/// masks, "row `i` is null").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// All-zero mask over `len` rows.
    pub fn zeros(len: usize) -> Self {
        BitMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one mask over `len` rows.
    pub fn ones(len: usize) -> Self {
        let mut m = BitMask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        m.trim();
        m
    }

    /// Clears any bits above `len` in the last word.
    fn trim(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Resets to all ones over `len` rows, reusing the allocation.
    pub fn reset_ones(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), u64::MAX);
        self.trim();
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Intersects with `other` (same length).
    pub fn and_assign(&mut self, other: &BitMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Ascending iterator over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Keeps only the set bits whose `keep(i)` is true, visiting rows a
    /// 64-bit word at a time so simple comparisons stay branch-free and
    /// auto-vectorizable in the inner loop.
    pub fn retain_with(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let len = self.len;
        for (wi, word) in self.words.iter_mut().enumerate() {
            if *word == 0 {
                continue;
            }
            let base = wi * 64;
            let top = 64.min(len - base);
            let mut m = 0u64;
            for b in 0..top {
                m |= (keep(base + b) as u64) << b;
            }
            *word &= m;
        }
    }
}

/// The cells of a text column in one string buffer: cell `i` is
/// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first). A null cell is
/// empty; the column's null mask tells it from an empty string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextCells {
    bytes: String,
    ends: Vec<u32>,
}

impl TextCells {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Cell `i`.
    pub fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.bytes[start..self.ends[i] as usize]
    }
}

/// Typed column storage for one atomic attribute across a chunk's rows.
///
/// Nulls live in the companion [`BitMask`] (bit set = null) with an
/// arbitrary default in the data vector. A slot whose non-null values
/// span more than one [`Value`] variant degrades to [`Column::Mixed`],
/// which keeps row-wise `Value`s and stays bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>, BitMask),
    /// Raw floats; `NaN`/`-0.0` are stored as produced.
    Float(Vec<f64>, BitMask),
    /// Booleans.
    Bool(Vec<bool>, BitMask),
    /// Text, one buffer per column.
    Text(TextCells, BitMask),
    /// Calendar dates.
    Date(Vec<Date>, BitMask),
    /// Heterogeneous fallback: row-wise values, nulls inline.
    Mixed(Vec<Value>),
}

impl Column {
    /// Builds a column over `n` rows from a row accessor, choosing the
    /// narrowest typed representation that reproduces every value
    /// exactly.
    pub fn build<'a>(n: usize, get: impl Fn(usize) -> &'a Value) -> Column {
        // Pass 1: the single non-null variant, if any, and the bytes a
        // text column would hold (its offsets are `u32`).
        let mut kind: Option<&'static str> = None;
        let mut mixed = false;
        let mut text_bytes = 0usize;
        for i in 0..n {
            let v = get(i);
            if let Value::Text(s) = v {
                text_bytes += s.len();
            }
            if v.is_null() {
                continue;
            }
            match kind {
                None => kind = Some(v.type_name()),
                Some(k) if k == v.type_name() => {}
                Some(_) => {
                    mixed = true;
                    break;
                }
            }
        }
        if mixed || text_bytes > u32::MAX as usize {
            return Column::Mixed((0..n).map(|i| get(i).clone()).collect());
        }
        // Pass 2: fill the typed vector with a null mask.
        let mut nulls = BitMask::zeros(n);
        macro_rules! fill {
            ($variant:ident, $default:expr, $pat:pat => $val:expr) => {{
                let mut data = Vec::with_capacity(n);
                for i in 0..n {
                    match get(i) {
                        $pat => data.push($val),
                        _ => {
                            nulls.set(i);
                            data.push($default);
                        }
                    }
                }
                Column::$variant(data, nulls)
            }};
        }
        match kind {
            Some("int") => fill!(Int, 0, Value::Int(v) => *v),
            Some("float") => fill!(Float, 0.0, Value::Float(v) => *v),
            Some("bool") => fill!(Bool, false, Value::Bool(v) => *v),
            Some("text") => {
                let mut cells = TextCells {
                    bytes: String::with_capacity(text_bytes),
                    ends: Vec::with_capacity(n),
                };
                for i in 0..n {
                    match get(i) {
                        Value::Text(s) => cells.bytes.push_str(s),
                        _ => nulls.set(i),
                    }
                    cells.ends.push(cells.bytes.len() as u32);
                }
                Column::Text(cells, nulls)
            }
            Some("date") => fill!(Date, Date::new(0, 1, 1), Value::Date(d) => *d),
            // All-null (or empty) column: any typed carrier works.
            _ => fill!(Int, 0, Value::Int(v) => *v),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Text(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the row value at `i`, bit-exactly.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(v, nulls) => nulled(nulls, i, || Value::Int(v[i])),
            Column::Float(v, nulls) => nulled(nulls, i, || Value::Float(v[i])),
            Column::Bool(v, nulls) => nulled(nulls, i, || Value::Bool(v[i])),
            Column::Text(v, nulls) => nulled(nulls, i, || Value::Text(v.get(i).to_owned())),
            Column::Date(v, nulls) => nulled(nulls, i, || Value::Date(v[i])),
            Column::Mixed(v) => v[i].clone(),
        }
    }

    /// Borrowed view for kernels.
    pub fn as_ref(&self) -> ColumnRef<'_> {
        match self {
            Column::Int(v, n) => ColumnRef::Int(v, n),
            Column::Float(v, n) => ColumnRef::Float(v, n),
            Column::Bool(v, n) => ColumnRef::Bool(v, n),
            Column::Text(v, n) => ColumnRef::Text(v, n),
            Column::Date(v, n) => ColumnRef::Date(v, n),
            Column::Mixed(v) => ColumnRef::Mixed(v),
        }
    }
}

fn nulled(nulls: &BitMask, i: usize, v: impl FnOnce() -> Value) -> Value {
    if nulls.get(i) {
        Value::Null
    } else {
        v()
    }
}

/// Borrowed, typed view of a column — the handle the redesigned chunk
/// access API hands out ([`ChunkColumns::column`]) and the operand type
/// of the batch predicate kernels.
#[derive(Debug, Clone, Copy)]
pub enum ColumnRef<'a> {
    /// 64-bit integers with a null mask.
    Int(&'a [i64], &'a BitMask),
    /// Raw floats with a null mask.
    Float(&'a [f64], &'a BitMask),
    /// Booleans with a null mask.
    Bool(&'a [bool], &'a BitMask),
    /// Text cells with a null mask.
    Text(&'a TextCells, &'a BitMask),
    /// Dates with a null mask.
    Date(&'a [Date], &'a BitMask),
    /// Row-wise fallback.
    Mixed(&'a [Value]),
}

impl<'a> ColumnRef<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnRef::Int(v, _) => v.len(),
            ColumnRef::Float(v, _) => v.len(),
            ColumnRef::Bool(v, _) => v.len(),
            ColumnRef::Text(v, _) => v.len(),
            ColumnRef::Date(v, _) => v.len(),
            ColumnRef::Mixed(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnRef::Int(_, n)
            | ColumnRef::Float(_, n)
            | ColumnRef::Bool(_, n)
            | ColumnRef::Text(_, n)
            | ColumnRef::Date(_, n) => n.get(i),
            ColumnRef::Mixed(v) => v[i].is_null(),
        }
    }

    /// Reconstructs the row value at `i`, bit-exactly.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnRef::Int(v, nulls) => nulled(nulls, i, || Value::Int(v[i])),
            ColumnRef::Float(v, nulls) => nulled(nulls, i, || Value::Float(v[i])),
            ColumnRef::Bool(v, nulls) => nulled(nulls, i, || Value::Bool(v[i])),
            ColumnRef::Text(v, nulls) => nulled(nulls, i, || Value::Text(v.get(i).to_owned())),
            ColumnRef::Date(v, nulls) => nulled(nulls, i, || Value::Date(v[i])),
            ColumnRef::Mixed(v) => v[i].clone(),
        }
    }
}

/// One chunk field slot in columnar form: a typed column for atomic
/// attributes, row-wise storage for repeating groups.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSlot {
    /// Atomic attribute column.
    Atomic(Column),
    /// Repeating-group rows, one `Vec<GroupTuple>` per chunk row.
    Group(Vec<Vec<GroupTuple>>),
}

/// A whole chunk decomposed into columns: per-slot storage plus the
/// per-row score and source-rank vectors. Row views are reconstructed
/// bit-exactly by [`ChunkColumns::materialize_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkColumns {
    len: usize,
    scores: Vec<f64>,
    ranks: Vec<usize>,
    slots: Vec<ColumnSlot>,
}

impl ChunkColumns {
    /// Decomposes `tuples` into columns. Returns `None` when the tuples
    /// do not share one field-slot layout (same count, same kinds per
    /// position) — such chunks stay row-structured.
    pub fn from_tuples(tuples: &[Tuple]) -> Option<ChunkColumns> {
        let n = tuples.len();
        let n_fields = tuples.first().map_or(0, |t| t.fields.len());
        for t in tuples {
            if t.fields.len() != n_fields {
                return None;
            }
        }
        let mut slots = Vec::with_capacity(n_fields);
        for f in 0..n_fields {
            let group = matches!(tuples[0].fields[f], FieldSlot::Group(_));
            if tuples
                .iter()
                .any(|t| matches!(t.fields[f], FieldSlot::Group(_)) != group)
            {
                return None;
            }
            if group {
                slots.push(ColumnSlot::Group(
                    tuples
                        .iter()
                        .map(|t| match &t.fields[f] {
                            FieldSlot::Group(rows) => rows.clone(),
                            FieldSlot::Atomic(_) => unreachable!("checked above"),
                        })
                        .collect(),
                ));
            } else {
                slots.push(ColumnSlot::Atomic(Column::build(n, |i| {
                    match &tuples[i].fields[f] {
                        FieldSlot::Atomic(v) => v,
                        FieldSlot::Group(_) => unreachable!("checked above"),
                    }
                })));
            }
        }
        Some(ChunkColumns {
            len: n,
            scores: tuples.iter().map(|t| t.score).collect(),
            ranks: tuples.iter().map(|t| t.source_rank).collect(),
            slots,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of field slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// The slots themselves, in schema order (size accounting, tests).
    pub fn slots(&self) -> &[ColumnSlot] {
        &self.slots
    }

    /// Typed handle for the atomic column at schema position `field`;
    /// `None` for group slots or out-of-range indices.
    pub fn column(&self, field: usize) -> Option<ColumnRef<'_>> {
        match self.slots.get(field) {
            Some(ColumnSlot::Atomic(col)) => Some(col.as_ref()),
            _ => None,
        }
    }

    /// Per-row scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Rebuilds the full row view, bit-exact to the decomposed tuples.
    pub fn materialize_rows(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.materialize_row(i)).collect()
    }

    /// Rebuilds row `i`.
    pub fn materialize_row(&self, i: usize) -> Tuple {
        Tuple {
            fields: self
                .slots
                .iter()
                .map(|slot| match slot {
                    ColumnSlot::Atomic(col) => FieldSlot::Atomic(col.value_at(i)),
                    ColumnSlot::Group(rows) => FieldSlot::Group(rows[i].clone()),
                })
                .collect(),
            score: self.scores[i],
            source_rank: self.ranks[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmask_basics() {
        let mut m = BitMask::ones(70);
        assert_eq!(m.count_ones(), 70);
        m.clear(0);
        m.clear(65);
        assert_eq!(m.count_ones(), 68);
        assert!(!m.get(65) && m.get(64));
        let ones: Vec<usize> = m.iter_ones().collect();
        assert_eq!(ones.len(), 68);
        assert_eq!(ones[0], 1);
        m.retain_with(|i| i % 2 == 0);
        assert!(m.iter_ones().all(|i| i % 2 == 0));
        m.clear_all();
        assert!(m.none_set());
    }

    #[test]
    fn typed_columns_round_trip_exactly() {
        let vals = [
            Value::Float(1.5),
            Value::Null,
            Value::Float(-0.0),
            Value::Float(f64::NAN),
        ];
        let col = Column::build(vals.len(), |i| &vals[i]);
        assert!(matches!(col, Column::Float(..)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(format!("{:?}", col.value_at(i)), format!("{v:?}"));
        }
    }

    #[test]
    fn text_cells_share_one_buffer() {
        let vals = [
            Value::text("ab"),
            Value::Null,
            Value::text(""),
            Value::text("日付"),
        ];
        let col = Column::build(vals.len(), |i| &vals[i]);
        let Column::Text(cells, nulls) = &col else {
            panic!("one text variant builds a text column: {col:?}");
        };
        assert_eq!(cells.len(), 4);
        assert_eq!(
            (0..4).map(|i| cells.get(i)).collect::<Vec<_>>(),
            ["ab", "", "", "日付"]
        );
        assert!(nulls.get(1) && !nulls.get(2));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.value_at(i), v);
        }
    }

    #[test]
    fn mixed_columns_fall_back_row_wise() {
        let vals = [Value::Int(1), Value::text("x"), Value::Null];
        let col = Column::build(vals.len(), |i| &vals[i]);
        assert!(matches!(col, Column::Mixed(_)));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.value_at(i), v);
        }
    }
}
