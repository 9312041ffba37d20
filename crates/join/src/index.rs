//! Key-indexed tile joins: options, counters, key plans, and the one
//! per-chunk key index every tile join probes.
//!
//! The baseline `join_tile` scans the full `nX × nY` cross product of a
//! tile. When the predicate set contains equality conjuncts over atomic
//! attributes of the two streams' atoms ([`seco_query::EquiCandidate`]),
//! a key mismatch on any such conjunct falsifies the conjunction under
//! *every* group-row mapping, so pairs with different keys can be
//! skipped without evaluating them. This module turns that observation
//! into a per-chunk [`KeyIndex`]: each right-hand chunk's joint keys
//! (interned to [`Symbol`]s, whose `Ord` is by content) are sorted once,
//! and each probe row seeks its key range by binary search — the
//! sorted-key seek of *Leapfrog Triejoin*. The binary tile, every n-ary
//! stage and the rank join all probe through [`KeyIndex::candidates`].
//!
//! Exactness invariants, relied on by the equivalence property tests:
//!
//! * **Key encoding is equality-faithful.** Two values get the same
//!   encoding whenever the baseline's `=` holds (numeric promotion
//!   included: `Int` and `Float` both encode as the promoted `f64`'s
//!   bits, with `-0.0` normalized to `0.0`). Encoding collisions
//!   (large-integer rounding, separator bytes in text) can only add
//!   *candidates*: a key is marked *exact* only when it is provably
//!   injective, and every inexact hit is re-verified by the full
//!   evaluation.
//! * **Fallback on anything unusual.** A row missing a planned atom, or
//!   carrying an unencodable value (a raw `NaN`, on which the baseline
//!   would error), has no key: an unkeyed indexed row is a candidate of
//!   every probe, and an unkeyed probe row scans the whole chunk, so the
//!   nested loop's behavior — including its errors — is reproduced.
//! * **Emission order is the nested loop's.** Index entries keep row
//!   numbers, and a probe merges its key's rows with the unkeyed rows in
//!   ascending row order, so results appear in the exact (i, j) order of
//!   the baseline.

use seco_model::{AtomShape, ChunkColumns, ColumnRef, CompositeTuple, Symbol, Value};
use seco_query::EquiCandidate;

/// Which candidate-pair enumeration the join executor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinIndexMode {
    /// The nested loop: every pair of a tile is a candidate, judged
    /// one at a time by the compiled predicate set — no key index, no
    /// batch kernel.
    Off,
    /// Per-chunk key index on equi-join keys, with nested-loop fallback
    /// when no key exists. Byte-identical to `Off`.
    #[default]
    Hash,
}

/// Join-kernel options carried through `EngineConfig` and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinIndexOptions {
    /// Candidate enumeration mode.
    pub mode: JoinIndexMode,
}

/// Options for the columnar data plane. Both switches preserve
/// byte-identical results; they only choose how candidate pairs are
/// keyed and evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnarOptions {
    /// Consume chunk bodies column-wise where possible: index keys are
    /// extracted straight from typed columns and batch kernels read
    /// body-backed columns zero-copy. When off, executors go through
    /// the materialized row view only.
    pub columnar: bool,
    /// Evaluate compiled predicates with vectorized batch kernels
    /// (selection masks over whole chunks, residual evaluation over
    /// index-selected candidate lists). When off, every candidate is
    /// evaluated scalar, one composite at a time.
    pub batch_eval: bool,
}

impl Default for ColumnarOptions {
    fn default() -> Self {
        ColumnarOptions {
            columnar: true,
            batch_eval: true,
        }
    }
}

/// Counters describing how much work the join kernel actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinStats {
    /// Key indexes built (one per chunk that got indexed).
    pub index_builds: u64,
    /// Index lookups performed by keyed probes.
    pub probes: u64,
    /// Candidate pairs skipped without evaluation (key mismatches and
    /// pruned tiles).
    pub pairs_skipped: u64,
    /// Whole tiles skipped (index-emptiness, or the rank join's
    /// score-frontier bound).
    pub tiles_pruned: u64,
    /// Predicate-set evaluations performed.
    /// Batch kernels count every candidate they cover, so this matches
    /// the scalar path exactly.
    pub predicate_evals: u64,
    /// Typed columns consumed by the columnar plane (key extraction,
    /// batch kernels, and gathers).
    pub columns_scanned: u64,
    /// Successful batch-kernel invocations (each covers many
    /// candidates; scalar fallbacks are not counted).
    pub batch_evals: u64,
    /// Rows materialized out of the columnar plane into the shared row
    /// view (chunks that stayed columnar end to end contribute zero).
    pub rows_materialized: u64,
    /// Chunks actually fetched from the two streams (rank join and the
    /// tile-space executor both report `calls_x + calls_y` here).
    pub chunks_fetched: u64,
    /// Chunks the rank join proved it never needed to fetch (known only
    /// when the operator was given a [`crate::tile::TileSpace`] with
    /// total chunk counts; zero otherwise).
    pub chunks_saved: u64,
    /// Threshold-bound evaluations performed by the rank join.
    pub bound_checks: u64,
    /// Intermediate composite materializations the n-ary kernel elided
    /// (rows a binary cascade would have built as `CompositeTuple`s).
    pub intermediates_elided: u64,
    /// Microseconds until the k-th result was provably final in the
    /// rank join's buffer (0 when the run never reached k).
    pub time_to_kth_us: u64,
}

impl JoinStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &JoinStats) {
        self.index_builds += other.index_builds;
        self.probes += other.probes;
        self.pairs_skipped += other.pairs_skipped;
        self.tiles_pruned += other.tiles_pruned;
        self.predicate_evals += other.predicate_evals;
        self.columns_scanned += other.columns_scanned;
        self.batch_evals += other.batch_evals;
        self.rows_materialized += other.rows_materialized;
        self.chunks_fetched += other.chunks_fetched;
        self.chunks_saved += other.chunks_saved;
        self.bound_checks += other.bound_checks;
        self.intermediates_elided += other.intermediates_elided;
        // Time-to-k-th is a latency, not a volume: merging runs keeps
        // the slowest one rather than summing unrelated clocks.
        self.time_to_kth_us = self.time_to_kth_us.max(other.time_to_kth_us);
    }
}

/// Separates the per-conjunct encodings inside a joint key. Text
/// containing the separator can at worst merge two distinct joint keys
/// into one — a safe collision, since such keys are never exact.
const KEY_SEP: char = '\u{1f}';

/// Appends an equality-faithful encoding of `v` to `out`. Returns
/// `false` for values with no faithful encoding (a raw `NaN`), which
/// the caller must route to the scan-everything fallback.
fn encode_value(v: &Value, out: &mut String) -> bool {
    use std::fmt::Write;
    match v {
        // `=` holds for Null only against Null, so Null gets its own tag.
        Value::Null => out.push('n'),
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        // Int and Float share the baseline's numeric promotion: encode
        // the promoted f64's bits. `-0.0 == 0.0` under `=`, so normalize.
        Value::Int(i) => {
            let f = *i as f64;
            let f = if f == 0.0 { 0.0 } else { f };
            let _ = write!(out, "f{:016x}", f.to_bits());
        }
        Value::Float(f) => {
            if f.is_nan() {
                return false;
            }
            let f = if *f == 0.0 { 0.0 } else { *f };
            let _ = write!(out, "f{:016x}", f.to_bits());
        }
        Value::Text(s) => {
            out.push('t');
            out.push_str(s);
        }
        Value::Date(d) => {
            let _ = write!(out, "d{}", d.ordinal());
        }
    }
    true
}

/// Appends the encoding of row `j` of a typed column — byte-identical
/// to [`encode_value`] on the row view's `Value`, without building it.
/// Returns `false` for unencodable cells (a raw `NaN`).
fn encode_cell(col: &ColumnRef<'_>, j: usize, out: &mut String) -> bool {
    use std::fmt::Write;
    if col.is_null(j) {
        out.push('n');
        return true;
    }
    match col {
        ColumnRef::Bool(v, _) => out.push_str(if v[j] { "b1" } else { "b0" }),
        ColumnRef::Int(v, _) => {
            let f = v[j] as f64;
            let f = if f == 0.0 { 0.0 } else { f };
            let _ = write!(out, "f{:016x}", f.to_bits());
        }
        ColumnRef::Float(v, _) => {
            if v[j].is_nan() {
                return false;
            }
            let f = if v[j] == 0.0 { 0.0 } else { v[j] };
            let _ = write!(out, "f{:016x}", f.to_bits());
        }
        ColumnRef::Text(v, _) => {
            out.push('t');
            out.push_str(v[j].as_str());
        }
        ColumnRef::Date(v, _) => {
            let _ = write!(out, "d{}", v[j].ordinal());
        }
        ColumnRef::Mixed(v) => return encode_value(&v[j], out),
    }
    true
}

/// A row's joint key: the interned encoding of its conjunct values and
/// whether it is *exact* — provably injective, so equal exact keys mean
/// equal values (a single conjunct, or no separator inside a `Text`
/// value). `None` when some value has no faithful encoding.
pub(crate) type Key = Option<(Symbol, bool)>;

/// Encodes `n` conjuncts into `buf` (cleared first), `encode` appending
/// conjunct `i`'s encoding or refusing it.
fn key_with(n: usize, buf: &mut String, mut encode: impl FnMut(usize, &mut String) -> bool) -> Key {
    buf.clear();
    for i in 0..n {
        if i > 0 {
            buf.push(KEY_SEP);
        }
        if !encode(i, buf) {
            return None;
        }
    }
    // Only a `Text` value can add separators to the encoding.
    let exact = n == 1 || buf.matches(KEY_SEP).count() == n - 1;
    Some((Symbol::intern(buf), exact))
}

/// The joint key of `n` conjunct values, `value(i)` reading the i-th.
pub(crate) fn joint_key<'v>(
    n: usize,
    buf: &mut String,
    mut value: impl FnMut(usize) -> &'v Value,
) -> Key {
    key_with(n, buf, |i, buf| encode_value(value(i), buf))
}

/// The key index of one chunk: its rows' joint keys sorted by content,
/// plus the rows with no key, which every probe must visit. Rows are
/// numbered from the chunk's first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyIndex {
    /// `(key, row, exact)`, ascending: one key's rows stay in row order.
    keys: Vec<(Symbol, u32, bool)>,
    /// Rows with no key, ascending.
    unkeyed: Vec<u32>,
}

impl KeyIndex {
    /// Indexes `rows` rows, `key_of(j, buf)` giving row `j`'s key.
    pub(crate) fn build(rows: usize, mut key_of: impl FnMut(usize, &mut String) -> Key) -> Self {
        let (mut keys, mut unkeyed, mut buf) = (Vec::new(), Vec::new(), String::new());
        for j in 0..rows {
            match key_of(j, &mut buf) {
                Some((key, exact)) => keys.push((key, j as u32, exact)),
                None => unkeyed.push(j as u32),
            }
        }
        keys.sort_unstable();
        KeyIndex { keys, unkeyed }
    }

    /// Indexes a chunk straight from its typed key columns, one per
    /// conjunct — the same index [`KeyIndex::build`] makes from the rows.
    pub(crate) fn from_columns(cols: &[ColumnRef<'_>], rows: usize) -> Self {
        Self::build(rows, |j, buf| {
            key_with(cols.len(), buf, |i, buf| encode_cell(&cols[i], j, buf))
        })
    }

    /// The indexed rows holding `key`.
    fn bucket(&self, key: Symbol) -> &[(Symbol, u32, bool)] {
        let lo = self.keys.partition_point(|(k, _, _)| *k < key);
        let len = self.keys[lo..].partition_point(|(k, _, _)| *k == key);
        &self.keys[lo..lo + len]
    }

    /// The candidate rows of a probe against this chunk of `rows` rows,
    /// ascending: the probe key's rows merged with the unkeyed ones
    /// (counting the probe and the rows it skips), or the whole chunk
    /// for a probe with no key. A candidate is exact when both keys are.
    pub(crate) fn candidates<'c>(
        &self,
        probe: Key,
        rows: usize,
        stats: &mut JoinStats,
        buf: &'c mut Vec<(u32, bool)>,
    ) -> Candidates<'c> {
        let Some((key, exact)) = probe else {
            return Candidates::All(rows);
        };
        stats.probes += 1;
        let (hits, unkeyed) = (self.bucket(key), &self.unkeyed);
        buf.clear();
        let (mut h, mut u) = (0, 0);
        while h < hits.len() || u < unkeyed.len() {
            if u == unkeyed.len() || (h < hits.len() && hits[h].1 < unkeyed[u]) {
                buf.push((hits[h].1, exact && hits[h].2));
                h += 1;
            } else {
                buf.push((unkeyed[u], false));
                u += 1;
            }
        }
        stats.pairs_skipped += (rows - buf.len()) as u64;
        Candidates::Rows(buf)
    }

    /// Whether no row of `probes` can meet a row of this chunk: both
    /// sides fully keyed and no probe key present.
    pub(crate) fn misses_all(&self, probes: &ProbeKeys) -> bool {
        self.unkeyed.is_empty()
            && (probes.0.iter()).all(|p| p.is_some_and(|(key, _)| self.bucket(key).is_empty()))
    }
}

/// A probe's candidate rows, ascending, each with whether the key
/// comparison already proved the match.
pub(crate) enum Candidates<'c> {
    /// Every row of a chunk of this many (an unkeyed probe, or no index).
    All(usize),
    /// Index-selected rows.
    Rows(&'c [(u32, bool)]),
}

impl Candidates<'_> {
    /// Number of candidates.
    pub(crate) fn len(&self) -> usize {
        match self {
            Candidates::All(n) => *n,
            Candidates::Rows(rows) => rows.len(),
        }
    }

    /// The candidates as `(row, exact)`, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let (all, rows) = match *self {
            Candidates::All(n) => (0..n, &[][..]),
            Candidates::Rows(rows) => (0..0, rows),
        };
        (all.map(|j| (j, false))).chain(rows.iter().map(|&(j, exact)| (j as usize, exact)))
    }
}

/// The probe keys of one chunk, one per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProbeKeys(Vec<Key>);

impl ProbeKeys {
    /// Keys `rows` rows, `key_of(i, buf)` giving row `i`'s key.
    pub(crate) fn build(rows: usize, mut key_of: impl FnMut(usize, &mut String) -> Key) -> Self {
        let mut buf = String::new();
        ProbeKeys((0..rows).map(|i| key_of(i, &mut buf)).collect())
    }

    /// Row `i`'s key.
    pub(crate) fn at(&self, i: usize) -> Key {
        self.0[i]
    }
}

/// The key layout of a binary tile for one Y-chunk shape: the equi
/// conjuncts whose Y-side atoms appear in the chunk's composites,
/// oriented as the `(atom, field)` each side reads. Plans are
/// deduplicated per run; indexes and probe keys are tagged with the
/// plan they were built under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyPlan {
    y: Vec<(Symbol, usize)>,
    x: Vec<(Symbol, usize)>,
}

impl KeyPlan {
    /// Orients `equi` against a sample composite of the Y chunk.
    /// Returns `None` when no conjunct applies (the executor then keeps
    /// the nested loop for tiles over this chunk).
    ///
    /// A conjunct whose *both* atoms appear in the sample is still
    /// usable: the merged pair shares those components (or the merge
    /// fails), so a key mismatch implies either no merge or a false
    /// predicate — skipping remains exact.
    pub(crate) fn build(equi: &[EquiCandidate], sample: &CompositeTuple) -> Option<KeyPlan> {
        let (mut y, mut x) = (Vec::new(), Vec::new());
        for c in equi {
            let (left, right) = ((c.left_atom, c.left_field), (c.right_atom, c.right_field));
            if sample.atoms.contains(&c.right_atom) {
                y.push(right);
                x.push(left);
            } else if sample.atoms.contains(&c.left_atom) {
                y.push(left);
                x.push(right);
            }
        }
        (!y.is_empty()).then_some(KeyPlan { y, x })
    }

    /// The Y side's key reader.
    pub(crate) fn y_side(&self) -> KeySide<'_> {
        KeySide::new(&self.y)
    }

    /// The X side's key reader.
    pub(crate) fn x_side(&self) -> KeySide<'_> {
        KeySide::new(&self.x)
    }

    /// The Y side's key columns in a chunk body whose rows all belong to
    /// `atom`, when every Y conjunct reads `atom` and has a typed column.
    pub(crate) fn y_columns<'c>(
        &self,
        atom: Symbol,
        cols: &'c ChunkColumns,
    ) -> Option<Vec<ColumnRef<'c>>> {
        if self.y.iter().any(|(a, _)| *a != atom) {
            return None;
        }
        self.y.iter().map(|(_, f)| cols.column(*f)).collect()
    }
}

/// One side of a [`KeyPlan`] reading composites: each conjunct's atom is
/// resolved to a component position once per atom shape, never per row.
pub(crate) struct KeySide<'p> {
    fields: &'p [(Symbol, usize)],
    shape: Option<AtomShape>,
    /// `(component, field)` per conjunct under `shape`; `None` when the
    /// shape lacks a planned atom.
    at: Option<Vec<(usize, usize)>>,
}

impl<'p> KeySide<'p> {
    fn new(fields: &'p [(Symbol, usize)]) -> Self {
        KeySide {
            fields,
            shape: None,
            at: None,
        }
    }

    /// The joint key of `c`, or `None` when it lacks a planned atom or
    /// holds an unencodable value.
    pub(crate) fn key(&mut self, c: &CompositeTuple, buf: &mut String) -> Key {
        if self.shape != Some(c.atoms) {
            self.shape = Some(c.atoms);
            self.at = (self.fields.iter())
                .map(|(atom, field)| Some((c.atoms.iter().position(|a| a == atom)?, *field)))
                .collect();
        }
        let at = self.at.as_deref()?;
        joint_key(at.len(), buf, |i| c.components[at[i].0].atomic_at(at[i].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_equality_faithful() {
        let mut a = String::new();
        let mut b = String::new();
        // Int/Float promotion: 3 = 3.0.
        assert!(encode_value(&Value::Int(3), &mut a));
        assert!(encode_value(&Value::Float(3.0), &mut b));
        assert_eq!(a, b);
        // -0.0 = 0.0.
        a.clear();
        b.clear();
        assert!(encode_value(&Value::Float(-0.0), &mut a));
        assert!(encode_value(&Value::Float(0.0), &mut b));
        assert_eq!(a, b);
        // Null only matches Null.
        a.clear();
        b.clear();
        assert!(encode_value(&Value::Null, &mut a));
        assert!(encode_value(&Value::text(""), &mut b));
        assert_ne!(a, b);
        // Distinct texts stay distinct.
        a.clear();
        b.clear();
        assert!(encode_value(&Value::text("x"), &mut a));
        assert!(encode_value(&Value::text("y"), &mut b));
        assert_ne!(a, b);
        // NaN has no faithful encoding.
        a.clear();
        assert!(!encode_value(&Value::Float(f64::NAN), &mut a));
    }

    #[test]
    fn a_separator_inside_text_makes_a_joint_key_inexact() {
        let mut buf = String::new();
        let key = |vals: [Value; 2], buf: &mut String| joint_key(2, buf, |i| &vals[i]);
        let a = key([Value::text("a\u{1f}tb"), Value::text("c")], &mut buf);
        let b = key([Value::text("a"), Value::text("b\u{1f}tc")], &mut buf);
        let (Some((ka, exact_a)), Some((kb, exact_b))) = (a, b) else {
            panic!("text always encodes");
        };
        assert_eq!(ka, kb, "the two pairs collide");
        assert!(!exact_a && !exact_b, "so neither key is exact");
        let plain = key([Value::text("a"), Value::text("b")], &mut buf);
        assert!(plain.is_some_and(|(_, exact)| exact));
        // One conjunct is injective whatever its text holds.
        let text = Value::text("a\u{1f}b");
        let single = joint_key(1, &mut buf, |_| &text);
        assert!(single.is_some_and(|(_, exact)| exact));
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut s = JoinStats {
            index_builds: 1,
            probes: 2,
            pairs_skipped: 3,
            tiles_pruned: 4,
            predicate_evals: 5,
            columns_scanned: 6,
            batch_evals: 7,
            rows_materialized: 8,
            chunks_fetched: 9,
            chunks_saved: 10,
            bound_checks: 11,
            intermediates_elided: 12,
            time_to_kth_us: 500,
        };
        s.merge(&JoinStats {
            index_builds: 10,
            probes: 20,
            pairs_skipped: 30,
            tiles_pruned: 40,
            predicate_evals: 50,
            columns_scanned: 60,
            batch_evals: 70,
            rows_materialized: 80,
            chunks_fetched: 90,
            chunks_saved: 100,
            bound_checks: 110,
            intermediates_elided: 120,
            time_to_kth_us: 130,
        });
        assert_eq!(
            s,
            JoinStats {
                index_builds: 11,
                probes: 22,
                pairs_skipped: 33,
                tiles_pruned: 44,
                predicate_evals: 55,
                columns_scanned: 66,
                batch_evals: 77,
                rows_materialized: 88,
                chunks_fetched: 99,
                chunks_saved: 110,
                bound_checks: 121,
                intermediates_elided: 132,
                // Latency merges by max, not sum.
                time_to_kth_us: 500,
            }
        );
    }

    #[test]
    fn columnar_key_build_matches_row_build() {
        use seco_model::tuple::FieldSlot;
        use seco_model::Tuple;
        // K mixes Int/Float/Null (a Mixed column); T stays typed Text.
        let rows: Vec<Tuple> = [
            (Value::Int(1), Value::text("a")),
            (Value::Int(0), Value::text("b")),
            (Value::Null, Value::text("c")),
            (Value::Float(-0.0), Value::text("a")),
            (Value::Float(f64::NAN), Value::text("d")),
            (Value::Int(1), Value::Null),
            (Value::Int(2), Value::text("e\u{1f}f")),
        ]
        .into_iter()
        .map(|(k, t)| Tuple {
            fields: vec![FieldSlot::Atomic(k), FieldSlot::Atomic(t)],
            score: 0.0,
            source_rank: 0,
        })
        .collect();
        let (y, x) = (Symbol::from("y"), Symbol::from("x"));
        let plan = KeyPlan {
            y: vec![(y, 0), (y, 1)],
            x: vec![(x, 0), (x, 1)],
        };
        let composites: Vec<CompositeTuple> = rows
            .iter()
            .map(|t| CompositeTuple::single("y", t.clone()))
            .collect();
        let mut side = plan.y_side();
        let row_ix = KeyIndex::build(composites.len(), |j, buf| side.key(&composites[j], buf));
        let cols = ChunkColumns::from_tuples(&rows).expect("flat rows columnarize");
        let key_cols = plan.y_columns(y, &cols).expect("columnar build applies");
        assert_eq!(key_cols.len(), 2);
        assert_eq!(KeyIndex::from_columns(&key_cols, cols.len()), row_ix);
        assert_eq!(row_ix.unkeyed, vec![4], "NaN has no key");
        // A plan keying on a different atom refuses the columnar path.
        assert!(plan.y_columns(Symbol::from("z"), &cols).is_none());
    }
}
