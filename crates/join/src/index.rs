//! Hash-accelerated tile joins: options, counters, key plans, and the
//! per-chunk hash index.
//!
//! The baseline `join_tile` scans the full `nX × nY` cross product of a
//! tile. When the predicate set contains equality conjuncts over atomic
//! attributes of the two streams' atoms ([`seco_query::EquiCandidate`]),
//! a key mismatch on any such conjunct falsifies the conjunction under
//! *every* group-row mapping, so pairs with different keys can be
//! skipped without evaluating them. This module turns that observation
//! into a per-chunk hash index: each Y chunk is bucketed once by its
//! join-key values (interned to [`Symbol`]s), and each X composite
//! probes its bucket instead of scanning the chunk.
//!
//! Exactness invariants, relied on by the equivalence property tests:
//!
//! * **Key encoding is equality-faithful.** Two values get the same
//!   encoding whenever the baseline's `=` holds (numeric promotion
//!   included: `Int` and `Float` both encode as the promoted `f64`'s
//!   bits, with `-0.0` normalized to `0.0`), and probing re-verifies
//!   every bucket hit with the full compiled evaluation, so accidental
//!   encoding collisions (large-integer rounding, separator bytes in
//!   text) can only add *candidates*, never results.
//! * **Fallback on anything unusual.** A composite missing a planned
//!   atom, or carrying an unencodable value (a raw `NaN`, on which the
//!   baseline would error), is left out of the buckets and scanned
//!   against every probe, so the interpreter's behavior — including its
//!   errors — is reproduced.
//! * **Emission order is the nested loop's.** Bucket entries keep
//!   source indices, and the probe merges bucket hits with unscanned
//!   ("unkeyed") entries in ascending index order, so results appear in
//!   the exact (i, j) order of the baseline.

use std::collections::HashMap;

use seco_model::{ChunkColumns, ColumnRef, CompositeTuple, Symbol, Value};
use seco_query::EquiCandidate;

/// Which candidate-pair enumeration the join executor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinIndexMode {
    /// The original nested-loop scan, untouched.
    Off,
    /// Per-chunk hash index on equi-join keys, with nested-loop
    /// fallback when no key exists. Byte-identical to `Off`.
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
    /// Consume chunk bodies column-wise where possible: hash keys are
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

impl ColumnarOptions {
    /// The pre-columnar row-at-a-time configuration.
    pub fn row_plane() -> ColumnarOptions {
        ColumnarOptions {
            columnar: false,
            batch_eval: false,
        }
    }
}

/// Counters describing how much work the join kernel actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinStats {
    /// Hash indexes built (one per chunk that got bucketed).
    pub index_builds: u64,
    /// Bucket lookups performed by keyed probes.
    pub probes: u64,
    /// Candidate pairs skipped without evaluation (key mismatches and
    /// pruned tiles).
    pub pairs_skipped: u64,
    /// Whole tiles skipped (index-emptiness, or the rank join's
    /// score-frontier bound).
    pub tiles_pruned: u64,
    /// Predicate-set evaluations performed (compiled or interpreted).
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

/// Separates the per-candidate encodings inside a joint key. Text
/// containing the separator can at worst merge two distinct joint keys
/// into one bucket — a safe collision, since every hit is re-verified.
pub(crate) const KEY_SEP: char = '\u{1f}';

/// Appends an equality-faithful encoding of `v` to `out`. Returns
/// `false` for values with no faithful encoding (a raw `NaN`), which
/// the caller must route to the scan-everything fallback.
pub(crate) fn encode_value(v: &Value, out: &mut String) -> bool {
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

/// One equi conjunct oriented for a concrete (X, Y) chunk pair: which
/// atom/field the indexed (Y) side keys on, and which atom/field the
/// probing (X) side supplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanEntry {
    y_atom: Symbol,
    y_field: usize,
    x_atom: Symbol,
    x_field: usize,
}

/// The key layout for one Y-chunk shape: the oriented equi conjuncts
/// whose Y-side atoms appear in the chunk's composites. Plans are
/// deduplicated per run; indexes and probe-key caches are tagged with
/// the plan they were built under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPlan {
    entries: Vec<PlanEntry>,
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
    pub fn build(equi: &[EquiCandidate], sample: &CompositeTuple) -> Option<KeyPlan> {
        let mut entries = Vec::new();
        for c in equi {
            let has_right = sample.component(c.right_atom.as_str()).is_some();
            let has_left = sample.component(c.left_atom.as_str()).is_some();
            if has_right {
                entries.push(PlanEntry {
                    y_atom: c.right_atom,
                    y_field: c.right_field,
                    x_atom: c.left_atom,
                    x_field: c.left_field,
                });
            } else if has_left {
                entries.push(PlanEntry {
                    y_atom: c.left_atom,
                    y_field: c.left_field,
                    x_atom: c.right_atom,
                    x_field: c.right_field,
                });
            }
        }
        if entries.is_empty() {
            None
        } else {
            Some(KeyPlan { entries })
        }
    }

    fn key_of(
        &self,
        composite: &CompositeTuple,
        pick: impl Fn(&PlanEntry) -> (Symbol, usize),
    ) -> Option<Symbol> {
        let mut buf = String::new();
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                buf.push(KEY_SEP);
            }
            let (atom, field) = pick(e);
            let tuple = composite.component(atom.as_str())?;
            if !encode_value(tuple.atomic_at(field), &mut buf) {
                return None;
            }
        }
        Some(Symbol::intern(&buf))
    }

    /// The joint key of a Y-side composite, or `None` when the
    /// composite is missing a planned atom or holds an unencodable
    /// value (it then lands in the index's unkeyed list).
    pub fn y_key(&self, composite: &CompositeTuple) -> Option<Symbol> {
        self.key_of(composite, |e| (e.y_atom, e.y_field))
    }

    /// The joint key an X-side composite probes with, or `None` when it
    /// cannot supply every planned value (it then scans the whole
    /// chunk).
    pub fn x_key(&self, composite: &CompositeTuple) -> Option<Symbol> {
        self.key_of(composite, |e| (e.x_atom, e.x_field))
    }

    /// The single atom every Y-side entry keys on, when there is one.
    /// Only then can keys be read straight off a service chunk's
    /// columns (whose rows all belong to that atom).
    pub fn single_y_atom(&self) -> Option<Symbol> {
        let first = self.entries.first()?.y_atom;
        self.entries
            .iter()
            .all(|e| e.y_atom == first)
            .then_some(first)
    }
}

/// Hash index over one Y chunk, built lazily once and cached for every
/// tile in that chunk's row.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// Which [`KeyPlan`] (by run-local id) the buckets were keyed under.
    pub plan_id: usize,
    /// Join-key buckets; entries are ascending source indices.
    pub buckets: HashMap<Symbol, Vec<u32>>,
    /// Composites with no key (missing atom, unencodable value), probed
    /// by every X composite. Ascending source indices.
    pub unkeyed: Vec<u32>,
}

impl JoinIndex {
    /// Buckets `chunk` under `plan`.
    pub fn build(plan: &KeyPlan, plan_id: usize, chunk: &[CompositeTuple]) -> JoinIndex {
        let mut buckets: HashMap<Symbol, Vec<u32>> = HashMap::new();
        let mut unkeyed = Vec::new();
        for (j, c) in chunk.iter().enumerate() {
            match plan.y_key(c) {
                Some(key) => buckets.entry(key).or_default().push(j as u32),
                None => unkeyed.push(j as u32),
            }
        }
        JoinIndex {
            plan_id,
            buckets,
            unkeyed,
        }
    }

    /// Buckets a single-atom chunk straight from its typed columns,
    /// never touching the row view. Returns the number of columns
    /// scanned alongside the index. `None` when the plan keys on more
    /// than one atom, `atom` is not it, or a planned field has no
    /// atomic column — the caller then falls back to the row build,
    /// which produces byte-identical buckets.
    pub fn build_from_columns(
        plan: &KeyPlan,
        plan_id: usize,
        atom: Symbol,
        cols: &ChunkColumns,
    ) -> Option<(JoinIndex, usize)> {
        if plan.single_y_atom() != Some(atom) {
            return None;
        }
        let key_cols: Vec<ColumnRef<'_>> = plan
            .entries
            .iter()
            .map(|e| cols.column(e.y_field))
            .collect::<Option<_>>()?;
        let mut buckets: HashMap<Symbol, Vec<u32>> = HashMap::new();
        let mut unkeyed = Vec::new();
        let mut buf = String::new();
        'rows: for j in 0..cols.len() {
            buf.clear();
            for (i, col) in key_cols.iter().enumerate() {
                if i > 0 {
                    buf.push(KEY_SEP);
                }
                if !encode_cell(col, j, &mut buf) {
                    unkeyed.push(j as u32);
                    continue 'rows;
                }
            }
            buckets
                .entry(Symbol::intern(&buf))
                .or_default()
                .push(j as u32);
        }
        Some((
            JoinIndex {
                plan_id,
                buckets,
                unkeyed,
            },
            key_cols.len(),
        ))
    }
}

/// Cached probe keys of one X chunk under one plan.
#[derive(Debug, Clone)]
pub struct ProbeKeys {
    /// Which plan the keys were extracted under.
    pub plan_id: usize,
    /// Per composite: its probe key, or `None` for scan-everything.
    pub keys: Vec<Option<Symbol>>,
    /// Distinct probe keys present (for index-emptiness pruning).
    pub distinct: Vec<Symbol>,
    /// True when every composite has a probe key.
    pub all_keyed: bool,
}

impl ProbeKeys {
    /// Extracts the probe keys of `chunk` under `plan`.
    pub fn build(plan: &KeyPlan, plan_id: usize, chunk: &[CompositeTuple]) -> ProbeKeys {
        let mut keys = Vec::with_capacity(chunk.len());
        let mut distinct: Vec<Symbol> = Vec::new();
        let mut all_keyed = true;
        for c in chunk {
            let key = plan.x_key(c);
            match key {
                Some(k) => {
                    if !distinct.contains(&k) {
                        distinct.push(k);
                    }
                }
                None => all_keyed = false,
            }
            keys.push(key);
        }
        ProbeKeys {
            plan_id,
            keys,
            distinct,
            all_keyed,
        }
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
        ]
        .into_iter()
        .map(|(k, t)| Tuple {
            fields: vec![FieldSlot::Atomic(k), FieldSlot::Atomic(t)],
            score: 0.0,
            source_rank: 0,
        })
        .collect();
        let atom = Symbol::from("y");
        let plan = KeyPlan {
            entries: vec![
                PlanEntry {
                    y_atom: atom,
                    y_field: 0,
                    x_atom: Symbol::from("x"),
                    x_field: 0,
                },
                PlanEntry {
                    y_atom: atom,
                    y_field: 1,
                    x_atom: Symbol::from("x"),
                    x_field: 1,
                },
            ],
        };
        let composites: Vec<CompositeTuple> = rows
            .iter()
            .map(|t| CompositeTuple::single("y", t.clone()))
            .collect();
        let row_ix = JoinIndex::build(&plan, 0, &composites);
        let cols = ChunkColumns::from_tuples(&rows).expect("flat rows columnarize");
        let (col_ix, scanned) =
            JoinIndex::build_from_columns(&plan, 0, atom, &cols).expect("columnar build applies");
        assert_eq!(scanned, 2);
        assert_eq!(col_ix.unkeyed, row_ix.unkeyed);
        assert_eq!(col_ix.buckets, row_ix.buckets);
        // A plan keying on a different atom refuses the columnar path.
        assert!(JoinIndex::build_from_columns(&plan, 0, Symbol::from("z"), &cols).is_none());
    }
}
