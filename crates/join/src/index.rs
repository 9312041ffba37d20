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
//! (64-bit hashes of the typed conjunct values) are sorted once, and
//! each probe row seeks its key's run by binary search — the sorted-key
//! seek of *Leapfrog Triejoin*, which needs only some total order both
//! sides share. The binary tile, every n-ary stage and the rank join
//! all probe through [`KeyIndex::candidates`].
//!
//! Exactness invariants, relied on by the equivalence property tests:
//!
//! * **Keys are equality-faithful.** Two rows get the same key whenever
//!   the baseline's `=` holds on every conjunct (numeric promotion
//!   included: `Int` and `Float` both hash the promoted `f64`'s bits,
//!   with `-0.0` normalized to `0.0`). Equal keys prove nothing — a
//!   hash collision, or two large `Int`s that promote to one `f64` —
//!   so a key only selects candidates, and every candidate is judged by
//!   the predicates.
//! * **Fallback on anything unusual.** A row missing a planned atom, or
//!   carrying a value with no key (a raw `NaN`, on which the baseline
//!   would error), has no key: an unkeyed indexed row is a candidate of
//!   every probe, and an unkeyed probe row scans the whole chunk, so the
//!   nested loop's behavior — including its errors — is reproduced.
//! * **Emission order is the nested loop's.** Index entries keep row
//!   numbers, and a probe merges its key's rows with the unkeyed rows in
//!   ascending row order, so results appear in the exact (i, j) order of
//!   the baseline.
//!
//! Keys are computed, never stored anywhere but the index: no value of a
//! chunk reaches the process-wide [`Symbol`] table.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use seco_model::{AtomShape, CompositeTuple, Symbol, Value};
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
/// byte-identical results; they only choose how candidates are
/// evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnarOptions {
    /// Let pipe stages read a fetched chunk body's typed columns
    /// zero-copy (their batch kernels need it as well as `batch_eval`).
    /// Tile joins read composites, so only `batch_eval` applies there.
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

/// A row's joint key: a hash of its conjunct values, equal whenever
/// `=` holds on every conjunct; `None` when some value has no key (a
/// raw `NaN`). Equal keys do not prove equal values, so every candidate
/// a key selects is judged by the predicates.
pub(crate) type Key = Option<u64>;

/// The joint key of `n` conjunct values, `value(i)` reading the i-th.
///
/// `=` holds for `Null` only against `Null`, so `Null` has a tag of its
/// own; `Int` and `Float` share the promoted `f64`'s bits, with `-0.0`
/// normalized to `0.0` (`-0.0 = 0.0`). Text hashes with a terminator,
/// so a conjunct boundary cannot move between two texts.
pub(crate) fn joint_key<'v>(n: usize, mut value: impl FnMut(usize) -> &'v Value) -> Key {
    let mut h = DefaultHasher::new();
    for i in 0..n {
        match value(i) {
            Value::Null => h.write_u8(0),
            Value::Bool(b) => {
                h.write_u8(1);
                h.write_u8(u8::from(*b));
            }
            Value::Int(v) => number(&mut h, *v as f64),
            Value::Float(v) if v.is_nan() => return None,
            Value::Float(v) => number(&mut h, *v),
            Value::Text(s) => {
                h.write_u8(3);
                s.as_str().hash(&mut h);
            }
            Value::Date(d) => {
                h.write_u8(4);
                h.write_i64(d.ordinal());
            }
        }
    }
    Some(h.finish())
}

fn number(h: &mut DefaultHasher, v: f64) {
    h.write_u8(2);
    h.write_u64(if v == 0.0 { 0 } else { v.to_bits() });
}

/// The key index of one chunk: its rows' joint keys sorted by hash,
/// plus the rows with no key, which every probe must visit. Rows are
/// numbered from the chunk's first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyIndex {
    /// `(key, row)`, ascending: one key's rows stay in row order.
    keys: Vec<(u64, u32)>,
    /// Rows with no key, ascending.
    unkeyed: Vec<u32>,
}

impl KeyIndex {
    /// Indexes `rows` rows, `key_of(j)` giving row `j`'s key.
    pub(crate) fn build(rows: usize, mut key_of: impl FnMut(usize) -> Key) -> Self {
        let (mut keys, mut unkeyed) = (Vec::with_capacity(rows), Vec::new());
        for j in 0..rows {
            match key_of(j) {
                Some(key) => keys.push((key, j as u32)),
                None => unkeyed.push(j as u32),
            }
        }
        keys.sort_unstable();
        KeyIndex { keys, unkeyed }
    }

    /// The indexed rows holding `key`: a seek to its run.
    fn bucket(&self, key: u64) -> &[(u64, u32)] {
        let lo = self.keys.partition_point(|(k, _)| *k < key);
        let len = self.keys[lo..].partition_point(|(k, _)| *k == key);
        &self.keys[lo..lo + len]
    }

    /// The candidate rows of a probe against this chunk of `rows` rows,
    /// ascending: the probe key's rows merged with the unkeyed ones
    /// (counting the probe and the rows it skips), or the whole chunk
    /// for a probe with no key.
    pub(crate) fn candidates<'c>(
        &self,
        probe: Key,
        rows: usize,
        stats: &mut JoinStats,
        buf: &'c mut Vec<u32>,
    ) -> Candidates<'c> {
        let Some(key) = probe else {
            return Candidates::All(rows);
        };
        stats.probes += 1;
        let (hits, unkeyed) = (self.bucket(key), &self.unkeyed);
        buf.clear();
        let (mut h, mut u) = (0, 0);
        while h < hits.len() || u < unkeyed.len() {
            if u == unkeyed.len() || (h < hits.len() && hits[h].1 < unkeyed[u]) {
                buf.push(hits[h].1);
                h += 1;
            } else {
                buf.push(unkeyed[u]);
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
            && (probes.0.iter()).all(|p| p.is_some_and(|key| self.bucket(key).is_empty()))
    }
}

/// A probe's candidate rows, ascending.
pub(crate) enum Candidates<'c> {
    /// Every row of a chunk of this many (an unkeyed probe, or no index).
    All(usize),
    /// Index-selected rows.
    Rows(&'c [u32]),
}

impl Candidates<'_> {
    /// Number of candidates.
    pub(crate) fn len(&self) -> usize {
        match self {
            Candidates::All(n) => *n,
            Candidates::Rows(rows) => rows.len(),
        }
    }

    /// The candidate rows, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (all, rows) = match *self {
            Candidates::All(n) => (0..n, &[][..]),
            Candidates::Rows(rows) => (0..0, rows),
        };
        all.chain(rows.iter().map(|&j| j as usize))
    }
}

/// The probe keys of one chunk, one per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProbeKeys(Vec<Key>);

impl ProbeKeys {
    /// Keys `rows` rows, `key_of(i)` giving row `i`'s key.
    pub(crate) fn build(rows: usize, key_of: impl FnMut(usize) -> Key) -> Self {
        ProbeKeys((0..rows).map(key_of).collect())
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
    /// holds a value with no key.
    pub(crate) fn key(&mut self, c: &CompositeTuple) -> Key {
        if self.shape != Some(c.atoms) {
            self.shape = Some(c.atoms);
            self.at = (self.fields.iter())
                .map(|(atom, field)| Some((c.atoms.iter().position(|a| a == atom)?, *field)))
                .collect();
        }
        let at = self.at.as_deref()?;
        joint_key(at.len(), |i| c.components[at[i].0].atomic_at(at[i].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_equality_faithful() {
        let key = |v: Value| joint_key(1, |_| &v);
        // Int/Float promotion: 3 = 3.0; -0.0 = 0.0.
        assert_eq!(key(Value::Int(3)), key(Value::Float(3.0)));
        assert_eq!(key(Value::Float(-0.0)), key(Value::Int(0)));
        // Null only matches Null; distinct texts stay distinct.
        assert_ne!(key(Value::Null), key(Value::text("")));
        assert_ne!(key(Value::text("x")), key(Value::text("y")));
        // NaN has no key.
        assert_eq!(key(Value::Float(f64::NAN)), None);
        // A conjunct boundary cannot move between two texts.
        let pair = |a: &str, b: &str| {
            let vals = [Value::text(a), Value::text(b)];
            joint_key(2, |i| &vals[i])
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
    }

    #[test]
    fn a_probe_takes_its_key_run_and_the_unkeyed_rows_in_row_order() {
        let vals = [
            Value::Int(1),
            Value::Float(f64::NAN),
            Value::Int(2),
            Value::Float(1.0),
            Value::Int(1),
        ];
        let index = KeyIndex::build(vals.len(), |j| joint_key(1, |_| &vals[j]));
        assert_eq!(index.unkeyed, vec![1], "NaN has no key");
        let (mut stats, mut buf) = (JoinStats::default(), Vec::new());
        let probe = joint_key(1, |_| &vals[0]);
        let rows: Vec<usize> = index
            .candidates(probe, 5, &mut stats, &mut buf)
            .iter()
            .collect();
        assert_eq!(rows, [0, 1, 3, 4]);
        assert_eq!((stats.probes, stats.pairs_skipped), (1, 1));
        let all = index.candidates(None, 5, &mut stats, &mut buf);
        assert_eq!(all.iter().count(), 5, "an unkeyed probe scans the chunk");
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
}
