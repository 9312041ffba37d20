//! Query sessions: the server-side cursor behind liquid-query
//! continuations.
//!
//! Search Computing's interaction model is a *conversation*: the user
//! sees the first ranked combinations, then asks for **more** results,
//! **re-ranks** under different weights, or **expands** one join branch
//! with deeper fetches — all against the answer already extracted,
//! without restarting the query ("liquid queries"). A [`Session`] keeps
//! exactly the state those operations need: the parsed query, the
//! executed plan, the full emitted result universe, and which of its
//! combinations were already delivered to the client.
//!
//! Delivery is *ranked and incremental*: every [`Session::next`] call
//! walks the current ranking order and hands out the best combinations
//! not yet delivered, so `more` after a `rerank` continues under the new
//! weights while never repeating a row. Expansion unions freshly
//! extracted combinations into the universe (deduplicated), after which
//! the cursor sees them like any other undelivered row.
//!
//! The universe is ranked *once per order*, not once per call: the
//! session keeps the ranked positions ([`ResultSet::ranked_order`]),
//! built on first use and dropped only when the order changes (`rerank`,
//! or an `absorb` that added rows), so a page costs its own length.

use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use seco_engine::ResultSet;
use seco_model::CompositeTuple;
use seco_plan::QueryPlan;
use seco_query::{Query, RankingFunction};

/// `fmt::Write` for `String` has no failing path.
const STRING_SINK: &str = "writing to a String cannot fail";

/// The `"combo"` text of a row on the wire: the rendered
/// `(atom, source-rank, score)` sequence.
fn combo_key(combo: &CompositeTuple) -> String {
    let mut key = String::new();
    combo.write_to(&mut key).expect(STRING_SINK);
    key
}

/// Identity of a combination within one session: the fields its text
/// renders — per component the atom, the source rank and the score's
/// bits — which are deterministic and unique per emitted combination of
/// a fixed query. Compared and hashed as they are, never formatted.
fn identity(combo: &CompositeTuple) -> impl Iterator<Item = (usize, u64)> + '_ {
    combo
        .components
        .iter()
        .map(|t| (t.source_rank, t.score.to_bits()))
}

fn same_combination(a: &CompositeTuple, b: &CompositeTuple) -> bool {
    a.atoms == b.atoms && identity(a).eq(identity(b))
}

fn fingerprint(combo: &CompositeTuple) -> u64 {
    let mut hasher = DefaultHasher::new();
    // Interned: one address per atom list.
    combo.atoms.as_ptr().hash(&mut hasher);
    for part in identity(combo) {
        part.hash(&mut hasher);
    }
    hasher.finish()
}

/// The combinations of a session's universe, findable by identity
/// without an owned key per row: universe positions chained per
/// [`fingerprint`], compared field by field on a lookup.
#[derive(Default)]
struct Known {
    /// Fingerprint → the latest position carrying it.
    latest: HashMap<u64, u32>,
    /// Per position: the previous position with the same fingerprint.
    previous: Vec<Option<u32>>,
}

impl Known {
    /// Positions registered so far.
    fn len(&self) -> usize {
        self.previous.len()
    }

    /// Registers the next position of the universe under `fingerprint`.
    fn push(&mut self, fingerprint: u64) {
        let at = u32::try_from(self.len()).expect("fewer than 2^32 combinations");
        self.previous.push(self.latest.insert(fingerprint, at));
    }

    /// Whether a registered position of `universe` holds `combo`.
    fn holds(&self, universe: &[CompositeTuple], combo: &CompositeTuple, fingerprint: u64) -> bool {
        let mut at = self.latest.get(&fingerprint).copied();
        while let Some(earlier) = at {
            if same_combination(&universe[earlier as usize], combo) {
                return true;
            }
            at = self.previous[earlier as usize];
        }
        false
    }
}

/// Renders ranked rows as JSON objects (score under `ranking`).
///
/// The tree form of [`write_rows`]: the daemon's handlers no longer call
/// it, the benchmark's oracle and replay do, and the tests hold the
/// written bytes to it.
pub fn render_rows(ranking: &RankingFunction, combos: &[CompositeTuple]) -> Vec<serde_json::Value> {
    combos
        .iter()
        .map(|c| {
            serde_json::json!({
                "score": ranking.score(c),
                "combo": combo_key(c),
            })
        })
        .collect()
}

/// Appends ranked rows to `out` as one JSON array of
/// `{"score":…,"combo":…}` objects — the bytes of
/// `Value::Array(render_rows(ranking, combos)).to_string()`, written
/// without the tree. The score goes through the JSON number writer and
/// the combination through the JSON string escaper: atom aliases are
/// data.
pub fn write_rows(out: &mut String, ranking: &RankingFunction, combos: &[CompositeTuple]) {
    let mut key = String::new();
    out.push('[');
    for (i, combo) in combos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"score\":");
        let score = serde_json::Number::Float(ranking.score(combo));
        write!(out, "{score}").expect(STRING_SINK);
        out.push_str(",\"combo\":");
        key.clear();
        combo.write_to(&mut key).expect(STRING_SINK);
        serde_json::write_escaped(out, &key).expect(STRING_SINK);
        out.push('}');
    }
    out.push(']');
}

/// One live query session: the kept execution cursor that `more`,
/// `rerank`, and `expand` continue from.
pub struct Session {
    /// Session identifier (allocated by the server).
    pub id: u64,
    /// Tenant the session's service calls are charged to.
    pub tenant: String,
    /// The parsed query (ranking arity, `k`, atom names).
    pub query: Query,
    /// The executed plan — expansion re-derives deeper-fetch variants
    /// from it.
    pub plan: QueryPlan,
    /// Everything extracted so far, under the session's *current*
    /// ranking function (which starts as the query's and changes on
    /// `rerank`).
    pub set: ResultSet,
    /// Positions into `set.tuples`, best first under the current
    /// ranking. Empty until the first `next`/`head` (a session that is
    /// never paged never sorts) and again after the order changed.
    order: OnceCell<Vec<u32>>,
    /// Every entry of `order` before this one is delivered.
    pos: usize,
    /// Delivered flag per position of `set.tuples` (rows absorbed since
    /// the last page are past its end, and undelivered).
    delivered: Vec<bool>,
    delivered_count: usize,
    /// Index of every row in `set` by identity; empty until the first
    /// `absorb`, kept in step with `set` from then on.
    known: Known,
}

impl Session {
    /// Opens a session over one execution's results.
    pub fn new(id: u64, tenant: String, query: Query, plan: QueryPlan, set: ResultSet) -> Self {
        Session {
            id,
            tenant,
            query,
            plan,
            set,
            order: OnceCell::new(),
            pos: 0,
            delivered: Vec::new(),
            delivered_count: 0,
            known: Known::default(),
        }
    }

    /// Total combinations extracted so far.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing was extracted.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Combinations already handed to the client.
    pub fn delivered(&self) -> usize {
        self.delivered_count
    }

    /// The next `n` best undelivered combinations under the current
    /// ranking, marked as delivered.
    pub fn next(&mut self, n: usize) -> Vec<CompositeTuple> {
        let order = self.order.get_or_init(|| self.set.ranked_order());
        self.delivered.resize(self.set.len(), false);
        let mut out = Vec::with_capacity(n.min(order.len() - self.pos));
        while out.len() < n && self.pos < order.len() {
            let at = order[self.pos] as usize;
            self.pos += 1;
            if !std::mem::replace(&mut self.delivered[at], true) {
                out.push(self.set.tuples[at].clone());
            }
        }
        self.delivered_count += out.len();
        out
    }

    /// The current top-`n` view (delivered or not, nothing marked) —
    /// what a client re-reads after changing the ranking.
    pub fn head(&self, n: usize) -> Vec<CompositeTuple> {
        let order = self.order.get_or_init(|| self.set.ranked_order());
        order
            .iter()
            .take(n)
            .map(|&at| self.set.tuples[at as usize].clone())
            .collect()
    }

    /// Replaces the ranking function; the delivery cursor carries over,
    /// so subsequent [`Session::next`] calls walk the *new* order.
    pub fn rerank(&mut self, weights: Vec<f64>) -> Result<(), String> {
        let ranking = RankingFunction::new(weights).map_err(|e| e.to_string())?;
        if ranking.arity() != self.query.ranking.arity() {
            return Err(format!(
                "ranking needs {} weights (one per atom)",
                self.query.ranking.arity()
            ));
        }
        self.set.ranking = ranking;
        self.reorder();
        Ok(())
    }

    /// Unions freshly extracted combinations into the universe,
    /// returning how many were actually new (a combination repeated
    /// within `combos` counts once). Known rows keep their delivered
    /// status; new ones become visible to the cursor.
    pub fn absorb(&mut self, combos: Vec<CompositeTuple>) -> usize {
        let before = self.set.len();
        for at in self.known.len()..before {
            self.known.push(fingerprint(&self.set.tuples[at]));
        }
        for combo in combos {
            let print = fingerprint(&combo);
            if !self.known.holds(&self.set.tuples, &combo, print) {
                self.known.push(print);
                self.set.tuples.push(combo);
            }
        }
        let added = self.set.len() - before;
        if added > 0 {
            self.reorder();
        }
        added
    }

    /// Drops the ranked positions: the next page or head re-ranks the
    /// universe and walks it from the top, skipping delivered rows.
    fn reorder(&mut self) {
        self.order.take();
        self.pos = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use seco_engine::{execute_plan, EngineConfig};
    use seco_model::{AtomShape, Symbol};
    use seco_optimizer::{optimize, CostMetric};
    use seco_services::ServiceRegistry;
    use std::collections::BTreeSet;

    pub(crate) fn open((registry, query): (ServiceRegistry, Query)) -> Session {
        let best = optimize(&query, &registry, CostMetric::RequestCount).expect("plan");
        let out = execute_plan(&best.plan, &registry, EngineConfig::default()).expect("run");
        let set = ResultSet::new(out.results, query.ranking.clone());
        Session::new(1, "t".into(), query, best.plan, set)
    }

    fn session() -> Session {
        open(seco_bench::chain_scenario(3, 42))
    }

    fn keys(combos: &[CompositeTuple]) -> Vec<String> {
        combos.iter().map(combo_key).collect()
    }

    /// Gives the second atom of every combination an alias no query can
    /// spell but a JSON writer must survive.
    pub(crate) fn with_hostile_alias(mut s: Session) -> Session {
        for combo in &mut s.set.tuples {
            let mut atoms = combo.atoms.to_vec();
            atoms[1] = Symbol::intern("B\"\\\n⟨é");
            combo.atoms = AtomShape::intern(&atoms);
        }
        s
    }

    /// The key as it was rendered before the fixed-point writer: the
    /// general float formatter, once per component.
    fn reference_key(combo: &CompositeTuple) -> String {
        let parts: Vec<String> = combo
            .atoms
            .iter()
            .zip(combo.components.iter())
            .map(|(a, t)| format!("{a}#{}(s={:.3})", t.source_rank, t.score))
            .collect();
        format!("⟨{}⟩", parts.join(" · "))
    }

    /// The cursor this module shipped before the ranked index, kept as
    /// the reference model: clone and sort the whole universe on every
    /// call, recompute both scores in every comparison, track delivery
    /// and identity by rendered key ([`reference_key`], not the
    /// session's own).
    struct Reference {
        set: ResultSet,
        delivered: BTreeSet<String>,
    }

    impl Reference {
        fn top_k(&self, k: usize) -> Vec<CompositeTuple> {
            let mut sorted = self.set.tuples.clone();
            sorted.sort_by(|a, b| {
                let (a, b) = (self.set.ranking.score(a), self.set.ranking.score(b));
                b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal)
            });
            sorted.truncate(k);
            sorted
        }

        fn next(&mut self, n: usize) -> Vec<CompositeTuple> {
            let mut out = Vec::new();
            for combo in self.top_k(self.set.len()) {
                if out.len() == n {
                    break;
                }
                if self.delivered.insert(reference_key(&combo)) {
                    out.push(combo);
                }
            }
            out
        }

        fn absorb(&mut self, combos: Vec<CompositeTuple>) -> usize {
            let mut known: BTreeSet<String> = self.set.tuples.iter().map(reference_key).collect();
            let mut added = 0;
            for combo in combos {
                if known.insert(reference_key(&combo)) {
                    self.set.tuples.push(combo);
                    added += 1;
                }
            }
            added
        }
    }

    /// Knuth's MMIX linear congruential generator.
    struct Lcg(u64);

    impl Lcg {
        /// Uniform in `0..bound`.
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % bound as u64) as usize
        }
    }

    #[test]
    fn written_rows_equal_the_rendered_tree() {
        for s in [
            session(),
            open(seco_bench::star_scenario(3, 7)),
            with_hostile_alias(session()),
        ] {
            let all = s.head(usize::MAX);
            assert_eq!(
                keys(&all),
                all.iter().map(reference_key).collect::<Vec<_>>()
            );
            for rows in [&all[..], &all[..1], &all[..0]] {
                let mut written = String::from("rows=");
                write_rows(&mut written, &s.set.ranking, rows);
                let tree = serde_json::Value::Array(render_rows(&s.set.ranking, rows));
                assert_eq!(written, format!("rows={tree}"));
            }
        }
        let mut hostile = String::new();
        let s = with_hostile_alias(session());
        write_rows(&mut hostile, &s.set.ranking, &s.head(1));
        assert!(
            hostile.contains(r#"B\"\\\n⟨é#"#),
            "alias is escaped: {hostile}"
        );
    }

    #[test]
    fn next_is_ranked_and_never_repeats() {
        let mut s = session();
        let total = s.len();
        assert!(total >= 4, "scenario yields enough rows ({total})");
        let first = s.next(2);
        let second = s.next(2);
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        let paged = keys(&[first, second].concat());
        let distinct: BTreeSet<&String> = paged.iter().collect();
        assert_eq!(distinct.len(), 4, "no repeats across pages");
        // Pages follow the ranked order.
        assert_eq!(paged, keys(&s.set.top_k(4)));
    }

    #[test]
    fn rerank_changes_order_but_keeps_cursor() {
        let mut s = session();
        let before = s.next(1);
        s.rerank(vec![0.0, 0.0, 1.0]).expect("arity matches");
        let after = s.next(s.len());
        assert!(!after.iter().any(|c| combo_key(c) == combo_key(&before[0])));
        assert_eq!(s.delivered(), s.len(), "cursor drained the universe");
        assert!(s.rerank(vec![1.0]).is_err(), "arity mismatch rejected");
    }

    #[test]
    fn absorb_deduplicates_against_the_universe_and_within_the_batch() {
        let mut s = session();
        let mut held_back = s.set.tuples.split_off(s.len() - 2);
        let existing = s.set.tuples.clone();
        assert_eq!(s.absorb(existing), 0, "known rows are not re-added");
        // The same new combination twice in one batch counts once.
        held_back.push(held_back[0].clone());
        held_back.push(s.set.tuples[0].clone());
        let before = s.len();
        assert_eq!(s.absorb(held_back), 2);
        assert_eq!(s.len(), before + 2);
        s.next(usize::MAX);
        assert_eq!(s.len() - s.delivered(), 0, "remaining is exact");
    }

    #[test]
    fn a_session_that_is_never_paged_never_sorts() {
        let mut s = session();
        assert!(!s.is_empty() && s.delivered() == 0);
        let again = s.set.tuples.clone();
        s.absorb(again);
        s.rerank(vec![0.2, 0.3, 0.5]).expect("arity matches");
        assert!(s.order.get().is_none(), "no ranked index without a page");
        s.head(1);
        assert_eq!(s.order.get().map(Vec::len), Some(s.len()));
    }

    #[test]
    fn ties_page_in_emission_order() {
        let mut s = session();
        let original = s.query.ranking.weights().to_vec();
        // Only the first atom counts: every combination sharing its
        // first component now ties.
        s.rerank(vec![1.0, 0.0, 0.0]).expect("arity matches");
        let scores: Vec<f64> = s
            .set
            .tuples
            .iter()
            .map(|t| s.set.ranking.score(t))
            .collect();
        let distinct: BTreeSet<u64> = scores.iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() < scores.len(), "the weights produce ties");
        // Expected order: by score, ties by emission position.
        let mut expect: Vec<usize> = (0..s.len()).collect();
        expect.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        let expect: Vec<String> = expect
            .iter()
            .map(|&i| combo_key(&s.set.tuples[i]))
            .collect();
        let mut paged = Vec::new();
        loop {
            let page = s.next(3);
            if page.is_empty() {
                break;
            }
            paged.extend(keys(&page));
        }
        assert_eq!(paged, expect, "tied rows keep emission order across pages");

        // Back to the original weights: the head is what a fresh
        // session over the same universe shows.
        s.rerank(original).expect("arity matches");
        assert_eq!(keys(&s.head(s.len())), keys(&session().head(usize::MAX)));
    }

    /// Seeded scripts of `next`/`head`/`rerank`/`absorb` against the
    /// reference model: every page, head, `added`, `delivered()` and
    /// `len()` must agree at every step.
    #[test]
    fn scripts_match_the_clone_and_sort_reference() {
        const WEIGHTS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
        let universes = [
            open(seco_bench::chain_scenario(3, 42)),
            open(seco_bench::star_scenario(3, 7)),
        ];
        for script in 0..240u64 {
            let mut rng = Lcg(script);
            let source = &universes[script as usize % 2];
            let full = &source.set.tuples;
            assert!(full.len() >= 8, "scenario yields enough rows");
            // Open over a random part of the universe; the rest arrives
            // through `absorb`.
            let initial: Vec<CompositeTuple> =
                full.iter().filter(|_| rng.below(2) == 0).cloned().collect();
            let set = ResultSet::new(initial, source.query.ranking.clone());
            let mut model = Reference {
                set: set.clone(),
                delivered: BTreeSet::new(),
            };
            let (query, plan) = (source.query.clone(), source.plan.clone());
            let mut s = Session::new(script, "t".into(), query, plan, set);
            for step in 0..16 {
                let at = format!("script {script} step {step}");
                // Half the pages are small, half reach up to N + 3.
                let size = |rng: &mut Lcg, n: usize| match rng.below(2) {
                    0 => 1 + rng.below(4),
                    _ => 1 + rng.below(n + 3),
                };
                match rng.below(5) {
                    0 | 1 => {
                        let n = size(&mut rng, s.len());
                        assert_eq!(keys(&s.next(n)), keys(&model.next(n)), "{at}: next({n})");
                    }
                    2 => {
                        let k = size(&mut rng, s.len()) - 1;
                        assert_eq!(keys(&s.head(k)), keys(&model.top_k(k)), "{at}: head({k})");
                    }
                    3 => {
                        let mut weights: Vec<f64> = (0..3).map(|_| WEIGHTS[rng.below(4)]).collect();
                        if weights.iter().all(|w| *w == 0.0) {
                            weights[rng.below(3)] = 1.0;
                        }
                        s.rerank(weights.clone()).expect("valid weights");
                        model.set.ranking = RankingFunction::new(weights).expect("valid");
                    }
                    _ => {
                        // Known rows, new rows and repeats, in any mix.
                        let batch: Vec<CompositeTuple> = (0..rng.below(12))
                            .map(|_| full[rng.below(full.len())].clone())
                            .collect();
                        assert_eq!(s.absorb(batch.clone()), model.absorb(batch), "{at}: added");
                    }
                }
                assert_eq!(s.delivered(), model.delivered.len(), "{at}: delivered");
                assert_eq!(s.len(), model.set.len(), "{at}: len");
                assert!(s.delivered() <= s.len(), "{at}: remaining underflows");
            }
        }
    }
}
