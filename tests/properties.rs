//! Property-based tests over the core invariants of the system: each
//! property runs on [`CASES`] inputs from a seeded generator, so a
//! failure replays identically on every run.

use std::panic::{self, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use search_computing::join::completion::explore;
use search_computing::join::optimality::{is_locally_extraction_optimal, score_product_inversions};
use search_computing::join::tile::TileSpace;
use search_computing::model::value::like_match;
use search_computing::model::{
    Adornment, AttributeDef, Comparator, CompositeTuple, DataType, Date, ScoreDecay,
    ScoringFunction, ServiceSchema, Tuple, Value,
};
use search_computing::plan::{Completion, Invocation};

/// A slow but obviously-correct LIKE matcher used as the oracle.
fn like_oracle(s: &[char], p: &[char]) -> bool {
    match (s.split_first(), p.split_first()) {
        (_, None) => s.is_empty(),
        (_, Some(('%', rest))) => {
            like_oracle(s, rest) || (!s.is_empty() && like_oracle(&s[1..], p))
        }
        (None, Some(_)) => false,
        (Some((c, s_rest)), Some((pc, p_rest))) => {
            (*pc == '_' || pc == c) && like_oracle(s_rest, p_rest)
        }
    }
}

/// Generated cases per property.
const CASES: usize = 128;

/// Runs `case` on [`CASES`] inputs drawn from one generator seeded with
/// `seed`. A failure names its case; the same seed replays it.
fn property(seed: u64, mut case: impl FnMut(&mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..CASES {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| case(&mut rng)));
        if let Err(failure) = outcome {
            eprintln!("property with seed {seed:#x} failed on case {i}");
            panic::resume_unwind(failure);
        }
    }
}

/// A string of `lo..=hi` characters drawn from `alphabet`.
fn string_of(rng: &mut StdRng, alphabet: &str, lo: usize, hi: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let len = rng.gen_range(lo..=hi);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// Mostly printable ASCII, now and then whitespace, quotes or a
/// non-ASCII character, to exercise unicode handling.
fn arbitrary_char(rng: &mut StdRng) -> char {
    const RARE: [char; 8] = ['\t', 'é', 'λ', '中', '\u{7f}', '€', '"', '\\'];
    match rng.gen_range(0..10) {
        0 => RARE[rng.gen_range(0..RARE.len())],
        _ => char::from(rng.gen_range(0x20u8..0x7f)),
    }
}

#[test]
fn like_match_agrees_with_the_oracle() {
    property(0x11, |rng| {
        let s = string_of(rng, "abc", 0, 8);
        let p = string_of(rng, "abc%_", 0, 6);
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = p.chars().collect();
        assert_eq!(
            like_match(&s, &p),
            like_oracle(&sc, &pc),
            "{s:?} LIKE {p:?}"
        );
    });
}

#[test]
fn scoring_functions_are_monotone_and_bounded() {
    property(0x12, |rng| {
        let (total, chunk) = (rng.gen_range(1usize..200), rng.gen_range(1usize..50));
        let decay = match rng.gen_range(0..4) {
            0 => ScoreDecay::Step {
                h: rng.gen_range(1..10),
                high: 0.95,
                low: 0.05,
            },
            1 => ScoreDecay::Linear,
            2 => ScoreDecay::Quadratic,
            _ => ScoreDecay::Exponential {
                lambda: rng.gen_range(0.1f64..10.0),
            },
        };
        let f = ScoringFunction::new(decay, total, chunk).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..total {
            let s = f.score_at(i);
            assert!((0.0..=1.0).contains(&s));
            assert!(
                s <= prev + 1e-12,
                "{decay:?}: rank {i} scored {s} after {prev}"
            );
            prev = s;
        }
    });
}

#[test]
fn every_strategy_covers_the_tile_space_exactly_once() {
    property(0x13, |rng| {
        let (nx, ny, h) = (
            rng.gen_range(1usize..8),
            rng.gen_range(1usize..8),
            rng.gen_range(1usize..6),
        );
        let invocation = match rng.gen_bool(0.5) {
            true => Invocation::NestedLoop,
            false => Invocation::MergeScan {
                r1: rng.gen_range(1..4),
                r2: rng.gen_range(1..4),
            },
        };
        let completion = match rng.gen_bool(0.5) {
            true => Completion::Rectangular,
            false => Completion::Triangular,
        };
        let e = explore(invocation, completion, h, nx, ny).unwrap();
        assert_eq!(e.order.len(), nx * ny);
        let distinct: std::collections::BTreeSet<_> = e.order.iter().collect();
        assert_eq!(distinct.len(), nx * ny, "every tile exactly once");
        // Exactly one call per chunk on each axis.
        assert_eq!(e.call_counts(), (nx, ny));
        // Tiles-per-call sums to the space size.
        assert_eq!(e.tiles_per_call.iter().sum::<usize>(), nx * ny);
    });
}

#[test]
fn merge_scan_triangular_is_locally_extraction_optimal() {
    property(0x14, |rng| {
        let (total, chunk) = (rng.gen_range(10usize..80), rng.gen_range(2usize..10));
        let fx = ScoringFunction::new(ScoreDecay::Linear, total, chunk).unwrap();
        let fy = ScoringFunction::new(ScoreDecay::Linear, total, chunk).unwrap();
        let space = TileSpace::new(fx, fy);
        let e = explore(
            Invocation::merge_scan_even(),
            Completion::Triangular,
            1,
            space.nx,
            space.ny,
        )
        .unwrap();
        assert!(is_locally_extraction_optimal(&e.calls, &e.order, &space));
    });
}

#[test]
fn comparator_eval_is_consistent_with_compare() {
    property(0x15, |rng| {
        let (a, b) = (rng.gen_range(-50i64..50), rng.gen_range(-50i64..50));
        let (va, vb) = (Value::Int(a), Value::Int(b));
        assert_eq!(Comparator::Eq.eval(&va, &vb).unwrap(), a == b);
        assert_eq!(Comparator::Lt.eval(&va, &vb).unwrap(), a < b);
        assert_eq!(Comparator::Le.eval(&va, &vb).unwrap(), a <= b);
        assert_eq!(Comparator::Gt.eval(&va, &vb).unwrap(), a > b);
        assert_eq!(Comparator::Ge.eval(&va, &vb).unwrap(), a >= b);
    });
}

#[test]
fn the_optimal_tile_order_has_zero_inversions() {
    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic("A", DataType::Int, Adornment::Output)],
    )
    .unwrap();
    property(0x16, |rng| {
        let (total, chunk) = (rng.gen_range(10usize..60), rng.gen_range(2usize..10));
        let decay = match rng.gen_range(0..3) {
            0 => ScoreDecay::Linear,
            1 => ScoreDecay::Quadratic,
            _ => ScoreDecay::Step {
                h: 2,
                high: 0.9,
                low: 0.1,
            },
        };
        let fx = ScoringFunction::new(decay, total, chunk).unwrap();
        let fy = ScoringFunction::new(ScoreDecay::Linear, total, chunk).unwrap();
        let space = TileSpace::new(fx, fy);
        // Emit one representative composite per tile, in optimal order:
        // the sequence must have no score-product inversions.
        let tuple = |score| Tuple::builder(&schema).score(score).build().unwrap();
        let results: Vec<CompositeTuple> = (space.optimal_order().into_iter())
            .map(|t| {
                let x = tuple(fx.chunk_head_score(t.x));
                CompositeTuple::single("X", x).extend_with("Y", tuple(fy.chunk_head_score(t.y)))
            })
            .collect();
        assert_eq!(score_product_inversions(&results), 0);
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    property(0x21, |rng| {
        let len = rng.gen_range(0..=120);
        let src: String = (0..len).map(|_| arbitrary_char(rng)).collect();
        // Errors are fine; panics are not.
        let _ = search_computing::query::parse_query(&src);
    });
}

#[test]
fn parser_never_panics_on_token_soup() {
    const KEYWORDS: [&str; 6] = ["Select", "where", "and", "as", "ranking", "top"];
    const LETTERS: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    property(0x22, |rng| {
        let tokens = rng.gen_range(0..=40);
        let src: String = (0..tokens)
            .map(|_| match rng.gen_range(0..11) {
                k @ 0..=5 => KEYWORDS[k].to_owned(),
                6 => string_of(rng, LETTERS, 1, 4),
                7 => string_of(rng, "0123456789", 1, 4),
                8 => format!("\"{}\"", string_of(rng, &LETTERS[26..], 0, 3)),
                9 => string_of(rng, ".,()<>=%", 1, 1),
                _ => " ".to_owned(),
            })
            .collect();
        let _ = search_computing::query::parse_query(&src);
    });
}

#[test]
fn date_ordinal_round_trips() {
    property(0x23, |rng| {
        let (year, month, day) = (
            rng.gen_range(1900i32..2100),
            rng.gen_range(1u8..=12),
            rng.gen_range(1u8..=31),
        );
        let d = Date::new(year, month, day);
        assert_eq!(Date::from_ordinal(d.ordinal()), d);
    });
}

#[test]
fn composite_merge_is_commutative_on_agreement() {
    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic("A", DataType::Int, Adornment::Output)],
    )
    .unwrap();
    let tuple = |score| Tuple::builder(&schema).score(score).build().unwrap();
    property(0x24, |rng| {
        let (sa, sb) = (rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0));
        let shared = tuple(0.5);
        let left = CompositeTuple::single("C", shared.clone()).extend_with("A", tuple(sa));
        let right = CompositeTuple::single("C", shared).extend_with("B", tuple(sb));
        let lr = left.merge(&right).unwrap();
        let rl = right.merge(&left).unwrap();
        // Same atoms and components either way (order differs).
        for atom in ["C", "A", "B"] {
            assert_eq!(lr.component(atom), rl.component(atom));
        }
        assert!((lr.score_product() - rl.score_product()).abs() < 1e-12);
    });
}

#[test]
fn parser_accepts_what_display_prints() {
    // Display → parse round-trip on a query with every construct.
    use search_computing::prelude::*;
    let q = QueryBuilder::new()
        .atom("A", "SvcA")
        .atom("B", "SvcB")
        .pattern("Links", "A", "B")
        .select_const("A", "X", Comparator::Eq, Value::text("v"))
        .select_const("A", "G.S", Comparator::Gt, Value::Int(3))
        .join("A", "Y", Comparator::Eq, "B", "Z")
        .build()
        .unwrap();
    let printed = q.to_string();
    let reparsed = parse_query(&printed).unwrap();
    assert_eq!(reparsed.atoms, q.atoms);
    assert_eq!(reparsed.patterns, q.patterns);
    assert_eq!(reparsed.selections.len(), q.selections.len());
    assert_eq!(reparsed.joins.len(), q.joins.len());
}
