//! The handlers' documents against the tree-built ones: `render_rows`
//! into `json!` into `to_string`, which is what every handler did before
//! it wrote its rows directly.

use super::*;
use crate::session::render_rows;
use crate::session::tests::{open, with_hostile_alias};
use crate::state::ServerConfig;

/// The universes the documents are held to the tree on: a chain, a
/// star, and the chain again under an alias that needs escaping.
/// Opened twice, so one copy can go through the handlers' documents
/// and the other through the tree.
fn universes() -> Vec<(Session, Session)> {
    let chain = || open(seco_bench::chain_scenario(3, 42));
    let star = || open(seco_bench::star_scenario(3, 7));
    vec![
        (chain(), chain()),
        (star(), star()),
        (with_hostile_alias(chain()), with_hostile_alias(chain())),
    ]
}

#[test]
fn more_equals_the_tree_built_document() {
    for (mut s, mut t) in universes() {
        let total = s.len();
        assert!(total >= 8, "scenario yields enough rows ({total})");
        // A page, a page larger than the remainder, an empty page.
        for n in [3, total + 5, 1] {
            let rows = t.next(n);
            let tree = json!({
                "session": t.id,
                "tenant": t.tenant,
                "rows": render_rows(&t.set.ranking, &rows),
                "delivered": t.delivered(),
                "remaining": t.len() - t.delivered(),
            });
            assert_eq!(more_doc(&mut s, n), tree.to_string(), "more?n={n}");
        }
        assert_eq!(s.delivered(), total, "the last page was empty");
    }
}

#[test]
fn rerank_equals_the_tree_built_document() {
    for (mut s, mut t) in universes() {
        s.next(2);
        t.next(2);
        let weights = vec![0.0, 0.25, 1.0];
        t.rerank(weights.clone()).expect("arity matches");
        let tree = json!({
            "session": t.id,
            "rows": render_rows(&t.set.ranking, &t.head(t.query.k)),
            "delivered": t.delivered(),
        });
        assert_eq!(rerank_doc(&mut s, weights), Ok(tree.to_string()));
        assert_eq!(
            rerank_doc(&mut s, vec![1.0]),
            t.rerank(vec![1.0]).map(|()| String::new())
        );
    }
}

#[test]
fn expand_equals_the_tree_built_document() {
    for (mut s, mut t) in universes() {
        // Hold the last rows back and bring them in as the deeper
        // run's results, next to rows the session already has.
        let held = s.len() - 3;
        s.set.tuples.truncate(held);
        let results = t.set.tuples.clone();
        t.set.tuples.truncate(held);
        let added = t.absorb(results.clone());
        assert_eq!(added, 3);
        let tree = json!({
            "session": t.id,
            "added": added,
            "combinations": t.len(),
            "calls": 17u64,
            "rows": render_rows(&t.set.ranking, &t.head(t.query.k)),
        });
        let plan = s.plan.clone();
        assert_eq!(expand_doc(&mut s, results, plan, 17), tree.to_string());
    }
}

#[test]
fn query_and_chunk_documents_equal_the_tree() {
    for (s, _) in universes() {
        let all = s.head(usize::MAX);
        let plan_frame = json!({"frame": "plan", "cached": false, "cost": 12.5, "plan": "p"});
        let degraded = vec!["Svc\"1".to_owned()];
        for rows in [&all[..], &all[..0]] {
            for session in [Some(7u64), None] {
                let tree = json!({
                    "plan": plan_frame,
                    "session": session,
                    "rows": render_rows(&s.set.ranking, rows),
                    "combinations": all.len(),
                    "degraded": degraded,
                    "calls": 3u64,
                });
                let written = doc(
                    &json!({"plan": plan_frame, "session": session}),
                    &s.set.ranking,
                    rows,
                    &json!({"combinations": all.len(), "degraded": degraded, "calls": 3u64}),
                );
                assert_eq!(written, tree.to_string());
            }
            let tree = json!({"frame": "chunk", "rows": render_rows(&s.set.ranking, rows)});
            let mut frame = String::new();
            chunk_frame(&mut frame, &s.set.ranking, rows);
            assert_eq!(frame, tree.to_string());
        }
    }
}

/// The `mode=par` sink's frames, batch by batch as the pipelined
/// executor hands them over.
#[test]
fn streamed_batches_equal_the_tree_built_frames() {
    for (registry, query) in [
        seco_bench::chain_scenario(3, 42),
        seco_bench::star_scenario(3, 7),
    ] {
        let state = ServerState::new(registry, ServerConfig::default());
        let (best, _) = state.plan(&query).expect("plan");
        let frames = Mutex::new((0usize, 0usize));
        let emit = |batch: &[CompositeTuple]| {
            let tree = json!({"frame": "chunk", "rows": render_rows(&query.ranking, batch)});
            let mut frame = String::new();
            chunk_frame(&mut frame, &query.ranking, batch);
            assert_eq!(frame, tree.to_string());
            let mut seen = frames.lock();
            *seen = (seen.0 + 1, seen.1 + batch.len());
        };
        let (results, _, _) = state
            .execute(&best.plan, true, query.k, Some(&emit))
            .expect("run");
        let (batches, rows) = *frames.lock();
        assert!(
            batches > 0 && rows == results.len(),
            "{batches} batches, {rows} rows"
        );
        state.shared.shutdown();
    }
}
