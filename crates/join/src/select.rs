//! Selection: the composites of a stream that satisfy a compiled
//! predicate set.
//!
//! A uniform input (one atom signature on every composite) is filtered
//! by one batch kernel over columns gathered from the composites. Any
//! failed precondition — or a value only the scalar path can decide —
//! falls back to the compiled per-composite check, which also reproduces
//! its errors.

use seco_model::{BitMask, Column, CompositeTuple};
use seco_query::{CompiledPredicates, EvalScratch, QueryError};

use crate::index::JoinStats;

/// Keeps the composites of `input` that satisfy `compiled`, in input
/// order. A selection never counts `predicate_evals` (the stages that
/// produced its input already charged the predicates), so the batch
/// kernel only moves the columnar counters of `stats`.
pub fn select(
    compiled: &CompiledPredicates,
    input: Vec<CompositeTuple>,
    stats: &mut JoinStats,
) -> Result<Vec<CompositeTuple>, QueryError> {
    let uniform = input.len() > 1 && input.iter().all(|c| c.atoms == input[0].atoms);
    if uniform && crate::accelerated() {
        if let Some(plan) = compiled.batch_plan(&[], &input[0].atoms) {
            if let Some(cols) = plan.gather_columns(&input) {
                let refs: Vec<_> = cols.iter().map(Column::as_ref).collect();
                let mut mask = BitMask::default();
                mask.reset_ones(input.len());
                if plan.eval_mask(None, &refs, &mut mask) {
                    stats.batch_evals += 1;
                    stats.columns_scanned += refs.len() as u64;
                    return Ok(input
                        .into_iter()
                        .enumerate()
                        .filter_map(|(i, c)| mask.get(i).then_some(c))
                        .collect());
                }
            }
        }
    }
    let (mut kept, mut scratch) = (Vec::new(), EvalScratch::default());
    for c in input {
        if compiled.eval(&c, &mut scratch)? {
            kept.push(c);
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_bench::{join_pair_with_width, KeyEdge};
    use seco_model::{AttributePath, Comparator, ScoreDecay, Value};
    use seco_query::predicate::{ResolvedPredicate, SchemaMap};
    use seco_query::QualifiedPath;
    use seco_services::invocation::Request;
    use seco_services::Service;
    use std::sync::Arc;

    /// Every row `service` answers, as composites of `atom`.
    fn rows(service: &dyn Service, atom: &str) -> Vec<CompositeTuple> {
        let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
        let mut out = Vec::new();
        for c in 0.. {
            let resp = service
                .fetch(&req.at_chunk(c))
                .expect("the service answers");
            out.extend((resp.tuples().iter()).map(|t| CompositeTuple::single(atom, t.clone())));
            if !resp.has_more() {
                return out;
            }
        }
        out
    }

    /// Over single atoms and joined pairs, uniform and mixed inputs, and
    /// every comparator's selection on a key, the batch kernel keeps
    /// exactly what the scalar loop keeps, in the same order, and fails
    /// where it fails.
    #[test]
    fn the_selection_batch_kernel_equals_the_scalar_loop() {
        let (sx, sy) =
            join_pair_with_width(ScoreDecay::Linear, ScoreDecay::Quadratic, 12, 4, 23, 10);
        let link = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
            left: QualifiedPath::new("X", AttributePath::atomic("Link")),
            op: Comparator::Eq,
            right: QualifiedPath::new("Y", AttributePath::atomic("Link")),
        })];
        // Two sides, the key a selection reads, and the join predicates.
        type Case = (
            Arc<dyn Service>,
            Arc<dyn Service>,
            &'static str,
            Vec<ResolvedPredicate>,
        );
        let mut cases: Vec<Case> = vec![(sx, sy, "Link", link)];
        for edge in KeyEdge::ALL {
            let (sx, sy) = (edge.service("X1", 0, 12, 4), edge.service("Y1", 1, 12, 4));
            cases.push((sx, sy, "K1", edge.predicates("X", "Y")));
        }
        let (mut batched, mut failed) = (0, 0);
        for (sx, sy, key, joins) in &cases {
            let mut schemas = SchemaMap::new();
            schemas.insert("X".into(), &sx.interface().schema);
            schemas.insert("Y".into(), &sy.interface().schema);
            let (xs, ys) = (rows(&**sx, "X"), rows(&**sy, "Y"));
            let pairs: Vec<_> = (xs.iter())
                .flat_map(|x| ys.iter().filter_map(|y| x.merge(y)))
                .collect();
            let mixed: Vec<_> = xs.iter().chain(&pairs).cloned().collect();
            let path = AttributePath::atomic(*key);
            let at = xs[3].components[0].first_value_at(&sx.interface().schema, &path);
            let value = at.expect("the key is an output").clone();
            let mut sets = vec![joins.clone()];
            for op in [Comparator::Eq, Comparator::Gt, Comparator::Le] {
                let left = QualifiedPath::new("X", path.clone());
                let value = value.clone();
                sets.push(vec![ResolvedPredicate::Selection { left, op, value }]);
            }
            for preds in &sets {
                let compiled = CompiledPredicates::compile(preds, &schemas).expect("compiles");
                for input in [&xs, &pairs, &mixed, &xs[..1].to_vec(), &Vec::new()] {
                    let run = |scalar| {
                        let mut stats = JoinStats::default();
                        let kept = crate::with_scalar(scalar, || {
                            select(&compiled, input.clone(), &mut stats)
                        });
                        (kept, stats)
                    };
                    let ((reference, r), (production, p)) = (run(true), run(false));
                    // Debug renders, since a `NaN` row equals no row.
                    let same = format!("{reference:?}") == format!("{production:?}");
                    assert!(same, "{key} {preds:?}: {reference:?} vs {production:?}");
                    assert_eq!((r.batch_evals, r.columns_scanned), (0, 0));
                    batched += p.batch_evals;
                    failed += usize::from(production.is_err());
                }
            }
        }
        assert!(batched > 0, "the batch kernel runs");
        assert!(failed > 0, "the NaN case must reach its error");
    }
}
