//! Reference query evaluator (the oracle).
//!
//! Implements the declarative semantics of §3.1 by brute force: atoms
//! are visited in a reachability order, every binding combination is
//! fully fetched (all chunks, up to a safety cap), and candidate
//! composites are filtered with the repeating-group mapping semantics of
//! [`crate::predicate`]. The result is "the largest set of composite
//! tuples t1 · … · tn" satisfying the predicate set, sorted by the
//! global ranking function.
//!
//! The oracle is deliberately naive — no chunk budgeting, no join
//! strategy, no ranking-aware early termination. Its job is to define
//! correct answers; `seco-join` and `seco-engine` are tested against it
//! (every tuple they emit must be in the oracle's result, E16).

use std::collections::BTreeMap;

use seco_model::{Comparator, CompositeTuple};
use seco_services::invocation::{Bindings, Request};
use seco_services::{Service, ServiceRegistry};

use crate::ast::Query;
use crate::error::QueryError;
use crate::feasibility::{analyze, BindingSource};
use crate::predicate::{resolve_predicates, satisfies_available, SchemaMap};

/// Hard cap on chunk fetches per binding combination — the oracle
/// materializes full result lists, and runaway services (or bugs) must
/// not hang the tests.
const MAX_CHUNKS_PER_CALL: usize = 1_000;

/// Evaluates a query exhaustively against the registry.
///
/// Returns all answer combinations, sorted by decreasing global score
/// (ties broken by the components' source ranks for determinism).
pub fn evaluate_oracle(
    query: &Query,
    registry: &ServiceRegistry,
) -> Result<Vec<CompositeTuple>, QueryError> {
    let report = analyze(query, registry)?;
    let joins = query.expanded_joins(registry)?;
    let predicates = resolve_predicates(query, &joins)?;

    let mut schemas: SchemaMap<'_> = BTreeMap::new();
    for atom in &query.atoms {
        schemas.insert(
            atom.alias.clone(),
            &registry.interface(&atom.service)?.schema,
        );
    }

    // Composites under construction; starts with the single empty
    // composite (the user's one input tuple, §3.2).
    let mut partials = vec![CompositeTuple::empty()];

    for alias in &report.order {
        let atom = query.atom(alias)?;
        let service = registry.service(&atom.service)?;
        let mut extended = Vec::new();
        for partial in &partials {
            // Assemble the request from this atom's binding sources.
            let mut request = Request::first(Bindings::new());
            for dep in report.bindings_of(alias) {
                match &dep.source {
                    BindingSource::Constant { operand, op } => {
                        let value = operand.resolve(&query.inputs)?;
                        if *op == Comparator::Eq {
                            request = request.bind(dep.input.clone(), value);
                        } else {
                            request = request.constrain(dep.input.clone(), *op, value);
                        }
                    }
                    BindingSource::Piped {
                        from_atom,
                        from_path,
                    } => {
                        let from_schema = schemas
                            .get(from_atom)
                            .ok_or_else(|| QueryError::UnknownAtom(from_atom.clone()))?;
                        let tuple = partial
                            .component(from_atom)
                            .ok_or_else(|| QueryError::UnknownAtom(from_atom.clone()))?;
                        let value = tuple.first_value_at(from_schema, from_path)?;
                        request = request.bind(dep.input.clone(), value);
                    }
                }
            }
            // Fetch the full result list under these bindings.
            let mut chunk = 0;
            loop {
                let resp = service.fetch(&request.at_chunk(chunk))?;
                for tuple in resp.tuples() {
                    let candidate = partial.extend_with(alias.as_str(), tuple.clone());
                    if satisfies_available(&predicates, &candidate, &schemas)? {
                        extended.push(candidate);
                    }
                }
                if !resp.has_more() || chunk + 1 >= MAX_CHUNKS_PER_CALL {
                    break;
                }
                chunk += 1;
            }
        }
        partials = extended;
    }

    // Order components canonically (atom declaration order) and sort by
    // the ranking function.
    let weights = query.ranking.weights();
    let mut out: Vec<CompositeTuple> = partials
        .into_iter()
        .map(|c| reorder(&c, query))
        .collect::<Result<_, _>>()?;
    out.sort_by(|a, b| {
        let sa = a.global_score(weights);
        let sb = b.global_score(weights);
        sb.partial_cmp(&sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| rank_key(a).cmp(&rank_key(b)))
    });
    Ok(out)
}

fn rank_key(c: &CompositeTuple) -> Vec<usize> {
    c.components.iter().map(|t| t.source_rank).collect()
}

/// Reorders a composite's components into the query's atom order.
fn reorder(c: &CompositeTuple, query: &Query) -> Result<CompositeTuple, QueryError> {
    let mut atoms = Vec::with_capacity(query.atoms.len());
    let mut components = Vec::with_capacity(query.atoms.len());
    for atom in &query.atoms {
        let t = c
            .component(&atom.alias)
            .ok_or_else(|| QueryError::UnknownAtom(atom.alias.clone()))?;
        atoms.push(seco_model::Symbol::from(&atom.alias));
        components.push(t.clone());
    }
    Ok(CompositeTuple::new(&atoms, components))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use seco_model::{AttributePath, Comparator, Value};
    use seco_services::domains::travel;
    use seco_services::table::chapter_semantics_example;
    use seco_services::{Service, ServiceRegistry};
    use std::sync::Arc;

    fn chapter_registry() -> ServiceRegistry {
        let (s1, s2) = chapter_semantics_example();
        let mut reg = ServiceRegistry::new();
        reg.register_service(Arc::new(s1)).unwrap();
        reg.register_service(Arc::new(s2)).unwrap();
        reg
    }

    #[test]
    fn q1_oracle_matches_the_chapter() {
        // Q1: select S1 where S1.R.A=1 and S1.R.B=x  =>  {t1}
        let reg = chapter_registry();
        let q = QueryBuilder::new()
            .atom("S1", "S1")
            .select_const("S1", "R.A", Comparator::Eq, Value::Int(1))
            .select_const("S1", "R.B", Comparator::Eq, Value::text("x"))
            .build()
            .unwrap();
        let result = evaluate_oracle(&q, &reg).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(
            result[0].components[0].group_at(0).len(),
            2,
            "the survivor is t1"
        );
    }

    #[test]
    fn q2_oracle_matches_the_chapter() {
        // Q2: join on R.A and R.B  =>  {t1·t3, t1·t4, t2·t4}
        let reg = chapter_registry();
        let q = QueryBuilder::new()
            .atom("S1", "S1")
            .atom("S2", "S2")
            .join("S1", "R.A", Comparator::Eq, "S2", "R.A")
            .join("S1", "R.B", Comparator::Eq, "S2", "R.B")
            .build()
            .unwrap();
        let result = evaluate_oracle(&q, &reg).unwrap();
        assert_eq!(result.len(), 3, "exactly t1·t3, t1·t4, t2·t4");
    }

    #[test]
    fn pipe_chain_with_selection_matches_manual_count() {
        // Conference -> Weather with AvgTemp > 26: the oracle must agree
        // with a hand-rolled loop over the same services.
        let reg = travel::build_registry(5).unwrap();
        let q = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("W", "Weather1")
            .pattern("Forecast", "C", "W")
            .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
            .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
            .build()
            .unwrap();
        let result = evaluate_oracle(&q, &reg).unwrap();

        // Manual: fetch 20 conferences, call weather per (city, date).
        let conf = reg.service("Conference1").unwrap();
        let weather = reg.service("Weather1").unwrap();
        let creq =
            Request::unbound().bind(AttributePath::atomic("Topic"), Value::text("databases"));
        let conferences = conf.fetch(&creq).unwrap().shared_tuples();
        let cschema = &conf.interface().schema;
        let mut expected = 0;
        for c in &conferences {
            let city = c
                .first_value_at(cschema, &AttributePath::atomic("City"))
                .unwrap();
            let date = c
                .first_value_at(cschema, &AttributePath::atomic("Date"))
                .unwrap();
            let wreq = Request::unbound()
                .bind(AttributePath::atomic("City"), city)
                .bind(AttributePath::atomic("Date"), date);
            for w in weather.fetch(&wreq).unwrap().tuples() {
                if let Value::Int(t) = w.atomic_at(2) {
                    if *t > 26 {
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(result.len(), expected);
        assert!(expected > 0, "the scenario should keep some conferences");
    }

    #[test]
    fn results_are_sorted_by_global_score() {
        let reg = travel::build_registry(9).unwrap();
        let q = QueryBuilder::new()
            .atom("C", "Conference1")
            .atom("H", "Hotel1")
            .pattern("StayAt", "C", "H")
            .select_const("C", "Topic", Comparator::Eq, Value::text("ai"))
            .ranking(vec![0.0, 1.0])
            .build()
            .unwrap();
        let result = evaluate_oracle(&q, &reg).unwrap();
        assert!(!result.is_empty());
        let scores: Vec<f64> = result.iter().map(|c| c.global_score(&[0.0, 1.0])).collect();
        for w in scores.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "oracle output must be globally sorted"
            );
        }
    }

    #[test]
    fn infeasible_query_errors() {
        let reg = travel::build_registry(9).unwrap();
        let q = QueryBuilder::new().atom("H", "Hotel1").build().unwrap();
        assert!(matches!(
            evaluate_oracle(&q, &reg),
            Err(QueryError::Infeasible { .. })
        ));
    }
}
