//! A predicate that names an attribute the schema does not have is
//! rejected when the plan is prepared: with the error the interpreted
//! evaluator raised on meeting it, and before any service is called.
//!
//! The running example carries one bad conjunct at a time — on an
//! atomic attribute, inside a repeating group, on the right of a join,
//! and on the last atom of the pipe chain. With two, preparation would
//! report the first in predicate order.

use search_computing::prelude::*;
use search_computing::services::domains::entertainment;

const RUNNING_EXAMPLE: &str = "Select Movie1 As M, Theatre1 as T, Restaurant1 as R \
    where Shows(M,T) and DinnerPlace(T,R) and M.Genres.Genre=\"comedy\" \
    and M.Openings.Country=\"country-0\" and M.Openings.Date>2009-03-01 \
    and M.Language=\"en\" and T.UAddress=\"via Golgi 42\" and T.UCity=\"Milano\" \
    and T.UCountry=\"country-0\" and T.TCountry=\"country-0\" \
    and R.Category.Name=\"pizzeria\"";

/// `(bad conjunct, the error it raises)`.
const CASES: [(&str, &str); 4] = [
    (
        "M.Bogus=\"x\"",
        "join error: query error: model error: unknown attribute `Bogus` on service `Movie1`",
    ),
    (
        "M.Genres.Bogus=\"x\"",
        "join error: query error: model error: unknown attribute `Genres.Bogus` on service `Movie1`",
    ),
    (
        "M.Title=T.Bogus",
        "join error: query error: model error: unknown attribute `Bogus` on service `Theatre1`",
    ),
    (
        "R.Bogus=\"x\"",
        "join error: query error: model error: unknown attribute `Bogus` on service `Restaurant1`",
    ),
];

#[test]
fn a_malformed_predicate_fails_at_prepare_with_the_interpreters_error() {
    let registry = entertainment::build_registry(1).expect("registry builds");
    for (conjunct, expected) in CASES {
        let text = format!("{RUNNING_EXAMPLE} and {conjunct} ranking (0.3, 0.5, 0.2) top 10");
        let query = parse_query(&text).expect("the query parses");
        // Planning succeeds: the bad conjunct first meets a schema in
        // the engine.
        let plan = optimize(&query, &registry, CostMetric::RequestCount)
            .expect("the query plans")
            .plan;
        let config = EngineConfig::default();
        let before = registry.total_stats().calls;
        let det = execute_plan(&plan, &registry, config).map(|_| ());
        let det_calls = registry.total_stats().calls - before;
        let before = registry.total_stats().calls;
        let streamed = execute_parallel_session(&plan, &registry, config, None, None).map(|_| ());
        let streamed_calls = registry.total_stats().calls - before;
        let det = det.expect_err(&format!("{conjunct}: the walk must fail"));
        let streamed = streamed.expect_err(&format!("{conjunct}: the streamed run must fail"));
        assert_eq!(det.to_string(), expected, "{conjunct}: walk");
        assert_eq!(streamed.to_string(), expected, "{conjunct}: streamed");
        assert_eq!(det_calls, 0, "{conjunct}: the walk called a service");
        assert_eq!(
            streamed_calls, 0,
            "{conjunct}: the streamed run called a service"
        );
    }
}
