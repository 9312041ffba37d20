//! Stress test: the pipelined executor's bounded channels (capacity
//! 256 per arc) must sustain volumes far above capacity without
//! deadlock, and agree with the deterministic executor.

use std::sync::Arc;

use search_computing::model::{
    Adornment, AttributeDef, AttributePath, Comparator, DataType, ScoreDecay, ServiceInterface,
    ServiceKind, ServiceSchema, ServiceStats, Value,
};
use search_computing::plan::{PlanNode, QueryPlan, ServiceNode};
use search_computing::prelude::*;
use search_computing::services::synthetic::{DomainMap, SyntheticService, ValueDomain};

/// A wide source (2000 tuples) piped into a per-tuple lookup: more than
/// seven channel-capacities of composites flow through every arc.
fn registry() -> ServiceRegistry {
    let mut reg = ServiceRegistry::new();
    let keys = ValueDomain::new("key", 32);

    let src_schema = ServiceSchema::new(
        "Wide1",
        vec![
            AttributeDef::atomic("Seed", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Key", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Rank", DataType::Float, Adornment::Ranked),
        ],
    )
    .unwrap();
    let src = ServiceInterface::new(
        "Wide1",
        "Wide",
        src_schema,
        ServiceKind::Search,
        ServiceStats::new(2000.0, 500, 1.0, 1.0).unwrap(),
        ScoreDecay::Linear,
    )
    .unwrap();
    reg.register_service(Arc::new(SyntheticService::new(
        src,
        DomainMap::new().with(AttributePath::atomic("Key"), keys.clone()),
        3,
    )))
    .unwrap();

    let look_schema = ServiceSchema::new(
        "Lookup1",
        vec![
            AttributeDef::atomic("Key", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Payload", DataType::Text, Adornment::Output),
        ],
    )
    .unwrap();
    let lookup = ServiceInterface::new(
        "Lookup1",
        "Lookup",
        look_schema,
        ServiceKind::Exact { chunked: false },
        ServiceStats::new(1.0, 1, 0.1, 1.0).unwrap(),
        ScoreDecay::Constant(1.0),
    )
    .unwrap();
    reg.register_service(Arc::new(SyntheticService::new(lookup, DomainMap::new(), 4)))
        .unwrap();
    reg
}

#[test]
fn pipelined_executor_survives_volumes_beyond_channel_capacity() {
    let reg = registry();
    let query = QueryBuilder::new()
        .atom("W", "Wide1")
        .atom("L", "Lookup1")
        .select_const("W", "Seed", Comparator::Eq, Value::text("s"))
        .join("W", "Key", Comparator::Eq, "L", "Key")
        .build()
        .unwrap();
    let mut plan = QueryPlan::new(query);
    let w = plan.add(PlanNode::Service(
        ServiceNode::new("W", "Wide1").with_fetches(4),
    ));
    let l = plan.add(PlanNode::Service(ServiceNode::new("L", "Lookup1")));
    plan.connect(plan.input(), w).unwrap();
    plan.connect(w, l).unwrap();
    plan.connect(l, plan.output()).unwrap();

    let sequential = execute_plan(&plan, &reg, EngineConfig::default()).unwrap();
    assert_eq!(
        sequential.results.len(),
        2000,
        "every wide tuple finds its lookup (echoed key)"
    );

    let parallel = execute_parallel(&plan, &reg, EngineConfig::default())
        .unwrap()
        .results;
    assert_eq!(parallel.len(), sequential.results.len());
}
