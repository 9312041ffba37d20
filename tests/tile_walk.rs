//! The figures and the executor walk the tile space the same way.
//!
//! `explore` is the bounded simulation behind the Fig. 5–7
//! reproductions (E3–E5); `ParallelJoinExecutor::run` fetches real
//! chunks and joins them. For every join method, at a few space shapes
//! and nested-loop steps, a full run of the executor over `nx × ny`
//! chunks must process exactly the tiles `explore` lists, in the same
//! order, with one call per chunk on each axis.

use search_computing::join::completion::explore;
use search_computing::join::executor::{MemoryStream, ParallelJoinExecutor};
use search_computing::join::JoinMethod;
use search_computing::prelude::*;
use search_computing::query::predicate::{ResolvedPredicate, SchemaMap};
use search_computing::query::{JoinPredicate, QualifiedPath};
use seco_model::{AttributeDef, DataType, ServiceSchema, Tuple};

const CHUNK: usize = 2;

fn stream(atom: &str, schema: &ServiceSchema, chunks: usize) -> MemoryStream {
    let n = chunks * CHUNK;
    let tuples = (0..n)
        .map(|i| {
            let t = Tuple::builder(schema)
                .set("City", Value::Text(format!("city-{}", i % 3)))
                .score(1.0 - i as f64 / n as f64)
                .source_rank(i)
                .build()
                .unwrap();
            CompositeTuple::single(atom, t)
        })
        .collect();
    MemoryStream::new(tuples, CHUNK)
}

#[test]
fn the_executor_walks_the_tiles_the_figures_explore() {
    let schema = ServiceSchema::new(
        "S",
        vec![AttributeDef::atomic(
            "City",
            DataType::Text,
            Adornment::Output,
        )],
    )
    .unwrap();
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &schema);
    schemas.insert("Y".into(), &schema);
    let predicates = vec![ResolvedPredicate::Join(JoinPredicate {
        left: QualifiedPath::new("X", AttributePath::atomic("City")),
        op: Comparator::Eq,
        right: QualifiedPath::new("Y", AttributePath::atomic("City")),
    })];
    let mut methods: Vec<(Invocation, Completion)> = JoinMethod::all()
        .into_iter()
        .map(|m| (m.invocation, m.completion))
        .collect();
    for completion in [Completion::Rectangular, Completion::Triangular] {
        methods.push((Invocation::MergeScan { r1: 2, r2: 3 }, completion));
    }
    let mut checked = 0;
    for (invocation, completion) in methods {
        for (nx, ny) in [(1, 1), (1, 4), (4, 1), (3, 3), (5, 2), (2, 6)] {
            for h in [1, 2, 3] {
                let at = format!("{invocation:?} {completion:?} {nx}x{ny} h={h}");
                let want = explore(invocation, completion, h, nx, ny).unwrap();
                let exec = ParallelJoinExecutor {
                    predicates: &predicates,
                    schemas: &schemas,
                    invocation,
                    completion,
                    h,
                    k: 0,
                    options: JoinIndexOptions::default(),
                    columnar: ColumnarOptions::default(),
                    pool: None,
                };
                let mut x = stream("X", &schema, nx);
                let mut y = stream("Y", &schema, ny);
                let out = exec.run(&mut x, &mut y).unwrap();
                assert_eq!(out.tiles, want.order, "{at}: tile order");
                assert_eq!((out.calls_x, out.calls_y), want.call_counts(), "{at}");
                assert!(out.exhausted, "{at}: a k = 0 run explores everything");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 10 * 6 * 3);
}
