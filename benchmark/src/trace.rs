//! Spans recorded from outside the program, and the in-process replay
//! that produces them.
//!
//! The replay mirrors `seco_server::server::{handle_query,
//! handle_session_op}` step by step on the workload's own warmed
//! `ServerState`, recording one span per layer boundary around the
//! public calls (`parse_query` → `ServerState::plan` →
//! `ServerState::execute` → `open_session` / `Session::next | rerank |
//! absorb` → `render_rows` + `to_string`). Spans inside the program are
//! a later change (ROADMAP item 3); when the handlers change, this
//! mirror must follow them.
//!
//! Spans stay in memory until the pass ends. A span's self time is its
//! duration minus the part of that interval its child spans cover.

use std::sync::Mutex;
use std::time::Instant;

use serde_json::json;

use seco_engine::{BatchSink, ResultSet};
use seco_model::CompositeTuple;
use seco_plan::PlanNode;
use seco_query::parse_query;
use seco_server::{render_rows, ServerState, Session};
use seco_services::CallStats;

use crate::workload::{Op, Step};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`engine.execute`, `server.render`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op (request script) this span belongs to.
    pub op_id: usize,
    /// Counter deltas over the span, snapshotted at its boundaries
    /// (root spans only).
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store, shared with the executor's sink thread.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
    }

    /// Runs `work` inside a new span; `work` receives the span's index
    /// so it can parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op_id: usize,
        work: impl FnOnce(usize) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op_id,
                counters: Vec::new(),
            });
            spans.len() - 1
        };
        let out = work(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    fn set_counters(&self, id: usize, counters: Vec<(&'static str, u64)>) {
        self.lock()[id].counters = counters;
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("recorder not poisoned")
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (children may overlap each other and run on other
/// threads; they are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as the JSON document written to `out/trace-<workload>.json`.
pub fn to_json(spans: &[Span]) -> serde_json::Value {
    let selfs = self_times_ns(spans);
    let rows: Vec<serde_json::Value> = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            let counters: Vec<serde_json::Value> = s
                .counters
                .iter()
                .map(|(k, v)| json!({"name": k, "delta": v}))
                .collect();
            json!({
                "id": id,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
                "parent": s.parent,
                "op_id": s.op_id,
                "counters": counters,
            })
        })
        .collect();
    json!(rows)
}

fn counter_deltas(before: &CallStats, after: &CallStats) -> Vec<(&'static str, u64)> {
    vec![
        ("calls", after.calls - before.calls),
        ("cache_hits", after.cache_hits - before.cache_hits),
        ("tuples", after.tuples - before.tuples),
        (
            "predicate_evals",
            after.predicate_evals - before.predicate_evals,
        ),
    ]
}

/// The in-memory stand-in for the socket: frames and bodies are
/// rendered exactly as the handlers render them, then dropped.
#[derive(Default)]
struct Wire(Vec<u8>);

impl Wire {
    fn frame(&mut self, json: &str) {
        self.0.extend_from_slice(json.as_bytes());
        self.0.push(b'\n');
    }
}

const TENANT: &str = "default";

/// Replays `op` in-process, mirroring the handlers, and returns the
/// index of its root span. Panics if the daemon refuses or fails a
/// step: the workloads are chosen so that none does.
pub fn replay(state: &ServerState, rec: &Recorder, op_id: usize, op: &Op) -> usize {
    let before = state.registry.total_stats();
    let mut root_id = 0;
    rec.span("op", None, op_id, |root| {
        root_id = root;
        let mut session = None;
        for step in &op.steps {
            match step {
                Step::Query { params, text } => {
                    session = Some(replay_query(state, rec, root, op_id, params, text));
                }
                Step::More(n) => {
                    let id = session.expect("query opened a session");
                    rec.span("request.more", Some(root), op_id, |req| {
                        replay_more(state, rec, req, op_id, id, *n);
                    });
                }
                Step::Rerank(weights) => {
                    let id = session.expect("query opened a session");
                    rec.span("request.rerank", Some(root), op_id, |req| {
                        replay_rerank(state, rec, req, op_id, id, weights);
                    });
                }
                Step::Expand(atom, extra) => {
                    let id = session.expect("query opened a session");
                    rec.span("request.expand", Some(root), op_id, |req| {
                        replay_expand(state, rec, req, op_id, id, atom, *extra);
                    });
                }
                Step::Delete => {
                    let id = session.expect("query opened a session");
                    rec.span("request.delete", Some(root), op_id, |_| {
                        assert!(state.close_session(id), "session exists");
                    });
                }
            }
        }
    });
    rec.set_counters(
        root_id,
        counter_deltas(&before, &state.registry.total_stats()),
    );
    root_id
}

fn param<'a>(params: &'a str, name: &str) -> Option<&'a str> {
    params
        .split('&')
        .filter_map(|p| p.split_once('='))
        .find_map(|(k, v)| (k == name).then_some(v))
}

fn replay_query(
    state: &ServerState,
    rec: &Recorder,
    root: usize,
    op_id: usize,
    params: &str,
    text: &str,
) -> u64 {
    rec.span("request.query", Some(root), op_id, |req| {
        let req = Some(req);
        let admission = state.admit(TENANT).expect("admitted");
        let parallel = param(params, "mode") == Some("par");
        let streaming = param(params, "stream") == Some("1");
        let mut query = rec.span("query.parse", req, op_id, |_| {
            parse_query(text).expect("generated query parses")
        });
        if let Some(k) = param(params, "k").and_then(|v| v.parse::<usize>().ok()) {
            query.k = k.max(1);
        }
        let k = query.k;
        let (best, cached) = rec.span("optimizer.plan", req, op_id, |_| {
            state.plan(&query).expect("generated query is feasible")
        });
        let mut wire = Wire::default();
        let plan_frame = rec.span("server.render", req, op_id, |_| {
            json!({
                "frame": "plan",
                "cached": cached,
                "cost": best.cost,
                "plan": best.plan.canonical_key(),
            })
        });
        let ranking = query.ranking.clone();

        if streaming {
            wire.frame(&plan_frame.to_string());
            let wire = Mutex::new(wire);
            let exec_span = Mutex::new(None);
            let emit = |batch: &[CompositeTuple]| {
                let parent = *exec_span.lock().expect("sink never panics");
                rec.span("server.render", parent, op_id, |_| {
                    let frame = json!({"frame": "chunk", "rows": render_rows(&ranking, batch)});
                    wire.lock()
                        .expect("sink never panics")
                        .frame(&frame.to_string());
                });
            };
            let sink: Option<BatchSink<'_>> = if parallel { Some(&emit) } else { None };
            let (results, degraded, calls) = rec.span("engine.execute", req, op_id, |me| {
                *exec_span.lock().expect("sink never panics") = Some(me);
                state
                    .execute(&best.plan, parallel, k, sink)
                    .expect("synthetic services never fail")
            });
            state.charge(TENANT, calls);
            let total = results.len();
            let chunk = param(params, "chunk")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(5)
                .max(1);
            let id = rec.span("server.session_open", req, op_id, |_| {
                let set = ResultSet::new(results, ranking.clone()).with_degraded(degraded);
                state
                    .open_session(|id| {
                        Session::new(id, TENANT.to_owned(), query.clone(), best.plan.clone(), set)
                    })
                    .expect("session table has room")
            });
            let mut delivered = 0usize;
            if !parallel {
                while delivered < k {
                    let rows = rec.span("server.session_next", req, op_id, |_| {
                        state.with_session(id, |s| s.next(chunk.min(k - delivered)))
                    });
                    let Some(rows) = rows.filter(|r| !r.is_empty()) else {
                        break;
                    };
                    delivered += rows.len();
                    rec.span("server.render", req, op_id, |_| {
                        let frame = json!({"frame": "chunk", "rows": render_rows(&ranking, &rows)});
                        wire.lock()
                            .expect("no sink running")
                            .frame(&frame.to_string());
                    });
                }
            }
            rec.span("server.render", req, op_id, |_| {
                let summary = json!({
                    "frame": "summary",
                    "session": id,
                    "combinations": total,
                    "delivered": delivered,
                    "calls": calls,
                });
                wire.lock()
                    .expect("no sink running")
                    .frame(&summary.to_string());
            });
            drop(admission);
            id
        } else {
            let (results, degraded, calls) = rec.span("engine.execute", req, op_id, |_| {
                state
                    .execute(&best.plan, parallel, k, None)
                    .expect("synthetic services never fail")
            });
            state.charge(TENANT, calls);
            let total = results.len();
            let (id, degraded_list) = rec.span("server.session_open", req, op_id, |_| {
                let set = ResultSet::new(results, ranking.clone()).with_degraded(degraded);
                let degraded_list = set.degraded.clone();
                let id = state
                    .open_session(|id| {
                        Session::new(id, TENANT.to_owned(), query.clone(), best.plan.clone(), set)
                    })
                    .expect("session table has room");
                (id, degraded_list)
            });
            let rows = state
                .with_session(id, |s| {
                    let rows = rec.span("server.session_next", req, op_id, |_| s.next(k));
                    rec.span("server.render", req, op_id, |_| {
                        render_rows(&ranking, &rows)
                    })
                })
                .expect("session just opened");
            drop(admission);
            rec.span("server.render", req, op_id, |_| {
                let body = json!({
                    "plan": plan_frame,
                    "session": id,
                    "rows": rows,
                    "combinations": total,
                    "degraded": degraded_list,
                    "calls": calls,
                });
                wire.frame(&body.to_string());
            });
            id
        }
    })
}

fn replay_more(state: &ServerState, rec: &Recorder, req: usize, op_id: usize, id: u64, n: usize) {
    let (tenant, _k) = state
        .with_session(id, |s| (s.tenant.clone(), s.query.k))
        .expect("session exists");
    let body = state
        .with_session(id, |s| {
            let rows = rec.span("server.session_next", Some(req), op_id, |_| {
                s.next(n.max(1))
            });
            rec.span("server.render", Some(req), op_id, |_| {
                json!({
                    "session": id,
                    "tenant": tenant,
                    "rows": render_rows(&s.set.ranking, &rows),
                    "delivered": s.delivered(),
                    "remaining": s.len() - s.delivered(),
                })
                .to_string()
            })
        })
        .expect("session exists");
    std::hint::black_box(body);
}

fn replay_rerank(
    state: &ServerState,
    rec: &Recorder,
    req: usize,
    op_id: usize,
    id: u64,
    weights: &str,
) {
    let weights: Vec<f64> = weights
        .split(',')
        .map(|w| w.trim().parse().expect("static weights parse"))
        .collect();
    let body = state
        .with_session(id, |s| {
            rec.span("server.rerank", Some(req), op_id, |_| s.rerank(weights))
                .expect("arity matches");
            let head = rec.span("server.session_head", Some(req), op_id, |_| {
                s.head(s.query.k)
            });
            rec.span("server.render", Some(req), op_id, |_| {
                json!({
                    "session": id,
                    "rows": render_rows(&s.set.ranking, &head),
                    "delivered": s.delivered(),
                })
                .to_string()
            })
        })
        .expect("session exists");
    std::hint::black_box(body);
}

fn replay_expand(
    state: &ServerState,
    rec: &Recorder,
    req: usize,
    op_id: usize,
    id: u64,
    atom: &str,
    extra: u32,
) {
    let (tenant, k, mut plan) = state
        .with_session(id, |s| (s.tenant.clone(), s.query.k, s.plan.clone()))
        .expect("session exists");
    let admission = state.admit(&tenant).expect("admitted");
    let node = plan.service_node_of(atom).expect("atom has a service node");
    match plan.node_mut(node) {
        Ok(PlanNode::Service(svc)) => svc.fetches += extra,
        _ => unreachable!("service_node_of names a service node"),
    }
    let (results, _, calls) = rec.span("engine.execute", Some(req), op_id, |_| {
        state
            .execute(&plan, false, k, None)
            .expect("synthetic services never fail")
    });
    state.charge(&tenant, calls);
    drop(admission);
    let body = state
        .with_session(id, |s| {
            let added = rec.span("server.absorb", Some(req), op_id, |_| s.absorb(results));
            s.plan = plan;
            let head = rec.span("server.session_head", Some(req), op_id, |_| {
                s.head(s.query.k)
            });
            rec.span("server.render", Some(req), op_id, |_| {
                json!({
                    "session": id,
                    "added": added,
                    "combinations": s.len(),
                    "calls": calls,
                    "rows": render_rows(&s.set.ranking, &head),
                })
                .to_string()
            })
        })
        .expect("session exists");
    std::hint::black_box(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child
            span(70, 80, Some(0)),  // disjoint child
            span(22, 28, Some(2)),  // grandchild
            span(90, 140, Some(0)), // runs past the parent: clipped
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [10,50) ∪ [70,80) ∪ [90,100) = 60 of 100.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 24, "30 minus the 6 its grandchild covers");
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[5], 50);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let rec = Recorder::new();
        rec.span("outer", None, 7, |outer| {
            rec.span("inner", Some(outer), 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].op_id, 7);
        let doc = to_json(&spans).to_string();
        assert!(doc.contains("\"name\":\"inner\""));
        assert!(doc.contains("\"self_ns\""));
    }
}
