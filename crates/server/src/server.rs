//! The HTTP front end: routing, the streaming query path, and session
//! continuation endpoints.
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /query?tenant=T&mode=det\|par&stream=1&k=N&chunk=C` | Parse the body as a SeCo query, plan it through the shared [`PlanCache`](seco_optimizer::PlanCache), execute against the warm shared state, open a session. |
//! | `POST /session/{id}/more?n=N` | Next `N` ranked, undelivered combinations. |
//! | `POST /session/{id}/rerank` | Body `w1,w2,…`: swap the ranking weights, keep the cursor. |
//! | `POST /session/{id}/expand?atom=A&extra=N` | Deepen atom `A`'s fetches by `N` and union the new combinations in. |
//! | `DELETE /session/{id}` | Close the session. |
//! | `GET /stats` | Daemon counters (caches, admission, interner, tenants). |
//! | `POST /admin/promote?threshold=R&min-samples=N` | Promote deviating observed statistics; rolls the epoch and invalidates cached plans. |
//! | `POST /admin/shutdown` | Drain in-flight sessions, stop the executor pool, exit the accept loop. |
//!
//! ## Streaming
//!
//! With `stream=1` the response is chunked; every chunk is one JSON
//! frame. The first frame is `{"frame":"plan",…}` with the plan-cache
//! verdict: `"cached": true` means the query's *shape* was seen before
//! (the same clauses up to constant values and order, the same `k`,
//! weights and statistics epoch), so no search ran and the cached plan
//! was bound to this query's constants. Then `chunk` frames carry rows,
//! and a final `summary` frame closes the stream. The two executors
//! stream differently, on purpose:
//!
//! * `mode=det` (default) — deterministic executor; rows are framed
//!   *after* execution as successive ranked slices pulled from the
//!   session cursor (`chunk` rows per frame), so the frames are the
//!   top-k in order and count as delivered.
//! * `mode=par` — pipelined executor; `chunk` frames are pushed in
//!   emission order **while tiles are still joining** (the §4.1
//!   non-blocking dataflow), which is what time-to-first-chunk
//!   measures. The session cursor is left untouched: ranked delivery
//!   still starts at the top via `/more`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use serde_json::{json, Value};

use seco_engine::ResultSet;
use seco_model::CompositeTuple;
use seco_plan::{PlanNode, QueryPlan};
use seco_query::{parse_query, RankingFunction};
use seco_services::DeviationPolicy;

use crate::http::{discard_rest, parse_request, respond_json, ChunkedWriter, Request};
use crate::session::{write_rows, Session};
use crate::state::{Refusal, ServerState};

/// How long `/admin/shutdown` waits for in-flight queries.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Handle on a running server: its address and the accept-loop thread.
pub struct ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub addr: SocketAddr,
    /// The daemon state (for in-process inspection).
    pub state: Arc<ServerState>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Waits for the accept loop to exit (after `/admin/shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, state: Arc<ServerState>) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on this thread until shutdown. Each
    /// connection is handled on its own thread; execution concurrency
    /// is bounded by admission control, not by connection count.
    pub fn run(self) {
        let Server { listener, state } = self;
        for conn in listener.incoming() {
            if state.stopped() {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = state.clone();
            std::thread::spawn(move || {
                let _ = handle_connection(stream, &state);
            });
        }
    }

    /// Spawns the accept loop in the background.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state.clone();
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

fn refuse(stream: &mut TcpStream, refusal: &Refusal) -> io::Result<()> {
    respond_json(
        stream,
        refusal.status(),
        &json!({"error": refusal.message()}).to_string(),
    )
}

fn error(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    respond_json(stream, status, &json!({"error": message}).to_string())
}

/// One response document carrying rows: the fields of `head`, a `"rows"`
/// array, the fields of `tail` — the bytes of the single `json!` object
/// holding all of them in that order, except that the row array is
/// written straight into the text instead of built as a tree first.
/// `head` is a non-empty object, `tail` an object (possibly empty).
fn doc(head: &Value, ranking: &RankingFunction, rows: &[CompositeTuple], tail: &Value) -> String {
    debug_assert!(matches!(head, Value::Object(fields) if !fields.is_empty()));
    debug_assert!(matches!(tail, Value::Object(_)));
    let mut out = head.to_string();
    out.pop(); // reopen the object
    out.push_str(",\"rows\":");
    write_rows(&mut out, ranking, rows);
    // The tail's fields follow the rows, inside the same object.
    let tail = tail.to_string();
    if tail.len() > 2 {
        out.push(',');
        out.push_str(&tail[1..]);
    } else {
        out.push('}');
    }
    out
}

/// A streamed `chunk` frame, appended to the frame buffer.
fn chunk_frame(out: &mut String, ranking: &RankingFunction, rows: &[CompositeTuple]) {
    out.push_str("{\"frame\":\"chunk\",\"rows\":");
    write_rows(out, ranking, rows);
    out.push('}');
}

/// `more`: the next `n` ranked, undelivered rows and the cursor after
/// them.
fn more_doc(s: &mut Session, n: usize) -> String {
    let rows = s.next(n);
    doc(
        &json!({"session": s.id, "tenant": s.tenant}),
        &s.set.ranking,
        &rows,
        &json!({"delivered": s.delivered(), "remaining": s.len() - s.delivered()}),
    )
}

/// `rerank`: the head of the universe under the new weights.
fn rerank_doc(s: &mut Session, weights: Vec<f64>) -> Result<String, String> {
    s.rerank(weights)?;
    Ok(doc(
        &json!({"session": s.id}),
        &s.set.ranking,
        &s.head(s.query.k),
        &json!({"delivered": s.delivered()}),
    ))
}

/// `expand`: unions a deeper run's `results` in (it ran `plan`, which the
/// session adopts) and shows the head of the grown universe.
fn expand_doc(
    s: &mut Session,
    results: Vec<CompositeTuple>,
    plan: QueryPlan,
    calls: u64,
) -> String {
    let added = s.absorb(results);
    s.plan = plan;
    doc(
        &json!({"session": s.id, "added": added, "combinations": s.len(), "calls": calls}),
        &s.set.ranking,
        &s.head(s.query.k),
        &json!({}),
    )
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) -> io::Result<()> {
    let req = match parse_request(&stream)? {
        None => return Ok(()),
        Some(Err((status, why))) => {
            error(&mut stream, status, why)?;
            discard_rest(&stream);
            return Ok(());
        }
        Some(Ok(req)) => req,
    };
    let path = req.path.trim_matches('/').to_owned();
    let segments: Vec<&str> = path.split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["query"]) => handle_query(&mut stream, &req, state),
        ("POST", ["session", id, op]) => match id.parse::<u64>() {
            Ok(id) => handle_session_op(&mut stream, &req, state, id, op),
            Err(_) => error(&mut stream, 400, "bad session id"),
        },
        ("DELETE", ["session", id]) => match id.parse::<u64>() {
            Ok(id) if state.close_session(id) => {
                respond_json(&mut stream, 200, &json!({"closed": id}).to_string())
            }
            Ok(_) => error(&mut stream, 404, "no such session"),
            Err(_) => error(&mut stream, 400, "bad session id"),
        },
        ("GET", ["stats"]) => respond_json(&mut stream, 200, &state.stats_json()),
        ("GET", ["healthz"]) => respond_json(&mut stream, 200, &json!({"ok": true}).to_string()),
        ("POST", ["admin", "promote"]) => handle_promote(&mut stream, &req, state),
        ("POST", ["admin", "shutdown"]) => handle_shutdown(&mut stream, state),
        _ => error(&mut stream, 404, "no such route"),
    }
}

fn handle_query(stream: &mut TcpStream, req: &Request, state: &Arc<ServerState>) -> io::Result<()> {
    let tenant = req.param("tenant").unwrap_or("default").to_owned();
    let admission = match state.admit(&tenant) {
        Ok(a) => a,
        Err(r) => return refuse(stream, &r),
    };
    let parallel = req.param("mode") == Some("par");
    let streaming = req.param("stream") == Some("1");
    let mut query = match parse_query(&req.body) {
        Ok(q) => q,
        Err(e) => return error(stream, 400, &e.to_string()),
    };
    if let Some(k) = req.param("k").and_then(|v| v.parse::<usize>().ok()) {
        query.k = k.max(1);
    }
    let k = query.k;
    let (best, cached) = match state.plan(&query) {
        Ok(p) => p,
        Err(e) => return error(stream, 422, &e),
    };
    let plan_frame = json!({
        "frame": "plan",
        "cached": cached,
        "cost": best.cost,
        "plan": best.plan.canonical_key(),
    });

    if streaming {
        let writer = Mutex::new(ChunkedWriter::begin(stream, 200)?);
        writer.lock().frame(&plan_frame.to_string())?;
        let emit = |batch: &[CompositeTuple]| {
            let _ = writer
                .lock()
                .frame_with(|out| chunk_frame(out, &query.ranking, batch));
        };
        let sink: Option<seco_engine::BatchSink<'_>> = if parallel { Some(&emit) } else { None };
        let (results, degraded, calls) = match state.execute(&best.plan, parallel, k, sink) {
            Ok(out) => out,
            Err(e) => {
                let _ = writer
                    .lock()
                    .frame(&json!({"frame": "error", "error": e}).to_string());
                return writer.into_inner().finish();
            }
        };
        state.charge(&tenant, calls);
        let total = results.len();
        let set = ResultSet::new(results, query.ranking.clone()).with_degraded(degraded);
        let chunk = req.param_usize("chunk", 5).max(1);
        let session = state.open_session(|id| {
            Session::new(id, tenant.clone(), query.clone(), best.plan.clone(), set)
        });
        let mut delivered = 0usize;
        if let Ok(id) = session {
            // Deterministic mode streams the ranked prefix from the
            // session cursor; parallel mode already streamed emission
            // order through the sink.
            if !parallel {
                while delivered < k {
                    let Some(rows) = state.with_session(id, |s| s.next(chunk.min(k - delivered)))
                    else {
                        break;
                    };
                    if rows.is_empty() {
                        break;
                    }
                    delivered += rows.len();
                    writer
                        .lock()
                        .frame_with(|out| chunk_frame(out, &query.ranking, &rows))?;
                }
            }
        }
        let summary = json!({
            "frame": "summary",
            "session": session.as_ref().ok(),
            "combinations": total,
            "delivered": delivered,
            "calls": calls,
        });
        writer.lock().frame(&summary.to_string())?;
        drop(admission);
        writer.into_inner().finish()
    } else {
        let (results, degraded, calls) = match state.execute(&best.plan, parallel, k, None) {
            Ok(out) => out,
            Err(e) => return error(stream, 500, &e),
        };
        state.charge(&tenant, calls);
        let total = results.len();
        let set = ResultSet::new(results, query.ranking.clone()).with_degraded(degraded);
        let degraded_list = set.degraded.clone();
        let session = state.open_session(|id| {
            Session::new(id, tenant.clone(), query.clone(), best.plan.clone(), set)
        });
        let rows = match session {
            Ok(id) => state.with_session(id, |s| s.next(k)).unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        drop(admission);
        let body = doc(
            &json!({"plan": plan_frame, "session": session.as_ref().ok()}),
            &query.ranking,
            &rows,
            &json!({"combinations": total, "degraded": degraded_list, "calls": calls}),
        );
        respond_json(stream, 200, &body)
    }
}

fn handle_session_op(
    stream: &mut TcpStream,
    req: &Request,
    state: &Arc<ServerState>,
    id: u64,
    op: &str,
) -> io::Result<()> {
    match op {
        "more" => {
            let Some(body) =
                state.with_session(id, |s| more_doc(s, req.param_usize("n", s.query.k).max(1)))
            else {
                return error(stream, 404, "no such session");
            };
            respond_json(stream, 200, &body)
        }
        "rerank" => {
            let weights: Result<Vec<f64>, _> = req
                .body
                .split(',')
                .map(|w| w.trim().parse::<f64>())
                .collect();
            let Ok(weights) = weights else {
                return error(stream, 400, "body must be comma-separated weights");
            };
            let Some(outcome) = state.with_session(id, |s| rerank_doc(s, weights)) else {
                return error(stream, 404, "no such session");
            };
            match outcome {
                Ok(body) => respond_json(stream, 200, &body),
                Err(e) => error(stream, 400, &e),
            }
        }
        "expand" => handle_expand(stream, req, state, id),
        _ => error(stream, 404, "no such session operation"),
    }
}

/// Deepens one join branch: re-executes the session's plan with `extra`
/// more fetches on the named atom's service node, against the *warm*
/// shared caches — already-fetched chunks are hits, only the deeper
/// tail is new work.
fn handle_expand(
    stream: &mut TcpStream,
    req: &Request,
    state: &Arc<ServerState>,
    id: u64,
) -> io::Result<()> {
    let Some(atom) = req.param("atom").map(str::to_owned) else {
        return error(stream, 400, "expand needs ?atom=");
    };
    let extra = req.param_usize("extra", 1).max(1) as u32;
    // Snapshot what re-execution needs, then run with no session lock
    // held.
    let Some((tenant, k, mut plan)) =
        state.with_session(id, |s| (s.tenant.clone(), s.query.k, s.plan.clone()))
    else {
        return error(stream, 404, "no such session");
    };
    let admission = match state.admit(&tenant) {
        Ok(a) => a,
        Err(r) => return refuse(stream, &r),
    };
    let Some(node) = plan.service_node_of(&atom) else {
        return error(stream, 404, "no service node for that atom");
    };
    match plan.node_mut(node) {
        Ok(PlanNode::Service(svc)) => svc.fetches += extra,
        _ => return error(stream, 500, "atom does not name a service node"),
    }
    let (results, _, calls) = match state.execute(&plan, false, k, None) {
        Ok(out) => out,
        Err(e) => return error(stream, 500, &e),
    };
    state.charge(&tenant, calls);
    drop(admission);
    let Some(body) = state.with_session(id, |s| expand_doc(s, results, plan, calls)) else {
        return error(stream, 404, "session closed during expansion");
    };
    respond_json(stream, 200, &body)
}

fn handle_promote(
    stream: &mut TcpStream,
    req: &Request,
    state: &Arc<ServerState>,
) -> io::Result<()> {
    let default = DeviationPolicy::default();
    let policy = DeviationPolicy {
        threshold: req
            .param("threshold")
            .and_then(|v| v.parse().ok())
            .unwrap_or(default.threshold),
        min_samples: req
            .param("min-samples")
            .and_then(|v| v.parse().ok())
            .unwrap_or(default.min_samples),
    };
    let promoted = state.promote(&policy);
    let body = json!({
        "promoted": promoted,
        "stats_epoch": state.registry.stats_epoch(),
        "plan_cache_entries": state.plan_cache.len(),
    });
    respond_json(stream, 200, &body.to_string())
}

fn handle_shutdown(stream: &mut TcpStream, state: &Arc<ServerState>) -> io::Result<()> {
    state.begin_drain();
    let drained = state.drain(DRAIN_TIMEOUT);
    state.request_stop();
    let body = json!({"draining": true, "drained": drained});
    respond_json(stream, 200, &body.to_string())?;
    // Poke the accept loop so it observes the stop flag even with no
    // further client traffic.
    if let Ok(addr) = stream.local_addr() {
        let _ = TcpStream::connect(addr);
    }
    Ok(())
}

#[cfg(test)]
mod tests;
