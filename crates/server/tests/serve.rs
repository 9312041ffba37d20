//! End-to-end serving-layer tests over real TCP connections.
//!
//! Covers the PR's acceptance bar: a second session planning the same
//! query hits the shared plan cache and fetch cache; concurrent
//! sessions return byte-identical rows to a serial one-shot engine
//! run; a statistics promotion in one session's wake invalidates
//! cached plans for every other session; admission control and tenant
//! budgets refuse work deterministically; and the streamed frame
//! protocol plus the liquid-query continuations behave.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use seco_engine::{execute_plan, EngineConfig, ResultSet};
use seco_optimizer::{optimize, CostMetric};
use seco_plan::PlanNode;
use seco_query::{parse_query, Query};
use seco_server::{http, render_rows, Server, ServerConfig, ServerHandle, ServerState, Session};
use seco_services::ServiceRegistry;
use serde_json::{json, Value};

fn boot(registry: ServiceRegistry, config: ServerConfig) -> (ServerHandle, String) {
    let state = ServerState::new(registry, config);
    let server = Server::bind("127.0.0.1:0", state).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn accept loop");
    let addr = handle.addr.to_string();
    (handle, addr)
}

fn chain_server(config: ServerConfig) -> (ServerHandle, String, String, usize) {
    let (registry, query) = seco_bench::chain_scenario(3, 42);
    let text = query.to_string();
    let k = query.k;
    let (handle, addr) = boot(registry, config);
    (handle, addr, text, k)
}

fn stop(handle: ServerHandle, addr: &str) {
    let _ = http::call(addr, "POST", "/admin/shutdown", "");
    handle.join();
}

/// Tolerant scan for `"key":<integer>` in a compact JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))?;
    let digits: String = body[at + key.len() + 3..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn cached_flag(body: &str) -> Option<bool> {
    let at = body.find("\"cached\":")?;
    let rest = &body[at + "\"cached\":".len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[test]
fn second_identical_query_hits_plan_and_fetch_caches() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let target = format!("/query?k={k}");

    let (status, first) = http::call(&addr, "POST", &target, &text).expect("first query");
    assert_eq!(status, 200);
    assert_eq!(cached_flag(&first), Some(false), "cold plan: {first}");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let hits_before = json_u64(&stats, "cache_hits").expect("counter present");
    assert_eq!(json_u64(&stats, "plan_cache_entries"), Some(1));

    let (status, second) = http::call(&addr, "POST", &target, &text).expect("second query");
    assert_eq!(status, 200);
    assert_eq!(cached_flag(&second), Some(true), "warm plan: {second}");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let hits_after = json_u64(&stats, "cache_hits").expect("counter present");
    assert!(
        hits_after > hits_before,
        "second session re-reads cached chunks ({hits_before} -> {hits_after})"
    );

    stop(handle, &addr);
}

#[test]
fn concurrent_sessions_match_the_serial_oneshot_run() {
    // Ground truth: a fresh one-shot engine run, rendered through the
    // same row renderer the server uses.
    let (registry, query) = seco_bench::chain_scenario(3, 42);
    let best = optimize(&query, &registry, CostMetric::RequestCount).expect("plan");
    let out = execute_plan(
        &best.plan,
        &registry,
        EngineConfig::default().cache_shards(4),
    )
    .expect("one-shot run");
    let set = ResultSet::new(out.results, query.ranking.clone());
    let expected =
        serde_json::to_string(&render_rows(&query.ranking, &set.top_k(query.k))).expect("rows");
    assert!(expected.len() > 2, "scenario produces rows");

    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let target = format!("/query?k={k}");
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let text = text.clone();
            let target = target.clone();
            std::thread::spawn(move || http::call(&addr, "POST", &target, &text).expect("query"))
        })
        .collect();
    for worker in workers {
        let (status, body) = worker.join().expect("worker");
        assert_eq!(status, 200);
        assert!(
            body.contains(&expected),
            "concurrent session diverged from serial run:\n  want {expected}\n  got  {body}"
        );
    }
    stop(handle, &addr);
}

#[test]
fn promotion_rolls_the_epoch_and_invalidates_cached_plans() {
    // The misdeclared-hub registry: observed cardinality is 10x the
    // declaration, so a promotion has something to promote.
    let registry = seco_bench::adaptive_registry(7, 10.0);
    let text = format!("{} top 1", seco_bench::adaptive_query());
    let (handle, addr) = boot(registry, ServerConfig::default());

    let (_, first) = http::call(&addr, "POST", "/query?k=1", &text).expect("first");
    assert_eq!(cached_flag(&first), Some(false));
    let (_, second) = http::call(&addr, "POST", "/query?k=1", &text).expect("second");
    assert_eq!(cached_flag(&second), Some(true), "same epoch: cache hit");

    let (status, promo) = http::call(
        &addr,
        "POST",
        "/admin/promote?threshold=2&min-samples=1",
        "",
    )
    .expect("promote");
    assert_eq!(status, 200);
    assert!(
        promo.contains("Hub1"),
        "the misdeclared hub is promoted: {promo}"
    );
    assert!(json_u64(&promo, "stats_epoch").expect("epoch") >= 1);
    // No request can ask for the old epoch's plan again: it is gone the
    // moment the epoch moves, and counted.
    assert_eq!(json_u64(&promo, "plan_cache_entries"), Some(0), "{promo}");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    assert_eq!(json_u64(&stats, "plan_cache_evictions"), Some(1), "{stats}");
    assert_eq!(json_u64(&stats, "plan_cache_bytes"), Some(0), "{stats}");

    let (_, third) = http::call(&addr, "POST", "/query?k=1", &text).expect("third");
    assert_eq!(
        cached_flag(&third),
        Some(false),
        "epoch roll invalidated the cached plan for later sessions: {third}"
    );
    let (_, fourth) = http::call(&addr, "POST", "/query?k=1", &text).expect("fourth");
    assert_eq!(cached_flag(&fourth), Some(true), "new epoch re-cached");

    stop(handle, &addr);
}

#[test]
fn tenant_budgets_are_enforced_per_tenant() {
    let (handle, addr, text, k) = chain_server(ServerConfig {
        tenant_budget: 1,
        ..Default::default()
    });
    let (status, body) =
        http::call(&addr, "POST", &format!("/query?k={k}&tenant=alpha"), &text).expect("first");
    assert_eq!(status, 200);
    assert!(json_u64(&body, "calls").expect("calls counted") >= 1);

    let (status, body) =
        http::call(&addr, "POST", &format!("/query?k={k}&tenant=alpha"), &text).expect("second");
    assert_eq!(status, 429, "budget spent: {body}");
    assert!(body.contains("budget"));

    let (status, _) =
        http::call(&addr, "POST", &format!("/query?k={k}&tenant=beta"), &text).expect("beta");
    assert_eq!(status, 200, "other tenants unaffected");

    stop(handle, &addr);
}

#[test]
fn streaming_emits_plan_chunk_summary_frames_in_order() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let r = http::stream(
        &addr,
        "POST",
        &format!("/query?stream=1&k={k}&chunk=2"),
        &text,
    )
    .expect("streamed query");
    assert_eq!(r.status, 200);
    let plan_at = r.body.find("\"frame\":\"plan\"").expect("plan frame");
    let chunk_at = r.body.find("\"frame\":\"chunk\"").expect("chunk frame");
    let summary_at = r.body.find("\"frame\":\"summary\"").expect("summary frame");
    assert!(plan_at < chunk_at && chunk_at < summary_at, "frame order");
    assert!(r.time_to_first_chunk <= r.total);
    let delivered = json_u64(&r.body, "delivered").expect("summary counts");
    assert!(delivered > 0 && delivered as usize <= k);
    stop(handle, &addr);
}

#[test]
fn liquid_ops_continue_the_session_cursor() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let (status, body) = http::call(&addr, "POST", &format!("/query?k={k}"), &text).expect("open");
    assert_eq!(status, 200);
    let sid = json_u64(&body, "session").expect("session id");

    // `more` pages past the delivered top-k without repeating.
    let (status, more) =
        http::call(&addr, "POST", &format!("/session/{sid}/more?n=2"), "").expect("more");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&more, "delivered"), Some(k as u64 + 2));

    // `rerank` swaps weights (3-atom chain: 3 weights) and keeps the cursor.
    let (status, rerank) = http::call(
        &addr,
        "POST",
        &format!("/session/{sid}/rerank"),
        "0.0,0.0,1.0",
    )
    .expect("rerank");
    assert_eq!(status, 200, "{rerank}");
    assert_eq!(json_u64(&rerank, "delivered"), Some(k as u64 + 2));
    let (status, bad) =
        http::call(&addr, "POST", &format!("/session/{sid}/rerank"), "0.5,0.5").expect("bad arity");
    assert_eq!(status, 400, "{bad}");

    // `expand` deepens one branch against warm caches.
    let before = json_u64(&more, "remaining").expect("remaining") + k as u64 + 2;
    let (status, expand) = http::call(
        &addr,
        "POST",
        &format!("/session/{sid}/expand?atom=A3&extra=2"),
        "",
    )
    .expect("expand");
    assert_eq!(status, 200, "{expand}");
    let total = json_u64(&expand, "combinations").expect("combinations");
    assert!(total >= before, "expansion never shrinks the universe");

    // Close; further ops 404.
    let (status, _) = http::call(&addr, "DELETE", &format!("/session/{sid}"), "").expect("close");
    assert_eq!(status, 200);
    let (status, _) =
        http::call(&addr, "POST", &format!("/session/{sid}/more"), "").expect("after close");
    assert_eq!(status, 404);

    stop(handle, &addr);
}

#[test]
fn stats_expose_the_interner_growth_counters() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let _ = http::call(&addr, "POST", &format!("/query?k={k}"), &text).expect("query");
    let (_, stats) = http::call(&addr, "GET", "/stats", "").expect("stats");
    let symbols = json_u64(&stats, "interner_symbols").expect("symbol count");
    let bytes = json_u64(&stats, "interner_bytes").expect("byte count");
    assert!(symbols > 0 && bytes >= symbols, "{stats}");
    stop(handle, &addr);
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let (handle, addr, text, k) = chain_server(ServerConfig::default());
    let _ = http::call(&addr, "POST", &format!("/query?k={k}"), &text).expect("warm-up");
    let (status, body) = http::call(&addr, "POST", "/admin/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("\"drained\":true"), "{body}");
    handle.join();
    // The accept loop is gone: connecting now fails outright.
    assert!(TcpStream::connect(&addr).is_err(), "listener closed");
}

/// Sends raw request bytes and returns the status line of the answer.
fn raw_status(addr: &str, request: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(request.as_bytes()).expect("send");
    let mut answer = String::new();
    conn.read_to_string(&mut answer).expect("answer");
    answer.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn a_bad_content_length_or_an_oversized_head_is_refused_and_the_daemon_keeps_serving() {
    let (handle, addr, _, _) = chain_server(ServerConfig::default());
    let request =
        |length: &str| format!("POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
    // Refused from the header alone: no body follows, none is waited for
    // and none of the declared size is allocated.
    assert_eq!(
        raw_status(&addr, &request("99999999999")),
        "HTTP/1.1 413 Payload Too Large"
    );
    assert_eq!(
        raw_status(&addr, &request("banana")),
        "HTTP/1.1 400 Bad Request"
    );
    assert_eq!(
        raw_status(&addr, &request("-1")),
        "HTTP/1.1 400 Bad Request"
    );
    // A head that outgrows its 16 KiB is refused when the budget runs
    // out, wherever the excess sits — the line that never ends is not
    // read to its end first.
    let junk = "a".repeat(32 << 10);
    for oversized in [
        format!("GET /{junk} HTTP/1.1\r\n\r\n"),
        format!("GET /healthz HTTP/1.1\r\nX-Junk: {junk}\r\n\r\n"),
        format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            "X-N: v\r\n".repeat(4 << 10)
        ),
    ] {
        assert_eq!(
            raw_status(&addr, &oversized),
            "HTTP/1.1 431 Request Header Fields Too Large"
        );
    }
    let (status, body) = http::call(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));
    stop(handle, &addr);
}

/// The tree-built documents of one conversation, produced in process the
/// way the handlers produced them before they wrote rows directly:
/// `render_rows` into `json!` into `to_string`. `state` is a daemon's
/// state that no client talks to.
struct Replay {
    state: Arc<ServerState>,
    query: Query,
}

impl Replay {
    fn new(registry: ServiceRegistry, query: &Query) -> Self {
        Replay {
            state: ServerState::new(registry, ServerConfig::default()),
            query: query.clone(),
        }
    }

    fn plan_frame(&self) -> (seco_optimizer::Optimized, Value) {
        let (best, cached) = self.state.plan(&self.query).expect("plan");
        let frame = json!({
            "frame": "plan",
            "cached": cached,
            "cost": best.cost,
            "plan": best.plan.canonical_key(),
        });
        (best, frame)
    }

    fn open(&self, best: &seco_optimizer::Optimized) -> (u64, usize, Vec<String>, u64) {
        let (results, degraded, calls) = self
            .state
            .execute(&best.plan, false, self.query.k, None)
            .expect("run");
        let total = results.len();
        let set = ResultSet::new(results, self.query.ranking.clone()).with_degraded(degraded);
        let degraded = set.degraded.clone();
        let (query, plan) = (self.query.clone(), best.plan.clone());
        let id = self
            .state
            .open_session(|id| Session::new(id, "default".into(), query, plan, set))
            .expect("room");
        (id, total, degraded, calls)
    }

    /// `POST /query`, fixed length.
    fn query(&self) -> (u64, String) {
        let (best, plan_frame) = self.plan_frame();
        let (id, total, degraded, calls) = self.open(&best);
        let rows = self.state.with_session(id, |s| {
            render_rows(&self.query.ranking, &s.next(self.query.k))
        });
        let body = json!({
            "plan": plan_frame,
            "session": id,
            "rows": rows.expect("open"),
            "combinations": total,
            "degraded": degraded,
            "calls": calls,
        });
        (id, body.to_string())
    }

    /// `POST /query?stream=1&chunk=C`: the frames, one per line.
    fn stream(&self, chunk: usize) -> String {
        let (best, plan_frame) = self.plan_frame();
        let (id, total, _, calls) = self.open(&best);
        let mut frames = vec![plan_frame];
        let (k, mut delivered) = (self.query.k, 0);
        while delivered < k {
            let n = chunk.min(k - delivered);
            let rows = self.state.with_session(id, |s| s.next(n)).expect("open");
            if rows.is_empty() {
                break;
            }
            delivered += rows.len();
            frames.push(json!({"frame": "chunk", "rows": render_rows(&self.query.ranking, &rows)}));
        }
        frames.push(json!({
            "frame": "summary",
            "session": id,
            "combinations": total,
            "delivered": delivered,
            "calls": calls,
        }));
        frames.iter().map(|f| format!("{f}\n")).collect()
    }

    fn more(&self, id: u64, n: usize) -> String {
        let body = self.state.with_session(id, |s| {
            let rows = s.next(n);
            json!({
                "session": id,
                "tenant": s.tenant,
                "rows": render_rows(&s.set.ranking, &rows),
                "delivered": s.delivered(),
                "remaining": s.len() - s.delivered(),
            })
        });
        body.expect("open").to_string()
    }

    fn rerank(&self, id: u64, weights: Vec<f64>) -> String {
        let body = self.state.with_session(id, |s| {
            s.rerank(weights).expect("arity matches");
            json!({
                "session": id,
                "rows": render_rows(&s.set.ranking, &s.head(s.query.k)),
                "delivered": s.delivered(),
            })
        });
        body.expect("open").to_string()
    }

    fn expand(&self, id: u64, atom: &str, extra: u32) -> String {
        let (k, mut plan) = self
            .state
            .with_session(id, |s| (s.query.k, s.plan.clone()))
            .expect("open");
        let node = plan.service_node_of(atom).expect("atom has a service node");
        match plan.node_mut(node) {
            Ok(PlanNode::Service(svc)) => svc.fetches += extra,
            _ => unreachable!("service_node_of names a service node"),
        }
        let (results, _, calls) = self.state.execute(&plan, false, k, None).expect("run");
        let body = self.state.with_session(id, |s| {
            let added = s.absorb(results);
            s.plan = plan;
            json!({
                "session": id,
                "added": added,
                "combinations": s.len(),
                "calls": calls,
                "rows": render_rows(&s.set.ranking, &s.head(s.query.k)),
            })
        });
        body.expect("open").to_string()
    }
}

/// The `"rows"` objects of every `chunk` frame in a streamed body.
fn streamed_rows(body: &str) -> Vec<String> {
    let mut rows = Vec::new();
    for frame in body
        .lines()
        .filter(|f| f.starts_with(r#"{"frame":"chunk""#))
    {
        let inner = frame
            .strip_prefix(r#"{"frame":"chunk","rows":["#)
            .and_then(|f| f.strip_suffix("]}"))
            .expect("a chunk frame is its rows and nothing else");
        rows.extend(
            inner
                .split_inclusive("\"}")
                .map(|r| r.trim_start_matches(',').to_owned()),
        );
    }
    rows
}

/// Every body the daemon sends with rows in it is, byte for byte, the
/// document the tree path builds for the same conversation.
#[test]
fn live_bodies_equal_the_tree_built_documents() {
    for scenario in [seco_bench::chain_scenario, seco_bench::star_scenario] {
        let (registry, query) = scenario(3, 42);
        let (text, k) = (query.to_string(), query.k);
        // What the handler works on: the parsed text, `k` from the URL.
        let mut query = parse_query(&text).expect("round trip");
        query.k = k;
        let replay = Replay::new(scenario(3, 42).0, &query);
        let (handle, addr) = boot(registry, ServerConfig::default());
        let post = |target: String, body: &str| {
            let (status, answer) = http::call(&addr, "POST", &target, body).expect("call");
            assert_eq!(status, 200, "{target}: {answer}");
            answer
        };

        let (id, expect) = replay.query();
        assert_eq!(post(format!("/query?k={k}"), &text), expect, "query");
        // A page, a page larger than the remainder, an empty page.
        let remaining = json_u64(&expect, "combinations").expect("total") as usize - k;
        assert!(remaining > 3, "scenario leaves rows to page ({remaining})");
        for n in [3, remaining + 4, 2] {
            let live = post(format!("/session/{id}/more?n={n}"), "");
            assert_eq!(live, replay.more(id, n), "more?n={n}");
        }
        assert_eq!(
            post(format!("/session/{id}/rerank"), "0.0, 0.25,1.0"),
            replay.rerank(id, vec![0.0, 0.25, 1.0]),
            "rerank"
        );
        let atom = query.atoms.last().expect("atoms").alias.clone();
        assert_eq!(
            post(format!("/session/{id}/expand?atom={atom}&extra=2"), ""),
            replay.expand(id, &atom, 2),
            "expand"
        );
        assert_eq!(
            post(format!("/query?stream=1&k={k}&chunk=4"), &text),
            replay.stream(4),
            "stream=1"
        );

        // `mode=par` frames batches in arrival order, which is not
        // repeatable: the rows of all chunk frames, as a multiset.
        let live = post(format!("/query?stream=1&mode=par&k={k}"), &text);
        let mut live_rows = streamed_rows(&live);
        let (best, _) = replay.plan_frame();
        let (results, _, _) = replay
            .state
            .execute(&best.plan, true, k, None)
            .expect("run");
        let mut expect_rows: Vec<String> = render_rows(&query.ranking, &results)
            .iter()
            .map(Value::to_string)
            .collect();
        assert!(!expect_rows.is_empty());
        live_rows.sort();
        expect_rows.sort();
        assert_eq!(live_rows, expect_rows, "mode=par rows");

        replay.state.shared.shutdown();
        stop(handle, &addr);
    }
}
