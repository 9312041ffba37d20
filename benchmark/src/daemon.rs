//! Booting the real daemon in-process and driving one op against it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use seco_server::{Server, ServerConfig, ServerHandle, ServerState};

use crate::client::{hash_bytes, json_raw_str, json_u64, Client, RowsDigest};
use crate::oracle::Seen;
use crate::workload::{build_registry, Op, Spec, Step, CLIENTS};

/// A running daemon under shipped defaults (no engine flag overridden).
pub struct Daemon {
    handle: ServerHandle,
}

impl Daemon {
    /// Generates the workload's registry from `seed`, builds the daemon
    /// state with `ServerConfig::default()` and serves it on an
    /// ephemeral loopback port.
    pub fn boot(spec: &Spec, seed: u64) -> Daemon {
        let state = ServerState::new(build_registry(spec, seed), ServerConfig::default());
        let handle = Server::bind("127.0.0.1:0", state)
            .and_then(Server::spawn)
            .expect("loopback bind and accept loop");
        Daemon { handle }
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// The daemon's state, for counter snapshots and in-process replay.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.handle.state
    }

    /// Drains the daemon, stops its pool and joins the accept loop.
    pub fn stop(self) {
        let _ = Client::new(self.handle.addr).request("POST", "/admin/shutdown", "");
        self.handle.join();
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSample {
    /// Content of the response, for the oracle.
    pub seen: Seen,
    /// Connect → close.
    pub total: Duration,
    /// Connect → first result row.
    pub first_rows: Duration,
    /// Response bytes on the wire.
    pub wire_bytes: usize,
}

/// Runs `op` over the socket, appending one sample per step.
pub fn run_op(client: &mut Client, op: &Op, out: &mut Vec<StepSample>) {
    let mut session: Option<u64> = None;
    for step in &op.steps {
        let reply = match (step, session) {
            (Step::Query { params, text }, _) => {
                client.request("POST", &format!("/query?{params}"), text)
            }
            (Step::More(n), Some(id)) => {
                client.request("POST", &format!("/session/{id}/more?n={n}"), "")
            }
            (Step::Rerank(weights), Some(id)) => {
                client.request("POST", &format!("/session/{id}/rerank"), weights)
            }
            (Step::Expand(atom, extra), Some(id)) => client.request(
                "POST",
                &format!("/session/{id}/expand?atom={atom}&extra={extra}"),
                "",
            ),
            (Step::Delete, Some(id)) => client.request("DELETE", &format!("/session/{id}"), ""),
            // The query failed to open a session: the rest of the
            // script cannot run and counts as failed.
            (_, None) => {
                out.push(StepSample::default());
                continue;
            }
        };
        let Ok(reply) = reply else {
            out.push(StepSample::default());
            continue;
        };
        let body = client.body();
        if matches!(step, Step::Query { .. }) {
            session = json_u64(body, "session");
        }
        out.push(StepSample {
            seen: Seen {
                ok: reply.status == 200,
                rows: RowsDigest::of_body(body),
                plan: json_raw_str(body, "plan").map_or(0, hash_bytes),
                combinations: json_u64(body, "combinations").unwrap_or(0),
            },
            total: reply.total,
            first_rows: reply.first_rows,
            wire_bytes: reply.wire_bytes,
        });
    }
}

/// Runs `work(c)` for every client `c` on its own thread and returns
/// the results in client order.
pub fn each_client<T: Send>(work: impl Fn(u64) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let work = &work;
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|c| scope.spawn(move || work(c)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs every client's warm-up ops concurrently (as the measured
/// clients will run); returns each client's samples.
pub fn warm_up(spec: &'static Spec, seed: u64, addr: SocketAddr) -> Vec<Vec<StepSample>> {
    each_client(|c| {
        let mut client = Client::new(addr);
        let mut out = Vec::new();
        for op in &spec.warmup_ops(seed, c) {
            run_op(&mut client, op, &mut out);
        }
        out
    })
}
