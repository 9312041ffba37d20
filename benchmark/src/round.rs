//! One measured round: set-up, then a timed closed-loop window.
//!
//! A round runs in a fresh process, so the grow-only interner, the plan
//! cache and the fetch caches never leak between rounds or workloads,
//! and `setup_s` / `rss_peak_mb` are per-round facts. End-to-end
//! numbers are taken with tracing off; responses are digested on the
//! clock (a few hashes) and checked against the oracle after it.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use seco_model::Symbol;

use crate::client::Client;
use crate::daemon::{each_client, run_op, warm_up, Daemon, StepSample};
use crate::host::{process_cpu, rss_peak_mb, thread_cpu};
use crate::oracle::Oracle;
use crate::stats::percentile;
use crate::workload::{Op, Spec, Step};

/// Named values a child reports to its parent.
pub type Values = BTreeMap<String, f64>;

/// Latency of one op from its step samples: the sum over its timed
/// requests (everything but the closing `DELETE`).
pub fn op_latency(steps: &[Step], samples: &[StepSample]) -> Duration {
    steps
        .iter()
        .zip(samples)
        .filter(|(step, _)| !matches!(step, Step::Delete))
        .map(|(_, s)| s.total)
        .sum()
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Verdicts and timings of checked ops. Ops are regenerated from the
/// seed rather than kept, so the generator holds no query text per op.
#[derive(Default)]
pub struct Checked {
    /// Ops checked.
    pub attempted: usize,
    /// Ops with a wrong, refused or failed step.
    pub failed: usize,
    /// Latency of each correct op, ms.
    pub latency_ms: Vec<f64>,
    /// Time to first rows of each correct op, ms.
    pub first_rows_ms: Vec<f64>,
}

impl Checked {
    /// Checks `steps` (the samples of `ops`, concatenated in order)
    /// against the oracle and files each op under correct or failed. A
    /// failed op contributes no latency sample: it met no limit.
    pub fn add(
        &mut self,
        oracle: &mut Oracle,
        ops: impl Iterator<Item = Op>,
        steps: &[StepSample],
    ) {
        let mut at = 0;
        for op in ops {
            let mine = &steps[at..at + op.steps.len()];
            at += op.steps.len();
            self.attempted += 1;
            let expects = oracle.expect(&op);
            if expects.iter().zip(mine).all(|(e, s)| e.accepts(&s.seen)) {
                self.latency_ms.push(ms(op_latency(&op.steps, mine)));
                self.first_rows_ms.push(ms(mine[0].first_rows));
            } else {
                self.failed += 1;
            }
        }
    }
}

/// What one client did during a window.
pub struct ClientRun {
    /// One sample per step, ops concatenated in order.
    pub steps: Vec<StepSample>,
    /// Ops completed.
    pub ops: usize,
    /// CPU time the client thread itself consumed.
    pub cpu: Duration,
    finished: Instant,
}

/// Drives the daemon from every closed-loop client for
/// `seconds`; client `c` runs ops `first..` of stream `c`. Returns each
/// client's run and the window's length (start → last client done).
pub fn drive(
    spec: &'static Spec,
    seed: u64,
    addr: SocketAddr,
    seconds: f64,
    first: u64,
) -> (Vec<ClientRun>, Duration) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs = each_client(|c| {
        let cpu_before = thread_cpu();
        let mut client = Client::new(addr);
        let mut steps = Vec::new();
        let mut ops = 0usize;
        while Instant::now() < deadline {
            run_op(
                &mut client,
                &spec.op(seed, c, first + ops as u64),
                &mut steps,
            );
            ops += 1;
        }
        ClientRun {
            steps,
            ops,
            cpu: thread_cpu() - cpu_before,
            finished: Instant::now(),
        }
    });
    let window = runs
        .iter()
        .map(|r| r.finished)
        .max()
        .expect("at least one client")
        .duration_since(start);
    (runs, window)
}

/// Sets the daemon up from `seed`, then measures `seconds` of
/// closed-loop traffic from every client.
pub fn measure(spec: &'static Spec, seed: u64, seconds: f64, born: Instant) -> Values {
    let daemon = Daemon::boot(spec, seed);
    let addr = daemon.addr();
    let warm = warm_up(spec, seed, addr);
    let setup = born.elapsed();

    let stats_before = daemon.state().registry.total_stats();
    let cpu_before = process_cpu();
    let (runs, window) = drive(spec, seed, addr, seconds, 0);
    let cpu_all = process_cpu() - cpu_before;
    let stats = daemon.state().registry.total_stats();
    let rss = rss_peak_mb();
    let interner = (Symbol::table_len(), Symbol::table_bytes());
    let plan_entries = daemon.state().plan_cache.len();
    daemon.stop();

    // Off the clock: check every response, warm-up included.
    let mut oracle = Oracle::new(spec, seed);
    let mut checked = Checked::default();
    for (c, steps) in warm.iter().enumerate() {
        checked.add(
            &mut oracle,
            spec.warmup_ops(seed, c as u64).into_iter(),
            steps,
        );
    }
    // Warm-up ops are checked but are not latency samples.
    checked.latency_ms.clear();
    checked.first_rows_ms.clear();
    for (c, run) in runs.iter().enumerate() {
        let ops = (0..run.ops as u64).map(|i| spec.op(seed, c as u64, i));
        checked.add(&mut oracle, ops, &run.steps);
    }
    let Checked {
        attempted,
        failed,
        latency_ms: latency,
        first_rows_ms: first_rows,
    } = checked;

    let ops: usize = runs.iter().map(|r| r.ops).sum();
    let per_op = |x: f64| x / ops.max(1) as f64;
    let cpu_clients: Duration = runs.iter().map(|r| r.cpu).sum();
    let calls = (stats.calls - stats_before.calls) as f64;
    let hits = (stats.cache_hits - stats_before.cache_hits) as f64;
    let coalesced = (stats.coalesced - stats_before.coalesced) as f64;
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);

    let mut out = Values::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_owned(), value);
    };
    put("setup_s", setup.as_secs_f64());
    put("ops_per_s", ops as f64 / window.as_secs_f64());
    put("latency_p50_ms", pct(&latency, 0.50));
    put("latency_p95_ms", pct(&latency, 0.95));
    put("latency_p99_ms", pct(&latency, 0.99));
    put("first_rows_p50_ms", pct(&first_rows, 0.50));
    put(
        "cpu_ms_per_op",
        per_op(ms(cpu_all.saturating_sub(cpu_clients))),
    );
    put("generator_cpu_ms_per_op", per_op(ms(cpu_clients)));
    put("rss_peak_mb", rss);
    put("service_calls_per_op", per_op(calls));
    put(
        "services.hit_ratio",
        hits / (hits + calls + coalesced).max(1.0),
    );
    put("model.interner_symbols", interner.0 as f64);
    put("model.interner_bytes", interner.1 as f64);
    put("optimizer.plan_cache_entries", plan_entries as f64);
    put("measured_ops", ops as f64);
    put("window_s", window.as_secs_f64());
    put("attempted", attempted as f64);
    put("failed", failed as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use crate::workload::spec;

    #[test]
    fn a_short_round_verifies_and_reports_every_end_to_end_metric() {
        // One one-shot workload and the nine-request liquid script.
        for name in ["warm_chain", "liquid_star"] {
            let values = measure(spec(name).expect("workload exists"), 5, 0.3, Instant::now());
            assert!(values["measured_ops"] >= 1.0, "{name}");
            assert!(
                values["attempted"] > values["measured_ops"],
                "{name}: warm-up is checked too"
            );
            assert_eq!(values["failed"], 0.0, "{name}");
            for m in &END_TO_END {
                assert!(values[m.name] > 0.0, "{name}: {} is never 0", m.name);
            }
        }
    }
}
