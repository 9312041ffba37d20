//! `seco` — command-line front end to the Search Computing engine.
//!
//! ```text
//! seco services  [--domain entertainment|travel] [--seed N]
//! seco explain   [--domain D] [--metric M] [--seed N] <query…>
//! seco optimize  [--domain D] [--metric M] [--seed N] <query…>
//! seco run       [--domain D] [--metric M] [--seed N]
//!                [--fault-profile none|flaky|outage] [--deadline-ms N]
//!                [--cache-shards N] [--rank-join]
//!                [--adaptive] [--adaptive-threshold N] <query…>
//! seco stats     [--domain D] [--metric M] [--seed N] [--adaptive] <query…>
//! seco oracle    [--domain D] [--seed N] <query…>
//! seco serve     [--domain D] [--metric M] [--seed N] [--addr HOST:PORT]
//!                [--max-sessions N] [--max-concurrent N] [--tenant-budget N]
//!                [engine flags as for `run`]
//! ```
//!
//! Any other argument that starts with `--` is an error that names it;
//! the rest is the query text.
//!
//! `optimize` (and `explain`, its superset) runs the branch-and-bound
//! and prints the search, annotation, and plan-cache counters after the
//! cost line. The `search:` line says whether phase 2 filled its
//! topology cap (`truncated`), in which case the walk may have stopped
//! before it met the optimum.
//!
//! `--cache-shards N` routes every service call through a sharded,
//! request-coalescing response cache and reports call / hit / coalesced
//! counters after the answers.
//!
//! Tile joins always probe a sorted per-chunk key index over equi-join
//! keys instead of scanning every candidate pair, and pipe stages,
//! tiles and selections judge their candidates with batch kernels over
//! typed columns where they can; answers are byte-identical to the
//! nested loop. A `join:` and a `columnar:` counter line are printed
//! after the answers.
//!
//! `--rank-join` turns parallel joins into true top-k rank joins: the
//! inputs are score-sorted and chunk pulls stop as soon as the
//! threshold bound proves the buffered top `k` final (the query's
//! `top k` supplies the target). Without it, every left-deep chain of
//! parallel joins runs as one n-ary pass that skips the intermediate
//! composites; answers stay byte-identical to the binary cascade. A
//! `rank:` counter line is printed after the answers.
//!
//! Every flag default is taken from `EngineConfig::default()`, and each
//! engine flag maps 1:1 to an `EngineConfig` builder method.
//!
//! `--adaptive` turns on mid-flight re-optimization: after every fresh
//! service or join stage, the engine compares the observed output
//! cardinality against the plan-time estimate and, past the deviation
//! threshold (`--adaptive-threshold`, default from
//! `EngineConfig::default()`), promotes the observed statistics into
//! the registry and re-plans the unexecuted suffix. Completed stages
//! replay from a memo, so each call is still charged exactly once. The
//! run reports its replan and epoch-invalidation counts after the
//! answers. With the flag off, execution is byte-identical to the
//! non-adaptive engine.
//!
//! `stats` runs the query like `run` and then dumps, per service, the
//! declared (registration-time) statistics next to what the
//! accumulators actually observed — cardinality, latency EWMA, chunk
//! fetches, promotion state — plus observed join selectivities per
//! connection pattern.
//!
//! `serve` starts the long-running daemon: every query session shares
//! one registry, plan cache, fetch cache, and statistics accumulator,
//! so later sessions plan and fetch against state earlier sessions
//! warmed. Sessions are liquid — `POST /session/<id>/more`, `/rerank`,
//! and `/expand` continue a kept cursor — and `POST /admin/shutdown`
//! drains in-flight work before the process exits. `--addr` picks the
//! listen address (default `127.0.0.1:7361`; port 0 lets the OS pick),
//! and the admission knobs map 1:1 onto `ServerConfig`.
//!
//! `--fault-profile` makes every service inject deterministic faults
//! (seeded from `--seed`, so two identical invocations produce
//! byte-identical output) and switches the executor to graceful
//! degradation: failed branches contribute partial results and are
//! listed after the answers instead of aborting the run.
//! `--deadline-ms` bounds each service call; both flags route calls
//! through the resilient `ServiceClient` (retry with backoff and a
//! per-service circuit breaker) and report its counters.
//!
//! The query is given in the chapter's syntax, e.g.:
//!
//! ```text
//! seco run --domain entertainment 'Select Movie1 As M, Theatre1 as T, Restaurant1 as R
//!   where Shows(M,T) and DinnerPlace(T,R) and M.Genres.Genre="comedy" and
//!   M.Openings.Country="country-0" and M.Openings.Date>2009-03-01 and
//!   M.Language="en" and T.UAddress="via Golgi 42" and T.UCity="Milano" and
//!   T.UCountry="country-0" and T.TCountry="country-0" and
//!   R.Category.Name="pizzeria" ranking (0.3, 0.5, 0.2) top 10'
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use search_computing::optimizer::PlanCache;
use search_computing::plan::display;
use search_computing::prelude::*;
use search_computing::query::feasibility::analyze;
use search_computing::services::domains::{entertainment, travel};

struct Args {
    command: String,
    domain: String,
    metric: CostMetric,
    seed: u64,
    fault_profile: String,
    deadline_ms: Option<f64>,
    cache_shards: usize,
    rank_join: bool,
    adaptive: bool,
    adaptive_threshold: f64,
    addr: String,
    max_sessions: usize,
    max_concurrent: usize,
    tenant_budget: u64,
    query: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    // Every flag default comes from the engine's own defaults, so the
    // CLI can never drift from `EngineConfig::default()`.
    let defaults = EngineConfig::default();
    let mut domain = "entertainment".to_owned();
    let mut metric = CostMetric::RequestCount;
    let mut seed = 42u64;
    let mut fault_profile = "none".to_owned();
    let mut deadline_ms = None;
    let mut cache_shards = defaults.fetch.cache_shards;
    let mut rank_join = defaults.rank_join;
    let mut adaptive = defaults.adaptive;
    let mut adaptive_threshold = defaults.adaptive_threshold;
    // Serving defaults come from `ServerConfig::default()` so the CLI
    // cannot drift from the server crate's own admission defaults.
    let server_defaults = search_computing::server::ServerConfig::default();
    let mut addr = "127.0.0.1:7361".to_owned();
    let mut max_sessions = server_defaults.max_sessions;
    let mut max_concurrent = server_defaults.max_concurrent;
    let mut tenant_budget = server_defaults.tenant_budget;
    let mut query_parts: Vec<String> = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--domain" => domain = argv.next().ok_or("--domain needs a value")?,
            "--fault-profile" => {
                fault_profile = argv.next().ok_or("--fault-profile needs a value")?;
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    argv.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|e| format!("bad deadline: {e}"))?,
                );
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--rank-join" => rank_join = true,
            "--adaptive" => adaptive = true,
            "--adaptive-threshold" => {
                adaptive_threshold = argv
                    .next()
                    .ok_or("--adaptive-threshold needs a value")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                if adaptive_threshold < 1.0 {
                    return Err("--adaptive-threshold must be at least 1.0".into());
                }
            }
            "--cache-shards" => {
                cache_shards = argv
                    .next()
                    .ok_or("--cache-shards needs a value")?
                    .parse()
                    .map_err(|e| format!("bad shard count: {e}"))?;
            }
            "--addr" => addr = argv.next().ok_or("--addr needs a value")?,
            "--max-sessions" => {
                max_sessions = argv
                    .next()
                    .ok_or("--max-sessions needs a value")?
                    .parse()
                    .map_err(|e| format!("bad session cap: {e}"))?;
            }
            "--max-concurrent" => {
                max_concurrent = argv
                    .next()
                    .ok_or("--max-concurrent needs a value")?
                    .parse()
                    .map_err(|e| format!("bad concurrency cap: {e}"))?;
            }
            "--tenant-budget" => {
                tenant_budget = argv
                    .next()
                    .ok_or("--tenant-budget needs a value")?
                    .parse()
                    .map_err(|e| format!("bad budget: {e}"))?;
            }
            "--metric" => {
                let m = argv.next().ok_or("--metric needs a value")?;
                metric = match m.as_str() {
                    "execution-time" | "time" => CostMetric::ExecutionTime,
                    "sum" => CostMetric::Sum,
                    "request-count" | "calls" => CostMetric::RequestCount,
                    "bottleneck" => CostMetric::Bottleneck,
                    "time-to-screen" | "tts" => CostMetric::TimeToScreen,
                    other => return Err(format!("unknown metric `{other}`")),
                };
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()));
            }
            text => query_parts.push(text.to_owned()),
        }
    }
    Ok(Args {
        command,
        domain,
        metric,
        seed,
        fault_profile,
        deadline_ms,
        cache_shards,
        rank_join,
        adaptive,
        adaptive_threshold,
        addr,
        max_sessions,
        max_concurrent,
        tenant_budget,
        query: query_parts.join(" "),
    })
}

fn usage() -> String {
    "usage: seco <services|explain|optimize|run|stats|oracle|serve> \
     [--domain entertainment|travel] \
     [--metric execution-time|sum|request-count|bottleneck|time-to-screen] \
     [--seed N] \
     [--fault-profile none|flaky|outage] \
     [--deadline-ms N] [--cache-shards N] [--rank-join] \
     [--adaptive] [--adaptive-threshold N] \
     [--addr HOST:PORT] [--max-sessions N] [--max-concurrent N] \
     [--tenant-budget N] <query>"
        .to_owned()
}

fn build_registry(
    domain: &str,
    seed: u64,
    faults: FaultProfile,
) -> Result<ServiceRegistry, String> {
    match domain {
        "entertainment" => {
            entertainment::build_registry_with_faults(seed, faults).map_err(|e| e.to_string())
        }
        "travel" => travel::build_registry_with_faults(seed, faults).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown domain `{other}` (use entertainment or travel)"
        )),
    }
}

fn cmd_services(registry: &ServiceRegistry) {
    println!("service interfaces:");
    for name in registry.service_names() {
        if let Ok(iface) = registry.interface(name) {
            println!("  {iface}");
        }
    }
    println!("\nconnection patterns:");
    for name in registry.pattern_names() {
        if let Ok(p) = registry.pattern(name) {
            println!("  {p}");
        }
    }
}

fn cmd_explain(
    registry: &ServiceRegistry,
    metric: CostMetric,
    show_dot: bool,
    query_src: &str,
) -> Result<(), String> {
    let query = parse_query(query_src).map_err(|e| e.to_string())?;
    println!("query: {query}\n");
    let report = analyze(&query, registry).map_err(|e| e.to_string())?;
    println!(
        "feasible; invocation order {:?}, pipe edges {:?}\n",
        report.order, report.pipe_edges
    );
    let best = Optimizer::new(registry, metric)
        .optimize(&query)
        .map_err(|e| e.to_string())?;
    let stats = &best.stats;
    println!(
        "optimized under {metric}: cost {:.1}; explored {} topologies ({} pruned)",
        best.cost, stats.topologies, stats.pruned
    );
    println!(
        "search: {} assignments, {} instantiated, {} bound updates, truncated {}",
        stats.assignments, stats.instantiated, stats.bound_updates, stats.truncated
    );
    println!(
        "annotation: {} full, {} delta",
        stats.annotate_full, stats.annotate_delta
    );
    println!(
        "plan cache: {} hits, {} misses, {} inserts",
        stats.cache_hits, stats.cache_misses, stats.cache_inserts
    );
    println!(
        "adaptivity: {} epoch invalidations, {} replans\n",
        stats.epoch_invalidations, stats.replans
    );
    println!(
        "{}",
        display::ascii(&best.plan, Some(&best.annotated)).map_err(|e| e.to_string())?
    );
    if show_dot {
        println!(
            "DOT:\n{}",
            display::to_dot(&best.plan).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_run(registry: &ServiceRegistry, args: &Args, opts: EngineConfig) -> Result<(), String> {
    let query = parse_query(&args.query).map_err(|e| e.to_string())?;
    let mut opts = opts;
    if opts.rank_join && opts.join_k == 0 {
        // The rank join needs a top-k target; the query's `top k`
        // clause is the natural one.
        opts = opts.join_k(query.k);
    }
    let best = optimize(&query, registry, args.metric).map_err(|e| e.to_string())?;
    registry.reset_stats();
    let shared = SharedState::new();
    let out =
        execute_plan_shared(&best.plan, registry, opts, &shared).map_err(|e| e.to_string())?;
    println!(
        "{} request-responses, {:.0} virtual ms critical path",
        out.total_calls, out.critical_ms
    );
    let join_stats = out.join_stats;
    let set = ResultSet::new(out.results, query.ranking.clone()).with_degraded(out.degraded);
    println!("{} combinations; top {}:", set.len(), query.k);
    for (i, combo) in set.top_k(query.k).iter().enumerate() {
        println!(
            "  #{:<3} score={:.3}  {combo}",
            i + 1,
            query.ranking.score(combo)
        );
    }
    if opts.client.is_some() || opts.failure_mode == FailureMode::Degrade {
        if set.is_degraded() {
            println!("degraded services: {}", set.degraded.join(", "));
        } else {
            println!("degraded services: none");
        }
        let stats = registry.total_stats();
        println!(
            "resilience: {} retries, {} timeouts, {} breaker trips, {} short-circuits",
            stats.retries, stats.timeouts, stats.breaker_trips, stats.short_circuits
        );
    }
    if opts.fetch.enabled() {
        let stats = registry.total_stats();
        println!(
            "fetch: {} underlying calls, {} cache hits, {} coalesced waits",
            stats.calls, stats.cache_hits, stats.coalesced
        );
    }
    println!(
        "join: {} index builds, {} probes, {} pairs skipped, {} tiles pruned, {} predicate evals",
        join_stats.index_builds,
        join_stats.probes,
        join_stats.pairs_skipped,
        join_stats.tiles_pruned,
        join_stats.predicate_evals
    );
    println!(
        "columnar: {} columns scanned, {} batch evals, {} rows materialized",
        join_stats.columns_scanned, join_stats.batch_evals, join_stats.rows_materialized
    );
    println!(
        "rank: {} chunks fetched, {} chunks saved, {} bound checks, \
         {} intermediates elided, time-to-kth {} us",
        join_stats.chunks_fetched,
        join_stats.chunks_saved,
        join_stats.bound_checks,
        join_stats.intermediates_elided,
        join_stats.time_to_kth_us
    );
    if opts.adaptive {
        println!(
            "adaptive: {} replan(s), {} epoch invalidation(s), final plan {}",
            out.replans,
            registry.epoch_invalidations(),
            match &out.replanned {
                Some(plan) => format!("switched to {}", plan.canonical_key()),
                None => "unchanged".to_owned(),
            }
        );
    }
    Ok(())
}

fn cmd_stats(registry: &ServiceRegistry, args: &Args, opts: EngineConfig) -> Result<(), String> {
    let query = parse_query(&args.query).map_err(|e| e.to_string())?;
    // Plan through a plan cache and run against daemon-grade state, so
    // the retention line below describes what a `seco serve` daemon
    // would hold for this query.
    let plan_cache = Arc::new(PlanCache::new());
    let mut optimizer = Optimizer::new(registry, args.metric);
    optimizer.cache = Some(plan_cache.clone());
    let best = optimizer.optimize(&query).map_err(|e| e.to_string())?;
    registry.reset_stats();
    let shared = SharedState::new();
    let out =
        execute_plan_shared(&best.plan, registry, opts, &shared).map_err(|e| e.to_string())?;
    println!(
        "{} combinations, {} request-responses, {:.0} virtual ms critical path\n",
        out.results.len(),
        out.total_calls,
        out.critical_ms
    );
    println!("declared vs. observed service statistics:");
    for (name, drift) in registry.service_drift() {
        let observed = match drift.observed_cardinality {
            Some(card) => format!(
                "{:.1}{} over {} binding(s)",
                card.value,
                if card.exact { "" } else { "+ (lower bound)" },
                card.samples
            ),
            None => "-".to_owned(),
        };
        let latency = match drift.observed_latency_ms {
            Some(ms) => format!("{ms:.1}"),
            None => "-".to_owned(),
        };
        println!(
            "  {name}: cardinality declared {:.1} observed {observed}; \
             latency ms declared {:.1} observed {latency}; {} fetch(es){}",
            drift.declared_cardinality,
            drift.declared_latency_ms,
            drift.fetches,
            if drift.promoted { "; promoted" } else { "" }
        );
    }
    println!("\ndeclared vs. observed join selectivities:");
    let observations = registry.join_observations();
    if observations.is_empty() {
        println!("  (no parallel join observed)");
    }
    for (pattern, obs) in observations {
        let declared = registry
            .pattern(&pattern)
            .map(|p| format!("{:.3}", p.selectivity))
            .unwrap_or_else(|_| "-".to_owned());
        let observed = obs
            .selectivity()
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "  {pattern}: declared {declared} observed {observed} ({} / {} pairs)",
            obs.matches, obs.pairs
        );
    }
    if opts.adaptive {
        println!(
            "\nadaptive: {} replan(s), {} epoch invalidation(s)",
            out.replans,
            registry.epoch_invalidations()
        );
    }
    let (fetch_entries, fetch_unproven, fetch_bytes) = shared.fetch_cache_usage();
    println!(
        "\nretained: plan cache {} plan(s), {} bytes, {} eviction(s); \
         fetch cache {} bodies ({} unproven), ~{} bytes",
        plan_cache.len(),
        plan_cache.bytes(),
        plan_cache.evictions(),
        fetch_entries,
        fetch_unproven,
        fetch_bytes
    );
    // The interner leaks distinct names by design: growth tracks the
    // workload's vocabulary, not its volume (see Symbol::table_bytes).
    println!(
        "\ninterner: {} symbols, {} bytes (grow-only, bounded by vocabulary)",
        search_computing::model::Symbol::table_len(),
        search_computing::model::Symbol::table_bytes()
    );
    Ok(())
}

fn cmd_oracle(registry: &ServiceRegistry, query_src: &str) -> Result<(), String> {
    let query = parse_query(query_src).map_err(|e| e.to_string())?;
    let answers = evaluate_oracle(&query, registry).map_err(|e| e.to_string())?;
    println!(
        "{} answers (exhaustive declarative semantics); first {}:",
        answers.len(),
        query.k
    );
    for combo in answers.iter().take(query.k) {
        println!("  score={:.3}  {combo}", query.ranking.score(combo));
    }
    Ok(())
}

fn cmd_serve(registry: ServiceRegistry, args: &Args, opts: EngineConfig) -> Result<(), String> {
    use search_computing::server::{Server, ServerConfig, ServerState};
    let config = ServerConfig {
        engine: opts,
        metric: args.metric,
        max_sessions: args.max_sessions,
        max_concurrent: args.max_concurrent,
        tenant_budget: args.tenant_budget,
        ..ServerConfig::default()
    };
    let state = ServerState::new(registry, config);
    let server = Server::bind(&args.addr, state).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {} on http://{addr} — POST /query, POST /session/<id>/(more|rerank|expand), \
         GET /stats, POST /admin/(promote|shutdown)",
        args.domain
    );
    // Blocks until `POST /admin/shutdown` drains the daemon.
    server.run();
    println!("drained; bye");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let faults = match FaultProfile::by_name(&args.fault_profile) {
        // Fault decisions derive from the run's --seed so a fixed seed
        // reproduces the exact same failures, retries, and answers.
        Some(p) => p.with_seed(args.seed.wrapping_add(p.seed)),
        None => {
            eprintln!(
                "unknown fault profile `{}` (use none, flaky, or outage)",
                args.fault_profile
            );
            return ExitCode::FAILURE;
        }
    };
    let registry = match build_registry(&args.domain, args.seed, faults) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let resilient = !faults.is_inert() || args.deadline_ms.is_some();
    // Every engine flag maps 1:1 onto an `EngineConfig` builder method.
    let mut opts = EngineConfig::default()
        .cache_shards(args.cache_shards)
        .rank_join(args.rank_join)
        .adaptive(args.adaptive)
        .adaptive_threshold(args.adaptive_threshold)
        .adaptive_metric(args.metric);
    if resilient {
        opts = opts.degrade().client(ClientConfig {
            deadline_ms: args.deadline_ms,
            seed: args.seed,
            ..Default::default()
        });
    }
    let outcome = match args.command.as_str() {
        "services" => {
            cmd_services(&registry);
            Ok(())
        }
        "explain" => cmd_explain(&registry, args.metric, true, &args.query),
        "optimize" => cmd_explain(&registry, args.metric, false, &args.query),
        "run" => cmd_run(&registry, &args, opts),
        "stats" => cmd_stats(&registry, &args, opts),
        "oracle" => cmd_oracle(&registry, &args.query),
        "serve" => cmd_serve(registry, &args, opts),
        _ => Err(usage()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
