//! The benchmark's metric tables: the single source `BENCHMARK.json`,
//! the reports and `README.md` are written from.

use crate::workload::WORKLOADS;

/// A metric a user of the daemon would see; gated by `bound`.
pub struct EndToEnd {
    /// Name, as reported.
    pub name: &'static str,
    /// Unit, as reported.
    pub unit: &'static str,
    /// Direction of "better".
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of a single layer (crate); reported, never gated.
pub struct Layer {
    /// Name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of "better".
    pub lower_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

/// End-to-end metrics, reported for every workload with tracing off.
/// Each value is the median over the rounds of the per-round statistic.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.25),
    e2e("latency_p50_ms", "ms", true, 0.25),
    e2e("latency_p95_ms", "ms", true, 0.25),
    e2e("first_rows_p50_ms", "ms", true, 0.25),
    e2e("cpu_ms_per_op", "ms", true, 0.25),
    e2e("rss_peak_mb", "MiB", true, 0.15),
];

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        lower_is_better: false,
    }
}

/// Per-layer metrics, reported for every workload by the traced pass.
pub const PER_LAYER: [Layer; 67] = [
    lower("query.parse_us", "us"),
    lower("optimizer.plan_cold_us", "us"),
    lower("optimizer.topologies", "count"),
    lower("optimizer.instantiated", "count"),
    higher("optimizer.pruned", "count"),
    lower("optimizer.annotate_full", "count"),
    lower("optimizer.annotate_delta", "count"),
    higher("optimizer.memo_hits", "count"),
    lower("optimizer.plan_cached_us", "us"),
    higher("optimizer.plan_cache_hit_ratio", "ratio"),
    lower("optimizer.plan_cache_entries", "count"),
    lower("plan.annotate_us", "us"),
    lower("plan.delta_us", "us"),
    lower("plan.nodes", "count"),
    lower("services.fetch_hit_us", "us"),
    lower("services.fetch_miss_us", "us"),
    higher("services.hit_ratio", "ratio"),
    higher("services.cache_hits_per_op", "count"),
    higher("services.coalesced_per_op", "count"),
    lower("services.tuples_per_op", "count"),
    lower("services.bytes_cloned_per_op", "B"),
    lower("services.virtual_busy_ms_per_op", "ms"),
    lower("service_calls_per_op", "count"),
    lower("join.tile_join_us", "us"),
    lower("join.predicate_evals_per_op", "count"),
    lower("join.index_builds_per_op", "count"),
    lower("join.probes_per_op", "count"),
    higher("join.pairs_skipped_per_op", "count"),
    lower("join.batch_evals_per_op", "count"),
    lower("join.columns_scanned_per_op", "count"),
    lower("join.rows_materialized_per_op", "count"),
    higher("join.useful_ratio", "ratio"),
    lower("exec.scope_overhead_us", "us"),
    lower("exec.morsels_per_op", "count"),
    lower("exec.steals_per_op", "count"),
    lower("exec.busy_ms_per_op", "ms"),
    lower("exec.threads_alive", "count"),
    lower("engine.execute_us", "us"),
    lower("engine.execute_cold_us", "us"),
    lower("engine.rank_us", "us"),
    lower("engine.combinations_per_op", "count"),
    higher("engine.useful_ratio", "ratio"),
    lower("engine.virtual_ms_per_op", "ms"),
    lower("server.http_floor_us", "us"),
    lower("server.session_open_us", "us"),
    lower("server.session_next_us", "us"),
    lower("server.session_next_page5_us", "us"),
    lower("server.rerank_us", "us"),
    lower("server.absorb_us", "us"),
    lower("server.render_us", "us"),
    lower("server.resp_bytes_per_op", "B"),
    lower("server.op_query_p50_us", "us"),
    lower("server.op_more_p50_us", "us"),
    lower("server.op_rerank_p50_us", "us"),
    lower("server.op_expand_p50_us", "us"),
    lower("server.op_delete_p50_us", "us"),
    higher("server.admitted", "count"),
    lower("server.rejected", "count"),
    lower("server.sessions_open_end", "count"),
    lower("server.tenant_calls_overcount", "ratio"),
    lower("server.socket_p50_us", "us"),
    lower("server.inproc_p50_us", "us"),
    lower("server.socket_residual_us", "us"),
    higher("server.budget_coverage", "ratio"),
    lower("model.interner_symbols", "count"),
    lower("model.interner_bytes", "B"),
    lower("failed_share", "ratio"),
];

fn better(lower_is_better: bool) -> &'static str {
    if lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The text of `BENCHMARK.json`, written from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.lower_is_better),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m.lower_is_better)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(crate::RUN_SECONDS));
    }
}
