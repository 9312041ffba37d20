//! The experiments behind EXPERIMENTS.md, as one function: [`run`]
//! returns the report text and the JSON record of every experiment it
//! ran. The `repro` binary prints the text and writes the records to
//! `results/<id>.json`; `tests/repro.rs` holds both equal to the
//! committed `repro_output.txt` and `results/e*.json`.

use std::fmt::Write as _;

use crate::{chain_scenario, join_pair, star_scenario};
use seco_engine::{execute_parallel_session, execute_plan, EngineConfig, ResultSet};
use seco_join::completion::explore;
use seco_join::executor::{ParallelJoinExecutor, ServiceStream};
use seco_join::optimality::{
    inversion_rate, is_globally_extraction_optimal, is_locally_extraction_optimal,
};
use seco_join::tile::TileSpace;
use seco_join::JoinMethod;
use seco_model::{AttributePath, Comparator, CompositeTuple, ScoreDecay, ScoringFunction, Value};
use seco_optimizer::exhaustive::optimize_exhaustive_with_costs;
use seco_optimizer::phase1::enumerate_assignments;
use seco_optimizer::phase2::enumerate_topologies;
use seco_optimizer::phase3::assign_fetches;
use seco_optimizer::{
    optimize, CostMetric, HeuristicSet, Optimizer, Phase1Heuristic, Phase2Heuristic,
    Phase3Heuristic,
};
use seco_plan::{annotate, display, AnnotationConfig, Completion, Invocation, PlanNode};
use seco_query::builder::running_example;
use seco_query::feasibility::analyze;
use seco_query::predicate::{ResolvedPredicate, SchemaMap};
use seco_query::{evaluate_oracle, QueryBuilder};
use seco_services::domains::{entertainment, travel};
use seco_services::invocation::Request;
use seco_services::Service;

type DynError = Box<dyn std::error::Error>;

/// What a run of the experiments produced: the report as printed, and
/// each experiment's JSON record as `(id, pretty-printed body)`.
#[derive(Debug, Default)]
pub struct Report {
    /// The human-readable tables, exactly as `repro` prints them.
    pub text: String,
    /// `(experiment id, body of results/<id>.json)`, in run order.
    pub json: Vec<(String, String)>,
}

impl Report {
    fn save(&mut self, id: &str, value: serde_json::Value) -> Result<(), DynError> {
        let body = serde_json::to_string_pretty(&value)?;
        self.json.push((id.to_owned(), body));
        Ok(())
    }
}

/// Appends one line to the report text.
macro_rules! say {
    ($out:expr) => {
        $out.text.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out.text, $($arg)*);
    }};
}

fn banner(out: &mut Report, id: &str, title: &str) {
    say!(
        out,
        "\n================================================================"
    );
    say!(out, "{id}: {title}");
    say!(
        out,
        "================================================================"
    );
}

/// E1 — Fig. 2/3: the travel plan, annotated.
fn e1(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E1",
        "Fig. 2/3 — annotated Conference/Weather/Flight/Hotel plan",
    );
    let registry = travel::build_registry(5)?;
    let query = QueryBuilder::new()
        .atom("C", "Conference1")
        .atom("W", "Weather1")
        .atom("F", "Flight1")
        .atom("H", "Hotel1")
        .pattern("Forecast", "C", "W")
        .pattern("ReachedBy", "C", "F")
        .pattern("StayAt", "C", "H")
        .pattern("SameTrip", "F", "H")
        .select_const("C", "Topic", Comparator::Eq, Value::text("databases"))
        .select_const("W", "AvgTemp", Comparator::Gt, Value::Int(26))
        .build()?;
    let joins = query.expanded_joins(&registry)?;
    let same_trip: Vec<_> = joins
        .iter()
        .filter(|j| j.connects("F", "H"))
        .cloned()
        .collect();
    let mut plan = seco_plan::QueryPlan::new(query.clone());
    let c = plan.add(PlanNode::Service(seco_plan::ServiceNode::new(
        "C",
        "Conference1",
    )));
    let w = plan.add(PlanNode::Service(seco_plan::ServiceNode::new(
        "W", "Weather1",
    )));
    let sel = plan.add(PlanNode::Selection(
        seco_plan::SelectionNode::new(vec![query.selections[1].clone()]).with_selectivity(0.25),
    ));
    let f = plan.add(PlanNode::Service(
        seco_plan::ServiceNode::new("F", "Flight1").with_fetches(2),
    ));
    let h = plan.add(PlanNode::Service(
        seco_plan::ServiceNode::new("H", "Hotel1").with_fetches(2),
    ));
    let j = plan.add(PlanNode::ParallelJoin(seco_plan::JoinSpec {
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Rectangular,
        predicates: same_trip,
        selectivity: 1.0,
    }));
    plan.connect(plan.input(), c)?;
    plan.connect(c, w)?;
    plan.connect(w, sel)?;
    plan.connect(sel, f)?;
    plan.connect(sel, h)?;
    plan.connect(f, j)?;
    plan.connect(h, j)?;
    plan.connect(j, plan.output())?;
    let ann = annotate(&plan, &registry, &AnnotationConfig::default())?;
    say!(out, "{}", display::ascii(&plan, Some(&ann))?);
    let outcome = execute_plan(
        &plan,
        &registry,
        EngineConfig {
            join_k: 10,
            ..Default::default()
        },
    )?;
    say!(
        out,
        "measured: {} calls, {} combinations",
        outcome.total_calls,
        outcome.results.len()
    );
    out.save(
        "e1",
        serde_json::json!({
            "estimated": {
                "conference_out": ann.annotation(c).tout,
                "weather_calls": ann.annotation(w).calls,
                "selection_out": ann.annotation(sel).tout,
                "flight_calls": ann.annotation(f).calls,
                "total_calls": ann.total_calls(),
            },
            "measured": {
                "total_calls": outcome.total_calls,
                "combinations": outcome.results.len(),
            },
        }),
    )
}

/// E2 — Fig. 4: the tile space and its representatives.
fn e2(out: &mut Report) -> Result<(), DynError> {
    banner(out, "E2", "Fig. 4 — tile space and ranking representatives");
    let fx = ScoringFunction::new(ScoreDecay::Linear, 40, 10)?;
    let fy = ScoringFunction::new(ScoreDecay::Quadratic, 40, 10)?;
    let space = TileSpace::new(fx, fy);
    say!(
        out,
        "tile representatives (ρX·ρY at the tile's top-left point):"
    );
    let mut grid = String::new();
    for y in 0..space.ny {
        for x in 0..space.nx {
            write!(
                grid,
                "{:>7.3}",
                space.representative(seco_join::Tile::new(x, y))
            )?;
        }
        grid.push('\n');
    }
    say!(out, "{grid}");
    let order = space.optimal_order();
    say!(
        out,
        "globally extraction-optimal order starts: {:?}",
        &order[..6.min(order.len())]
    );
    out.save(
        "e2",
        serde_json::json!({
            "nx": space.nx, "ny": space.ny,
            "first_tiles": order.iter().take(6).map(|t| [t.x, t.y]).collect::<Vec<_>>(),
        }),
    )
}

fn order_grid(order: &[seco_join::Tile], nx: usize, ny: usize) -> String {
    let mut cells = vec![vec![0usize; ny]; nx];
    for (rank, t) in order.iter().enumerate() {
        cells[t.x][t.y] = rank;
    }
    let mut out = String::new();
    for y in 0..ny {
        for col in cells.iter().take(nx) {
            let _ = write!(out, "{:>4}", col[y]);
        }
        out.push('\n');
    }
    out
}

/// E3 — Fig. 5: nested-loop vs merge-scan exploration orders.
fn e3(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E3",
        "Fig. 5 — nested-loop (a) vs merge-scan (b) exploration orders",
    );
    let nl = explore(Invocation::NestedLoop, Completion::Rectangular, 3, 6, 6)?;
    say!(
        out,
        "(a) nested-loop, h = 3 (tile processing ranks):\n{}",
        order_grid(&nl.order, 6, 6)
    );
    let ms = explore(
        Invocation::merge_scan_even(),
        Completion::Triangular,
        1,
        6,
        6,
    )?;
    say!(
        out,
        "(b) merge-scan, triangular:\n{}",
        order_grid(&ms.order, 6, 6)
    );
    out.save(
        "e3",
        serde_json::json!({
            "nested_loop_first_10": nl.order.iter().take(10).map(|t| [t.x, t.y]).collect::<Vec<_>>(),
            "merge_scan_first_10": ms.order.iter().take(10).map(|t| [t.x, t.y]).collect::<Vec<_>>(),
        }),
    )
}

/// E4 — Fig. 6: rectangular completions and the degenerate thin case.
fn e4(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E4",
        "Fig. 6 — rectangular completion; degenerate thin rectangles",
    );
    let mut rows = Vec::new();
    for (label, h, nx, ny) in [
        ("balanced 6×6, h=3", 3usize, 6usize, 6usize),
        ("thin 8×1 (all calls to one service)", 8, 8, 1),
        ("thin 1×8", 1, 1, 8),
    ] {
        let e = explore(Invocation::NestedLoop, Completion::Rectangular, h, nx, ny)?;
        let ones = e.tiles_per_call.iter().filter(|&&n| n == 1).count();
        say!(
            out,
            "{label:<38} tiles/call = {:?}  (calls adding exactly 1 tile: {ones}/{})",
            e.tiles_per_call,
            e.tiles_per_call.len()
        );
        rows.push(serde_json::json!({
            "case": label, "tiles_per_call": e.tiles_per_call, "single_tile_calls": ones,
        }));
    }
    out.save("e4", serde_json::json!(rows))
}

/// E5 — Fig. 7: merge-scan rectangular r=1 grows squares.
fn e5(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E5",
        "Fig. 7 — merge-scan (r = 1/1) with rectangular completion",
    );
    let e = explore(
        Invocation::merge_scan_even(),
        Completion::Rectangular,
        1,
        4,
        4,
    )?;
    say!(out, "{}", order_grid(&e.order, 4, 4));
    // After 2m calls the explored region is the m×m square.
    let mut squares_ok = true;
    for m in 1..=4usize {
        let upto: std::collections::BTreeSet<_> =
            e.order.iter().take(m * m).map(|t| (t.x, t.y)).collect();
        let expected: std::collections::BTreeSet<_> =
            (0..m).flat_map(|x| (0..m).map(move |y| (x, y))).collect();
        let ok = upto == expected;
        squares_ok &= ok;
        say!(
            out,
            "after {:>2} tiles: explored region is the {m}×{m} square: {ok}",
            m * m
        );
    }
    out.save(
        "e5",
        serde_json::json!({ "squares_of_increasing_size": squares_ok }),
    )
}

/// Runs one parallel join of two synthetic services to `k` results
/// (`k = 0` explores everything). Returns `(calls, results)`.
fn run_join(
    decay_x: ScoreDecay,
    decay_y: ScoreDecay,
    invocation: Invocation,
    completion: Completion,
    k: usize,
    seed: u64,
) -> Result<(usize, Vec<seco_model::CompositeTuple>), DynError> {
    let (sx, sy) = join_pair(decay_x, decay_y, 60, 5, seed);
    let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
    let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
    let mut y = ServiceStream::new("Y", sy.as_ref(), req);
    let predicates = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
        left: seco_query::QualifiedPath::new("X", AttributePath::atomic("Link")),
        op: Comparator::Eq,
        right: seco_query::QualifiedPath::new("Y", AttributePath::atomic("Link")),
    })];
    let mut schemas = SchemaMap::new();
    schemas.insert("X".into(), &sx.interface().schema);
    schemas.insert("Y".into(), &sy.interface().schema);
    let h = decay_x.step_chunks().unwrap_or(1);
    let exec = ParallelJoinExecutor {
        invocation,
        completion,
        h,
        k,
        ..ParallelJoinExecutor::new(&predicates, &schemas)
    };
    let out = exec.run(&mut x, &mut y)?;
    Ok((out.calls_x + out.calls_y, out.results))
}

/// Identity of a joined pair, for recall computation.
fn pair_id(c: &seco_model::CompositeTuple) -> (usize, usize) {
    (c.components[0].source_rank, c.components[1].source_rank)
}

/// E6 — §4 claim: NL suits step scoring, MS suits progressive scoring.
fn e6(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E6",
        "§4.3 — reaching k=30 joined results: NL vs MS, step vs progressive",
    );
    say!(
        out,
        "{:<26} {:<10} {:>7} {:>12} {:>12}",
        "scoring of X",
        "method",
        "calls",
        "top-k recall",
        "inversions"
    );
    let k = 30usize;
    let mut rows = Vec::new();
    for (slabel, dx) in [
        (
            "step(h=2)",
            ScoreDecay::Step {
                h: 2,
                high: 0.95,
                low: 0.05,
            },
        ),
        ("linear", ScoreDecay::Linear),
    ] {
        for (mlabel, inv, comp) in [
            ("NL/rect", Invocation::NestedLoop, Completion::Rectangular),
            (
                "MS/rect",
                Invocation::merge_scan_even(),
                Completion::Rectangular,
            ),
            (
                "MS/tri",
                Invocation::merge_scan_even(),
                Completion::Triangular,
            ),
        ] {
            // Average over a few seeds to smooth data luck.
            let (mut calls, mut recall, mut invr) = (0.0, 0.0, 0.0);
            let seeds = [3u64, 11, 17, 29];
            for &s in &seeds {
                // Ground truth: the exhaustive join sorted by the score
                // product — the reference of extraction-optimality.
                let (_, mut all) = run_join(dx, ScoreDecay::Linear, inv, comp, 0, s)?;
                all.sort_by(|a, b| {
                    b.score_product()
                        .partial_cmp(&a.score_product())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let truth: std::collections::BTreeSet<(usize, usize)> =
                    all.iter().take(k).map(pair_id).collect();
                let (c, emitted) = run_join(dx, ScoreDecay::Linear, inv, comp, k, s)?;
                let hits = emitted
                    .iter()
                    .filter(|e| truth.contains(&pair_id(e)))
                    .count();
                calls += c as f64;
                recall += hits as f64 / k.min(truth.len().max(1)) as f64;
                invr += inversion_rate(&emitted);
            }
            let n = seeds.len() as f64;
            say!(
                out,
                "{slabel:<26} {mlabel:<10} {:>7.1} {:>12.3} {:>12.3}",
                calls / n,
                recall / n,
                invr / n
            );
            rows.push(serde_json::json!({
                "scoring": slabel, "method": mlabel, "k": k,
                "mean_calls": calls / n, "mean_topk_recall": recall / n,
                "mean_inversion_rate": invr / n,
            }));
        }
    }
    out.save("e6", serde_json::json!(rows))
}

/// E7 — §4.4: extraction-optimality of the strategy grid.
fn e7(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E7",
        "§4.4 — local/global extraction-optimality of the method grid",
    );
    say!(
        out,
        "{:<30} {:<10} {:>7} {:>8}",
        "scoring of X (Y linear)",
        "strategy",
        "local",
        "global"
    );
    let mut rows = Vec::new();
    for (slabel, dx) in [
        (
            "step(h=2, 1→0) ideal",
            ScoreDecay::Step {
                h: 2,
                high: 1.0,
                low: 0.0,
            },
        ),
        (
            "step(h=2, 0.95→0.1)",
            ScoreDecay::Step {
                h: 2,
                high: 0.95,
                low: 0.1,
            },
        ),
        ("linear", ScoreDecay::Linear),
        ("quadratic", ScoreDecay::Quadratic),
    ] {
        let fx = ScoringFunction::new(dx, 60, 10)?;
        let fy = ScoringFunction::new(ScoreDecay::Linear, 60, 10)?;
        let space = TileSpace::new(fx, fy);
        for (mlabel, inv, comp, hh) in [
            (
                "NL/rect",
                Invocation::NestedLoop,
                Completion::Rectangular,
                dx.step_chunks().unwrap_or(2),
            ),
            (
                "MS/rect",
                Invocation::merge_scan_even(),
                Completion::Rectangular,
                1,
            ),
            (
                "MS/tri",
                Invocation::merge_scan_even(),
                Completion::Triangular,
                1,
            ),
        ] {
            let e = explore(inv, comp, hh, space.nx, space.ny)?;
            let local = is_locally_extraction_optimal(&e.calls, &e.order, &space);
            let global = is_globally_extraction_optimal(&e.order, &space);
            say!(out, "{slabel:<30} {mlabel:<10} {local:>7} {global:>8}");
            rows.push(serde_json::json!({
                "scoring": slabel, "strategy": mlabel, "local": local, "global": global,
            }));
        }
    }
    say!(
        out,
        "\njoin-method grid (§4.5): {} methods, {} practically sensible",
        JoinMethod::all().len(),
        JoinMethod::all().iter().filter(|m| m.makes_sense()).count()
    );
    out.save("e7", serde_json::json!(rows))
}

/// E8 — Fig. 8: branch-and-bound pruning and scaling.
fn e8(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E8",
        "Fig. 8 — branch-and-bound vs exhaustive; scaling with query size",
    );
    let registry = entertainment::build_registry(1)?;
    let query = running_example();
    say!(out, "running example (3 services):");
    say!(
        out,
        "{:<16} {:>9} {:>13} {:>8} {:>12} {:>12}",
        "metric",
        "optimum",
        "instantiated",
        "pruned",
        "exhaustive",
        "same optimum"
    );
    let mut rows = Vec::new();
    for metric in CostMetric::all() {
        let bnb = optimize(&query, &registry, metric)?;
        let (ex, costs) = optimize_exhaustive_with_costs(&query, &registry, metric)?;
        say!(
            out,
            "{:<16} {:>9.1} {:>13} {:>8} {:>12} {:>12}",
            metric.to_string(),
            bnb.cost,
            bnb.stats.instantiated,
            bnb.stats.pruned,
            costs.len(),
            (bnb.cost - ex.cost).abs() < 1e-9
        );
        rows.push(serde_json::json!({
            "metric": metric.to_string(), "optimum": bnb.cost,
            "bnb_instantiated": bnb.stats.instantiated, "bnb_pruned": bnb.stats.pruned,
            "exhaustive_plans": costs.len(),
            "same_optimum": (bnb.cost - ex.cost).abs() < 1e-9,
        }));
    }
    say!(out, "\nscaling over chain queries (request-count metric):");
    say!(out, "(§5.4: \"if the access patterns determine a total order, then there is only one possible DAG\")");
    say!(
        out,
        "{:>3} {:>12} {:>13} {:>8} {:>10}",
        "n",
        "topologies",
        "instantiated",
        "pruned",
        "optimum"
    );
    let mut scaling = Vec::new();
    for n in 2..=6 {
        let (reg, q) = chain_scenario(n, 7);
        let best = optimize(&q, &reg, CostMetric::RequestCount)?;
        say!(
            out,
            "{n:>3} {:>12} {:>13} {:>8} {:>10.1}",
            best.stats.topologies,
            best.stats.instantiated,
            best.stats.pruned,
            best.cost
        );
        scaling.push(serde_json::json!({
            "n": n, "topologies": best.stats.topologies,
            "instantiated": best.stats.instantiated, "pruned": best.stats.pruned,
            "optimum": best.cost,
        }));
    }
    say!(
        out,
        "\nscaling over star queries (all atoms independently reachable — the space explodes):"
    );
    say!(
        out,
        "{:>3} {:>12} {:>13} {:>8} {:>13}",
        "n",
        "topologies",
        "instantiated",
        "pruned",
        "pruned %"
    );
    let mut star_scaling = Vec::new();
    for n in 2..=5 {
        let (reg, q) = star_scenario(n, 7);
        let best = optimize(&q, &reg, CostMetric::RequestCount)?;
        let pruned_pct = 100.0 * best.stats.pruned as f64 / best.stats.topologies.max(1) as f64;
        say!(
            out,
            "{n:>3} {:>12} {:>13} {:>8} {:>12.1}%",
            best.stats.topologies,
            best.stats.instantiated,
            best.stats.pruned,
            pruned_pct
        );
        star_scaling.push(serde_json::json!({
            "n": n, "topologies": best.stats.topologies,
            "instantiated": best.stats.instantiated, "pruned": best.stats.pruned,
        }));
    }
    out.save(
        "e8",
        serde_json::json!({
            "running_example": rows,
            "chain_scaling": scaling,
            "star_scaling": star_scaling,
        }),
    )
}

/// E9 — Fig. 9: the running example's topologies.
fn e9(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E9",
        "Fig. 9 — admissible topologies of the running example",
    );
    let registry = entertainment::build_registry(1)?;
    let query = running_example();
    let report = analyze(&query, &registry)?;
    let plans = enumerate_topologies(
        &query,
        &registry,
        &report,
        Phase2Heuristic::ParallelIsBetter,
        64,
    )?;
    let mut listed = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        let line = display::summary_line(p)?;
        say!(out, "  ({}) {line}", (b'a' + i as u8) as char);
        listed.push(line);
    }
    say!(
        out,
        "\n{} structures enumerated; the chapter draws 4 (three chains + (M∥T)→R) and\n\
         continues with the parallel one; ours adds the undrawn M∥(T→R) variant.",
        plans.len()
    );
    out.save(
        "e9",
        serde_json::json!({ "count": plans.len(), "topologies": listed }),
    )
}

/// E10 — Fig. 10 / §5.6: the instantiation arithmetic.
fn e10(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E10",
        "Fig. 10 / §5.6 — fully instantiated running example (K = 10)",
    );
    let registry = entertainment::build_registry(1)?;
    let query = running_example();
    let joins = query.expanded_joins(&registry)?;
    let shows: Vec<_> = joins
        .iter()
        .filter(|j| j.connects("M", "T"))
        .cloned()
        .collect();
    let mut plan = seco_plan::QueryPlan::new(query);
    let m = plan.add(PlanNode::Service(
        seco_plan::ServiceNode::new("M", "Movie1").with_fetches(5),
    ));
    let t = plan.add(PlanNode::Service(
        seco_plan::ServiceNode::new("T", "Theatre1").with_fetches(5),
    ));
    let j = plan.add(PlanNode::ParallelJoin(seco_plan::JoinSpec {
        invocation: Invocation::merge_scan_even(),
        completion: Completion::Triangular,
        predicates: shows,
        selectivity: entertainment::SHOWS_SELECTIVITY,
    }));
    let r = plan.add(PlanNode::Service(
        seco_plan::ServiceNode::new("R", "Restaurant1").with_keep_first(),
    ));
    plan.connect(plan.input(), m)?;
    plan.connect(plan.input(), t)?;
    plan.connect(m, j)?;
    plan.connect(t, j)?;
    plan.connect(j, r)?;
    plan.connect(r, plan.output())?;
    let ann = annotate(&plan, &registry, &AnnotationConfig::default())?;
    say!(out, "{}", display::ascii(&plan, Some(&ann))?);
    let pairs = [
        ("tMovie_out (paper: 100)", ann.annotation(m).tout, 100.0),
        ("tTheatre_out (paper: 25)", ann.annotation(t).tout, 25.0),
        (
            "join candidates (paper: 1250)",
            ann.annotation(j).tin,
            1250.0,
        ),
        ("tMS_out (paper: 25)", ann.annotation(j).tout, 25.0),
        ("tRestaurant_in (paper: 25)", ann.annotation(r).tin, 25.0),
        (
            "tRestaurant_out = K (paper: 10)",
            ann.annotation(r).tout,
            10.0,
        ),
    ];
    let mut ok = true;
    for (label, ours, paper) in pairs {
        let agree = (ours - paper).abs() < 1e-9;
        ok &= agree;
        say!(out, "{label:<36} ours = {ours:<8.1} match: {agree}");
    }
    // Execute the instantiated plan with the key-indexed join kernel
    // (byte-identical to the nested loop; seco-join's unit tests prove
    // it) and report the kernel's work counters.
    let result = execute_plan(
        &plan,
        &registry,
        EngineConfig {
            join_k: 10,
            ..Default::default()
        },
    )?;
    let js = result.join_stats;
    say!(
        out,
        "executed: {} combinations; join: {} index builds, {} probes, \
         {} pairs skipped, {} tiles pruned, {} predicate evals",
        result.results.len(),
        js.index_builds,
        js.probes,
        js.pairs_skipped,
        js.tiles_pruned,
        js.predicate_evals
    );
    say!(
        out,
        "columnar plane: {} columns scanned, {} batch evals, {} rows materialized",
        js.columns_scanned,
        js.batch_evals,
        js.rows_materialized
    );
    out.save(
        "e10",
        serde_json::json!({
            "all_numbers_match": ok,
            "combinations": result.results.len(),
            "join_stats": {
                "index_builds": js.index_builds,
                "probes": js.probes,
                "pairs_skipped": js.pairs_skipped,
                "tiles_pruned": js.tiles_pruned,
                "predicate_evals": js.predicate_evals,
                "columns_scanned": js.columns_scanned,
                "batch_evals": js.batch_evals,
                "rows_materialized": js.rows_materialized,
            },
        }),
    )
}

/// E11 — §5.3: phase-1 heuristics.
fn e11(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E11",
        "§5.3 — access-pattern heuristics: bound-is-better vs unbound-is-easier",
    );
    // Build a registry where the Movie mart has two interfaces: the
    // chapter's four-input Movie1 and a one-input title lookup Movie9.
    use seco_model::{
        Adornment, AttributeDef, DataType, ServiceInterface, ServiceKind, ServiceSchema,
        ServiceStats,
    };
    use seco_services::synthetic::{DomainMap, SyntheticService};
    use std::sync::Arc;
    let mut registry = entertainment::build_registry(1)?;
    let schema = ServiceSchema::new(
        "Movie9",
        vec![
            AttributeDef::atomic("Title", DataType::Text, Adornment::Input),
            AttributeDef::atomic("Director", DataType::Text, Adornment::Output),
            AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
        ],
    )?;
    let iface = ServiceInterface::new(
        "Movie9",
        "Movie",
        schema,
        ServiceKind::Search,
        ServiceStats::new(1000.0, 10, 100.0, 1.0)?,
        ScoreDecay::Linear,
    )?;
    registry.register_service(Arc::new(SyntheticService::new(iface, DomainMap::new(), 99)))?;

    let query = QueryBuilder::new()
        .atom("M", "Movie") // mart-level: both interfaces are candidates
        .select_const("M", "Genres.Genre", Comparator::Eq, Value::text("comedy"))
        .select_const("M", "Language", Comparator::Eq, Value::text("en"))
        .select_const(
            "M",
            "Openings.Country",
            Comparator::Eq,
            Value::text("country-0"),
        )
        .select_const(
            "M",
            "Openings.Date",
            Comparator::Gt,
            Value::Date(seco_model::Date::new(2009, 3, 1)),
        )
        .select_const("M", "Title", Comparator::Eq, Value::text("title-7"))
        .build()?;
    let mut rows = Vec::new();
    for h in [
        Phase1Heuristic::BoundIsBetter,
        Phase1Heuristic::UnboundIsEasier,
    ] {
        let assignments = enumerate_assignments(&query, &registry, h)?;
        let order: Vec<&str> = assignments
            .iter()
            .map(|a| a.query.atom("M").unwrap().service.as_str())
            .collect();
        // The answer-set-size intuition: estimate the first choice's
        // expected result size (smaller = better bound).
        let first = registry.interface(order[0])?;
        say!(
            out,
            "{h:<20} tries {order:?} first (expected answers of first choice: {})",
            first.stats.avg_cardinality
        );
        rows.push(serde_json::json!({
            "heuristic": h.to_string(), "order": order,
            "first_choice_expected_answers": first.stats.avg_cardinality,
        }));
    }
    out.save("e11", serde_json::json!(rows))
}

/// E12 — §5.4: phase-2 heuristics under time vs call-count metrics.
fn e12(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E12",
        "§5.4 — selective-first vs parallel-is-better (first-plan quality)",
    );
    say!(
        out,
        "{:<20} {:<16} {:>12} {:>10} {:>8}",
        "phase-2 heuristic",
        "metric",
        "first plan",
        "optimum",
        "gap %"
    );
    let registry = entertainment::build_registry(3)?;
    let query = running_example();
    let mut rows = Vec::new();
    for h in [
        Phase2Heuristic::ParallelIsBetter,
        Phase2Heuristic::SelectiveFirst,
    ] {
        for metric in [
            CostMetric::ExecutionTime,
            CostMetric::RequestCount,
            CostMetric::Sum,
        ] {
            let mut opt = Optimizer::new(&registry, metric);
            opt.heuristics = HeuristicSet {
                phase2: h,
                ..HeuristicSet::default()
            };
            opt.budget = Some(1);
            let first = opt.optimize(&query)?;
            opt.budget = None;
            let full = opt.optimize(&query)?;
            let gap = (first.cost / full.cost - 1.0) * 100.0;
            say!(
                out,
                "{:<20} {:<16} {:>12.1} {:>10.1} {:>8.1}",
                h.to_string(),
                metric.to_string(),
                first.cost,
                full.cost,
                gap
            );
            rows.push(serde_json::json!({
                "heuristic": h.to_string(), "metric": metric.to_string(),
                "first_plan_cost": first.cost, "optimum": full.cost, "gap_percent": gap,
            }));
        }
    }
    out.save("e12", serde_json::json!(rows))
}

/// E13 — §5.5: phase-3 heuristics.
fn e13(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E13",
        "§5.5 — fetch assignment: greedy vs square-is-better",
    );
    let registry = entertainment::build_registry(1)?;
    let query = running_example();
    let report = analyze(&query, &registry)?;
    let topologies = enumerate_topologies(
        &query,
        &registry,
        &report,
        Phase2Heuristic::ParallelIsBetter,
        64,
    )?;
    let parallel = topologies
        .into_iter()
        .find(|p| {
            p.node_ids()
                .any(|id| matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
        })
        .expect("a parallel topology exists");
    say!(
        out,
        "{:>4} {:<18} {:>12} {:>22}",
        "k",
        "heuristic",
        "calls",
        "fetch vector (M,T,R)"
    );
    let mut rows = Vec::new();
    for k in [1usize, 10, 25, 50] {
        for h in [Phase3Heuristic::Greedy, Phase3Heuristic::SquareIsBetter] {
            let mut plan = parallel.clone();
            match assign_fetches(&mut plan, &registry, k, h, CostMetric::RequestCount) {
                Ok(ann) => {
                    let f = |atom: &str| {
                        let id = plan.service_node_of(atom).unwrap();
                        match plan.node(id) {
                            Ok(PlanNode::Service(s)) => s.fetches,
                            _ => 0,
                        }
                    };
                    say!(
                        out,
                        "{k:>4} {:<18} {:>12.1} {:>22}",
                        h.to_string(),
                        ann.total_calls(),
                        format!("({}, {}, {})", f("M"), f("T"), f("R"))
                    );
                    rows.push(serde_json::json!({
                        "k": k, "heuristic": h.to_string(), "calls": ann.total_calls(),
                        "fetches": { "M": f("M"), "T": f("T"), "R": f("R") },
                    }));
                }
                Err(e) => say!(out, "{k:>4} {:<18} unreachable: {e}", h.to_string()),
            }
        }
    }
    out.save("e13", serde_json::json!(rows))
}

/// E14 — §5.1: metric comparison on one query.
fn e14(out: &mut Report) -> Result<(), DynError> {
    banner(out, "E14", "§5.1 — optimal plan and cost under each metric");
    let registry = entertainment::build_registry(3)?;
    let query = running_example();
    say!(out, "{:<16} {:>10}  plan", "metric", "cost");
    let mut rows = Vec::new();
    for metric in CostMetric::all() {
        let best = optimize(&query, &registry, metric)?;
        let line = display::summary_line(&best.plan)?;
        say!(
            out,
            "{:<16} {:>10.1}  {line}",
            metric.to_string(),
            best.cost
        );
        rows.push(serde_json::json!({
            "metric": metric.to_string(), "cost": best.cost, "plan": line,
        }));
    }
    out.save("e14", serde_json::json!(rows))
}

/// E15 — §3.1: the Q1/Q2 repeating-group semantics.
fn e15(out: &mut Report) -> Result<(), DynError> {
    banner(out, "E15", "§3.1 — Q1/Q2 repeating-group mapping semantics");
    use seco_services::table::chapter_semantics_example;
    use std::sync::Arc;
    let (s1, s2) = chapter_semantics_example();
    let mut registry = seco_services::ServiceRegistry::new();
    registry.register_service(Arc::new(s1))?;
    registry.register_service(Arc::new(s2))?;
    let q1 = QueryBuilder::new()
        .atom("S1", "S1")
        .select_const("S1", "R.A", Comparator::Eq, Value::Int(1))
        .select_const("S1", "R.B", Comparator::Eq, Value::text("x"))
        .build()?;
    let r1 = evaluate_oracle(&q1, &registry)?;
    say!(
        out,
        "Q1 (select S1 where S1.R.A=1 and S1.R.B=x): {} result (paper: {{t1}})",
        r1.len()
    );
    let q2 = QueryBuilder::new()
        .atom("S1", "S1")
        .atom("S2", "S2")
        .join("S1", "R.A", Comparator::Eq, "S2", "R.A")
        .join("S1", "R.B", Comparator::Eq, "S2", "R.B")
        .build()?;
    let r2 = evaluate_oracle(&q2, &registry)?;
    say!(
        out,
        "Q2 (join on R.A, R.B): {} results (paper: {{t1·t3, t1·t4, t2·t4}})",
        r2.len()
    );
    out.save(
        "e15",
        serde_json::json!({ "q1_results": r1.len(), "q2_results": r2.len() }),
    )
}

/// E16 — end-to-end: optimized execution vs the oracle.
fn e16(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E16",
        "end-to-end — optimized plans vs the declarative oracle",
    );
    let registry = entertainment::build_registry(9)?;
    let query = running_example();
    let oracle = evaluate_oracle(&query, &registry)?;
    say!(out, "oracle answers: {}", oracle.len());
    let mut rows = Vec::new();
    for metric in [CostMetric::RequestCount, CostMetric::ExecutionTime] {
        let best = optimize(&query, &registry, metric)?;
        let outcome = execute_plan(&best.plan, &registry, EngineConfig::default())?;
        let sound = outcome.results.iter().all(|c| {
            oracle.iter().any(|o| {
                query
                    .atoms
                    .iter()
                    .all(|a| o.component(&a.alias) == c.component(&a.alias))
            })
        });
        let rs = ResultSet::new(outcome.results.clone(), query.ranking.clone());
        // The streamed run (`mode=par`) agrees when its sink delivers
        // the same combinations, in whatever order.
        let streamed = std::cell::RefCell::new(Vec::new());
        let sink = |batch: &[CompositeTuple]| streamed.borrow_mut().extend_from_slice(batch);
        let config = EngineConfig::default();
        execute_parallel_session(&best.plan, &registry, config, None, Some(&sink))?;
        let rendered = |results: &[CompositeTuple]| {
            let mut rows: Vec<String> = results.iter().map(|c| c.to_string()).collect();
            rows.sort_unstable();
            rows
        };
        let agrees = rendered(&streamed.into_inner()) == rendered(&outcome.results);
        say!(
            out,
            "{:<16} emitted {:>3} / sound: {sound} / calls {:>3} / inversion rate {:.3} / parallel executor agrees: {agrees}",
            metric.to_string(),
            outcome.results.len(),
            outcome.total_calls,
            rs.ranking_inversion_rate(),
        );
        rows.push(serde_json::json!({
            "metric": metric.to_string(), "emitted": outcome.results.len(),
            "oracle": oracle.len(), "sound": sound, "calls": outcome.total_calls,
            "inversion_rate": rs.ranking_inversion_rate(),
            "parallel_agrees": agrees,
        }));
    }
    out.save("e16", serde_json::json!(rows))
}

/// E17 — ablation: fixed vs cost-based merge-scan inter-service ratio.
///
/// The services are genuinely asymmetric (different chunk sizes and
/// response times); the metric is the total *service time* spent to
/// produce k joined results — the quantity the cost-based ratio is
/// designed to minimize.
fn e17(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E17",
        "ablation — fixed r=1/1 vs cost-based inter-service ratio (§4.3.2)",
    );
    use crate::link_service;
    use seco_join::cost_based_ratio;
    use seco_services::synthetic::{DomainMap, SyntheticService, ValueDomain};
    use std::sync::Arc;

    let run = |cx: usize,
               tx: f64,
               cy: usize,
               ty: f64,
               inv: Invocation,
               k: usize,
               seed: u64|
     -> Result<(usize, usize, f64), DynError> {
        let total = 60usize;
        let linkdom = ValueDomain::new("pairlink", 10);
        let sx = Arc::new(SyntheticService::new(
            link_service("AsymX1", total as f64, cx, tx, ScoreDecay::Linear),
            DomainMap::new().with(AttributePath::atomic("Link"), linkdom.clone()),
            seed ^ 0xA,
        ));
        let sy = Arc::new(SyntheticService::new(
            link_service("AsymY1", total as f64, cy, ty, ScoreDecay::Linear),
            DomainMap::new().with(AttributePath::atomic("Link"), linkdom),
            seed ^ 0xB,
        ));
        let req = Request::unbound().bind(AttributePath::atomic("Key"), Value::text("q"));
        let mut x = ServiceStream::new("X", sx.as_ref(), req.clone());
        let mut y = ServiceStream::new("Y", sy.as_ref(), req);
        let predicates = vec![ResolvedPredicate::Join(seco_query::JoinPredicate {
            left: seco_query::QualifiedPath::new("X", AttributePath::atomic("Link")),
            op: Comparator::Eq,
            right: seco_query::QualifiedPath::new("Y", AttributePath::atomic("Link")),
        })];
        let mut schemas = SchemaMap::new();
        schemas.insert("X".into(), &sx.interface().schema);
        schemas.insert("Y".into(), &sy.interface().schema);
        let exec = ParallelJoinExecutor {
            invocation: inv,
            completion: Completion::Triangular,
            k,
            ..ParallelJoinExecutor::new(&predicates, &schemas)
        };
        let out = exec.run(&mut x, &mut y)?;
        let service_ms = out.calls_x as f64 * tx + out.calls_y as f64 * ty;
        Ok((out.calls_x, out.calls_y, service_ms))
    };

    say!(
        out,
        "{:<34} {:<24} {:>9} {:>14}",
        "service pair (chunk@ms vs chunk@ms)",
        "ratio",
        "calls x/y",
        "service time"
    );
    let k = 30usize;
    let mut rows = Vec::new();
    for (label, cx, tx, cy, ty) in [
        ("5@50 vs 5@50 (symmetric)", 5usize, 50.0, 5usize, 50.0),
        ("5@150 vs 10@50 (Y cheap+rich)", 5, 150.0, 10, 50.0),
        ("10@50 vs 5@150 (X cheap+rich)", 10, 50.0, 5, 150.0),
    ] {
        let derived = cost_based_ratio(cx, tx, cy, ty);
        for (rlabel, inv) in [
            ("fixed 1/1", Invocation::merge_scan_even()),
            ("cost-based", derived),
        ] {
            let (mut axc, mut ayc, mut ams) = (0.0, 0.0, 0.0);
            let seeds = [3u64, 11, 17, 29];
            for &s in &seeds {
                let (xc, yc, ms) = run(cx, tx, cy, ty, inv, k, s)?;
                axc += xc as f64;
                ayc += yc as f64;
                ams += ms;
            }
            let n = seeds.len() as f64;
            say!(
                out,
                "{label:<34} {:<24} {:>9} {:>12.0}ms",
                format!("{rlabel} ({inv})"),
                format!("{:.1}/{:.1}", axc / n, ayc / n),
                ams / n
            );
            rows.push(serde_json::json!({
                "pair": label, "ratio": format!("{inv}"),
                "mean_calls_x": axc / n, "mean_calls_y": ayc / n,
                "mean_service_ms": ams / n,
            }));
        }
    }
    out.save("e17", serde_json::json!(rows))
}

/// E18 — calibration: the annotation's estimates vs measured execution.
fn e18(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E18",
        "calibration — estimated (annotation) vs measured (execution)",
    );
    say!(
        out,
        "{:>5} {:<22} {:>12} {:>12} {:>9}",
        "seed",
        "quantity",
        "estimated",
        "measured",
        "ratio"
    );
    let query = running_example();
    let mut rows = Vec::new();
    for seed in [1u64, 9, 21, 33] {
        let registry = entertainment::build_registry(seed)?;
        let best = optimize(&query, &registry, CostMetric::RequestCount)?;
        let est_calls = best.annotated.total_calls();
        let est_time =
            CostMetric::ExecutionTime.evaluate(&best.plan, &best.annotated, &registry)?;
        let outcome = execute_plan(&best.plan, &registry, EngineConfig::default())?;
        for (q, e, m) in [
            ("request-responses", est_calls, outcome.total_calls as f64),
            ("critical path (ms)", est_time, outcome.critical_ms),
            (
                "answers",
                best.annotated.output_tuples,
                outcome.results.len() as f64,
            ),
        ] {
            say!(
                out,
                "{seed:>5} {q:<22} {e:>12.1} {m:>12.1} {:>9.2}",
                m / e.max(1e-9)
            );
            rows.push(serde_json::json!({
                "seed": seed, "quantity": q, "estimated": e, "measured": m,
            }));
        }
    }
    out.save("e18", serde_json::json!(rows))
}

/// E19 — §2.3: query augmentation with off-query services.
fn e19(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E19",
        "§2.3 — query augmentation (off-query services bind missing inputs)",
    );
    use seco_model::{
        Adornment, AttributeDef, DataType, ServiceInterface, ServiceKind, ServiceSchema,
        ServiceStats,
    };
    use seco_query::augment::{augment_query, AugmentOptions};
    use seco_services::synthetic::{DomainMap, SyntheticService, ValueDomain};
    use std::sync::Arc;
    let mut registry = seco_services::ServiceRegistry::new();
    let flight_schema = ServiceSchema::new(
        "Flight1",
        vec![
            AttributeDef::atomic("To", DataType::Text, Adornment::Input).with_domain("city"),
            AttributeDef::atomic("Date", DataType::Date, Adornment::Input).with_domain("date"),
            AttributeDef::atomic("Price", DataType::Float, Adornment::Output),
            AttributeDef::atomic("Convenience", DataType::Float, Adornment::Ranked),
        ],
    )?;
    let flight = ServiceInterface::new(
        "Flight1",
        "Flight",
        flight_schema,
        ServiceKind::Search,
        ServiceStats::new(30.0, 10, 100.0, 1.0)?,
        ScoreDecay::Linear,
    )?;
    let dir_schema = ServiceSchema::new(
        "CityDirectory1",
        vec![AttributeDef::atomic("City", DataType::Text, Adornment::Output).with_domain("city")],
    )?;
    let dir = ServiceInterface::new(
        "CityDirectory1",
        "CityDirectory",
        dir_schema,
        ServiceKind::Exact { chunked: false },
        ServiceStats::new(12.0, 12, 30.0, 1.0)?,
        ScoreDecay::Constant(1.0),
    )?;
    let city = ValueDomain::new("city", 12);
    registry.register_service(Arc::new(SyntheticService::new(
        flight,
        DomainMap::new().with(AttributePath::atomic("To"), city.clone()),
        1,
    )))?;
    registry.register_service(Arc::new(SyntheticService::new(
        dir,
        DomainMap::new().with(AttributePath::atomic("City"), city),
        2,
    )))?;

    let query = QueryBuilder::new()
        .atom("F", "Flight1")
        .select_const(
            "F",
            "Date",
            Comparator::Eq,
            Value::Date(seco_model::Date::new(2009, 7, 1)),
        )
        .build()?;
    say!(out, "original query: {query}");
    say!(out, "feasible: {}", analyze(&query, &registry).is_ok());
    let augmented = augment_query(&query, &registry, AugmentOptions::default())?;
    say!(
        out,
        "augmented with off-query atoms {:?}: {}",
        augmented.added,
        augmented.query
    );
    let answers = evaluate_oracle(&augmented.query, &registry)?;
    say!(
        out,
        "approximation yields {} answers (every flight to a directory city)",
        answers.len()
    );
    out.save(
        "e19",
        serde_json::json!({
            "added": augmented.added,
            "answers": answers.len(),
        }),
    )
}

/// E20 — client-side caching makes chain topologies competitive.
fn e20(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E20",
        "ablation — response caching on the chain topology (§5.3 intuition)",
    );
    use seco_services::cache::CachingService;
    use seco_services::synthetic::{DomainMap, SyntheticService, ValueDomain};
    use seco_services::ServiceRegistry;
    use std::sync::Arc;

    // Two registries over identical services: one raw, one with the
    // Movie service wrapped in a response cache. The selective-first
    // chain is T → M: every theatre tuple re-issues the same
    // constant-bound movie request, so the cache absorbs all but the
    // first fetch of each chunk.
    let build = |cached: bool| -> Result<ServiceRegistry, DynError> {
        let mut reg = ServiceRegistry::new();
        let title = ValueDomain::new("title", entertainment::TITLE_DOMAIN);
        let movie: Arc<dyn Service> = Arc::new(SyntheticService::new(
            entertainment::movie_interface(),
            DomainMap::new().with(AttributePath::atomic("Title"), title.clone()),
            1,
        ));
        if cached {
            reg.register_service(Arc::new(CachingService::new(movie, 1024)))?;
        } else {
            reg.register_service(movie)?;
        }
        let theatre = SyntheticService::new(
            entertainment::theatre_interface(),
            DomainMap::new().with(AttributePath::sub("Movie", "Title"), title),
            2,
        )
        .with_rows_per_group(1)
        .with_mirror(
            AttributePath::atomic("TCity"),
            AttributePath::atomic("UCity"),
        )
        .with_mirror(
            AttributePath::atomic("TCountry"),
            AttributePath::atomic("UCountry"),
        );
        reg.register_service(Arc::new(theatre))?;
        reg.register_pattern(entertainment::shows_pattern())?;
        Ok(reg)
    };

    let query = QueryBuilder::new()
        .atom("M", "Movie1")
        .atom("T", "Theatre1")
        .pattern("Shows", "M", "T")
        .select_const("M", "Genres.Genre", Comparator::Eq, Value::text("comedy"))
        .select_const("M", "Language", Comparator::Eq, Value::text("en"))
        .select_const(
            "M",
            "Openings.Country",
            Comparator::Eq,
            Value::text("country-0"),
        )
        .select_const(
            "M",
            "Openings.Date",
            Comparator::Gt,
            Value::Date(seco_model::Date::new(2009, 3, 1)),
        )
        .select_const("T", "UAddress", Comparator::Eq, Value::text("via Golgi 42"))
        .select_const("T", "UCity", Comparator::Eq, Value::text("Milano"))
        .select_const("T", "UCountry", Comparator::Eq, Value::text("country-0"))
        .k(5)
        .build()?;

    // Force the chain topology M → T (the topology the cache helps).
    let mut rows = Vec::new();
    for cached in [false, true] {
        let reg = build(cached)?;
        let report = analyze(&query, &reg)?;
        let chains =
            enumerate_topologies(&query, &reg, &report, Phase2Heuristic::SelectiveFirst, 64)?;
        let chain = chains
            .into_iter()
            .find(|p| {
                p.node_ids()
                    .all(|id| !matches!(p.node(id), Ok(PlanNode::ParallelJoin(_))))
            })
            .expect("a chain topology exists");
        let mut plan = chain;
        // Movie fetches 2 chunks so the chain re-invokes Theatre 40×.
        for id in plan.node_ids().collect::<Vec<_>>() {
            if let Ok(PlanNode::Service(s)) = plan.node_mut(id) {
                if s.atom == "M" {
                    s.fetches = 2;
                }
            }
        }
        reg.reset_stats();
        let outcome = execute_plan(&plan, &reg, EngineConfig::default())?;
        // Distinguish wire calls (inner service) from engine-issued
        // requests: the recorder sits outside the cache, so its count
        // is what actually crossed to the provider only when uncached;
        // the engine's own count is always the issued requests.
        say!(
            out,
            "{:<10} issued {:>4} requests; {:>3} combinations; movie service busy {:>7.0} ms",
            if cached { "cached" } else { "uncached" },
            outcome.total_calls,
            outcome.results.len(),
            reg.all_stats()["Movie1"].busy_ms,
        );
        rows.push(serde_json::json!({
            "cached": cached,
            "issued_requests": outcome.total_calls,
            "combinations": outcome.results.len(),
            "movie_busy_ms": reg.all_stats()["Movie1"].busy_ms,
        }));
    }
    say!(
        out,
        "(cache hits cost 0 ms: the chain's repeated constant-bound movie"
    );
    say!(
        out,
        " requests collapse, which is the §5.3 cache-size intuition quantified)"
    );
    out.save("e20", serde_json::json!(rows))
}

/// E21 — resilience: deterministic faults, retries, degradation.
fn e21(out: &mut Report) -> Result<(), DynError> {
    banner(
        out,
        "E21",
        "resilience — fault injection, retry/backoff, graceful degradation",
    );
    use seco_engine::FailureMode;
    use seco_services::{ClientConfig, FaultProfile};

    let query = running_example();
    let clean = entertainment::build_registry(1)?;
    let best = optimize(&query, &clean, CostMetric::RequestCount)?;
    let baseline = execute_plan(&best.plan, &clean, EngineConfig::default())?;
    say!(
        out,
        "clean baseline: {} combinations, {} calls",
        baseline.results.len(),
        baseline.total_calls
    );

    let opts = EngineConfig {
        failure_mode: FailureMode::Degrade,
        client: Some(ClientConfig {
            deadline_ms: Some(200.0),
            retries: 3,
            seed: 42,
            ..Default::default()
        }),
        ..Default::default()
    };
    say!(
        out,
        "{:<8} {:>6} {:>7} {:>8} {:>6} {:>8} {:>6} {:>13} {:>13}",
        "profile",
        "combos",
        "calls",
        "retries",
        "t/outs",
        "trips",
        "s/circ",
        "deterministic",
        "rank-subset"
    );
    let mut rows = Vec::new();
    for profile in ["flaky", "outage"] {
        let faults = FaultProfile::by_name(profile).expect("known profile");
        type FaultRun = (
            Vec<seco_model::CompositeTuple>,
            Vec<String>,
            f64,
            usize,
            seco_services::CallStats,
        );
        let run = || -> Result<FaultRun, DynError> {
            let reg = entertainment::build_registry_with_faults(1, faults)?;
            let out = execute_plan(&best.plan, &reg, opts)?;
            let stats = reg.total_stats();
            Ok((
                out.results,
                out.degraded,
                out.critical_ms,
                out.total_calls,
                stats,
            ))
        };
        // Two runs with the same seeds must be byte-identical, and the
        // degraded answer must be a rank-ordered subset of the clean one.
        let (results_a, degraded_a, crit_a, calls_a, stats_a) = run()?;
        let (results_b, degraded_b, crit_b, calls_b, stats_b) = run()?;
        let deterministic = results_a == results_b
            && degraded_a == degraded_b
            && crit_a == crit_b
            && calls_a == calls_b
            && (
                stats_a.retries,
                stats_a.timeouts,
                stats_a.breaker_trips,
                stats_a.short_circuits,
            ) == (
                stats_b.retries,
                stats_b.timeouts,
                stats_b.breaker_trips,
                stats_b.short_circuits,
            );
        let rank_subset = {
            let mut clean_iter = baseline.results.iter();
            results_a.iter().all(|c| clean_iter.any(|b| b == c))
        };
        say!(
            out,
            "{profile:<8} {:>6} {:>7} {:>8} {:>6} {:>8} {:>6} {:>13} {:>13}",
            results_a.len(),
            calls_a,
            stats_a.retries,
            stats_a.timeouts,
            stats_a.breaker_trips,
            stats_a.short_circuits,
            deterministic,
            rank_subset
        );
        rows.push(serde_json::json!({
            "profile": profile,
            "run": {
                "combinations": results_a.len(),
                "degraded": degraded_a,
                "critical_ms": crit_a,
                "calls": calls_a,
                "retries": stats_a.retries,
                "timeouts": stats_a.timeouts,
                "breaker_trips": stats_a.breaker_trips,
                "short_circuits": stats_a.short_circuits,
            },
            "deterministic": deterministic,
            "rank_ordered_subset_of_clean": rank_subset,
        }));
    }
    out.save(
        "e21",
        serde_json::json!({
            "baseline_combinations": baseline.results.len(),
            "deadline_ms": 200.0,
            "profiles": rows,
        }),
    )
}

/// Runs the experiments named in `ids` (`e1` … `e21`; `faults` is
/// `e21`), or all of them — plus the star(3) sanity line — when `ids`
/// is empty or holds `all` / `--all`.
pub fn run(ids: &[String]) -> Result<Report, DynError> {
    let args: Vec<String> = ids
        .iter()
        .map(|a| a.to_lowercase())
        .map(|a| if a == "faults" { "e21".to_owned() } else { a })
        .collect();
    let all = args.is_empty() || args.iter().any(|a| a == "--all" || a == "all");
    let want = |id: &str| all || args.iter().any(|a| a == id);

    type Experiment = fn(&mut Report) -> Result<(), DynError>;
    let experiments: Vec<(&str, Experiment)> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("e16", e16),
        ("e17", e17),
        ("e18", e18),
        ("e19", e19),
        ("e20", e20),
        ("e21", e21),
    ];
    let mut out = Report::default();
    let mut ran = 0;
    for (id, f) in experiments {
        if want(id) {
            f(&mut out)?;
            ran += 1;
        }
    }
    // Star scenarios exercise the parallel-heavy path; touch them so
    // regressions there surface in repro runs too.
    if all {
        let (reg, q) = star_scenario(3, 5);
        let best = optimize(&q, &reg, CostMetric::ExecutionTime)?;
        say!(
            out,
            "\nstar(3) sanity: optimum {:.1} ms over {} topologies",
            best.cost,
            best.stats.topologies
        );
    }
    say!(
        out,
        "\n{ran} experiments regenerated; JSON written to results/"
    );
    Ok(out)
}
