//! `seco-benchmark` — the repo's one benchmark.
//!
//! Boots the real daemon in-process under shipped defaults, drives it
//! over loopback TCP from two closed-loop clients, checks every
//! response against an oracle, and prints every metric by name and
//! unit. See `README.md` for the workloads, the metrics and how to read
//! the output; `run.sh` builds and runs this binary.
//!
//! Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload
//!   (the driver's contract): S seconds of measurement split over
//!   [`ROUNDS`] fresh child processes, or one traced pass; the last
//!   line of stdout is the result as one JSON object;
//! * no `--workload` — a full set: every workload, rounds interleaved
//!   across workloads, then the traced passes; `--repeat 2` runs two
//!   sets and gates their difference; `--smoke` shrinks everything;
//! * `--child round|trace` — internal: one round or traced pass in this
//!   process, values printed as `@ name value` lines for the parent.

mod client;
mod daemon;
mod host;
mod layers;
mod metrics;
mod oracle;
mod round;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use host::Fingerprint;
use metrics::{END_TO_END, PER_LAYER};
use round::Values;
use stats::{median, worsening};
use workload::{Spec, TRACED_OPS, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: seconds of measurement per run.
pub const RUN_SECONDS: u64 = 20;

/// Fresh child processes a run's measurement is split over; every
/// end-to-end value is the median of their per-round statistics.
const ROUNDS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
    ops: usize,
    out: PathBuf,
    smoke: bool,
    repeat: usize,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        child: None,
        ops: TRACED_OPS,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
        repeat: 1,
        print_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--child" => args.child = Some(value("round or trace")?),
            "--ops" => {
                args.ops = value("a number")?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--repeat" => {
                args.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    if args.smoke {
        args.ops = args.ops.min(20);
    }
    Ok(args)
}

fn lookup(name: &str) -> Result<&'static Spec, String> {
    workload::spec(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })
}

/// Runs one round or traced pass in a fresh process and returns the
/// values it reports. The child is waited for; its stderr passes
/// through.
fn child(kind: &str, spec: &Spec, args: &Args, seconds: f64) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", kind, "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--ops", &args.ops.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{kind} child of {} exited with {}",
            spec.name, output.status
        ));
    }
    let mut values = Values::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut fields = line.split_whitespace();
        if let (Some("@"), Some(name), Some(value)) = (fields.next(), fields.next(), fields.next())
        {
            let value = value
                .parse()
                .map_err(|e| format!("child value `{line}`: {e}"))?;
            values.insert(name.to_owned(), value);
        }
    }
    Ok(values)
}

fn trace_path(args: &Args, spec: &Spec) -> PathBuf {
    args.out.join(format!("trace-{}.json", spec.name))
}

fn run_child(kind: &str, spec: &'static Spec, args: &Args, born: Instant) -> Values {
    match kind {
        "round" => round::measure(spec, args.seed, args.seconds, born),
        _ => layers::traced(
            spec,
            args.seed,
            args.seconds,
            args.ops,
            &trace_path(args, spec),
        ),
    }
}

/// The measured rounds of one workload.
#[derive(Default)]
struct Measured {
    rounds: Vec<Values>,
}

impl Measured {
    fn per_round(&self, name: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect()
    }

    fn median(&self, name: &str) -> f64 {
        median(&self.per_round(name))
    }

    fn total(&self, name: &str) -> u64 {
        self.per_round(name).iter().sum::<f64>() as u64
    }

    fn print(&self, spec: &Spec) {
        println!("workload {} — {}", spec.name, spec.why);
        println!(
            "  {} round(s) of {:.1} s in fresh processes, {} closed-loop clients; value = median over rounds",
            self.rounds.len(),
            self.median("window_s"),
            workload::CLIENTS,
        );
        let row = |name: &str, unit: &str, note: &str| {
            let rounds: Vec<String> = self
                .per_round(name)
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect();
            println!(
                "  {name:<28} {:>12.4} {unit:<6} {note:<14} rounds [{}]",
                self.median(name),
                rounds.join(" ")
            );
        };
        for m in &END_TO_END {
            row(m.name, m.unit, &format!("bound {:.0}%", m.bound * 100.0));
        }
        row("latency_p99_ms", "ms", "ungated");
        row("generator_cpu_ms_per_op", "ms", "ungated");
        row("service_calls_per_op", "count", "ungated");
        row("services.hit_ratio", "ratio", "ungated");
        let (attempted, failed) = (self.total("attempted"), self.total("failed"));
        println!(
            "  samples: measured ops per round {:?}; attempted {attempted} (warm-up included), failed {failed}, failed_share {:.6}",
            self.per_round("measured_ops").iter().map(|v| *v as u64).collect::<Vec<_>>(),
            failed as f64 / attempted.max(1) as f64,
        );
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| metric_json(m.name, self.median(m.name), m.unit))
            .collect();
        result_json(self.total("attempted"), self.total("failed"), &metrics)
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_json(attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

fn print_traced(spec: &Spec, values: &Values, trace_file: &std::path::Path) {
    println!(
        "workload {} — traced pass (per-layer, measured from outside)",
        spec.name
    );
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:>14.4} {}",
            m.name,
            values.get(m.name).copied().unwrap_or(0.0),
            m.unit
        );
    }
    let socket = values.get("server.socket_p50_us").copied().unwrap_or(0.0);
    println!("  budget: self time per op (p50 over ops) against the socket p50 of {socket:.1} us");
    for (name, value) in values
        .iter()
        .filter_map(|(k, v)| Some((k.strip_prefix("budget.self_us.")?, v)))
    {
        println!(
            "    {name:<28} {value:>12.1} us  {:>5.1}%",
            100.0 * value / socket.max(1e-9)
        );
    }
    println!("  spans: {}", trace_file.display());
}

fn traced_json(values: &Values) -> String {
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|m| metric_json(m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    let count = |name: &str| values.get(name).copied().unwrap_or(0.0) as u64;
    result_json(count("attempted"), count("failed"), &metrics)
}

/// One workload, as the driver runs it: the verdict travels in the
/// JSON line (`correct`, `failed`), not in the exit code.
fn single(spec: &'static Spec, args: &Args) -> Result<(), String> {
    println!("{}", Fingerprint::read().line(args.seed));
    if args.trace {
        let values = child("trace", spec, args, args.seconds / ROUNDS as f64)?;
        print_traced(spec, &values, &trace_path(args, spec));
        println!("{}", traced_json(&values));
        return Ok(());
    }
    let mut measured = Measured::default();
    for _ in 0..ROUNDS {
        measured
            .rounds
            .push(child("round", spec, args, args.seconds / ROUNDS as f64)?);
    }
    measured.print(spec);
    println!("{}", measured.result_json());
    Ok(())
}

/// One full set: rounds interleaved across workloads (A B C D E, A B C
/// D E, …) so host drift hits all alike, then the traced passes.
fn full_set(
    args: &Args,
    rounds: usize,
    seconds: f64,
) -> Result<BTreeMap<&'static str, Measured>, String> {
    let mut set: BTreeMap<&'static str, Measured> = BTreeMap::new();
    for round in 0..rounds {
        for spec in &WORKLOADS {
            eprintln!("round {}/{rounds}: {}", round + 1, spec.name);
            set.entry(spec.name)
                .or_default()
                .rounds
                .push(child("round", spec, args, seconds)?);
        }
    }
    Ok(set)
}

fn full(args: &Args) -> Result<bool, String> {
    let fingerprint = Fingerprint::read();
    println!("{}", fingerprint.line(args.seed));
    let (rounds, seconds) = if args.smoke {
        (1, 0.6)
    } else {
        (ROUNDS, args.seconds / ROUNDS as f64)
    };
    let mut ok = true;
    let mut sets = Vec::new();
    for set_no in 0..args.repeat.max(1) {
        println!("== set {} of {}", set_no + 1, args.repeat.max(1));
        let set = full_set(args, rounds, seconds)?;
        for spec in &WORKLOADS {
            set[spec.name].print(spec);
            ok &= set[spec.name].total("failed") == 0;
        }
        sets.push(set);
    }
    println!("== traced passes");
    let mut report = vec![format!(
        "\"host\": {}",
        serde_json::json!(fingerprint.line(args.seed))
    )];
    for spec in &WORKLOADS {
        let values = child("trace", spec, args, seconds)?;
        print_traced(spec, &values, &trace_path(args, spec));
        ok &= values.get("failed").copied().unwrap_or(1.0) == 0.0;
        report.push(format!(
            "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            spec.name,
            sets[0][spec.name].result_json(),
            traced_json(&values)
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let report_path = args.out.join("report.json");
    std::fs::write(&report_path, format!("{{{}}}\n", report.join(",\n")))
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("report: {}", report_path.display());

    if let [first, .., last] = sets.as_slice() {
        println!(
            "== set {} against set 1: worsening as a share of set 1, against the metric's bound",
            sets.len()
        );
        for spec in &WORKLOADS {
            for m in &END_TO_END {
                let (base, new) = (
                    first[spec.name].median(m.name),
                    last[spec.name].median(m.name),
                );
                let worse = worsening(base, new, m.lower_is_better);
                let breach = worse > m.bound;
                ok &= !breach;
                println!(
                    "  {:<18} {:<20} {base:>12.4} -> {new:>12.4} {:<5} {:>+7.2}% against bound {:.0}%{}",
                    spec.name,
                    m.name,
                    m.unit,
                    worse * 100.0,
                    m.bound * 100.0,
                    if breach { "  BREACH" } else { "" }
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let born = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("seco-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let outcome = match (&args.child, &args.workload) {
        (Some(kind), Some(name)) => lookup(name).map(|spec| {
            for (name, value) in run_child(kind, spec, &args, born) {
                println!("@ {name} {value}");
            }
            true
        }),
        (Some(_), None) => Err("--child needs --workload".to_owned()),
        (None, Some(name)) => lookup(name)
            .and_then(|spec| single(spec, &args))
            .map(|()| true),
        (None, None) => full(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("seco-benchmark: failed ops or a bound breached (see above)");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("seco-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
