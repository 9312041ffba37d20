//! Source scans over the library crates, cut at each file's `mod tests`
//! line, and skipping each `tests.rs` file (a test module of its own),
//! so test code is never counted:
//!
//! * the panic-site ratchet — lines with `.unwrap()`, `.expect(`,
//!   `panic!(` or `unreachable!(` in the services, exec, join, engine,
//!   server, optimizer and plan sources. The count may only fall: when a
//!   change lowers it, lower [`PANIC_SITE_CEILING`] too;
//! * no thread below the server: every plan is walked on the thread
//!   that calls the engine, so only `seco-server` (one thread per
//!   connection) starts threads, and a scoped thread
//!   (`std::thread::scope`) counts as a spawn;
//! * no wall clock below the server but the resilient client's: the
//!   crates the walk reaches decide nothing on `Instant::now()` or
//!   `SystemTime::now()`, so a run on the virtual clock repeats exactly.
//!   The `ClockSource::Wall` that the streamed run's clients select
//!   reads it, and so does the rank join's `time_to_kth_us`, a reported
//!   counter that decides nothing;
//! * no compute fan-out outside `seco-exec`: no other crate, the root
//!   package included, calls `ExecPool::scope_run`, which the benchmark
//!   harness alone still probes. The optimizer's search and the join
//!   kernels are serial because no workload's searches or tiles are
//!   large enough to pay for a fan-out; one comes back together with a
//!   workload that reaches it;
//! * one predicate evaluator in production: the join kernels and the
//!   engine evaluate through `seco_query::CompiledPredicates`, so the
//!   join and engine sources do not mention the interpreted
//!   `satisfies_available`, which is the oracle's evaluator;
//! * batch kernels only over columnar chunks: outside
//!   `crates/join/src/pipe.rs`, whose stages read the typed columns of
//!   the fetched chunk bodies, no code builds a `BatchPlan` or runs its
//!   mask kernel. Tile joins and selections meet composites row by row,
//!   and gathering columns off them for a kernel is a path no workload
//!   reaches.
//!
//! A failure lists each offending line as `path:line: text`.

use std::fs;
use std::path::{Path, PathBuf};

/// The committed panic-site count.
const PANIC_SITE_CEILING: usize = 45;

/// The source directory of each named crate, `crates/<name>/src`.
fn crate_srcs(crates: &[&str]) -> Vec<PathBuf> {
    (crates.iter())
        .map(|name| Path::new("crates").join(name).join("src"))
        .collect()
}

/// Every `.rs` file under each of `dirs` (relative to the repository
/// root), recursively, as a path relative to the root.
fn sources(dirs: &[PathBuf]) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut files);
    }
    for file in &mut files {
        *file = file.strip_prefix(root).expect("under the root").to_owned();
    }
    files
}

/// Whether `line` opens a file's test module: `mod tests`, optionally
/// `pub` or `pub(crate)`, indented by spaces only.
fn opens_tests(line: &str) -> bool {
    let line = line.trim_start_matches(' ');
    let line = (line.strip_prefix("pub(crate) "))
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    line.starts_with("mod tests")
}

/// The `path:line: text` of every line before the test module of each
/// source file under `dirs` that contains one of `patterns`. A file
/// named `tests.rs` is some module's `mod tests;` and is skipped whole.
fn scan(dirs: &[PathBuf], patterns: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    for file in sources(dirs) {
        if file.file_name().is_some_and(|name| name == "tests.rs") {
            continue;
        }
        let text = fs::read_to_string(root.join(&file)).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            if opens_tests(line) {
                break;
            }
            if patterns.iter().any(|p| line.contains(p)) {
                hits.push(format!("{}:{}: {line}", file.display(), i + 1));
            }
        }
    }
    hits
}

#[test]
fn panic_sites_stay_under_the_ceiling() {
    let crates = [
        "services",
        "exec",
        "join",
        "engine",
        "server",
        "optimizer",
        "plan",
    ];
    let sites = scan(
        &crate_srcs(&crates),
        &[".unwrap()", ".expect(", "panic!(", "unreachable!("],
    );
    println!("panic sites: {}", sites.len());
    assert!(
        sites.len() <= PANIC_SITE_CEILING,
        "{}\npanic sites rose above the ceiling of {PANIC_SITE_CEILING}",
        sites.join("\n")
    );
}

/// The crates below the server: what the engine's walk reaches.
const BELOW_THE_SERVER: [&str; 8] = [
    "model",
    "query",
    "plan",
    "optimizer",
    "join",
    "services",
    "engine",
    "exec",
];

#[test]
fn no_crate_below_the_server_spawns_a_thread() {
    let spawns = scan(
        &crate_srcs(&BELOW_THE_SERVER),
        &["thread::spawn(", "thread::Builder", "thread::scope("],
    );
    assert!(
        spawns.is_empty(),
        "{}\na crate below the server spawns a thread",
        spawns.join("\n")
    );
}

#[test]
fn only_the_resilient_client_reads_the_wall_clock() {
    // `(file, the one use allowed there)`.
    let allowed = [
        (
            "crates/services/src/resilience.rs:",
            "ClockSource::Wall(Instant::now())",
        ),
        (
            "crates/join/src/rank.rs:",
            "let start = std::time::Instant::now();",
        ),
    ];
    let reads: Vec<String> = scan(
        &crate_srcs(&BELOW_THE_SERVER),
        &["Instant::now(", "SystemTime::now("],
    )
    .into_iter()
    .filter(|hit| {
        !(allowed.iter()).any(|(file, line)| hit.starts_with(file) && hit.ends_with(line))
    })
    .collect();
    assert!(
        reads.is_empty(),
        "{}\na crate below the server reads the wall clock",
        reads.join("\n")
    );
}

#[test]
fn join_and_engine_evaluate_predicates_only_compiled() {
    let interpreted = scan(&crate_srcs(&["join", "engine"]), &["satisfies"]);
    assert!(
        interpreted.is_empty(),
        "{}\nthe join or engine sources evaluate predicates through the interpreter",
        interpreted.join("\n")
    );
}

/// The source directories of every crate but those named in `except`,
/// and of the root package.
fn every_src_but(except: &[&str]) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| !except.contains(&name.as_str()))
        .collect();
    crates.sort();
    let names: Vec<&str> = crates.iter().map(String::as_str).collect();
    let mut dirs = crate_srcs(&names);
    dirs.push(PathBuf::from("src"));
    dirs
}

#[test]
fn no_crate_but_seco_exec_fans_out_compute_jobs() {
    let fan_outs = scan(&every_src_but(&["exec"]), &["scope_run("]);
    assert!(
        fan_outs.is_empty(),
        "{}\na crate other than seco-exec fans compute jobs out on the pool",
        fan_outs.join("\n")
    );
}

#[test]
fn batch_kernels_run_only_over_columnar_chunks() {
    let calls: Vec<String> = scan(&every_src_but(&[]), &["batch_plan(", "eval_mask("])
        .into_iter()
        .filter(|hit| !hit.starts_with("crates/join/src/pipe.rs:"))
        .filter(|hit| !hit.contains("fn batch_plan(") && !hit.contains("fn eval_mask("))
        .collect();
    assert!(
        calls.is_empty(),
        "{}
batch kernels run outside the pipe stages' columnar chunks",
        calls.join("\n")
    );
}
