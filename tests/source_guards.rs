//! Source scans over the library crates, cut at each file's `mod tests`
//! line so test code is never counted:
//!
//! * the panic-site ratchet — lines with `.unwrap()`, `.expect(`,
//!   `panic!(` or `unreachable!(` in the services, exec, join, engine,
//!   server, optimizer and plan sources. The count may only fall: when a
//!   change lowers it, lower [`PANIC_SITE_CEILING`] too;
//! * no thread spawns below the server: threads come from `seco-exec`
//!   (the pool) or `seco-server`. A joined-in-place
//!   `std::thread::scope` is not a spawn and is not counted;
//! * one predicate evaluator in production: the join kernels and the
//!   engine evaluate through `seco_query::CompiledPredicates`, so the
//!   join and engine sources do not mention the interpreted
//!   `satisfies_available`, which is the oracle's evaluator.
//!
//! A failure lists each offending line as `path:line: text`.

use std::fs;
use std::path::{Path, PathBuf};

/// The committed panic-site count.
const PANIC_SITE_CEILING: usize = 78;

/// Every `.rs` file under `crates/<name>/src` for each crate, recursively,
/// as a path relative to the repository root.
fn sources(crates: &[&str]) -> Vec<PathBuf> {
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
    for name in crates {
        walk(&root.join("crates").join(name).join("src"), &mut files);
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
/// source file of `crates` that contains one of `patterns`.
fn scan(crates: &[&str], patterns: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    for file in sources(crates) {
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
        &crates,
        &[".unwrap()", ".expect(", "panic!(", "unreachable!("],
    );
    println!("panic sites: {}", sites.len());
    assert!(
        sites.len() <= PANIC_SITE_CEILING,
        "{}\npanic sites rose above the ceiling of {PANIC_SITE_CEILING}",
        sites.join("\n")
    );
}

#[test]
fn no_threads_are_spawned_outside_seco_exec() {
    let crates = [
        "model",
        "query",
        "plan",
        "optimizer",
        "join",
        "services",
        "engine",
    ];
    let spawns = scan(&crates, &["thread::spawn(", "thread::Builder"]);
    assert!(
        spawns.is_empty(),
        "{}\nthreads are spawned outside seco-exec",
        spawns.join("\n")
    );
}

#[test]
fn join_and_engine_evaluate_predicates_only_compiled() {
    let interpreted = scan(&["join", "engine"], &["satisfies"]);
    assert!(
        interpreted.is_empty(),
        "{}\nthe join or engine sources evaluate predicates through the interpreter",
        interpreted.join("\n")
    );
}
