//! The experiments behind EXPERIMENTS.md reproduce the committed record
//! byte for byte: `seco_bench::repro::run` — what the `repro` binary
//! prints and writes — is compared with `repro_output.txt` and with
//! every `results/e*.json`. Nothing is written.

use std::path::Path;

#[test]
fn repro_output_and_results_match_the_committed_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let report = seco_bench::repro::run(&[]).expect("every experiment runs");

    let committed = read("repro_output.txt");
    if let Some(line) =
        (committed.lines().zip(report.text.lines())).position(|(want, got)| want != got)
    {
        panic!(
            "repro_output.txt line {}: committed {:?}, reproduced {:?}",
            line + 1,
            committed.lines().nth(line),
            report.text.lines().nth(line)
        );
    }
    assert_eq!(report.text, committed, "repro_output.txt differs in length");

    let mut ids: Vec<&str> = report.json.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids.len(), 21, "E1–E21 each write one record");
    for (id, body) in &report.json {
        assert_eq!(
            body,
            &read(&format!("results/{id}.json")),
            "results/{id}.json"
        );
    }
    // No committed record is left without an experiment behind it.
    ids.sort_unstable();
    let mut files: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("results/ exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter_map(|name| Some(name.strip_suffix(".json")?.to_owned()))
        .collect();
    files.sort_unstable();
    assert_eq!(files, ids);
}
