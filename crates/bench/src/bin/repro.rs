//! `repro` — regenerates every experiment behind EXPERIMENTS.md.
//!
//! Usage:
//!   cargo run -p seco-bench --bin repro            # all experiments
//!   cargo run -p seco-bench --bin repro e6 e8      # selected ones
//!
//! Each experiment prints a human-readable table and writes its JSON
//! record to `results/<id>.json` so the numbers in EXPERIMENTS.md are
//! diffable against re-runs. The experiments themselves are
//! `seco_bench::repro::run`.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = seco_bench::repro::run(&args)?;
    print!("{}", report.text);
    std::fs::create_dir_all("results")?;
    for (id, body) in &report.json {
        std::fs::write(format!("results/{id}.json"), body)?;
    }
    Ok(())
}
