//! Runs the paper's experiments: `experiment list`, `experiment run
//! <name>`, `experiment all`, each with `--json`, `--seeds` and
//! `--duration` (see [`sdr_bench::BenchCli`]).  `all` runs every row of
//! [`EXPERIMENT_TABLE`] in table order, in this process; with `--json`
//! it prints one array holding each row's report.

use sdr_bench::{reports_json, BenchCli, Experiment, EXPERIMENT_TABLE, USAGE};
use serde::json::Value;

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let rows: Vec<&Experiment> = match command.as_str() {
        "list" | "all" => EXPERIMENT_TABLE.iter().collect(),
        "run" => {
            let name = args.next().unwrap_or_else(|| usage_error("run needs an experiment name"));
            vec![Experiment::find(&name)
                .unwrap_or_else(|| usage_error(&format!("no experiment `{name}` (see `experiment list`)")))]
        }
        "" => usage_error("missing command"),
        other => usage_error(&format!("unknown command `{other}`")),
    };
    let cli = BenchCli::try_from_args(args).unwrap_or_else(|e| usage_error(&e));
    if command == "list" {
        for row in rows {
            println!("{:<16} {:<11} {}", row.name, row.section, row.claim);
        }
        return;
    }

    let all = command == "all";
    let mut json = Vec::new();
    let mut failures = Vec::new();
    for row in rows {
        if all && !cli.json {
            println!("\n================ {} ================", row.name);
        }
        match row.run(&cli) {
            Ok(reports) if cli.json => json.push(reports_json(&reports)),
            Ok(reports) => row.print(&reports),
            Err(e) => {
                eprintln!("{}: {e}", row.name);
                failures.push(row.name);
            }
        }
    }
    if all && cli.json {
        json = vec![Value::Array(json)];
    }
    for value in json {
        println!("{}", value.render());
    }
    if !failures.is_empty() {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
    if all && !cli.json {
        println!("\nall experiments completed.");
    }
}
