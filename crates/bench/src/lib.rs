//! The experiment harness behind the `experiment` binary.
//!
//! Each paper claim, and each scale study, is one row of
//! [`EXPERIMENT_TABLE`]: the registry scenario(s) it runs, a `derive` step
//! that attaches the claim's columns to the finished [`RunReport`], and
//! the text table it renders.  `experiment run <name>` runs one row and
//! emits a human table ([`print_report_table`]) or the report's JSON
//! (`--json`); `experiment all` runs every row in one process.  This
//! library holds the table, the shared CLI ([`BenchCli`]) and the table
//! renderer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;

pub use experiments::{reports_json, Experiment, EXPERIMENT_TABLE};

use sdr_core::scenario::{RunReport, ScenarioSpec};
use sdr_sim::SimDuration;

/// What every CLI error prints after its message.
pub const USAGE: &str = "usage: experiment <list | run <name> | all> \
                         [--json] [--seeds N | --seeds a,b,c] [--duration SECS]\n\
                         env: QUICKSTART_SIM_SECS caps the duration when --duration is absent";

/// Seed override: an explicit list or a replication count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeedArg {
    /// Run this many seeds, derived from the spec's base seed.
    Count(u64),
    /// Run exactly these seeds.
    List(Vec<u64>),
}

/// The flags every experiment shares.
///
/// * `--json` — emit the [`RunReport`] as JSON instead of text tables.
/// * `--seeds a,b,c` — replace the spec's seed list (comma-separated);
///   a single integer `--seeds N` instead derives `N` seeds from the
///   spec's base seed.
/// * `--duration SECS` — override the spec's virtual run length.
///
/// The `QUICKSTART_SIM_SECS` environment variable acts as a default
/// `--duration` (CI uses it to shrink every run); an explicit flag wins.
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// Emit JSON instead of text.
    pub json: bool,
    /// Seed override.
    pub seeds: Option<SeedArg>,
    /// Duration override.
    pub duration: Option<SimDuration>,
}

impl BenchCli {
    /// Parses the flags; bad input is an `Err` naming it, which the
    /// caller prints above [`USAGE`] before exiting 2.
    pub fn try_from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = BenchCli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => cli.json = true,
                "--seeds" => {
                    let v = args.next().ok_or("--seeds needs a value")?;
                    cli.seeds = Some(parse_seeds(&v)?);
                }
                "--duration" => {
                    let v = args.next().ok_or("--duration needs seconds")?;
                    cli.duration = Some(parse_duration(&v)?);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if cli.duration.is_none() {
            if let Some(secs) = std::env::var("QUICKSTART_SIM_SECS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                cli.duration = Some(SimDuration::from_secs(secs));
            }
        }
        Ok(cli)
    }

    /// Applies the overrides to a spec.
    pub fn apply(&self, spec: &mut ScenarioSpec) {
        match &self.seeds {
            Some(SeedArg::List(seeds)) => spec.seeds = seeds.clone(),
            Some(SeedArg::Count(n)) => {
                let base = spec.config.seed;
                spec.seeds = (0..*n).map(|i| base.wrapping_add(1_000 * i)).collect();
            }
            None => {}
        }
        if let Some(d) = self.duration {
            spec.duration = d;
            // Keep mid-run machinery inside the shortened run.
            spec.checkpoints.retain(|c| c.as_micros() <= d.as_micros());
        }
    }
}

fn parse_seeds(v: &str) -> Result<SeedArg, String> {
    let seeds = if v.contains(',') {
        let list = v.split(',').map(str::trim).filter(|s| !s.is_empty());
        let list = list.map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")));
        SeedArg::List(list.collect::<Result<_, _>>()?)
    } else {
        SeedArg::Count(v.trim().parse().map_err(|_| format!("bad seed count `{v}`"))?)
    };
    if matches!(&seeds, SeedArg::Count(0)) || matches!(&seeds, SeedArg::List(l) if l.is_empty()) {
        return Err(format!("--seeds `{v}` leaves no seeds to run"));
    }
    Ok(seeds)
}

fn parse_duration(v: &str) -> Result<SimDuration, String> {
    let secs: f64 = v.parse().map_err(|_| format!("bad --duration `{v}`"))?;
    let us = secs * 1e6;
    // `as u64` below truncates and saturates: refuse what it would turn
    // into 0 µs or clamp to u64::MAX (NaN fails both comparisons).
    if !(us >= 1.0 && us < u64::MAX as f64) {
        return Err(format!(
            "--duration `{v}` must be a positive number of seconds, at least 1 µs and under 2^64 µs"
        ));
    }
    Ok(SimDuration::from_micros(us as u64))
}

/// One column of a rendered report table.
#[derive(Clone, Copy, Debug)]
pub enum Col {
    /// The cell's display label.
    Label(&'static str),
    /// A sweep coordinate.
    Coord {
        /// Axis name in the grid.
        axis: &'static str,
        /// Column header.
        header: &'static str,
        /// Decimal places.
        prec: usize,
    },
    /// A statistics field's mean across the cell's runs (see
    /// `SystemStats::numeric_fields`).
    Field {
        /// Field name.
        field: &'static str,
        /// Column header.
        header: &'static str,
        /// Decimal places.
        prec: usize,
    },
    /// A derived metric the experiment attached (NaN renders as `-`).
    Metric {
        /// Metric name.
        name: &'static str,
        /// Column header.
        header: &'static str,
        /// Decimal places.
        prec: usize,
    },
    /// A string annotation the experiment attached.
    Annot {
        /// Annotation name.
        name: &'static str,
        /// Column header.
        header: &'static str,
    },
}

impl Col {
    fn header(&self) -> &'static str {
        match self {
            Col::Label(h) => h,
            Col::Coord { header, .. }
            | Col::Field { header, .. }
            | Col::Metric { header, .. }
            | Col::Annot { header, .. } => header,
        }
    }

    fn render(&self, cell: &sdr_core::scenario::CellReport) -> String {
        match *self {
            Col::Label(_) => cell.display_label(),
            Col::Coord { axis, prec, .. } => match cell.coord(axis) {
                Some(v) => f(v, prec),
                None => "-".into(),
            },
            Col::Field { field, prec, .. } => match cell.agg(field) {
                Some(a) => f(a.mean, prec),
                None => "-".into(),
            },
            Col::Metric { name, prec, .. } => match cell.metric(name) {
                Some(v) if v.is_finite() => f(v, prec),
                _ => "-".into(),
            },
            Col::Annot { name, .. } => cell.annotation(name).unwrap_or("-").to_string(),
        }
    }
}

/// Renders one table row per report cell using the given columns.
pub fn print_report_table(title: &str, report: &RunReport, columns: &[Col]) {
    let headers: Vec<&str> = columns.iter().map(|c| c.header()).collect();
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|cell| columns.iter().map(|c| c.render(cell)).collect())
        .collect();
    print_table(title, &headers, &rows);
}

/// Prints a fixed-width table with a title and column headers.
///
/// Rows wider than the header list get empty-header columns sized to
/// their content (rather than a silent fixed-width fallback).
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let n_cols = rows
        .iter()
        .map(Vec::len)
        .chain(std::iter::once(headers.len()))
        .max()
        .unwrap_or(0);
    let mut widths: Vec<usize> = (0..n_cols)
        .map(|i| headers.get(i).map_or(0, |h| h.len()))
        .collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line: String = (0..n_cols)
        .map(|i| format!("{:>w$}", headers.get(i).copied().unwrap_or(""), w = widths[i] + 2))
        .collect();
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let line: String = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i] + 2))
            .collect();
        println!("{line}");
    }
}

/// Formats a float with the given precision.
fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::scenario::registry;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_flags() {
        let cli = BenchCli::try_from_args(args(&["--json", "--seeds", "7,8", "--duration", "2.5"]))
            .expect("valid flags");
        assert!(cli.json);
        assert_eq!(cli.seeds, Some(SeedArg::List(vec![7, 8])));
        assert_eq!(cli.duration, Some(SimDuration::from_micros(2_500_000)));
    }

    /// Regression: each of these used to reach `Runner::run` and end in
    /// an `expect("scenario runs")` panic, or (`1e30`) clamp to u64::MAX
    /// µs and never finish.
    #[test]
    fn bad_cli_input_is_a_usage_error() {
        for bad in [
            &["--duration", "-1"][..],
            &["--duration", "0"],
            &["--duration", "nan"],
            &["--duration", "inf"],
            &["--duration", "0.0000001"],
            &["--duration", "1e30"],
            &["--duration"],
            &["--seeds", "0"],
            &["--seeds", ","],
            &["--seeds", "1,x"],
            &["--frobnicate"],
        ] {
            assert!(BenchCli::try_from_args(args(bad)).is_err(), "{bad:?} was accepted");
        }
        let tiny = BenchCli::try_from_args(args(&["--duration", "0.000001"])).expect("1 µs");
        assert_eq!(tiny.duration, Some(SimDuration::from_micros(1)));
    }

    #[test]
    fn seed_count_expands_from_spec_base() {
        let cli = BenchCli::try_from_args(args(&["--seeds", "3"])).expect("valid flags");
        let mut spec = registry::lookup("quickstart").expect("registered");
        cli.apply(&mut spec);
        assert_eq!(spec.seeds.len(), 3);
        assert_eq!(spec.seeds[0], spec.config.seed);
    }

    #[test]
    fn duration_override_drops_late_checkpoints() {
        let cli = BenchCli {
            duration: Some(SimDuration::from_secs(10)),
            ..BenchCli::default()
        };
        let mut spec = registry::lookup("e12_failover").expect("registered");
        assert!(!spec.checkpoints.is_empty());
        cli.apply(&mut spec);
        assert!(spec.checkpoints.is_empty());
        assert_eq!(spec.duration, SimDuration::from_secs(10));
    }

    #[test]
    fn wide_rows_get_content_sized_columns() {
        // Regression: rows wider than the header list used to fall back
        // to a silent width of 8; now they size to their content.
        print_table(
            "t",
            &["a"],
            &[vec!["x".into(), "a-cell-wider-than-eight".into()]],
        );
    }
}
