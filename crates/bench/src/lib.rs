//! Shared infrastructure for the experiment binaries.
//!
//! Each `e*` binary regenerates one experiment from DESIGN.md and
//! prints its table(s). This crate provides the tiny pieces they share
//! (a fixed-width table printer and a no-dependency CLI argument
//! parser) and the experiments that other binaries also run, so each
//! is defined once: the E1 cohort ([`e1`]) and the fault campaign that
//! E8 projects ([`campaign`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod campaign;
pub mod e1;

/// A minimal fixed-width table printer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Serializes `report` as pretty JSON, writes it to `path`, and echoes
/// the JSON to stdout — the shared tail of every `bench_*` binary, so
/// perf baselines land in version control in one consistent shape.
///
/// # Panics
///
/// Panics if the report fails to serialize or the file cannot be
/// written (a bench run without its artifact is a failed run).
pub fn write_report<T: serde::Serialize>(report: &T, path: &str) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("{json}");
    println!("\nwrote {path}");
}

/// Enforces a CI smoke budget: if `measured_ms` exceeds `ceiling_ms`
/// the process exits nonzero with a diagnostic naming `workload`.
/// Ceilings are meant to be generous — they catch order-of-magnitude
/// regressions, not jitter.
pub fn smoke_budget(workload: &str, measured_ms: f64, ceiling_ms: f64) {
    if measured_ms > ceiling_ms {
        eprintln!(
            "SMOKE BUDGET EXCEEDED: {workload} took {measured_ms:.1} ms (ceiling {ceiling_ms} ms)"
        );
        std::process::exit(1);
    }
    println!("smoke budget OK: {workload} in {measured_ms:.1} ms (ceiling {ceiling_ms} ms)");
}

/// Parses `--key value` and `--flag` arguments.
///
/// ```
/// use mcps_bench::Args;
/// let args = Args::parse_from(["--patients", "40", "--quick"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_u64("patients", 10), 40);
/// assert!(args.has_flag("quick"));
/// assert_eq!(args.get_f64("loss", 0.5), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process's own arguments.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (for tests).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else { continue };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    out.values.insert(key.to_owned(), iter.next().unwrap());
                }
                _ => out.flags.push(key.to_owned()),
            }
        }
        out
    }

    /// A `u64` value or its default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A `u64` value, or `None` if absent/unparseable.
    pub fn get_u64_opt(&self, key: &str) -> Option<u64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    /// An `f64` value or its default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A string value or its default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values.get(key).cloned().unwrap_or_else(|| default.to_owned())
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// A chain of N independent timers each counting to `bound` — the
/// reachable state space grows like `bound^N`. The standard workload
/// for checker throughput measurements (`checker` criterion bench, the
/// `bench_checker` baseline binary and the CI smoke budget all share
/// it so their numbers are comparable).
pub fn timer_chain(n: usize, bound: u32) -> mcps_safety::checker::Network {
    use mcps_safety::automaton::{Action, Automaton, Guard};
    let automata = (0..n)
        .map(|i| {
            let mut b = Automaton::builder(&format!("timer{i}"));
            let x = b.clock("x");
            let run = b.location("Run");
            let done = b.location("Done");
            b.invariant(run, Guard::Le(x, bound));
            b.edge("fire", run, done, Guard::Ge(x, bound), Action::Internal, vec![x]);
            b.edge("restart", done, run, Guard::True, Action::Internal, vec![x]);
            b.build()
        })
        .collect();
    mcps_safety::checker::Network::new(automata)
}

/// Formats a float compactly for tables.
pub fn fnum(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["arm", "events"]);
        t.row(["open-loop", "12"]);
        t.row(["ticket-interlock", "0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("arm"));
        assert!(lines[2].starts_with("open-loop"));
        let col = lines[0].find("events").unwrap();
        assert_eq!(&lines[2][col..col + 2], "12");
    }

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::parse_from(
            ["--n", "5", "--quick", "--rate", "2.5"].iter().map(|s| s.to_string()),
        );
        assert_eq!(a.get_u64("n", 0), 5);
        assert!((a.get_f64("rate", 0.0) - 2.5).abs() < 1e-12);
        assert!(a.has_flag("quick"));
        assert!(!a.has_flag("missing"));
        assert_eq!(a.get_u64("absent", 7), 7);
    }

    #[test]
    fn fnum_scales_precision() {
        assert_eq!(fnum(1234.5), "1234");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(1.234), "1.23");
    }
}
