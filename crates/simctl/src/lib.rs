//! `simctl` — one inspector for every artifact a run leaves behind.
//!
//! The write sides live in `telemetry`; this crate is the read side,
//! one subcommand group per artifact family:
//!
//! * `simctl trace …` — causal flight-recorder dumps ([`trace`]);
//! * `simctl health …` — health snapshots and fleet rollups ([`health`]);
//! * `simctl perf …` — run profiles and the perf-baseline gate ([`perf`]);
//! * `simctl time …` — TSL1 timeline dumps ([`time`]).
//!
//! The groups share one argument parser ([`Args`]), one file loader
//! ([`load`]), one usage text ([`usage`]) and one exit-code contract:
//! [`run`] returns the text to print with exit code 0, or 1 when a
//! `diff` or `regress` found a difference; `Err` is a usage, I/O or
//! parse error, which `main` prints to stderr with exit code 2. Every
//! renderer returns a `String` so tests assert on output verbatim; only
//! `main` prints.

pub mod health;
pub mod perf;
pub mod time;
pub mod trace;

use std::fmt::Display;
use std::str::FromStr;

/// What a subcommand produced: stdout text and exit code, or a
/// stderr message (exit code 2).
pub type Outcome = Result<(String, i32), String>;

/// CLI usage text.
pub fn usage() -> String {
    [
        "simctl — inspect run artifacts",
        "",
        "usage:",
        "  simctl trace summary <dump.bin> [--json]",
        "  simctl trace grep <dump.bin> [--component <prefix>] [--flow <id>]",
        "  simctl trace chain <dump.bin> [<flow>] [--json]",
        "  simctl trace diff <a.bin> <b.bin>",
        "  simctl health summary <health.json> [--json]",
        "  simctl health alerts <health.json> [--rule <r>] [--network <n>] [--severity <s>] [--json]",
        "  simctl health explain <health.json> [<idx>] [--trace <dump.bin>]",
        "  simctl health diff <a.json> <b.json>",
        "  simctl perf summary <runprof.json>",
        "  simctl perf diff <a.json> <b.json>",
        "  simctl perf regress <current.json>... --baseline <BENCH_simperf.json> [--tolerance 30%] [--strict]",
        "  simctl time summary <dump.bin>",
        "  simctl time query <dump.bin> <series> [--from <ms>] [--to <ms>]",
        "                    [--bucket <ms>] [--agg <mean|max|min|sum|count|last>]",
        "  simctl time plot <dump.bin> <series> [--from <ms>] [--to <ms>] [--width <cols>]",
        "  simctl time export <dump.bin> --csv [--series <prefix>]",
        "  simctl time diff <a.bin> <b.bin>",
        "",
        "exit status: 0 ok, 1 diff/regress found a difference, 2 usage or input error",
        "",
    ]
    .join("\n")
}

/// Dispatch a full argv (without the program name).
pub fn run(args: &[String]) -> Outcome {
    let Some((group, rest)) = args.split_first() else {
        return Err(usage());
    };
    match group.as_str() {
        "trace" => trace::run(rest),
        "health" => health::run(rest),
        "perf" => perf::run(rest),
        "time" => time::run(rest),
        _ => Err(usage()),
    }
}

/// One subcommand's arguments: positionals in order, plus the flags the
/// subcommand declares — valued ones as `--name value` or
/// `--name=value` (the last one given wins), switches as `--name`. An
/// undeclared flag is a usage error.
#[derive(Debug, Default)]
pub struct Args {
    pub pos: Vec<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Parse `argv` (after the subcommand name). Flag names are given
    /// without their leading `--`.
    pub fn parse(
        argv: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                out.pos.push(arg.clone());
                continue;
            };
            let (name, inline) = match flag.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (flag, None),
            };
            if let Some(&name) = valued.iter().find(|&&v| v == name) {
                let value = match inline {
                    Some(v) => v.to_owned(),
                    None => it
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                };
                out.values.push((name, value));
            } else if let (Some(&name), None) = (switches.iter().find(|&&s| s == name), inline) {
                out.switches.push(name);
            } else {
                return Err(format!("unknown argument {arg}\n{}", usage()));
            }
        }
        Ok(out)
    }

    /// Was switch `--name` given?
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` parsed as `T`.
    pub fn parsed<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("bad --{name} value {v}: {e}"))
            })
            .transpose()
    }

    /// The positionals, when there are between `min` and `max` of them.
    pub fn positional(&self, min: usize, max: usize) -> Result<&[String], String> {
        if (min..=max).contains(&self.pos.len()) {
            Ok(&self.pos)
        } else {
            Err(usage())
        }
    }
}

/// Parse an optional positional (`chain <dump> [<flow>]`, `explain
/// <health> [<idx>]`).
pub fn parse_pos<T>(v: Option<&String>, what: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    v.map(|v| v.parse().map_err(|e| format!("bad {what} {v}: {e}")))
        .transpose()
}

/// Read `path` and parse it; errors name the file.
pub fn load<T>(path: &str, parse: impl FnOnce(&[u8]) -> Result<T, String>) -> Result<T, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&bytes).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// [`load`] for text formats.
pub fn load_text<T>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    load(path, |b| {
        parse(std::str::from_utf8(b).map_err(|e| e.to_string())?)
    })
}

/// A `diff` verdict as output plus exit code (1 when the inputs differ).
pub fn verdict((out, same): (String, bool)) -> (String, i32) {
    (out, i32::from(!same))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_take_both_flag_forms_and_reject_unknown_flags() {
        let a = Args::parse(
            &own(&["x", "--flow", "3", "--component=mac.", "--json", "y"]),
            &["flow", "component"],
            &["json"],
        )
        .unwrap();
        assert_eq!(a.pos, ["x", "y"]);
        assert_eq!(a.get("component"), Some("mac."));
        assert_eq!(a.parsed::<u64>("flow").unwrap(), Some(3));
        assert!(a.has("json"));
        assert!(a.positional(2, 2).is_ok());
        assert!(a.positional(1, 1).is_err());

        assert!(Args::parse(&own(&["--bogus"]), &[], &["json"]).is_err());
        assert!(Args::parse(&own(&["--json=1"]), &[], &["json"]).is_err());
        assert!(Args::parse(&own(&["--flow"]), &["flow"], &[]).is_err());
        let bad = Args::parse(&own(&["--flow=x"]), &["flow"], &[]).unwrap();
        assert!(bad.parsed::<u64>("flow").is_err());
    }

    #[test]
    fn run_rejects_unknown_groups() {
        assert!(run(&[]).is_err());
        assert!(run(&own(&["nonsense"])).is_err());
        assert!(run(&own(&["trace"])).is_err());
    }
}
