//! speccheck — spec-anchored compliance lint.
//!
//! Ties every MUST clause condensed from the RFCs and the IMC'17 paper
//! (registry under `specs/`, see [`registry`]) to the code that
//! implements it and the test that enforces it, via `//= spec:
//! <clause-id>` source annotations (see [`annotations`]). CI runs
//! `speccheck summary` and fails when a MUST clause lacks either side,
//! when an annotation cites a clause that does not exist, or when the
//! cited source line is gone (see [`coverage`]).
//!
//! Subcommands, in the `simctl` house style:
//!
//! - `summary` (default) — per-spec coverage table and verdict;
//! - `uncovered` — every clause missing impl or test, MUST gaps
//!   marked FATAL;
//! - `json` — byte-stable machine-readable report (CI double-runs it
//!   and `cmp`s the bytes).
//!
//! All subcommands take `--root <dir>` (default: the workspace root
//! containing this crate) and exit 0/1 on pass/fail; usage, I/O and
//! registry-parse errors exit 2.

pub mod annotations;
pub mod coverage;
pub mod registry;

use coverage::Report;
use std::path::{Path, PathBuf};

fn usage() -> String {
    [
        "usage: speccheck [summary|uncovered|json] [--root <dir>] [--json]",
        "  summary    per-spec coverage table and pass/fail verdict (default)",
        "  uncovered  clauses missing an impl or test citation; MUST gaps are FATAL",
        "  json       byte-stable JSON report",
        "  --root     workspace root holding specs/ and crates/ (default: this repo)",
        "  --json     alias for the json subcommand",
    ]
    .join("\n")
}

fn default_root() -> PathBuf {
    // crates/speccheck -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

/// Build the coverage report for the workspace at `root`.
pub fn report(root: &Path) -> Result<Report, String> {
    let reg = registry::load(root)?;
    let (citations, problems) = annotations::scan_workspace(root)?;
    Ok(Report::build(&reg, &citations, &problems))
}

/// Dispatch a full argv (without the program name). Returns the output
/// to print and the process exit code; `Err` is a usage/IO/registry
/// error whose message goes to stderr with exit code 2.
pub fn run(args: &[String]) -> Result<(String, i32), String> {
    let mut cmd: Option<&str> = None;
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "summary" | "uncovered" | "json" => {
                if cmd.is_some() {
                    return Err(format!("more than one subcommand\n{}", usage()));
                }
                cmd = Some(a.as_str());
            }
            "--json" => cmd = Some("json"),
            "--root" => {
                let dir = it
                    .next()
                    .ok_or_else(|| format!("--root needs a directory\n{}", usage()))?;
                root = PathBuf::from(dir);
            }
            other => {
                if let Some(dir) = other.strip_prefix("--root=") {
                    root = PathBuf::from(dir);
                } else {
                    return Err(format!("unknown argument {other}\n{}", usage()));
                }
            }
        }
    }
    let report = report(&root)?;
    let out = match cmd.unwrap_or("summary") {
        "uncovered" => report.render_uncovered(),
        "json" => report.render_json(),
        _ => report.render_summary(),
    };
    Ok((out, report.exit_code()))
}
