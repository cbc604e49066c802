//! Workspace walking, per-crate rule exemptions, and the scan driver.
//!
//! simcheck is offline: it finds every `.rs` file
//! under the workspace's source roots with `std::fs` alone (no cargo
//! metadata, no registry), attributes each file to its crate by path,
//! and applies the rule catalog minus that crate's exemptions. Files are
//! visited in sorted path order so diagnostics are themselves
//! deterministic.

use crate::lexer::lex;
use crate::rules::{check, Diagnostic, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use telemetry::json;

/// Which rules are switched off for a crate, and why. The rationale per
/// entry is documented in DESIGN.md ("Determinism rules").
pub fn crate_exemptions(crate_name: &str) -> BTreeSet<Rule> {
    let mut off = BTreeSet::new();
    match crate_name {
        // The vendored criterion shim IS the wall-clock: its entire job
        // is timing real executions with `Instant`.
        "criterion" => {
            off.insert(Rule::WallClock);
        }
        // Benchmarks measure real elapsed time next to simulated time;
        // results are reported, never fed back into a simulation.
        "bench" => {
            off.insert(Rule::WallClock);
        }
        // Everything else — the deterministic crates (sim, tcp,
        // mac80211, phy80211, fastack, chanassign, netsim, fleet,
        // telemetry, wifi-core, fleet…) plus the proptest shim and
        // simcheck itself — gets the full catalog.
        _ => {}
    }
    // `unwrap-in-lib` polices only the per-packet hot-path crates: a
    // panic there aborts a whole simulated run. Tooling, telemetry
    // readers, CLIs and the vendored test shims may panic on malformed
    // input by design.
    if !matches!(crate_name, "sim" | "mac80211" | "tcp" | "fastack") {
        off.insert(Rule::UnwrapInLib);
    }
    off
}

/// Rules in force for one crate.
pub fn rules_for(crate_name: &str) -> BTreeSet<Rule> {
    let off = crate_exemptions(crate_name);
    Rule::ALL.into_iter().filter(|r| !off.contains(r)).collect()
}

/// File-level wall-clock allowlist: individual audited modules inside
/// otherwise-deterministic crates that are permitted to read the host
/// clock. This is deliberately NOT a crate exemption — one file, one
/// audit. Each entry must document in its module header why trajectory
/// neutrality holds (measurements flow out to sidecars, never back
/// into simulation state).
pub fn audited_wall_clock_files() -> &'static [&'static str] {
    &[
        // telemetry::runprof — the host-side profiler. Wall-clock
        // readings land only in the `--runprof` sidecar's wall_clock
        // section; nothing downstream of a `WallSpan` feeds a
        // simulation decision.
        "crates/telemetry/src/runprof.rs",
    ]
}

/// Rules in force for one file (crate rules minus any file-level
/// allowlist entry).
pub fn rules_for_file(rel_path: &str) -> BTreeSet<Rule> {
    let mut rules = rules_for(&crate_of(Path::new(rel_path)));
    if audited_wall_clock_files().contains(&rel_path) {
        rules.remove(&Rule::WallClock);
    }
    rules
}

/// Attribute a workspace-relative path to its crate. Files outside
/// `crates/` (the root package's `src/`, `tests/`, `examples/`) belong
/// to the root package.
pub fn crate_of(rel_path: &Path) -> String {
    let mut comps = rel_path
        .components()
        .map(|c| c.as_os_str().to_string_lossy());
    match comps.next().as_deref() {
        Some("crates") => comps
            .next()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "imc17-ac".to_string()),
        _ => "imc17-ac".to_string(),
    }
}

/// Collect every `.rs` file under the workspace source roots, sorted.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build outputs and fixture corpora are not workspace source.
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Scan one source string as if it were `rel_path` in the workspace.
/// This is the unit CI exercises: the binary is a loop over this.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    check(rel_path, &lex(src), &rules_for_file(rel_path))
}

/// Scan the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for file in source_files(root)? {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let src = std::fs::read_to_string(&file)?;
        out.extend(scan_source(&rel.to_string_lossy(), &src));
    }
    Ok(out)
}

/// Render diagnostics as a hand-rolled JSON document (the workspace has
/// no serde; this mirrors the fleet report style).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"file\": ");
        json::string(&mut s, &d.file);
        s.push_str(&format!(
            ", \"line\": {}, \"rule\": \"{}\", \"message\": ",
            d.line,
            d.rule.id()
        ));
        json::string(&mut s, &d.message);
        s.push('}');
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!("],\n  \"count\": {}\n}}\n", diags.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of(Path::new("crates/sim/src/queue.rs")), "sim");
        assert_eq!(crate_of(Path::new("crates/fleet/src/lib.rs")), "fleet");
        assert_eq!(crate_of(Path::new("src/lib.rs")), "imc17-ac");
        assert_eq!(crate_of(Path::new("tests/end_to_end.rs")), "imc17-ac");
    }

    #[test]
    fn exemptions_only_cover_measurement_crates() {
        assert!(rules_for("sim").contains(&Rule::WallClock));
        assert!(!rules_for("bench").contains(&Rule::WallClock));
        assert!(!rules_for("criterion").contains(&Rule::WallClock));
        // Even exempt crates keep the rest of the catalog.
        assert!(rules_for("bench").contains(&Rule::HashCollections));
        assert_eq!(rules_for("sim").len(), Rule::ALL.len());
    }

    #[test]
    fn unwrap_rule_covers_only_hot_path_crates() {
        for hot in ["sim", "mac80211", "tcp", "fastack"] {
            assert!(rules_for(hot).contains(&Rule::UnwrapInLib), "{hot}");
        }
        for cold in [
            "bench",
            "telemetry",
            "fleet",
            "simcheck",
            "simctl",
            "imc17-ac",
        ] {
            assert!(!rules_for(cold).contains(&Rule::UnwrapInLib), "{cold}");
            // …but the redundant-sort rule is global.
            assert!(rules_for(cold).contains(&Rule::SortedIteration), "{cold}");
        }
    }

    #[test]
    fn scan_source_applies_crate_rules() {
        let bad = "use std::time::Instant;";
        assert_eq!(scan_source("crates/sim/src/x.rs", bad).len(), 1);
        assert_eq!(scan_source("crates/bench/src/x.rs", bad).len(), 0);
    }

    #[test]
    fn wall_clock_allowlist_is_per_file_not_per_crate() {
        let bad = "use std::time::Instant;";
        // The audited profiler module may read the host clock…
        assert_eq!(scan_source("crates/telemetry/src/runprof.rs", bad).len(), 0);
        // …but its siblings in the same crate may not.
        assert_eq!(scan_source("crates/telemetry/src/metrics.rs", bad).len(), 1);
        assert_eq!(scan_source("crates/telemetry/src/lib.rs", bad).len(), 1);
        // Allowlisted files keep every other rule.
        assert!(rules_for_file("crates/telemetry/src/runprof.rs").contains(&Rule::HashCollections));
    }

    #[test]
    fn json_shape_and_escaping() {
        let diags = vec![Diagnostic {
            file: "a\"b.rs".to_string(),
            line: 3,
            rule: Rule::FloatEq,
            message: "x\ny".to_string(),
        }];
        let j = to_json(&diags);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\u000ay"));
        assert!(to_json(&[]).contains("\"count\": 0"));
    }
}
