//! `simctl perf` — inspect run profiles and gate on the perf baseline.
//!
//! The write side lives in `telemetry::runprof` (the `--runprof`
//! sidecar every bench binary can emit) and in the bench harness's
//! `--perf` fragments merged into `BENCH_simperf.json`. The renderers
//! here read both through the generic `telemetry::json` value parser:
//!
//! * `summary <runprof.json>` — watermarks, stage wall times,
//!   allocation counters, peak RSS, and throughput samples;
//! * `diff <a.json> <b.json>` — determinism triage: the
//!   `deterministic` sections must match structurally (exit 1 naming
//!   the first diverging path otherwise); wall-clock sections are
//!   reported as deltas, never compared for equality;
//! * `regress <current>... --baseline BENCH_simperf.json [--tolerance
//!   30%]` — the CI perf gate: every throughput label present in both
//!   current and baseline must stay above `(1 − tolerance) × baseline`
//!   events/sec. Multiple current files fold best-per-label (best-of-N
//!   runs); accepts `--perf` fragments, merged `BENCH_simperf.json`
//!   files, and `--runprof` sidecars. With `--strict`, baseline labels
//!   the current run did not measure fail the gate instead of printing
//!   "(not measured)" and passing — the full-grid invocation in
//!   `scripts/run_experiments.sh` uses it so a bench dropping out of
//!   the grid cannot silently shrink the gate.

use crate::{load_text, Args, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::json::{self, Value};

// ---- sample extraction ---------------------------------------------

/// One throughput sample as the regress gate sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub label: String,
    pub events_per_s: f64,
    pub peak_rss_bytes: Option<u64>,
}

fn samples_from_list(list: &[Value], out: &mut Vec<Sample>) {
    for s in list {
        let (Some(label), Some(rate)) = (
            s.get("label").and_then(Value::as_str),
            s.get("events_per_s").and_then(Value::as_f64),
        ) else {
            continue;
        };
        out.push(Sample {
            label: label.to_owned(),
            events_per_s: rate,
            peak_rss_bytes: s
                .get("peak_rss_bytes")
                .and_then(Value::as_f64)
                .map(|b| b as u64),
        });
    }
}

/// Pull throughput samples out of any perf artifact this workspace
/// writes: a `--perf` fragment (`samples` at top level), a merged
/// `BENCH_simperf.json` (`benches[*].samples`), or a `--runprof`
/// sidecar (`wall_clock.samples`).
pub fn extract_samples(doc: &Value) -> Vec<Sample> {
    let mut out = Vec::new();
    if let Some(list) = doc.get("samples").and_then(Value::as_arr) {
        samples_from_list(list, &mut out);
    }
    if let Some(wc) = doc.get("wall_clock") {
        if let Some(list) = wc.get("samples").and_then(Value::as_arr) {
            samples_from_list(list, &mut out);
        }
    }
    if let Some(benches) = doc.get("benches").and_then(Value::as_arr) {
        for b in benches {
            if let Some(list) = b.get("samples").and_then(Value::as_arr) {
                samples_from_list(list, &mut out);
            }
        }
    }
    out
}

// ---- renderers ------------------------------------------------------

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Human summary of one `--runprof` sidecar.
pub fn summary(doc: &Value) -> Result<String, String> {
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("not a runprof sidecar: missing \"bench\"")?;
    let mut out = String::new();
    let _ = writeln!(out, "run profile: {bench}");

    let watermarks = doc
        .get("deterministic")
        .and_then(|d| d.get("watermarks"))
        .ok_or("not a runprof sidecar: missing deterministic.watermarks")?;
    if let Value::Obj(m) = watermarks {
        let _ = writeln!(out, "watermarks ({}):", m.len());
        for (k, v) in m {
            let _ = writeln!(out, "  {:<28} {}", k, v.as_f64().unwrap_or(0.0) as u64);
        }
    }

    let wc = doc
        .get("wall_clock")
        .ok_or("not a runprof sidecar: missing wall_clock")?;
    if let Some(stages) = wc.get("stages").and_then(Value::as_arr) {
        // Heaviest stages first; ties broken by name so the listing is
        // stable for a given input file.
        let mut rows: Vec<(&str, f64, f64, f64, f64)> = stages
            .iter()
            .filter_map(|s| {
                Some((
                    s.get("stage")?.as_str()?,
                    s.get("calls")?.as_f64()?,
                    s.get("total_ns")?.as_f64()?,
                    s.get("min_ns")?.as_f64()?,
                    s.get("max_ns")?.as_f64()?,
                ))
            })
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(b.0)));
        let _ = writeln!(out, "stages ({}):", rows.len());
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12}",
            "stage", "calls", "total", "min", "max"
        );
        for (name, calls, total, min, max) in rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12}",
                name,
                calls as u64,
                fmt_ns(total),
                fmt_ns(min),
                fmt_ns(max)
            );
        }
    }
    if let Some(alloc) = wc.get("alloc") {
        let installed = matches!(alloc.get("installed"), Some(Value::Bool(true)));
        if installed {
            let g = |k: &str| alloc.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let _ = writeln!(
                out,
                "alloc: {} allocs, {} frees, live {}, peak {}",
                g("allocs"),
                g("frees"),
                fmt_bytes(g("live_bytes")),
                fmt_bytes(g("peak_bytes"))
            );
        } else {
            let _ = writeln!(
                out,
                "alloc: not counted (build with --features bench/alloc-count)"
            );
        }
    }
    match wc.get("peak_rss_bytes") {
        Some(Value::Num(b)) => {
            let _ = writeln!(out, "peak rss: {}", fmt_bytes(*b as u64));
        }
        _ => {
            let _ = writeln!(out, "peak rss: unavailable");
        }
    }
    let samples = extract_samples(doc);
    if !samples.is_empty() {
        let _ = writeln!(out, "samples ({}):", samples.len());
        for s in &samples {
            let rss = s.peak_rss_bytes.map_or("-".to_owned(), fmt_bytes);
            let _ = writeln!(
                out,
                "  {:<28} {:>14.0} events/s  rss {}",
                s.label, s.events_per_s, rss
            );
        }
    }
    Ok(out)
}

/// Dotted-path structural comparison; returns the first diverging path.
fn first_divergence(a: &Value, b: &Value, path: &str) -> Option<String> {
    match (a, b) {
        (Value::Obj(ma), Value::Obj(mb)) => {
            for k in ma.keys().chain(mb.keys()) {
                let sub = format!("{path}.{k}");
                match (ma.get(k), mb.get(k)) {
                    (Some(va), Some(vb)) => {
                        if let Some(d) = first_divergence(va, vb, &sub) {
                            return Some(d);
                        }
                    }
                    (Some(_), None) => return Some(format!("{sub} (only in first)")),
                    (None, Some(_)) => return Some(format!("{sub} (only in second)")),
                    (None, None) => unreachable!(),
                }
            }
            None
        }
        (Value::Arr(va), Value::Arr(vb)) => {
            if va.len() != vb.len() {
                return Some(format!("{path} (length {} vs {})", va.len(), vb.len()));
            }
            va.iter()
                .zip(vb)
                .enumerate()
                .find_map(|(i, (x, y))| first_divergence(x, y, &format!("{path}[{i}]")))
        }
        _ if a == b => None,
        _ => Some(path.to_owned()),
    }
}

/// Compare two runprof sidecars: deterministic sections must match
/// (exit 1 otherwise), wall-clock stage times are reported as deltas.
pub fn diff(a: &Value, b: &Value) -> Result<(String, i32), String> {
    let da = a
        .get("deterministic")
        .ok_or("first file is not a runprof sidecar (no \"deterministic\")")?;
    let db = b
        .get("deterministic")
        .ok_or("second file is not a runprof sidecar (no \"deterministic\")")?;
    let mut out = String::new();
    let code = match first_divergence(da, db, "deterministic") {
        Some(path) => {
            let _ = writeln!(out, "DETERMINISTIC SECTIONS DIFFER: {path}");
            1
        }
        None => {
            let _ = writeln!(out, "deterministic sections identical");
            0
        }
    };

    // Wall-clock: informational deltas only. Collect stage -> total_ns.
    let stage_totals = |doc: &Value| -> BTreeMap<String, f64> {
        doc.get("wall_clock")
            .and_then(|w| w.get("stages"))
            .and_then(Value::as_arr)
            .map(|stages| {
                stages
                    .iter()
                    .filter_map(|s| {
                        Some((
                            s.get("stage")?.as_str()?.to_owned(),
                            s.get("total_ns")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (ta, tb) = (stage_totals(a), stage_totals(b));
    if !ta.is_empty() || !tb.is_empty() {
        let _ = writeln!(out, "wall-clock stage deltas (informational):");
        for stage in ta
            .keys()
            .chain(tb.keys())
            .collect::<std::collections::BTreeSet<_>>()
        {
            match (ta.get(stage), tb.get(stage)) {
                (Some(&x), Some(&y)) => {
                    let pct = if x > 0.0 { (y / x - 1.0) * 100.0 } else { 0.0 };
                    let _ = writeln!(
                        out,
                        "  {:<28} {:>12} -> {:>12}  ({:+.1}%)",
                        stage,
                        fmt_ns(x),
                        fmt_ns(y),
                        pct
                    );
                }
                (Some(&x), None) => {
                    let _ = writeln!(out, "  {:<28} {:>12} -> (absent)", stage, fmt_ns(x));
                }
                (None, Some(&y)) => {
                    let _ = writeln!(out, "  {:<28} (absent) -> {:>12}", stage, fmt_ns(y));
                }
                (None, None) => unreachable!(),
            }
        }
    }
    Ok((out, code))
}

/// Parse a tolerance argument: `30%` or `0.3`.
pub fn parse_tolerance(s: &str) -> Result<f64, String> {
    let (txt, div) = match s.strip_suffix('%') {
        Some(t) => (t, 100.0),
        None => (s, 1.0),
    };
    let v: f64 = txt
        .trim()
        .parse()
        .map_err(|_| format!("bad tolerance {s:?} (want e.g. \"30%\" or \"0.3\")"))?;
    let v = v / div;
    if !(0.0..1.0).contains(&v) {
        return Err(format!("tolerance {s:?} out of range [0, 1)"));
    }
    Ok(v)
}

/// The CI perf gate: fold `current` samples best-per-label, compare
/// every label shared with `baseline` against `(1 − tolerance) ×
/// baseline`. Exit 1 on any regression, error (exit 2 in the CLI) when
/// no label overlaps. By default a baseline label absent from the
/// current run prints "(not measured)" and still passes — handy when
/// gating a single bench against the full-grid baseline; with `strict`
/// (the full grid itself) every baseline label must be measured, so a
/// bench silently dropping out of the grid fails the gate instead of
/// shrinking it.
pub fn regress(
    current: &[Vec<Sample>],
    baseline: &[Sample],
    tolerance: f64,
    strict: bool,
) -> Result<(String, i32), String> {
    let mut best: BTreeMap<&str, f64> = BTreeMap::new();
    for run in current {
        for s in run {
            let e = best.entry(&s.label).or_insert(f64::NEG_INFINITY);
            *e = e.max(s.events_per_s);
        }
    }
    let base: BTreeMap<&str, f64> = baseline
        .iter()
        .map(|s| (s.label.as_str(), s.events_per_s))
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14} {:>8}  verdict",
        "label", "baseline/s", "current/s", "ratio"
    );
    let mut compared = 0usize;
    let mut regressions = 0usize;
    let mut unmeasured = 0usize;
    for (label, &b) in &base {
        let Some(&c) = best.get(label) else {
            unmeasured += 1;
            let _ = writeln!(
                out,
                "{label:<28} {b:>14.0} {:>14} {:>8}  (not measured){}",
                "-",
                "-",
                if strict { " STRICT FAIL" } else { "" }
            );
            continue;
        };
        compared += 1;
        let ratio = if b > 0.0 { c / b } else { 1.0 };
        let ok = c >= (1.0 - tolerance) * b;
        if !ok {
            regressions += 1;
        }
        let _ = writeln!(
            out,
            "{:<28} {:>14.0} {:>14.0} {:>8.2}  {}",
            label,
            b,
            c,
            ratio,
            if ok { "ok" } else { "REGRESSION" }
        );
    }
    for label in best.keys() {
        if !base.contains_key(label) {
            let _ = writeln!(out, "{label:<28} (no baseline entry; not gated)");
        }
    }
    if compared == 0 {
        return Err("no label overlaps between current samples and the baseline".to_owned());
    }
    let strict_failed = strict && unmeasured > 0;
    let _ = writeln!(
        out,
        "{compared} label(s) gated at {:.0}% tolerance: {}{}",
        tolerance * 100.0,
        if regressions == 0 {
            "all ok".to_owned()
        } else {
            format!("{regressions} REGRESSION(S)")
        },
        if strict_failed {
            format!("; {unmeasured} baseline label(s) not measured (--strict)")
        } else {
            String::new()
        }
    );
    Ok((out, i32::from(regressions > 0 || strict_failed)))
}

// ---- CLI ------------------------------------------------------------

fn load(path: &str) -> Result<Value, String> {
    load_text(path, json::parse)
}

/// Dispatch `simctl perf <subcommand> …`.
pub fn run(args: &[String]) -> Outcome {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(crate::usage());
    };
    match cmd.as_str() {
        "summary" => {
            let a = Args::parse(rest, &[], &[])?;
            Ok((summary(&load(&a.positional(1, 1)?[0])?)?, 0))
        }
        "diff" => {
            let a = Args::parse(rest, &[], &[])?;
            let pos = a.positional(2, 2)?;
            diff(&load(&pos[0])?, &load(&pos[1])?)
        }
        "regress" => {
            let a = Args::parse(rest, &["baseline", "tolerance"], &["strict"])?;
            let current = a.positional(1, usize::MAX)?;
            let baseline = a.get("baseline").ok_or_else(crate::usage)?;
            let tolerance = match a.get("tolerance") {
                Some(t) => parse_tolerance(t)?,
                None => 0.30,
            };
            let base_samples = extract_samples(&load(baseline)?);
            if base_samples.is_empty() {
                return Err(format!("{baseline}: no samples found"));
            }
            let mut cur = Vec::new();
            for p in current {
                let s = extract_samples(&load(p)?);
                if s.is_empty() {
                    return Err(format!("{p}: no samples found"));
                }
                cur.push(s);
            }
            regress(&cur, &base_samples, tolerance, a.has("strict"))
        }
        _ => Err(crate::usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAGMENT: &str = r#"{
  "bench": "fig18",
  "samples": [
    { "label": "fig18_multi_ap", "events": 1000000, "wall_s": 2, "events_per_s": 500000, "peak_rss_bytes": 104857600 }
  ]
}
"#;

    const MERGED: &str = r#"{
  "benches": [
    { "bench": "fig18", "samples": [
      { "label": "fig18_multi_ap", "events": 900000, "wall_s": 2, "events_per_s": 450000, "peak_rss_bytes": null }
    ] },
    { "bench": "fleet_scale", "samples": [
      { "label": "fleet_1000x8_plans", "events": 1000, "wall_s": 1, "events_per_s": 1000 }
    ] }
  ]
}
"#;

    const RUNPROF: &str = r#"{
  "bench": "fig18",
  "deterministic": {
    "watermarks": {
      "flight.ring.records": 3072,
      "sim.queue.arena_peak": 512
    }
  },
  "wall_clock": {
    "note": "non-deterministic host measurements; never byte-compare",
    "stages": [
      { "stage": "fig18.run", "calls": 1, "total_ns": 2000000000, "min_ns": 2000000000, "max_ns": 2000000000 },
      { "stage": "testbed.run", "calls": 3, "total_ns": 1800000000, "min_ns": 500000000, "max_ns": 700000000 }
    ],
    "alloc": { "installed": true, "allocs": 1000, "frees": 900, "live_bytes": 4096, "peak_bytes": 1048576 },
    "peak_rss_bytes": 104857600,
    "samples": [
      { "label": "fig18_multi_ap", "events": 1000000, "wall_s": 2, "events_per_s": 500000, "peak_rss_bytes": 104857600 }
    ]
  }
}
"#;

    #[test]
    fn parses_every_artifact_shape() {
        for (doc, want) in [(FRAGMENT, 1), (MERGED, 2), (RUNPROF, 1)] {
            let v = json::parse(doc).unwrap();
            assert_eq!(extract_samples(&v).len(), want);
        }
    }

    #[test]
    fn summary_renders_all_sections() {
        let v = json::parse(RUNPROF).unwrap();
        let s = summary(&v).unwrap();
        assert!(s.contains("run profile: fig18"), "{s}");
        assert!(s.contains("sim.queue.arena_peak"), "{s}");
        assert!(s.contains("fig18.run"), "{s}");
        assert!(s.contains("peak rss: 100.0 MiB"), "{s}");
        assert!(s.contains("1000 allocs"), "{s}");
        assert!(s.contains("500000 events/s"), "{s}");
        // Byte-stable: same input, same output.
        assert_eq!(s, summary(&v).unwrap());
    }

    #[test]
    fn summary_rejects_non_runprof_input() {
        let v = json::parse(FRAGMENT).unwrap();
        assert!(summary(&v).is_err());
    }

    #[test]
    fn diff_passes_identical_deterministic_sections() {
        let a = json::parse(RUNPROF).unwrap();
        // Same deterministic content, different wall-clock numbers.
        let b_text = RUNPROF.replace("2000000000", "3000000000");
        let b = json::parse(&b_text).unwrap();
        let (out, code) = diff(&a, &b).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("deterministic sections identical"), "{out}");
        assert!(out.contains("+50.0%"), "{out}");
    }

    #[test]
    fn diff_names_the_first_diverging_watermark() {
        let a = json::parse(RUNPROF).unwrap();
        let b = json::parse(&RUNPROF.replace("512", "640")).unwrap();
        let (out, code) = diff(&a, &b).unwrap();
        assert_eq!(code, 1);
        assert!(
            out.contains("deterministic.watermarks.sim.queue.arena_peak"),
            "{out}"
        );
    }

    #[test]
    fn regress_passes_identical_samples() {
        let v = json::parse(MERGED).unwrap();
        let samples = extract_samples(&v);
        let runs = [samples.clone()];
        let (out, code) = regress(&runs, &samples, 0.30, false).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("all ok"), "{out}");
        // Byte-stable across invocations.
        let (again, _) = regress(&runs, &samples, 0.30, false).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn regress_fails_a_40_percent_slowdown() {
        let v = json::parse(MERGED).unwrap();
        let baseline = extract_samples(&v);
        let mut slow = baseline.clone();
        for s in &mut slow {
            s.events_per_s *= 0.6;
        }
        let (out, code) = regress(&[slow], &baseline, 0.30, false).unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("REGRESSION"), "{out}");
    }

    #[test]
    fn regress_takes_best_of_n_current_runs() {
        let v = json::parse(MERGED).unwrap();
        let baseline = extract_samples(&v);
        let mut slow = baseline.clone();
        for s in &mut slow {
            s.events_per_s *= 0.5;
        }
        // One bad run plus one good run: best-of-N must pass.
        let (out, code) = regress(&[slow, baseline.clone()], &baseline, 0.30, false).unwrap();
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn regress_ignores_unshared_labels_but_requires_overlap() {
        let baseline = vec![Sample {
            label: "only_in_baseline".to_owned(),
            events_per_s: 100.0,
            peak_rss_bytes: None,
        }];
        let current = vec![vec![Sample {
            label: "only_in_current".to_owned(),
            events_per_s: 100.0,
            peak_rss_bytes: None,
        }]];
        assert!(regress(&current, &baseline, 0.30, false).is_err());
    }

    #[test]
    fn regress_strict_fails_unmeasured_baseline_labels() {
        let v = json::parse(MERGED).unwrap();
        let baseline = extract_samples(&v);
        // Current run measured only one of the two baseline labels.
        let current = vec![baseline
            .iter()
            .filter(|s| s.label == "fig18_multi_ap")
            .cloned()
            .collect::<Vec<_>>()];
        let (out, code) = regress(&current, &baseline, 0.30, false).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("(not measured)"), "{out}");
        let (out, code) = regress(&current, &baseline, 0.30, true).unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("STRICT FAIL"), "{out}");
        assert!(out.contains("not measured (--strict)"), "{out}");
    }

    #[test]
    fn tolerance_accepts_percent_and_fraction() {
        assert_eq!(parse_tolerance("30%").unwrap(), 0.30);
        assert_eq!(parse_tolerance("0.3").unwrap(), 0.3);
        assert!(parse_tolerance("150%").is_err());
        assert!(parse_tolerance("nope").is_err());
    }

    #[test]
    fn summary_of_a_deeply_nested_file_is_an_error_not_an_abort() {
        let dir = std::env::temp_dir().join("simctl-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("nested.json");
        std::fs::write(&p, "[".repeat(1_000_000)).unwrap();
        let path = p.to_string_lossy().to_string();
        let err = run(&["summary".to_owned(), path]).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn cli_usage_errors_on_bad_invocations() {
        assert!(run(&[]).is_err());
        assert!(run(&["summary".to_owned()]).is_err());
        assert!(run(&["regress".to_owned(), "x.json".to_owned()]).is_err());
    }
}
