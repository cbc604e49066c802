//! `simctl health` — triage health snapshots produced by
//! `telemetry::health`.
//!
//! The health engine serializes each run's alert stream to canonical
//! JSON: a [`HealthReport`] (`{"steps":…`) from a single testbed run,
//! or a [`HealthRollup`] (`{"by_rule":…`) from a fleet run. The
//! renderers here read either:
//!
//! * `summary <health.json>` — steps, score, alert counts by rule and
//!   severity, and (for rollups) the worst-N networks;
//! * `alerts <health.json> [--rule <r>] [--network <n>] [--severity
//!   <s>]` — filtered alert listing;
//! * both take `--json` for a machine-readable rendering (one JSON
//!   object, byte-stable for a given snapshot);
//! * `explain <health.json> [<idx>] [--trace <dump.bin>]` — one alert
//!   in detail. With no index, picks the worst alert (highest
//!   severity, earliest raise). With `--trace`, resolves the alert's
//!   causal link through the flight dump and prints the full
//!   `simctl trace chain` for its flow;
//! * `diff <a> <b>` — determinism triage: exits 1 when the two
//!   snapshots diverge, pointing at the first difference.

use crate::{load, load_text, parse_pos, verdict, Args, Outcome};
use telemetry::flight::FlightDump;
use telemetry::health::count_map_json;
use telemetry::json;
use telemetry::{Alert, HealthReport, HealthRollup};

/// A parsed snapshot file — either kind, distinguished by the first
/// JSON key (`to_json` pins the key order, so the prefix is reliable).
#[derive(Debug, Clone)]
pub enum Loaded {
    Report(HealthReport),
    Rollup(HealthRollup),
}

impl Loaded {
    /// Parse either snapshot flavor from its canonical JSON.
    pub fn from_json(text: &str) -> Result<Loaded, String> {
        let t = text.trim_end();
        if t.starts_with("{\"by_rule\":") {
            HealthRollup::parse(t).map(Loaded::Rollup)
        } else {
            HealthReport::parse(t).map(Loaded::Report)
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Loaded::Report(_) => "report",
            Loaded::Rollup(_) => "rollup",
        }
    }

    /// The alert stream, whichever flavor holds it.
    pub fn report(&self) -> &HealthReport {
        match self {
            Loaded::Report(r) => r,
            Loaded::Rollup(r) => &r.report,
        }
    }

    /// Canonical re-serialization (used by `diff`).
    pub fn to_json(&self) -> String {
        match self {
            Loaded::Report(r) => r.to_json(),
            Loaded::Rollup(r) => r.to_json(),
        }
    }
}

// ---- JSON renderers -----------------------------------------------
//
// `Alert::to_json` is private to telemetry (it is a fragment of the
// canonical snapshot grammar), so the machine-readable listings here
// are built from the public fields with the same conventions: fixed
// key order, `{:?}` floats, minimal escaping. Output is byte-stable
// for a given snapshot — ci.sh smoke-tests it.

fn alert_json(a: &Alert, out: &mut String) {
    out.push_str("{\"component\":");
    json::string(out, &a.component);
    out.push_str(",\"rule\":");
    json::string(out, &a.rule);
    out.push_str(",\"severity\":\"");
    out.push_str(a.severity.as_str());
    out.push_str("\",\"raised_at_ns\":");
    out.push_str(&a.raised_at.as_nanos().to_string());
    out.push_str(",\"cleared_at_ns\":");
    json::opt_u64(out, a.cleared_at.map(|t| t.as_nanos()));
    out.push_str(",\"flow\":");
    json::opt_u64(out, a.cause_flow());
    out.push_str(",\"value\":");
    json::f64(out, a.value);
    out.push_str(",\"threshold\":");
    json::f64(out, a.threshold);
    out.push('}');
}

/// `summary` as one JSON object (`--json`).
pub fn summary_json(loaded: &Loaded) -> String {
    let r = loaded.report();
    let mut out = String::new();
    out.push_str("{\"kind\":\"");
    out.push_str(loaded.kind());
    out.push_str("\",\"steps\":");
    out.push_str(&r.steps.to_string());
    out.push_str(",\"alerts\":");
    out.push_str(&r.alerts.len().to_string());
    out.push_str(",\"open\":");
    out.push_str(&r.open().count().to_string());
    out.push_str(",\"score\":");
    out.push_str(&r.score().to_string());
    out.push_str(",\"by_rule\":");
    count_map_json(&r.counts_by_rule(), &mut out);
    out.push_str(",\"by_severity\":");
    count_map_json(&r.counts_by_severity(), &mut out);
    if let Loaded::Rollup(roll) = loaded {
        out.push_str(",\"worst\":[");
        for (i, (label, score)) in roll.worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::string(&mut out, label);
            out.push(',');
            out.push_str(&score.to_string());
            out.push(']');
        }
        out.push(']');
    }
    out.push_str("}\n");
    out
}

/// `alerts` as one JSON object (`--json`), same filter semantics and
/// canonical order as the text listing.
pub fn alerts_json(loaded: &Loaded, filter: &AlertFilter) -> String {
    let mut out = String::from("{\"alerts\":[");
    let mut n = 0;
    for a in &loaded.report().alerts {
        if filter.accepts(a) {
            if n > 0 {
                out.push(',');
            }
            alert_json(a, &mut out);
            n += 1;
        }
    }
    out.push_str("],\"matched\":");
    out.push_str(&n.to_string());
    out.push_str("}\n");
    out
}

fn alert_line(a: &Alert) -> String {
    let state = match a.cleared_at {
        Some(t) => format!("cleared {t}"),
        None => "open".to_owned(),
    };
    let cause = match a.cause_flow() {
        Some(f) => format!("  flow {f}"),
        None => String::new(),
    };
    format!(
        "{:>14}  {:<20} {:<16} {:<8} value={:.3} threshold={:.3}  {state}{cause}",
        a.raised_at.to_string(),
        a.component,
        a.rule,
        a.severity.as_str(),
        a.value,
        a.threshold,
    )
}

/// Overview: steps, score, counts by rule/severity, worst networks.
pub fn summary(loaded: &Loaded) -> String {
    let r = loaded.report();
    let open = r.open().count();
    let mut out = format!(
        "{}: {} detector steps, {} alerts ({} open), score {}\n",
        loaded.kind(),
        r.steps,
        r.alerts.len(),
        open,
        r.score(),
    );
    if r.alerts.is_empty() {
        out.push_str("no alerts\n");
        return out;
    }
    out.push_str("by rule:\n");
    for (rule, n) in r.counts_by_rule() {
        out.push_str(&format!("  {rule:<20} {n}\n"));
    }
    out.push_str("by severity:\n");
    for (sev, n) in r.counts_by_severity() {
        out.push_str(&format!("  {sev:<20} {n}\n"));
    }
    if let Loaded::Rollup(roll) = loaded {
        out.push_str("worst networks:\n");
        for (label, score) in &roll.worst {
            out.push_str(&format!("  {label:<20} score {score}\n"));
        }
    }
    out
}

/// Filters for the `alerts` listing. `network` matches a component
/// exactly or as a dotted prefix (`net3` matches `net3.sched`).
#[derive(Debug, Clone, Default)]
pub struct AlertFilter {
    pub rule: Option<String>,
    pub network: Option<String>,
    pub severity: Option<String>,
}

impl AlertFilter {
    fn accepts(&self, a: &Alert) -> bool {
        if let Some(r) = &self.rule {
            if a.rule != *r {
                return false;
            }
        }
        if let Some(n) = &self.network {
            if a.component != *n && !a.component.starts_with(&format!("{n}.")) {
                return false;
            }
        }
        if let Some(s) = &self.severity {
            if a.severity.as_str() != s {
                return false;
            }
        }
        true
    }
}

/// Alert listing, one line per alert, in canonical report order.
pub fn alerts(loaded: &Loaded, filter: &AlertFilter) -> String {
    let mut out = String::new();
    let mut n = 0;
    for a in &loaded.report().alerts {
        if filter.accepts(a) {
            out.push_str(&alert_line(a));
            out.push('\n');
            n += 1;
        }
    }
    out.push_str(&format!("{n} alerts matched\n"));
    out
}

/// The "worst" alert: highest severity first, then earliest raise.
/// Ties resolve to the lowest index, so the pick is deterministic.
pub fn worst_alert(r: &HealthReport) -> Option<usize> {
    r.alerts
        .iter()
        .enumerate()
        .min_by_key(|(_, a)| (std::cmp::Reverse(a.severity.weight()), a.raised_at))
        .map(|(i, _)| i)
}

/// One alert in detail. `idx` indexes the canonical alert order (as
/// printed by `alerts`); `None` picks the worst alert. When a flight
/// dump is supplied and the alert carries a causal link, the full
/// `simctl trace chain` for its flow is appended — the complete story from
/// TCP segment to airtime for the transmission that tripped the rule.
pub fn explain(loaded: &Loaded, idx: Option<usize>, dump: Option<&FlightDump>) -> String {
    let r = loaded.report();
    let Some(idx) = idx.or_else(|| worst_alert(r)) else {
        return "no alerts\n".to_owned();
    };
    let Some(a) = r.alerts.get(idx) else {
        return format!("no alert #{idx} (report has {})\n", r.alerts.len());
    };
    let mut out = format!("alert #{idx}\n{}\n", alert_line(a));
    match (a.cause_flow(), dump) {
        (None, _) => out.push_str("no causal link recorded for this alert\n"),
        (Some(f), None) => out.push_str(&format!(
            "causal flow {f} — rerun with --trace <dump.bin> to resolve the chain\n"
        )),
        (Some(f), Some(d)) => {
            // The section label is part of the stable output format
            // (EXPERIMENTS.md quotes it), so it keeps its wording.
            out.push_str(&format!("causal chain (tracectl chain {f}):\n"));
            out.push_str(&crate::trace::chain(d, Some(f)));
        }
    }
    out
}

/// Determinism triage. Returns the rendered report and whether the two
/// snapshots are identical (the CLI exits non-zero when they are not).
pub fn diff(a: &Loaded, b: &Loaded) -> (String, bool) {
    if a.to_json() == b.to_json() {
        return ("snapshots are byte-identical\n".to_owned(), true);
    }
    let mut out = String::from("snapshots DIFFER\n");
    let (ra, rb) = (a.report(), b.report());
    if a.kind() != b.kind() {
        out.push_str(&format!("kind: {} vs {}\n", a.kind(), b.kind()));
    }
    if ra.steps != rb.steps {
        out.push_str(&format!("steps: {} vs {}\n", ra.steps, rb.steps));
    }
    if ra.alerts.len() != rb.alerts.len() {
        out.push_str(&format!(
            "alerts: {} vs {}\n",
            ra.alerts.len(),
            rb.alerts.len()
        ));
    }
    let (ca, cb) = (ra.counts_by_rule(), rb.counts_by_rule());
    for rule in ca.keys().chain(cb.keys()) {
        let (na, nb) = (
            ca.get(rule).copied().unwrap_or(0),
            cb.get(rule).copied().unwrap_or(0),
        );
        if na != nb {
            out.push_str(&format!("rule {rule}: {na} vs {nb}\n"));
        }
    }
    if let Some(i) = ra
        .alerts
        .iter()
        .zip(rb.alerts.iter())
        .position(|(x, y)| x != y)
    {
        out.push_str(&format!(
            "first divergence at alert {i}\n  first:  {}\n  second: {}\n",
            alert_line(&ra.alerts[i]),
            alert_line(&rb.alerts[i]),
        ));
    }
    (out, false)
}

fn load_snapshot(path: &str) -> Result<Loaded, String> {
    load_text(path, Loaded::from_json)
}

/// Dispatch `simctl health <subcommand> …`.
pub fn run(args: &[String]) -> Outcome {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(crate::usage());
    };
    match cmd.as_str() {
        "summary" => {
            let a = Args::parse(rest, &[], &["json"])?;
            let loaded = load_snapshot(&a.positional(1, 1)?[0])?;
            let out = if a.has("json") {
                summary_json(&loaded)
            } else {
                summary(&loaded)
            };
            Ok((out, 0))
        }
        "alerts" => {
            let a = Args::parse(rest, &["rule", "network", "severity"], &["json"])?;
            let loaded = load_snapshot(&a.positional(1, 1)?[0])?;
            let filter = AlertFilter {
                rule: a.get("rule").map(str::to_owned),
                network: a.get("network").map(str::to_owned),
                severity: a.get("severity").map(str::to_owned),
            };
            let out = if a.has("json") {
                alerts_json(&loaded, &filter)
            } else {
                alerts(&loaded, &filter)
            };
            Ok((out, 0))
        }
        "explain" => {
            let a = Args::parse(rest, &["trace"], &[])?;
            let pos = a.positional(1, 2)?;
            let idx = parse_pos(pos.get(1), "alert index")?;
            let dump = a
                .get("trace")
                .map(|p| load(p, FlightDump::parse))
                .transpose()?;
            Ok((explain(&load_snapshot(&pos[0])?, idx, dump.as_ref()), 0))
        }
        "diff" => {
            let a = Args::parse(rest, &[], &[])?;
            let pos = a.positional(2, 2)?;
            Ok(verdict(diff(
                &load_snapshot(&pos[0])?,
                &load_snapshot(&pos[1])?,
            )))
        }
        _ => Err(crate::usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::sample as sample_dump;
    use sim::SimTime;
    use telemetry::flight::cause_for;
    use telemetry::health::RULE_AMPDU_COLLAPSE;
    use telemetry::{CauseId, Severity};

    fn mk_alert(component: &str, rule: &str, sev: Severity, at_ms: u64) -> Alert {
        Alert {
            component: component.to_owned(),
            rule: rule.to_owned(),
            severity: sev,
            raised_at: SimTime::from_millis(at_ms),
            cleared_at: None,
            cause: None,
            value: 2.0,
            threshold: 1.8,
        }
    }

    fn mk_report() -> HealthReport {
        let mut r = HealthReport {
            steps: 12,
            alerts: Vec::new(),
        };
        let mut warn = mk_alert("ap0", RULE_AMPDU_COLLAPSE, Severity::Warning, 100);
        warn.cleared_at = Some(SimTime::from_millis(300));
        r.alerts.push(warn);
        let mut crit = mk_alert("ap1", "rto-storm", Severity::Critical, 200);
        crit.cause = Some(CauseId(cause_for(3, 1460).0));
        r.alerts.push(crit);
        r
    }

    fn mk_rollup() -> HealthRollup {
        HealthRollup::rollup(
            [
                ("net0".to_owned(), &mk_report()),
                ("net1".to_owned(), &HealthReport::default()),
            ],
            5,
        )
    }

    #[test]
    fn loaded_detects_both_snapshot_kinds() {
        let rep = Loaded::from_json(&mk_report().to_json()).unwrap();
        assert_eq!(rep.kind(), "report");
        let roll = Loaded::from_json(&mk_rollup().to_json()).unwrap();
        assert_eq!(roll.kind(), "rollup");
        assert_eq!(roll.report().alerts.len(), 2);
        assert!(Loaded::from_json("{nope}").is_err());
    }

    #[test]
    fn summary_counts_rules_and_worst_networks() {
        let s = summary(&Loaded::Report(mk_report()));
        assert!(
            s.starts_with("report: 12 detector steps, 2 alerts (1 open), score 4"),
            "{s}"
        );
        assert!(s.contains("ampdu-collapse       1"), "{s}");
        assert!(s.contains("critical             1"), "{s}");

        let s = summary(&Loaded::Rollup(mk_rollup()));
        assert!(s.starts_with("rollup:"), "{s}");
        assert!(s.contains("worst networks:"), "{s}");
        assert!(s.contains("net0                 score 4"), "{s}");

        let quiet = summary(&Loaded::Report(HealthReport::default()));
        assert!(quiet.contains("no alerts"), "{quiet}");
    }

    #[test]
    fn alerts_filters_compose() {
        let l = Loaded::Rollup(mk_rollup());
        let all = alerts(&l, &AlertFilter::default());
        assert!(all.contains("2 alerts matched"), "{all}");
        let f = AlertFilter {
            rule: Some(RULE_AMPDU_COLLAPSE.to_owned()),
            ..AlertFilter::default()
        };
        assert!(alerts(&l, &f).contains("1 alerts matched"));
        let f = AlertFilter {
            network: Some("net0".to_owned()),
            ..AlertFilter::default()
        };
        assert!(alerts(&l, &f).contains("2 alerts matched"));
        let f = AlertFilter {
            network: Some("net1".to_owned()),
            ..AlertFilter::default()
        };
        assert!(alerts(&l, &f).contains("0 alerts matched"));
        let f = AlertFilter {
            severity: Some("critical".to_owned()),
            ..AlertFilter::default()
        };
        assert!(alerts(&l, &f).contains("1 alerts matched"));
    }

    #[test]
    fn explain_picks_worst_and_resolves_chain() {
        let l = Loaded::Report(mk_report());
        // Worst = the critical alert (index 1 in canonical order).
        assert_eq!(worst_alert(l.report()), Some(1));
        let out = explain(&l, None, None);
        assert!(out.contains("alert #1"), "{out}");
        assert!(out.contains("rto-storm"), "{out}");
        assert!(out.contains("rerun with --trace"), "{out}");

        let dump = sample_dump();
        let out = explain(&l, None, Some(&dump));
        assert!(out.contains("causal chain (tracectl chain 3)"), "{out}");
        assert!(out.contains("chain complete"), "{out}");

        // The warning has no causal link.
        let out = explain(&l, Some(0), Some(&dump));
        assert!(out.contains("no causal link recorded"), "{out}");

        assert!(explain(&l, Some(9), None).contains("no alert #9"));
        let empty = Loaded::Report(HealthReport::default());
        assert_eq!(explain(&empty, None, None), "no alerts\n");
    }

    #[test]
    fn json_renderers_are_canonical_and_filterable() {
        let l = Loaded::Report(mk_report());
        let s = summary_json(&l);
        assert!(
            s.starts_with("{\"kind\":\"report\",\"steps\":12,\"alerts\":2,\"open\":1,\"score\":4,"),
            "{s}"
        );
        assert!(
            s.contains("\"by_rule\":{\"ampdu-collapse\":1,\"rto-storm\":1}"),
            "{s}"
        );
        assert!(
            s.contains("\"by_severity\":{\"critical\":1,\"warning\":1}"),
            "{s}"
        );
        assert!(
            !s.contains("\"worst\""),
            "report summary has no worst list: {s}"
        );
        assert!(s.ends_with("}\n"), "{s}");

        let roll = Loaded::Rollup(mk_rollup());
        let s = summary_json(&roll);
        assert!(s.contains("\"kind\":\"rollup\""), "{s}");
        assert!(s.contains("\"worst\":[[\"net0\",4]]"), "{s}");

        let a = alerts_json(&roll, &AlertFilter::default());
        assert!(
            a.starts_with("{\"alerts\":[{\"component\":\"net0.ap0\","),
            "{a}"
        );
        assert!(a.contains("\"severity\":\"critical\""), "{a}");
        assert!(a.contains("\"flow\":3"), "{a}");
        assert!(a.contains("\"cleared_at_ns\":null"), "{a}");
        assert!(a.contains("\"value\":2.0,\"threshold\":1.8"), "{a}");
        assert!(a.ends_with("],\"matched\":2}\n"), "{a}");

        let f = AlertFilter {
            severity: Some("critical".to_owned()),
            ..AlertFilter::default()
        };
        let a = alerts_json(&roll, &f);
        assert!(a.ends_with("],\"matched\":1}\n"), "{a}");
        let none = alerts_json(
            &Loaded::Report(HealthReport::default()),
            &AlertFilter::default(),
        );
        assert_eq!(none, "{\"alerts\":[],\"matched\":0}\n");
    }

    #[test]
    fn diff_reports_identity_and_divergence() {
        let a = Loaded::Report(mk_report());
        let (out, same) = diff(&a, &a.clone());
        assert!(same, "{out}");

        let mut other = mk_report();
        other.alerts[1].severity = Severity::Warning;
        let (out, same) = diff(&a, &Loaded::Report(other));
        assert!(!same);
        assert!(out.contains("snapshots DIFFER"), "{out}");
        assert!(out.contains("first divergence at alert 1"), "{out}");

        let mut fewer = mk_report();
        fewer.alerts.pop();
        let (out, _) = diff(&a, &Loaded::Report(fewer));
        assert!(out.contains("alerts: 2 vs 1"), "{out}");
        assert!(out.contains("rule rto-storm: 1 vs 0"), "{out}");
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&["nonsense".to_owned()]).is_err());

        let dir = std::env::temp_dir().join("simctl-health-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("health.json");
        std::fs::write(&p, mk_rollup().to_json()).unwrap();
        let path = p.to_string_lossy().to_string();

        let (out, code) = run(&["summary".to_owned(), path.clone()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("rollup:"), "{out}");

        let (out, code) = run(&[
            "alerts".to_owned(),
            path.clone(),
            "--rule".to_owned(),
            RULE_AMPDU_COLLAPSE.to_owned(),
            "--network=net0".to_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("1 alerts matched"), "{out}");

        let (out, code) = run(&["summary".to_owned(), path.clone(), "--json".to_owned()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("{\"kind\":\"rollup\""), "{out}");
        let (out, code) = run(&["alerts".to_owned(), path.clone(), "--json".to_owned()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("{\"alerts\":["), "{out}");
        assert!(run(&["summary".to_owned(), path.clone(), "--bogus".to_owned()]).is_err());

        let dump_p = dir.join("dump.bin");
        std::fs::write(&dump_p, sample_dump().to_bytes()).unwrap();
        let (out, code) = run(&[
            "explain".to_owned(),
            path.clone(),
            "--trace".to_owned(),
            dump_p.to_string_lossy().to_string(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("chain complete"), "{out}");

        let (_, code) = run(&["diff".to_owned(), path.clone(), path.clone()]).unwrap();
        assert_eq!(code, 0);

        let p2 = dir.join("other.json");
        std::fs::write(&p2, mk_report().to_json()).unwrap();
        let (out, code) =
            run(&["diff".to_owned(), path, p2.to_string_lossy().to_string()]).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("snapshots DIFFER"), "{out}");

        assert!(run(&["summary".to_owned(), "/nonexistent.json".to_owned()]).is_err());
    }
}
