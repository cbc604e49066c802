//! `simctl trace` — inspect causal flight-recorder dumps.
//!
//! The flight recorder (`telemetry::flight`) serializes each run's
//! last-N typed trace records to a deterministic binary dump. The
//! renderers here read parsed [`FlightDump`]s:
//!
//! * `summary <dump>` — per-component record counts, drop accounting,
//!   time range, and the flows present;
//! * `grep <dump> [--component <prefix>] [--flow <id>]` — filtered
//!   record listing;
//! * `chain <dump> [<flow>]` — the full causal chain of one flow,
//!   time-ordered across every layer (TCP segment → A-MPDU → MAC tx →
//!   BlockAck → fast ACK → airtime). With no flow argument, picks the
//!   first flow with a complete chain;
//! * `diff <a> <b>` — determinism triage: byte-compares two dumps and,
//!   when they differ, locates the first diverging component and
//!   record.
//!
//! `summary` and `chain` take `--json` for a machine-readable rendering.

use crate::{load, parse_pos, verdict, Args, Outcome};
use telemetry::flight::{FlightDump, FlightEvent};
use telemetry::json;

/// Layers (in causal order) that make a chain "complete" for the
/// paper's TCP-over-802.11ac pipeline.
const CHAIN_LAYERS: [&str; 5] = [
    "tcp-seg",
    "ampdu-build",
    "mac-tx",
    "block-ack",
    "fastack-synth",
];

/// One event as a JSON object (shared by the `--json` renderers).
fn event_json(component: &str, ev: &FlightEvent, out: &mut String) {
    out.push_str("{\"at_ns\":");
    out.push_str(&ev.at.as_nanos().to_string());
    out.push_str(",\"component\":");
    json::string(out, component);
    out.push_str(",\"layer\":");
    json::string(out, ev.record.layer());
    out.push_str(",\"flow\":");
    json::opt_u64(out, ev.flow());
    out.push_str(",\"cause\":{\"flow\":");
    out.push_str(&ev.cause.flow_hint().to_string());
    out.push_str(",\"seq\":");
    out.push_str(&ev.cause.seq_hint().to_string());
    out.push_str("},\"text\":");
    json::string(out, &ev.record.to_string());
    out.push('}');
}

fn event_line(component: &str, ev: &FlightEvent) -> String {
    let cause = ev.cause;
    format!(
        "{:>14}  {:<18} {}  (cause {}:{})",
        ev.at.to_string(),
        component,
        ev.record,
        cause.flow_hint(),
        cause.seq_hint(),
    )
}

/// Per-component overview: counts, capacity, wraparound drops, time
/// range, and which flows appear in the dump.
pub fn summary(dump: &FlightDump) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} components, {} records, {} dropped (ring wraparound)\n",
        dump.components.len(),
        dump.total_records(),
        dump.total_dropped(),
    ));
    out.push_str(&format!(
        "{:<24} {:>8} {:>10} {:>9}  time range\n",
        "component", "records", "capacity", "dropped"
    ));
    for c in &dump.components {
        let range = match (c.records.first(), c.records.last()) {
            (Some(a), Some(b)) => format!("{} .. {}", a.at, b.at),
            _ => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>9}  {range}\n",
            c.name,
            c.records.len(),
            c.capacity,
            c.dropped,
        ));
    }
    let flows = dump.flows();
    out.push_str(&format!(
        "flows: {}\n",
        if flows.is_empty() {
            "(none)".to_owned()
        } else {
            flows
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        }
    ));
    out
}

/// Machine-readable summary: component stats plus the flows present.
pub fn summary_json(dump: &FlightDump) -> String {
    let mut out = String::from("{\"components\":[");
    for (i, c) in dump.components.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::string(&mut out, &c.name);
        out.push_str(&format!(
            ",\"records\":{},\"capacity\":{},\"dropped\":{}",
            c.records.len(),
            c.capacity,
            c.dropped
        ));
        out.push_str(",\"first_ns\":");
        json::opt_u64(&mut out, c.records.first().map(|ev| ev.at.as_nanos()));
        out.push_str(",\"last_ns\":");
        json::opt_u64(&mut out, c.records.last().map(|ev| ev.at.as_nanos()));
        out.push('}');
    }
    out.push_str(&format!(
        "],\"total_records\":{},\"total_dropped\":{},\"flows\":[",
        dump.total_records(),
        dump.total_dropped()
    ));
    let flows = dump.flows();
    for (i, f) in flows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.to_string());
    }
    out.push_str("]}\n");
    out
}

/// Record listing filtered by component-name prefix and/or flow id.
pub fn grep(dump: &FlightDump, component: Option<&str>, flow: Option<u64>) -> String {
    let mut out = String::new();
    let mut lines: Vec<(&str, &FlightEvent)> = Vec::new();
    for c in &dump.components {
        if let Some(p) = component {
            if !c.name.starts_with(p) {
                continue;
            }
        }
        for ev in &c.records {
            if let Some(f) = flow {
                if ev.flow() != Some(f) {
                    continue;
                }
            }
            lines.push((c.name.as_str(), ev));
        }
    }
    lines.sort_by(|a, b| a.1.at.cmp(&b.1.at).then_with(|| a.0.cmp(b.0)));
    for (name, ev) in &lines {
        out.push_str(&event_line(name, ev));
        out.push('\n');
    }
    out.push_str(&format!("{} records matched\n", lines.len()));
    out
}

/// Which of the [`CHAIN_LAYERS`] a flow's chain covers.
fn layers_covered(chain: &[(&str, FlightEvent)]) -> Vec<&'static str> {
    CHAIN_LAYERS
        .iter()
        .copied()
        .filter(|l| chain.iter().any(|(_, ev)| ev.record.layer() == *l))
        .collect()
}

/// Resolve an explicit flow id, or auto-pick the lowest-numbered flow
/// whose chain covers every layer in [`CHAIN_LAYERS`] (falling back to
/// the first flow present at all). `None` means the dump has no flows.
fn pick_flow(dump: &FlightDump, flow: Option<u64>) -> Option<u64> {
    flow.or_else(|| {
        let flows = dump.flows();
        flows
            .iter()
            .copied()
            .find(|&f| layers_covered(&dump.chain(f)).len() == CHAIN_LAYERS.len())
            .or_else(|| flows.first().copied())
    })
}

/// The full causal chain of one flow, time-ordered across every layer.
/// With `flow = None`, picks the lowest-numbered flow whose chain
/// covers every layer in [`CHAIN_LAYERS`] (falling back to the first
/// flow present at all).
pub fn chain(dump: &FlightDump, flow: Option<u64>) -> String {
    let Some(flow) = pick_flow(dump, flow) else {
        return "no flows in dump\n".to_owned();
    };
    let chain = dump.chain(flow);
    let mut out = String::new();
    out.push_str(&format!("flow {flow}: {} records\n", chain.len()));
    for (name, ev) in &chain {
        out.push_str(&event_line(name, ev));
        out.push('\n');
    }
    let covered = layers_covered(&chain);
    let complete = covered.len() == CHAIN_LAYERS.len();
    out.push_str(&format!(
        "chain {}: {}\n",
        if complete { "complete" } else { "partial" },
        covered.join(" -> "),
    ));
    out
}

/// Machine-readable causal chain: same flow selection as [`chain`],
/// records in causal order, plus which layers are covered and whether
/// the chain is complete. A dump with no flows yields `"flow":null`.
pub fn chain_json(dump: &FlightDump, flow: Option<u64>) -> String {
    let Some(flow) = pick_flow(dump, flow) else {
        return "{\"flow\":null,\"records\":[],\"layers\":[],\"complete\":false}\n".to_owned();
    };
    let chain = dump.chain(flow);
    let mut out = format!("{{\"flow\":{flow},\"records\":[");
    for (i, (name, ev)) in chain.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        event_json(name, ev, &mut out);
    }
    out.push_str("],\"layers\":[");
    let covered = layers_covered(&chain);
    for (i, l) in covered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::string(&mut out, l);
    }
    out.push_str(&format!(
        "],\"complete\":{}}}\n",
        covered.len() == CHAIN_LAYERS.len()
    ));
    out
}

/// Determinism triage. Returns the rendered report and whether the two
/// dumps are identical (the CLI exits non-zero when they are not).
pub fn diff(a: &FlightDump, b: &FlightDump) -> (String, bool) {
    if a.to_bytes() == b.to_bytes() {
        return ("dumps are byte-identical\n".to_owned(), true);
    }
    let mut out = String::from("dumps DIFFER\n");
    let names =
        |d: &FlightDump| -> Vec<String> { d.components.iter().map(|c| c.name.clone()).collect() };
    let (na, nb) = (names(a), names(b));
    for n in &na {
        if !nb.contains(n) {
            out.push_str(&format!("component {n}: only in first dump\n"));
        }
    }
    for n in &nb {
        if !na.contains(n) {
            out.push_str(&format!("component {n}: only in second dump\n"));
        }
    }
    for ca in &a.components {
        let Some(cb) = b.components.iter().find(|c| c.name == ca.name) else {
            continue;
        };
        if ca.records.len() != cb.records.len() {
            out.push_str(&format!(
                "component {}: {} vs {} records\n",
                ca.name,
                ca.records.len(),
                cb.records.len()
            ));
        }
        if let Some(i) = ca
            .records
            .iter()
            .zip(cb.records.iter())
            .position(|(x, y)| x != y)
        {
            out.push_str(&format!(
                "component {}: first divergence at record {i}\n  first:  {}\n  second: {}\n",
                ca.name,
                event_line(&ca.name, &ca.records[i]),
                event_line(&ca.name, &cb.records[i]),
            ));
        }
        if ca.dropped != cb.dropped {
            out.push_str(&format!(
                "component {}: dropped {} vs {}\n",
                ca.name, ca.dropped, cb.dropped
            ));
        }
    }
    (out, false)
}

fn load_dump(path: &str) -> Result<FlightDump, String> {
    load(path, FlightDump::parse)
}

/// Dispatch `simctl trace <subcommand> …`.
pub fn run(args: &[String]) -> Outcome {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(crate::usage());
    };
    match cmd.as_str() {
        "summary" => {
            let a = Args::parse(rest, &[], &["json"])?;
            let dump = load_dump(&a.positional(1, 1)?[0])?;
            let out = if a.has("json") {
                summary_json(&dump)
            } else {
                summary(&dump)
            };
            Ok((out, 0))
        }
        "grep" => {
            let a = Args::parse(rest, &["component", "flow"], &[])?;
            let dump = load_dump(&a.positional(1, 1)?[0])?;
            Ok((grep(&dump, a.get("component"), a.parsed("flow")?), 0))
        }
        "chain" => {
            let a = Args::parse(rest, &[], &["json"])?;
            let pos = a.positional(1, 2)?;
            let flow = parse_pos(pos.get(1), "flow id")?;
            let dump = load_dump(&pos[0])?;
            let out = if a.has("json") {
                chain_json(&dump, flow)
            } else {
                chain(&dump, flow)
            };
            Ok((out, 0))
        }
        "diff" => {
            let a = Args::parse(rest, &[], &[])?;
            let pos = a.positional(2, 2)?;
            Ok(verdict(diff(&load_dump(&pos[0])?, &load_dump(&pos[1])?)))
        }
        _ => Err(crate::usage()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sim::{SimDuration, SimTime};
    use telemetry::flight::{cause_for, AirKind, CauseId, FlightRecorder, TraceRecord};

    /// One flow's complete causal chain plus an uncaused airtime span.
    pub(crate) fn sample() -> FlightDump {
        let rec = FlightRecorder::new(16);
        let t = SimTime::from_micros;
        let c = cause_for(3, 1460);
        rec.emit(
            "tcp.wire",
            t(1),
            c,
            TraceRecord::TcpSeg {
                flow: 3,
                seq: 1460,
                len: 1460,
                retransmit: false,
            },
        );
        rec.emit(
            "mac.ampdu",
            t(2),
            c,
            TraceRecord::AmpduBuild {
                flow: 3,
                frames: 8,
                bytes: 11_680,
            },
        );
        rec.emit(
            "mac.tx",
            t(3),
            c,
            TraceRecord::MacTx {
                flow: 3,
                seq: 1460,
                delivered: true,
            },
        );
        rec.emit(
            "mac.back",
            t(4),
            c,
            TraceRecord::BlockAck {
                flow: 3,
                acked: 8,
                lost: 0,
            },
        );
        rec.emit(
            "fastack.synth",
            t(5),
            c,
            TraceRecord::FastAckSynth {
                flow: 3,
                ack: 2920,
                synthetic: true,
            },
        );
        rec.emit(
            "air",
            t(5),
            CauseId::NONE,
            TraceRecord::AirtimeSpan {
                kind: AirKind::Beacon,
                dur: SimDuration::from_micros(120),
            },
        );
        rec.snapshot()
    }

    #[test]
    fn summary_counts_components_and_flows() {
        let s = summary(&sample());
        assert!(s.starts_with("6 components, 6 records, 0 dropped"), "{s}");
        assert!(s.contains("flows: 3"), "{s}");
        assert!(s.contains("mac.ampdu"), "{s}");
    }

    #[test]
    fn grep_filters_by_component_and_flow() {
        let d = sample();
        let all = grep(&d, None, None);
        assert!(all.contains("6 records matched"), "{all}");
        let mac = grep(&d, Some("mac."), None);
        assert!(mac.contains("3 records matched"), "{mac}");
        assert!(!mac.contains("tcp-seg"), "{mac}");
        let none = grep(&d, None, Some(99));
        assert!(none.contains("0 records matched"), "{none}");
    }

    #[test]
    fn chain_prints_the_complete_causal_path() {
        let d = sample();
        let out = chain(&d, Some(3));
        assert!(out.contains("flow 3: 5 records"), "{out}");
        assert!(
            out.contains(
                "chain complete: tcp-seg -> ampdu-build -> mac-tx -> block-ack -> fastack-synth"
            ),
            "{out}"
        );
        // Auto-pick finds the same flow.
        assert_eq!(chain(&d, None), out);
        // A missing flow yields a partial (empty) chain.
        let missing = chain(&d, Some(42));
        assert!(missing.contains("flow 42: 0 records"), "{missing}");
        assert!(missing.contains("chain partial"), "{missing}");
    }

    #[test]
    fn summary_json_is_structured_and_stable() {
        let d = sample();
        let s = summary_json(&d);
        assert!(s.starts_with("{\"components\":["), "{s}");
        assert!(
            s.contains("{\"name\":\"mac.ampdu\",\"records\":1,\"capacity\":16,\"dropped\":0"),
            "{s}"
        );
        assert!(s.contains("\"total_records\":6,\"total_dropped\":0"), "{s}");
        assert!(s.ends_with("\"flows\":[3]}\n"), "{s}");
        // Deterministic: same dump, same bytes.
        assert_eq!(s, summary_json(&d));
    }

    #[test]
    fn chain_json_reports_layers_and_completeness() {
        let d = sample();
        let s = chain_json(&d, Some(3));
        assert!(s.starts_with("{\"flow\":3,\"records\":["), "{s}");
        assert!(s.contains("\"layer\":\"tcp-seg\""), "{s}");
        assert!(s.contains("\"cause\":{\"flow\":3,\"seq\":1460}"), "{s}");
        assert!(
            s.ends_with(
                "\"layers\":[\"tcp-seg\",\"ampdu-build\",\"mac-tx\",\"block-ack\",\
                 \"fastack-synth\"],\"complete\":true}\n"
            ),
            "{s}"
        );
        // Auto-pick resolves to the same flow.
        assert_eq!(chain_json(&d, None), s);
        // A missing flow is an incomplete (empty) chain, not an error.
        let missing = chain_json(&d, Some(42));
        assert!(missing.contains("\"flow\":42,\"records\":[]"), "{missing}");
        assert!(missing.contains("\"complete\":false"), "{missing}");
        // No flows at all.
        let empty = chain_json(&FlightDump::default(), None);
        assert!(empty.contains("\"flow\":null"), "{empty}");
    }

    #[test]
    fn diff_reports_identity_and_divergence() {
        let d = sample();
        let (out, same) = diff(&d, &d.clone());
        assert!(same, "{out}");

        let mut other = d.clone();
        if let TraceRecord::MacTx { delivered, .. } = &mut other.components[4].records[0].record {
            *delivered = false;
        } else {
            panic!("component order changed: {}", other.components[4].name);
        }
        let (out, same) = diff(&d, &other);
        assert!(!same);
        assert!(out.contains("dumps DIFFER"), "{out}");
        assert!(out.contains("first divergence at record 0"), "{out}");

        let mut extra = d.clone();
        extra.components.remove(0);
        let (out, _) = diff(&d, &extra);
        assert!(out.contains("only in first dump"), "{out}");
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&["nonsense".to_owned()]).is_err());

        let dir = std::env::temp_dir().join("simctl-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("dump.bin");
        std::fs::write(&p, sample().to_bytes()).unwrap();
        let path = p.to_string_lossy().to_string();

        let (out, code) = run(&["summary".to_owned(), path.clone()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("6 components"));

        let (out, code) = run(&[
            "grep".to_owned(),
            path.clone(),
            "--component".to_owned(),
            "mac.".to_owned(),
            "--flow=3".to_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("3 records matched"), "{out}");

        let (out, code) = run(&["chain".to_owned(), path.clone(), "3".to_owned()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("chain complete"), "{out}");

        // --json variants of summary and chain.
        let (out, code) = run(&["summary".to_owned(), path.clone(), "--json".to_owned()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("{\"components\":["), "{out}");
        let (out, code) = run(&[
            "chain".to_owned(),
            "--json".to_owned(),
            path.clone(),
            "3".to_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("\"complete\":true"), "{out}");
        assert!(run(&["chain".to_owned(), path.clone(), "--bogus".to_owned()]).is_err());

        let (_, code) = run(&["diff".to_owned(), path.clone(), path.clone()]).unwrap();
        assert_eq!(code, 0);

        let p2 = dir.join("other.bin");
        let mut other = sample();
        other.components[0].records.pop();
        std::fs::write(&p2, other.to_bytes()).unwrap();
        let (out, code) =
            run(&["diff".to_owned(), path, p2.to_string_lossy().to_string()]).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("dumps DIFFER"), "{out}");

        // Unreadable / unparsable files are errors, not panics.
        assert!(run(&["summary".to_owned(), "/nonexistent.bin".to_owned()]).is_err());
    }
}
