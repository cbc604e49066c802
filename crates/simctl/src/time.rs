//! `simctl time` — inspect deterministic TSL1 timeline dumps.
//!
//! The timeline sampler (`telemetry::timeline`) serializes each run's
//! periodic counter/gauge/f64 snapshots to a delta-encoded binary dump.
//! The renderers here read parsed [`Timeline`]s:
//!
//! * `summary <dump>` — cadence, tick retention/eviction, time range,
//!   per-series table, and the downsampled tiers;
//! * `query <dump> <series> [--from <ms>] [--to <ms>] [--bucket <ms>]
//!   [--agg <mean|max|min|sum|count|last>]` — one `seconds value` line
//!   per sample (or per bucket with `--bucket`), printed with
//!   shortest-roundtrip floats so the fig14 cwnd curve comes back
//!   token-identical to what the bench harness dumped;
//! * `plot <dump> <series> [--from/--to/--width]` — ASCII sparkline,
//!   deterministic for a given dump;
//! * `export <dump> --csv [--series <prefix>]` — CSV
//!   (`series,kind,t_ns,value`) of every series, sorted by name;
//! * `diff <a> <b>` — determinism triage: byte-compares two dumps and,
//!   when they differ, names the first diverging series and timestamp
//!   (exit 1).

use crate::{load, verdict, Args, Outcome};
use sim::{SimDuration, SimTime};
use std::fmt::Write as _;
use telemetry::timeline::{agg_from_name, agg_label, Timeline};
use telemetry::Agg;

/// Half-open query window, defaulting to everything.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub from: SimTime,
    pub to: SimTime,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            from: SimTime::ZERO,
            to: SimTime::MAX,
        }
    }
}

/// Seconds on the legacy bench axis: the exact expression the testbed
/// uses for `cwnd_trace`, so query output tokens match the figure JSON.
fn secs(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e9
}

/// Cadence, retention, time range, series table, tiers.
pub fn summary(tl: &Timeline) -> String {
    let mut out = String::new();
    if tl.is_empty() {
        out.push_str("empty timeline (no ticks, no series)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "TSL1 timeline: every {}, {} ticks retained, {} evicted",
        tl.every(),
        tl.ticks(),
        tl.dropped()
    );
    let range = match (tl.first_stamp(), tl.last_stamp()) {
        (Some(a), Some(b)) => format!("{a} .. {b}"),
        _ => "-".to_owned(),
    };
    let _ = writeln!(out, "time range: {range}");
    let names: Vec<&str> = tl.series_names().collect();
    let _ = writeln!(out, "{} series:", names.len());
    let _ = writeln!(
        out,
        "  {:<44} {:>8} {:>8} {:>14}",
        "series", "kind", "samples", "last"
    );
    for name in names {
        let kind = tl.kind(name).expect("listed series").label();
        let last = tl.last(name).map_or("-".to_owned(), |v| format!("{v}"));
        let _ = writeln!(
            out,
            "  {:<44} {:>8} {:>8} {:>14}",
            name,
            kind,
            tl.series_len(name),
            last
        );
    }
    for t in tl.tiers() {
        let _ = writeln!(
            out,
            "tier bucket {} {}: {} rows retained, {} evicted",
            t.bucket(),
            agg_label(t.agg()),
            t.rows(),
            t.dropped_rows()
        );
    }
    out
}

/// One `seconds value` line per sample in the window; with `bucket`,
/// one line per non-empty bucket downsampled via `agg` (littletable
/// fold order). Unknown series is an error, not empty output.
pub fn query(
    tl: &Timeline,
    series: &str,
    w: Window,
    bucket: Option<SimDuration>,
    agg: Agg,
) -> Result<String, String> {
    if tl.kind(series).is_none() {
        return Err(format!(
            "no series {series} in dump (try `simctl time summary`)"
        ));
    }
    let pts = match bucket {
        Some(b) => tl.downsample(series, w.from, w.to, b, agg),
        None => tl.range(series, w.from, w.to),
    };
    let mut out = String::new();
    for (t, v) in &pts {
        let _ = writeln!(out, "{} {v}", secs(*t));
    }
    Ok(out)
}

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// ASCII sparkline of a series: samples chunked to at most `width`
/// columns (in-order mean per chunk), scaled between the window's min
/// and max. A flat series renders mid-scale.
pub fn plot(tl: &Timeline, series: &str, w: Window, width: usize) -> Result<String, String> {
    if tl.kind(series).is_none() {
        return Err(format!(
            "no series {series} in dump (try `simctl time summary`)"
        ));
    }
    let width = width.max(1);
    let pts = tl.range(series, w.from, w.to);
    let mut out = String::new();
    if pts.is_empty() {
        let _ = writeln!(out, "{series}: no samples in window");
        return Ok(out);
    }
    let chunk = pts.len().div_ceil(width);
    let cols: Vec<f64> = pts
        .chunks(chunk)
        .map(|c| c.iter().map(|&(_, v)| v).sum::<f64>() / c.len() as f64)
        .collect();
    let lo = cols.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = cols.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(
        out,
        "{series}: {} samples, {} .. {}, min {lo} max {hi}",
        pts.len(),
        pts[0].0,
        pts[pts.len() - 1].0
    );
    let span = hi - lo;
    for v in &cols {
        let idx = if span > 0.0 {
            // Scale into 0..=7; the top of the range maps to the full
            // block, everything else to its proportional eighth.
            (((v - lo) / span) * 7.0).round() as usize
        } else {
            3
        };
        out.push(BARS[idx.min(7)]);
    }
    out.push('\n');
    Ok(out)
}

/// CSV of every series (optionally name-prefix filtered), sorted by
/// name then time: `series,kind,t_ns,value`.
pub fn export_csv(tl: &Timeline, prefix: Option<&str>) -> String {
    let mut out = String::from("series,kind,t_ns,value\n");
    for name in tl.series_names() {
        if let Some(p) = prefix {
            if !name.starts_with(p) {
                continue;
            }
        }
        let kind = tl.kind(name).expect("listed series").label();
        for (t, v) in tl.range(name, SimTime::ZERO, SimTime::MAX) {
            let _ = writeln!(out, "{name},{kind},{},{v}", t.as_nanos());
        }
    }
    out
}

/// Determinism triage. Returns the rendered report and whether the two
/// dumps are byte-identical (the CLI exits 1 when they are not). On
/// divergence, names the first differing series and the timestamp of
/// its first differing sample — compared at the bit level so float
/// printing can never mask a divergence.
pub fn diff(a: &Timeline, b: &Timeline) -> (String, bool) {
    if a.to_bytes() == b.to_bytes() {
        return ("dumps are byte-identical\n".to_owned(), true);
    }
    let mut out = String::from("dumps DIFFER\n");
    if a.every() != b.every() {
        let _ = writeln!(out, "cadence: {} vs {}", a.every(), b.every());
    }
    if a.ticks() != b.ticks() || a.dropped() != b.dropped() {
        let _ = writeln!(
            out,
            "ticks: {} retained + {} evicted vs {} retained + {} evicted",
            a.ticks(),
            a.dropped(),
            b.ticks(),
            b.dropped()
        );
    }
    let na: Vec<&str> = a.series_names().collect();
    let nb: Vec<&str> = b.series_names().collect();
    for n in &na {
        if !nb.contains(n) {
            let _ = writeln!(out, "series {n}: only in first dump");
        }
    }
    for n in &nb {
        if !na.contains(n) {
            let _ = writeln!(out, "series {n}: only in second dump");
        }
    }
    for n in na.iter().filter(|n| nb.contains(n)) {
        let va = a.range_bits(n, SimTime::ZERO, SimTime::MAX);
        let vb = b.range_bits(n, SimTime::ZERO, SimTime::MAX);
        if let Some((sa, sb)) = va.iter().zip(vb.iter()).find(|(x, y)| x != y) {
            let _ = writeln!(
                out,
                "series {n}: first divergence at {}\n  first:  {}\n  second: {}",
                sa.0,
                f64_or_raw(sa.1.label(), sa.2),
                f64_or_raw(sb.1.label(), sb.2),
            );
            return (out, false);
        }
        if va.len() != vb.len() {
            let _ = writeln!(out, "series {n}: {} vs {} samples", va.len(), vb.len());
            return (out, false);
        }
    }
    // Same tick columns; the byte difference must be in the tiers.
    for (i, (ta, tb)) in a.tiers().zip(b.tiers()).enumerate() {
        for n in na.iter().filter(|n| nb.contains(n)) {
            let (ra, rb) = (ta.series(n), tb.series(n));
            if let Some((sa, sb)) = ra
                .iter()
                .zip(rb.iter())
                .find(|(x, y)| x.0 != y.0 || x.1.to_bits() != y.1.to_bits())
            {
                let _ = writeln!(
                    out,
                    "tier {i} series {n}: first divergence at {}: {} vs {}",
                    sa.0, sa.1, sb.1
                );
                return (out, false);
            }
            if ra.len() != rb.len() {
                let _ = writeln!(
                    out,
                    "tier {i} series {n}: {} vs {} rows",
                    ra.len(),
                    rb.len()
                );
                return (out, false);
            }
        }
    }
    (out, false)
}

/// A sample for the diff report: counters/gauges print exactly; f64
/// prints the value plus its raw bits.
fn f64_or_raw(kind: &str, bits: u64) -> String {
    match kind {
        "counter" => format!("counter {bits}"),
        "gauge" => format!("gauge {}", i64::from_le_bytes(bits.to_le_bytes())),
        _ => format!("f64 {} (bits {bits:#018x})", f64::from_bits(bits)),
    }
}

fn load_timeline(path: &str) -> Result<Timeline, String> {
    load(path, Timeline::parse)
}

/// `--<flag> <ms>` as an offset from t=0.
fn ms(a: &Args, flag: &str) -> Result<Option<SimDuration>, String> {
    Ok(a.parsed::<u64>(flag)?.map(SimDuration::from_millis))
}

/// The `--from`/`--to` window.
fn window(a: &Args) -> Result<Window, String> {
    let all = Window::default();
    Ok(Window {
        from: ms(a, "from")?.map_or(all.from, |d| SimTime::ZERO + d),
        to: ms(a, "to")?.map_or(all.to, |d| SimTime::ZERO + d),
    })
}

/// Dispatch `simctl time <subcommand> …`.
pub fn run(args: &[String]) -> Outcome {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(crate::usage());
    };
    match cmd.as_str() {
        "summary" => {
            let a = Args::parse(rest, &[], &[])?;
            Ok((summary(&load_timeline(&a.positional(1, 1)?[0])?), 0))
        }
        "query" => {
            let a = Args::parse(rest, &["from", "to", "bucket", "agg"], &[])?;
            let pos = a.positional(2, 2)?;
            let agg = a
                .get("agg")
                .map(|v| agg_from_name(v).ok_or_else(|| format!("unknown --agg {v}")))
                .transpose()?;
            let bucket = ms(&a, "bucket")?;
            if agg.is_some() && bucket.is_none() {
                return Err("--agg needs --bucket".to_owned());
            }
            let tl = load_timeline(&pos[0])?;
            let out = query(&tl, &pos[1], window(&a)?, bucket, agg.unwrap_or(Agg::Mean))?;
            Ok((out, 0))
        }
        "plot" => {
            let a = Args::parse(rest, &["from", "to", "width"], &[])?;
            let pos = a.positional(2, 2)?;
            let width = a.parsed("width")?.unwrap_or(72);
            Ok((
                plot(&load_timeline(&pos[0])?, &pos[1], window(&a)?, width)?,
                0,
            ))
        }
        "export" => {
            let a = Args::parse(rest, &["series"], &["csv"])?;
            let pos = a.positional(1, 1)?;
            if !a.has("csv") {
                return Err(format!("export wants --csv\n{}", crate::usage()));
            }
            Ok((export_csv(&load_timeline(&pos[0])?, a.get("series")), 0))
        }
        "diff" => {
            let a = Args::parse(rest, &[], &[])?;
            let pos = a.positional(2, 2)?;
            Ok(verdict(diff(
                &load_timeline(&pos[0])?,
                &load_timeline(&pos[1])?,
            )))
        }
        _ => Err(crate::usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::timeline::TimelineConfig;
    use telemetry::Registry;

    /// 40 ticks at 100 ms: a counter ramp, a sawtooth gauge, and an f64
    /// cwnd-style signal.
    fn sample() -> Timeline {
        let mut tl = Timeline::new(&TimelineConfig::sampling(SimDuration::from_millis(100)));
        let mut reg = Registry::new();
        let queue = reg.gauge("mac.queue_depth");
        for i in 0..40u64 {
            reg.count("tcp.segments", 3);
            reg.gauge_set(queue, i64::from_le_bytes((i % 7).to_le_bytes()) - 3);
            tl.set_f64("tcp.flow0.cwnd_segments", 10.0 + i as f64 * 2.5);
            tl.sample(SimTime::from_millis(i * 100), &reg);
        }
        tl.seal();
        tl
    }

    #[test]
    fn summary_lists_series_and_tiers() {
        let s = summary(&sample());
        assert!(s.contains("40 ticks retained, 0 evicted"), "{s}");
        assert!(s.contains("3 series:"), "{s}");
        assert!(s.contains("tcp.segments"), "{s}");
        assert!(s.contains("counter"), "{s}");
        assert!(s.contains("mac.queue_depth"), "{s}");
        assert!(s.contains("tcp.flow0.cwnd_segments"), "{s}");
        // TimelineConfig::sampling adds a 10x mean and a 100x max tier.
        assert!(s.contains("tier bucket 1.000s mean:"), "{s}");
        assert!(s.contains("tier bucket 10.000s max:"), "{s}");
        assert!(summary(&Timeline::default()).contains("empty timeline"));
    }

    #[test]
    fn query_prints_bench_axis_seconds() {
        let tl = sample();
        let out = query(
            &tl,
            "tcp.flow0.cwnd_segments",
            Window::default(),
            None,
            Agg::Mean,
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 40);
        assert_eq!(lines[0], "0 10");
        assert_eq!(lines[1], "0.1 12.5");
        // Windowing is half-open [from, to).
        let w = Window {
            from: SimTime::from_millis(100),
            to: SimTime::from_millis(300),
        };
        let out = query(&tl, "tcp.segments", w, None, Agg::Mean).unwrap();
        assert_eq!(out, "0.1 6\n0.2 9\n");
        // Bucketed downsampling, mean of 10 ticks.
        let out = query(
            &tl,
            "tcp.segments",
            Window::default(),
            Some(SimDuration::from_secs(1)),
            Agg::Max,
        )
        .unwrap();
        assert_eq!(out.lines().count(), 4);
        assert_eq!(out.lines().next().unwrap(), "0 30");
        // Unknown series is an error, not silence.
        assert!(query(&tl, "nope", Window::default(), None, Agg::Mean).is_err());
    }

    #[test]
    fn plot_renders_one_column_per_chunk() {
        let tl = sample();
        let out = plot(&tl, "tcp.flow0.cwnd_segments", Window::default(), 8).unwrap();
        let mut lines = out.lines();
        let head = lines.next().unwrap();
        assert!(head.contains("40 samples"), "{head}");
        assert!(head.contains("min "), "{head}");
        let bar = lines.next().unwrap();
        assert_eq!(bar.chars().count(), 8, "{bar}");
        // Monotone ramp: first column lowest, last column highest.
        assert_eq!(bar.chars().next().unwrap(), '▁');
        assert_eq!(bar.chars().last().unwrap(), '█');
        // Flat series renders mid-scale, not a panic on zero span.
        let w = Window {
            from: SimTime::ZERO,
            to: SimTime::from_millis(100),
        };
        let flat = plot(&tl, "tcp.segments", w, 8).unwrap();
        assert!(flat.lines().nth(1).unwrap().chars().all(|c| c == '▄'));
    }

    #[test]
    fn export_csv_is_sorted_and_filterable() {
        let tl = sample();
        let csv = export_csv(&tl, None);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "series,kind,t_ns,value");
        // 3 series x 40 samples + header.
        assert_eq!(csv.lines().count(), 1 + 3 * 40);
        assert!(csv.contains("mac.queue_depth,gauge,0,-3"), "{csv}");
        assert!(csv.contains("tcp.segments,counter,100000000,6"), "{csv}");
        let only = export_csv(&tl, Some("tcp.flow0."));
        assert_eq!(only.lines().count(), 1 + 40);
        assert!(only.contains("tcp.flow0.cwnd_segments,f64,0,10"), "{only}");
    }

    #[test]
    fn diff_names_first_diverging_series_and_timestamp() {
        let a = sample();
        let (out, same) = diff(&a, &a.clone());
        assert!(same, "{out}");

        // Rebuild with one gauge sample perturbed at tick 25.
        let mut tl = Timeline::new(&TimelineConfig::sampling(SimDuration::from_millis(100)));
        let mut reg = Registry::new();
        let queue = reg.gauge("mac.queue_depth");
        for i in 0..40u64 {
            reg.count("tcp.segments", 3);
            let v = i64::from_le_bytes((i % 7).to_le_bytes()) - 3;
            reg.gauge_set(queue, if i == 25 { v + 1 } else { v });
            tl.set_f64("tcp.flow0.cwnd_segments", 10.0 + i as f64 * 2.5);
            tl.sample(SimTime::from_millis(i * 100), &reg);
        }
        tl.seal();
        let (out, same) = diff(&a, &tl);
        assert!(!same);
        assert!(out.contains("dumps DIFFER"), "{out}");
        assert!(
            out.contains("series mac.queue_depth: first divergence at 2.500000s"),
            "{out}"
        );
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        assert!(run(&[]).is_err());
        assert!(run(&["nonsense".to_owned()]).is_err());

        let dir = std::env::temp_dir().join("simctl-time-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("dump.bin");
        std::fs::write(&p, sample().to_bytes()).unwrap();
        let path = p.to_string_lossy().to_string();
        let own = |s: &str| s.to_owned();

        let (out, code) = run(&[own("summary"), path.clone()]).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("40 ticks retained"), "{out}");

        let (out, code) = run(&[
            own("query"),
            path.clone(),
            own("tcp.segments"),
            own("--from=100"),
            own("--to"),
            own("300"),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert_eq!(out, "0.1 6\n0.2 9\n");
        assert!(run(&[own("query"), path.clone(), own("nope")]).is_err());
        // --agg without --bucket is a usage error.
        assert!(run(&[
            own("query"),
            path.clone(),
            own("tcp.segments"),
            own("--agg=max")
        ])
        .is_err());

        let (out, code) = run(&[
            own("plot"),
            path.clone(),
            own("tcp.flow0.cwnd_segments"),
            own("--width=10"),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("40 samples"), "{out}");

        let (out, code) = run(&[own("export"), path.clone(), own("--csv")]).unwrap();
        assert_eq!(code, 0);
        assert!(out.starts_with("series,kind,t_ns,value\n"), "{out}");
        assert!(run(&[own("export"), path.clone()]).is_err());

        let (_, code) = run(&[own("diff"), path.clone(), path.clone()]).unwrap();
        assert_eq!(code, 0);
        let p2 = dir.join("other.bin");
        let mut tl = Timeline::new(&TimelineConfig::sampling(SimDuration::from_millis(100)));
        let mut reg = Registry::new();
        reg.count("tcp.segments", 1);
        tl.sample(SimTime::ZERO, &reg);
        tl.seal();
        std::fs::write(&p2, tl.to_bytes()).unwrap();
        let (out, code) = run(&[own("diff"), path, p2.to_string_lossy().to_string()]).unwrap();
        assert_eq!(code, 1);
        assert!(out.contains("dumps DIFFER"), "{out}");

        // Unreadable / unparsable files are errors, not panics.
        assert!(run(&[own("summary"), own("/nonexistent.bin")]).is_err());
    }
}
