//! Shared experiment plumbing: result recording, paper-vs-measured
//! comparison rows, and JSON series dumps.
//!
//! The JSON dump is hand-rolled (with `telemetry::json`) so the harness
//! has no registry dependencies and builds offline; the emitted shape
//! matches what `serde_json` produced for these types historically:
//! tuples as two-element arrays, structs as objects in field order.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use wifi_core::sim::SimDuration;
use wifi_core::telemetry::{
    json, runprof, FlightDump, HealthReport, Registry, Timeline, TimelineConfig,
};

/// A recorded experiment: named scalar comparisons plus named series.
#[derive(Debug, Default)]
pub struct Experiment {
    pub id: String,
    pub title: String,
    pub comparisons: Vec<Comparison>,
    pub series: Vec<Series>,
    /// Merged metrics registries from every run the experiment absorbed
    /// (see [`Experiment::absorb`]). Dumped verbatim when the binary is
    /// invoked with `--metrics <path>`.
    pub metrics: Registry,
    /// Merged flight-recorder dumps from every run the experiment
    /// absorbed (see [`Experiment::absorb_flight`]). Dumped in the
    /// deterministic binary format when the binary is invoked with
    /// `--trace <path>` (optionally `--trace-filter <prefix>`); inspect
    /// with `simctl trace`.
    pub flight: FlightDump,
    /// Merged health reports from every run the experiment absorbed
    /// (see [`Experiment::absorb_health`]). Dumped as canonical JSON
    /// when the binary is invoked with `--health <path>`; inspect with
    /// `simctl health`.
    pub health: HealthReport,
    /// Wall-clock throughput samples (see [`Experiment::perf`]).
    /// Written as `BENCH_simperf.json`-style JSON when the binary is
    /// invoked with `--perf <path>`. Unlike every other artifact this
    /// one is *not* deterministic — it records host wall-clock speed.
    pub perf_samples: Vec<runprof::SamplePoint>,
    /// Merged timeline stores from every run the experiment absorbed
    /// (see [`Experiment::absorb_timeline`]). Dumped in the `TSL1`
    /// binary format when the binary is invoked with
    /// `--timeline <path>`; inspect with `simctl time`.
    pub timeline: Timeline,
}

/// One paper-vs-measured scalar.
#[derive(Debug)]
pub struct Comparison {
    pub metric: String,
    pub paper: String,
    pub measured: String,
    /// Does the measured value/shape agree with the paper's claim?
    pub ok: bool,
}

/// A named (x, y) series for plotting.
#[derive(Debug)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

impl Experiment {
    pub fn new(id: &str, title: &str) -> Experiment {
        // Arm the host-side run profiler as early as possible so setup
        // work lands in the profile too. `--runprof` is the only flag
        // that changes harness behavior before `finish` — and it only
        // turns on observation, never the trajectory (the golden
        // artifact tests run with it enabled to prove that).
        if arg_value("runprof").is_some() {
            runprof::set_enabled(true);
        }
        Experiment {
            id: id.to_owned(),
            title: title.to_owned(),
            ..Experiment::default()
        }
    }

    /// Open a wall-clock stage span named `<bench-id>.<name>` (e.g.
    /// `fig18.setup` / `fig18.run` / `fig18.report`). Hold the returned
    /// guard for the duration of the phase; a no-op without `--runprof`.
    pub fn stage(&self, name: &str) -> runprof::WallSpan {
        if !runprof::enabled() {
            return runprof::WallSpan::disabled();
        }
        runprof::span(&format!("{}.{name}", self.id))
    }

    /// Record a paper-vs-measured row.
    pub fn compare(
        &mut self,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) {
        self.comparisons.push(Comparison {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            ok,
        });
    }

    /// Record a series.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            name: name.into(),
            points,
        });
    }

    /// Merge one run's metrics registry (a `TestbedReport::metrics` or
    /// `FleetRun::metrics`) into the experiment's snapshot. Counters and
    /// histogram bins sum across absorbed runs; absorb order does not
    /// change the JSON because paths are sorted at serialization.
    pub fn absorb(&mut self, run_metrics: &Registry) {
        self.metrics.merge_from(run_metrics);
    }

    /// Merge one run's flight dump (a `TestbedReport::flight` or
    /// `FleetRun::flight`) into the experiment's trace, prefixing its
    /// component names with `label.` so chains from different arms
    /// (e.g. `base.` vs `fast.`) stay distinguishable. An empty label
    /// merges verbatim.
    pub fn absorb_flight(&mut self, label: &str, dump: &FlightDump) {
        self.flight.absorb(label, dump);
    }

    /// Merge one run's health report (a `TestbedReport::health` or
    /// `FleetRun::health.report`) into the experiment's alert stream,
    /// prefixing alert components with `label.` (empty label merges
    /// verbatim). Absorb order does not change the JSON because alerts
    /// re-sort into canonical order on every absorb.
    pub fn absorb_health(&mut self, label: &str, report: &HealthReport) {
        self.health.absorb(label, report);
    }

    /// Merge one run's sealed timeline (a `TestbedReport::timeline` or
    /// `FleetRun::timeline`) into the experiment's store, prefixing its
    /// series names with `label.` so samples from different arms (e.g.
    /// `base.` vs `fast.`) stay distinguishable. An empty label merges
    /// verbatim. Absorb order does not change the dump because series
    /// stay sorted by name.
    pub fn absorb_timeline(&mut self, label: &str, tl: &Timeline) {
        self.timeline.absorb(label, tl);
    }

    /// Record a wall-clock throughput sample: `events` workload units
    /// (discrete events, or whatever the label names) completed in
    /// `wall_s` seconds of host time. Dumped via `--perf`. The
    /// process's peak RSS at sampling time (kernel `VmHWM`; `None` on
    /// hosts without procfs) rides along, so memory growth across a
    /// scaling sweep (`fleet_1000x1` → `fleet_5000x8`) is visible in
    /// the same artifact as the speed.
    pub fn perf(&mut self, label: impl Into<String>, events: u64, wall_s: f64) {
        self.perf_samples.push(runprof::SamplePoint {
            label: label.into(),
            events,
            wall_s,
            peak_rss_bytes: runprof::peak_rss_bytes(),
        });
    }

    /// The `--perf` artifact: per-sample events, wall seconds, and the
    /// derived events/sec rate.
    fn perf_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"bench\": ");
        json::string(&mut o, &self.id);
        o.push_str(",\n  \"samples\": [");
        for (i, s) in self.perf_samples.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            s.write_json(&mut o);
        }
        if !self.perf_samples.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("]\n}\n");
        o
    }

    /// Print the report and write the JSON dump. Returns `true` if every
    /// comparison agreed.
    pub fn finish(&self) -> bool {
        let report_prof = self.stage("report");
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if !self.comparisons.is_empty() {
            let _ = writeln!(out, "{:<44} {:>22} {:>22}  ", "metric", "paper", "measured");
            for c in &self.comparisons {
                let _ = writeln!(
                    out,
                    "{:<44} {:>22} {:>22}  {}",
                    c.metric,
                    c.paper,
                    c.measured,
                    if c.ok { "ok" } else { "MISMATCH" }
                );
            }
        }
        for s in &self.series {
            let _ = writeln!(out, "series {} ({} points):", s.name, s.points.len());
            let step = (s.points.len() / 12).max(1);
            for (i, (x, y)) in s.points.iter().enumerate() {
                if i % step == 0 || i + 1 == s.points.len() {
                    let _ = writeln!(out, "  {x:>12.4}  {y:>12.4}");
                }
            }
        }
        println!("{out}");

        let dir = std::env::var("IMC_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
        let path = PathBuf::from(dir).join(format!("{}.json", self.id));
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        write_artifact(&path, self.to_json().as_bytes());

        // `--metrics <path>` (or `--metrics=<path>`): write the merged
        // metrics registry snapshot. `--trace <path>` (with an optional
        // `--trace-filter <component-prefix>`): write the merged flight
        // dump. `--health <path>`: write the merged health report as
        // canonical JSON. `--timeline <path>`: the merged TSL1 dump.
        // All four are deterministic by construction, so two
        // invocations of the same binary must produce identical files —
        // scripts/ci.sh enforces exactly that. `--perf <path>` is the
        // exception: it records wall-clock events/sec and is never
        // byte-compared.
        if let Some(p) = arg_value("metrics") {
            write_artifact(&p, self.metrics.to_json().as_bytes());
        }
        if let Some(p) = arg_value("health") {
            write_artifact(&p, self.health.to_json().as_bytes());
        }
        if let Some(p) = arg_value("timeline") {
            write_artifact(&p, &self.timeline.to_bytes());
        }
        if let Some(p) = arg_value("perf") {
            write_artifact(&p, self.perf_json().as_bytes());
        }
        if let Some(p) = arg_value("trace") {
            let filter = arg_value("trace-filter");
            write_artifact(&p, &self.flight.filtered(filter.as_deref()).to_bytes());
        }

        // `--runprof <path>`: the host-side observability sidecar.
        // Closed out last so the report stage's own wall time makes it
        // into the profile; inspect with `simctl perf summary`.
        drop(report_prof);
        if let Some(p) = arg_value("runprof") {
            let prof = runprof::snapshot().to_json(&self.id, &self.perf_samples);
            write_artifact(&p, prof.as_bytes());
        }

        let all_ok = self.comparisons.iter().all(|c| c.ok);
        if !all_ok {
            println!("!! some comparisons did not match the paper");
        }
        all_ok
    }

    /// Pretty-printed JSON dump of the whole experiment.
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"id\": ");
        json::string(&mut o, &self.id);
        o.push_str(",\n  \"title\": ");
        json::string(&mut o, &self.title);
        o.push_str(",\n  \"comparisons\": [");
        for (i, c) in self.comparisons.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    { \"metric\": ");
            json::string(&mut o, &c.metric);
            o.push_str(", \"paper\": ");
            json::string(&mut o, &c.paper);
            o.push_str(", \"measured\": ");
            json::string(&mut o, &c.measured);
            let _ = write!(o, ", \"ok\": {} }}", c.ok);
        }
        if !self.comparisons.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    { \"name\": ");
            json::string(&mut o, &s.name);
            o.push_str(", \"points\": [");
            for (j, (x, y)) in s.points.iter().enumerate() {
                o.push_str(if j == 0 { "[" } else { ", [" });
                json::f64_or_null(&mut o, *x);
                o.push_str(", ");
                json::f64_or_null(&mut o, *y);
                o.push(']');
            }
            o.push_str("] }");
        }
        if !self.series.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("]\n}\n");
        o
    }
}

/// The value of `--<name> <v>` or `--<name>=<v>` in this process's
/// argv (first occurrence).
fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == flag {
            return argv.next();
        }
        if let Some(v) = arg.strip_prefix(&flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_owned());
        }
    }
    None
}

/// Write one artifact file; a failed write warns and the run goes on.
fn write_artifact(path: impl AsRef<Path>, bytes: &[u8]) {
    let path = path.as_ref();
    if let Err(e) = fs::write(path, bytes) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// `--timeline <path>` / `--timeline=<path>` from this process's argv.
pub fn timeline_path() -> Option<String> {
    arg_value("timeline")
}

/// Timeline sampler config from this process's argv: `Some` iff
/// `--timeline <path>` was given, sampling every `--timeline-every <ms>`
/// (default 100 ms). Bins thread the result straight into
/// `TestbedConfig::timeline`, so the sampler is off — and the run
/// provably byte-identical to an unsampled one — unless the flag is
/// present.
pub fn timeline_cfg() -> Option<TimelineConfig> {
    timeline_path()?;
    let ms: u64 = arg_value("timeline-every").map_or(100, |ms| {
        ms.parse().expect("--timeline-every wants milliseconds")
    });
    assert!(ms > 0, "--timeline-every wants a positive interval");
    Some(TimelineConfig::sampling(SimDuration::from_millis(ms)))
}

/// Relative agreement check: |measured − paper| ≤ tol·|paper|.
pub fn close(measured: f64, paper: f64, tol: f64) -> bool {
    (measured - paper).abs() <= tol * paper.abs().max(1e-12)
}

/// Format a float tersely.
pub fn f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Percentage string.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_tolerance() {
        assert!(close(10.5, 10.0, 0.1));
        assert!(!close(12.0, 10.0, 0.1));
        assert!(close(0.0, 0.0, 0.1));
    }

    #[test]
    fn experiment_roundtrip() {
        let mut e = Experiment::new("test", "demo");
        e.compare("m", "1", "1.02", true);
        e.series("s", vec![(0.0, 0.0), (1.0, 1.0)]);
        std::env::set_var("IMC_RESULTS_DIR", std::env::temp_dir().join("imc-test"));
        assert!(e.finish());
        e.compare("bad", "1", "2", false);
        assert!(!e.finish());
    }

    #[test]
    fn absorb_sums_counters_across_runs() {
        let mut e = Experiment::new("t", "absorb");
        let mut m = Registry::new();
        m.count("sub.events", 2);
        e.absorb(&m);
        e.absorb(&m);
        assert_eq!(e.metrics.counter_value("sub.events"), Some(4));
        // Snapshot order-independence: same JSON as a single 4-count.
        let mut want = Registry::new();
        want.count("sub.events", 4);
        assert_eq!(e.metrics.to_json(), want.to_json());
    }

    #[test]
    fn absorb_health_prefixes_and_resorts() {
        use wifi_core::sim::SimTime;
        use wifi_core::telemetry::health::{Alert, Severity, RULE_RTO_STORM};
        let mut e = Experiment::new("t", "health");
        let mut r = HealthReport {
            steps: 3,
            ..HealthReport::default()
        };
        r.alerts.push(Alert {
            component: "tcp".to_owned(),
            rule: RULE_RTO_STORM.to_owned(),
            severity: Severity::Warning,
            raised_at: SimTime::from_millis(10),
            cleared_at: None,
            cause: None,
            value: 7.0,
            threshold: 6.0,
        });
        e.absorb_health("base", &r);
        e.absorb_health("", &r);
        assert_eq!(e.health.steps, 6);
        let comps: Vec<&str> = e
            .health
            .alerts
            .iter()
            .map(|a| a.component.as_str())
            .collect();
        assert_eq!(comps, ["base.tcp", "tcp"]);
        // Canonical JSON round-trips.
        let parsed = HealthReport::parse(&e.health.to_json()).unwrap();
        assert_eq!(parsed, e.health);
    }

    #[test]
    fn perf_json_reports_rate() {
        let mut e = Experiment::new("t", "perf");
        e.perf("arm-a", 1_000_000, 2.0);
        e.perf("degenerate", 5, 0.0);
        let j = e.perf_json();
        assert!(j.contains("\"bench\": \"t\""), "{j}");
        assert!(j.contains("\"label\": \"arm-a\""), "{j}");
        assert!(j.contains("\"events_per_s\": 500000"), "{j}");
        // Zero wall clock degrades to rate 0, not inf/NaN.
        assert!(j.contains("\"events_per_s\": 0"), "{j}");
        // Peak RSS rides along in every sample (numeric on Linux,
        // null where procfs is unavailable — never absent).
        assert_eq!(j.matches("\"peak_rss_bytes\":").count(), 2, "{j}");
    }

    #[test]
    fn formatting() {
        assert_eq!(f(123.4), "123");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(0.1234), "0.123");
        assert_eq!(pct(0.27), "27%");
    }
}
