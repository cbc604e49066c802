//! `telemetry::health` — deterministic SLO / anomaly detection over
//! metric snapshots and flight-recorder rings.
//!
//! The paper's systems only work because the cloud *interprets* the
//! measurements it collects (§2.2, §4.5): TurboCA consumes utilization
//! and "bad channel" hints, FastACK's win is judged by aggregate-size
//! and latency distributions. This module is that interpretation layer
//! for the reproduction: a rule-driven [`Detector`] engine that runs on
//! the collection cadence, evaluates rolling windows
//! ([`crate::streaming::RollingWindow`]) with raise/clear hysteresis so
//! alerts cannot flap, and emits a typed, byte-stable alert stream.
//!
//! Determinism contract (same as the metrics registry): detectors are
//! stepped at simulated instants with values drawn only from the
//! deterministic [`Registry`], so for a given config + seed the
//! resulting [`HealthReport`] — and its canonical JSON — is
//! byte-identical run to run and across worker thread counts.
//!
//! An [`Alert`] carries an optional [`CauseId`] resolved from the
//! flight dump at finish time, so `simctl health explain` can hand the
//! alert straight to `simctl trace chain`.

use crate::flight::{CauseId, FlightDump, TraceRecord};
use crate::json::{self, Cursor};
use crate::metrics::Registry;
use crate::streaming::{Ewma, RollingWindow};
use sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Rule name of [`ChannelFlap`].
pub const RULE_CHANNEL_FLAP: &str = "channel-flap";
/// Rule name of [`AmpduCollapse`].
pub const RULE_AMPDU_COLLAPSE: &str = "ampdu-collapse";
/// Rule name of [`FastAckStall`].
pub const RULE_FASTACK_STALL: &str = "fastack-stall";
/// Rule name of [`RtoStorm`].
pub const RULE_RTO_STORM: &str = "rto-storm";
/// Rule name of [`AirtimeSlo`].
pub const RULE_AIRTIME_SLO: &str = "airtime-slo";
/// Rule name of [`QueueStarvation`].
pub const RULE_QUEUE_STARVATION: &str = "queue-starvation";
/// Rule name of [`QoeDegraded`].
pub const RULE_QOE_DEGRADED: &str = "qoe-degraded";

/// Alert severity. `Critical` is raised when the detector level reaches
/// the rule's critical multiple of its raise threshold; an open alert
/// upgrades (never downgrades) while it stays raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Critical,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "warning" => Ok(Severity::Warning),
            "critical" => Ok(Severity::Critical),
            other => Err(format!("unknown severity {other:?}")),
        }
    }

    /// Weight used for worst-N scoring in fleet rollups.
    pub fn weight(self) -> u64 {
        match self {
            Severity::Warning => 1,
            Severity::Critical => 3,
        }
    }
}

/// One raised (and possibly cleared) health alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Scope the detector watched (`ap0`, `tcp`, `net42.sched`, …).
    pub component: String,
    /// Rule name (one of the `RULE_*` constants).
    pub rule: String,
    pub severity: Severity,
    pub raised_at: SimTime,
    /// `None` while the condition still held at the end of the run.
    pub cleared_at: Option<SimTime>,
    /// Causal link into the flight dump (`simctl trace chain`), when the
    /// detector could resolve one.
    pub cause: Option<CauseId>,
    /// Detector level when raised (peak level while open).
    pub value: f64,
    /// The raise threshold the level crossed.
    pub threshold: f64,
}

impl Alert {
    /// The flow id packed into `cause`, if any — the argument for
    /// `simctl trace chain <flow>`.
    pub fn cause_flow(&self) -> Option<u64> {
        let flow = self.cause?.flow_hint();
        (flow != 0).then_some(flow)
    }

    fn to_json(&self, out: &mut String) {
        out.push_str("{\"component\":");
        json::string(out, &self.component);
        out.push_str(",\"rule\":");
        json::string(out, &self.rule);
        out.push_str(",\"severity\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"raised_at_ns\":");
        out.push_str(&self.raised_at.as_nanos().to_string());
        out.push_str(",\"cleared_at_ns\":");
        json::opt_u64(out, self.cleared_at.map(SimTime::as_nanos));
        out.push_str(",\"cause\":");
        json::opt_u64(out, self.cause.map(|c| c.0));
        out.push_str(",\"value\":");
        json::f64(out, self.value);
        out.push_str(",\"threshold\":");
        json::f64(out, self.threshold);
        out.push('}');
    }

    fn parse(cur: &mut Cursor<'_>) -> Result<Alert, String> {
        cur.lit("{\"component\":")?;
        let component = cur.string()?;
        cur.lit(",\"rule\":")?;
        let rule = cur.string()?;
        cur.lit(",\"severity\":")?;
        let severity = Severity::from_str(&cur.string()?)?;
        cur.lit(",\"raised_at_ns\":")?;
        let raised_at = SimTime::from_nanos(cur.u64()?);
        cur.lit(",\"cleared_at_ns\":")?;
        let cleared_at = cur.opt_u64()?.map(SimTime::from_nanos);
        cur.lit(",\"cause\":")?;
        let cause = cur.opt_u64()?.map(CauseId);
        cur.lit(",\"value\":")?;
        let value = cur.f64()?;
        cur.lit(",\"threshold\":")?;
        let threshold = cur.f64()?;
        cur.lit("}")?;
        Ok(Alert {
            component,
            rule,
            severity,
            raised_at,
            cleared_at,
            cause,
            value,
            threshold,
        })
    }
}

/// The alert stream of one run (or one network), in canonical order:
/// `(raised_at, component, rule)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Detector evaluation steps taken (0 ⇒ health was disabled).
    pub steps: u64,
    pub alerts: Vec<Alert>,
}

impl HealthReport {
    /// Alerts never cleared by the end of the run.
    pub fn open(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(|a| a.cleared_at.is_none())
    }

    /// Alert counts per rule name.
    pub fn counts_by_rule(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for a in &self.alerts {
            *m.entry(a.rule.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Alert counts per severity.
    pub fn counts_by_severity(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for a in &self.alerts {
            *m.entry(a.severity.as_str().to_string()).or_insert(0) += 1;
        }
        m
    }

    /// Severity-weighted badness (3 per critical, 1 per warning).
    pub fn score(&self) -> u64 {
        self.alerts.iter().map(|a| a.severity.weight()).sum()
    }

    /// Fold another report in, prefixing its components with `label.`
    /// (empty label ⇒ verbatim). Steps sum; the alert list is re-sorted
    /// into canonical order, so absorbing in any order yields the same
    /// report.
    pub fn absorb(&mut self, label: &str, other: &HealthReport) {
        self.steps += other.steps;
        for a in &other.alerts {
            let mut a = a.clone();
            if !label.is_empty() {
                a.component = format!("{label}.{}", a.component);
            }
            self.alerts.push(a);
        }
        sort_alerts(&mut self.alerts);
    }

    /// Canonical byte-stable JSON (sorted alerts, fixed key order,
    /// `{:?}` float formatting — same conventions as the metrics
    /// registry snapshots).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"steps\":");
        out.push_str(&self.steps.to_string());
        out.push_str(",\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            a.to_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Strict parse of the canonical JSON produced by
    /// [`HealthReport::to_json`] (exact grammar; this is a determinism
    /// tool, not a general JSON reader).
    pub fn parse(text: &str) -> Result<HealthReport, String> {
        let mut cur = Cursor::new(text);
        let report = HealthReport::parse_inner(&mut cur)?;
        cur.ws();
        cur.end()?;
        Ok(report)
    }

    fn parse_inner(cur: &mut Cursor<'_>) -> Result<HealthReport, String> {
        cur.lit("{\"steps\":")?;
        let steps = cur.u64()?;
        cur.lit(",\"alerts\":[")?;
        let mut alerts = Vec::new();
        if !cur.eat("]") {
            loop {
                alerts.push(Alert::parse(cur)?);
                if cur.eat("]") {
                    break;
                }
                cur.lit(",")?;
            }
        }
        cur.lit("}")?;
        Ok(HealthReport { steps, alerts })
    }
}

fn sort_alerts(alerts: &mut [Alert]) {
    alerts.sort_by(|a, b| {
        (a.raised_at, &a.component, &a.rule, a.cleared_at).cmp(&(
            b.raised_at,
            &b.component,
            &b.rule,
            b.cleared_at,
        ))
    });
}

// ---- fleet rollup -------------------------------------------------

/// Fleet-wide health: every network's report merged (components
/// prefixed `net<id>.`) plus the summaries a fleet operator actually
/// reads. Built shard-by-shard but always *reduced* in network-id
/// order, so — like the metrics registry — the rollup JSON is
/// byte-identical across 1/2/8 worker threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthRollup {
    /// Alert counts by rule name, fleet-wide.
    pub by_rule: BTreeMap<String, u64>,
    /// Alert counts by severity, fleet-wide.
    pub by_severity: BTreeMap<String, u64>,
    /// Worst networks by severity-weighted score, descending (ties by
    /// label), truncated to the configured N. Quiet networks are
    /// omitted.
    pub worst: Vec<(String, u64)>,
    /// The merged per-network alert stream.
    pub report: HealthReport,
}

impl HealthRollup {
    /// Merge labelled reports (fold them **in id order** for the
    /// determinism guarantee), keeping the `n_worst` highest-scoring
    /// labels.
    pub fn rollup<'a, I>(reports: I, n_worst: usize) -> HealthRollup
    where
        I: IntoIterator<Item = (String, &'a HealthReport)>,
    {
        let mut out = HealthRollup::default();
        for (label, r) in reports {
            let score = r.score();
            if score > 0 {
                out.worst.push((label.clone(), score));
            }
            out.report.absorb(&label, r);
        }
        out.worst
            .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.worst.truncate(n_worst);
        out.by_rule = out.report.counts_by_rule();
        out.by_severity = out.report.counts_by_severity();
        out
    }

    /// Canonical byte-stable JSON. Starts with `{"by_rule":` — readers
    /// (`simctl health`) use that prefix to tell a rollup from a plain
    /// [`HealthReport`] (`{"steps":`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"by_rule\":");
        count_map_json(&self.by_rule, &mut out);
        out.push_str(",\"by_severity\":");
        count_map_json(&self.by_severity, &mut out);
        out.push_str(",\"worst\":[");
        for (i, (label, score)) in self.worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::string(&mut out, label);
            out.push(',');
            out.push_str(&score.to_string());
            out.push(']');
        }
        out.push_str("],\"report\":");
        out.push_str(&self.report.to_json());
        out.push('}');
        out
    }

    /// Strict parse of [`HealthRollup::to_json`] output.
    pub fn parse(text: &str) -> Result<HealthRollup, String> {
        let mut cur = Cursor::new(text);
        cur.lit("{\"by_rule\":{")?;
        let by_rule = parse_count_map(&mut cur)?;
        cur.lit(",\"by_severity\":{")?;
        let by_severity = parse_count_map(&mut cur)?;
        cur.lit(",\"worst\":[")?;
        let mut worst = Vec::new();
        if !cur.eat("]") {
            loop {
                cur.lit("[")?;
                let label = cur.string()?;
                cur.lit(",")?;
                let score = cur.u64()?;
                cur.lit("]")?;
                worst.push((label, score));
                if cur.eat("]") {
                    break;
                }
                cur.lit(",")?;
            }
        }
        cur.lit(",\"report\":")?;
        let report = HealthReport::parse_inner(&mut cur)?;
        cur.lit("}")?;
        cur.ws();
        cur.end()?;
        Ok(HealthRollup {
            by_rule,
            by_severity,
            worst,
            report,
        })
    }
}

/// `{"key":count,…}` in key order — the shape of the rollup's
/// `by_rule`/`by_severity` maps (and of `simctl health summary --json`).
pub fn count_map_json(counts: &BTreeMap<String, u64>, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::string(out, k);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push('}');
}

fn parse_count_map(cur: &mut Cursor<'_>) -> Result<BTreeMap<String, u64>, String> {
    let mut m = BTreeMap::new();
    if cur.eat("}") {
        return Ok(m);
    }
    loop {
        let k = cur.string()?;
        cur.lit(":")?;
        let v = cur.u64()?;
        m.insert(k, v);
        if cur.eat("}") {
            return Ok(m);
        }
        cur.lit(",")?;
    }
}

// ---- rule configuration -------------------------------------------

/// Per-rule tuning for [`ChannelFlap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFlapRule {
    /// Evaluation steps (collection epochs) per rolling window.
    pub window: usize,
    /// Raise when the windowed switch count reaches this level.
    pub raise: f64,
    /// Clear when it falls back to (or below) this level.
    pub clear: f64,
    /// Critical when the level reaches this.
    pub critical: f64,
    /// Initial steps to ignore: the first plan of a fresh network is
    /// *expected* to untangle the topology with a burst of switches.
    pub warmup_steps: u32,
}

impl Default for ChannelFlapRule {
    fn default() -> ChannelFlapRule {
        ChannelFlapRule {
            window: 4,
            raise: 3.0,
            clear: 0.0,
            critical: 6.0,
            warmup_steps: 1,
        }
    }
}

/// Per-rule tuning for [`AmpduCollapse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpduCollapseRule {
    /// Window of per-step mean aggregate sizes the median is taken of.
    pub window: usize,
    /// EWMA smoothing for the long-run baseline aggregate size.
    pub baseline_alpha: f64,
    /// Raise when baseline / windowed-median reaches this ratio.
    pub raise_ratio: f64,
    /// Clear when the ratio recovers to (or below) this.
    pub clear_ratio: f64,
    /// Critical when the ratio reaches this.
    pub critical_ratio: f64,
    /// Steps with fewer new aggregates than this carry no signal and
    /// are skipped (idle links must not look collapsed).
    pub min_aggregates: f64,
}

impl Default for AmpduCollapseRule {
    fn default() -> AmpduCollapseRule {
        AmpduCollapseRule {
            window: 6,
            // Slow enough that the baseline is still "the healthy
            // past" while the 6-step median refills with collapsed
            // samples; a fast baseline would chase the collapse down
            // and never see the ratio cross.
            baseline_alpha: 0.02,
            raise_ratio: 1.8,
            clear_ratio: 1.4,
            critical_ratio: 3.0,
            min_aggregates: 4.0,
        }
    }
}

/// Per-rule tuning for [`FastAckStall`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastAckStallRule {
    /// Raise after this many consecutive steps with zero synth-ACK
    /// emissions while segments are in flight.
    pub gap_steps: f64,
    /// Critical after this many.
    pub critical_steps: f64,
    /// In-flight segments required for silence to be suspicious.
    pub min_inflight: f64,
}

impl Default for FastAckStallRule {
    fn default() -> FastAckStallRule {
        FastAckStallRule {
            gap_steps: 8.0,
            critical_steps: 16.0,
            min_inflight: 4.0,
        }
    }
}

/// Per-rule tuning for [`RtoStorm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoStormRule {
    pub window: usize,
    /// Raise when this many RTO firings land inside one window.
    pub raise: f64,
    pub clear: f64,
    pub critical: f64,
}

impl Default for RtoStormRule {
    fn default() -> RtoStormRule {
        RtoStormRule {
            window: 8,
            raise: 6.0,
            clear: 1.0,
            critical: 12.0,
        }
    }
}

/// Per-rule tuning for [`AirtimeSlo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirtimeSloRule {
    pub window: usize,
    /// Raise when windowed mean utilization exceeds this budget.
    pub raise_util: f64,
    pub clear_util: f64,
    pub critical_util: f64,
}

impl Default for AirtimeSloRule {
    fn default() -> AirtimeSloRule {
        AirtimeSloRule {
            window: 8,
            raise_util: 0.999,
            clear_util: 0.95,
            critical_util: 0.9999,
        }
    }
}

/// Per-rule tuning for [`QueueStarvation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStarvationRule {
    /// Raise after this many consecutive steps with backlog but zero
    /// service.
    pub stall_steps: f64,
    pub critical_steps: f64,
    /// Backlogged frames required for zero service to be suspicious.
    pub min_backlog: f64,
}

impl Default for QueueStarvationRule {
    fn default() -> QueueStarvationRule {
        QueueStarvationRule {
            stall_steps: 8.0,
            critical_steps: 16.0,
            min_backlog: 1.0,
        }
    }
}

/// Per-rule tuning for [`QoeDegraded`]. Levels are *penalties*
/// (`100 - score`), so "raise at 40" means "raise when the worst
/// watched client's QoE score drops to 60 or below".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeDegradedRule {
    /// Raise when the worst client's penalty reaches this.
    pub raise_penalty: f64,
    /// Clear when it falls back to (or below) this.
    pub clear_penalty: f64,
    /// Critical when it reaches this (score ≤ 100 − critical).
    pub critical_penalty: f64,
}

impl Default for QoeDegradedRule {
    fn default() -> QoeDegradedRule {
        QoeDegradedRule {
            raise_penalty: 40.0,
            clear_penalty: 25.0,
            critical_penalty: 55.0,
        }
    }
}

/// The standard rule set, `None` per rule to disable it. `Copy` so the
/// fleet config stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthRules {
    /// Detector evaluation cadence (the testbed's collection epoch).
    pub sample_every: SimDuration,
    pub channel_flap: Option<ChannelFlapRule>,
    pub ampdu_collapse: Option<AmpduCollapseRule>,
    pub fastack_stall: Option<FastAckStallRule>,
    pub rto_storm: Option<RtoStormRule>,
    pub airtime_slo: Option<AirtimeSloRule>,
    pub queue_starvation: Option<QueueStarvationRule>,
    pub qoe_degraded: Option<QoeDegradedRule>,
}

impl Default for HealthRules {
    fn default() -> HealthRules {
        HealthRules {
            sample_every: SimDuration::from_millis(250),
            channel_flap: Some(ChannelFlapRule::default()),
            ampdu_collapse: Some(AmpduCollapseRule::default()),
            fastack_stall: Some(FastAckStallRule::default()),
            rto_storm: Some(RtoStormRule::default()),
            airtime_slo: Some(AirtimeSloRule::default()),
            queue_starvation: Some(QueueStarvationRule::default()),
            qoe_degraded: Some(QoeDegradedRule::default()),
        }
    }
}

// ---- detector plumbing --------------------------------------------

/// Raise/clear hysteresis: `Raise` fires on the upward crossing of
/// `raise_at`, `Clear` only once the level falls back to `clear_at` —
/// the gap is what keeps a level oscillating around one threshold from
/// flapping an alert.
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    pub raise_at: f64,
    pub clear_at: f64,
    active: bool,
}

/// Edge produced by [`Hysteresis::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    Raise,
    Clear,
}

impl Hysteresis {
    pub fn new(raise_at: f64, clear_at: f64) -> Hysteresis {
        assert!(
            clear_at <= raise_at,
            "hysteresis clear level must not exceed the raise level"
        );
        Hysteresis {
            raise_at,
            clear_at,
            active: false,
        }
    }

    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Feed the current level; returns the edge it crossed, if any.
    pub fn update(&mut self, level: f64) -> Option<Edge> {
        if !self.active && level >= self.raise_at {
            self.active = true;
            Some(Edge::Raise)
        } else if self.active && level <= self.clear_at {
            self.active = false;
            Some(Edge::Clear)
        } else {
            None
        }
    }
}

/// What a detector step tells the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transition {
    /// Raise a new alert — or, if one is already open for this
    /// detector, upgrade its severity/peak level.
    Raise {
        level: f64,
        threshold: f64,
        severity: Severity,
    },
    /// Clear the open alert.
    Clear,
}

/// Shared raise/clear/severity logic: hysteresis plus the critical
/// escalation level, emitting upgrade transitions while an alert is
/// open and the level keeps climbing.
#[derive(Debug, Clone, Copy)]
struct Trigger {
    hyst: Hysteresis,
    critical_at: f64,
    raised: Severity,
}

impl Trigger {
    fn new(raise_at: f64, clear_at: f64, critical_at: f64) -> Trigger {
        Trigger {
            hyst: Hysteresis::new(raise_at, clear_at),
            critical_at,
            raised: Severity::Warning,
        }
    }

    fn is_active(&self) -> bool {
        self.hyst.is_active()
    }

    fn eval(&mut self, level: f64) -> Option<Transition> {
        let severity = if level >= self.critical_at {
            Severity::Critical
        } else {
            Severity::Warning
        };
        match self.hyst.update(level) {
            Some(Edge::Raise) => {
                self.raised = severity;
                Some(Transition::Raise {
                    level,
                    threshold: self.hyst.raise_at,
                    severity,
                })
            }
            Some(Edge::Clear) => Some(Transition::Clear),
            None if self.hyst.is_active() && severity > self.raised => {
                self.raised = severity;
                Some(Transition::Raise {
                    level,
                    threshold: self.hyst.raise_at,
                    severity,
                })
            }
            None => None,
        }
    }
}

/// Previous-sample state for turning cumulative counters/gauges into
/// per-step deltas. The first observation yields 0 (no baseline yet).
#[derive(Debug, Clone, Copy, Default)]
struct Delta {
    prev: Option<f64>,
}

impl Delta {
    fn update(&mut self, current: f64) -> f64 {
        let d = match self.prev {
            Some(p) => current - p,
            None => 0.0,
        };
        self.prev = Some(current);
        d
    }
}

/// Read a cumulative value by metric path: counter, else gauge, else a
/// profiler span's total sim time in ns. `None` until the host
/// registers the path — detectors stay silent rather than inventing
/// zeros for metrics that do not exist yet.
fn probe(metrics: &Registry, path: &str) -> Option<f64> {
    if let Some(v) = metrics.counter_value(path) {
        return Some(v as f64);
    }
    if let Some(v) = metrics.gauge_value(path) {
        return Some(v as f64);
    }
    metrics
        .span_value(path)
        .map(|s| s.total_time.as_nanos() as f64)
}

/// Latest flight event at or before `before` whose layer is in
/// `layers` and whose flow is in `flows` (empty `flows` ⇒ any flow),
/// returning its cause id. Ties keep the earliest component in dump
/// order — deterministic because dumps are.
pub fn last_cause(
    dump: &FlightDump,
    layers: &[&str],
    flows: &[u64],
    before: SimTime,
) -> Option<CauseId> {
    let mut best: Option<(SimTime, CauseId)> = None;
    for comp in &dump.components {
        for ev in &comp.records {
            if ev.at > before || ev.cause == CauseId::NONE {
                continue;
            }
            if !layers.contains(&ev.record.layer()) {
                continue;
            }
            if !flows.is_empty() && !ev.flow().is_some_and(|f| flows.contains(&f)) {
                continue;
            }
            if best.is_none_or(|(at, _)| ev.at > at) {
                best = Some((ev.at, ev.cause));
            }
        }
    }
    best.map(|(_, c)| c)
}

/// One health rule evaluated over the metric stream. Implementations
/// must be deterministic functions of the step sequence. `Send` so an
/// engine can ride a managed network across shard workers.
pub trait Detector: Send {
    /// Rule name (one of the `RULE_*` constants).
    fn rule(&self) -> &'static str;
    /// The scope this instance watches (`ap0`, `tcp`, `sched`, …).
    fn component(&self) -> &str;
    /// Evaluate one collection epoch against the live registry.
    fn step(&mut self, now: SimTime, metrics: &Registry) -> Option<Transition>;
    /// Resolve the causal id to attach to an alert raised at
    /// `raised_at`, once the flight dump is available (finish time).
    fn resolve_cause(&self, _dump: &FlightDump, _raised_at: SimTime) -> Option<CauseId> {
        None
    }
    /// Post-run cross-check against the flight dump; returning `false`
    /// refutes (drops) the alert.
    fn confirm(&self, _dump: &FlightDump, _alert: &Alert) -> bool {
        true
    }
}

/// The detector engine: steps every registered detector on the
/// collection cadence, tracks open alerts, and finalizes the report —
/// resolving causes and applying flight-record cross-checks — once the
/// run's flight dump exists.
#[derive(Default)]
pub struct HealthEngine {
    detectors: Vec<Box<dyn Detector>>,
    /// Per-detector index into `alerts` while an alert is open.
    open: Vec<Option<usize>>,
    /// `(detector index, alert)`, in raise order.
    alerts: Vec<(usize, Alert)>,
    steps: u64,
}

impl HealthEngine {
    pub fn new() -> HealthEngine {
        HealthEngine::default()
    }

    /// Register a detector. Hosts must add detectors in a
    /// deterministic order; it is part of the byte-stability contract.
    pub fn add(&mut self, detector: Box<dyn Detector>) {
        self.detectors.push(detector);
        self.open.push(None);
    }

    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Evaluate every detector at simulated instant `now`.
    pub fn step(&mut self, now: SimTime, metrics: &Registry) {
        self.steps += 1;
        for (i, det) in self.detectors.iter_mut().enumerate() {
            match det.step(now, metrics) {
                Some(Transition::Raise {
                    level,
                    threshold,
                    severity,
                }) => match self.open[i] {
                    Some(k) => {
                        let a = &mut self.alerts[k].1;
                        a.severity = a.severity.max(severity);
                        a.value = a.value.max(level);
                    }
                    None => {
                        self.open[i] = Some(self.alerts.len());
                        self.alerts.push((
                            i,
                            Alert {
                                component: det.component().to_string(),
                                rule: det.rule().to_string(),
                                severity,
                                raised_at: now,
                                cleared_at: None,
                                cause: None,
                                value: level,
                                threshold,
                            },
                        ));
                    }
                },
                Some(Transition::Clear) => {
                    if let Some(k) = self.open[i].take() {
                        self.alerts[k].1.cleared_at = Some(now);
                    }
                }
                None => {}
            }
        }
    }

    /// Close out the run: resolve causes via the flight dump, drop
    /// alerts their detector refutes against it, and emit the report
    /// in canonical order.
    pub fn finish(self, dump: &FlightDump) -> HealthReport {
        let mut alerts = Vec::new();
        for (i, mut a) in self.alerts {
            let det = &self.detectors[i];
            a.cause = det.resolve_cause(dump, a.raised_at);
            if det.confirm(dump, &a) {
                alerts.push(a);
            }
        }
        sort_alerts(&mut alerts);
        HealthReport {
            steps: self.steps,
            alerts,
        }
    }
}

// ---- the standard catalog -----------------------------------------

/// TurboCA reassignment churn: windowed sum of per-step channel-switch
/// deltas. A healthy network converges and sits still (§4.4.4's
/// schedule is explicitly designed to bound switch churn); repeated
/// reassignment means the planner is chasing a moving RF environment
/// or oscillating between plans.
pub struct ChannelFlap {
    component: String,
    switches_path: String,
    delta: Delta,
    window: RollingWindow,
    trig: Trigger,
    warmup_left: u32,
}

impl ChannelFlap {
    pub fn new(
        component: impl Into<String>,
        switches_path: impl Into<String>,
        rule: ChannelFlapRule,
    ) -> ChannelFlap {
        ChannelFlap {
            component: component.into(),
            switches_path: switches_path.into(),
            delta: Delta::default(),
            window: RollingWindow::new(rule.window),
            trig: Trigger::new(rule.raise, rule.clear, rule.critical),
            warmup_left: rule.warmup_steps,
        }
    }
}

impl Detector for ChannelFlap {
    fn rule(&self) -> &'static str {
        RULE_CHANNEL_FLAP
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, _now: SimTime, metrics: &Registry) -> Option<Transition> {
        let switches = probe(metrics, &self.switches_path)?;
        let d = self.delta.update(switches);
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return None;
        }
        self.window.push(d);
        self.trig.eval(self.window.sum())
    }
}

/// Aggregate-size collapse: the windowed median of per-step mean
/// A-MPDU size falls far below the long-run (EWMA) baseline. This is
/// the canonical MAC-layer symptom of interference/retry pressure —
/// §3.2.4 measures exactly this distribution, and shrinking aggregates
/// are how an 802.11ac link loses its throughput headroom.
pub struct AmpduCollapse {
    component: String,
    aggregates_path: String,
    frames_path: String,
    flows: Vec<u64>,
    d_aggs: Delta,
    d_frames: Delta,
    window: RollingWindow,
    baseline: Ewma,
    trig: Trigger,
    min_aggregates: f64,
}

impl AmpduCollapse {
    pub fn new(
        component: impl Into<String>,
        aggregates_path: impl Into<String>,
        frames_path: impl Into<String>,
        flows: Vec<u64>,
        rule: AmpduCollapseRule,
    ) -> AmpduCollapse {
        AmpduCollapse {
            component: component.into(),
            aggregates_path: aggregates_path.into(),
            frames_path: frames_path.into(),
            flows,
            d_aggs: Delta::default(),
            d_frames: Delta::default(),
            window: RollingWindow::new(rule.window),
            baseline: Ewma::new(rule.baseline_alpha),
            trig: Trigger::new(rule.raise_ratio, rule.clear_ratio, rule.critical_ratio),
            min_aggregates: rule.min_aggregates,
        }
    }
}

impl Detector for AmpduCollapse {
    fn rule(&self) -> &'static str {
        RULE_AMPDU_COLLAPSE
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, _now: SimTime, metrics: &Registry) -> Option<Transition> {
        let aggs = probe(metrics, &self.aggregates_path)?;
        let frames = probe(metrics, &self.frames_path)?;
        let da = self.d_aggs.update(aggs);
        let df = self.d_frames.update(frames);
        if da < self.min_aggregates {
            // Idle step: no aggregates means no signal, not collapse.
            return None;
        }
        let mean_size = df / da;
        self.window.push(mean_size);
        if !self.window.is_full() {
            self.baseline.observe(mean_size);
            return None;
        }
        if !self.trig.is_active() {
            // Baseline tracks slowly while healthy and freezes while
            // raised, so a long-lived collapse cannot become the new
            // normal and self-clear.
            self.baseline.observe(mean_size);
        }
        let median = self.window.quantile(0.5).unwrap_or(mean_size);
        let base = self.baseline.value().unwrap_or(median);
        self.trig.eval(base / median.max(1e-9))
    }

    fn resolve_cause(&self, dump: &FlightDump, raised_at: SimTime) -> Option<CauseId> {
        last_cause(dump, &["ampdu-build", "mac-tx"], &self.flows, raised_at)
    }
}

/// FastACK emission gap: segments are in flight but the agent has not
/// synthesized an ACK for multiple consecutive epochs. Cross-checked
/// at finish time against the `fastack.*` flight ring — if synthetic
/// ACK records for these flows exist inside the claimed gap, the
/// metrics and the flight recorder disagree and the alert is refuted.
pub struct FastAckStall {
    component: String,
    synth_path: String,
    inflight_path: String,
    flows: Vec<u64>,
    d_synth: Delta,
    streak: f64,
    trig: Trigger,
    min_inflight: f64,
    /// Most recent stalled step.
    last_stalled: SimTime,
    /// Raise time of the currently open alert.
    open_raise: Option<SimTime>,
    /// `(raised_at, last stalled step)` per closed alert, for confirm.
    stall_spans: Vec<(SimTime, SimTime)>,
}

impl FastAckStall {
    pub fn new(
        component: impl Into<String>,
        synth_path: impl Into<String>,
        inflight_path: impl Into<String>,
        flows: Vec<u64>,
        rule: FastAckStallRule,
    ) -> FastAckStall {
        FastAckStall {
            component: component.into(),
            synth_path: synth_path.into(),
            inflight_path: inflight_path.into(),
            flows,
            d_synth: Delta::default(),
            streak: 0.0,
            trig: Trigger::new(rule.gap_steps, 0.5, rule.critical_steps),
            min_inflight: rule.min_inflight,
            last_stalled: SimTime::ZERO,
            open_raise: None,
            stall_spans: Vec::new(),
        }
    }

    /// The last stalled instant covered by the alert raised at
    /// `raised_at` (the open stall if it never cleared).
    fn stall_end(&self, raised_at: SimTime) -> SimTime {
        self.stall_spans
            .iter()
            .find(|(r, _)| *r == raised_at)
            .map(|(_, e)| *e)
            .unwrap_or(self.last_stalled)
    }
}

impl Detector for FastAckStall {
    fn rule(&self) -> &'static str {
        RULE_FASTACK_STALL
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, now: SimTime, metrics: &Registry) -> Option<Transition> {
        let synth = probe(metrics, &self.synth_path)?;
        let inflight = probe(metrics, &self.inflight_path)?;
        let d = self.d_synth.update(synth);
        // Synth counts are integral, so `< 0.5` is "no emissions".
        if d < 0.5 && inflight >= self.min_inflight {
            self.streak += 1.0;
            self.last_stalled = now;
        } else {
            self.streak = 0.0;
        }
        let was_active = self.trig.is_active();
        let t = self.trig.eval(self.streak);
        match t {
            Some(Transition::Raise { .. }) if !was_active => self.open_raise = Some(now),
            Some(Transition::Clear) => {
                if let Some(raised) = self.open_raise.take() {
                    self.stall_spans.push((raised, self.last_stalled));
                }
            }
            _ => {}
        }
        t
    }

    fn resolve_cause(&self, dump: &FlightDump, raised_at: SimTime) -> Option<CauseId> {
        // The last ACK the agent did emit, else the stuck segment.
        last_cause(dump, &["fastack-synth"], &self.flows, raised_at)
            .or_else(|| last_cause(dump, &["tcp-seg", "mac-tx"], &self.flows, raised_at))
    }

    fn confirm(&self, dump: &FlightDump, alert: &Alert) -> bool {
        let end = self.stall_end(alert.raised_at);
        // A genuine stall has no synthetic emissions for these flows
        // inside the claimed gap; one on the record refutes the alert.
        !dump.components.iter().any(|comp| {
            comp.records.iter().any(|ev| {
                ev.at > alert.raised_at
                    && ev.at <= end
                    && matches!(
                        ev.record,
                        TraceRecord::FastAckSynth { flow, synthetic: true, .. }
                            if self.flows.contains(&flow)
                    )
            })
        })
    }
}

/// Retransmission-timeout storm: windowed sum of per-step RTO firings.
/// SACK/fast-retransmit should absorb ordinary loss; RTOs en masse
/// mean the feedback loop itself has failed (§5.1's pathology).
pub struct RtoStorm {
    component: String,
    timeouts_path: String,
    flows: Vec<u64>,
    delta: Delta,
    window: RollingWindow,
    trig: Trigger,
}

impl RtoStorm {
    pub fn new(
        component: impl Into<String>,
        timeouts_path: impl Into<String>,
        flows: Vec<u64>,
        rule: RtoStormRule,
    ) -> RtoStorm {
        RtoStorm {
            component: component.into(),
            timeouts_path: timeouts_path.into(),
            flows,
            delta: Delta::default(),
            window: RollingWindow::new(rule.window),
            trig: Trigger::new(rule.raise, rule.clear, rule.critical),
        }
    }
}

impl Detector for RtoStorm {
    fn rule(&self) -> &'static str {
        RULE_RTO_STORM
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, _now: SimTime, metrics: &Registry) -> Option<Transition> {
        let timeouts = probe(metrics, &self.timeouts_path)?;
        let d = self.delta.update(timeouts);
        self.window.push(d);
        self.trig.eval(self.window.sum())
    }

    fn resolve_cause(&self, dump: &FlightDump, raised_at: SimTime) -> Option<CauseId> {
        last_cause(dump, &["tcp-seg"], &self.flows, raised_at)
    }
}

/// Airtime SLO: windowed mean utilization (Δbusy-ns / Δt) against a
/// budget. The per-AP `air.*` spans are the ground truth the §3
/// measurement study is built on; a network pinned above its budget
/// has no headroom for the planner to work with.
pub struct AirtimeSlo {
    component: String,
    busy_path: String,
    d_busy: Delta,
    prev_step: Option<SimTime>,
    window: RollingWindow,
    trig: Trigger,
}

impl AirtimeSlo {
    pub fn new(
        component: impl Into<String>,
        busy_path: impl Into<String>,
        rule: AirtimeSloRule,
    ) -> AirtimeSlo {
        AirtimeSlo {
            component: component.into(),
            busy_path: busy_path.into(),
            d_busy: Delta::default(),
            prev_step: None,
            window: RollingWindow::new(rule.window),
            trig: Trigger::new(rule.raise_util, rule.clear_util, rule.critical_util),
        }
    }
}

impl Detector for AirtimeSlo {
    fn rule(&self) -> &'static str {
        RULE_AIRTIME_SLO
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, now: SimTime, metrics: &Registry) -> Option<Transition> {
        let busy = probe(metrics, &self.busy_path)?;
        let d = self.d_busy.update(busy);
        let prev = self.prev_step.replace(now);
        let dt = now.saturating_since(prev?).as_nanos() as f64;
        if dt <= 0.0 {
            return None;
        }
        self.window.push(d / dt);
        if !self.window.is_full() {
            return None;
        }
        self.trig.eval(self.window.mean().unwrap_or(0.0))
    }

    fn resolve_cause(&self, dump: &FlightDump, raised_at: SimTime) -> Option<CauseId> {
        last_cause(dump, &["airtime-span"], &[], raised_at)
    }
}

/// Queue starvation: frames are backlogged but the scheduler built no
/// aggregates for multiple consecutive epochs — the MAC service
/// process has stopped while demand remains.
pub struct QueueStarvation {
    component: String,
    backlog_path: String,
    served_path: String,
    flows: Vec<u64>,
    d_served: Delta,
    streak: f64,
    trig: Trigger,
    min_backlog: f64,
}

impl QueueStarvation {
    pub fn new(
        component: impl Into<String>,
        backlog_path: impl Into<String>,
        served_path: impl Into<String>,
        flows: Vec<u64>,
        rule: QueueStarvationRule,
    ) -> QueueStarvation {
        QueueStarvation {
            component: component.into(),
            backlog_path: backlog_path.into(),
            served_path: served_path.into(),
            flows,
            d_served: Delta::default(),
            streak: 0.0,
            trig: Trigger::new(rule.stall_steps, 0.5, rule.critical_steps),
            min_backlog: rule.min_backlog,
        }
    }
}

impl Detector for QueueStarvation {
    fn rule(&self) -> &'static str {
        RULE_QUEUE_STARVATION
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, _now: SimTime, metrics: &Registry) -> Option<Transition> {
        let backlog = probe(metrics, &self.backlog_path)?;
        let served = probe(metrics, &self.served_path)?;
        let d = self.d_served.update(served);
        if backlog >= self.min_backlog && d < 0.5 {
            self.streak += 1.0;
        } else {
            self.streak = 0.0;
        }
        self.trig.eval(self.streak)
    }

    fn resolve_cause(&self, dump: &FlightDump, raised_at: SimTime) -> Option<CauseId> {
        last_cause(dump, &["tcp-seg", "ampdu-build"], &self.flows, raised_at)
    }
}

/// Application-layer QoE degradation: watches per-client QoE score
/// gauges (0–100, probe-flow derived) and raises when the *worst*
/// watched client's penalty (`100 − score`) crosses the rule's raise
/// threshold. The alert's cause is the last probe (or MAC tx) record
/// of the worst-affected client's probe flow, so `simctl health explain
/// --trace` walks from the application-layer symptom down the stack.
pub struct QoeDegraded {
    component: String,
    /// `(score gauge path, probe flow id)` per watched client.
    clients: Vec<(String, u64)>,
    trig: Trigger,
    /// `(raised_at, worst client's probe flow)` per raise, for
    /// cause resolution after the fact.
    raise_flows: Vec<(SimTime, u64)>,
}

impl QoeDegraded {
    pub fn new(
        component: impl Into<String>,
        clients: Vec<(String, u64)>,
        rule: QoeDegradedRule,
    ) -> QoeDegraded {
        QoeDegraded {
            component: component.into(),
            clients,
            trig: Trigger::new(
                rule.raise_penalty,
                rule.clear_penalty,
                rule.critical_penalty,
            ),
            raise_flows: Vec::new(),
        }
    }

    fn flow_for(&self, raised_at: SimTime) -> Option<u64> {
        self.raise_flows
            .iter()
            .find(|(r, _)| *r == raised_at)
            .map(|(_, f)| *f)
    }
}

impl Detector for QoeDegraded {
    fn rule(&self) -> &'static str {
        RULE_QOE_DEGRADED
    }

    fn component(&self) -> &str {
        &self.component
    }

    fn step(&mut self, now: SimTime, metrics: &Registry) -> Option<Transition> {
        // Worst watched client this epoch; clients whose gauge is not
        // registered (QoE sampling off) are skipped, and with none
        // registered the detector stays silent.
        let mut worst: Option<(f64, u64)> = None;
        for (path, flow) in &self.clients {
            let Some(score) = probe(metrics, path) else {
                continue;
            };
            if worst.is_none_or(|(s, _)| score < s) {
                worst = Some((score, *flow));
            }
        }
        let (score, flow) = worst?;
        let level = (100.0 - score).max(0.0);
        let was_active = self.trig.is_active();
        let t = self.trig.eval(level);
        if let Some(Transition::Raise { .. }) = t {
            if !was_active {
                self.raise_flows.push((now, flow));
            }
        }
        t
    }

    fn resolve_cause(&self, dump: &FlightDump, raised_at: SimTime) -> Option<CauseId> {
        let flow = self.flow_for(raised_at)?;
        last_cause(dump, &["qoe-probe", "mac-tx"], &[flow], raised_at)
    }

    fn confirm(&self, dump: &FlightDump, alert: &Alert) -> bool {
        let Some(flow) = self.flow_for(alert.raised_at) else {
            return true;
        };
        // A degraded-QoE alert implies probe traffic existed. If the
        // flight ring retained *any* probe records, one for this flow
        // must be among them; none at all (recording off or evicted)
        // is inconclusive and passes.
        let mut saw_any = false;
        let mut saw_flow = false;
        for comp in &dump.components {
            for ev in &comp.records {
                if let TraceRecord::QoeProbe { flow: f, .. } = ev.record {
                    saw_any = true;
                    if f == flow {
                        saw_flow = true;
                    }
                }
            }
        }
        !saw_any || saw_flow
    }
}

/// Build the standard catalog for one AP scope. `flows` are the flow
/// ids terminating at this AP; paths follow the testbed's metric
/// naming. Hosts with different naming can construct detectors
/// directly.
pub fn standard_ap_detectors(
    ap: usize,
    flows: Vec<u64>,
    fastack: bool,
    rules: &HealthRules,
) -> Vec<Box<dyn Detector>> {
    let comp = format!("ap{ap}");
    let mut out: Vec<Box<dyn Detector>> = Vec::new();
    if let Some(r) = rules.ampdu_collapse {
        out.push(Box::new(AmpduCollapse::new(
            comp.clone(),
            format!("mac.ap{ap}.ampdu.aggregates"),
            format!("mac.ap{ap}.ampdu.frames"),
            flows.clone(),
            r,
        )));
    }
    if fastack {
        if let Some(r) = rules.fastack_stall {
            out.push(Box::new(FastAckStall::new(
                comp.clone(),
                format!("health.ap{ap}.fast_acks"),
                format!("health.ap{ap}.inflight"),
                flows.clone(),
                r,
            )));
        }
    }
    if let Some(r) = rules.queue_starvation {
        out.push(Box::new(QueueStarvation::new(
            comp,
            format!("health.ap{ap}.backlog"),
            format!("mac.ap{ap}.ampdu.aggregates"),
            flows,
            r,
        )));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{cause_for, FlightRecorder};

    fn t(step: u64) -> SimTime {
        SimTime::from_millis(250 * step)
    }

    #[test]
    fn hysteresis_needs_the_full_gap_to_clear() {
        let mut h = Hysteresis::new(3.0, 1.0);
        assert!(!h.is_active());
        assert_eq!(h.update(2.9), None);
        assert_eq!(h.update(3.0), Some(Edge::Raise));
        assert!(h.is_active());
        // Oscillation inside the gap must not flap.
        assert_eq!(h.update(2.0), None);
        assert_eq!(h.update(3.5), None);
        assert_eq!(h.update(1.5), None);
        assert_eq!(h.update(1.0), Some(Edge::Clear));
        assert!(!h.is_active());
        assert_eq!(h.update(1.0), None);
    }

    #[test]
    fn rto_storm_lifecycle_with_severity_upgrade() {
        let mut m = Registry::new();
        let c = m.counter("tcp.timeouts");
        let mut eng = HealthEngine::new();
        eng.add(Box::new(RtoStorm::new(
            "tcp",
            "tcp.timeouts",
            vec![],
            RtoStormRule {
                window: 4,
                raise: 3.0,
                clear: 0.0,
                critical: 8.0,
            },
        )));
        // Quiet warmup.
        for s in 0..4 {
            eng.step(t(s), &m);
        }
        // 4 timeouts in one epoch: raise (warning).
        m.add(c, 4);
        eng.step(t(4), &m);
        // 6 more: the open alert upgrades to critical.
        m.add(c, 6);
        eng.step(t(5), &m);
        // Quiet epochs flush the window back to zero: clear.
        for s in 6..10 {
            eng.step(t(s), &m);
        }
        let report = eng.finish(&FlightDump::default());
        assert_eq!(report.steps, 10);
        assert_eq!(report.alerts.len(), 1);
        let a = &report.alerts[0];
        assert_eq!(a.rule, RULE_RTO_STORM);
        assert_eq!(a.component, "tcp");
        assert_eq!(a.severity, Severity::Critical, "upgraded while open");
        assert_eq!(a.raised_at, t(4));
        assert_eq!(a.cleared_at, Some(t(9)));
        assert!(a.value >= 10.0, "peak level recorded: {}", a.value);
        assert!(a.cause.is_none(), "no flight records to link");
    }

    #[test]
    fn channel_flap_ignores_warmup_then_fires_on_churn() {
        let mut m = Registry::new();
        let c = m.counter("sched.switches");
        let mut flap = ChannelFlap::new(
            "sched",
            "sched.switches",
            ChannelFlapRule {
                window: 4,
                raise: 3.0,
                clear: 0.0,
                critical: 6.0,
                warmup_steps: 1,
            },
        );
        // Initial convergence burst lands in the warmup step.
        m.add(c, 8);
        assert_eq!(flap.step(t(0), &m), None);
        for s in 1..5 {
            assert_eq!(flap.step(t(s), &m), None, "stable network stays quiet");
        }
        // Churn: 2 + 2 switches in adjacent epochs crosses raise=3.
        m.add(c, 2);
        assert_eq!(flap.step(t(5), &m), None);
        m.add(c, 2);
        let raised = flap.step(t(6), &m);
        assert!(
            matches!(
                raised,
                Some(Transition::Raise {
                    severity: Severity::Warning,
                    ..
                })
            ),
            "{raised:?}"
        );
        // Four quiet epochs drain the window: clear.
        let mut cleared = None;
        for s in 7..12 {
            if let Some(tr) = flap.step(t(s), &m) {
                cleared = Some(tr);
            }
        }
        assert_eq!(cleared, Some(Transition::Clear));
    }

    #[test]
    fn ampdu_collapse_needs_sustained_drop_and_recovers() {
        let mut m = Registry::new();
        let aggs = m.counter("mac.ap0.ampdu.aggregates");
        let frames = m.counter("mac.ap0.ampdu.frames");
        let mut det = AmpduCollapse::new(
            "ap0",
            "mac.ap0.ampdu.aggregates",
            "mac.ap0.ampdu.frames",
            vec![7],
            AmpduCollapseRule::default(),
        );
        let feed = |m: &mut Registry, n_aggs: u64, mean: u64| {
            m.add(aggs, n_aggs);
            m.add(frames, n_aggs * mean);
        };
        let mut raised_step = None;
        let mut cleared_step = None;
        for s in 0..60 {
            // Healthy 40-frame aggregates, a collapse to 8 frames for
            // steps 25..40, healthy again after.
            let mean = if (25..40).contains(&s) { 8 } else { 40 };
            feed(&mut m, 10, mean);
            match det.step(t(s), &m) {
                Some(Transition::Raise { .. }) if raised_step.is_none() => {
                    raised_step = Some(s);
                }
                Some(Transition::Clear) => cleared_step = Some(s),
                _ => {}
            }
        }
        let raised = raised_step.expect("collapse detected");
        assert!(
            (25..40).contains(&raised),
            "raised during the collapse: step {raised}"
        );
        let cleared = cleared_step.expect("recovery clears the alert");
        assert!(cleared >= 40, "cleared after recovery: step {cleared}");
    }

    #[test]
    fn ampdu_collapse_skips_idle_steps() {
        let mut m = Registry::new();
        let aggs = m.counter("a");
        let frames = m.counter("f");
        let mut det = AmpduCollapse::new("ap0", "a", "f", vec![], AmpduCollapseRule::default());
        for s in 0..20 {
            m.add(aggs, 10);
            m.add(frames, 400);
            assert_eq!(det.step(t(s), &m), None);
        }
        // 20 idle epochs: no aggregates at all must NOT look collapsed.
        for s in 20..40 {
            assert_eq!(det.step(t(s), &m), None, "idle step {s} raised");
        }
    }

    fn stall_registry() -> (Registry, crate::metrics::GaugeId, crate::metrics::GaugeId) {
        let mut m = Registry::new();
        let synth = m.gauge("health.ap0.fast_acks");
        let inflight = m.gauge("health.ap0.inflight");
        m.gauge_set(inflight, 30);
        (m, synth, inflight)
    }

    #[test]
    fn fastack_stall_raises_and_links_last_emission() {
        let rule = FastAckStallRule {
            gap_steps: 4.0,
            critical_steps: 16.0,
            min_inflight: 4.0,
        };
        let rec = FlightRecorder::new(64);
        // Healthy epochs emit synthetic ACKs (flight side).
        for s in 0..3 {
            rec.emit(
                "fastack.synth",
                t(s),
                cause_for(3, 1000 + s),
                TraceRecord::FastAckSynth {
                    flow: 3,
                    ack: 1000 + s,
                    synthetic: true,
                },
            );
        }
        let run = || {
            let (mut m, synth, _inflight) = stall_registry();
            let mut eng = HealthEngine::new();
            eng.add(Box::new(FastAckStall::new(
                "ap0",
                "health.ap0.fast_acks",
                "health.ap0.inflight",
                vec![3],
                rule,
            )));
            for s in 0..9 {
                if s < 3 {
                    // Metrics side of the healthy emissions.
                    m.gauge_add(synth, 5);
                }
                // From step 3 on: silence with 30 segments in flight —
                // a stall after gap_steps quiet epochs.
                eng.step(t(s), &m);
            }
            eng.finish(&rec.snapshot())
        };
        let report = run();
        assert_eq!(report.alerts.len(), 1);
        let a = &report.alerts[0];
        assert_eq!(a.rule, RULE_FASTACK_STALL);
        assert!(a.cleared_at.is_none(), "still stalled at finish");
        assert_eq!(
            a.cause,
            Some(cause_for(3, 1002)),
            "linked to the last synthetic ACK before the gap"
        );
        assert_eq!(a.cause_flow(), Some(3));
        // Determinism: the identical scenario reproduces byte-for-byte.
        assert_eq!(run().to_json(), report.to_json());
    }

    #[test]
    fn fastack_stall_refuted_by_flight_records() {
        let (m, _synth, _inflight) = stall_registry();
        let rec = FlightRecorder::new(64);
        let mut eng = HealthEngine::new();
        eng.add(Box::new(FastAckStall::new(
            "ap0",
            "health.ap0.fast_acks",
            "health.ap0.inflight",
            vec![3],
            FastAckStallRule {
                gap_steps: 4.0,
                critical_steps: 16.0,
                min_inflight: 4.0,
            },
        )));
        // The gauge never moves (metrics claim a stall) but the flight
        // ring shows a synthetic emission inside the gap: the
        // cross-check must drop the alert.
        for s in 0..9 {
            eng.step(t(s), &m);
        }
        rec.emit(
            "fastack.synth",
            t(5),
            cause_for(3, 2000),
            TraceRecord::FastAckSynth {
                flow: 3,
                ack: 2000,
                synthetic: true,
            },
        );
        let report = eng.finish(&rec.snapshot());
        assert!(
            report.alerts.is_empty(),
            "flight record inside the gap refutes the stall: {:?}",
            report.alerts
        );
    }

    #[test]
    fn queue_starvation_requires_backlog_and_silence() {
        let mut m = Registry::new();
        let backlog = m.gauge("health.ap0.backlog");
        let served = m.counter("mac.ap0.ampdu.aggregates");
        let rule = QueueStarvationRule {
            stall_steps: 3.0,
            critical_steps: 6.0,
            min_backlog: 1.0,
        };
        let mut det = QueueStarvation::new(
            "ap0",
            "health.ap0.backlog",
            "mac.ap0.ampdu.aggregates",
            vec![],
            rule,
        );
        // Empty queue + silence: fine.
        for s in 0..5 {
            assert_eq!(det.step(t(s), &m), None);
        }
        // Backlog while serving: fine.
        m.gauge_set(backlog, 40);
        for s in 5..10 {
            m.add(served, 2);
            assert_eq!(det.step(t(s), &m), None);
        }
        // Backlog and zero service: raises on the 3rd silent epoch.
        assert_eq!(det.step(t(10), &m), None);
        assert_eq!(det.step(t(11), &m), None);
        assert!(matches!(
            det.step(t(12), &m),
            Some(Transition::Raise { .. })
        ));
        // Service resumes: streak collapses, alert clears.
        m.add(served, 1);
        assert_eq!(det.step(t(13), &m), Some(Transition::Clear));
    }

    #[test]
    fn airtime_slo_raises_when_budget_exceeded() {
        let mut m = Registry::new();
        let busy = m.gauge("health.air.busy_ns");
        let mut det = AirtimeSlo::new(
            "air",
            "health.air.busy_ns",
            AirtimeSloRule {
                window: 4,
                raise_util: 0.9,
                clear_util: 0.5,
                critical_util: 0.99,
            },
        );
        let step_ns = 250_000_000i64;
        // 70% busy: under budget.
        for s in 0..8 {
            m.gauge_add(busy, step_ns * 7 / 10);
            assert_eq!(det.step(t(s), &m), None);
        }
        // Pinned at 98% busy: crosses the 0.9 budget once the window
        // fills with hot epochs.
        let mut raised = false;
        for s in 8..16 {
            m.gauge_add(busy, step_ns * 98 / 100);
            if matches!(det.step(t(s), &m), Some(Transition::Raise { .. })) {
                raised = true;
            }
        }
        assert!(raised, "pinned medium must violate the SLO");
    }

    #[test]
    fn report_json_roundtrips_and_is_byte_stable() {
        let report = HealthReport {
            steps: 42,
            alerts: vec![
                Alert {
                    component: "ap0".into(),
                    rule: RULE_AMPDU_COLLAPSE.into(),
                    severity: Severity::Critical,
                    raised_at: t(10),
                    cleared_at: Some(t(20)),
                    cause: Some(cause_for(3, 1460)),
                    value: 3.25,
                    threshold: 1.8,
                },
                Alert {
                    component: "tcp".into(),
                    rule: RULE_RTO_STORM.into(),
                    severity: Severity::Warning,
                    raised_at: t(15),
                    cleared_at: None,
                    cause: None,
                    value: 7.0,
                    threshold: 6.0,
                },
            ],
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "byte-stable");
        let parsed = HealthReport::parse(&json).expect("strict parse");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), json, "parse→emit is the identity");
        // Trailing newline (files) is tolerated; junk is not.
        assert!(HealthReport::parse(&format!("{json}\n")).is_ok());
        assert!(HealthReport::parse(&format!("{json}x")).is_err());
        assert!(HealthReport::parse("{\"steps\":oops").is_err());
    }

    #[test]
    fn absorb_is_order_independent_and_prefixes() {
        let mk = |component: &str, step: u64| HealthReport {
            steps: 10,
            alerts: vec![Alert {
                component: component.into(),
                rule: RULE_CHANNEL_FLAP.into(),
                severity: Severity::Warning,
                raised_at: t(step),
                cleared_at: None,
                cause: None,
                value: 4.0,
                threshold: 3.0,
            }],
        };
        let (a, b) = (mk("sched", 5), mk("sched", 2));
        let mut ab = HealthReport::default();
        ab.absorb("net0", &a);
        ab.absorb("net1", &b);
        let mut ba = HealthReport::default();
        ba.absorb("net1", &b);
        ba.absorb("net0", &a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.steps, 20);
        assert_eq!(ab.alerts[0].component, "net1.sched", "sorted by raise time");
        assert_eq!(ab.alerts[1].component, "net0.sched");
    }

    #[test]
    fn rollup_counts_and_ranks_worst_networks() {
        let mk = |n_crit: usize, n_warn: usize| {
            let mut alerts = Vec::new();
            for i in 0..(n_crit + n_warn) {
                alerts.push(Alert {
                    component: "ap0".into(),
                    rule: RULE_AMPDU_COLLAPSE.into(),
                    severity: if i < n_crit {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    },
                    raised_at: t(i as u64),
                    cleared_at: None,
                    cause: None,
                    value: 2.0,
                    threshold: 1.8,
                });
            }
            HealthReport { steps: 4, alerts }
        };
        let quiet = HealthReport {
            steps: 4,
            alerts: vec![],
        };
        let reports = [mk(0, 1), mk(2, 0), quiet.clone(), mk(0, 2)];
        let rollup = HealthRollup::rollup(
            reports
                .iter()
                .enumerate()
                .map(|(i, r)| (format!("net{i}"), r)),
            2,
        );
        assert_eq!(rollup.report.steps, 16);
        assert_eq!(rollup.by_rule.get(RULE_AMPDU_COLLAPSE), Some(&5));
        assert_eq!(rollup.by_severity.get("critical"), Some(&2));
        assert_eq!(rollup.by_severity.get("warning"), Some(&3));
        // net1 scores 6 (2 criticals), net3 scores 2, net0 scores 1,
        // net2 is quiet and omitted; top-2 kept.
        assert_eq!(
            rollup.worst,
            vec![("net1".to_string(), 6), ("net3".to_string(), 2)]
        );
        let json = rollup.to_json();
        assert!(json.starts_with("{\"by_rule\":"), "rollup prefix: {json}");
        let parsed = HealthRollup::parse(&json).expect("strict parse");
        assert_eq!(parsed, rollup);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn probe_reads_counters_gauges_and_spans() {
        let mut m = Registry::new();
        let c = m.counter("c");
        m.add(c, 3);
        let g = m.gauge("g");
        m.gauge_set(g, -4);
        let sp = m.span("s");
        let span = m.enter(sp, SimTime::ZERO);
        m.exit(span, SimTime::from_nanos(500));
        assert_eq!(probe(&m, "c"), Some(3.0));
        assert_eq!(probe(&m, "g"), Some(-4.0));
        assert_eq!(probe(&m, "s"), Some(500.0));
        assert_eq!(probe(&m, "missing"), None);
    }

    #[test]
    fn qoe_degraded_tracks_worst_client_and_links_its_probe_flow() {
        let rec = FlightRecorder::new(64);
        // Probe traffic for both clients; flow 0x4001 is the one that
        // degrades, so its last probe record is the expected cause.
        for s in 0..4u64 {
            for flow in [0x4000u64, 0x4001] {
                rec.emit(
                    "qoe.tx",
                    t(s),
                    cause_for(flow, s),
                    TraceRecord::QoeProbe {
                        flow,
                        seq: s,
                        delay_ns: 0,
                    },
                );
            }
        }
        let run = || {
            let mut m = Registry::new();
            let g0 = m.gauge("qoe.client0.score");
            let g1 = m.gauge("qoe.client1.score");
            let mut eng = HealthEngine::new();
            eng.add(Box::new(QoeDegraded::new(
                "ap0",
                vec![
                    ("qoe.client0.score".to_string(), 0x4000),
                    ("qoe.client1.score".to_string(), 0x4001),
                ],
                QoeDegradedRule::default(),
            )));
            for s in 0..12 {
                m.gauge_set(g0, 95);
                // Client 1 collapses at step 4: score 30 (penalty 70,
                // past the critical threshold), recovers at step 8.
                m.gauge_set(g1, if (4..8).contains(&s) { 30 } else { 95 });
                eng.step(t(s), &m);
            }
            eng.finish(&rec.snapshot())
        };
        let report = run();
        assert_eq!(report.alerts.len(), 1);
        let a = &report.alerts[0];
        assert_eq!(a.rule, RULE_QOE_DEGRADED);
        assert_eq!(a.severity, Severity::Critical, "penalty 70 >= critical 55");
        assert_eq!(a.raised_at, t(4));
        assert_eq!(a.cleared_at, Some(t(8)), "recovery clears via hysteresis");
        assert_eq!(
            a.cause_flow(),
            Some(0x4001),
            "cause is the worst-affected client's probe flow"
        );
        assert_eq!(
            a.cause,
            Some(cause_for(0x4001, 3)),
            "last probe before raise"
        );
        // Determinism: identical scenario reproduces byte-for-byte.
        assert_eq!(run().to_json(), report.to_json());
    }

    #[test]
    fn qoe_degraded_is_silent_without_score_gauges() {
        let m = Registry::new();
        let mut det = QoeDegraded::new(
            "ap0",
            vec![("qoe.client0.score".to_string(), 0x4000)],
            QoeDegradedRule::default(),
        );
        for s in 0..20 {
            assert_eq!(det.step(t(s), &m), None, "unregistered gauge raised");
        }
    }

    #[test]
    fn qoe_degraded_refuted_when_probe_records_miss_the_flow() {
        let rec = FlightRecorder::new(64);
        // Probe records exist, but only for a *different* flow: the
        // claimed victim has no probe traffic on record, so confirm
        // must refute the alert.
        rec.emit(
            "qoe.tx",
            t(0),
            cause_for(0x4002, 0),
            TraceRecord::QoeProbe {
                flow: 0x4002,
                seq: 0,
                delay_ns: 0,
            },
        );
        let mut m = Registry::new();
        let g = m.gauge("qoe.client0.score");
        let mut eng = HealthEngine::new();
        eng.add(Box::new(QoeDegraded::new(
            "ap0",
            vec![("qoe.client0.score".to_string(), 0x4000)],
            QoeDegradedRule::default(),
        )));
        m.gauge_set(g, 20);
        for s in 0..4 {
            eng.step(t(s), &m);
        }
        let report = eng.finish(&rec.snapshot());
        assert!(
            report.alerts.is_empty(),
            "alert without probe evidence for its flow must be refuted"
        );
    }
}
