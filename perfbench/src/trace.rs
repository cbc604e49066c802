//! The traced run: per-layer metrics from spans recorded around calls
//! into each layer's public functions, plus work counts read from the
//! program's own reports.
//!
//! Each operation runs twice back to back, first untraced and then
//! traced, so both halves of a pair see the same host state.
//! `trace.overhead_ratio` is the median over these pairs of traced wall
//! time (spans, replays and counting included) over untraced wall time.

use crate::alloc::counted;
use crate::measure::{self, guarded};
use crate::pins::{FleetPin, TestbedPin};
use crate::replay;
use crate::stats::{mean, median, quantile};
use crate::workload;
use crate::{Args, Metric, Outcome};
use chanassign::model::Plan;
use chanassign::{nbo, net_p_ln, ScheduleTier, TurboCa};
use sim::{Rng, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// Layers that do no work on a workload report 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("sim.events", "count"),
    ("sim.scheduled", "count"),
    ("sim.depth_peak", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.replay_ns_per_event", "ns"),
    ("phy.replay_ns_per_mpdu", "ns"),
    ("mac.ampdus", "count"),
    ("mac.mpdus", "count"),
    ("mac.collisions", "count"),
    ("mac.mpdus_per_ampdu", "ratio"),
    ("mac.collision_ratio", "ratio"),
    ("mac.airtime_util", "ratio"),
    ("mac.replay_ns_per_ampdu", "ns"),
    ("mac.replay_ns_per_round", "ns"),
    ("tcp.retransmits", "count"),
    ("tcp.timeouts", "count"),
    ("tcp.replay_ns_per_ack", "ns"),
    ("fastack.fast_acks", "count"),
    ("fastack.acks_suppressed", "count"),
    ("fastack.local_retransmits", "count"),
    ("fastack.holes", "count"),
    ("fastack.cache_bypasses", "count"),
    ("fastack.replay_ns_per_segment", "ns"),
    ("telemetry.flight_records", "count"),
    ("telemetry.flight_dropped", "count"),
    ("telemetry.timeline_samples", "count"),
    ("telemetry.health_alerts", "count"),
    ("telemetry.replay_ns_per_emit", "ns"),
    ("telemetry.replay_ns_per_sample", "ns"),
    ("telemetry.ingest_ms", "ms"),
    ("telemetry.rollup_ms", "ms"),
    ("qoe.probes", "count"),
    ("netsim.testbed_new_ms", "ms"),
    ("netsim.testbed_run_ms", "ms"),
    ("netsim.deploy_ms", "ms"),
    ("netsim.neteval_ms", "ms"),
    ("fleet.tick_slow_ms", "ms"),
    ("fleet.tick_medium_ms", "ms"),
    ("fleet.tick_fast_p50_ms", "ms"),
    ("fleet.tick_fast_p90_ms", "ms"),
    ("fleet.polls", "count"),
    ("chanassign.nbo_hop0_ms", "ms"),
    ("chanassign.nbo_hop1_ms", "ms"),
    ("chanassign.nbo_hop2_ms", "ms"),
    ("chanassign.netp_us", "us"),
    ("chanassign.plans", "count"),
    ("chanassign.plan_accept_ratio", "ratio"),
    ("chanassign.switches", "count"),
    ("chanassign.allocs_per_plan", "count"),
    ("chanassign.netp_ln_mean", "ln"),
    ("sim.self_ms", "ms"),
    ("phy.self_ms", "ms"),
    ("mac.self_ms", "ms"),
    ("tcp.self_ms", "ms"),
    ("fastack.self_ms", "ms"),
    ("chanassign.self_ms", "ms"),
    ("netsim.self_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("telemetry.self_ms", "ms"),
    ("qoe.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` under the innermost open span.
    /// Returns the value and the span's duration in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let v = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans[id].end_ns = end_ns;
        (v, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Run `f`, turning a panic into `None`; spans it left open are
    /// closed where they stood, so the span tree stays well formed.
    pub fn guarded<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> Option<T> {
        let depth = self.stack.len();
        let v = guarded(|| f(self));
        self.stack.truncate(depth);
        v
    }

    /// Start a new operation (the id every later span carries).
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its children cover, summed by name prefix.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for r in &self.spans {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                r.name, r.start_ns, r.end_ns, r.op
            );
        }
        s
    }
}

/// Per-layer values collected by a traced run, keyed by metric name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, k: &'static str, v: f64) {
        self.0.insert(k, v);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::default();
    let (mut values, attempted, failed, traced_units, info) = if args.workload.is_testbed() {
        testbed(args, &mut tracer)?
    } else {
        fleet(args, &mut tracer)?
    };
    for (layer, ms) in tracer.self_ms() {
        if let Some(&(name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_ms") == Some(layer))
        {
            values.set(name, ms / traced_units.max(1) as f64);
        }
    }
    if let Ok(dir) = std::env::var("PERFBENCH_OUT") {
        let path = format!("{dir}/spans-{}-{}.jsonl", args.workload.name(), args.seed);
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, tracer.to_jsonl()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("perfbench: spans written to {path}");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: values.into_metrics(),
        info,
    })
}

/// Per-layer values, operations attempted and failed (untraced and
/// traced halves of each pair both count), the units the traced halves
/// covered (testbed runs or fleet networks: the divisor of the per-layer
/// self times), and the info line.
type Traced = (Values, u64, u64, u64, Vec<(&'static str, f64)>);

/// Median over adjacent (untraced, traced) pairs of traced over
/// untraced wall time; pairs whose untraced half panicked are skipped.
fn overhead(pairs: &[(Option<f64>, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter_map(|&(u, t)| u.map(|u| t / u.max(1e-12)))
        .collect();
    median(&ratios)
}

fn counter(r: &netsim::TestbedReport, path: &str) -> f64 {
    r.metrics.counter_value(path).unwrap_or(0) as f64
}

fn testbed(args: &Args, tr: &mut Tracer) -> Result<Traced, String> {
    let w = args.workload;
    let ops: Vec<TestbedPin> = measure::testbed_setup(w, args.seed)?;

    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_insert(0.0) += v;
    let mut replays: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut new_ms, mut run_ms, mut pairs) = (vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut run_ns) = (0u64, 0u64, 0.0);
    let deadline = Instant::now() + args.budget();
    for pin in ops.iter().cycle() {
        let untraced = measure::testbed_op(w, *pin);
        attempted += untraced.attempted;
        failed += untraced.failed;
        tr.next_op();
        attempted += 1;
        let ((), op_ms) = tr.span("bench.op", |tr| {
            let cfg = workload::testbed_config(w, pin.op_seed);
            let (tb, t_new) = tr.span("netsim.testbed_new", |_| {
                guarded(|| netsim::Testbed::new(cfg.clone()))
            });
            let Some(tb) = tb else {
                failed += 1;
                return;
            };
            let (r, t_run) = tr.span("netsim.testbed_run", |_| {
                guarded(|| tb.run(workload::testbed_duration()))
            });
            let Some(r) = r else {
                failed += 1;
                return;
            };
            failed += u64::from(guarded(|| workload::testbed_digest(&r)) != Some(pin.digest));
            new_ms.push(t_new);
            run_ms.push(t_run);
            run_ns += t_run * 1e6;

            add("sim.events", counter(&r, "sim.queue.popped"));
            add("sim.scheduled", counter(&r, "sim.queue.scheduled"));
            add(
                "sim.depth_peak",
                r.metrics.gauge_value("sim.queue.depth_peak").unwrap_or(0) as f64,
            );
            let ampdus = counter(&r, "mac.ampdu.aggregates");
            let collisions = counter(&r, "mac.collisions");
            let successes: f64 = (0..cfg.n_aps)
                .map(|a| counter(&r, &format!("mac.ap{a}.backoff.successes")))
                .sum::<f64>()
                + counter(&r, "mac.clients.backoff.successes");
            add("mac.ampdus", ampdus);
            add("mac.mpdus", counter(&r, "mac.ampdu.frames"));
            add("mac.collisions", collisions);
            add("mac.rounds", collisions + successes);
            add("mac.airtime_util", r.medium_utilization);
            for s in &r.sender_stats {
                add("tcp.retransmits", s.retransmits as f64);
                add("tcp.timeouts", s.timeouts as f64);
            }
            for a in &r.agent_stats {
                add("fastack.fast_acks", a.fast_acks_sent as f64);
                add("fastack.acks_suppressed", a.client_acks_suppressed as f64);
                add("fastack.local_retransmits", a.local_retransmits as f64);
                add("fastack.holes", a.holes_detected as f64);
                add("fastack.cache_bypasses", a.cache_bypasses as f64);
            }
            add("telemetry.flight_records", r.flight.total_records() as f64);
            add("telemetry.flight_dropped", r.flight.total_dropped() as f64);
            add(
                "telemetry.timeline_samples",
                r.timeline.as_ref().map_or(0, |t| t.ticks()) as f64,
            );
            add("telemetry.health_alerts", r.health.alerts.len() as f64);
            add(
                "qoe.probes",
                r.qoe.iter().map(|q| q.sent).sum::<u64>() as f64,
            );

            // Layer replays at this operation's own shape.
            let depth = r
                .metrics
                .gauge_value("sim.queue.depth_peak")
                .unwrap_or(1)
                .max(1);
            let snrs = replay::snr_mix(&cfg, pin.op_seed);
            let mut rep = |name: &'static str, tr: &mut Tracer, f: &mut dyn FnMut() -> f64| {
                let (v, _) = tr.span(name, |_| f());
                replays.entry(name).or_default().push(v);
            };
            rep("sim.replay_ns_per_event", tr, &mut || {
                replay::sim_queue(depth as usize, pin.op_seed)
            });
            rep("phy.replay_ns_per_mpdu", tr, &mut || {
                replay::phy(&cfg, &snrs)
            });
            rep("mac.replay_ns_per_ampdu", tr, &mut || {
                replay::mac_ampdu(&cfg, &snrs)
            });
            rep("mac.replay_ns_per_round", tr, &mut || {
                replay::mac_round(&cfg, pin.op_seed)
            });
            rep("tcp.replay_ns_per_ack", tr, &mut || replay::tcp(&cfg));
            rep("fastack.replay_ns_per_segment", tr, &mut || {
                replay::fastack(&cfg)
            });
            rep("telemetry.replay_ns_per_emit", tr, &mut || {
                replay::flight_emit(&cfg)
            });
            rep("telemetry.replay_ns_per_sample", tr, &mut || {
                replay::timeline_sample(&cfg, &r.metrics)
            });
        });
        pairs.push((untraced.wall_s, op_ms / 1e3));
        if Instant::now() >= deadline {
            break;
        }
    }

    let n = pairs.len().max(1) as f64;
    let mut v = Values::default();
    for (k, s) in &sums {
        v.set(k, s / n);
    }
    let ampdus = sums.get("mac.ampdus").copied().unwrap_or(0.0);
    let collisions = sums.get("mac.collisions").copied().unwrap_or(0.0);
    v.set(
        "mac.mpdus_per_ampdu",
        sums.get("mac.mpdus").copied().unwrap_or(0.0) / ampdus.max(1.0),
    );
    v.set(
        "mac.collision_ratio",
        collisions / sums.get("mac.rounds").copied().unwrap_or(0.0).max(1.0),
    );
    v.0.remove("mac.rounds");
    let events = sums.get("sim.events").copied().unwrap_or(0.0);
    v.set("sim.host_ns_per_event", run_ns / events.max(1.0));
    for (k, xs) in &replays {
        v.set(k, median(xs));
    }
    v.set("netsim.testbed_new_ms", median(&new_ms));
    v.set("netsim.testbed_run_ms", median(&run_ms));
    v.set("trace.overhead_ratio", overhead(&pairs));
    let info = vec![("pairs", pairs.len() as f64)];
    Ok((v, attempted, failed, pairs.len() as u64, info))
}

/// Tier the scheduler runs at `now`: Slow on day boundaries, Medium on
/// 3 h boundaries, Fast otherwise (the scheduler's own cadence, with
/// the first Slow run at t = 0).
fn tier_at(now: SimTime) -> ScheduleTier {
    let due = |t: ScheduleTier| now.as_nanos().is_multiple_of(t.period().as_nanos());
    if due(ScheduleTier::Slow) {
        ScheduleTier::Slow
    } else if due(ScheduleTier::Medium) {
        ScheduleTier::Medium
    } else {
        ScheduleTier::Fast
    }
}

/// Fleet values accumulated across traced fleets.
#[derive(Default)]
struct FleetAcc {
    deploy: Vec<f64>,
    neteval: Vec<f64>,
    ticks: BTreeMap<&'static str, Vec<f64>>,
    nbo: [Vec<f64>; 3],
    netp_us: Vec<f64>,
    ingest: Vec<f64>,
    rollup: Vec<f64>,
    plans: f64,
    accepted: f64,
    switches: f64,
    polls: f64,
    alerts: f64,
    counted_ticks: f64,
    counted_allocs: f64,
    netp_ln: Vec<f64>,
}

/// What one replica fleet produced.
pub struct ReplicaOut {
    pub reports: Vec<fleet::NetworkReport>,
    /// The `run_fleet` checksum, recomputed from the reports.
    pub checksum: u64,
    /// Allocation calls made by each network's ticks (0 for networks
    /// that were timed rather than counted).
    pub tick_allocs: Vec<u64>,
}

/// One fleet, sequentially at one thread: the same generate → tick →
/// finalize → ingest sequence `run_fleet` performs, with a span around
/// each call. The ticks of networks for which `count` holds have their
/// allocations counted instead of their times sampled, since counting
/// slows the allocation-heavy planner.
fn traced_fleet(
    master: u64,
    tr: &mut Tracer,
    acc: &mut FleetAcc,
    count: &dyn Fn(u64) -> bool,
) -> ReplicaOut {
    let cfg = workload::fleet_config(master, 1);
    let params = TurboCa::new(0).params;
    let mut nets = Vec::with_capacity(cfg.n_networks);
    for id in 0..cfg.n_networks as u64 {
        let (net, ms) = tr.span("netsim.deploy", |_| {
            fleet::ManagedNetwork::generate(&cfg, id)
        });
        acc.deploy.push(ms);
        for (hop, times) in acc.nbo.iter_mut().enumerate() {
            let name = [
                "chanassign.nbo_hop0",
                "chanassign.nbo_hop1",
                "chanassign.nbo_hop2",
            ][hop];
            let mut rng = Rng::new(net.seed ^ hop as u64);
            let (_, ms) = tr.span(name, |_| {
                std::hint::black_box(nbo(&params, &net.view, hop, &mut rng))
            });
            times.push(ms);
        }
        const NETP_REPS: u32 = 20;
        let plan = Plan::current(&net.view);
        let (_, ms) = tr.span("chanassign.netp", |_| {
            for _ in 0..NETP_REPS {
                std::hint::black_box(net_p_ln(&params, &net.view, &plan));
            }
        });
        acc.netp_us.push(ms * 1e3 / f64::from(NETP_REPS));
        nets.push(net);
    }

    let mut tick_allocs = vec![0u64; nets.len()];
    let end = SimTime::ZERO + cfg.horizon;
    let mut now = SimTime::ZERO;
    while now < end {
        let tier = match tier_at(now) {
            ScheduleTier::Slow => "slow",
            ScheduleTier::Medium => "medium",
            ScheduleTier::Fast => "fast",
        };
        for (net, allocs) in nets.iter_mut().zip(tick_allocs.iter_mut()) {
            if count(net.id) {
                let (_, n) = counted(|| tr.span("fleet.tick", |_| net.on_tick(now, &cfg)));
                *allocs += n;
                acc.counted_ticks += 1.0;
                acc.counted_allocs += n as f64;
            } else {
                let (_, ms) = tr.span("fleet.tick", |_| net.on_tick(now, &cfg));
                acc.ticks.entry(tier).or_default().push(ms);
            }
        }
        now += cfg.collect_period;
    }
    for net in nets.iter_mut() {
        let (_, ms) = tr.span("netsim.neteval", |_| net.finalize());
        acc.neteval.push(ms);
        acc.polls += net.metrics.counter_value("fleet.net.polls").unwrap_or(0) as f64;
    }
    let reports: Vec<fleet::NetworkReport> = nets.into_iter().filter_map(|n| n.report).collect();

    let (checksum, ms) = tr.span("telemetry.ingest", |_| {
        let mut ingest = fleet::FleetIngest::new();
        let mut c = fleet::Checksum::new();
        for r in &reports {
            ingest.ingest(r);
            fleet::report::mix_network_report(&mut c, r);
        }
        std::hint::black_box(ingest.aggregate());
        c.finish()
    });
    acc.ingest.push(ms);
    let (_, ms) = tr.span("telemetry.rollup", |_| {
        telemetry::HealthRollup::rollup(
            reports.iter().map(|r| (format!("net{}", r.id), &r.health)),
            10,
        )
    });
    acc.rollup.push(ms);
    tr.span("qoe.rollup", |_| {
        qoe::QoeRollup::rollup(
            reports
                .iter()
                .map(|r| (format!("net{}", r.id), r.qoe_score, &r.health)),
            10,
        )
    });
    for r in &reports {
        acc.plans += r.plans_run as f64;
        acc.accepted += r.accepted as f64;
        acc.switches += r.switches as f64;
        acc.alerts += r.health.alerts.len() as f64;
        acc.netp_ln.push(r.final_net_p_ln);
    }
    ReplicaOut {
        reports,
        checksum,
        tick_allocs,
    }
}

/// A replica fleet with every network's allocations counted: the work
/// measure the fleet pool is selected by (see `pins::generate`).
pub fn counted_fleet(master: u64) -> ReplicaOut {
    traced_fleet(
        master,
        &mut Tracer::default(),
        &mut FleetAcc::default(),
        &|_| true,
    )
}

fn fleet(args: &Args, tr: &mut Tracer) -> Result<Traced, String> {
    let ops: Vec<FleetPin> = measure::fleet_setup(args.seed)?;
    let mut acc = FleetAcc::default();
    let (mut attempted, mut failed, mut pairs) = (0u64, 0u64, vec![]);
    let mut traced_nets = 0u64;
    let deadline = Instant::now() + args.budget();
    for pin in ops.iter().cycle() {
        let untraced = measure::fleet_op(pin, 1);
        attempted += untraced.attempted;
        failed += untraced.failed;
        tr.next_op();
        // Network 0's ticks are counted for allocations; the others are timed.
        let (out, op_ms) = tr.span("bench.op", |tr| {
            tr.guarded(|tr| traced_fleet(pin.master, tr, &mut acc, &|id| id == 0))
        });
        let bad = out.map(|o| measure::fleet_failures(pin, &o.reports, o.checksum));
        pairs.push((untraced.wall_s, op_ms / 1e3));
        attempted += pin.networks.len() as u64;
        traced_nets += pin.networks.len() as u64;
        failed += bad.unwrap_or(pin.networks.len() as u64);
        if Instant::now() >= deadline {
            break;
        }
    }

    let nets = traced_nets.max(1) as f64;
    let mut v = Values::default();
    v.set("netsim.deploy_ms", median(&acc.deploy));
    v.set("netsim.neteval_ms", median(&acc.neteval));
    let ticks = |t: &str| acc.ticks.get(t).cloned().unwrap_or_default();
    v.set("fleet.tick_slow_ms", median(&ticks("slow")));
    v.set("fleet.tick_medium_ms", median(&ticks("medium")));
    v.set("fleet.tick_fast_p50_ms", quantile(&ticks("fast"), 0.5));
    v.set("fleet.tick_fast_p90_ms", quantile(&ticks("fast"), 0.9));
    v.set("fleet.polls", acc.polls / nets);
    v.set("chanassign.nbo_hop0_ms", median(&acc.nbo[0]));
    v.set("chanassign.nbo_hop1_ms", median(&acc.nbo[1]));
    v.set("chanassign.nbo_hop2_ms", median(&acc.nbo[2]));
    v.set("chanassign.netp_us", median(&acc.netp_us));
    v.set("chanassign.plans", acc.plans / nets);
    v.set(
        "chanassign.plan_accept_ratio",
        acc.accepted / acc.plans.max(1.0),
    );
    v.set("chanassign.switches", acc.switches / nets);
    // Every tick runs one plan in this workload (15 min epochs).
    v.set(
        "chanassign.allocs_per_plan",
        acc.counted_allocs / acc.counted_ticks.max(1.0),
    );
    v.set("chanassign.netp_ln_mean", mean(&acc.netp_ln));
    v.set("telemetry.ingest_ms", median(&acc.ingest));
    v.set("telemetry.rollup_ms", median(&acc.rollup));
    v.set("telemetry.health_alerts", acc.alerts / nets);
    v.set("trace.overhead_ratio", overhead(&pairs));
    let info = vec![
        ("pairs", pairs.len() as f64),
        (
            "fleet_ticks",
            ticks("fast").len() as f64 + ticks("medium").len() as f64 + ticks("slow").len() as f64,
        ),
    ];
    Ok((v, attempted, failed, traced_nets, info))
}
