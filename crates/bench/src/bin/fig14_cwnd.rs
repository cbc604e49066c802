//! Fig. 14 — sender congestion windows, 10 concurrent flows: with
//! baseline TCP not every flow opens to the OS cap of 770 segments;
//! with FastACK every flow does, quickly.

use bench::harness::{f, Experiment};
use wifi_core::prelude::*;

fn run(fastack: bool) -> TestbedReport {
    Testbed::new(TestbedConfig {
        clients_per_ap: 10,
        fastack: vec![fastack],
        seed: 1414,
        // The cwnd curves come off the timeline sampler (always on for
        // this figure: the CSV series need it regardless of argv; the
        // `--timeline` flag only controls whether the TSL2 store is
        // dumped), one point per flow every 250 ms.
        timeline: Some(TimelineConfig::sampling(SimDuration::from_millis(250))),
        ..TestbedConfig::default()
    })
    .run(SimDuration::from_secs(10))
}

/// Flow `c`'s congestion window off the run's timeline: (seconds,
/// segments) per tick.
fn cwnd_curve(r: &TestbedReport, c: usize) -> Vec<(f64, f64)> {
    r.timeline
        .as_ref()
        .expect("timeline on")
        .range(
            &format!("tcp.flow{c}.cwnd_segments"),
            SimTime::ZERO,
            SimTime::MAX,
        )
        .into_iter()
        .map(|(at, w)| (at.as_nanos() as f64 / 1e9, w))
        .collect()
}

fn main() {
    let mut exp = Experiment::new("fig14", "TCP cwnd traces, baseline vs FastACK (10 flows)");
    let run_prof = exp.stage("run");
    // Wall-clock sample for `--perf` (clippy.toml disallows
    // `Instant::now` in sim code; the bench harness is host-side).
    #[allow(clippy::disallowed_methods)]
    let wall_start = std::time::Instant::now();
    let base = run(false);
    let fast = run(true);
    let wall_s = wall_start.elapsed().as_secs_f64();
    drop(run_prof);

    // Final-second cwnd per flow.
    let final_cwnd = |r: &TestbedReport| -> Vec<f64> {
        (0..10)
            .map(|c| cwnd_curve(r, c).last().map_or(0.0, |&(_, w)| w))
            .collect()
    };
    let base_final = final_cwnd(&base);
    let fast_final = final_cwnd(&fast);
    let at_cap = |xs: &[f64]| xs.iter().filter(|&&w| w >= 700.0).count();

    exp.compare(
        "FastACK flows reaching the 770-segment cap",
        "all 10",
        format!("{}/10", at_cap(&fast_final)),
        at_cap(&fast_final) >= 9,
    );
    exp.compare(
        "baseline flows reaching the cap",
        "not all",
        format!("{}/10", at_cap(&base_final)),
        at_cap(&base_final) < at_cap(&fast_final),
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    exp.compare(
        "mean final cwnd",
        "FastACK opens windows fully",
        format!(
            "{} vs {} segments",
            f(mean(&fast_final)),
            f(mean(&base_final))
        ),
        mean(&fast_final) > mean(&base_final),
    );
    // FastACK opens fast: mean cwnd at t=2s already near cap.
    let early_fast: Vec<f64> = (0..10)
        .flat_map(|c| cwnd_curve(&fast, c))
        .filter(|(t, _)| (1.9..2.1).contains(t))
        .map(|(_, w)| w)
        .collect();
    exp.compare(
        "FastACK cwnd at t=2s",
        "opens up quickly",
        format!("{} segments", f(mean(&early_fast))),
        mean(&early_fast) > 500.0,
    );
    // Dump traces for flows 0..3 of each.
    for c in 0..3 {
        exp.series(format!("cwnd-baseline-flow{c}"), cwnd_curve(&base, c));
        exp.series(format!("cwnd-fastack-flow{c}"), cwnd_curve(&fast, c));
    }
    exp.absorb(&base.metrics);
    exp.absorb(&fast.metrics);
    exp.absorb_flight("base", &base.flight);
    exp.absorb_flight("fast", &fast.flight);
    exp.absorb_timeline("base", base.timeline.as_ref().expect("timeline on"));
    exp.absorb_timeline("fast", fast.timeline.as_ref().expect("timeline on"));
    let events = exp.metrics.counter_value("sim.queue.popped").unwrap_or(0);
    exp.perf("fig14_cwnd", events, wall_s);
    std::process::exit(if exp.finish() { 0 } else { 1 });
}
