//! Layer replays: each calls one layer's public hot-path functions in a
//! tight loop, with inputs shaped like the workload's own (its queue
//! depth, SNR mix, station count, agent and recorder configuration),
//! and returns host nanoseconds per unit of that layer's work.
//!
//! The testbed runs its layers inside one `Testbed::run` call, so these
//! replays are how the traced run attributes cost to a layer without
//! instrumenting the program.

use mac80211::aggregation::{build_ampdu, AggLimits, QueuedMpdu};
use mac80211::contention::BatchResolver;
use mac80211::{AccessCategory, Backoff, EdcaParams};
use netsim::TestbedConfig;
use phy80211::airtime::AirtimeTable;
use phy80211::error_model::PerCache;
use phy80211::mcs::GuardInterval;
use phy80211::rate::RateCache;
use sim::{EventQueue, Rng, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;
use tcpsim::{
    AckSegment, DataSegment, FlowId, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender,
};
use telemetry::{CauseId, FlightRecorder, Registry, Timeline, TraceRecord};

fn per_unit(t0: Instant, units: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// Client SNRs drawn the way the testbed places its clients: spread
/// linearly from the base SNR downward, plus unit-variance noise.
pub fn snr_mix(cfg: &TestbedConfig, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let per_ap = cfg.clients_per_ap.max(1);
    (0..cfg.n_aps * per_ap)
        .map(|c| {
            let frac = (c % per_ap) as f64 / (per_ap - 1).max(1) as f64;
            cfg.base_snr_db - frac * cfg.snr_spread_db + rng.normal(0.0, 1.0)
        })
        .collect()
}

/// `EventQueue::schedule` + `pop` in steady state at `depth` pending
/// events: ns per popped event.
pub fn sim_queue(depth: usize, seed: u64) -> f64 {
    const N: u64 = 20_000;
    let mut rng = Rng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.schedule(
            SimTime::ZERO + SimDuration::from_micros(rng.below(2_000)),
            i,
        );
    }
    let t0 = Instant::now();
    for i in 0..N {
        let (at, v) = q.pop().expect("queue holds `depth` events");
        black_box(v);
        q.schedule(at + SimDuration::from_micros(1 + rng.below(2_000)), i);
    }
    per_unit(t0, N)
}

/// Rate selection, PER lookup and PPDU airtime for one MPDU, cycling
/// through the client SNR mix: ns per MPDU.
pub fn phy(cfg: &TestbedConfig, snrs: &[f64]) -> f64 {
    const N: u64 = 20_000;
    let mut rates = RateCache::new(cfg.width);
    let mut pers = PerCache::new(cfg.width, 1500);
    let t0 = Instant::now();
    for i in 0..N {
        let snr = snrs[i as usize % snrs.len()];
        let rate = rates.select(3, snr);
        black_box(pers.error_rate(snr - 1.0, rate.mcs));
        if let Some(t) = AirtimeTable::new(rate.mcs, rate.nss, cfg.width, GuardInterval::Short) {
            black_box(t.ppdu_duration(AirtimeTable::ampdu_mpdu_bytes(1500)));
        }
    }
    per_unit(t0, N)
}

/// `build_ampdu` over a full 64-frame queue at each client's rate:
/// ns per aggregate.
pub fn mac_ampdu(cfg: &TestbedConfig, snrs: &[f64]) -> f64 {
    const N: u64 = 4_000;
    let mut rates = RateCache::new(cfg.width);
    let choices: Vec<_> = snrs.iter().map(|&s| rates.select(3, s)).collect();
    let template: Vec<QueuedMpdu> = (0..64)
        .map(|i| QueuedMpdu {
            id: telemetry::cause_for(1, i * 1460).0,
            bytes: 1500,
        })
        .collect();
    let mut queue = Vec::with_capacity(64);
    let t0 = Instant::now();
    for i in 0..N {
        let rate = choices[i as usize % choices.len()];
        queue.clear();
        queue.extend_from_slice(&template);
        black_box(build_ampdu(
            &mut queue,
            rate.mcs,
            rate.nss,
            cfg.width,
            GuardInterval::Short,
            AggLimits::default(),
        ));
    }
    per_unit(t0, N)
}

/// One `BatchResolver` DCF round over every AP and client backoff of
/// the workload: ns per round.
pub fn mac_round(cfg: &TestbedConfig, seed: u64) -> f64 {
    const N: u64 = 5_000;
    let stations = cfg.n_aps * (1 + cfg.clients_per_ap);
    let mut rng = Rng::new(seed);
    let mut queues: Vec<Backoff> = (0..stations)
        .map(|_| Backoff::new(EdcaParams::for_ac(AccessCategory::BestEffort)))
        .collect();
    let mut round = BatchResolver::new();
    let t0 = Instant::now();
    for _ in 0..N {
        round.begin();
        for q in queues.iter_mut() {
            round.enter(q, &mut rng);
        }
        for (i, q) in queues.iter_mut().enumerate() {
            round.settle(i, q);
        }
        let collision = round.winners().len() > 1;
        for k in 0..round.winners().len() {
            let q = &mut queues[round.winners()[k]];
            if collision {
                black_box(q.on_failure());
            } else {
                q.on_success();
            }
        }
    }
    per_unit(t0, N)
}

/// A bulk flow looped through `TcpReceiver::on_data` and
/// `TcpSender::on_ack_into` (with the `poll_into` that refills the
/// window): ns per ACK.
pub fn tcp(cfg: &TestbedConfig) -> f64 {
    const ACKS: u64 = 5_000;
    let flow = FlowId(1);
    let mut snd = TcpSender::new(
        flow,
        SenderConfig {
            algorithm: cfg.cc,
            ..SenderConfig::default()
        },
    );
    let mut rcv = TcpReceiver::new(flow, ReceiverConfig::default());
    let (mut segs, mut more) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    let mut acks = 0u64;
    let t0 = Instant::now();
    snd.poll_into(now, &mut segs);
    while acks < ACKS {
        now += SimDuration::from_micros(20);
        for seg in segs.drain(..) {
            if let Some(ack) = rcv.on_data(&seg, now) {
                snd.on_ack_into(&ack, now, &mut more);
                acks += 1;
            }
        }
        if let Some(ack) = rcv.on_delack_timeout(now + SimDuration::from_millis(40)) {
            snd.on_ack_into(&ack, now, &mut more);
            acks += 1;
        }
        snd.poll_into(now, &mut more);
        std::mem::swap(&mut segs, &mut more);
    }
    per_unit(t0, acks)
}

/// The agent's per-segment sequence — wire data in, MAC delivery
/// report, and every second segment a client ACK — with the workload's
/// agent configuration (FastACK on or off at AP 0): ns per segment.
pub fn fastack(cfg: &TestbedConfig) -> f64 {
    const N: u64 = 20_000;
    let mut agent = fastack::Agent::new(fastack::AgentConfig {
        enabled: cfg.fastack[0],
        queue_budget_bytes: Some(cfg.ap_queue_frames as u64 * 1460),
        ..fastack::AgentConfig::default()
    });
    let flow = FlowId(1);
    let mut out = Vec::new();
    let t0 = Instant::now();
    for i in 0..N {
        let seg = DataSegment {
            flow,
            seq: i * 1460,
            len: 1460,
            retransmit: false,
        };
        agent.on_wire_data_into(&seg, &mut out);
        agent.on_mac_ack_into(flow, seg.seq, seg.len, &mut out);
        if i % 2 == 1 {
            agent.on_client_ack_into(&AckSegment::plain(flow, seg.end(), 4 << 20), &mut out);
        }
        out.clear();
    }
    per_unit(t0, N)
}

/// `FlightRecorder::emit` at the workload's ring capacity: ns per
/// record (0 when the workload records nothing).
pub fn flight_emit(cfg: &TestbedConfig) -> f64 {
    const N: u64 = 50_000;
    if cfg.flight_capacity == 0 {
        return 0.0;
    }
    let rec = FlightRecorder::new(cfg.flight_capacity);
    let t0 = Instant::now();
    for i in 0..N {
        rec.emit(
            "mac.tx",
            SimTime::ZERO + SimDuration::from_micros(i),
            CauseId(i),
            TraceRecord::MacTx {
                flow: 1 + i % 30,
                seq: i * 1460,
                delivered: true,
            },
        );
    }
    black_box(rec.total_dropped());
    per_unit(t0, N)
}

/// `Timeline::sample` of the run's own registry at the workload's
/// cadence: ns per tick (0 when the workload samples nothing).
pub fn timeline_sample(cfg: &TestbedConfig, reg: &Registry) -> f64 {
    const N: u64 = 100;
    let Some(tcfg) = &cfg.timeline else {
        return 0.0;
    };
    let mut tl = Timeline::new(tcfg);
    let t0 = Instant::now();
    for i in 0..N {
        tl.sample(SimTime::ZERO + tcfg.every * i, reg);
    }
    black_box(tl.ticks());
    per_unit(t0, N)
}
