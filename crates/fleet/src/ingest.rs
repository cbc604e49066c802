//! The ingest + aggregation layer: per-network reports land in the
//! LittleTable-style telemetry store (as the paper's backend does with
//! AP counter polls, §2.2), and fleet-wide distributions are computed
//! from there — not from private side-channels — so every number in a
//! [`crate::FleetReport`] is reproducible from the store alone.

use crate::report::NetworkReport;
use sim::SimTime;
use telemetry::littletable::{LittleTable, SeriesKey};
use telemetry::stats::{jain_fairness, Cdf};

/// Metric names used in the store.
pub const UTIL_2_4: &str = "util_2_4ghz";
pub const UTIL_5: &str = "util_5ghz";
pub const NET_P_LN: &str = "net_p_ln";
pub const SWITCHES: &str = "switches";
pub const TCP_P50: &str = "tcp_p50_ms";
pub const TCP_P90: &str = "tcp_p90_ms";
pub const TCP_P99: &str = "tcp_p99_ms";
pub const GOODPUT: &str = "goodput_mbps";

/// Device-id encoding: network-level series use `network_id << 16`,
/// per-AP series add the AP index in the low 16 bits. 65 535 APs per
/// network is far above the fleet generator's range.
pub fn device_id(network: u64, ap: Option<usize>) -> u64 {
    (network << 16) | ap.map(|a| a as u64 & 0xFFFF).unwrap_or(0)
}

/// Collects network reports into a [`LittleTable`] and aggregates them.
#[derive(Debug, Default)]
pub struct FleetIngest {
    pub store: LittleTable,
    n_reports: usize,
    last_time: SimTime,
}

/// Fleet-wide distributions pulled back out of the store.
#[derive(Debug, Clone)]
pub struct FleetAggregate {
    pub util_2_4: Cdf,
    pub util_5: Cdf,
    pub net_p_ln: Cdf,
    pub tcp_p50_ms: Cdf,
    pub tcp_p90_ms: Cdf,
    pub tcp_p99_ms: Cdf,
    /// Jain fairness of per-network mean goodput (how evenly the fleet's
    /// deliverable capacity is spread across customer networks).
    pub jain_goodput: Option<f64>,
    pub total_switches: f64,
}

impl FleetIngest {
    pub fn new() -> FleetIngest {
        FleetIngest::default()
    }

    /// Ingest one network's end-of-run report. Utilization polls keep
    /// their original tick timestamps; summary scalars are stamped with
    /// the network's last poll time.
    pub fn ingest(&mut self, r: &NetworkReport) {
        let net_dev = device_id(r.id, None);
        let mut last = SimTime::ZERO;
        // The paper's backend stores per-AP counter polls; we pool one
        // series per radio per network (per-AP fan-out adds nothing to
        // the fleet-level questions the aggregates answer). Successive
        // samples of one tick are offset a nanosecond apart so the
        // append-mostly store keeps every poll.
        for (metric, samples) in [(UTIL_2_4, &r.util_2_4), (UTIL_5, &r.util_5)] {
            let mut prev: Option<SimTime> = None;
            for &(t, v) in samples {
                let mut at = t;
                if let Some(p) = prev {
                    if at <= p {
                        at = p + sim::SimDuration::from_nanos(1);
                    }
                }
                self.store.push(net_dev, metric, at, v);
                prev = Some(at);
                last = last.max(at);
            }
        }
        for (metric, v) in [
            (NET_P_LN, r.final_net_p_ln),
            (SWITCHES, r.switches as f64),
            (TCP_P50, r.tcp_p50_ms),
            (TCP_P90, r.tcp_p90_ms),
            (TCP_P99, r.tcp_p99_ms),
            (GOODPUT, r.mean_goodput_mbps),
        ] {
            self.store.push(net_dev, metric, last, v);
        }
        self.n_reports += 1;
        self.last_time = self.last_time.max(last);
    }

    pub fn reports_ingested(&self) -> usize {
        self.n_reports
    }

    /// Raw utilization polls of one network's radio.
    pub fn network_util(&self, network: u64, metric: &'static str) -> Vec<(SimTime, f64)> {
        self.store.range(
            &SeriesKey {
                device: device_id(network, None),
                metric,
            },
            SimTime::ZERO,
            SimTime::MAX,
        )
    }

    /// Compute the fleet-wide distributions from the store.
    pub fn aggregate(&self) -> FleetAggregate {
        let pull =
            |metric: &'static str| self.store.fleet_values(metric, SimTime::ZERO, SimTime::MAX);
        let goodput = pull(GOODPUT);
        let switches = pull(SWITCHES);
        FleetAggregate {
            util_2_4: Cdf::new(&pull(UTIL_2_4)),
            util_5: Cdf::new(&pull(UTIL_5)),
            net_p_ln: Cdf::new(&pull(NET_P_LN)),
            tcp_p50_ms: Cdf::new(&pull(TCP_P50)),
            tcp_p90_ms: Cdf::new(&pull(TCP_P90)),
            tcp_p99_ms: Cdf::new(&pull(TCP_P99)),
            jain_goodput: jain_fairness(&goodput),
            total_switches: switches.iter().sum(),
        }
    }
}

impl FleetAggregate {
    /// Median utilization per radio — the Fig. 2 headline pair.
    pub fn util_medians(&self) -> (f64, f64) {
        (
            self.util_2_4.quantile(0.5).unwrap_or(0.0),
            self.util_5.quantile(0.5).unwrap_or(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_report(id: u64, util5: f64) -> NetworkReport {
        NetworkReport {
            id,
            seed: id * 7,
            n_aps: 3,
            plans_run: 2,
            accepted: 1,
            switches: id as usize,
            final_net_p_ln: -(id as f64),
            channels: vec![36, 40, 44],
            tcp_p50_ms: 7.0 + id as f64,
            tcp_p90_ms: 30.0,
            tcp_p99_ms: 400.0,
            mean_goodput_mbps: 100.0,
            qoe_score: 90.0,
            util_2_4: vec![
                (SimTime::from_secs(0), 0.2),
                (SimTime::from_secs(900), 0.25),
            ],
            util_5: vec![(SimTime::from_secs(0), util5)],
            health: telemetry::HealthReport::default(),
        }
    }

    #[test]
    fn ingest_round_trips_through_store() {
        let mut ing = FleetIngest::new();
        ing.ingest(&mk_report(1, 0.03));
        ing.ingest(&mk_report(2, 0.05));
        assert_eq!(ing.reports_ingested(), 2);
        let u = ing.network_util(1, UTIL_2_4);
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].1, 0.2);
        let agg = ing.aggregate();
        assert_eq!(agg.util_5.len(), 2);
        assert_eq!(agg.total_switches, 3.0);
        let (m24, _) = agg.util_medians();
        assert!((m24 - 0.225).abs() < 1e-12);
    }

    #[test]
    fn same_tick_samples_are_all_kept() {
        // Two polls with identical timestamps (two APs polled in the
        // same tick) must not overwrite each other in the store.
        let mut r = mk_report(1, 0.03);
        r.util_5 = vec![(SimTime::from_secs(0), 0.1), (SimTime::from_secs(0), 0.9)];
        let mut ing = FleetIngest::new();
        ing.ingest(&r);
        assert_eq!(ing.network_util(1, UTIL_5).len(), 2);
    }

    #[test]
    fn jain_reflects_goodput_spread() {
        let mut ing = FleetIngest::new();
        let mut a = mk_report(1, 0.03);
        a.mean_goodput_mbps = 100.0;
        let mut b = mk_report(2, 0.03);
        b.mean_goodput_mbps = 100.0;
        ing.ingest(&a);
        ing.ingest(&b);
        let j = ing.aggregate().jain_goodput.unwrap();
        assert!((j - 1.0).abs() < 1e-12, "equal goodput -> perfect fairness");
    }

    #[test]
    fn device_id_partitions_network_and_ap() {
        assert_eq!(device_id(3, None), 3 << 16);
        assert_eq!(device_id(3, Some(7)), (3 << 16) | 7);
        assert_ne!(device_id(1, None), device_id(2, None));
    }
}
