//! Client → AP association policies.
//!
//! Paper §3.1 (discussing WiFiSeer): "using RSSI to select AP is
//! inadequate" — clients pile onto the loudest AP and starve, while a
//! radio-factor-aware choice (utilization, load) finds low-latency
//! attachment points. This module implements both the naive and the
//! informed policies over the same propagation model, so experiments can
//! quantify the difference and the deployment generators can place
//! clients the way real ones do.

use crate::topology::Topology;
use phy80211::channels::Width;
use phy80211::propagation::{noise_floor_dbm, Propagation, Radio, SENSITIVITY_DBM};
use phy80211::rate::IdealSelector;
use phy80211::Point;
use sim::Rng;

/// How a client picks its AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocPolicy {
    /// Attach to the strongest signal, period (the default client
    /// behaviour the paper calls inadequate).
    StrongestRssi,
    /// Attach to the AP with the fewest associated clients among those
    /// above sensitivity.
    LeastLoaded,
    /// Attach to the AP maximizing expected throughput:
    /// `phy_rate(SNR) / (1 + clients)` — a WiFiSeer-style radio-factor
    /// decision.
    UtilizationAware,
}

/// Result of associating a set of clients.
#[derive(Debug, Clone, Default)]
pub struct AssociationOutcome {
    /// Chosen AP per client (None = out of range of everything).
    pub chosen: Vec<Option<usize>>,
    /// Client count per AP.
    pub per_ap: Vec<usize>,
    /// Expected per-client throughput (bps) under equal airtime sharing
    /// at the chosen AP.
    pub expected_bps: Vec<f64>,
}

impl AssociationOutcome {
    /// The minimum expected throughput across associated clients — the
    /// "worst client" metric that RSSI-based steering wrecks.
    pub fn worst_client_bps(&self) -> f64 {
        self.expected_bps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Associate `clients` (positions) to the APs of `topo` under `policy`,
/// processing clients in arrival order (associations are sticky; later
/// arrivals see earlier ones' load).
pub fn associate(
    topo: &Topology,
    clients: &[Point],
    policy: AssocPolicy,
    width: Width,
    rng: &mut Rng,
) -> AssociationOutcome {
    let prop = Propagation::indoor(topo.band);
    let sel = IdealSelector::new(width, 2);
    let mut per_ap = vec![0usize; topo.len()];
    let mut chosen = Vec::with_capacity(clients.len());
    // Remember each client's SNR at its chosen AP for the final
    // expected-throughput pass.
    let mut snrs = Vec::with_capacity(clients.len());

    for c in clients {
        // Candidate RSSIs (one shadowing draw per client-AP link).
        let rssis: Vec<f64> = topo
            .aps
            .iter()
            .map(|ap| {
                let d = ap.position.distance(c);
                Radio::AP_DEFAULT.rssi_dbm(prop.path_loss_shadowed_db(d, rng))
            })
            .collect();
        let audible: Vec<usize> = (0..topo.len())
            .filter(|&i| rssis[i] >= SENSITIVITY_DBM)
            .collect();
        if audible.is_empty() {
            chosen.push(None);
            snrs.push(0.0);
            continue;
        }
        let pick = match policy {
            AssocPolicy::StrongestRssi => *audible
                .iter()
                .max_by(|&&a, &&b| rssis[a].total_cmp(&rssis[b]))
                .expect("non-empty"),
            AssocPolicy::LeastLoaded => *audible
                .iter()
                .min_by_key(|&&a| (per_ap[a], -(rssis[a] * 100.0) as i64))
                .expect("non-empty"),
            AssocPolicy::UtilizationAware => *audible
                .iter()
                .max_by(|&&a, &&b| {
                    let score = |i: usize| {
                        let snr = rssis[i] - noise_floor_dbm(width);
                        sel.select(snr).bps as f64 / (1.0 + per_ap[i] as f64)
                    };
                    score(a).total_cmp(&score(b))
                })
                .expect("non-empty"),
        };
        per_ap[pick] += 1;
        chosen.push(Some(pick));
        snrs.push(rssis[pick] - noise_floor_dbm(width));
    }

    // Expected throughput: equal airtime share at the final loads.
    let expected_bps = chosen
        .iter()
        .zip(snrs.iter())
        .filter_map(|(ap, &snr)| ap.map(|a| sel.select(snr).bps as f64 / per_ap[a].max(1) as f64))
        .collect();

    AssociationOutcome {
        chosen,
        per_ap,
        expected_bps,
    }
}

/// Place `n` clients as a hotspot crowd: clustered around one point
/// (a conference room, a museum exhibit) with the given spread.
pub fn hotspot_clients(center: Point, spread_m: f64, n: usize, rng: &mut Rng) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                center.x + rng.normal(0.0, spread_m),
                center.y + rng.normal(0.0, spread_m),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use phy80211::channels::Band;

    fn setup() -> (Topology, Vec<Point>, Rng) {
        let mut rng = Rng::new(1);
        // A 4×1 corridor of APs, 25 m apart; the crowd sits near AP 0.
        let topo = topology::grid(4, 1, 25.0, 0.5, Band::Band5, &mut rng);
        let crowd = hotspot_clients(topo.aps[0].position, 6.0, 40, &mut rng);
        (topo, crowd, rng)
    }

    #[test]
    fn rssi_policy_herds_the_hotspot() {
        let (topo, crowd, mut rng) = setup();
        let out = associate(
            &topo,
            &crowd,
            AssocPolicy::StrongestRssi,
            Width::W80,
            &mut rng,
        );
        // Nearly everyone lands on AP 0.
        assert!(out.per_ap[0] >= 30, "{:?}", out.per_ap);
    }

    #[test]
    fn utilization_aware_spreads_and_lifts_the_worst_client() {
        let (topo, crowd, mut rng) = setup();
        let rssi = associate(
            &topo,
            &crowd,
            AssocPolicy::StrongestRssi,
            Width::W80,
            &mut rng,
        );
        let aware = associate(
            &topo,
            &crowd,
            AssocPolicy::UtilizationAware,
            Width::W80,
            &mut rng,
        );
        assert!(
            aware.per_ap[0] < rssi.per_ap[0],
            "informed policy offloads the loud AP: {:?} vs {:?}",
            aware.per_ap,
            rssi.per_ap
        );
        assert!(
            aware.worst_client_bps() > rssi.worst_client_bps(),
            "worst client improves: {} vs {}",
            aware.worst_client_bps(),
            rssi.worst_client_bps()
        );
    }

    #[test]
    fn least_loaded_balances_counts() {
        let (topo, crowd, mut rng) = setup();
        let out = associate(
            &topo,
            &crowd,
            AssocPolicy::LeastLoaded,
            Width::W80,
            &mut rng,
        );
        let max = *out.per_ap.iter().max().unwrap();
        let min = *out.per_ap.iter().min().unwrap();
        assert!(max - min <= 2, "{:?}", out.per_ap);
    }

    #[test]
    fn out_of_range_clients_stay_unassociated() {
        let mut rng = Rng::new(2);
        let topo = topology::grid(1, 1, 10.0, 0.0, Band::Band5, &mut rng);
        let clients = vec![Point::new(10_000.0, 10_000.0)];
        let out = associate(
            &topo,
            &clients,
            AssocPolicy::StrongestRssi,
            Width::W80,
            &mut rng,
        );
        assert_eq!(out.chosen, vec![None]);
        assert!(out.expected_bps.is_empty());
    }

    #[test]
    fn every_associated_client_has_positive_throughput() {
        let (topo, crowd, mut rng) = setup();
        for policy in [
            AssocPolicy::StrongestRssi,
            AssocPolicy::LeastLoaded,
            AssocPolicy::UtilizationAware,
        ] {
            let out = associate(&topo, &crowd, policy, Width::W80, &mut rng);
            assert_eq!(out.expected_bps.len(), 40);
            assert!(out.expected_bps.iter().all(|&b| b > 0.0));
            assert_eq!(out.per_ap.iter().sum::<usize>(), 40);
        }
    }
}
