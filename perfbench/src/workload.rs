//! Workload definitions: the operation each workload repeats, the pool
//! of inputs it draws from, and the digest of each operation's output.

use crate::Fnv;
use fleet::{FleetConfig, NetworkReport};
use netsim::{TestbedConfig, TestbedReport};
use sim::{derive_stream_seed, Rng, SimDuration};

/// Simulated length of one testbed run. Short enough that a measured
/// run holds several hundred operations, so `run_p90_ms` has far more
/// than ten samples beyond it.
pub const TESTBED_SIM_S: f64 = 2.0;
/// Testbed operations pinned per workload; a run draws a seeded
/// permutation of this pool.
pub const TESTBED_POOL: usize = 512;
/// Master seed of the testbed operation pool (shared by both testbed
/// workloads: same topology, same seeds).
const TESTBED_POOL_MASTER: u64 = 0x7E57_BED0;

/// Networks per `run_fleet` call (two per worker at two threads).
pub const FLEET_NETWORKS: usize = 4;
/// Worker threads per `run_fleet` call.
pub const FLEET_THREADS: usize = 2;
/// Horizon: 16 epochs of 15 min, crossing the 3 h Medium-tier boundary.
pub const FLEET_HORIZON_H: u64 = 4;
/// Fleets pinned in the pool, and candidates measured to choose them.
pub const FLEET_POOL: usize = 8;
pub const FLEET_CANDIDATES: usize = 72;
const FLEET_POOL_MASTER: u64 = 0xF1EE_75EA;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TestbedFastack,
    TestbedObserved,
    FleetSteady,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TestbedFastack,
        Workload::TestbedObserved,
        Workload::FleetSteady,
    ];

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s}"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedFastack => "testbed_fastack",
            Workload::TestbedObserved => "testbed_observed",
            Workload::FleetSteady => "fleet_steady",
        }
    }

    pub fn is_testbed(self) -> bool {
        self != Workload::FleetSteady
    }

    /// The pinned digests, compiled in.
    pub fn pin_text(self) -> &'static str {
        match self {
            Workload::TestbedFastack => include_str!("../pins/testbed_fastack.txt"),
            Workload::TestbedObserved => include_str!("../pins/testbed_observed.txt"),
            Workload::FleetSteady => include_str!("../pins/fleet_steady.txt"),
        }
    }
}

/// Seed of testbed pool entry `i`.
pub fn testbed_op_seed(i: usize) -> u64 {
    derive_stream_seed(TESTBED_POOL_MASTER, i as u64)
}

/// The testbed configuration of one operation.
pub fn testbed_config(w: Workload, op_seed: u64) -> TestbedConfig {
    let observed = w == Workload::TestbedObserved;
    TestbedConfig {
        n_aps: 2,
        clients_per_ap: 15,
        fastack: vec![!observed, !observed],
        ap_buffer_pool_frames: 512,
        seed: op_seed,
        timeline: observed
            .then(|| telemetry::TimelineConfig::sampling(SimDuration::from_millis(10))),
        qoe: observed.then(qoe::ProbeConfig::default),
        ..TestbedConfig::default()
    }
}

pub fn testbed_duration() -> SimDuration {
    SimDuration::from_secs_f64(TESTBED_SIM_S)
}

/// Digest of a testbed run's deterministic outputs: per-client bytes,
/// sender and agent statistics, and the metrics snapshot.
pub fn testbed_digest(r: &TestbedReport) -> u64 {
    let mut h = Fnv::default();
    h.str(&format!("{:?}", r.client_bytes));
    h.str(&format!("{:?}", r.sender_stats));
    h.str(&format!("{:?}", r.agent_stats));
    h.str(&r.metrics.to_json());
    h.finish()
}

/// Fleet configuration for pool master seed `master`.
pub fn fleet_config(master: u64, threads: usize) -> FleetConfig {
    FleetConfig {
        n_networks: FLEET_NETWORKS,
        threads,
        master_seed: master,
        horizon: SimDuration::from_hours(FLEET_HORIZON_H),
        ..FleetConfig::default()
    }
}

/// Digest of one network's full report.
pub fn network_digest(r: &NetworkReport) -> u64 {
    let mut h = Fnv::default();
    h.str(&format!("{r:?}"));
    h.finish()
}

/// Wall load of a fleet at [`FLEET_THREADS`] given each network's load:
/// the heavier of the contiguous shards the executor hands its workers.
pub fn shard_max(loads: &[f64]) -> f64 {
    let chunk = loads.len().div_ceil(FLEET_THREADS).max(1);
    loads
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

/// Master seed of fleet pool candidate `k`. `pins::generate` measures
/// the first [`FLEET_CANDIDATES`] and keeps the [`FLEET_POOL`] whose
/// work lies closest to their median, so every run measures fleets of
/// one stated size: the seed changes which fleets, not how much work
/// they hold.
pub fn fleet_candidate(k: usize) -> u64 {
    derive_stream_seed(FLEET_POOL_MASTER, k as u64)
}

/// Seeded permutation of `0..n`: the order a run visits the pool in.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut idx);
    idx
}
