//! # wifi-core — public facade of the IMC'17 802.11ac reproduction
//!
//! One crate to depend on: re-exports the whole workspace under stable
//! module names, mirroring the paper's structure.
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`sim`] | discrete-event kernel: time, events, RNG | — |
//! | [`phy`] | channels/regulatory, MCS rates, airtime, propagation, PER, rate selection | §3, §4.1 |
//! | [`mac`] | EDCA, backoff/contention, A-MPDU + BlockAck, RTS/CTS, medium sim | §3.2.4, §5.1 |
//! | [`tcp`] | sender (Reno/CUBIC, RTO, SACK), receiver (delack, rwnd) | §5.1 |
//! | [`fastack`] | the FastACK agent: fast ACKs, suppression, local retransmission, rx'_win | §5 |
//! | [`chanassign`] | TurboCA (NodeP/NetP, ACC, NBO, schedule) + ReservedCA and baselines | §4 |
//! | [`netsim`] | testbed, populations, topologies, deployments, diurnal model, plan evaluation | §3, §4.6, §5.6 |
//! | [`telemetry`] | CDF/PDF/percentiles/Jain, LittleTable-style store | §2.2, §4.6 |
//! | [`qoe`] | application-layer QoE: probe flows, windowed scoring, fleet rollups | §2.2, §5.6 |
//! | [`fleet`] | sharded cloud controller: collect→plan→push over N networks, fleet ingest/aggregation | §2.2, §4.5 |
//!
//! ## Quickstart
//!
//! Run the paper's headline experiment — FastACK vs baseline TCP on a
//! 10-client 802.11ac AP:
//!
//! ```
//! use wifi_core::netsim::testbed::{Testbed, TestbedConfig};
//! use wifi_core::sim::SimDuration;
//!
//! let run = |fastack: bool| {
//!     let cfg = TestbedConfig {
//!         clients_per_ap: 5,
//!         fastack: vec![fastack],
//!         seed: 42,
//!         ..TestbedConfig::default()
//!     };
//!     Testbed::new(cfg).run(SimDuration::from_millis(600)).total_mbps()
//! };
//! assert!(run(true) > run(false), "FastACK wins under contention");
//! ```

pub use chanassign;
pub use fastack;
pub use fleet;
pub use mac80211 as mac;
pub use netsim;
pub use phy80211 as phy;
pub use qoe;
pub use sim;
pub use tcpsim as tcp;
pub use telemetry;

/// Commonly used items, one import away.
pub mod prelude {
    pub use chanassign::model::{ApLoad, ApReport, NetworkView, Plan};
    pub use chanassign::turboca::{ScheduleTier, TurboCa};
    pub use chanassign::ReservedCa;
    pub use fastack::{Action, Agent, AgentConfig};
    pub use fleet::{run_fleet, FleetConfig, FleetReport};
    pub use mac80211::ac::AccessCategory;
    pub use netsim::testbed::{Testbed, TestbedConfig, TestbedReport};
    pub use phy80211::channels::{Band, Channel, Width};
    pub use phy80211::mcs::{GuardInterval, Mcs};
    pub use qoe::{ClientReport, ProbeConfig, QoeRollup};
    pub use sim::{Rng, SimDuration, SimTime};
    pub use tcpsim::{CcAlgorithm, FlowId};
    pub use telemetry::stats::{jain_fairness, median, Cdf};
    pub use telemetry::{Timeline, TimelineConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Compile-time check that the re-export paths exist and agree.
        let _ = crate::phy::channels::Channel::five(36);
        let _ = crate::prelude::Cdf::new(&[1.0]);
        assert_eq!(
            crate::phy::airtime::MAX_AMPDU_FRAMES,
            64,
            "one BlockAck window"
        );
    }
}
