//! # telemetry — measurement plumbing
//!
//! The measurement side of the reproduction: summary statistics,
//! percentiles, empirical CDFs/PDFs, histograms and Jain's fairness
//! index ([`stats`]), plus a LittleTable-style time-series store
//! ([`littletable`]) standing in for the Meraki backend the paper's
//! data-collection pipeline writes into, and a deterministic metrics
//! registry + sim-time profiler ([`metrics`]) that every subsystem
//! reports its counters through, and a causal flight recorder
//! ([`flight`]) that captures typed, cross-layer packet traces into
//! fixed-capacity rings with deterministic binary dumps, and a
//! rule-driven SLO/anomaly-detection engine ([`health`]) that turns
//! those raw signals into a typed, byte-stable alert stream, and a
//! host-side run profiler ([`runprof`]) — the one audited wall-clock
//! module — measuring the simulator as a program (stage wall time,
//! allocations, RSS, structure watermarks) without touching any
//! trajectory, and a deterministic time-series sampler ([`timeline`])
//! that snapshots registry counters/gauges every fixed sim-time
//! interval into delta-encoded per-series columns with bounded ring
//! retention and `TSL1` binary dumps (`simctl time` reads those), and
//! the one JSON codec ([`json`]) every artifact writer and reader
//! shares.
//!
//! ```
//! use telemetry::stats::{Cdf, jain_fairness};
//!
//! let c = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(c.quantile(0.5), Some(2.5));
//! assert_eq!(jain_fairness(&[5.0, 5.0]), Some(1.0));
//! ```

pub mod flight;
pub mod health;
pub mod json;
pub mod littletable;
pub mod metrics;
pub mod runprof;
pub mod stats;
pub mod streaming;
pub mod timeline;

pub use flight::{
    cause_for, AirKind, CauseId, ComponentTrace, FlightDump, FlightEvent, FlightRecorder,
    TraceRecord,
};
pub use health::{
    Alert, Detector, HealthEngine, HealthReport, HealthRollup, HealthRules, QoeDegraded,
    QoeDegradedRule, Severity,
};
pub use littletable::{Agg, LittleTable, SeriesKey};
pub use metrics::{CounterId, GaugeId, HistId, Registry, Span, SpanId, SpanStat};
pub use runprof::{AllocStats, CountingAlloc, RunProfile, SamplePoint, StageStat, WallSpan};
pub use stats::{jain_fairness, median, quantile, summarize, Cdf, Histogram, Summary};
pub use streaming::{Ewma, P2Quantile, RateCounter, RollingWindow};
pub use timeline::{SeriesKind, TierConfig, Timeline, TimelineConfig};
