//! A miniature time-series store in the role of Meraki's LittleTable
//! (the paper's §2.2, ref.\[42\]): APs push periodic counter samples, the
//! planner and the evaluation harness query ranges and downsample.
//!
//! Semantics kept from the real system: append-mostly, per-series
//! ordering by timestamp, range scans, and bucketed aggregation. (The
//! real LittleTable is clustered by (time, key) on disk; here a
//! `BTreeMap` per series is plenty.)

use sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifies a series: a device plus a named metric.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Device identifier (AP index, client id, …).
    pub device: u64,
    /// Metric name, e.g. `"channel_util"`, `"tcp_latency_ms"`.
    pub metric: &'static str,
}

/// Aggregation applied when downsampling a range into buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Mean,
    Max,
    Min,
    Sum,
    Count,
    Last,
}

/// The store.
#[derive(Debug, Default)]
pub struct LittleTable {
    series: BTreeMap<SeriesKey, BTreeMap<SimTime, f64>>,
}

impl LittleTable {
    pub fn new() -> LittleTable {
        LittleTable::default()
    }

    /// Append a sample. Later writes to the same (series, timestamp)
    /// overwrite (devices occasionally re-send a poll result).
    pub fn insert(&mut self, key: SeriesKey, at: SimTime, value: f64) {
        self.series.entry(key).or_default().insert(at, value);
    }

    /// Convenience: insert for (device, metric).
    pub fn push(&mut self, device: u64, metric: &'static str, at: SimTime, value: f64) {
        self.insert(SeriesKey { device, metric }, at, value);
    }

    /// Raw samples of one series in `[from, to)`.
    pub fn range(&self, key: &SeriesKey, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.series
            .get(key)
            .map(|s| s.range(from..to).map(|(&t, &v)| (t, v)).collect())
            .unwrap_or_default()
    }

    /// Latest sample at or before `at`.
    pub fn last_at(&self, key: &SeriesKey, at: SimTime) -> Option<(SimTime, f64)> {
        self.series
            .get(key)?
            .range(..=at)
            .next_back()
            .map(|(&t, &v)| (t, v))
    }

    /// All values of `metric` across devices within `[from, to)` —
    /// the fleet-wide pulls behind the paper's CDF figures.
    pub fn fleet_values(&self, metric: &'static str, from: SimTime, to: SimTime) -> Vec<f64> {
        self.series
            .iter()
            .filter(|(k, _)| k.metric == metric)
            .flat_map(|(_, s)| s.range(from..to).map(|(_, &v)| v))
            .collect()
    }

    /// Downsample a series into fixed-width buckets with the given
    /// aggregation. Buckets with no samples are omitted.
    pub fn downsample(
        &self,
        key: &SeriesKey,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
        agg: Agg,
    ) -> Vec<(SimTime, f64)> {
        assert!(bucket > SimDuration::ZERO);
        let samples = self.range(key, from, to);
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut i = 0;
        let mut bucket_start = from;
        while bucket_start < to && i < samples.len() {
            let bucket_end = (bucket_start + bucket).min(to);
            let mut vals = Vec::new();
            while i < samples.len() && samples[i].0 < bucket_end {
                vals.push(samples[i].1);
                i += 1;
            }
            if !vals.is_empty() {
                let v = match agg {
                    Agg::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                    Agg::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    Agg::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
                    Agg::Sum => vals.iter().sum(),
                    Agg::Count => vals.len() as f64,
                    Agg::Last => *vals.last().expect("non-empty"),
                };
                out.push((bucket_start, v));
            }
            bucket_start = bucket_end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(d: u64) -> SeriesKey {
        SeriesKey {
            device: d,
            metric: "util",
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn insert_and_range() {
        let mut lt = LittleTable::new();
        lt.insert(key(1), t(10), 0.5);
        lt.insert(key(1), t(20), 0.7);
        lt.insert(key(1), t(30), 0.9);
        let r = lt.range(&key(1), t(10), t(30));
        assert_eq!(r, vec![(t(10), 0.5), (t(20), 0.7)]);
        assert!(lt.range(&key(2), t(0), t(100)).is_empty());
    }

    #[test]
    fn overwrite_same_timestamp() {
        let mut lt = LittleTable::new();
        lt.insert(key(1), t(10), 0.5);
        lt.insert(key(1), t(10), 0.6);
        assert_eq!(lt.range(&key(1), t(0), t(100)), vec![(t(10), 0.6)]);
    }

    #[test]
    fn last_at_finds_most_recent() {
        let mut lt = LittleTable::new();
        lt.insert(key(1), t(10), 1.0);
        lt.insert(key(1), t(20), 2.0);
        assert_eq!(lt.last_at(&key(1), t(15)), Some((t(10), 1.0)));
        assert_eq!(lt.last_at(&key(1), t(20)), Some((t(20), 2.0)));
        assert_eq!(lt.last_at(&key(1), t(5)), None);
    }

    #[test]
    fn fleet_values_cross_devices() {
        let mut lt = LittleTable::new();
        for d in 0..5 {
            lt.push(d, "util", t(10), d as f64 / 10.0);
            lt.push(d, "other", t(10), 99.0);
        }
        let vals = lt.fleet_values("util", t(0), t(100));
        assert_eq!(vals.len(), 5);
        assert!(!vals.contains(&99.0));
    }

    #[test]
    fn downsample_mean_and_max() {
        let mut lt = LittleTable::new();
        for s in 0..60 {
            lt.insert(key(1), t(s), s as f64);
        }
        let buckets = lt.downsample(&key(1), t(0), t(60), SimDuration::from_secs(20), Agg::Mean);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], (t(0), 9.5));
        assert_eq!(buckets[1], (t(20), 29.5));
        let maxes = lt.downsample(&key(1), t(0), t(60), SimDuration::from_secs(20), Agg::Max);
        assert_eq!(maxes[2].1, 59.0);
    }

    #[test]
    fn downsample_skips_empty_buckets() {
        let mut lt = LittleTable::new();
        lt.insert(key(1), t(5), 1.0);
        lt.insert(key(1), t(45), 2.0);
        let buckets = lt.downsample(&key(1), t(0), t(60), SimDuration::from_secs(10), Agg::Sum);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].0, t(0));
        assert_eq!(buckets[1].0, t(40));
    }

    #[test]
    fn downsample_count_and_last() {
        let mut lt = LittleTable::new();
        lt.insert(key(1), t(1), 10.0);
        lt.insert(key(1), t(2), 20.0);
        let c = lt.downsample(&key(1), t(0), t(10), SimDuration::from_secs(10), Agg::Count);
        assert_eq!(c[0].1, 2.0);
        let l = lt.downsample(&key(1), t(0), t(10), SimDuration::from_secs(10), Agg::Last);
        assert_eq!(l[0].1, 20.0);
    }
}
