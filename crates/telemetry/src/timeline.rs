//! Deterministic time-series telemetry: the timeline sampler.
//!
//! The paper's method is measurement *over time* — every AP pushes
//! periodic counter samples into LittleTable (§2.2) and the cloud
//! queries series, not snapshots. This module gives the reproduction
//! that time dimension: a [`Timeline`] samples the counters and
//! gauges of a [`Registry`] every fixed sim-time interval into
//! per-series columns, keeps a bounded ring of the most recent raw
//! ticks, and serializes to a byte-stable `TSL2`
//! binary dump with a strict parser — the same idiom as the flight
//! recorder's `FLT1`. Like LittleTable, it stores raw samples only and
//! aggregates at query time ([`Timeline::downsample`]).
//!
//! ## Sampling model
//!
//! Ticks are **nominal and dense**: tick `i` is at sim time
//! `i * every`, and [`Timeline::sample`] must be called exactly on
//! that grid (the testbed and fleet drive it from catch-up loops that
//! guarantee this). Series therefore need no per-sample timestamps —
//! a series is `(start tick, values…)` and the shared timestamp
//! column in the dump is pure delta-encoded bookkeeping.
//!
//! Three series kinds:
//!
//! * **counter** — monotonic `u64`, stored as first value + varint
//!   deltas (non-negative in practice; wrapping arithmetic makes the
//!   round-trip exact regardless);
//! * **gauge** — signed `i64` level, zigzag + varint deltas;
//! * **f64** — explicitly staged floating-point signals (e.g. the
//!   Fig. 14 cwnd curve), XOR-of-bits + varint.
//!
//! ## Determinism contract
//!
//! The sampler only *reads* the registry — enabling a timeline never
//! schedules events, draws randomness, or writes a metric, so every
//! other artifact of a run is byte-identical with sampling on or off.
//! All iteration is over `BTreeMap`s; [`Timeline::to_bytes`] is
//! byte-identical for identical runs and `scripts/ci.sh` double-runs
//! and `cmp`s exactly those dumps.
//!
//! ```
//! use sim::{SimDuration, SimTime};
//! use telemetry::metrics::Registry;
//! use telemetry::timeline::{Timeline, TimelineConfig};
//!
//! let mut reg = Registry::new();
//! let c = reg.counter("mac.frames");
//! let mut tl = Timeline::new(&TimelineConfig::sampling(SimDuration::from_millis(100)));
//! for i in 0..5u64 {
//!     reg.add(c, 7);
//!     tl.sample(SimTime::from_millis(100 * i), &reg);
//! }
//! let parsed = Timeline::parse(&tl.to_bytes()).unwrap();
//! assert_eq!(parsed.to_bytes(), tl.to_bytes());
//! assert_eq!(tl.last("mac.frames"), Some(35.0));
//! ```

use crate::littletable::{self, Agg};
use crate::metrics::Registry;
use crate::reader::Reader;
use sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Dump file magic: "TSL" + format version.
const MAGIC: &[u8; 4] = b"TSL2";

/// Retained raw ticks; older ticks are evicted and only counted.
const CAPACITY: u64 = 4096;

/// What a series holds; fixed at the series' first sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic `u64` counter snapshot.
    Counter,
    /// Signed `i64` gauge level.
    Gauge,
    /// Explicitly staged `f64` signal (see [`Timeline::set_f64`]).
    F64,
}

impl SeriesKind {
    fn tag(self) -> u8 {
        match self {
            SeriesKind::Counter => 0,
            SeriesKind::Gauge => 1,
            SeriesKind::F64 => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<SeriesKind, String> {
        match tag {
            0 => Ok(SeriesKind::Counter),
            1 => Ok(SeriesKind::Gauge),
            2 => Ok(SeriesKind::F64),
            t => Err(format!("unknown series kind tag {t}")),
        }
    }

    /// Short human label (`simctl time summary`).
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::F64 => "f64",
        }
    }
}

/// Sampler configuration. The `Option<TimelineConfig>` on testbed and
/// harness configs defaults to `None`: runs pay nothing unless a
/// timeline is asked for. Every counter, gauge and staged f64 signal is
/// sampled, and the ring retains the most recent 4096 ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineConfig {
    /// Sampling interval; tick `i` lands at `i * every`.
    pub every: SimDuration,
}

impl TimelineConfig {
    /// Sample everything every `every`.
    pub fn sampling(every: SimDuration) -> TimelineConfig {
        TimelineConfig { every }
    }
}

/// One raw series: values for consecutive ticks starting at absolute
/// tick `start`, stored as raw `u64` bit patterns (counter value,
/// `i64` bits, or `f64` bits depending on `kind`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Series {
    kind: SeriesKind,
    start: u64,
    vals: VecDeque<u64>,
}

fn bits_to_f64(kind: SeriesKind, bits: u64) -> f64 {
    match kind {
        SeriesKind::Counter => bits as f64,
        SeriesKind::Gauge => i64::from_le_bytes(bits.to_le_bytes()) as f64,
        SeriesKind::F64 => f64::from_bits(bits),
    }
}

/// The timeline sampler + store (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    every_ns: u64,
    /// Absolute index of the first retained tick (== evicted ticks).
    base: u64,
    /// Retained tick count.
    len: u64,
    /// Explicitly staged f64 signals, re-sampled every tick.
    staged: BTreeMap<String, u64>,
    series: BTreeMap<String, Series>,
    /// Set by `absorb`/`parse`: the tick grid is no longer this
    /// sampler's own, so further `sample` calls are a bug.
    frozen: bool,
}

impl Timeline {
    pub fn new(cfg: &TimelineConfig) -> Timeline {
        assert!(
            cfg.every > SimDuration::ZERO,
            "sampling interval must be > 0"
        );
        Timeline {
            every_ns: cfg.every.as_nanos(),
            ..Timeline::default()
        }
    }

    // ---- sampling -------------------------------------------------

    /// Stage (or refresh) an f64 signal; every subsequent tick samples
    /// the latest staged value. NaN is rejected at the door so bucket
    /// aggregates and the bit-level `simctl time diff` stay well-defined.
    pub fn set_f64(&mut self, path: &str, v: f64) {
        assert!(!v.is_nan(), "NaN staged for timeline series {path}");
        if let Some(slot) = self.staged.get_mut(path) {
            *slot = v.to_bits();
        } else {
            self.staged.insert(path.to_owned(), v.to_bits());
        }
    }

    /// Record tick `base + len` at its nominal instant: snapshot every
    /// counter and gauge plus all staged f64 signals. Reads the
    /// registry only — never writes it.
    pub fn sample(&mut self, at: SimTime, reg: &Registry) {
        assert!(!self.frozen, "sample() on an absorbed/parsed timeline");
        assert!(
            self.every_ns > 0,
            "sample() on a default-constructed timeline"
        );
        let idx = self.base + self.len;
        let stamp_ns = at.as_nanos();
        assert_eq!(
            stamp_ns,
            idx * self.every_ns,
            "timeline tick off the nominal grid"
        );
        let mut record = |path: &str, kind: SeriesKind, bits: u64| {
            if let Some(s) = self.series.get_mut(path) {
                assert_eq!(s.kind, kind, "series kind changed: {path}");
                assert_eq!(
                    s.start + s.vals.len() as u64,
                    idx,
                    "series {path} skipped a tick"
                );
                s.vals.push_back(bits);
            } else {
                let mut vals = VecDeque::with_capacity(16);
                vals.push_back(bits);
                self.series.insert(
                    path.to_owned(),
                    Series {
                        kind,
                        start: idx,
                        vals,
                    },
                );
            }
        };
        for (path, v) in reg.counters() {
            record(path, SeriesKind::Counter, v);
        }
        for (path, v) in reg.gauges() {
            record(path, SeriesKind::Gauge, u64::from_le_bytes(v.to_le_bytes()));
        }
        for (path, &bits) in &self.staged {
            record(path, SeriesKind::F64, bits);
        }
        self.len += 1;
        if self.len > CAPACITY {
            let evicted = self.base;
            self.base += 1;
            self.len -= 1;
            for s in self.series.values_mut() {
                if s.start == evicted && !s.vals.is_empty() {
                    s.vals.pop_front();
                    s.start += 1;
                }
            }
        }
    }

    // ---- queries --------------------------------------------------

    /// Sampling interval.
    pub fn every(&self) -> SimDuration {
        SimDuration::from_nanos(self.every_ns)
    }

    /// Retained raw ticks.
    pub fn ticks(&self) -> u64 {
        self.len
    }

    /// Ticks evicted from the front of the raw ring.
    pub fn dropped(&self) -> u64 {
        self.base
    }

    /// True when nothing has ever been sampled or absorbed.
    pub fn is_empty(&self) -> bool {
        self.every_ns == 0 || (self.len == 0 && self.series.is_empty())
    }

    /// Instant of the first retained tick (none while empty).
    pub fn first_stamp(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime::from_nanos(self.base * self.every_ns))
    }

    /// Instant of the last retained tick (none while empty).
    pub fn last_stamp(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime::from_nanos((self.base + self.len - 1) * self.every_ns))
    }

    /// Series names, ascending.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Kind of a series, if present.
    pub fn kind(&self, name: &str) -> Option<SeriesKind> {
        self.series.get(name).map(|s| s.kind)
    }

    /// Retained sample count of a series.
    pub fn series_len(&self, name: &str) -> usize {
        self.series.get(name).map_or(0, |s| s.vals.len())
    }

    /// Raw samples of a series in `[from, to)` as `(instant, value)`.
    pub fn range(&self, name: &str, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.range_bits(name, from, to)
            .into_iter()
            .map(|(t, kind, bits)| (t, bits_to_f64(kind, bits)))
            .collect()
    }

    /// Raw samples in `[from, to)` with their exact bit patterns —
    /// what `simctl time diff` compares so divergence is never masked by
    /// float printing.
    pub fn range_bits(
        &self,
        name: &str,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, SeriesKind, u64)> {
        let Some(s) = self.series.get(name) else {
            return Vec::new();
        };
        s.vals
            .iter()
            .enumerate()
            .filter_map(|(i, &bits)| {
                let at = SimTime::from_nanos((s.start + i as u64) * self.every_ns);
                (at >= from && at < to).then_some((at, s.kind, bits))
            })
            .collect()
    }

    /// Latest retained value of a series.
    pub fn last(&self, name: &str) -> Option<f64> {
        let s = self.series.get(name)?;
        s.vals.back().map(|&bits| bits_to_f64(s.kind, bits))
    }

    /// Downsample a series on the fly: [`littletable::downsample`] over
    /// its retained samples in `[from, to)` (bucket grid anchored at
    /// `from`, empty buckets omitted).
    pub fn downsample(
        &self,
        name: &str,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
        agg: Agg,
    ) -> Vec<(SimTime, f64)> {
        littletable::downsample(&self.range(name, from, to), from, to, bucket, agg)
    }

    // ---- merging --------------------------------------------------

    /// Merge `other` into this timeline, prefixing its series names
    /// with `label.` (empty label = verbatim). Cadences must match
    /// (an empty receiver adopts the other's); series names must not
    /// collide. The result is frozen: it reports and serializes but
    /// cannot keep sampling, because the merged tick range is no
    /// longer a single sampler's own grid.
    pub fn absorb(&mut self, label: &str, other: &Timeline) {
        if other.is_empty() {
            return;
        }
        if self.every_ns == 0 {
            self.every_ns = other.every_ns;
            self.base = other.base;
            self.len = other.len;
        } else {
            assert_eq!(
                self.every_ns, other.every_ns,
                "absorb: timeline cadence mismatch"
            );
            let end = (self.base + self.len).max(other.base + other.len);
            self.base = self.base.min(other.base);
            self.len = end - self.base;
        }
        self.frozen = true;
        for (name, s) in &other.series {
            let key = if label.is_empty() {
                name.clone()
            } else {
                format!("{label}.{name}")
            };
            let prev = self.series.insert(key.clone(), s.clone());
            assert!(prev.is_none(), "absorb: series collision on {key}");
        }
    }

    // ---- binary serialization ------------------------------------

    /// Serialize to the deterministic, byte-stable `TSL2` dump:
    ///
    /// ```text
    /// "TSL2"
    /// u64 sampling interval (ns)
    /// u64 evicted tick count
    /// u32 retained tick count
    /// shared timestamp column (if any ticks):
    ///   u64 first instant (ns), varint deltas × (count − 1)
    /// u32 series count
    /// per series (sorted by name):
    ///   u16 name length, name bytes (UTF-8)
    ///   u8  kind (0 counter, 1 gauge, 2 f64)
    ///   u64 start tick (absolute index)
    ///   u32 value count
    ///   u32 payload byte length
    ///   payload:
    ///     counter: varint first, varint deltas
    ///     gauge:   zigzag-varint first, zigzag-varint deltas
    ///     f64:     u64 first bits (LE), varint XOR-with-previous
    /// ```
    ///
    /// All integers little-endian. `parse(to_bytes())` round-trips
    /// byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.every_ns.to_le_bytes());
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&u32::try_from(self.len).expect("tick count").to_le_bytes());
        if self.len > 0 {
            out.extend_from_slice(&(self.base * self.every_ns).to_le_bytes());
            for _ in 1..self.len {
                put_varint(&mut out, self.every_ns);
            }
        }
        out.extend_from_slice(
            &u32::try_from(self.series.len())
                .expect("series count")
                .to_le_bytes(),
        );
        for (name, s) in &self.series {
            put_series(&mut out, name, s.kind, s.start, &s.vals);
        }
        out
    }

    /// Parse a dump produced by [`Timeline::to_bytes`]. Strict: any
    /// truncation, bad tag, off-grid timestamp, payload-length
    /// mismatch, or trailing garbage is an error. The parsed timeline
    /// is frozen (query/serialize only).
    pub fn parse(bytes: &[u8]) -> Result<Timeline, String> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(format!("bad magic {magic:02x?}, want {MAGIC:02x?}"));
        }
        let every_ns = r.u64()?;
        let base = r.u64()?;
        let len = u64::from(r.u32()?);
        if len > 0 {
            if every_ns == 0 {
                return Err("tick count > 0 with zero sampling interval".to_owned());
            }
            let first = r.u64()?;
            if first != base * every_ns {
                return Err(format!(
                    "first timestamp {first}ns off the nominal grid ({}ns)",
                    base * every_ns
                ));
            }
            for _ in 1..len {
                let d = r.varint()?;
                if d != every_ns {
                    return Err(format!(
                        "timestamp delta {d}ns != sampling interval {every_ns}ns"
                    ));
                }
            }
        }
        let n_series = r.u32()? as usize;
        let mut series = BTreeMap::new();
        let mut prev_name = String::new();
        for i in 0..n_series {
            let (name, kind, start, vals) = take_series(&mut r)?;
            if i > 0 && name <= prev_name {
                return Err(format!("series {name} out of order"));
            }
            prev_name = name.clone();
            series.insert(name, Series { kind, start, vals });
        }
        if r.off != bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes after the last series",
                bytes.len() - r.off
            ));
        }
        Ok(Timeline {
            every_ns,
            base,
            len,
            staged: BTreeMap::new(),
            series,
            frozen: true,
        })
    }
}

/// Parse an aggregation name (`simctl time query --agg`).
pub fn agg_from_name(name: &str) -> Option<Agg> {
    match name {
        "mean" => Some(Agg::Mean),
        "max" => Some(Agg::Max),
        "min" => Some(Agg::Min),
        "sum" => Some(Agg::Sum),
        "count" => Some(Agg::Count),
        "last" => Some(Agg::Last),
        _ => None,
    }
}

// ---- codec --------------------------------------------------------

/// LEB128 unsigned varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    u64::from_le_bytes(((v << 1) ^ (v >> 63)).to_le_bytes())
}

fn unzigzag(z: u64) -> i64 {
    let half = i64::from_le_bytes((z >> 1).to_le_bytes());
    let sign = -i64::from_le_bytes((z & 1).to_le_bytes());
    half ^ sign
}

fn i64_bits(v: i64) -> u64 {
    u64::from_le_bytes(v.to_le_bytes())
}

fn bits_i64(bits: u64) -> i64 {
    i64::from_le_bytes(bits.to_le_bytes())
}

/// Delta-encode one column of raw series bits.
fn encode_vals(kind: SeriesKind, vals: &VecDeque<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 2 + 8);
    let mut prev: Option<u64> = None;
    for &bits in vals {
        match (kind, prev) {
            (SeriesKind::Counter, None) => put_varint(&mut out, bits),
            (SeriesKind::Counter, Some(p)) => put_varint(&mut out, bits.wrapping_sub(p)),
            (SeriesKind::Gauge, None) => put_varint(&mut out, zigzag(bits_i64(bits))),
            (SeriesKind::Gauge, Some(p)) => {
                put_varint(&mut out, zigzag(bits_i64(bits).wrapping_sub(bits_i64(p))));
            }
            (SeriesKind::F64, None) => out.extend_from_slice(&bits.to_le_bytes()),
            (SeriesKind::F64, Some(p)) => put_varint(&mut out, bits ^ p),
        }
        prev = Some(bits);
    }
    out
}

fn put_series(out: &mut Vec<u8>, name: &str, kind: SeriesKind, start: u64, vals: &VecDeque<u64>) {
    let bytes = name.as_bytes();
    out.extend_from_slice(
        &u16::try_from(bytes.len())
            .expect("series name length")
            .to_le_bytes(),
    );
    out.extend_from_slice(bytes);
    out.push(kind.tag());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(vals.len())
            .expect("value count")
            .to_le_bytes(),
    );
    let payload = encode_vals(kind, vals);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload length")
            .to_le_bytes(),
    );
    out.extend_from_slice(&payload);
}

fn take_series(r: &mut Reader<'_>) -> Result<(String, SeriesKind, u64, VecDeque<u64>), String> {
    let name_len = r.u16()? as usize;
    let name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|e| format!("series name not UTF-8: {e}"))?;
    let kind = SeriesKind::from_tag(r.u8()?)?;
    let start = r.u64()?;
    let count = r.count()?;
    let payload_len = r.u32()? as usize;
    let end = r
        .off
        .checked_add(payload_len)
        .filter(|&e| e <= r.bytes.len())
        .ok_or_else(|| format!("truncated payload for series {name}"))?;
    let mut vals = VecDeque::with_capacity(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let bits = match (kind, prev) {
            (SeriesKind::Counter, None) => r.varint()?,
            (SeriesKind::Counter, Some(p)) => p.wrapping_add(r.varint()?),
            (SeriesKind::Gauge, None) => i64_bits(unzigzag(r.varint()?)),
            (SeriesKind::Gauge, Some(p)) => {
                i64_bits(bits_i64(p).wrapping_add(unzigzag(r.varint()?)))
            }
            (SeriesKind::F64, None) => r.u64()?,
            (SeriesKind::F64, Some(p)) => p ^ r.varint()?,
        };
        vals.push_back(bits);
        prev = Some(bits);
    }
    if r.off != end {
        return Err(format!(
            "payload length mismatch for series {name}: declared {payload_len} bytes, decode ended at offset {} (expected {end})",
            r.off
        ));
    }
    Ok((name, kind, start, vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::littletable::{LittleTable, SeriesKey};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn cfg(every_ms: u64) -> TimelineConfig {
        TimelineConfig::sampling(SimDuration::from_millis(every_ms))
    }

    fn tick(i: u64, every_ms: u64) -> SimTime {
        SimTime::from_millis(i * every_ms)
    }

    /// Build a timeline over `n` ticks with one counter, one gauge and
    /// one staged f64 following simple deterministic trajectories.
    fn build(n: u64) -> Timeline {
        let mut reg = Registry::new();
        let c = reg.counter("mac.frames");
        let g = reg.gauge("tcp.backlog");
        let mut tl = Timeline::new(&cfg(100));
        for i in 0..n {
            reg.add(c, 3 + i % 5);
            reg.gauge_set(g, 10 - i64::try_from(i % 21).expect("fits"));
            tl.set_f64("tcp.flow0.cwnd_segments", 10.0 + i as f64 * 0.25);
            tl.sample(tick(i, 100), &reg);
        }
        tl
    }

    #[test]
    fn sample_records_all_kinds() {
        let tl = build(10);
        assert_eq!(tl.ticks(), 10);
        assert_eq!(tl.dropped(), 0);
        assert_eq!(tl.kind("mac.frames"), Some(SeriesKind::Counter));
        assert_eq!(tl.kind("tcp.backlog"), Some(SeriesKind::Gauge));
        assert_eq!(tl.kind("tcp.flow0.cwnd_segments"), Some(SeriesKind::F64));
        let r = tl.range("mac.frames", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], (SimTime::ZERO, 3.0));
        assert_eq!(r[1].0, SimTime::from_millis(100));
        let w = tl.range("tcp.flow0.cwnd_segments", SimTime::ZERO, SimTime::MAX);
        assert_eq!(w[4].1, 11.0);
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let tl = build(37);
        let bytes = tl.to_bytes();
        let parsed = Timeline::parse(&bytes).expect("parse");
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.ticks(), tl.ticks());
        assert_eq!(
            parsed.range("tcp.backlog", SimTime::ZERO, SimTime::MAX),
            tl.range("tcp.backlog", SimTime::ZERO, SimTime::MAX)
        );
    }

    #[test]
    fn empty_timeline_roundtrips() {
        let tl = Timeline::new(&cfg(100));
        let bytes = tl.to_bytes();
        let parsed = Timeline::parse(&bytes).expect("parse");
        assert_eq!(parsed.to_bytes(), bytes);
        assert!(parsed.is_empty());
    }

    #[test]
    fn parse_rejects_corruption() {
        let bytes = build(5).to_bytes();
        assert!(Timeline::parse(&bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("truncated"));
        let mut garbage = bytes.clone();
        garbage.push(0);
        assert!(Timeline::parse(&garbage)
            .unwrap_err()
            .contains("trailing garbage"));
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(Timeline::parse(&bad).unwrap_err().contains("bad magic"));
        assert!(Timeline::parse(b"TSL2").unwrap_err().contains("truncated"));
    }

    /// A `TSL1` dump (the same layout plus a trailing tier block; here
    /// an empty one) is refused by its magic, not by a misleading
    /// trailing-bytes error.
    #[test]
    fn parse_rejects_the_old_tsl1_magic() {
        let mut old = build(5).to_bytes();
        old[..4].copy_from_slice(b"TSL1");
        old.extend_from_slice(&0u32.to_le_bytes());
        assert!(Timeline::parse(&old).unwrap_err().contains("bad magic"));
    }

    /// A corrupt value count is an `Err`, not a capacity request the
    /// allocator aborts the process on.
    #[test]
    fn parse_rejects_a_value_count_beyond_the_dump() {
        let mut bytes = build(4).to_bytes();
        // The first series is `mac.frames`; its u32 value count follows
        // the name, the kind tag and the u64 start index.
        let name = b"mac.frames";
        let pos = bytes
            .windows(name.len())
            .position(|w| w == name)
            .expect("first series name");
        let off = pos + name.len() + 1 + 8;
        assert_eq!(bytes[off..off + 4], 4u32.to_le_bytes());
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Timeline::parse(&bytes).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn ring_retention_is_bounded() {
        let mut reg = Registry::new();
        let c = reg.counter("mac.frames");
        let mut tl = Timeline::new(&cfg(100));
        for i in 0..5_000 {
            reg.inc(c);
            tl.sample(tick(i, 100), &reg);
        }
        assert_eq!(tl.ticks(), 4_096);
        assert_eq!(tl.dropped(), 904);
        assert_eq!(tl.series_len("mac.frames"), 4_096);
        // The retained window is the most recent one.
        let r = tl.range("mac.frames", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.first().expect("samples").1, 905.0);
        assert_eq!(r.last().expect("samples").1, 5_000.0);
    }

    /// The on-the-fly query over an evicted ring (series start > 0)
    /// is LittleTable's downsample of the same retained samples, for
    /// every aggregation, bucket grids anchored inside and before the
    /// retained window, and a window end that cuts a bucket short.
    #[test]
    fn downsample_over_an_evicted_ring_matches_littletable() {
        let mut reg = Registry::new();
        let g = reg.gauge("phy.level");
        let mut tl = Timeline::new(&cfg(100));
        for i in 0..4_300u64 {
            // A wobbly deterministic trajectory with sign changes.
            reg.gauge_set(g, i64::try_from(i).expect("fits") * 13 % 41 - 20);
            tl.sample(tick(i, 100), &reg);
        }
        assert_eq!(tl.dropped(), 4_300 - 4_096);
        let retained = tl.range("phy.level", SimTime::ZERO, SimTime::MAX);
        assert_eq!(retained[0].0, tick(204, 100));
        let mut lt = LittleTable::new();
        let key = SeriesKey {
            device: 0,
            metric: "phy.level",
        };
        for &(at, v) in &retained {
            lt.insert(key.clone(), at, v);
        }
        let aggs = [
            Agg::Mean,
            Agg::Max,
            Agg::Min,
            Agg::Sum,
            Agg::Count,
            Agg::Last,
        ];
        for (from, to) in [
            (SimTime::ZERO, SimTime::MAX),
            (
                tick(250, 100),
                tick(4_123, 100) + SimDuration::from_millis(50),
            ),
        ] {
            for bucket in [SimDuration::from_millis(700), SimDuration::from_millis(300)] {
                for agg in aggs {
                    let naive = lt.downsample(&key, from, to, bucket, agg);
                    assert!(!naive.is_empty());
                    assert_eq!(
                        tl.downsample("phy.level", from, to, bucket, agg),
                        naive,
                        "{from}..{to} by {bucket} {agg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn absorb_prefixes_and_keeps_sorted_dump() {
        let a = build(10);
        let b = build(7);
        let mut merged = Timeline::default();
        merged.absorb("base", &a);
        merged.absorb("fast", &b);
        assert_eq!(merged.ticks(), 10);
        assert_eq!(
            merged.range("fast.mac.frames", SimTime::ZERO, SimTime::MAX),
            b.range("mac.frames", SimTime::ZERO, SimTime::MAX)
        );
        // Absorb order must not matter for the serialized bytes of the
        // same content set.
        let mut flipped = Timeline::default();
        flipped.absorb("fast", &b);
        flipped.absorb("base", &a);
        assert_eq!(merged.to_bytes(), flipped.to_bytes());
        let parsed = Timeline::parse(&merged.to_bytes()).expect("parse");
        assert_eq!(parsed.to_bytes(), merged.to_bytes());
    }

    #[test]
    #[should_panic(expected = "off the nominal grid")]
    fn off_grid_sample_panics() {
        let reg = Registry::new();
        let mut tl = Timeline::new(&cfg(100));
        tl.sample(SimTime::from_millis(50), &reg);
    }

    #[test]
    fn zigzag_covers_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -4242] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn counter_series_roundtrip(deltas in vec(0u64..1_000_000, 1..200)) {
            let mut reg = Registry::new();
            let c = reg.counter("c");
            let mut tl = Timeline::new(&cfg(10));
            let mut raw = Vec::new();
            let mut total = 0u64;
            for (i, d) in deltas.iter().enumerate() {
                total += d;
                reg.add(c, *d);
                tl.sample(tick(i as u64, 10), &reg);
                raw.push(total as f64);
            }
            let parsed = Timeline::parse(&tl.to_bytes()).expect("parse");
            let got: Vec<f64> = parsed
                .range("c", SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            prop_assert_eq!(got, raw);
            prop_assert_eq!(parsed.to_bytes(), tl.to_bytes());
        }

        fn gauge_and_f64_series_roundtrip(vals in vec(-1_000_000i64..1_000_000, 1..200)) {
            let mut reg = Registry::new();
            let g = reg.gauge("g");
            let mut tl = Timeline::new(&cfg(10));
            let mut raw_g = Vec::new();
            let mut raw_f = Vec::new();
            for (i, v) in vals.iter().enumerate() {
                reg.gauge_set(g, *v);
                let f = *v as f64 * 0.125;
                tl.set_f64("f", f);
                tl.sample(tick(i as u64, 10), &reg);
                raw_g.push(*v as f64);
                raw_f.push(f);
            }
            let parsed = Timeline::parse(&tl.to_bytes()).expect("parse");
            let got_g: Vec<f64> = parsed
                .range("g", SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            let got_f: Vec<f64> = parsed
                .range("f", SimTime::ZERO, SimTime::MAX)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            prop_assert_eq!(got_g, raw_g);
            prop_assert_eq!(got_f, raw_f);
            prop_assert_eq!(parsed.to_bytes(), tl.to_bytes());
        }
    }
}
