//! Deterministic time-series telemetry: the timeline sampler.
//!
//! The paper's method is measurement *over time* — every AP pushes
//! periodic counter samples into LittleTable (§2.2) and the cloud
//! queries series, not snapshots. This module gives the reproduction
//! that time dimension: a [`Timeline`] samples selected counters and
//! gauges out of a [`Registry`](crate::metrics::Registry) every fixed
//! sim-time interval into per-series columns, keeps a bounded ring of
//! raw ticks plus coarse downsampled tiers (LittleTable-style
//! [`Agg`]), and serializes to a byte-stable `TSL1` binary dump with a
//! strict parser — the same idiom as the flight recorder's `FLT1`.
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
//! tl.seal();
//! let parsed = Timeline::parse(&tl.to_bytes()).unwrap();
//! assert_eq!(parsed.to_bytes(), tl.to_bytes());
//! assert_eq!(tl.last("mac.frames"), Some(35.0));
//! ```

use crate::littletable::Agg;
use crate::metrics::Registry;
use crate::streaming::RollingWindow;
use sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Dump file magic: "TSL" + format version.
const MAGIC: &[u8; 4] = b"TSL1";

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

/// One downsampled retention tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Bucket width; must be ≥ the raw sampling interval so every
    /// bucket in range contains at least one tick (rows stay dense).
    pub bucket: SimDuration,
    /// Aggregation applied per bucket — shares [`Agg`] semantics with
    /// `littletable::downsample` exactly.
    pub agg: Agg,
    /// Retained rows before the oldest is evicted.
    pub capacity: usize,
}

/// Sampler configuration. The `Option<TimelineConfig>` on testbed and
/// harness configs defaults to `None`: runs pay nothing unless a
/// timeline is asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineConfig {
    /// Sampling interval; tick `i` lands at `i * every`.
    pub every: SimDuration,
    /// Dotted-path prefixes to sample (empty = every counter/gauge).
    pub select: Vec<String>,
    /// Retained raw ticks before ring eviction.
    pub capacity: usize,
    /// Coarse downsampled tiers kept alongside the raw ring.
    pub tiers: Vec<TierConfig>,
}

impl TimelineConfig {
    /// Everything-selected config with the default retention shape:
    /// 4096 raw ticks plus a 10× mean tier and a 100× max tier.
    pub fn sampling(every: SimDuration) -> TimelineConfig {
        TimelineConfig {
            every,
            select: Vec::new(),
            capacity: 4096,
            tiers: vec![
                TierConfig {
                    bucket: every * 10,
                    agg: Agg::Mean,
                    capacity: 4096,
                },
                TierConfig {
                    bucket: every * 100,
                    agg: Agg::Max,
                    capacity: 4096,
                },
            ],
        }
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

/// Per-bucket accumulator; updates mirror the fold order of
/// `littletable::downsample` so tier rows are bit-identical to the
/// naive recomputation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }

    fn feed(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    fn finish(&self, agg: Agg) -> f64 {
        match agg {
            Agg::Mean => self.sum / self.count as f64,
            Agg::Max => self.max,
            Agg::Min => self.min,
            Agg::Sum => self.sum,
            Agg::Count => self.count as f64,
            Agg::Last => self.last,
        }
    }
}

/// One tier series: completed-bucket values (f64 bits) for dense rows
/// starting at absolute bucket row `start`.
#[derive(Debug, Clone, PartialEq)]
struct TierSeries {
    kind: SeriesKind,
    start: u64,
    vals: VecDeque<u64>,
    acc: Option<Acc>,
}

/// One downsampled tier: dense rows of completed buckets.
#[derive(Debug, Clone, PartialEq)]
struct Tier {
    bucket_ns: u64,
    agg: Agg,
    capacity: usize,
    /// Absolute row index of the first retained row (== evicted rows).
    base: u64,
    /// Retained row count.
    len: u64,
    /// Absolute index of the in-progress (unflushed) bucket.
    cur: Option<u64>,
    series: BTreeMap<String, TierSeries>,
}

impl Tier {
    fn new(cfg: &TierConfig) -> Tier {
        Tier {
            bucket_ns: cfg.bucket.as_nanos(),
            agg: cfg.agg,
            capacity: cfg.capacity.max(1),
            base: 0,
            len: 0,
            cur: None,
            series: BTreeMap::new(),
        }
    }

    /// Called once per raw tick before any feeds: flush the previous
    /// bucket if this tick starts a new one.
    fn roll(&mut self, stamp_ns: u64) {
        let b = stamp_ns / self.bucket_ns;
        match self.cur {
            None => self.cur = Some(b),
            Some(p) if b > p => {
                self.flush_row(p);
                self.cur = Some(b);
            }
            Some(_) => {}
        }
    }

    fn feed(&mut self, path: &str, kind: SeriesKind, v: f64) {
        if let Some(s) = self.series.get_mut(path) {
            debug_assert_eq!(s.kind, kind, "tier series kind changed: {path}");
            s.acc.get_or_insert_with(Acc::new).feed(v);
        } else {
            let mut acc = Acc::new();
            acc.feed(v);
            self.series.insert(
                path.to_owned(),
                TierSeries {
                    kind,
                    start: 0,
                    vals: VecDeque::new(),
                    acc: Some(acc),
                },
            );
        }
    }

    /// Flush completed bucket `row` into every accumulating series.
    fn flush_row(&mut self, row: u64) {
        if self.len == 0 {
            self.base = row;
        } else {
            assert_eq!(
                self.base + self.len,
                row,
                "tier rows must stay dense (bucket < sampling interval?)"
            );
        }
        for (path, s) in self.series.iter_mut() {
            let Some(acc) = s.acc.take() else { continue };
            if s.vals.is_empty() {
                s.start = row;
            } else {
                assert_eq!(
                    s.start + s.vals.len() as u64,
                    row,
                    "tier series {path} skipped a bucket"
                );
            }
            s.vals.push_back(acc.finish(self.agg).to_bits());
        }
        self.len += 1;
        while self.len > self.capacity as u64 {
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
}

/// Read-only view of one tier (for `simctl time summary`/queries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierView<'a> {
    tier: &'a Tier,
}

impl<'a> TierView<'a> {
    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_nanos(self.tier.bucket_ns)
    }

    /// Aggregation this tier applies.
    pub fn agg(&self) -> Agg {
        self.tier.agg
    }

    /// Completed, retained rows.
    pub fn rows(&self) -> u64 {
        self.tier.len
    }

    /// Rows evicted from the front of the tier ring.
    pub fn dropped_rows(&self) -> u64 {
        self.tier.base
    }

    /// Completed-bucket values of one series as `(bucket start, value)`.
    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        let Some(s) = self.tier.series.get(name) else {
            return Vec::new();
        };
        s.vals
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                let row = s.start + i as u64;
                (
                    SimTime::from_nanos(row * self.tier.bucket_ns),
                    f64::from_bits(bits),
                )
            })
            .collect()
    }
}

/// The timeline sampler + store (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    every_ns: u64,
    capacity: usize,
    select: Vec<String>,
    /// Absolute index of the first retained tick (== evicted ticks).
    base: u64,
    /// Retained tick count.
    len: u64,
    /// Explicitly staged f64 signals, re-sampled every tick.
    staged: BTreeMap<String, u64>,
    series: BTreeMap<String, Series>,
    tiers: Vec<Tier>,
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
        for t in &cfg.tiers {
            assert!(
                t.bucket >= cfg.every,
                "tier bucket {} < sampling interval {}",
                t.bucket,
                cfg.every
            );
        }
        Timeline {
            every_ns: cfg.every.as_nanos(),
            capacity: cfg.capacity.max(1),
            select: cfg.select.clone(),
            base: 0,
            len: 0,
            staged: BTreeMap::new(),
            series: BTreeMap::new(),
            tiers: cfg.tiers.iter().map(Tier::new).collect(),
            frozen: false,
        }
    }

    // ---- sampling -------------------------------------------------

    /// Stage (or refresh) an f64 signal; every subsequent tick samples
    /// the latest staged value. NaN is rejected at the door so tier
    /// aggregates can never be poisoned.
    pub fn set_f64(&mut self, path: &str, v: f64) {
        assert!(!v.is_nan(), "NaN staged for timeline series {path}");
        if let Some(slot) = self.staged.get_mut(path) {
            *slot = v.to_bits();
        } else {
            self.staged.insert(path.to_owned(), v.to_bits());
        }
    }

    /// Record tick `base + len` at its nominal instant: snapshot every
    /// selected counter and gauge plus all staged f64 signals. Reads
    /// the registry only — never writes it.
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
        for t in &mut self.tiers {
            t.roll(stamp_ns);
        }
        // Split borrows: selection reads self.select while the record
        // closure mutates self.series/self.tiers.
        let select = &self.select;
        let selected =
            |path: &str| select.is_empty() || select.iter().any(|p| path.starts_with(p.as_str()));
        let series = &mut self.series;
        let tiers = &mut self.tiers;
        let mut record = |path: &str, kind: SeriesKind, bits: u64| {
            if let Some(s) = series.get_mut(path) {
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
                series.insert(
                    path.to_owned(),
                    Series {
                        kind,
                        start: idx,
                        vals,
                    },
                );
            }
            let v = bits_to_f64(kind, bits);
            for t in tiers.iter_mut() {
                t.feed(path, kind, v);
            }
        };
        for (path, v) in reg.counters() {
            if selected(path) {
                record(path, SeriesKind::Counter, v);
            }
        }
        for (path, v) in reg.gauges() {
            if selected(path) {
                record(path, SeriesKind::Gauge, u64::from_le_bytes(v.to_le_bytes()));
            }
        }
        for (path, &bits) in &self.staged {
            record(path, SeriesKind::F64, bits);
        }
        self.len += 1;
        if self.len > self.capacity as u64 {
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

    /// Flush every tier's in-progress bucket. Call once after the last
    /// `sample` and before `to_bytes` — dumps carry completed buckets
    /// only, so an unsealed trailing bucket would silently vanish.
    pub fn seal(&mut self) {
        for t in &mut self.tiers {
            if let Some(p) = t.cur.take() {
                t.flush_row(p);
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

    /// Downsample a series on the fly with `littletable::downsample`
    /// semantics: bucket grid anchored at `from`, empty buckets
    /// omitted, identical fold order (so values are bit-identical to
    /// the naive recomputation the tests do through `LittleTable`).
    pub fn downsample(
        &self,
        name: &str,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
        agg: Agg,
    ) -> Vec<(SimTime, f64)> {
        assert!(bucket > SimDuration::ZERO);
        let samples = self.range(name, from, to);
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut i = 0;
        let mut bucket_start = from;
        while bucket_start < to && i < samples.len() {
            let bucket_end = (bucket_start + bucket).min(to);
            let mut acc = Acc::new();
            let mut any = false;
            while i < samples.len() && samples[i].0 < bucket_end {
                acc.feed(samples[i].1);
                any = true;
                i += 1;
            }
            if any {
                out.push((bucket_start, acc.finish(agg)));
            }
            bucket_start = bucket_end;
        }
        out
    }

    /// The last `n` values of a series as a detector-style
    /// [`RollingWindow`] — when the timeline cadence matches
    /// `HealthRules::sample_every`, this is the window the health
    /// detectors consumed (modulo run-loop phase; see DESIGN.md §6).
    pub fn window(&self, name: &str, n: usize) -> RollingWindow {
        let mut w = RollingWindow::new(n);
        if let Some(s) = self.series.get(name) {
            let skip = s.vals.len().saturating_sub(n);
            for &bits in s.vals.iter().skip(skip) {
                w.push(bits_to_f64(s.kind, bits));
            }
        }
        w
    }

    /// Read-only tier views, in config order.
    pub fn tiers(&self) -> impl Iterator<Item = TierView<'_>> {
        self.tiers.iter().map(|tier| TierView { tier })
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
            self.capacity = other.capacity;
            self.base = other.base;
            self.len = other.len;
            self.tiers = other
                .tiers
                .iter()
                .map(|t| Tier {
                    bucket_ns: t.bucket_ns,
                    agg: t.agg,
                    capacity: t.capacity,
                    base: t.base,
                    len: t.len,
                    cur: None,
                    series: BTreeMap::new(),
                })
                .collect();
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
        assert_eq!(
            self.tiers.len(),
            other.tiers.len(),
            "absorb: tier shape mismatch"
        );
        for (dst, src) in self.tiers.iter_mut().zip(&other.tiers) {
            assert_eq!(dst.bucket_ns, src.bucket_ns, "absorb: tier bucket mismatch");
            assert_eq!(dst.agg, src.agg, "absorb: tier agg mismatch");
            if dst.len == 0 {
                dst.base = src.base;
                dst.len = src.len;
            } else if src.len > 0 {
                let end = (dst.base + dst.len).max(src.base + src.len);
                dst.base = dst.base.min(src.base);
                dst.len = end - dst.base;
            }
            for (name, s) in &src.series {
                let key = if label.is_empty() {
                    name.clone()
                } else {
                    format!("{label}.{name}")
                };
                let prev = dst.series.insert(key.clone(), s.clone());
                assert!(prev.is_none(), "absorb: tier series collision on {key}");
            }
        }
    }

    // ---- binary serialization ------------------------------------

    /// Serialize to the deterministic, byte-stable `TSL1` dump:
    ///
    /// ```text
    /// "TSL1"
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
    /// u32 tier count
    /// per tier:
    ///   u64 bucket (ns), u8 agg tag, u64 evicted rows, u32 row count
    ///   u32 series count, then series as above (values f64-encoded)
    /// ```
    ///
    /// All integers little-endian. Only completed buckets are dumped —
    /// call [`Timeline::seal`] first. `parse(to_bytes())` round-trips
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
        out.extend_from_slice(
            &u32::try_from(self.tiers.len())
                .expect("tier count")
                .to_le_bytes(),
        );
        for t in &self.tiers {
            out.extend_from_slice(&t.bucket_ns.to_le_bytes());
            out.push(agg_tag(t.agg));
            out.extend_from_slice(&t.base.to_le_bytes());
            out.extend_from_slice(&u32::try_from(t.len).expect("row count").to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(t.series.len())
                    .expect("tier series count")
                    .to_le_bytes(),
            );
            for (name, s) in &t.series {
                put_series(&mut out, name, s.kind, s.start, &s.vals);
            }
        }
        out
    }

    /// Parse a dump produced by [`Timeline::to_bytes`]. Strict: any
    /// truncation, bad tag, off-grid timestamp, payload-length
    /// mismatch, or trailing garbage is an error. The parsed timeline
    /// is frozen (query/serialize only).
    pub fn parse(bytes: &[u8]) -> Result<Timeline, String> {
        let mut r = Reader { bytes, off: 0 };
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
        let n_tiers = r.u32()? as usize;
        let mut tiers = Vec::with_capacity(n_tiers);
        for _ in 0..n_tiers {
            let bucket_ns = r.u64()?;
            if bucket_ns == 0 {
                return Err("tier bucket must be > 0".to_owned());
            }
            let agg = agg_from_tag(r.u8()?)?;
            let t_base = r.u64()?;
            let t_len = u64::from(r.u32()?);
            let n = r.u32()? as usize;
            let mut tser = BTreeMap::new();
            let mut prev = String::new();
            for i in 0..n {
                let (name, kind, start, vals) = take_series(&mut r)?;
                if i > 0 && name <= prev {
                    return Err(format!("tier series {name} out of order"));
                }
                prev = name.clone();
                tser.insert(
                    name,
                    TierSeries {
                        kind,
                        start,
                        vals,
                        acc: None,
                    },
                );
            }
            tiers.push(Tier {
                bucket_ns,
                agg,
                capacity: usize::MAX,
                base: t_base,
                len: t_len,
                cur: None,
                series: tser,
            });
        }
        if r.off != bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes after the last tier",
                bytes.len() - r.off
            ));
        }
        Ok(Timeline {
            every_ns,
            capacity: usize::MAX,
            select: Vec::new(),
            base,
            len,
            staged: BTreeMap::new(),
            series,
            tiers,
            frozen: true,
        })
    }
}

fn agg_tag(agg: Agg) -> u8 {
    match agg {
        Agg::Mean => 0,
        Agg::Max => 1,
        Agg::Min => 2,
        Agg::Sum => 3,
        Agg::Count => 4,
        Agg::Last => 5,
    }
}

fn agg_from_tag(tag: u8) -> Result<Agg, String> {
    match tag {
        0 => Ok(Agg::Mean),
        1 => Ok(Agg::Max),
        2 => Ok(Agg::Min),
        3 => Ok(Agg::Sum),
        4 => Ok(Agg::Count),
        5 => Ok(Agg::Last),
        t => Err(format!("unknown agg tag {t}")),
    }
}

/// Human label for an aggregation (`simctl time summary`/`query --agg`).
pub fn agg_label(agg: Agg) -> &'static str {
    match agg {
        Agg::Mean => "mean",
        Agg::Max => "max",
        Agg::Min => "min",
        Agg::Sum => "sum",
        Agg::Count => "count",
        Agg::Last => "last",
    }
}

/// Parse an aggregation name (as printed by [`agg_label`]).
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
    let count = r.u32()? as usize;
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

struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated dump at offset {}", self.off))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(format!("varint overflow at offset {}", self.off));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
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
        let mut tl = build(37);
        tl.seal();
        let bytes = tl.to_bytes();
        let parsed = Timeline::parse(&bytes).expect("parse");
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.ticks(), tl.ticks());
        assert_eq!(
            parsed.range("tcp.backlog", SimTime::ZERO, SimTime::MAX),
            tl.range("tcp.backlog", SimTime::ZERO, SimTime::MAX)
        );
        // Tier rows survive the round-trip too.
        let t0: Vec<_> = tl.tiers().next().expect("tier").series("mac.frames");
        let p0: Vec<_> = parsed.tiers().next().expect("tier").series("mac.frames");
        assert!(!t0.is_empty());
        assert_eq!(t0, p0);
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
        let mut tl = build(5);
        tl.seal();
        let bytes = tl.to_bytes();
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
        assert!(Timeline::parse(b"TSL1").unwrap_err().contains("truncated"));
    }

    #[test]
    fn ring_retention_is_bounded() {
        let mut reg = Registry::new();
        let c = reg.counter("mac.frames");
        let mut config = cfg(100);
        config.capacity = 64;
        config.tiers = vec![TierConfig {
            bucket: SimDuration::from_secs(1),
            agg: Agg::Mean,
            capacity: 32,
        }];
        let mut tl = Timeline::new(&config);
        for i in 0..10_000 {
            reg.inc(c);
            tl.sample(tick(i, 100), &reg);
        }
        tl.seal();
        assert_eq!(tl.ticks(), 64);
        assert_eq!(tl.dropped(), 10_000 - 64);
        assert_eq!(tl.series_len("mac.frames"), 64);
        let tier = tl.tiers().next().expect("tier");
        assert_eq!(tier.rows(), 32);
        assert_eq!(tier.dropped_rows(), 1_000 - 32);
        // The retained window is the most recent one.
        let r = tl.range("mac.frames", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.first().expect("samples").1, (10_000 - 64 + 1) as f64);
        assert_eq!(r.last().expect("samples").1, 10_000.0);
    }

    #[test]
    fn tiers_match_littletable_downsample() {
        let mut reg = Registry::new();
        let g = reg.gauge("phy.level");
        let mut config = cfg(100);
        config.tiers = vec![
            TierConfig {
                bucket: SimDuration::from_millis(700),
                agg: Agg::Mean,
                capacity: 4096,
            },
            TierConfig {
                bucket: SimDuration::from_millis(300),
                agg: Agg::Max,
                capacity: 4096,
            },
        ];
        let mut tl = Timeline::new(&config);
        let mut lt = LittleTable::new();
        let key = SeriesKey {
            device: 0,
            metric: "phy.level",
        };
        for i in 0..97u64 {
            // A wobbly deterministic trajectory with sign changes.
            let v = i64::try_from(i).expect("fits") * 13 % 41 - 20;
            reg.gauge_set(g, v);
            let at = tick(i, 100);
            lt.insert(key.clone(), at, v as f64);
            tl.sample(at, &reg);
        }
        tl.seal();
        let horizon = tick(97, 100);
        for (i, (bucket, agg)) in [
            (SimDuration::from_millis(700), Agg::Mean),
            (SimDuration::from_millis(300), Agg::Max),
        ]
        .iter()
        .enumerate()
        {
            let naive = lt.downsample(&key, SimTime::ZERO, horizon, *bucket, *agg);
            let tier = tl.tiers().nth(i).expect("tier");
            assert_eq!(tier.series("phy.level"), naive, "tier {i}");
            // And the on-the-fly query path agrees with both.
            assert_eq!(
                tl.downsample("phy.level", SimTime::ZERO, horizon, *bucket, *agg),
                naive
            );
        }
    }

    #[test]
    fn window_returns_last_n() {
        let tl = build(30);
        let w = tl.window("tcp.backlog", 5);
        assert!(w.is_full());
        let expect: Vec<f64> = tl
            .range("tcp.backlog", SimTime::ZERO, SimTime::MAX)
            .iter()
            .rev()
            .take(5)
            .rev()
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(w.values(), expect);
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
            tl.seal();
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
            tl.seal();
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
