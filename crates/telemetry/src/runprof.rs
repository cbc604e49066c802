//! Host-side run profiler: wall-clock stage timing, allocation/RSS
//! accounting, and resource high-watermarks.
//!
//! Everything else in `telemetry` measures the *simulated world* — the
//! [`crate::metrics`] profiler attributes simulated microseconds, the
//! flight recorder captures simulated packet causality. This module
//! measures the *simulator as a program*: where the host's wall clock
//! goes (fleet epochs, the testbed event loop, bench setup/run/report
//! phases), how much the process allocates, and how large the hot
//! structures grew. It is the instrument behind the ROADMAP's scale
//! claims ("1M networks in bounded RSS", "≥3× events/s"): a claim about
//! host resources needs a number with a trajectory, and ad-hoc
//! `Instant` timers scattered through bench binaries don't compose.
//!
//! ## The determinism exemption — read this before adding wall-clock
//!
//! This is the **single audited wall-clock module** in the otherwise
//! deterministic stack. simcheck's `wall-clock` rule exempts exactly
//! this file (see `simcheck::workspace::audited_wall_clock_files`),
//! not the `telemetry` crate, and the audit it encodes is:
//!
//! 1. **Nothing flows back.** No simulation code ever *reads* a value
//!    produced here; the profiler is write-only from the simulator's
//!    point of view. Enabling it cannot change a trajectory — the
//!    golden-artifact tests pin fig15/fig18 artifact bytes with the
//!    profiler enabled to prove it stays that way.
//! 2. **Off means free.** All entry points early-return on a single
//!    relaxed atomic load when disabled (the default), so instrumented
//!    hot paths pay one predictable branch.
//! 3. **Non-determinism is labelled.** The sidecar JSON separates a
//!    `deterministic` section (structure watermarks, byte-compared by
//!    CI across double runs) from a `wall_clock` section (stage times,
//!    allocation counts, RSS — never byte-compared).
//!
//! ## The three pillars
//!
//! * **Stage spans** — [`span`] returns a [`WallSpan`] guard; dropping
//!   it attributes the elapsed host time to its stage name. Unlike the
//!   sim-time [`crate::metrics::Span`] there is no nesting discipline:
//!   stages are flat labels (`fleet.shard.tick`, `testbed.run`,
//!   `fig18.run`) and guards from worker threads accumulate into the
//!   same stage concurrently.
//! * **Resource accounting** — [`CountingAlloc`] is a drop-in global
//!   allocator wrapper counting allocs/frees/live/peak bytes (installed
//!   by the bench crate behind its `alloc-count` feature);
//!   [`peak_rss_bytes`] reads the kernel's lifetime RSS high-watermark
//!   (`VmHWM` in `/proc/self/status`).
//! * **Watermarks** — [`watermark`] max-folds named `u64` levels: event
//!   arena peaks, queue depths, flight-ring occupancy, fleet shard
//!   backlogs. These mirror deterministic simulator state, so they land
//!   in the sidecar's `deterministic` section.
//!
//! The profiler is process-global (fleet shards run on scoped worker
//! threads; threading a handle through every layer would make the
//! no-op case cost more than the measurement). [`snapshot`] renders the
//! state into a [`RunProfile`]; the bench harness writes it as the
//! `--runprof out.json` sidecar, inspected with `simctl perf`.

use crate::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the profiler on or off. Off (the default) makes every probe a
/// single relaxed load; on makes spans read the monotonic clock and
/// take a short mutex on drop. The bench harness flips this when a
/// binary is invoked with `--runprof <path>`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is the profiler currently recording?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[derive(Default)]
struct State {
    stages: BTreeMap<String, StageStat>,
    watermarks: BTreeMap<String, u64>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(Mutex::default)
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    // A panic while holding the lock (another thread's assert) must not
    // cascade into every span drop; the counters are plain integers, so
    // the poisoned state is still coherent.
    state().lock().unwrap_or_else(|p| p.into_inner())
}

/// Accumulated wall-clock profile for one stage label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Completed span guards dropped against this stage.
    pub calls: u64,
    /// Total host nanoseconds across all calls.
    pub total_ns: u64,
    /// Shortest single call.
    pub min_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

/// Guard returned by [`span`]; dropping it records the elapsed wall
/// time. Carries `None` when the profiler is disabled, so the guard is
/// free to create and free to drop.
#[must_use = "a WallSpan records its stage time when dropped"]
pub struct WallSpan {
    live: Option<(String, Instant)>,
}

impl WallSpan {
    /// A guard that records nothing (what [`span`] hands out while the
    /// profiler is disabled).
    pub fn disabled() -> WallSpan {
        WallSpan { live: None }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some((stage, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut st = lock_state();
            let s = st.stages.entry(stage).or_default();
            s.calls += 1;
            s.total_ns = s.total_ns.saturating_add(ns);
            s.max_ns = s.max_ns.max(ns);
            s.min_ns = if s.calls == 1 { ns } else { s.min_ns.min(ns) };
        }
    }
}

/// Open a wall-clock span against `stage`. Guards may overlap freely
/// across threads; each drop folds into the shared [`StageStat`].
pub fn span(stage: &str) -> WallSpan {
    if !enabled() {
        return WallSpan::disabled();
    }
    // The one wall-clock read in the stack: see the module audit notes.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    WallSpan {
        live: Some((stage.to_owned(), start)),
    }
}

/// Max-fold a named high-watermark. Watermarks mirror deterministic
/// simulator state (arena peaks, ring occupancy, shard backlogs), so
/// they serialize into the sidecar's `deterministic` section and CI
/// byte-compares them across double runs.
pub fn watermark(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    let w = st.watermarks.entry(name.to_owned()).or_insert(0);
    *w = (*w).max(value);
}

/// Clear accumulated stages and watermarks (allocation counters are
/// lifetime-of-process and are not reset). Tests use this between
/// measured regions; production binaries never need it.
pub fn reset() {
    let mut st = lock_state();
    st.stages.clear();
    st.watermarks.clear();
}

// ---- allocation accounting ----------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static FREE_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper around the system allocator. Install it as the
/// global allocator to populate [`AllocStats`]:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: telemetry::runprof::CountingAlloc = telemetry::runprof::CountingAlloc;
/// ```
///
/// The bench crate does exactly this behind its `alloc-count` feature —
/// three relaxed atomic ops per alloc is cheap but not free, so the
/// default build leaves the system allocator untouched and
/// [`AllocStats::installed`] reports `false`.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn on_free(size: usize) {
        FREE_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: defers every allocation to `System` verbatim; the wrapper
// only bumps counters and never inspects or retains the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count a realloc as free(old)+alloc(new) so live-byte
        // accounting stays exact; call counters move in lockstep.
        Self::on_free(layout.size());
        Self::on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation counters accumulated by [`CountingAlloc`]. All zeros
/// (and `installed == false`) when the counting allocator was never
/// installed in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Is the counting allocator live in this process? (Inferred: any
    /// real program allocates long before the first snapshot.)
    pub installed: bool,
    /// Calls to `alloc`/`alloc_zeroed`/`realloc`.
    pub allocs: u64,
    /// Calls to `dealloc`/`realloc`.
    pub frees: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-watermark of live bytes.
    pub peak_bytes: u64,
}

/// Current allocation counters (see [`CountingAlloc`]).
pub fn alloc_stats() -> AllocStats {
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed);
    AllocStats {
        installed: allocs > 0,
        allocs,
        frees: FREE_CALLS.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

// ---- peak RSS -----------------------------------------------------

/// The process's lifetime peak resident set size in bytes, from the
/// kernel's `VmHWM` line in `/proc/self/status`. `None` off Linux or
/// if the field is missing — callers degrade to "no RSS recorded", the
/// artifact writes `null`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parse `VmHWM: <n> kB` out of a `/proc/self/status` body. Split out
/// so the parsing is testable without a live procfs.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

// ---- snapshot & sidecar JSON --------------------------------------

/// One wall-clock throughput sample carried into the sidecar (the
/// bench harness forwards its `--perf` samples here so `simctl perf
/// regress` can read either artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePoint {
    pub label: String,
    pub events: u64,
    pub wall_s: f64,
    /// Peak RSS observed when the sample was taken, if available.
    pub peak_rss_bytes: Option<u64>,
}

impl SamplePoint {
    /// The sample as one JSON object with its derived events/s rate —
    /// the shape both the `--runprof` sidecar and the bench harness's
    /// `--perf` fragment carry.
    pub fn write_json(&self, o: &mut String) {
        let rate = if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        };
        o.push_str("{ \"label\": ");
        json::string(o, &self.label);
        let _ = write!(o, ", \"events\": {}, \"wall_s\": ", self.events);
        json::f64_or_null(o, self.wall_s);
        o.push_str(", \"events_per_s\": ");
        json::f64_or_null(o, rate);
        o.push_str(", \"peak_rss_bytes\": ");
        json::opt_u64(o, self.peak_rss_bytes);
        o.push_str(" }");
    }
}

/// Everything the profiler knows, cloned out of the global state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Deterministic structure high-watermarks (see [`watermark`]).
    pub watermarks: BTreeMap<String, u64>,
    /// Wall-clock stage profile (see [`span`]).
    pub stages: BTreeMap<String, StageStat>,
    /// Allocation counters (see [`CountingAlloc`]).
    pub alloc: AllocStats,
    /// Kernel RSS high-watermark at snapshot time.
    pub peak_rss_bytes: Option<u64>,
}

/// Snapshot the global profiler state.
pub fn snapshot() -> RunProfile {
    let st = lock_state();
    RunProfile {
        watermarks: st.watermarks.clone(),
        stages: st.stages.clone(),
        alloc: alloc_stats(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

impl RunProfile {
    /// The `--runprof` sidecar. Byte-stable layout: keys are sorted and
    /// field order is fixed, so identical profiler state serializes to
    /// identical bytes. The `deterministic` object must byte-match
    /// across double runs of the same binary (CI enforces it via
    /// `simctl perf diff`); everything under `wall_clock` is host
    /// measurement and must never be byte-compared.
    pub fn to_json(&self, bench: &str, samples: &[SamplePoint]) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\n  \"bench\": ");
        json::string(&mut o, bench);
        o.push_str(",\n  \"deterministic\": {\n    \"watermarks\": {");
        for (i, (name, v)) in self.watermarks.iter().enumerate() {
            o.push_str(if i == 0 { "\n      " } else { ",\n      " });
            json::string(&mut o, name);
            let _ = write!(o, ": {v}");
        }
        if !self.watermarks.is_empty() {
            o.push_str("\n    ");
        }
        o.push_str("}\n  },\n  \"wall_clock\": {\n");
        o.push_str("    \"note\": \"non-deterministic host measurements; never byte-compare\",\n");
        o.push_str("    \"stages\": [");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            o.push_str(if i == 0 { "\n      " } else { ",\n      " });
            o.push_str("{ \"stage\": ");
            json::string(&mut o, name);
            let _ = write!(
                o,
                ", \"calls\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {} }}",
                s.calls, s.total_ns, s.min_ns, s.max_ns
            );
        }
        if !self.stages.is_empty() {
            o.push_str("\n    ");
        }
        let _ = write!(
            o,
            "],\n    \"alloc\": {{ \"installed\": {}, \"allocs\": {}, \"frees\": {}, \"live_bytes\": {}, \"peak_bytes\": {} }},\n",
            self.alloc.installed,
            self.alloc.allocs,
            self.alloc.frees,
            self.alloc.live_bytes,
            self.alloc.peak_bytes
        );
        o.push_str("    \"peak_rss_bytes\": ");
        json::opt_u64(&mut o, self.peak_rss_bytes);
        o.push_str(",\n    \"samples\": [");
        for (i, s) in samples.iter().enumerate() {
            o.push_str(if i == 0 { "\n      " } else { ",\n      " });
            s.write_json(&mut o);
        }
        if !samples.is_empty() {
            o.push_str("\n    ");
        }
        o.push_str("]\n  }\n}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global; tests that toggle `ENABLED` or
    /// read accumulated state serialize on this lock so `cargo test`'s
    /// thread pool cannot interleave them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        drop(span("ghost.stage"));
        watermark("ghost.mark", 99);
        let p = snapshot();
        assert!(p.stages.is_empty());
        assert!(p.watermarks.is_empty());
    }

    #[test]
    fn spans_accumulate_calls_and_bounds() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let s = span("t.stage");
            std::hint::black_box(0u64);
            drop(s);
        }
        set_enabled(false);
        let p = snapshot();
        let s = p.stages.get("t.stage").expect("stage recorded");
        assert_eq!(s.calls, 3);
        assert!(s.total_ns >= s.max_ns);
        assert!(s.max_ns >= s.min_ns);
    }

    #[test]
    fn watermarks_max_fold() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        watermark("w.depth", 10);
        watermark("w.depth", 4);
        watermark("w.depth", 17);
        set_enabled(false);
        assert_eq!(snapshot().watermarks.get("w.depth"), Some(&17));
    }

    #[test]
    fn spans_from_worker_threads_share_a_stage() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| drop(span("t.worker")));
            }
        });
        set_enabled(false);
        assert_eq!(snapshot().stages.get("t.worker").unwrap().calls, 4);
    }

    #[test]
    fn vm_hwm_parses_kernel_format() {
        let status = "Name:\tsim\nVmPeak:\t  100 kB\nVmHWM:\t   5544 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(5544 * 1024));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn sidecar_json_is_byte_stable_and_sectioned() {
        let _g = test_lock();
        let mut prof = RunProfile {
            peak_rss_bytes: Some(2048),
            ..RunProfile::default()
        };
        prof.watermarks.insert("sim.queue.arena_peak".into(), 7);
        prof.stages.insert(
            "fig.run".into(),
            StageStat {
                calls: 2,
                total_ns: 100,
                min_ns: 40,
                max_ns: 60,
            },
        );
        let samples = [SamplePoint {
            label: "fig".into(),
            events: 10,
            wall_s: 2.0,
            peak_rss_bytes: None,
        }];
        let a = prof.to_json("fig", &samples);
        let b = prof.to_json("fig", &samples);
        assert_eq!(a, b, "identical state must serialize identically");
        // Deterministic section precedes (and never contains) the
        // wall-clock fields.
        let det = a.find("\"deterministic\"").unwrap();
        let wall = a.find("\"wall_clock\"").unwrap();
        assert!(det < wall);
        assert!(a[det..wall].contains("sim.queue.arena_peak"));
        assert!(!a[det..wall].contains("total_ns"));
        assert!(a.contains("\"events_per_s\": 5"));
        assert!(a.contains("\"peak_rss_bytes\": 2048"));
        assert!(a.contains("never byte-compare"));
    }

    #[test]
    fn empty_profile_serializes_cleanly() {
        let p = RunProfile::default();
        let j = p.to_json("empty", &[]);
        assert!(j.contains("\"watermarks\": {}"));
        assert!(j.contains("\"stages\": []"));
        assert!(j.contains("\"samples\": []"));
        assert!(j.contains("\"peak_rss_bytes\": null"));
    }

    #[test]
    fn alloc_stats_report_uninstalled_without_the_feature() {
        // This test binary does not install CountingAlloc; the counters
        // must read as "not installed" rather than inventing numbers.
        let s = alloc_stats();
        if s.allocs == 0 {
            assert!(!s.installed);
            assert_eq!(s.peak_bytes, 0);
        }
    }

    #[test]
    fn counting_alloc_bookkeeping_is_exact() {
        // Exercise the counter arithmetic directly (installing a global
        // allocator inside a test is not possible; the feature-gated
        // bench build exercises the GlobalAlloc wiring itself).
        let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
        let f0 = FREE_CALLS.load(Ordering::Relaxed);
        CountingAlloc::on_alloc(1000);
        CountingAlloc::on_alloc(24);
        CountingAlloc::on_free(1000);
        CountingAlloc::on_free(24);
        assert_eq!(ALLOC_CALLS.load(Ordering::Relaxed) - a0, 2);
        assert_eq!(FREE_CALLS.load(Ordering::Relaxed) - f0, 2);
        assert!(PEAK_BYTES.load(Ordering::Relaxed) >= 1024);
    }
}
