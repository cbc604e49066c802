//! The untraced run: end-to-end metrics, measured with no probes in the
//! program beyond a clock read around each operation.

use crate::pins::{self, FleetPin, TestbedPin};
use crate::stats::{mean, median, quantile};
use crate::workload::{self, Workload};
use crate::{peak_rss_mb, Args, Metric, Outcome};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A run's budget is cut into this many windows of equal host time.
/// Each window starts with [`SETUP_REPS`] fresh set-ups (the first
/// window's are the run's own set-up), so `setup_s` samples the whole
/// run.
pub const WINDOWS: u32 = 5;
/// Set-ups at the start of each window; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Host time between calibration points, and kernel calls per point
/// (the point's value is their median).
const CAL_EVERY: Duration = Duration::from_millis(250);
const CAL_REPS: usize = 3;
/// Time of one [`Calibrator::kernel`] call on the reference host (2 vCPU
/// Intel Xeon, release build) in its fast state.
pub const CAL_REF_S: f64 = 2.25e-3;
/// How strongly a workload's host times follow the calibration: they
/// are scaled by the calibration ratio to this power. The kernel's time
/// swings further between host states than the simulators' does, so the
/// exponent is below 1.
///
/// * Testbed: over thirty 10 s `testbed_fastack` runs, exponents 0,
///   0.25, 0.5, 0.75 and 1 left run-to-run spreads of `run_p50_ms` of
///   0.17, 0.13, 0.12, 0.08 and 0.12.
/// * Fleet: `run_fleet` keeps both cores busy while the kernel, timed
///   between calls, sees one. Across six 35 s `fleet_steady` runs, raw
///   `run_p50_ms` rose with the run's median calibration at a log-log
///   slope of 0.47 (correlation 0.86); exponents 0, 0.25, 0.5 and 0.75
///   left a range of 0.25, 0.16, 0.16 and 0.21 of the median.
pub fn cal_exponent(w: Workload) -> f64 {
    if w.is_testbed() {
        0.75
    } else {
        0.5
    }
}

/// A fixed piece of work from this crate alone, so no change to the
/// code under test moves its time: binary-heap churn with random
/// read-modify-writes into a 4 MiB table, the mix of branchy compute and
/// last-level-cache traffic the simulators have. The table is allocated
/// once, so the kernel's time holds no page faults.
pub struct Calibrator {
    table: Vec<u64>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: vec![1; 1 << 19],
            heap: std::collections::BinaryHeap::with_capacity(4096),
        }
    }
}

impl Calibrator {
    pub fn kernel(&mut self, seed: u64) -> u64 {
        self.heap.clear();
        let mask = self.table.len() - 1;
        let mut x = seed | 1;
        let mut acc = 0u64;
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap.push(std::cmp::Reverse(x % 1_000_003));
            let j = (x as usize) & mask;
            self.table[j] = self.table[j].wrapping_add(i);
            if self.heap.len() > 2000 {
                acc = acc.wrapping_add(self.heap.pop().map_or(0, |r| r.0));
            }
        }
        acc ^ self.table[7]
    }

    /// Host time of one kernel call, in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel(black_box(0x5EED)));
        t0.elapsed().as_secs_f64()
    }
}

/// Run `f`, turning a panic into `None` so the loop can count it as a
/// failed operation and carry on.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.workload.is_testbed() {
        testbed(args)
    } else {
        fleet(args)
    }
}

/// Testbed set-up: load the pins, order them by the seed, and make one
/// short warm-up run (always pool entry 0, so set-up does the same work
/// for every seed) so lazy first-use work lands here rather than in the
/// first measured operation.
pub fn testbed_setup(w: Workload, seed: u64) -> Result<Vec<TestbedPin>, String> {
    let pool = pins::parse_testbed(w.pin_text())?;
    let warm = workload::testbed_config(w, pool[0].op_seed);
    black_box(netsim::Testbed::new(warm).run(sim::SimDuration::from_millis(100)));
    Ok(workload::permutation(seed, pool.len())
        .into_iter()
        .map(|i| pool[i])
        .collect())
}

/// Fleet set-up: load the pins, order them by the seed, and warm up on
/// pool fleet 0 (the same for every seed): synthesize its networks and
/// run one hop-0 NBO pass over the first.
pub fn fleet_setup(seed: u64) -> Result<Vec<FleetPin>, String> {
    let pool = pins::parse_fleet(Workload::FleetSteady.pin_text())?;
    let cfg = workload::fleet_config(pool[0].master, workload::FLEET_THREADS);
    let nets: Vec<_> = (0..cfg.n_networks as u64)
        .map(|id| fleet::ManagedNetwork::generate(&cfg, id))
        .collect();
    let params = chanassign::TurboCa::new(0).params;
    let mut rng = sim::Rng::new(nets[0].seed);
    black_box(chanassign::nbo(&params, &nets[0].view, 0, &mut rng));
    Ok(workload::permutation(seed, pool.len())
        .into_iter()
        .map(|i| pool[i].clone())
        .collect())
}

/// What one checked operation produced.
#[derive(Default)]
pub struct OpResult {
    /// Operations attempted (a testbed run, or each network of a fleet).
    pub attempted: u64,
    pub failed: u64,
    /// Host time of the timed call; `None` when it panicked.
    pub wall_s: Option<f64>,
    /// Simulated seconds covered (network-seconds for a fleet).
    pub sim_s: f64,
    /// Simulation events: popped queue events, or network epochs.
    pub events: f64,
    pub plans: f64,
    /// Simulated goodput per run, or per network of a fleet.
    pub goodput: Vec<f64>,
    pub netp_ln: Vec<f64>,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Calibration segment the call ran in (see [`Samples`]).
    pub seg: usize,
    pub wall_s: f64,
    pub sim_s: f64,
    pub events: f64,
    pub plans: f64,
}

/// Samples of one measured run.
///
/// The reference host (2 vCPU, shared) switches between faster and
/// slower states, up to about 1.6× apart, from seconds to minutes at a
/// time, so a raw host time says as much about the host as about the
/// code. The loop therefore takes a calibration point every
/// [`CAL_EVERY`]: the time of a fixed kernel from this crate
/// ([`Calibrator`]). Calibration point `k` opens segment `k`, which
/// ends at point `k + 1`. Every host time taken in a segment is scaled
/// by `(CAL_REF_S / c)^exponent` ([`cal_exponent`]), where `c` is the
/// geometric mean of the segment's two points, so the figures read as
/// reference-host time whichever state this run met. The number of segments depends
/// only on the budget, not on how fast the code runs. Raw figures and
/// the calibration spread are printed beside them.
#[derive(Default)]
pub struct Samples {
    pub attempted: u64,
    pub failed: u64,
    /// Every timed call, in order.
    pub timed: Vec<Timed>,
    pub goodput: Vec<f64>,
    pub netp_ln: Vec<f64>,
    /// `(segment, seconds)` of every set-up.
    pub setups: Vec<(usize, f64)>,
    /// Calibration points, in seconds per kernel call.
    pub cals: Vec<f64>,
    /// Power of the calibration ratio host times are scaled by
    /// ([`cal_exponent`]); 0 leaves them raw.
    pub exponent: f64,
}

impl Samples {
    /// Segment opened by the latest calibration point.
    fn seg(&self) -> usize {
        self.cals.len().saturating_sub(1)
    }

    fn calibrate(&mut self, cal: &mut Calibrator) {
        let reps: Vec<f64> = (0..CAL_REPS).map(|_| cal.time()).collect();
        self.cals.push(median(&reps));
    }

    fn add(&mut self, r: OpResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        if let Some(wall_s) = r.wall_s {
            self.timed.push(Timed {
                seg: self.seg(),
                wall_s,
                sim_s: r.sim_s,
                events: r.events,
                plans: r.plans,
            });
        }
        self.goodput.extend(r.goodput);
        self.netp_ln.extend(r.netp_ln);
    }

    /// Factor that turns a host time taken in segment `k` into
    /// reference-host time (1 when nothing was calibrated).
    pub fn scale(&self, k: usize) -> f64 {
        let Some(&open) = self.cals.get(k) else {
            return 1.0;
        };
        let close = self.cals.get(k + 1).copied().unwrap_or(open);
        let c = (open * close).sqrt();
        if c > 0.0 {
            (CAL_REF_S / c).powf(self.exponent)
        } else {
            1.0
        }
    }

    /// Rate of `per_call` per second of scaled host time.
    pub fn rate(&self, per_call: impl Fn(&Timed) -> f64) -> f64 {
        let wall: f64 = self
            .timed
            .iter()
            .map(|t| t.wall_s * self.scale(t.seg))
            .sum();
        self.timed.iter().map(&per_call).sum::<f64>() / wall.max(1e-12)
    }

    /// Quantile `q` of scaled call time, in ms.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let xs: Vec<f64> = self
            .timed
            .iter()
            .map(|t| t.wall_s * self.scale(t.seg) * 1e3)
            .collect();
        quantile(&xs, q)
    }

    /// Median scaled set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        let xs: Vec<f64> = self
            .setups
            .iter()
            .map(|&(k, t)| t * self.scale(k))
            .collect();
        median(&xs)
    }

    /// Context for the info line: raw (unscaled) figures, the
    /// calibration's spread and the sample counts.
    pub fn info(&self) -> Vec<(&'static str, f64)> {
        let raw_ms: Vec<f64> = self.timed.iter().map(|t| t.wall_s * 1e3).collect();
        let raw_setup: Vec<f64> = self.setups.iter().map(|s| s.1).collect();
        let cal_ms: Vec<f64> = self.cals.iter().map(|c| c * 1e3).collect();
        vec![
            ("raw_run_p50_ms", median(&raw_ms)),
            ("raw_setup_s", median(&raw_setup)),
            ("cal_ms_q10", quantile(&cal_ms, 0.1)),
            ("cal_ms_p50", median(&cal_ms)),
            ("cal_ms_q90", quantile(&cal_ms, 0.9)),
            ("cal_points", cal_ms.len() as f64),
            ("setups", raw_setup.len() as f64),
            ("samples", raw_ms.len() as f64),
            (
                "error_rate",
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
        ]
    }
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let v = f()?;
    Ok((v, t0.elapsed().as_secs_f64()))
}

/// Closed loop: set up, then run `op` over the set-up's operation list
/// (cycling) until `budget` has passed and at least `min_ops` ran. Each
/// operation starts when the previous one has returned and been
/// checked; a failed operation is counted and the loop carries on.
/// Calibration points fall between operations, every [`CAL_EVERY`],
/// with one before the set-up and one after the last operation.
pub fn closed_loop<P>(
    budget: Duration,
    min_ops: u64,
    exponent: f64,
    mut setup: impl FnMut() -> Result<Vec<P>, String>,
    mut op: impl FnMut(&P) -> OpResult,
) -> Result<Samples, String> {
    let mut s = Samples {
        exponent,
        ..Samples::default()
    };
    let mut cal = Calibrator::default();
    let start = Instant::now();
    s.calibrate(&mut cal);
    let mut ops = Vec::new();
    for _ in 0..SETUP_REPS {
        let (v, t) = timed(&mut setup)?;
        ops = v;
        s.setups.push((s.seg(), t));
    }
    let mut window = 0;
    let mut next_cal = start.elapsed() + CAL_EVERY;
    for (ran, p) in ops.iter().cycle().enumerate() {
        let now = start.elapsed();
        if ran as u64 >= min_ops && now >= budget {
            break;
        }
        if now >= next_cal {
            s.calibrate(&mut cal);
            next_cal = now + CAL_EVERY;
        }
        let frac = now.as_secs_f64() / budget.as_secs_f64().max(1e-9);
        let w = ((frac * f64::from(WINDOWS)) as usize).min(WINDOWS as usize - 1);
        if w > window {
            window = w;
            for _ in 0..SETUP_REPS {
                let t = timed(&mut setup)?.1;
                s.setups.push((s.seg(), t));
            }
        }
        s.add(op(p));
    }
    s.calibrate(&mut cal);
    Ok(s)
}

/// One testbed operation: `Testbed::new(cfg).run(T)`, timed, then its
/// digest compared with the pin.
pub fn testbed_op(w: Workload, pin: TestbedPin) -> OpResult {
    let cfg = workload::testbed_config(w, pin.op_seed);
    let t0 = Instant::now();
    let report = guarded(|| netsim::Testbed::new(cfg).run(workload::testbed_duration()));
    let wall_s = t0.elapsed().as_secs_f64();
    let Some(r) = report else {
        return OpResult {
            attempted: 1,
            failed: 1,
            ..OpResult::default()
        };
    };
    let ok = guarded(|| workload::testbed_digest(&r)) == Some(pin.digest);
    OpResult {
        attempted: 1,
        failed: u64::from(!ok),
        wall_s: Some(wall_s),
        sim_s: r.duration_s,
        events: r.metrics.counter_value("sim.queue.popped").unwrap_or(0) as f64,
        goodput: vec![r.total_mbps()],
        ..OpResult::default()
    }
}

/// Networks of one fleet whose output disagrees with the pins. A
/// checksum mismatch with every network matching still counts once.
pub fn fleet_failures(pin: &FleetPin, per_network: &[fleet::NetworkReport], checksum: u64) -> u64 {
    let bad = (0..pin.networks.len())
        .filter(|&i| {
            per_network
                .get(i)
                .is_none_or(|r| workload::network_digest(r) != pin.networks[i])
        })
        .count() as u64;
    if bad == 0 && checksum != pin.checksum {
        1
    } else {
        bad
    }
}

/// One fleet operation: `run_fleet` at `threads`, timed, then every
/// network's digest and the fleet checksum compared with the pins.
pub fn fleet_op(pin: &FleetPin, threads: usize) -> OpResult {
    let cfg = workload::fleet_config(pin.master, threads);
    let nets = pin.networks.len() as u64;
    let t0 = Instant::now();
    let run = guarded(|| fleet::run_fleet(&cfg));
    let wall_s = t0.elapsed().as_secs_f64();
    let Some(run) = run else {
        return OpResult {
            attempted: nets,
            failed: nets,
            ..OpResult::default()
        };
    };
    let n = run.per_network.len() as f64;
    let epochs = run.metrics.counter_value("fleet.epochs").unwrap_or(0) as f64;
    OpResult {
        attempted: nets,
        failed: guarded(|| fleet_failures(pin, &run.per_network, run.report.checksum))
            .unwrap_or(nets),
        wall_s: Some(wall_s),
        sim_s: n * run.report.horizon.as_secs_f64(),
        // A fleet event is one network epoch: collect, then plan.
        events: n * epochs,
        plans: run.report.plans_run as f64,
        goodput: run
            .per_network
            .iter()
            .map(|r| r.mean_goodput_mbps)
            .collect(),
        netp_ln: run.per_network.iter().map(|r| r.final_net_p_ln).collect(),
    }
}

fn testbed(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let s = closed_loop(
        args.budget(),
        1,
        cal_exponent(w),
        || testbed_setup(w, args.seed),
        |pin| testbed_op(w, *pin),
    )?;
    let mut info = vec![("run_p90_ms", s.quantile_ms(0.9))];
    info.extend(s.info());
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        metrics: end_to_end(&s),
        info,
    })
}

fn fleet(args: &Args) -> Result<Outcome, String> {
    let s = closed_loop(
        args.budget(),
        1,
        cal_exponent(Workload::FleetSteady),
        || fleet_setup(args.seed),
        |pin| fleet_op(pin, workload::FLEET_THREADS),
    )?;
    let mut info = vec![
        ("run_p90_ms", s.quantile_ms(0.9)),
        ("plans_per_s", s.rate(|t| t.plans)),
        ("netp_ln_mean", mean(&s.netp_ln)),
    ];
    info.extend(s.info());
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        metrics: end_to_end(&s),
        info,
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub(crate) fn end_to_end(s: &Samples) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", s.setup_s(), "s"),
        m("sim_s_per_wall_s", s.rate(|t| t.sim_s), "s/s"),
        m("events_per_s", s.rate(|t| t.events), "1/s"),
        m("run_p50_ms", s.quantile_ms(0.5), "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m(
            "success_rate",
            (s.attempted - s.failed) as f64 / s.attempted.max(1) as f64,
            "ratio",
        ),
        m("goodput_mbps", median(&s.goodput), "Mbit/s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong pinned digest registers as one failed operation, and the
    /// loop goes on to run (and pass) the operations after it.
    #[test]
    fn wrong_digest_fails_one_operation_without_aborting() {
        let w = Workload::TestbedFastack;
        let mut ops = pins::parse_testbed(w.pin_text()).expect("pins parse");
        ops.truncate(3);
        ops[1].digest ^= 1;
        let s = closed_loop(
            Duration::ZERO,
            3,
            cal_exponent(w),
            || Ok(ops.clone()),
            |pin| testbed_op(w, *pin),
        )
        .expect("set-up succeeds");
        assert_eq!((s.attempted, s.failed), (3, 1));
        assert_eq!(
            s.timed.len(),
            3,
            "every operation after the bad one still ran"
        );
    }

    /// A call is scaled by its segment's two calibration points, and a
    /// run with no calibration is left raw.
    #[test]
    fn host_times_scale_by_their_segment_calibration() {
        let s = Samples {
            cals: vec![CAL_REF_S, 4.0 * CAL_REF_S, 4.0 * CAL_REF_S],
            exponent: 1.0,
            ..Samples::default()
        };
        assert!((s.scale(0) - 0.5).abs() < 1e-12);
        assert!((s.scale(1) - 0.25).abs() < 1e-12);
        assert!((s.scale(2) - 0.25).abs() < 1e-12);
        assert_eq!(Samples::default().scale(0), 1.0);
    }

    #[test]
    fn a_panicking_operation_is_caught() {
        assert_eq!(guarded(|| -> u32 { panic!("injected") }), None);
        assert_eq!(guarded(|| 7), Some(7));
    }

    /// A network digest or checksum that disagrees with its pin counts.
    #[test]
    fn fleet_mismatches_count_per_network() {
        let pin =
            pins::parse_fleet(Workload::FleetSteady.pin_text()).expect("pins parse")[0].clone();
        assert_eq!(
            fleet_failures(&pin, &[], pin.checksum),
            pin.networks.len() as u64
        );
    }
}
