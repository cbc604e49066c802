//! Streaming statistics for memory-constrained collectors.
//!
//! An AP cannot buffer every latency sample between backend polls
//! (§2.2: some statistics "are only stored in memory"); it keeps small
//! constant-memory summaries instead. This module provides the two the
//! health detectors use:
//!
//! * [`Ewma`] — exponentially weighted moving averages (the A-MPDU
//!   collapse detector's long-run baseline);
//! * [`RollingWindow`] — a fixed-capacity ring of recent samples with
//!   exact windowed statistics (the basis of `telemetry::health`
//!   detector levels).

use sim::sanitize;

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    pub fn new(alpha: f64) -> Ewma {
        assert!((0.0..=1.0).contains(&alpha));
        Ewma { alpha, value: None }
    }

    pub fn observe(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => (1.0 - self.alpha) * v + self.alpha * x,
        };
        self.value = Some(v);
        v
    }

    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Fixed-capacity ring of the most recent samples, with exact windowed
/// statistics. It stores the window, so its quantiles are exact — the right trade for the health detectors,
/// whose windows are a handful of collection epochs, not per-packet
/// streams. Once full, each push overwrites the oldest sample.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    buf: Vec<f64>,
    /// Next write position in `buf` once the ring has wrapped.
    head: usize,
    len: usize,
}

impl RollingWindow {
    pub fn new(capacity: usize) -> RollingWindow {
        assert!(capacity > 0, "rolling window needs capacity >= 1");
        RollingWindow {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Append a sample, evicting the oldest when at capacity. NaN is a
    /// caller bug (same discipline as [`crate::stats::Histogram`]) and
    /// is dropped rather than poisoning every later statistic.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            sanitize::check(false, "NaN sample pushed into rolling window");
            return;
        }
        self.buf[self.head] = x;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
    }

    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the ring holds `capacity` samples (pushes keep
    /// working; they evict the oldest).
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Forget every sample (capacity is retained).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The retained samples, oldest first.
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        let start = if self.len == self.buf.len() {
            self.head
        } else {
            0
        };
        for i in 0..self.len {
            out.push(self.buf[(start + i) % self.buf.len()]);
        }
        out
    }

    pub fn sum(&self) -> f64 {
        let start = if self.len == self.buf.len() {
            self.head
        } else {
            0
        };
        (0..self.len)
            .map(|i| self.buf[(start + i) % self.buf.len()])
            .sum()
    }

    pub fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.sum() / self.len as f64)
        }
    }

    pub fn min(&self) -> Option<f64> {
        self.values().into_iter().reduce(f64::min)
    }

    pub fn max(&self) -> Option<f64> {
        self.values().into_iter().reduce(f64::max)
    }

    /// Exact q-th quantile of the retained samples (linear
    /// interpolation, same convention as [`crate::stats::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::stats::quantile(&self.values(), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        assert!(e.value().is_none());
        for _ in 0..100 {
            e.observe(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_responds_to_steps() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        e.observe(10.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn rolling_window_empty_has_no_statistics() {
        let w = RollingWindow::new(4);
        assert_eq!(w.capacity(), 4);
        assert_eq!(w.len(), 0);
        assert!(w.is_empty());
        assert!(!w.is_full());
        assert!(w.values().is_empty());
        assert_eq!(w.sum(), 0.0);
        assert!(w.mean().is_none());
        assert!(w.min().is_none());
        assert!(w.max().is_none());
        assert!(w.quantile(0.5).is_none());
    }

    #[test]
    fn rolling_window_single_sample_is_every_statistic() {
        let mut w = RollingWindow::new(4);
        w.push(3.5);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert!(!w.is_full());
        assert_eq!(w.values(), vec![3.5]);
        assert_eq!(w.mean(), Some(3.5));
        assert_eq!(w.min(), Some(3.5));
        assert_eq!(w.max(), Some(3.5));
        assert_eq!(w.quantile(0.0), Some(3.5));
        assert_eq!(w.quantile(0.5), Some(3.5));
        assert_eq!(w.quantile(1.0), Some(3.5));
    }

    #[test]
    fn rolling_window_exactly_at_capacity_then_evicts_oldest() {
        let mut w = RollingWindow::new(3);
        for x in [1.0, 2.0, 3.0] {
            w.push(x);
        }
        // Exactly at capacity: nothing evicted yet.
        assert!(w.is_full());
        assert_eq!(w.len(), 3);
        assert_eq!(w.values(), vec![1.0, 2.0, 3.0]);
        assert_eq!(w.sum(), 6.0);
        assert_eq!(w.quantile(0.5), Some(2.0));
        // One past capacity: the oldest sample (1.0) falls out.
        w.push(4.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.values(), vec![2.0, 3.0, 4.0]);
        assert_eq!(w.quantile(0.5), Some(3.0));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
    }

    mod rolling_window_props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            // The ring's windowed quantiles must agree exactly with a
            // naive recompute over the last `cap` samples, at every
            // prefix of the stream (partial, exactly-full, and wrapped
            // windows alike).
            fn windowed_quantiles_match_naive_recompute(
                cap in 1usize..9,
                samples in vec(-1.0e6f64..1.0e6, 1..40),
                q in 0.0f64..1.0,
            ) {
                let mut w = RollingWindow::new(cap);
                for (i, &x) in samples.iter().enumerate() {
                    w.push(x);
                    let naive: Vec<f64> =
                        samples[i.saturating_sub(cap - 1)..=i].to_vec();
                    prop_assert_eq!(w.values(), naive.clone());
                    prop_assert_eq!(w.len(), naive.len());
                    for probe in [0.0, q, 0.5, 1.0] {
                        prop_assert_eq!(
                            w.quantile(probe),
                            crate::stats::quantile(&naive, probe),
                            "cap {} step {} q {}", cap, i, probe
                        );
                    }
                    let naive_mean =
                        naive.iter().sum::<f64>() / naive.len() as f64;
                    let mean = w.mean().unwrap();
                    prop_assert!(
                        (mean - naive_mean).abs() <= 1e-9 * naive_mean.abs().max(1.0),
                        "mean {} vs naive {}", mean, naive_mean
                    );
                }
            }
        }
    }
}
