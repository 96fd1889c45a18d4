//! Named counters, gauges, and power-of-two bucket histograms.
//!
//! Histograms use 65 fixed buckets: bucket 0 holds the value `0`, and
//! bucket `k >= 1` holds values in `[2^(k-1), 2^k - 1]` — i.e. the
//! bucket index of `v > 0` is `64 - v.leading_zeros()`. Recording is a
//! single index computation and an integer increment; no floats and no
//! allocation on the hot path once a histogram exists.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Number of histogram buckets (bucket 0 for zero, then one per power
/// of two up to `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for `value`: 0 for zero, else `64 - leading_zeros`.
#[inline]
pub fn histogram_bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` value range covered by bucket `index`.
pub fn histogram_bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    if index == 0 {
        (0, 0)
    } else if index == HISTOGRAM_BUCKETS - 1 {
        (1u64 << (index - 1), u64::MAX)
    } else {
        (1u64 << (index - 1), (1u64 << index) - 1)
    }
}

/// Exported state of one power-of-two histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Sparse non-empty buckets as `(bucket_index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The values recorded after `before`, an earlier snapshot of the
    /// same histogram: count, sum and buckets are the differences, `min`
    /// and `max` those of the whole histogram.
    pub(crate) fn grown_since(&self, before: &HistogramSnapshot) -> HistogramSnapshot {
        let earlier = |index: u32| {
            before
                .buckets
                .iter()
                .find(|(i, _)| *i == index)
                .map_or(0, |(_, n)| *n)
        };
        HistogramSnapshot {
            count: self.count - before.count,
            sum: self.sum.saturating_sub(before.sum),
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .map(|&(index, n)| (index, n - earlier(index)))
                .filter(|(_, n)| *n > 0)
                .collect(),
        }
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[histogram_bucket_index(value)] += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| (i as u32, *n))
                .collect(),
        }
    }
}

/// Registry of named counters, gauges, and histograms. Not itself
/// synchronised — the owning [`Recorder`](crate::Recorder) guards it
/// with its mutex.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Records `value` into the named histogram.
    pub fn histogram(&mut self, name: &'static str, value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(Histogram::new)
            .record(value);
    }

    /// Counters by owned name, for export.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Gauges by owned name, for export.
    pub fn gauges_snapshot(&self) -> BTreeMap<String, f64> {
        self.gauges
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Histograms by owned name, for export.
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for index in 0..HISTOGRAM_BUCKETS {
            let (low, high) = histogram_bucket_bounds(index);
            assert_eq!(histogram_bucket_index(low), index);
            assert_eq!(histogram_bucket_index(high), index);
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut registry = MetricsRegistry::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            registry.histogram("h", v);
        }
        let snap = &registry.histograms_snapshot()["h"];
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1034);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1024 -> 11.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn counter_accumulates_and_gauge_overwrites() {
        let mut registry = MetricsRegistry::default();
        registry.counter("c", 2);
        registry.counter("c", 3);
        registry.gauge("g", 1.0);
        registry.gauge("g", 2.5);
        assert_eq!(registry.counters_snapshot()["c"], 5);
        assert_eq!(registry.gauges_snapshot()["g"], 2.5);
    }
}
