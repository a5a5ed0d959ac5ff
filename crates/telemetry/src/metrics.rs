//! Counters, gauges and log-bucketed latency histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two up to
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter (relaxed atomics throughout).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Index of the log2 bucket covering `value`: bucket 0 holds exactly zero,
/// bucket `i >= 1` holds `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index` (saturates at `u64::MAX`).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free latency histogram with log2-width buckets.
///
/// Recording is one `fetch_add` per bucket plus running count/sum/max, so it
/// is safe to call from worker threads. Quantile estimates return the upper
/// bound of the bucket containing the requested rank, clamped to the maximum
/// recorded value — always within the same log2 bucket as the exact
/// quantile.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (saturating only at `u64` overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the log2
    /// bucket holding rank `ceil(q * count)`, clamped to the recorded
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_upper_bound(index).min(self.max());
            }
        }
        self.max()
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile shorthand.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A named collection of metrics. Lookup (`counter`/`gauge`/`histogram`)
/// takes a short lock and interns the name on first use; the returned `Arc`
/// can be cached by hot paths so steady-state recording never touches the
/// registry lock.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        if let Some(existing) = map.get(name) {
            return Arc::clone(existing);
        }
        let created = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&created));
        created
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        if let Some(existing) = map.get(name) {
            return Arc::clone(existing);
        }
        let created = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&created));
        created
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        if let Some(existing) = map.get(name) {
            return Arc::clone(existing);
        }
        let created = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&created));
        created
    }

    /// Name + handle of every registered histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .iter()
            .map(|(name, histogram)| (name.clone(), Arc::clone(histogram)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64usize {
            let low = 1u64 << (i - 1);
            assert_eq!(bucket_index(low), i);
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
    }

    #[test]
    fn quantile_clamps_to_recorded_max() {
        let h = Histogram::new();
        h.record(900);
        assert_eq!(h.quantile(1.0), 900);
        assert_eq!(h.p50(), 900);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn registry_interns_by_name() {
        let registry = Registry::new();
        registry.counter("hits").add(2);
        registry.counter("hits").inc();
        assert_eq!(registry.counter("hits").get(), 3);
        registry.gauge("depth").set(-4);
        assert_eq!(registry.gauge("depth").get(), -4);
    }
}
