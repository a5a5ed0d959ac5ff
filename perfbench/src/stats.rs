//! Latency statistics and failure accounting.

/// Median of `values` (the mean of the middle two for even lengths); `NaN`
/// for an empty slice. Infinite values (failed jobs) sort last.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile, as the share (in %) of samples at or below `value`.
    pub percentile: f64,
    /// Samples beyond `value` (less than [`TAIL_BEYOND`] only when the
    /// whole sample is smaller than `TAIL_BEYOND + 1`).
    pub beyond: usize,
    /// Size of the whole sample.
    pub samples: usize,
}

/// The tail of `values`: with `n` samples sorted ascending it is the
/// `(n - 10)`-th, which leaves exactly ten samples beyond it. A sample of ten
/// or fewer has no such percentile; its maximum is reported with the count
/// of samples actually beyond it (zero).
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            beyond: 0,
            samples: 0,
        };
    }
    let index = n.saturating_sub(TAIL_BEYOND + 1);
    let index = if n > TAIL_BEYOND { index } else { n - 1 };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    }
}

/// What happened to the jobs of a timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Jobs the benchmark tried to run (admitted or not).
    pub attempted: usize,
    /// Jobs that returned `Ok`.
    pub completed: usize,
    /// Jobs that returned a typed error.
    pub failed: usize,
    /// Submissions refused by admission control (`Overloaded`).
    pub rejected: usize,
}

impl Accounting {
    /// Records one job's outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Completed => self.completed += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Rejected => self.rejected += 1,
        }
    }

    /// Adds another window's counts.
    pub fn merge(&mut self, other: Accounting) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.rejected += other.rejected;
    }

    /// Jobs that did not complete: typed errors plus rejections. Both count
    /// as failed in the result line.
    pub fn not_completed(&self) -> usize {
        self.failed + self.rejected
    }
}

/// One job's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Returned `Ok`.
    Completed,
    /// Returned a typed error.
    Failed,
    /// Refused at admission.
    Rejected,
}

/// Per-job latencies of a timed window, in milliseconds. A job that failed
/// or was rejected misses every latency limit, so it enters the sample as
/// `+inf`.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Latency per attempted job (ms); `+inf` for jobs that did not complete.
    pub latencies_ms: Vec<f64>,
    /// Outcome counts.
    pub accounting: Accounting,
    /// Wall-clock length of the window (s).
    pub seconds: f64,
}

impl Window {
    /// Records a completed job.
    pub fn completed(&mut self, latency_ms: f64) {
        self.latencies_ms.push(latency_ms);
        self.accounting.record(Outcome::Completed);
    }

    /// Records a job that failed or was rejected.
    pub fn missed(&mut self, outcome: Outcome) {
        self.latencies_ms.push(f64::INFINITY);
        self.accounting.record(outcome);
    }

    /// Appends another window's jobs (the wall-clock is not summed: callers
    /// merge windows that ran concurrently, as the closed-loop clients do).
    pub fn absorb(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.accounting.merge(other.accounting);
    }

    /// Completed jobs per second of wall-clock.
    pub fn jobs_per_s(&self) -> f64 {
        self.accounting.completed as f64 / self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        // Order does not matter, and the count beyond is strict.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled), t);
        let n = 1000;
        let big: Vec<f64> = (0..n).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!(big.iter().filter(|v| **v > t.value).count(), 10);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_tiny_sample_reports_its_maximum_and_zero_beyond() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.beyond, t.samples), (3.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failures_and_rejections_count_as_failed_and_miss_the_latency_limit() {
        let mut window = Window {
            seconds: 2.0,
            ..Window::default()
        };
        for ms in [1.0, 2.0, 3.0] {
            window.completed(ms);
        }
        window.missed(Outcome::Failed);
        window.missed(Outcome::Rejected);
        let a = window.accounting;
        assert_eq!(
            (a.attempted, a.completed, a.failed, a.rejected),
            (5, 3, 1, 1)
        );
        assert_eq!(a.not_completed(), 2);
        assert_eq!(window.jobs_per_s(), 1.5);
        // The two misses sort beyond every completed job.
        assert_eq!(median(&window.latencies_ms), 3.0);
        assert!(tail(&window.latencies_ms).value.is_infinite());

        let mut other = Window::default();
        other.completed(5.0);
        window.absorb(other);
        assert_eq!(window.accounting.attempted, 6);
        assert_eq!(window.latencies_ms.len(), 6);
    }
}
