//! Integration tests for the telemetry core: quantile accuracy under random
//! workloads and span integrity under concurrency.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use telemetry::metrics::{bucket_index, Histogram};
use telemetry::{Collector, Span};

/// Exact quantile at the same rank definition the histogram estimator uses:
/// rank `ceil(q * n)`, 1-based, over the sorted samples.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    // Seed-pinned tier-1 suite: case count fixed here, RNG stream fixed by
    // PROPTEST_RNG_SEED (see vendor/proptest) so CI runs are reproducible.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_quantiles_stay_within_one_bucket_of_exact(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let histogram = Histogram::new();
        for &sample in &samples {
            histogram.record(sample);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let estimate = histogram.quantile(q);
            prop_assert_eq!(bucket_index(estimate), bucket_index(exact));
            // The estimate never exceeds the recorded maximum.
            prop_assert!(estimate <= sorted[sorted.len() - 1]);
        }
    }

    #[test]
    fn histogram_count_and_sum_are_exact(
        samples in proptest::collection::vec(0u64..1_000_000, 0..64),
    ) {
        let histogram = Histogram::new();
        for &sample in &samples {
            histogram.record(sample);
        }
        prop_assert_eq!(histogram.count(), samples.len() as u64);
        prop_assert_eq!(histogram.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(histogram.max(), samples.iter().copied().max().unwrap_or(0));
    }
}

const WORKERS: usize = 8;
const SPANS_PER_WORKER: usize = 50;

#[test]
fn concurrent_recording_loses_no_spans_and_nests_correctly() {
    let collector = Arc::new(Collector::with_capacity(WORKERS * SPANS_PER_WORKER + 8));
    let mut job = Span::enter(Some(&collector), "job");
    job.set_attr("workers", WORKERS as u64);
    let job_id = job.id();

    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let collector = Arc::clone(&collector);
            scope.spawn(move || {
                for index in 0..SPANS_PER_WORKER {
                    let mut span = Span::enter_child(Some(&collector), "shard", job_id);
                    span.set_attr("worker", worker as u64);
                    span.set_attr("index", index as u64);
                    span.finish();
                }
            });
        }
    });
    job.finish();

    let spans = collector.completed_spans();
    assert_eq!(spans.len(), WORKERS * SPANS_PER_WORKER + 1);

    let mut ids = HashSet::new();
    let mut shard_count = 0;
    for span in &spans {
        assert!(ids.insert(span.id), "duplicate span id {:?}", span.id);
        if span.name == "shard" {
            shard_count += 1;
            assert_eq!(span.parent, job_id, "shard span lost its parent");
        } else {
            assert_eq!(span.name, "job");
            assert_eq!(span.id, job_id);
        }
    }
    assert_eq!(shard_count, WORKERS * SPANS_PER_WORKER);

    // Every worker contributed all of its spans.
    for worker in 0..WORKERS as u64 {
        let from_worker = spans
            .iter()
            .filter(|s| {
                s.attrs
                    .iter()
                    .any(|&(k, v)| k == "worker" && v == telemetry::AttrValue::U64(worker))
            })
            .count();
        assert_eq!(from_worker, SPANS_PER_WORKER);
    }
}

#[test]
fn ring_buffer_evicts_oldest_first() {
    let collector = Arc::new(Collector::with_capacity(4));
    for _ in 0..10 {
        Span::enter(Some(&collector), "tick").finish();
    }
    let spans = collector.completed_spans();
    assert_eq!(spans.len(), 4);
    // The survivors are the newest four, still in completion order.
    for pair in spans.windows(2) {
        assert!(pair[0].id.0 < pair[1].id.0);
    }
    assert_eq!(spans[3].id.0, 10);
}

#[test]
fn disabled_collector_records_nothing_but_still_times() {
    let collector = Arc::new(Collector::disabled());
    let mut span = Span::enter(Some(&collector), "job");
    span.set_attr("shots", 1);
    assert!(!span.recording());
    assert_eq!(span.id(), telemetry::SpanId::NONE);
    let elapsed = span.finish();
    assert!(elapsed.as_nanos() > 0);
    assert!(collector.completed_spans().is_empty());

    // Same for the `None` collector shorthand.
    let free = Span::enter(None, "job").finish();
    assert!(free.as_nanos() > 0);
}
