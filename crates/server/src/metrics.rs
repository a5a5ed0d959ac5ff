//! Server-wide counters and the metrics endpoint payload.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use sim::FusionPolicy;
use telemetry::Histogram;

/// Monotonic counters and latency histograms updated by the admission path
/// and the workers. All updates are relaxed atomics: metrics tolerate being a
/// moment stale, they must never contend with the jobs they measure.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    pub(crate) submitted: AtomicUsize,
    pub(crate) rejected: AtomicUsize,
    pub(crate) completed: AtomicUsize,
    pub(crate) failed: AtomicUsize,
    pub(crate) panicked: AtomicUsize,
    pub(crate) shots_total: AtomicUsize,
    pub(crate) compile_nanos: AtomicU64,
    pub(crate) simulate_nanos: AtomicU64,
    pub(crate) verify_errors: AtomicUsize,
    pub(crate) verify_warnings: AtomicUsize,
    /// Telemetry span id of the most recent job that produced an error-level
    /// verifier finding (0 when none has). Lets a metrics consumer jump from
    /// a non-zero `verify_errors` to the exact traced request.
    pub(crate) verify_last_error_span: AtomicU64,
    /// Simulate jobs per fusion policy, indexed by [`fusion_index`].
    pub(crate) sim_by_fusion: [AtomicUsize; 3],
    /// Latency (µs) of queue wait, the compile stage and the simulate phase;
    /// unlike the `_nanos` sums, recorded only while the collector is enabled.
    pub(crate) queue_wait: Histogram,
    pub(crate) compile: Histogram,
    pub(crate) simulate: Histogram,
}

/// Stable index of a fusion policy in the per-policy counter arrays.
pub(crate) fn fusion_index(policy: FusionPolicy) -> usize {
    match policy {
        FusionPolicy::Off => 0,
        FusionPolicy::Safe => 1,
        FusionPolicy::Aggressive => 2,
    }
}

impl ServerMetrics {
    pub(crate) fn record_compile(&self, elapsed: Duration) {
        self.compile_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_simulate(&self, elapsed: Duration, shots: usize, policy: FusionPolicy) {
        self.simulate_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.shots_total.fetch_add(shots, Ordering::Relaxed);
        self.sim_by_fusion[fusion_index(policy)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_verify(&self, diagnostics: &[verify::Diagnostic]) {
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity() == verify::Severity::Error)
            .count();
        let warnings = diagnostics
            .iter()
            .filter(|d| d.severity() == verify::Severity::Warning)
            .count();
        self.verify_errors.fetch_add(errors, Ordering::Relaxed);
        self.verify_warnings.fetch_add(warnings, Ordering::Relaxed);
        // Remember which traced job produced the latest error so the metrics
        // endpoint can point at the exact request, not just a count.
        if let Some(span) = diagnostics
            .iter()
            .filter(|d| d.severity() == verify::Severity::Error)
            .filter_map(verify::Diagnostic::trace_span)
            .next_back()
        {
            self.verify_last_error_span.store(span, Ordering::Relaxed);
        }
    }

    /// Summarises the stage histograms and the `(tenant, histogram)` pairs that
    /// hold a sample, sorted by stage name (`tenant.<name>` for a tenant).
    pub(crate) fn latency_stats<'a>(
        &'a self,
        tenants: impl IntoIterator<Item = (&'a str, &'a Histogram)>,
    ) -> Vec<LatencyStats> {
        let stages = [
            ("queue_wait", &self.queue_wait),
            ("compile", &self.compile),
            ("simulate", &self.simulate),
        ]
        .map(|(stage, histogram)| (stage.to_string(), histogram));
        let tenants = tenants
            .into_iter()
            .map(|(tenant, histogram)| (format!("tenant.{tenant}"), histogram));
        let mut stats: Vec<LatencyStats> = stages
            .into_iter()
            .chain(tenants)
            .filter(|(_, histogram)| histogram.count() > 0)
            .map(|(stage, histogram)| LatencyStats {
                stage,
                count: histogram.count(),
                p50_micros: histogram.p50(),
                p90_micros: histogram.p90(),
                p99_micros: histogram.p99(),
                max_micros: histogram.max(),
            })
            .collect();
        stats.sort_by(|a, b| a.stage.cmp(&b.stage));
        stats
    }
}

/// Cache statistics of one tenant namespace.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCacheStats {
    /// Tenant name.
    pub tenant: String,
    /// Entries currently cached.
    pub entries: usize,
    /// Lifetime cache hits.
    pub hits: usize,
    /// Lifetime cache misses.
    pub misses: usize,
    /// Lifetime FIFO evictions.
    pub evictions: usize,
}

impl TenantCacheStats {
    /// Hits over total lookups, `0.0` before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Latency distribution of one pipeline stage, summarised from the server's
/// log-bucketed histogram for that stage. All values are microseconds except
/// `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    /// Stage name (`queue_wait`, `compile`, `simulate`, `tenant.<name>`).
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Estimated median, µs.
    pub p50_micros: u64,
    /// Estimated 90th percentile, µs.
    pub p90_micros: u64,
    /// Estimated 99th percentile, µs.
    pub p99_micros: u64,
    /// Largest recorded sample, µs.
    pub max_micros: u64,
}

/// A point-in-time copy of every server counter — what the metrics endpoint
/// serves.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs admitted to the queue.
    pub submitted: usize,
    /// Jobs rejected at admission (queue full or server shut down).
    pub rejected: usize,
    /// Jobs that completed with a response.
    pub completed: usize,
    /// Jobs that completed with a typed error.
    pub failed: usize,
    /// Jobs whose worker panicked (the worker survived).
    pub panicked: usize,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Measurement shots executed across all simulate jobs.
    pub shots_total: usize,
    /// Simulate jobs that ran with `FusionPolicy::Off`.
    pub sim_fusion_off: usize,
    /// Simulate jobs that ran with `FusionPolicy::Safe`.
    pub sim_fusion_safe: usize,
    /// Simulate jobs that ran with `FusionPolicy::Aggressive`.
    pub sim_fusion_aggressive: usize,
    /// Total wall-clock spent compiling, across all workers.
    pub compile_time: Duration,
    /// Total wall-clock spent simulating, across all workers.
    pub simulate_time: Duration,
    /// Error-level findings of the static verifier across all validated jobs
    /// (0 unless the server was built with `validate(true)`).
    pub verify_errors: usize,
    /// Warning-level findings of the static verifier across all validated
    /// jobs.
    pub verify_warnings: usize,
    /// Telemetry span id of the most recent job with an error-level verifier
    /// finding (0 when none, or when telemetry is off).
    pub verify_last_error_span: u64,
    /// Jobs claimed by work-stealing rather than a worker's own deque.
    pub queue_steals: u64,
    /// Per-stage latency distributions from the server's histograms, sorted
    /// by stage name; empty when the server runs without telemetry.
    pub latency: Vec<LatencyStats>,
    /// Per-tenant decomposition-cache statistics, sorted by tenant name.
    pub tenants: Vec<TenantCacheStats>,
}

impl MetricsSnapshot {
    pub(crate) fn from_counters(
        metrics: &ServerMetrics,
        queue_depth: usize,
        workers: usize,
        queue_steals: u64,
        latency: Vec<LatencyStats>,
        mut tenants: Vec<TenantCacheStats>,
    ) -> Self {
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        MetricsSnapshot {
            submitted: metrics.submitted.load(Ordering::Relaxed),
            rejected: metrics.rejected.load(Ordering::Relaxed),
            completed: metrics.completed.load(Ordering::Relaxed),
            failed: metrics.failed.load(Ordering::Relaxed),
            panicked: metrics.panicked.load(Ordering::Relaxed),
            queue_depth,
            workers,
            shots_total: metrics.shots_total.load(Ordering::Relaxed),
            sim_fusion_off: metrics.sim_by_fusion[0].load(Ordering::Relaxed),
            sim_fusion_safe: metrics.sim_by_fusion[1].load(Ordering::Relaxed),
            sim_fusion_aggressive: metrics.sim_by_fusion[2].load(Ordering::Relaxed),
            compile_time: Duration::from_nanos(metrics.compile_nanos.load(Ordering::Relaxed)),
            simulate_time: Duration::from_nanos(metrics.simulate_nanos.load(Ordering::Relaxed)),
            verify_errors: metrics.verify_errors.load(Ordering::Relaxed),
            verify_warnings: metrics.verify_warnings.load(Ordering::Relaxed),
            verify_last_error_span: metrics.verify_last_error_span.load(Ordering::Relaxed),
            queue_steals,
            latency,
            tenants,
        }
    }

    /// Renders the snapshot as JSON — the body a `/metrics` route would
    /// serve. Hand-rolled for the same reason as the wire codec (the vendored
    /// `serde` is marker-only).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"panicked\": {},\n", self.panicked));
        out.push_str(&format!("  \"queue_depth\": {},\n", self.queue_depth));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"shots_total\": {},\n", self.shots_total));
        out.push_str(&format!("  \"sim_fusion_off\": {},\n", self.sim_fusion_off));
        out.push_str(&format!(
            "  \"sim_fusion_safe\": {},\n",
            self.sim_fusion_safe
        ));
        out.push_str(&format!(
            "  \"sim_fusion_aggressive\": {},\n",
            self.sim_fusion_aggressive
        ));
        out.push_str(&format!(
            "  \"compile_micros\": {},\n",
            self.compile_time.as_micros()
        ));
        out.push_str(&format!(
            "  \"simulate_micros\": {},\n",
            self.simulate_time.as_micros()
        ));
        out.push_str(&format!("  \"verify_errors\": {},\n", self.verify_errors));
        out.push_str(&format!(
            "  \"verify_warnings\": {},\n",
            self.verify_warnings
        ));
        out.push_str(&format!(
            "  \"verify_last_error_span\": {},\n",
            self.verify_last_error_span
        ));
        out.push_str(&format!("  \"queue_steals\": {},\n", self.queue_steals));
        out.push_str("  \"latency\": {");
        for (i, stage) in self.latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"p50_micros\": {}, \"p90_micros\": {}, \"p99_micros\": {}, \"max_micros\": {}}}",
                stage.stage, stage.count, stage.p50_micros, stage.p90_micros, stage.p99_micros, stage.max_micros
            ));
        }
        if !self.latency.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"tenant\": \"{}\", \"entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}}",
                t.tenant, t.entries, t.hits, t.misses, t.evictions, t.hit_rate()
            ));
        }
        if !self.tenants.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_traffic() {
        let stats = TenantCacheStats {
            tenant: "t".into(),
            entries: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = TenantCacheStats {
            hits: 3,
            misses: 1,
            ..stats
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_lists_tenants_sorted() {
        let metrics = ServerMetrics::default();
        metrics.submitted.store(5, Ordering::Relaxed);
        let snap = MetricsSnapshot::from_counters(
            &metrics,
            1,
            2,
            0,
            Vec::new(),
            vec![
                TenantCacheStats {
                    tenant: "zeta".into(),
                    entries: 1,
                    hits: 1,
                    misses: 1,
                    evictions: 0,
                },
                TenantCacheStats {
                    tenant: "alpha".into(),
                    entries: 2,
                    hits: 4,
                    misses: 0,
                    evictions: 1,
                },
            ],
        );
        assert_eq!(snap.tenants[0].tenant, "alpha");
        let json = snap.to_json();
        assert!(json.contains("\"submitted\": 5"));
        assert!(json.find("alpha").unwrap() < json.find("zeta").unwrap());
        assert!(json.contains("\"hit_rate\": 0.5000"));
        // Without telemetry the latency object is present but empty.
        assert!(json.contains("\"latency\": {}"));
        assert!(json.contains("\"queue_steals\": 0"));
    }

    #[test]
    fn latency_stats_summarise_only_latency_histograms() {
        let metrics = ServerMetrics::default();
        metrics.simulate.record(100);
        metrics.compile.record(10);
        metrics.compile.record(20);
        let idle = Histogram::new(); // a tenant without a sample
        let stats = metrics.latency_stats([("idle", &idle)]);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].stage, "compile");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[1].stage, "simulate");
        assert_eq!(stats[1].max_micros, 100);
        assert!(stats[1].p50_micros >= 64 && stats[1].p50_micros <= 127);
    }

    #[test]
    fn latency_json_renders_per_stage_quantiles() {
        let metrics = ServerMetrics::default();
        for v in [10, 20, 40, 80] {
            metrics.queue_wait.record(v);
        }
        let snap =
            MetricsSnapshot::from_counters(&metrics, 0, 1, 3, metrics.latency_stats([]), vec![]);
        assert_eq!(snap.queue_steals, 3);
        let json = snap.to_json();
        assert!(json.contains("\"queue_wait\": {\"count\": 4"));
        assert!(json.contains("\"p50_micros\":"));
        assert!(json.contains("\"p99_micros\":"));
        assert!(json.contains("\"queue_steals\": 3"));
    }

    /// `to_json()` of the fixed samples below, recorded when the latency
    /// histograms still lived in the telemetry registry.
    const PINNED_JSON: &str = r#"{
  "submitted": 9,
  "rejected": 1,
  "completed": 6,
  "failed": 1,
  "panicked": 1,
  "queue_depth": 1,
  "workers": 2,
  "shots_total": 4096,
  "sim_fusion_off": 1,
  "sim_fusion_safe": 2,
  "sim_fusion_aggressive": 3,
  "compile_micros": 12345,
  "simulate_micros": 98765,
  "verify_errors": 2,
  "verify_warnings": 3,
  "verify_last_error_span": 42,
  "queue_steals": 5,
  "latency": {
    "compile": {"count": 3, "p50_micros": 255, "p90_micros": 4100, "p99_micros": 4100, "max_micros": 4100},
    "queue_wait": {"count": 4, "p50_micros": 15, "p90_micros": 900, "p99_micros": 900, "max_micros": 900},
    "simulate": {"count": 1, "p50_micros": 1700, "p90_micros": 1700, "p99_micros": 1700, "max_micros": 1700},
    "tenant.alpha": {"count": 3, "p50_micros": 511, "p90_micros": 5000, "p99_micros": 5000, "max_micros": 5000},
    "tenant.beta": {"count": 1, "p50_micros": 77, "p90_micros": 77, "p99_micros": 77, "max_micros": 77}
  },
  "tenants": [
    {"tenant": "alpha", "entries": 3, "hits": 7, "misses": 3, "evictions": 0, "hit_rate": 0.7000},
    {"tenant": "beta", "entries": 1, "hits": 0, "misses": 1, "evictions": 0, "hit_rate": 0.0000}
  ]
}"#;

    #[test]
    fn snapshot_json_bytes_are_pinned_over_fixed_samples() {
        // Fixed samples for the three stages and two tenants.
        let metrics = ServerMetrics::default();
        let (alpha, beta) = (Histogram::new(), Histogram::new());
        for v in [3, 40, 900, 12] {
            metrics.queue_wait.record(v);
        }
        for v in [120, 250, 4_100] {
            metrics.compile.record(v);
        }
        metrics.simulate.record(1_700);
        for v in [200, 5_000, 333] {
            alpha.record(v);
        }
        beta.record(77);
        let latency = metrics.latency_stats([("alpha", &alpha), ("beta", &beta)]);
        for (counter, value) in [
            (&metrics.submitted, 9),
            (&metrics.rejected, 1),
            (&metrics.completed, 6),
            (&metrics.failed, 1),
            (&metrics.panicked, 1),
            (&metrics.shots_total, 4_096),
            (&metrics.sim_by_fusion[0], 1),
            (&metrics.sim_by_fusion[1], 2),
            (&metrics.sim_by_fusion[2], 3),
            (&metrics.verify_errors, 2),
            (&metrics.verify_warnings, 3),
        ] {
            counter.store(value, Ordering::Relaxed);
        }
        metrics.compile_nanos.store(12_345_678, Ordering::Relaxed);
        metrics.simulate_nanos.store(98_765_432, Ordering::Relaxed);
        metrics.verify_last_error_span.store(42, Ordering::Relaxed);
        let tenant = |name: &str, entries, hits, misses| TenantCacheStats {
            tenant: name.into(),
            entries,
            hits,
            misses,
            evictions: 0,
        };
        let snap = MetricsSnapshot::from_counters(
            &metrics,
            1,
            2,
            5,
            latency,
            vec![tenant("beta", 1, 0, 1), tenant("alpha", 3, 7, 3)],
        );
        assert_eq!(snap.to_json(), PINNED_JSON);
    }

    #[test]
    fn record_verify_remembers_the_last_error_trace_span() {
        let metrics = ServerMetrics::default();
        metrics.record_verify(&[
            verify::Diagnostic::warning("rule/w", "odd").with_trace_span(7),
            verify::Diagnostic::error("rule/e", "bad").with_trace_span(42),
        ]);
        assert_eq!(metrics.verify_errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.verify_last_error_span.load(Ordering::Relaxed), 42);
        // Warnings alone never overwrite the remembered error span.
        metrics.record_verify(&[verify::Diagnostic::warning("rule/w", "odd").with_trace_span(9)]);
        assert_eq!(metrics.verify_last_error_span.load(Ordering::Relaxed), 42);
    }
}
