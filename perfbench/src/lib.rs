//! The repository's benchmark: three workloads over the compile-and-simulate
//! stack, end-to-end metrics from an untraced run and per-layer metrics from
//! a traced one. See `README.md` in this directory for the workloads, the
//! metric map and how to run it.

pub mod checks;
pub mod cli;
pub mod fig9_sweep;
pub mod host;
pub mod report;
pub mod serve_warm;
pub mod sim_wide;
pub mod stats;
pub mod trace;

use std::time::Instant;

use checks::Checks;
use report::{Json, Metrics};
use stats::Window;
use trace::Tracer;

/// How one workload run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window (s). The traced run splits it between an
    /// untraced reference half and the traced half.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub smoke: bool,
    /// When the process started; `setup` windows and the first timed job are
    /// measured from here.
    pub process_start: Instant,
}

impl RunConfig {
    /// Independent from-scratch set-ups per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Seconds of each timed window: all of them for the untraced run, half
    /// each for the traced run's untraced reference and traced windows.
    pub fn window_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// The untraced timed window: the source of every end-to-end metric.
    pub window: Window,
    /// The traced window (traced run only).
    pub traced: Option<Window>,
    /// Duration of each from-scratch set-up (s).
    pub setup_s: Vec<f64>,
    /// Process start to the first timed job (s).
    pub first_job_s: f64,
    /// Output checks.
    pub checks: Checks,
    /// Per-layer metrics (traced run only).
    pub per_layer: Metrics,
    /// Extra report entries: class mixes, re-measured scoping facts.
    pub details: Vec<(String, Json)>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// Adds a report entry.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }
}

/// Runs one workload.
pub fn run(workload: cli::Workload, config: &RunConfig) -> RunResult {
    match workload {
        cli::Workload::ServeWarm => serve_warm::run(config),
        cli::Workload::SimWide => sim_wide::run(config),
        cli::Workload::Fig9Sweep => fig9_sweep::run(config),
    }
}

/// The end-to-end metrics of a run.
pub fn end_to_end(result: &RunResult) -> Metrics {
    let window = &result.window;
    let tail = stats::tail(&window.latencies_ms);
    let mut metrics = Metrics::default();
    metrics.set("jobs_per_s", window.jobs_per_s(), "1/s");
    metrics.set("latency_p50_ms", stats::median(&window.latencies_ms), "ms");
    metrics.set("latency_tail_ms", tail.value, "ms");
    metrics.set("setup_s", stats::median(&result.setup_s), "s");
    metrics.set("peak_rss_mb", host::peak_rss_mb(), "MiB");
    metrics
}

/// Seconds since `since`.
pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Milliseconds since `since`.
pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Median of a set of per-job values, or 0 when the layer saw no jobs.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Sets the compiler pass metrics (µs, median per compile) from the spans
/// of a replay through direct pass calls.
fn set_pass_metrics(per_layer: &mut Metrics, spans: &[telemetry::Span]) {
    for (metric, span) in [
        ("compiler.region_select_us", "compiler.region_select"),
        ("compiler.initial_map_us", "compiler.initial_map"),
        ("compiler.swap_route_us", "compiler.swap_route"),
        ("compiler.nuop_decompose_us", "compiler.nuop_decompose"),
    ] {
        let us = 1e3 * median_or_zero(&trace::durations_ms(spans, span));
        per_layer.set(metric, us, "us");
    }
}

/// Sets `sim.{precompile_ms,simulate_ms,shots_per_s}.<class>` from the
/// `sim.precompile` and `sim.simulate` spans under roots tagged `class`.
fn set_sim_class_metrics(
    per_layer: &mut Metrics,
    spans: &[telemetry::Span],
    class: &str,
    shots: usize,
) {
    let precompile = trace::durations_ms_under(spans, "sim.precompile", "class", class);
    let simulate = median_or_zero(&trace::durations_ms_under(
        spans,
        "sim.simulate",
        "class",
        class,
    ));
    per_layer.set(
        &format!("sim.precompile_ms.{class}"),
        median_or_zero(&precompile),
        "ms",
    );
    per_layer.set(&format!("sim.simulate_ms.{class}"), simulate, "ms");
    let shots_per_s = if simulate > 0.0 {
        shots as f64 / (simulate / 1e3)
    } else {
        0.0
    };
    per_layer.set(&format!("sim.shots_per_s.{class}"), shots_per_s, "1/s");
}
