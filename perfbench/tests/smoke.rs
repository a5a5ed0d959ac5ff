//! Smoke-sized traced runs of every workload: the output checks pass, every
//! job is accounted for, and the per-layer metrics show each workload
//! stressing or bypassing the layers it claims to.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds work but simulate slowly).

use std::time::Instant;

use perfbench::cli::Workload;
use perfbench::report::per_layer_catalog;
use perfbench::{end_to_end, run, RunConfig, RunResult};

fn smoke(workload: Workload) -> RunResult {
    let config = RunConfig {
        seed: 7,
        seconds: 0.2,
        trace: true,
        smoke: true,
        process_start: Instant::now(),
    };
    let result = run(workload, &config);
    for check in &result.checks.0 {
        assert!(
            check.ok,
            "{}: {}: {}",
            workload.name(),
            check.name,
            check.detail
        );
    }
    assert!(result.checks.all_ok());
    let a = result.window.accounting;
    assert!(a.completed > 0);
    assert_eq!(a.attempted, a.completed + a.failed + a.rejected);
    assert_eq!(a.not_completed(), 0);
    let traced = result
        .traced
        .as_ref()
        .expect("a traced run has a traced window");
    assert!(traced.accounting.completed > 0);

    let names: Vec<String> = result.per_layer.0.iter().map(|m| m.name.clone()).collect();
    let catalog: Vec<String> = per_layer_catalog().into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(
        names, catalog,
        "every per-layer metric is reported, in order"
    );
    for metric in &result.per_layer.0 {
        assert!(
            metric.value.is_finite(),
            "{} is {}",
            metric.name,
            metric.value
        );
    }
    let e2e = end_to_end(&result);
    for name in ["jobs_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s"] {
        let value = e2e.get(name).unwrap();
        assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
    }
    let trace = result.tracer.as_ref().unwrap().trace_json();
    assert!(trace.starts_with("{\"traceEvents\":[") && trace.contains("\"name\":\"job\""));
    result
}

#[test]
fn serve_warm_smoke_reads_only_warm_caches() {
    let result = smoke(Workload::ServeWarm);
    let layer = |name: &str| result.per_layer.get(name).unwrap();
    assert_eq!(layer("core.cache_misses"), 0.0);
    assert_eq!(layer("core.cache_hit_ratio"), 1.0);
    assert!(layer("compiler.region_select_us") > 0.0);
    assert!(layer("apps.circuit_gen_us") > 0.0);
    assert!(layer("sim.simulate_ms.serve") > 0.0);
    assert_eq!(layer("bench.compile_batch_ms.qv3"), 0.0);
}

#[test]
fn sim_wide_smoke_makes_no_compiler_call() {
    let result = smoke(Workload::SimWide);
    let layer = |name: &str| result.per_layer.get(name).unwrap();
    for name in [
        "compiler.region_select_us",
        "compiler.nuop_decompose_us",
        "core.cache_misses",
        "server.overhead_ms.p50",
    ] {
        assert_eq!(layer(name), 0.0, "{name}");
    }
    assert!(layer("sim.simulate_ms.q11s") > 0.0);
    assert!(layer("sim.sweep_us.1q.20q.serial") > 0.0);
}

#[test]
fn fig9_sweep_smoke_misses_the_cache_on_every_job() {
    let result = smoke(Workload::Fig9Sweep);
    let layer = |name: &str| result.per_layer.get(name).unwrap();
    assert!(layer("core.min_misses_per_job") > 0.0);
    assert!(layer("core.cold_decompose_ms") > 0.0);
    assert!(layer("bench.compile_batch_ms.qv3") > 0.0);
    assert!(layer("qmath.objective_eval_ns") > 0.0);
    assert_eq!(layer("server.overhead_ms.p50"), 0.0);
}
