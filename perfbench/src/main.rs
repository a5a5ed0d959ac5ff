//! `perfbench --workload <serve_warm|sim_wide|fig9_sweep> --seed <n>
//!  --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is a report with the host record, the tail percentile and its
//! sample count, failure accounting, every output check and re-measured
//! scoping facts. The traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`. Exit code 0 when every
//! output check holds, 1 when one fails, 2 on a bad command line.
//!
//! `run.py` builds this binary and starts it pinned to one CPU.

use std::time::Instant;

use perfbench::report::{result_line, Json};
use perfbench::{cli, end_to_end, host, stats, RunConfig};

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let probe_before_ms = host::probe_ms();
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
        process_start,
    };
    let result = perfbench::run(args.workload, &config);
    let host = host::HostRecord {
        nproc: host::nproc(),
        cpus: host::cpus(),
        commit: host::commit(),
        profile: host::profile(),
        probe_before_ms,
        probe_after_ms: host::probe_ms(),
    };

    let end_to_end = end_to_end(&result);
    let tail = stats::tail(&result.window.latencies_ms);
    let accounting = result.window.accounting;
    let mut trace_file = Json::Str(String::new());
    if let Some(tracer) = &result.tracer {
        let path = format!(
            "perfbench/out/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.trace_json()));
        match written {
            Ok(()) => trace_file = Json::Str(path),
            Err(err) => eprintln!("perfbench: cannot write {path}: {err}"),
        }
    }
    let mut report = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::Int(host.nproc as u64)),
                ("cpus", Json::Int(host.cpus as u64)),
                ("commit", Json::Str(host.commit.clone())),
                ("profile", Json::str(host.profile)),
                ("probe_before_ms", Json::Num(host.probe_before_ms)),
                ("probe_after_ms", Json::Num(host.probe_after_ms)),
            ]),
        ),
        (
            "end_to_end",
            Json::Obj(
                end_to_end
                    .0
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "latency_tail",
            Json::obj(vec![
                ("percentile", Json::Num(tail.percentile)),
                ("beyond", Json::Int(tail.beyond as u64)),
                ("samples", Json::Int(tail.samples as u64)),
            ]),
        ),
        (
            "jobs",
            Json::obj(vec![
                ("attempted", Json::Int(accounting.attempted as u64)),
                ("completed", Json::Int(accounting.completed as u64)),
                ("failed", Json::Int(accounting.failed as u64)),
                ("rejected", Json::Int(accounting.rejected as u64)),
                ("window_s", Json::Num(result.window.seconds)),
            ]),
        ),
        (
            "setup",
            Json::obj(vec![
                (
                    "reps_s",
                    Json::Arr(result.setup_s.iter().map(|s| Json::Num(*s)).collect()),
                ),
                ("first_timed_job_s", Json::Num(result.first_job_s)),
            ]),
        ),
        ("checks", result.checks.to_json()),
        ("trace_file", trace_file),
    ];
    if let Some(traced) = &result.traced {
        report.push((
            "traced_window",
            Json::obj(vec![
                ("jobs_per_s", Json::Num(traced.jobs_per_s())),
                ("attempted", Json::Int(traced.accounting.attempted as u64)),
                ("window_s", Json::Num(traced.seconds)),
            ]),
        ));
    }
    let mut report = Json::obj(report);
    if let Json::Obj(entries) = &mut report {
        entries.extend(result.details.iter().cloned());
    }
    println!("{}", Json::obj(vec![("report", report)]).render());

    let correct = result.checks.all_ok() && accounting.not_completed() == 0;
    for check in result.checks.0.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check failed: {}: {}", check.name, check.detail);
    }
    let metrics = if args.trace {
        &result.per_layer
    } else {
        &end_to_end
    };
    println!(
        "{}",
        result_line(
            correct,
            accounting.attempted,
            accounting.not_completed(),
            metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}
