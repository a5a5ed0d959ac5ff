//! Integration tests for the compile-and-simulate job server: panic
//! isolation inside a mixed batch, queue-full backpressure, draining on
//! shutdown, and per-tenant cache namespaces under concurrent load.

use std::sync::mpsc;
use std::time::Duration;

use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use qmath::RngSeed;
use server::{JobOp, JobRequest, JobResponse, JobServer, ServerError, WorkloadKind};

fn test_device() -> DeviceModel {
    DeviceModel::aspen8(RngSeed(1))
}

fn test_server(workers: usize, queue_capacity: usize) -> JobServer {
    JobServer::builder(test_device())
        .workers(workers)
        .queue_capacity(queue_capacity)
        .options(CompilerOptions::sweep())
        .build()
        .unwrap()
}

fn request(tenant: &str, seed: u64, op: JobOp) -> JobRequest {
    JobRequest {
        tenant: tenant.into(),
        set: "S3".into(),
        workload: WorkloadKind::Qv,
        qubits: 3,
        seed,
        op,
        fusion: None,
    }
}

/// A panicking job inside a batch must neither abort the process nor corrupt
/// the other jobs' results: every healthy job's response is compared against
/// ground truth from a standalone compiler.
#[test]
fn panicking_jobs_are_isolated_from_the_rest_of_the_batch() {
    let server = test_server(2, 64);

    let mut healthy = Vec::new();
    let mut bombs = Vec::new();
    for seed in 1..=4u64 {
        healthy.push((
            seed,
            server
                .submit_request(request("batch", seed, JobOp::Compile))
                .unwrap(),
        ));
        bombs.push(
            server
                .submit_task(move || panic!("bomb {seed} detonated"))
                .unwrap(),
        );
    }

    // Ground truth: the same workloads through a standalone compiler.
    let reference = Compiler::for_device(test_device())
        .instruction_set_named("S3")
        .options(CompilerOptions {
            threads: 1,
            ..CompilerOptions::sweep()
        })
        .build()
        .unwrap();
    for (seed, ticket) in healthy {
        let response = ticket.wait().unwrap();
        let expected = reference
            .compile(&apps::workloads::qv_circuit(3, RngSeed(seed)))
            .unwrap();
        assert_eq!(response.two_qubit_gates, expected.two_qubit_gate_count());
        assert_eq!(response.swap_count, expected.swap_count);
    }
    for (i, bomb) in bombs.into_iter().enumerate() {
        match bomb.wait() {
            Err(ServerError::Panicked { message }) => {
                assert!(
                    message.contains(&format!("bomb {} detonated", i + 1)),
                    "panic message {message:?} lost the original payload"
                );
            }
            other => panic!("expected a Panicked error, got {other:?}"),
        }
    }

    let metrics = server.metrics();
    assert_eq!(metrics.panicked, 4);
    assert_eq!(metrics.completed, 4);
    // The pool survived: a fresh job still completes.
    let after = server
        .submit_request(request("batch", 9, JobOp::Compile))
        .unwrap();
    assert!(after.wait().is_ok());
}

/// Filling the bounded queue makes further submissions fail fast with
/// `Overloaded`; draining the queue restores admission.
#[test]
fn full_queue_rejects_with_overloaded_backpressure() {
    let server = test_server(1, 2);

    // Park the single worker on a job that blocks until released, so
    // subsequent submissions stay queued.
    let (release, gate) = mpsc::channel::<()>();
    let parked = server
        .submit_task(move || {
            gate.recv().expect("test releases the gate");
            Err(ServerError::ShutDown) // any placeholder result
        })
        .unwrap();
    // Wait until the worker has claimed the gate job (queue drains to 0).
    while server.metrics().queue_depth > 0 {
        std::thread::yield_now();
    }

    let queued: Vec<_> = (0..2)
        .map(|seed| {
            server
                .submit_request(request("bp", seed, JobOp::Compile))
                .unwrap()
        })
        .collect();
    match server.submit_request(request("bp", 99, JobOp::Compile)) {
        Err(ServerError::Overloaded { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(server.metrics().rejected, 1);

    release.send(()).unwrap();
    assert!(parked.wait().is_err()); // the placeholder result above
    for ticket in queued {
        assert!(ticket.wait().is_ok());
    }
    // Capacity is available again.
    assert!(server
        .submit_request(request("bp", 100, JobOp::Compile))
        .is_ok());
}

/// Shutting down with a full backlog closes admission but drains the queue:
/// every job admitted before `shutdown()` still resolves `Ok`, although the
/// single worker only reaches the backlog once shutdown is under way.
#[test]
fn shutdown_drains_every_admitted_job() {
    let server = test_server(1, 3);

    let (release, gate) = mpsc::channel::<()>();
    let parked = server
        .submit_task(move || {
            gate.recv().expect("test releases the gate");
            Ok(JobResponse {
                tenant: "gate".into(),
                set: "S3".into(),
                two_qubit_gates: 0,
                swap_count: 0,
                cache_hits: 0,
                cache_misses: 0,
                compile_micros: 0,
                sim: None,
            })
        })
        .unwrap();
    // Wait until the worker has claimed the gate job (queue drains to 0).
    while server.metrics().queue_depth > 0 {
        std::thread::yield_now();
    }

    let mut tickets = vec![parked];
    for (seed, op) in [
        (1, JobOp::Compile),
        (2, JobOp::Simulate { shots: 16 }),
        (3, JobOp::Compile),
    ] {
        tickets.push(server.submit_request(request("drain", seed, op)).unwrap());
    }
    assert!(matches!(
        server.submit_request(request("drain", 99, JobOp::Compile)),
        Err(ServerError::Overloaded { capacity: 3 })
    ));

    std::thread::scope(|scope| {
        scope.spawn(move || {
            // Give shutdown() a head start, so the worker leaves the gate
            // job with admission already closed. The server exposes no
            // signal that shutdown has begun, so this only makes that order
            // likely; every assertion below holds in either order.
            std::thread::sleep(Duration::from_millis(50));
            release.send(()).unwrap();
        });
        server.shutdown();
    });
    // Every worker has joined, so each job has run or been dropped; a
    // dropped job's ticket would wait forever, hence the bounded receive.
    let admitted = tickets.len();
    let (done, results) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        for ticket in tickets {
            done.send(ticket.wait())
                .expect("the test receives every result");
        }
    });
    for i in 0..admitted {
        match results.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(_)) => {}
            other => panic!("admitted job {i} did not complete across shutdown: {other:?}"),
        }
    }
    waiter
        .join()
        .expect("the waiter thread only waits and sends");
}

/// Two tenants replaying the same seed-pinned mix concurrently get isolated
/// cache namespaces: identical deterministic responses, but all cache
/// traffic stays within each tenant (both pay their own cold misses, and a
/// replay hits only the tenant's own cache).
#[test]
fn tenant_caches_are_isolated_under_concurrent_load() {
    let server = test_server(4, 128);
    let seeds = [1u64, 2, 3];

    let submit_mix = |tenant: &str| -> Vec<server::JobTicket> {
        seeds
            .iter()
            .map(|&seed| {
                server
                    .submit_request(request(tenant, seed, JobOp::Simulate { shots: 32 }))
                    .unwrap()
            })
            .collect()
    };

    // First pass: both tenants' mixes are in flight at once, interleaved
    // across the worker pool.
    let tickets_a = submit_mix("alpha");
    let tickets_b = submit_mix("beta");
    let first_a: Vec<_> = tickets_a.into_iter().map(|t| t.wait()).collect();
    let first_b: Vec<_> = tickets_b.into_iter().map(|t| t.wait()).collect();
    for (a, b) in first_a.iter().zip(&first_b) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        // Same device + same seed-pinned workload => identical compiled
        // circuits and identical seed-pinned sampling, tenant-independent.
        assert_eq!(a.two_qubit_gates, b.two_qubit_gates);
        assert_eq!(a.swap_count, b.swap_count);
        // (simulate_micros is wall-clock; only the sampled statistics are
        // deterministic.)
        let (a_sim, b_sim) = (a.sim.as_ref().unwrap(), b.sim.as_ref().unwrap());
        assert_eq!(a_sim.shots, b_sim.shots);
        assert_eq!(a_sim.distinct_outcomes, b_sim.distinct_outcomes);
    }

    let metrics = server.metrics();
    assert_eq!(metrics.tenants.len(), 2);
    let alpha = &metrics.tenants[0];
    let beta = &metrics.tenants[1];
    assert_eq!(alpha.tenant, "alpha");
    assert_eq!(beta.tenant, "beta");
    // Isolation means no free rides: beta paid its own cold misses even
    // though alpha had already compiled the identical workloads.
    assert!(alpha.misses > 0);
    assert_eq!(alpha.misses, beta.misses);

    // Second pass: a replay is served entirely from each tenant's own cache.
    let alpha_misses_before = alpha.misses;
    for result in submit_mix("alpha").into_iter().map(|t| t.wait()) {
        let response = result.unwrap();
        assert_eq!(response.cache_misses, 0);
        assert!(response.cache_hits > 0);
    }
    let metrics = server.metrics();
    assert_eq!(metrics.tenants[0].misses, alpha_misses_before);

    // The metrics endpoint reports both namespaces.
    let json = server.metrics_json();
    assert!(json.contains("\"alpha\"") && json.contains("\"beta\""));
}

/// The wire format drives the same path end to end.
#[test]
fn wire_requests_replay_deterministically() {
    let server = test_server(2, 32);
    let text = r#"{"tenant":"wire","set":"G3","workload":"qaoa","qubits":3,"seed":5,"op":"simulate","shots":50}"#;
    let first = server.submit_wire(text).unwrap().wait().unwrap();
    let second = server.submit_wire(text).unwrap().wait().unwrap();
    assert_eq!(first.set, "G3");
    assert_eq!(first.two_qubit_gates, second.two_qubit_gates);
    let (first_sim, second_sim) = (first.sim.as_ref().unwrap(), second.sim.as_ref().unwrap());
    assert_eq!(first_sim.shots, second_sim.shots);
    assert_eq!(first_sim.distinct_outcomes, second_sim.distinct_outcomes);
    // Round-trip through the response encoder stays flat JSON.
    assert!(first.encode().contains("\"shots\":50"));
}
