//! Acceptance tests for the server-path flight recorder (ISSUE 9).
//!
//! Two contracts:
//!
//! * **Simulation invisibility** — running with the flight recorder,
//!   telemetry registry and span tracing all on produces bit-identical
//!   simulated seconds (`f64::to_bits`), counters, metrics and raw output
//!   bytes to running with everything off, for 1/2/8 workers, on both the
//!   M3R and Hadoop engines. Observability must never perturb the
//!   simulation.
//! * **Exact attribution** — for every ticket the recorder's four buckets
//!   (conflict-DAG wait, worker-queue wait, lane run, fold delay)
//!   telescope to the measured submit→resolve nanoseconds *exactly*, in
//!   integer arithmetic, for completed and cancelled tickets alike; the
//!   rollup's percentiles are ordered and lane utilization is a fraction.
//!
//! Plus the ticket ergonomics riding along: `JobStatus` Display/Debug and
//! `JobTicket::wait_timeout` returning the last-observed status instead of
//! a bare error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hadoop_engine::HadoopEngine;
use hmr_api::conf::JobConf;
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::job::{JobResult, LaneEngine};
use hmr_api::partition::HashPartitioner;
use hmr_api::writable::{IntWritable, Text};
use hmr_api::HPath;
use m3r::{M3REngine, RepartitionJob};
use m3r_server::{JobServer, JobStatus, JobTicket, ServerOptions, WaitOutcome};
use simdfs::SimDfs;
use simgrid::metrics::MetricsSnapshot;
use simgrid::Cluster;

mod common;
use common::{fresh, part_bytes};

const PLACES: usize = 4;
const PARTS: usize = 8;

fn gen_input(fs: &SimDfs, dir: &str, n: i32, salt: i32) {
    let records: Vec<(IntWritable, Text)> = (0..n)
        .map(|i| (IntWritable(i), Text::from(format!("v{salt}-{i}"))))
        .collect();
    write_seq_file(fs, &HPath::new(format!("{dir}/part-00000")), &records).unwrap();
}

fn id_job() -> Arc<RepartitionJob<IntWritable, Text>> {
    Arc::new(RepartitionJob::new(|| Box::new(HashPartitioner)))
}

fn conf(input: &str, output: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new(input));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(2);
    c
}

/// Three independent jobs plus one that reads job 0's output (a conflict
/// edge), same scenario the server determinism tests pin.
fn scenario_confs() -> Vec<JobConf> {
    let mut confs: Vec<JobConf> = (0..3)
        .map(|j| conf(&format!("/in{j}"), &format!("/out{j}")))
        .collect();
    confs.push(conf("/out0", "/out3"));
    confs
}

struct Outcome {
    per_job: Vec<JobResult>,
    home_seconds: u64,
    home_metrics: MetricsSnapshot,
    outputs: Vec<(String, bytes::Bytes)>,
}

/// Run the scenario through a server with observability fully on
/// (`flight: true` + span tracing; telemetry gauges registered at engine
/// birth either way, but only exported when asked) or fully off.
fn run_observed<E, F>(make_engine: F, workers: usize, observe: bool) -> Outcome
where
    E: LaneEngine + Send + Sync + 'static,
    F: FnOnce(Cluster, Arc<SimDfs>) -> E,
{
    let (cluster, fs) = fresh(PLACES);
    for j in 0..3 {
        gen_input(&fs, &format!("/in{j}"), 12 + 2 * j, j);
    }
    if observe {
        cluster.trace().enable();
    }
    let server = JobServer::with_options(
        make_engine(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions {
            workers,
            flight: observe,
        },
    );
    let tickets: Vec<JobTicket> = scenario_confs()
        .iter()
        .enumerate()
        .map(|(j, c)| {
            server
                .client_as(&format!("tenant-{j}"))
                .submit(id_job(), c)
                .unwrap()
        })
        .collect();
    let per_job: Vec<JobResult> = tickets.iter().map(|t| t.wait().unwrap()).collect();
    if observe {
        // Exercise every export path while jobs' effects are live: the
        // exports themselves must not disturb the simulation either.
        let recorder = server.flight_recorder();
        assert!(recorder.enabled());
        let _ = cluster.telemetry().prometheus_text();
        let _ = cluster.telemetry().json();
        let _ = cluster.trace().chrome_json_with(&recorder.chrome_events());
        let _ = server.rollup(1_000_000);
    }
    server.shutdown();
    Outcome {
        per_job,
        home_seconds: cluster.max_time().to_bits(),
        home_metrics: cluster.metrics().snapshot(),
        outputs: (0..4)
            .flat_map(|j| part_bytes(&fs, &format!("/out{j}"), PARTS))
            .collect(),
    }
}

fn assert_outcomes_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.per_job.len(), b.per_job.len(), "{what}: job counts");
    for (j, (ra, rb)) in a.per_job.iter().zip(&b.per_job).enumerate() {
        assert_eq!(
            ra.sim_time.to_bits(),
            rb.sim_time.to_bits(),
            "{what}: job {j} simulated seconds must be bit-identical"
        );
        assert_eq!(ra.counters, rb.counters, "{what}: job {j} counters");
        assert_eq!(ra.metrics, rb.metrics, "{what}: job {j} metrics");
        assert_eq!(
            ra.output_records, rb.output_records,
            "{what}: job {j} output records"
        );
    }
    assert_eq!(a.home_seconds, b.home_seconds, "{what}: home clock bits");
    assert_eq!(a.home_metrics, b.home_metrics, "{what}: home metrics");
    assert_eq!(a.outputs, b.outputs, "{what}: output bytes");
}

#[test]
fn observability_is_simulation_invisible_m3r() {
    let base = run_observed(|c, f| M3REngine::new(c, f), 1, false);
    for workers in [1, 2, 8] {
        let on = run_observed(|c, f| M3REngine::new(c, f), workers, true);
        assert_outcomes_identical(&base, &on, &format!("m3r, {workers} workers, observed"));
        let off = run_observed(|c, f| M3REngine::new(c, f), workers, false);
        assert_outcomes_identical(&base, &off, &format!("m3r, {workers} workers, dark"));
    }
}

#[test]
fn observability_is_simulation_invisible_hadoop() {
    let base = run_observed(|c, f| HadoopEngine::new(c, f), 1, false);
    for workers in [1, 2, 8] {
        let on = run_observed(|c, f| HadoopEngine::new(c, f), workers, true);
        assert_outcomes_identical(&base, &on, &format!("hadoop, {workers} workers, observed"));
        let off = run_observed(|c, f| HadoopEngine::new(c, f), workers, false);
        assert_outcomes_identical(&base, &off, &format!("hadoop, {workers} workers, dark"));
    }
}

#[test]
fn attribution_telescopes_exactly_for_every_ticket() {
    let (cluster, fs) = fresh(PLACES);
    for j in 0..3 {
        gen_input(&fs, &format!("/in{j}"), 12 + 2 * j, j);
    }
    cluster.trace().enable(); // sim-second place tracks for the merged trace
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 2, ..Default::default() },
    );
    let tickets: Vec<JobTicket> = scenario_confs()
        .iter()
        .enumerate()
        .map(|(j, c)| {
            server
                .client_as(&format!("tenant-{j}"))
                .submit(id_job(), c)
                .unwrap()
        })
        .collect();
    // A queued fifth job behind job 3's output, cancelled before it can
    // start: cancelled tickets must obey the attribution identity too.
    let doomed = server
        .client_as("tenant-x")
        .submission()
        .after(&tickets[3])
        .submit(id_job(), &conf("/out3", "/out4"))
        .unwrap();
    assert!(doomed.cancel(), "job behind an unresolved dep is queued");
    for t in &tickets {
        t.wait().unwrap();
    }

    let recorder = server.flight_recorder();
    let traces = recorder.traces();
    assert_eq!(traces.len(), 5, "4 completed + 1 cancelled");
    for t in &traces {
        assert_eq!(
            t.conflict_wait_ns() + t.queue_wait_ns() + t.lane_run_ns() + t.fold_delay_ns(),
            t.total_ns(),
            "seq {}: the four buckets must sum to submit→resolve exactly",
            t.seq
        );
        match t.status {
            JobStatus::Completed => {
                let lane = t.lane.expect("completed jobs ran on a lane");
                assert!(lane < 2, "lane index within worker count");
                assert!(t.lane_run_ns() > 0);
                assert!(t.resolved_ns >= t.lane_done_ns);
            }
            JobStatus::Cancelled => {
                assert!(t.lane.is_none(), "cancelled before dispatch");
                assert_eq!(t.lane_run_ns(), 0);
                assert_eq!(t.fold_delay_ns(), 0);
            }
            other => panic!("unexpected terminal status {other:?}"),
        }
    }
    // Job 3 reads job 0's output: its conflict wait covers job 0's run.
    let chained = &traces[3];
    assert_eq!(chained.deps, 1, "job 3 depends on job 0");
    assert!(chained.ready_ns >= traces[0].resolved_ns);

    let rollup = server.rollup(0); // SLO of 0 ns: every ticket breaches
    assert_eq!(rollup.jobs, 5);
    for c in &rollup.clients {
        assert!(c.p50_ns <= c.p95_ns && c.p95_ns <= c.p99_ns, "percentiles ordered");
        assert_eq!(c.slo_breaches, c.jobs, "zero SLO breaches everywhere");
    }
    for l in &rollup.lanes {
        assert!((0.0..=1.0).contains(&l.utilization));
    }
    assert_eq!(
        rollup.lanes.iter().map(|l| l.jobs).sum::<u64>(),
        4,
        "every completed job landed on a lane"
    );

    let events = recorder.chrome_events();
    let flows = |ph: &str| events.iter().filter(|e| e.contains(ph)).count();
    assert_eq!(flows(r#""ph":"s""#), 4, "one flow start per dispatched ticket");
    assert_eq!(flows(r#""ph":"f""#), 4, "one flow end per dispatched ticket");
    assert!(
        events.iter().any(|e| e.contains(r#""name":"lane 0""#)),
        "lane track metadata"
    );
    // The merged trace has exactly two processes: simulated places (pid 0)
    // and the wall-clock server tracks (pid 1).
    let merged = cluster.trace().chrome_json_with(&events);
    let pids: std::collections::BTreeSet<&str> = merged
        .match_indices(r#""pid":"#)
        .map(|(i, m)| &merged[i + m.len()..i + m.len() + 1])
        .collect();
    assert_eq!(pids.into_iter().collect::<Vec<_>>(), ["0", "1"]);

    let prom = cluster.telemetry().prometheus_text();
    for family in [
        "m3r_server_jobs_total",
        "m3r_server_submit_resolve_ms",
        "m3r_server_lane_busy_seconds",
        "m3r_mem_live_bytes",
        "m3r_cache_resident_bytes",
    ] {
        assert!(prom.contains(family), "prometheus text missing {family}");
    }
    assert!(prom.contains(r#"state="completed"} 4"#), "completed counter != 4");
    server.shutdown();
}

#[test]
fn job_status_display_and_debug_read_well() {
    assert_eq!(JobStatus::Queued.to_string(), "queued");
    assert_eq!(JobStatus::Running.to_string(), "running");
    assert_eq!(JobStatus::Completed.to_string(), "completed");
    assert_eq!(format!("{:?}", JobStatus::Running), "running (non-terminal)");
    assert_eq!(format!("{:?}", JobStatus::Failed), "failed (terminal)");
    assert_eq!(format!("{:?}", JobStatus::Cancelled), "cancelled (terminal)");
}

#[test]
fn wait_timeout_reports_last_observed_status() {
    let (cluster, fs) = fresh(PLACES);
    gen_input(&fs, "/in0", 12, 0);
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 1, ..Default::default() },
    );
    let client = server.client();

    // A completed ticket resolves within any timeout.
    let done = client.submit(id_job(), &conf("/in0", "/out0")).unwrap();
    match done.wait_timeout(Duration::from_secs(30)) {
        WaitOutcome::Resolved(r) => assert!(r.is_ok()),
        WaitOutcome::TimedOut(s) => panic!("resolved ticket timed out at {s}"),
    }

    // A ticket stuck behind an unresolved dependency times out as queued
    // (the gate guarantees the upstream is still running).
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    let slow = client
        .submission()
        .submit(
            Arc::new(RepartitionJob::<IntWritable, Text>::new(move || {
                // Partitioner construction happens on the lane inside the
                // job body; spin there until the test releases it.
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Box::new(HashPartitioner)
            })),
            &conf("/in0", "/out1"),
        )
        .unwrap();
    let blocked = client
        .submission()
        .after(&slow)
        .submit(id_job(), &conf("/in0", "/out2"))
        .unwrap();
    match blocked.wait_timeout(Duration::from_millis(50)) {
        WaitOutcome::TimedOut(status) => {
            assert_eq!(status, JobStatus::Queued);
            assert!(!status.is_terminal());
        }
        WaitOutcome::Resolved(_) => panic!("dependent ticket resolved while its gate was shut"),
    }
    release.store(true, Ordering::SeqCst);
    assert!(slow.wait().is_ok());
    assert!(blocked.wait().is_ok());
    server.shutdown();
}
