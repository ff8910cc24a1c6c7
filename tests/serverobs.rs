//! Acceptance tests for the server-path flight recorder (ISSUE 9).
//!
//! Two contracts:
//!
//! * **Simulation invisibility** — running with span tracing on and every
//!   export (telemetry text + JSON, merged Chrome trace, rollup) taken
//!   while the jobs' effects are live produces bit-identical simulated
//!   seconds (`f64::to_bits`), counters, metrics and raw output bytes to
//!   running dark, for 1/2/8 workers, on both the M3R and Hadoop engines.
//!   (The flight recorder itself is always on.) Observability must never
//!   perturb the simulation — and the telemetry export of everything the
//!   simulation determines is itself byte-identical run to run.
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
    /// The Prometheus export taken once every ticket had resolved
    /// (observed runs only).
    telemetry: Option<String>,
}

/// Run the scenario through a server with observability fully on (span
/// tracing + every export read; the flight recorder runs and telemetry
/// sources are registered either way, but only read when asked) or dark.
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
        ServerOptions { workers },
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
    let telemetry = observe.then(|| {
        // Exercise every export path while jobs' effects are live: the
        // exports themselves must not disturb the simulation either.
        let recorder = server.flight_recorder();
        let _ = cluster.telemetry().json();
        let _ = cluster.trace().chrome_json_with(&recorder.chrome_events());
        let _ = server.rollup(1_000_000);
        cluster.telemetry().prometheus_text()
    });
    server.shutdown();
    Outcome {
        per_job,
        home_seconds: cluster.max_time().to_bits(),
        home_metrics: cluster.metrics().snapshot(),
        outputs: (0..4)
            .flat_map(|j| part_bytes(&fs, &format!("/out{j}"), PARTS))
            .collect(),
        telemetry,
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

/// Every family a server over an M3R engine exports: 8 from the memory
/// accountant, 3 from the governed cache, 4 from the reuse index, 3 from
/// the server, 1 from the wave pool.
const FAMILIES: [&str; 19] = [
    "m3r_cache_entries",
    "m3r_cache_quota_bytes",
    "m3r_cache_requests_total",
    "m3r_cache_resident_bytes",
    "m3r_mem_budget_bytes",
    "m3r_mem_combine_high_watermark_bytes",
    "m3r_mem_evictions_total",
    "m3r_mem_high_watermark_bytes",
    "m3r_mem_live_bytes",
    "m3r_mem_reload_bytes_total",
    "m3r_mem_spill_bytes_total",
    "m3r_memo_bytes_total",
    "m3r_memo_hits_total",
    "m3r_memo_invalidations_total",
    "m3r_memo_misses_total",
    "m3r_server_jobs_total",
    "m3r_server_lane_busy_seconds",
    "m3r_server_submit_resolve_ms",
    "m3r_wave_path_total",
];

/// The lines of a Prometheus export whose values the simulation determines
/// (everything but the two wall-clock server families and the wave paths,
/// which depend on the machine's cores).
fn simulation_determined(prom: &str) -> String {
    prom.lines()
        .filter(|line| {
            let name = line
                .trim_start_matches("# HELP ")
                .trim_start_matches("# TYPE ");
            ["m3r_mem_", "m3r_cache_", "m3r_memo_", "m3r_server_jobs_total"]
                .iter()
                .any(|prefix| name.starts_with(prefix))
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn telemetry_export_is_complete_and_deterministic() {
    let export = || {
        run_observed(|c, f| M3REngine::new(c, f), 1, true)
            .telemetry
            .expect("observed runs export")
    };
    let (a, b) = (export(), export());
    let exported: Vec<&str> = a
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    assert_eq!(exported, FAMILIES, "families, in export order");
    assert_eq!(
        simulation_determined(&a),
        simulation_determined(&b),
        "two runs of one scenario must export the same simulation-determined text"
    );
    assert!(simulation_determined(&a).contains(r#"m3r_server_jobs_total{state="completed"} 4"#));
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
        ServerOptions { workers: 2 },
    );
    // Job 1's tenant has a name that needs escaping in a label value.
    const HOSTILE: &str = r#"a"b\c"#;
    let tickets: Vec<JobTicket> = scenario_confs()
        .iter()
        .enumerate()
        .map(|(j, c)| {
            let tenant = if j == 1 { HOSTILE.to_string() } else { format!("tenant-{j}") };
            server.client_as(&tenant).submit(id_job(), c).unwrap()
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
    for family in FAMILIES {
        let kind = match family {
            "m3r_server_submit_resolve_ms" => "histogram",
            f if f.ends_with("_total") => "counter",
            _ => "gauge",
        };
        assert!(
            prom.contains(&format!("# TYPE {family} {kind}\n")),
            "{family} must export as a {kind}"
        );
    }
    assert!(prom.contains(r#"state="completed"} 4"#), "completed counter != 4");
    // The hostile tenant's cache put exports as exactly one well-formed
    // line, quotes and backslash escaped.
    let resident: Vec<&str> = prom
        .lines()
        .filter(|l| l.starts_with(r#"m3r_cache_resident_bytes{owner="a"#))
        .collect();
    assert_eq!(resident.len(), 1, "{resident:?}");
    let bytes = resident[0]
        .strip_prefix(r#"m3r_cache_resident_bytes{owner="a\"b\\c"} "#)
        .unwrap_or_else(|| panic!("badly escaped: {}", resident[0]));
    assert!(bytes.parse::<u64>().unwrap() > 0, "job 1's output is cached for its tenant");
    // The latency histogram is bucketed from the ticket log at export time:
    // cumulative buckets up to +Inf, a sum, and a count equal to the
    // client's resolved tickets.
    for c in &rollup.clients {
        let client = c.client.replace('\\', r"\\").replace('"', r#"\""#);
        let series = |suffix: &str, le: &str| -> f64 {
            let head = format!("m3r_server_submit_resolve_ms{suffix}{{client=\"{client}\"{le}}} ");
            let line = prom.lines().find_map(|l| l.strip_prefix(head.as_str()));
            line.unwrap_or_else(|| panic!("missing {head}")).parse().unwrap()
        };
        assert_eq!(series("_count", ""), c.jobs as f64, "{client}: one observation per ticket");
        assert_eq!(series("_bucket", r#",le="+Inf""#), c.jobs as f64);
        assert!(series("_bucket", r#",le="0.05""#) <= series("_bucket", r#",le="1000""#));
        assert!(series("_bucket", r#",le="1000""#) <= c.jobs as f64, "buckets are cumulative");
        assert!(series("_sum", "") > 0.0);
    }
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
        ServerOptions { workers: 1 },
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
