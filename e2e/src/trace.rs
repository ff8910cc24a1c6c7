//! The traced run: the separate run that produces the per-layer metrics.
//!
//! Set-up twice, warm up, then alternate untraced passes (the baseline) and
//! traced passes (harness spans + the program's own sim-time `Trace`
//! enabled — the difference is `trace.overhead_pct`) on one instance, then
//! run the layer probes. Spans live in memory and are written at exit to
//! `e2e/out/trace-<workload>.json` in Chrome trace format.

use hmr_api::counters::task_counter as tc;
use hmr_api::error::{HmrError, Result};
use simgrid::trace::Phase;

use crate::json::Json;
use crate::probes;
use crate::run::{context_json, repeated_setup, with_workload, Metric, Outcome, RunSpec};
use crate::selfcheck::out_dir;
use crate::span::{chrome_trace, Spans};
use crate::stats;
use crate::sys;
use crate::workload::servermix::ServerMix;
use crate::workload::shuffle::{ShuffleHadoop, ShuffleM3r};
use crate::workload::wordcount::WordCountM3r;
use crate::workload::{PassReport, Workload, PARTITIONS, WARMUP_PASSES};

/// Set-ups of a traced run (their spans are what matters, not their timing).
const TRACE_SETUPS: usize = 2;
/// Sample records handed to the record-shaped probes.
const PROBE_RECORDS: usize = 20_000;
/// Rounds of the one long-lived server behind `server.age_slowdown`.
const AGE_ROUNDS: usize = 200;

/// The simulated-time phases reported as `simgrid.sim_share.*`.
const SHARE_PHASES: [Phase; 8] = [
    Phase::Submit,
    Phase::Map,
    Phase::Shuffle,
    Phase::Sort,
    Phase::Reduce,
    Phase::Io,
    Phase::Cache,
    Phase::Barrier,
];

/// Run the traced benchmark for `spec`.
pub fn trace(spec: &RunSpec) -> Result<Outcome> {
    with_workload!(spec, run_traced)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether every count the program returns repeated exactly across passes.
fn counts_repeat(passes: &[&PassReport]) -> bool {
    passes.windows(2).all(|w| {
        w[0].jobs == w[1].jobs
            && w[0].failed == w[1].failed
            // Simulated clocks only ever advance, so a pass's seconds are a
            // difference of growing numbers: equal to rounding, not to the bit.
            && (w[0].sim_s - w[1].sim_s).abs() <= 1e-9 * w[0].sim_s.abs()
            && w[0].counters == w[1].counters
            && w[0].metrics() == w[1].metrics()
            && w[0].dfs_output_records == w[1].dfs_output_records
    })
}

fn run_traced<W: Workload>(spec: &RunSpec) -> Result<Outcome> {
    let loadavg = sys::loadavg_1m();
    // Half the untraced run's passes of each kind, so a traced run takes
    // about as long as an untraced one.
    let passes = spec.passes().div_ceil(2);
    let mut rec = Spans::new(true);
    let mut off = Spans::new(false);
    rec.enter("run");
    let (mut instance, setup_s) = repeated_setup::<W>(spec, TRACE_SETUPS, &mut rec)?;
    for _ in 0..WARMUP_PASSES {
        instance.pass(&mut off)?;
        instance.clear_outputs()?;
    }

    // Untraced and traced passes alternate, so slow drift of the box hits
    // both alike. Untraced: every recorder off (the baseline). Traced:
    // harness spans on and the program's sim-time trace on; the sim trace
    // is emptied (untimed) before each traced pass so it holds one pass.
    let sim_trace = instance.cluster().trace().clone();
    let pool_requests = |w: &W| {
        let m = w.cluster().metrics();
        (m.pool_hits(), m.pool_misses())
    };
    let pool_before = pool_requests(&instance);
    let (mut untraced, mut traced) = (Vec::with_capacity(passes), Vec::with_capacity(passes));
    let mut mismatches = 0;
    let mut sim_rollup = None;
    for i in 0..passes {
        untraced.push(instance.pass(&mut off)?);
        instance.clear_outputs()?;
        sim_trace.clear();
        sim_trace.enable();
        traced.push(instance.pass(&mut rec)?);
        sim_trace.disable();
        if i + 1 == passes {
            sim_rollup = Some(sim_trace.rollup());
            mismatches = rec.scope("verify", |_| instance.verify())?;
        }
        instance.clear_outputs()?;
    }
    sim_trace.clear();
    let pool_after = pool_requests(&instance);
    let last = traced.last().expect("at least one traced pass").clone();
    let every: Vec<&PassReport> = untraced.iter().chain(&traced).collect();
    let counts_repeat = counts_repeat(&every);

    // ---- counts of the last traced pass -------------------------------------
    let c = |name: &str| last.counters.task(name) as f64;
    let map_in = c(tc::MAP_INPUT_RECORDS);
    let map_out = c(tc::MAP_OUTPUT_RECORDS);
    let reduce_in = c(tc::REDUCE_INPUT_RECORDS);
    let combine_in = c(tc::COMBINE_INPUT_RECORDS);
    let remote = c(tc::REMOTE_SHUFFLED_RECORDS);
    let local = c(tc::LOCAL_SHUFFLED_RECORDS);
    let cache_hits = c(tc::CACHE_HIT_RECORDS);
    let m = last.metrics();
    let is_m3r = instance.engine_name() == "m3r";
    let mb = |bytes: u64| bytes as f64 / 1e6;

    let mut metrics: Vec<Metric> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| metrics.push(Metric::new(name, value, unit));
    push("hmr-api.map_output_records", map_out, "count");
    push("hmr-api.records_sorted", m.records_sorted as f64, "count");
    push(
        "hmr-api.combine_ratio",
        ratio(c(tc::COMBINE_OUTPUT_RECORDS), combine_in),
        "ratio",
    );
    push("x10rt.ser_mb", mb(m.ser_bytes), "MB");
    push("x10rt.deser_mb", mb(m.deser_bytes), "MB");
    push("x10rt.barriers", m.barriers as f64, "count");
    push("core.cache_hit_ratio", ratio(cache_hits, map_in), "ratio");
    push(
        "core.local_shuffle_ratio",
        ratio(local, local + remote),
        "ratio",
    );
    push("core.cache_mb", mb(instance.cache_bytes()), "MB");
    push(
        "hadoop-engine.task_startups",
        m.task_startups as f64,
        "count",
    );
    push(
        "hadoop-engine.spill_mb",
        mb(last
            .counters
            .get(hadoop_engine::HADOOP_COUNTER_GROUP, "SHUFFLE_SEGMENT_BYTES") as u64),
        "MB",
    );
    push("simdfs.disk_mb_read", mb(m.disk_bytes_read), "MB");
    push("simdfs.disk_mb_written", mb(m.disk_bytes_written), "MB");
    push("simdfs.net_mb", mb(m.net_bytes), "MB");
    let (hits, misses) = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);
    push(
        "simgrid.bufpool_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    let mem = instance.cluster().mem();
    let watermark = (0..mem.places())
        .map(|p| mem.high_watermark(p))
        .max()
        .unwrap_or(0);
    push("simgrid.mem_high_watermark_mb", mb(watermark), "MB");

    // Shares of the last pass's simulated busy seconds by phase (exclusive
    // attribution, so they add up; `setup` and `combine` are the remainder).
    let rollup = sim_rollup.expect("rollup of the last traced pass");
    let mut busy = std::collections::BTreeMap::new();
    for ((_, _, phase), row) in rollup.rows() {
        *busy.entry(*phase).or_insert(0.0) += row.charges.busy_seconds;
    }
    let total_busy: f64 = busy.values().sum();
    for phase in SHARE_PHASES {
        let share = ratio(busy.get(&phase).copied().unwrap_or(0.0), total_busy);
        push(
            &format!("simgrid.sim_share.{}", phase.as_str()),
            share,
            "ratio",
        );
    }

    // ---- run_job spans --------------------------------------------------------
    let unit_ms: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.unit_wall_ms.iter().copied())
        .collect();
    let server = instance.server_pass();
    let run_job_ms = match &server {
        Some(s) => s.run_job_ms,
        None => stats::fastest(&unit_ms),
    };
    push(
        "core.run_job_ms",
        if is_m3r { run_job_ms } else { 0.0 },
        "ms",
    );
    push(
        "hadoop-engine.run_job_ms",
        if is_m3r { 0.0 } else { run_job_ms },
        "ms",
    );

    // ---- server: the recorder's view of the last traced pass ---------------------
    let s = server.clone().unwrap_or_default();
    push("server.submit_call_us", s.submit_call_us, "us");
    push("server.conflict_wait_ms", s.conflict_wait_ms, "ms");
    push("server.queue_wait_ms", s.queue_wait_ms, "ms");
    push("server.lane_run_ms", s.lane_run_ms, "ms");
    push("server.fold_delay_ms", s.fold_delay_ms, "ms");
    push("server.lane_utilization", s.lane_utilization, "ratio");
    push("server.ticket_ms_p50", s.ticket_ms_p50, "ms");
    push("server.ticket_ms_p90", s.ticket_ms_p90, "ms");

    // ---- probes --------------------------------------------------------------------
    let ingest = (reduce_in / last.jobs.max(1) as f64 / PARTITIONS as f64).round() as usize;
    let pairs = instance.sample_pairs(PROBE_RECORDS)?;
    let mut probed = probes::record_probes(&pairs, ingest.max(1), &mut rec)?;
    probed.extend(probes::fixed_probes(&mut rec)?);
    drop(pairs);
    let probe = |name: &str| {
        probed
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.value)
            .expect("every probe reports")
    };

    // server.age_slowdown: median round wall of the last ÷ first decile of
    // one long-lived server.
    let mut age_slowdown = 0.0;
    rec.enter("probe.server");
    if let Some(rounds) = instance.aged_rounds(if spec.quick { 30 } else { AGE_ROUNDS })? {
        let decile = (rounds.len() / 10).max(1);
        age_slowdown =
            stats::median(&rounds[rounds.len() - decile..]) / stats::median(&rounds[..decile]);
    }
    rec.exit();

    // ---- reconciliation: Σ probe ns/op × the pass's op count vs the pass ------------
    let fastest_ms = |passes: &[PassReport], f: fn(&PassReport) -> f64| {
        stats::fastest(&passes.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let pass_wall_ms = fastest_ms(&untraced, |p| p.wall_s);
    let pass_cpu_ms = fastest_ms(&untraced, |p| p.cpu_s);
    let traced_wall_ms = fastest_ms(&traced, |p| p.wall_s);
    let read_ns = if instance.text_input() {
        probe("hmr-api.text_read_ns_per_rec")
    } else {
        probe("hmr-api.seqfile_read_ns_per_rec")
    };
    let mut explained: Vec<(&str, f64)> = vec![
        ("input_read", read_ns * (map_in - cache_hits)),
        (
            "output_write",
            probe("hmr-api.seqfile_write_ns_per_rec") * last.dfs_output_records as f64,
        ),
        (
            "reduce_ingest",
            probe("hmr-api.group_ns_per_rec") * (reduce_in + combine_in),
        ),
    ];
    if is_m3r {
        explained.extend([
            (
                "job_fixed",
                probe("core.empty_job_ms") * 1e6 * last.jobs as f64,
            ),
            (
                "shuffle_route",
                probe("core.shuffle_route_ns_per_rec") * remote,
            ),
            (
                "shuffle_decode",
                probe("core.decode_stream_ns_per_rec") * remote,
            ),
        ]);
    } else {
        explained.extend([
            (
                "job_fixed",
                probe("hadoop-engine.empty_job_ms") * 1e6 * last.jobs as f64,
            ),
            (
                "sortbuffer",
                probe("hadoop-engine.sortbuffer_ns_per_rec") * map_out,
            ),
            (
                "segment_decode",
                probe("hmr-api.writable_decode_ns_per_rec") * reduce_in,
            ),
        ]);
    }
    if server.is_some() {
        explained.push((
            "server_roundtrip",
            probe("server.noop_roundtrip_us") * 1e3 * last.jobs as f64,
        ));
    }
    let explained_ms: f64 = explained.iter().map(|(_, ns)| ns / 1e6).sum();

    metrics.extend(probed.iter().cloned());
    metrics.push(Metric::new("server.age_slowdown", age_slowdown, "ratio"));
    metrics.push(Metric::new(
        "trace.explained_share",
        ratio(explained_ms, pass_wall_ms),
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.unexplained_ms",
        pass_wall_ms - explained_ms,
        "ms",
    ));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        (traced_wall_ms / pass_wall_ms - 1.0) * 100.0,
        "%",
    ));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    rec.exit();
    drop(instance);

    // ---- the trace file ------------------------------------------------------------------
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", spec.workload));
    std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, chrome_trace(rec.spans())))
        .map_err(|e| HmrError::Io(format!("{}: {e}", path.display())))?;

    let context = context_json(
        spec,
        loadavg,
        vec![
            ("traced_passes", Json::Num(passes as f64)),
            ("untraced_passes", Json::Num(passes as f64)),
            ("counts_repeat_across_passes", Json::Bool(counts_repeat)),
            ("pass_wall_ms_fastest_untraced", Json::Num(pass_wall_ms)),
            ("pass_wall_ms_fastest_traced", Json::Num(traced_wall_ms)),
            ("pass_cpu_ms_fastest_untraced", Json::Num(pass_cpu_ms)),
            (
                "explained_ms",
                Json::obj(explained.iter().map(|(k, ns)| (*k, Json::Num(ns / 1e6)))),
            ),
            (
                "explained_share_of_cpu",
                Json::Num(ratio(explained_ms, pass_cpu_ms)),
            ),
            ("setup_s_all", Json::nums(&setup_s)),
            ("spans", Json::Num(rec.spans().len() as f64)),
            ("trace_file", Json::Str(path.display().to_string())),
        ],
    );
    let attempted: u64 = every.iter().map(|p| p.jobs).sum();
    let failed: u64 =
        every.iter().map(|p| p.failed).sum::<u64>() + mismatches + u64::from(!counts_repeat);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        context,
    })
}
