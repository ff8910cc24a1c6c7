//! The untraced run: set-up 8×, 2 warm-up passes, N timed passes, untimed
//! verification — and the five end-to-end metrics it yields.

use std::time::Instant;

use hmr_api::error::Result;

use crate::json::Json;
use crate::span::Spans;
use crate::stats;
use crate::sys;
use crate::workload::servermix::ServerMix;
use crate::workload::shuffle::{ShuffleHadoop, ShuffleM3r};
use crate::workload::wordcount::WordCountM3r;
use crate::workload::{self, PassReport, Sizes, Workload, SETUPS, WARMUP_PASSES};

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which the pass
/// counts below apply. Other values scale the counts linearly — the work
/// of a run is a fixed function of its arguments, never of its speed.
pub const RUN_SECONDS: u64 = 15;

/// The workloads, with their timed passes per run at [`RUN_SECONDS`].
pub const WORKLOADS: [(&str, usize); 4] = [
    ("shuffle_m3r", 100),
    ("shuffle_hadoop", 50),
    ("wordcount_m3r", 75),
    ("servermix", 28),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    /// N/10 passes and 2 set-ups, for smoke use; never comparable.
    pub quick: bool,
    pub sizes: Sizes,
}

impl RunSpec {
    /// Timed passes: the workload's count scaled by `seconds / RUN_SECONDS`,
    /// a tenth of that when `quick`.
    pub fn passes(&self) -> usize {
        let base = WORKLOADS
            .iter()
            .find(|(name, _)| *name == self.workload)
            .map_or(1, |(_, n)| *n) as u64;
        let n = (base * self.seconds + RUN_SECONDS / 2) / RUN_SECONDS;
        (if self.quick { n / 10 } else { n }).max(1) as usize
    }

    /// Set-ups per run.
    pub fn setups(&self) -> usize {
        if self.quick {
            2
        } else {
            SETUPS
        }
    }
}

/// The result of a run, traced or not.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub context: Json,
}

impl Outcome {
    /// The one-line result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Dispatch `f` on the workload type named by `spec`.
macro_rules! with_workload {
    ($spec:expr, $f:ident) => {
        match $spec.workload.as_str() {
            "shuffle_m3r" => $f::<ShuffleM3r>($spec),
            "shuffle_hadoop" => $f::<ShuffleHadoop>($spec),
            "wordcount_m3r" => $f::<WordCountM3r>($spec),
            "servermix" => $f::<ServerMix>($spec),
            other => Err(hmr_api::error::HmrError::InvalidJob(format!(
                "unknown workload {other:?}"
            ))),
        }
    };
}
pub(crate) use with_workload;

/// Run the untraced benchmark for `spec`.
pub fn run(spec: &RunSpec) -> Result<Outcome> {
    with_workload!(spec, run_untraced)
}

/// Set up `n` times on fresh clusters, each instance dropped before the
/// next is built; returns the last instance and every set-up's seconds.
pub fn repeated_setup<W: Workload>(
    spec: &RunSpec,
    n: usize,
    rec: &mut Spans,
) -> Result<(W, Vec<f64>)> {
    let mut times = Vec::with_capacity(n);
    let mut instance: Option<W> = None;
    for _ in 0..n {
        drop(instance.take());
        let t0 = Instant::now();
        instance = Some(workload::setup::<W>(spec.seed, &spec.sizes, rec)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((instance.expect("at least one set-up"), times))
}

fn run_untraced<W: Workload>(spec: &RunSpec) -> Result<Outcome> {
    let loadavg = sys::loadavg_1m();
    let mut rec = Spans::new(false);
    let (mut instance, setup_s) = repeated_setup::<W>(spec, spec.setups(), &mut rec)?;
    for _ in 0..WARMUP_PASSES {
        instance.pass(&mut rec)?;
        instance.clear_outputs()?;
    }
    let n = spec.passes();
    let mut passes: Vec<PassReport> = Vec::with_capacity(n);
    let mut mismatches = 0;
    for i in 0..n {
        passes.push(instance.pass(&mut rec)?);
        if i + 1 == n {
            // Untimed: the last pass's outputs against the generated input.
            mismatches = instance.verify()?;
        }
        instance.clear_outputs()?;
    }
    let input_checksum = instance.input_checksum()?;
    drop(instance);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let last = passes.last().expect("a run has at least one pass");
    let records = last.map_input_records() as f64;
    let metrics = vec![
        Metric::new("setup_s", stats::fastest(&setup_s), "s"),
        Metric::new("records_per_s", records / stats::fastest(&walls), "1/s"),
        Metric::new("cpu_s_per_mrec", stats::fastest(&cpus) / records * 1e6, "s"),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        Metric::new("sim_s_per_pass", last.sim_s, "s"),
    ];
    let samples = Json::obj([
        ("setup_s", Json::Num(setup_s.len() as f64)),
        ("records_per_s", Json::Num(walls.len() as f64)),
        ("cpu_s_per_mrec", Json::Num(cpus.len() as f64)),
        ("peak_rss_mb", Json::Num(1.0)),
        ("sim_s_per_pass", Json::Num(1.0)),
    ]);
    let context = context_json(
        spec,
        loadavg,
        vec![
            (
                "input_checksum",
                Json::Str(format!("{input_checksum:016x}")),
            ),
            ("records_per_pass", Json::Num(records)),
            ("jobs_per_pass", Json::Num(last.jobs as f64)),
            ("samples", samples),
            ("pass_wall_s_fastest", Json::Num(stats::fastest(&walls))),
            ("pass_wall_s_q1", Json::Num(stats::q1(&walls))),
            ("pass_wall_s_median", Json::Num(stats::median(&walls))),
            ("pass_wall_s_p90", Json::Num(stats::p90(&walls))),
            ("pass_cpu_s_fastest", Json::Num(stats::fastest(&cpus))),
            ("setup_s_all", Json::nums(&setup_s)),
            ("pass_wall_s_all", Json::nums(&walls)),
            ("pass_cpu_s_all", Json::nums(&cpus)),
        ],
    );
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + mismatches;
    Ok(Outcome {
        correct: failed == 0,
        attempted: passes.iter().map(|p| p.jobs).sum(),
        failed,
        metrics,
        context,
    })
}

/// The `context` block: where and how the numbers were taken, then the
/// run's own `extra` entries. Information only — nothing in it is ever used
/// to normalise a metric.
pub fn context_json(spec: &RunSpec, loadavg_at_start: f64, extra: Vec<(&str, Json)>) -> Json {
    let base = [
        ("workload", Json::Str(spec.workload.clone())),
        ("seed", Json::Num(spec.seed as f64)),
        ("seconds", Json::Num(spec.seconds as f64)),
        ("quick", Json::Bool(spec.quick)),
        ("passes", Json::Num(spec.passes() as f64)),
        ("warmup_passes", Json::Num(WARMUP_PASSES as f64)),
        ("setups", Json::Num(spec.setups() as f64)),
        ("estimator", Json::Str("fastest repetition".into())),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("rustc", Json::Str(env!("E2E_RUSTC_VERSION").into())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("loadavg_1m_at_start", Json::Num(loadavg_at_start)),
        ("config", fixed_config_json(&spec.sizes)),
    ];
    Json::obj(base.into_iter().chain(extra))
}

/// The fixed configuration every run uses.
fn fixed_config_json(sizes: &Sizes) -> Json {
    use crate::workload::{servermix, shuffle, wordcount};
    Json::obj([
        ("places", Json::Num(workload::PLACES as f64)),
        ("worker_threads", Json::Num(workload::WORKER_THREADS as f64)),
        (
            "hadoop_map_slots_per_node",
            Json::Num(workload::WORKER_THREADS as f64),
        ),
        (
            "hadoop_reduce_slots_per_node",
            Json::Num(workload::WORKER_THREADS as f64),
        ),
        ("partitions", Json::Num(workload::PARTITIONS as f64)),
        ("server_workers", Json::Num(workload::SERVER_WORKERS as f64)),
        ("compute_scale", Json::Num(workload::COMPUTE_SCALE)),
        ("dfs_block_mb", Json::Num(8.0)),
        ("dfs_replicas", Json::Num(2.0)),
        ("generator_threads", Json::Num(1.0)),
        ("other_options", Json::Str("Default".into())),
        ("shuffle_pairs", Json::Num(sizes.shuffle_pairs as f64)),
        (
            "shuffle_value_bytes",
            Json::Num(sizes.shuffle_value_bytes as f64),
        ),
        (
            "shuffle_remote_fraction",
            Json::Num(shuffle::REMOTE_FRACTION),
        ),
        ("shuffle_iterations", Json::Num(shuffle::ITERATIONS as f64)),
        ("corpus_bytes", Json::Num(sizes.corpus_bytes as f64)),
        ("corpus_files", Json::Num(wordcount::CORPUS_FILES as f64)),
        ("servermix_rounds", Json::Num(sizes.rounds as f64)),
        (
            "servermix_tickets_per_round",
            Json::Num(servermix::TICKETS_PER_ROUND as f64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::counters::Counters;
    use simgrid::metrics::MetricsSnapshot;

    /// Everything about a set-up + pass that must not depend on the run:
    /// the input's checksum, the pass's simulated seconds (to the bit: the
    /// same pass index of a fresh instance), every counter, and the verdict
    /// of the output check.
    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        input_checksum: u64,
        sim_bits: u64,
        jobs: u64,
        failed: u64,
        counters: Counters,
        metrics: MetricsSnapshot,
        dfs_output_records: u64,
        mismatches: u64,
    }

    fn fingerprint<W: Workload>(seed: u64) -> Fingerprint {
        let mut rec = Spans::new(false);
        let mut w = workload::setup::<W>(seed, &Sizes::tiny(), &mut rec).expect("set-up");
        let pass = w.pass(&mut rec).expect("pass");
        let mismatches = w.verify().expect("verify");
        w.clear_outputs().expect("clear");
        Fingerprint {
            input_checksum: w.input_checksum().expect("checksum"),
            sim_bits: pass.sim_s.to_bits(),
            jobs: pass.jobs,
            failed: pass.failed,
            metrics: pass.metrics(),
            counters: pass.counters,
            dfs_output_records: pass.dfs_output_records,
            mismatches,
        }
    }

    fn seed_determinism<W: Workload>() {
        let a = fingerprint::<W>(7);
        assert_eq!(
            a,
            fingerprint::<W>(7),
            "same seed: same inputs, same counts, same simulated seconds"
        );
        assert_eq!((a.failed, a.mismatches), (0, 0), "outputs verify");
        assert!(a.jobs > 0 && a.sim_bits != 0);
        assert_ne!(
            a.input_checksum,
            fingerprint::<W>(8).input_checksum,
            "different seed: different input"
        );
    }

    #[test]
    fn shuffle_m3r_is_deterministic_in_its_seed() {
        seed_determinism::<ShuffleM3r>();
    }

    #[test]
    fn shuffle_hadoop_is_deterministic_in_its_seed() {
        seed_determinism::<ShuffleHadoop>();
    }

    #[test]
    fn wordcount_m3r_is_deterministic_in_its_seed() {
        seed_determinism::<WordCountM3r>();
    }

    #[test]
    fn servermix_is_deterministic_in_its_seed() {
        seed_determinism::<ServerMix>();
    }

    #[test]
    fn both_shuffle_engines_run_the_same_bytes() {
        let (m3r, hadoop) = (
            fingerprint::<ShuffleM3r>(3),
            fingerprint::<ShuffleHadoop>(3),
        );
        assert_eq!(m3r.input_checksum, hadoop.input_checksum);
        // Both outputs verified against that one checksum inside `verify`.
        assert_eq!((m3r.mismatches, hadoop.mismatches), (0, 0));
        assert_eq!(m3r.jobs, hadoop.jobs);
    }

    fn spec(workload: &str, seconds: u64, quick: bool) -> RunSpec {
        RunSpec {
            workload: workload.into(),
            seed: 1,
            seconds,
            quick,
            sizes: Sizes::tiny(),
        }
    }

    #[test]
    fn pass_counts_are_a_fixed_function_of_the_arguments() {
        assert_eq!(spec("shuffle_m3r", RUN_SECONDS, false).passes(), 100);
        assert_eq!(spec("shuffle_hadoop", RUN_SECONDS, false).passes(), 50);
        assert_eq!(spec("wordcount_m3r", RUN_SECONDS, false).passes(), 75);
        assert_eq!(spec("servermix", RUN_SECONDS, false).passes(), 28);
        assert_eq!(spec("servermix", 2 * RUN_SECONDS, false).passes(), 56);
        assert_eq!(spec("shuffle_m3r", RUN_SECONDS, true).passes(), 10);
        assert_eq!(spec("servermix", 1, true).passes(), 1);
        assert_eq!(
            (
                spec("servermix", 1, true).setups(),
                spec("servermix", 1, false).setups()
            ),
            (2, SETUPS)
        );
    }

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_what_the_runs_report() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the crate");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| match i.get("name") {
                        Some(Json::Str(s)) => s.clone(),
                        _ => panic!("{key} entry without a name"),
                    })
                    .collect(),
                _ => panic!("no {key} list"),
            }
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n.to_string()));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let untraced = run(&spec("servermix", 1, true)).expect("untraced run");
        assert!(untraced.correct, "tiny servermix run verifies");
        let reported: Vec<String> = untraced.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(reported, names("end_to_end"));
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0"
        );

        let traced = crate::trace::trace(&spec("servermix", 1, true)).expect("traced run");
        assert!(traced.correct, "tiny traced servermix run verifies");
        let mut reported: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        let mut declared = names("per_layer");
        reported.sort();
        declared.sort();
        assert_eq!(reported, declared);

        // The result line holds exactly the four keys of the contract.
        let line = Json::parse(&untraced.result_json().render()).expect("result line parses");
        let Json::Obj(pairs) = line else {
            panic!("result line is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
