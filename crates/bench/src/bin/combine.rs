//! Place-wide shared combining sweep (ROADMAP item 3).
//!
//! Two workloads × two engines × combine on/off, reporting what the
//! shuffle actually moved:
//!
//! * `wordcount-skew` — WordCount over a Zipf-skewed corpus with the
//!   LongSum combiner: the case place/node-level combining exists for.
//!   Combine-on must move fewer shuffle bytes and sort fewer pairs.
//! * `microbench` — the Figure 6/7-style shuffle microbenchmark, which has
//!   **no combiner**: the feature must be completely inert, so the on/off
//!   rows must agree bit-for-bit (`sim_bits` is `f64::to_bits` of the
//!   simulated seconds).
//!
//! Text + JSON land in `bench-results/combine.{txt,json}`; `main` asserts
//! the two properties above, so a CI run needs no separate validator.

use std::sync::Arc;

use hadoop_engine::{HadoopEngine, HADOOP_COUNTER_GROUP};
use hmr_api::conf::JobConf;
use hmr_api::job::{Engine, JobResult};
use hmr_api::HPath;
use m3r::M3REngine;
use m3r_bench::{secs, write_bench_file, BenchReport};
use simdfs::SimDfs;
use workloads::microbench::{generate_microbench_input, MicrobenchJob};
use workloads::wordcount::{WcStyle, WordCountJob};

const NODES: usize = 8;
const PARTS: usize = 8;
// One split per file: several files per node give each place/node the
// multi-task map waves that shared combining merges across.
const CORPUS_FILES: usize = 3 * NODES;
const CORPUS_FILE_BYTES: usize = 40_000;
// Closed vocabulary with a Zipf-flavoured skew: every map task sees the
// same hot keys, which is exactly the overlap place-wide combining merges.
// (An open-tail corpus like `workloads::textgen` has a near-unique cold
// tail per task and leaves a shared combine table almost nothing to do.)
const VOCAB: usize = 400;
const MB_PAIRS: usize = 2_000;
const MB_VALUE_BYTES: usize = 256;
const MB_FRAC: f64 = 0.5;

/// One measured job run.
struct Run {
    workload: &'static str,
    engine: &'static str,
    combine: bool,
    shuffle_bytes: i64,
    sort_pairs: u64,
    sim_time: f64,
}

impl Run {
    fn new(
        workload: &'static str,
        engine: &'static str,
        combine: bool,
        shuffle_bytes: i64,
        r: &JobResult,
    ) -> Self {
        Run {
            workload,
            engine,
            combine,
            shuffle_bytes,
            sort_pairs: r.metrics.records_sorted,
            sim_time: r.sim_time,
        }
    }

    fn row(&self) -> Vec<String> {
        vec![
            self.workload.to_string(),
            self.engine.to_string(),
            if self.combine { "on" } else { "off" }.to_string(),
            self.shuffle_bytes.to_string(),
            self.sort_pairs.to_string(),
            secs(self.sim_time),
            format!("{:016x}", self.sim_time.to_bits()),
        ]
    }
}

/// Write roughly `bytes` of whitespace-separated tokens drawn Zipf-ish from
/// a **closed** vocabulary of `VOCAB` words (`w000`..). Deterministic in
/// `seed` (xorshift64, no external RNG).
fn generate_skewed_text(fs: &SimDfs, path: &HPath, bytes: usize, seed: u64) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = String::with_capacity(bytes + 16);
    let mut line_len = 0usize;
    while out.len() < bytes {
        // Zipf-ish: rank r with probability ∝ 1/(r+1), as in
        // `workloads::textgen`, but with no open suffix tail.
        let u = (next() % 1_000_000) as f64 / 1_000_000.0;
        let rank = ((VOCAB as f64).powf(u) - 1.0) as usize % VOCAB;
        out.push_str(&format!("w{rank:03}"));
        line_len += 1;
        if line_len >= 12 {
            out.push('\n');
            line_len = 0;
        } else {
            out.push(' ');
        }
    }
    out.push('\n');
    hmr_api::fs::write_file(fs, path, out.as_bytes()).unwrap();
}

fn stage_corpus(fs: &SimDfs) {
    for f in 0..CORPUS_FILES {
        generate_skewed_text(
            fs,
            &HPath::new(format!("/in/c{f:03}.txt")),
            CORPUS_FILE_BYTES,
            11 + f as u64,
        );
    }
}

/// The conf of one measured job; `combine` is the per-job switch
/// (`m3r.shuffle.place.combine`) both engines read.
fn job_conf(out: &str, name: &str, combine: bool) -> JobConf {
    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new(out));
    conf.set_num_reduce_tasks(PARTS);
    conf.set(hmr_api::conf::JOB_NAME, name);
    conf.set_place_level_combine(combine);
    conf
}

/// Submit `workload`'s one job to `engine`. The microbench job is the first
/// iteration `run_microbench` would submit, built here so its conf can carry
/// the combine switch.
fn submit<E: Engine>(engine: &mut E, workload: &str, combine: bool) -> JobResult {
    match workload {
        "microbench" => engine.run_job(
            Arc::new(MicrobenchJob { remote_fraction: MB_FRAC, seed: 0xB0B }),
            &job_conf("/work/iter0", "microbench-iter0", combine),
        ),
        _ => engine.run_job(
            Arc::new(WordCountJob::new(WcStyle::FreshText)),
            &job_conf("/out", "wordcount-combine", combine),
        ),
    }
    .unwrap()
}

/// One measured run on a fresh cluster.
fn measure(workload: &'static str, engine: &'static str, combine: bool) -> Run {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    match workload {
        "microbench" => {
            generate_microbench_input(&fs, &HPath::new("/in"), MB_PAIRS, MB_VALUE_BYTES, PARTS, 42)
                .unwrap();
        }
        _ => stage_corpus(&fs),
    }
    let fs = Arc::new(fs);
    let (r, group, counter) = match engine {
        "m3r" => (
            submit(&mut M3REngine::new(cluster, fs), workload, combine),
            m3r::M3R_COUNTER_GROUP,
            "SHUFFLE_STREAM_BYTES",
        ),
        _ => (
            submit(&mut HadoopEngine::new(cluster, fs), workload, combine),
            HADOOP_COUNTER_GROUP,
            "SHUFFLE_SEGMENT_BYTES",
        ),
    };
    Run::new(workload, engine, combine, r.counters.get(group, counter), &r)
}

fn main() {
    let mut runs = Vec::new();
    for workload in ["wordcount-skew", "microbench"] {
        for engine in ["m3r", "hadoop"] {
            for combine in [false, true] {
                runs.push(measure(workload, engine, combine));
            }
        }
    }

    // The two properties the sweep exists to demonstrate.
    for engine in ["m3r", "hadoop"] {
        let pick = |workload: &str, combine: bool| {
            runs.iter()
                .find(|r| r.workload == workload && r.engine == engine && r.combine == combine)
                .unwrap()
        };
        let (off, on) = (pick("wordcount-skew", false), pick("wordcount-skew", true));
        assert!(
            on.shuffle_bytes < off.shuffle_bytes,
            "{engine}: combine must shrink skewed-wordcount shuffle bytes ({} vs {})",
            on.shuffle_bytes,
            off.shuffle_bytes
        );
        assert!(
            on.sort_pairs < off.sort_pairs,
            "{engine}: combine must shrink sorted pairs ({} vs {})",
            on.sort_pairs,
            off.sort_pairs
        );
        let (m_off, m_on) = (pick("microbench", false), pick("microbench", true));
        assert_eq!(
            m_off.sim_time.to_bits(),
            m_on.sim_time.to_bits(),
            "{engine}: combine flag must be inert without a combiner"
        );
        assert_eq!(m_off.shuffle_bytes, m_on.shuffle_bytes);
        assert_eq!(m_off.sort_pairs, m_on.sort_pairs);
    }

    let mut report = BenchReport::new("combine");
    let header = [
        "workload",
        "engine",
        "combine",
        "shuffle_bytes",
        "sort_pairs",
        "sim_seconds",
        "sim_bits",
    ];
    let rows: Vec<Vec<String>> = runs.iter().map(Run::row).collect();
    report.table("place-wide shared combining sweep", &header, rows.clone());

    let mut txt = header.join(",");
    txt.push('\n');
    for row in &rows {
        txt.push_str(&row.join(","));
        txt.push('\n');
    }
    let txt_path = write_bench_file("combine.txt", &txt).expect("write combine.txt");
    println!("wrote {}", txt_path.display());
    report.finish().expect("write combine.json");
}
