//! `shuffle_m3r` and `shuffle_hadoop`: the Figure 6 shuffle microbenchmark
//! (§6.1) — 3 chained iterations per pass over the same seeded bytes, on
//! either engine.
//!
//! On `M3REngine` the warm pass reads its input from the cache (hit ratio
//! 1), keeps the two intermediate outputs cache-only (temporary-output
//! prefix) and deletes each once consumed (§6.1's protocol): the work is
//! `core::shuffle` + `x10rt::serialize` + kv-store/cache writes + the
//! buffer pool, with almost no sort or user code. On `HadoopEngine` the
//! same job bypasses cache, kv-store, x10rt and server entirely: seqfile
//! read/write, sort-buffer spill/merge and the DFS. It is the control for
//! M3R-only changes (prediction: flat) and the detector for shared
//! `hmr-api` changes (both move together).

use std::sync::Arc;
use std::time::Instant;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::conf::JobConf;
use hmr_api::error::Result;
use hmr_api::extensions::CacheFsExt;
use hmr_api::fs::{FileSystem, HPath};
use hmr_api::io::part_file_name;
use hmr_api::io::seqfile::read_seq_file;
use hmr_api::job::Engine;
use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use simgrid::Cluster;
use workloads::{generate_microbench_input, MicrobenchJob};

use super::{
    fresh_cluster, scattered, splitmix64, Checksum, PassReport, Sizes, Stopwatch, Workload,
    PARTITIONS, WORKER_THREADS,
};
use crate::span::Spans;

/// Fraction of pairs the mapper re-keys to the adjacent partition.
pub const REMOTE_FRACTION: f64 = 0.5;
/// Chained jobs per pass.
pub const ITERATIONS: usize = 3;

const RAW_INPUT: &str = "/in";
const STABLE_INPUT: &str = "/stable";
const WORK_DIR: &str = "/mb";

enum Side {
    M3r(M3REngine),
    Hadoop(HadoopEngine),
}

/// The shuffle microbenchmark on one engine: `M3R = true` is
/// `shuffle_m3r`, `false` is `shuffle_hadoop`.
pub struct Shuffle<const M3R: bool> {
    cluster: Cluster,
    dfs: SimDfs,
    side: Side,
    pairs: u64,
}

/// `shuffle_m3r`.
pub type ShuffleM3r = Shuffle<true>;
/// `shuffle_hadoop`.
pub type ShuffleHadoop = Shuffle<false>;

fn mod_partitioner() -> Box<dyn hmr_api::partition::Partitioner<IntWritable, BytesWritable>> {
    Box::new(FnPartitioner::new(
        |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
    ))
}

/// The chained iterations of `workloads::run_microbench`, restated here so
/// the harness can put a span and a timer around each `run_job`: output of
/// one job is the input of the next; under the M3R protocol intermediate
/// outputs carry the temporary prefix and each consumed intermediate is
/// deleted from the cache.
fn run_chain<E: Engine>(
    engine: &mut E,
    input: &HPath,
    m3r_protocol: Option<&dyn FileSystem>,
    report: &mut PassReport,
    rec: &mut Spans,
) {
    let work = HPath::new(WORK_DIR);
    let mut current = input.clone();
    for it in 0..ITERATIONS {
        let last = it + 1 == ITERATIONS;
        let out = if last || m3r_protocol.is_none() {
            work.join(&format!("iter{it}"))
        } else {
            work.join(&format!("temp_iter{it}"))
        };
        let mut conf = JobConf::new();
        conf.add_input_path(&current);
        conf.set_output_path(&out);
        conf.set_num_reduce_tasks(PARTITIONS);
        conf.set(hmr_api::conf::JOB_NAME, format!("microbench-iter{it}"));
        let job = Arc::new(MicrobenchJob {
            remote_fraction: REMOTE_FRACTION,
            seed: 0xB0B + it as u64,
        });
        rec.enter("job");
        let t0 = Instant::now();
        let result = engine.run_job(job, &conf);
        report.unit_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.exit();
        let ok = result.is_ok();
        if let (Ok(r), true) = (&result, last || m3r_protocol.is_none()) {
            report.dfs_output_records += r.output_records;
        }
        report.absorb(&result);
        if !ok {
            return; // the chain is broken: later iterations are not submitted
        }
        if let (Some(fs), true) = (m3r_protocol, it > 0) {
            // The consumed intermediate will never be read again (§6.1).
            let _ = fs.delete(&current, true);
        }
        current = out;
    }
}

impl<const M3R: bool> Workload for Shuffle<M3R> {
    type K = IntWritable;
    type V = BytesWritable;

    fn build(seed: u64, sizes: &Sizes, rec: &mut Spans) -> Result<Self> {
        rec.enter("cluster");
        let (cluster, dfs) = fresh_cluster();
        rec.exit();

        rec.enter("dfs_generate");
        // The seed also draws the pair count: up to 63 × 4 pairs (0.25 %)
        // fewer than nominal, so no two seeds do bit-identical work and
        // `sim_s_per_pass` — deterministic for a given input — still reads
        // differently from seed to seed, as a measurement must.
        let pairs = sizes.shuffle_pairs - PARTITIONS * (splitmix64(seed) % 64) as usize;
        generate_microbench_input(
            &dfs,
            &HPath::new(RAW_INPUT),
            pairs,
            sizes.shuffle_value_bytes,
            PARTITIONS,
            seed,
        )?;
        rec.exit();

        rec.enter("engine_start");
        let side = if M3R {
            Side::M3r(M3REngine::with_options(
                cluster.clone(),
                Arc::new(dfs.clone()),
                M3ROptions {
                    worker_threads: WORKER_THREADS,
                    ..M3ROptions::default()
                },
            ))
        } else {
            Side::Hadoop(HadoopEngine::with_options(
                cluster.clone(),
                Arc::new(dfs.clone()),
                EngineOptions {
                    map_slots_per_node: WORKER_THREADS,
                    reduce_slots_per_node: WORKER_THREADS,
                    ..EngineOptions::default()
                },
            ))
        };
        rec.exit();

        let mut this = Shuffle {
            cluster,
            dfs,
            side,
            pairs: pairs as u64,
        };

        if let Side::M3r(engine) = &mut this.side {
            // §6.1.1: the one-off repartitioning to the stable layout. It
            // was "a separate earlier run" in the paper, so the cache is
            // emptied afterwards and the cold pass refills it.
            rec.enter("repartition");
            m3r::repartition(
                engine,
                &HPath::new(RAW_INPUT),
                &HPath::new(STABLE_INPUT),
                PARTITIONS,
                mod_partitioner,
            )?;
            let raw = engine.caching_fs().raw_cache();
            raw.delete(&HPath::new(RAW_INPUT), true)?;
            raw.delete(&HPath::new(STABLE_INPUT), true)?;
            rec.exit();
        }

        Ok(this)
    }

    fn pass(&mut self, rec: &mut Spans) -> Result<PassReport> {
        let mut report = PassReport::default();
        let mut sw = Stopwatch::default();
        rec.enter("pass");
        match &mut self.side {
            Side::M3r(engine) => {
                let cleanup = Arc::clone(engine.caching_fs());
                sw.time(|| {
                    run_chain(
                        engine,
                        &HPath::new(STABLE_INPUT),
                        Some(&*cleanup),
                        &mut report,
                        rec,
                    )
                });
            }
            Side::Hadoop(engine) => {
                sw.time(|| run_chain(engine, &HPath::new(RAW_INPUT), None, &mut report, rec));
            }
        }
        rec.exit();
        report.stamp(sw);
        Ok(report)
    }

    fn clear_outputs(&mut self) -> Result<()> {
        let work = HPath::new(WORK_DIR);
        match &self.side {
            Side::M3r(engine) => engine.caching_fs().delete(&work, true)?,
            Side::Hadoop(engine) => engine.fs().delete(&work, true)?,
        };
        Ok(())
    }

    fn verify(&mut self) -> Result<u64> {
        let expect = self.dir_checksum(RAW_INPUT)?.0;
        let last = format!("{WORK_DIR}/iter{}", ITERATIONS - 1);
        let (got, misplaced) = self.dir_checksum(&last)?;
        Ok(misplaced + u64::from(got != expect) + u64::from(expect.records != self.pairs))
    }

    fn input_checksum(&mut self) -> Result<u64> {
        Ok(self.dir_checksum(RAW_INPUT)?.0.sum)
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cache_bytes(&self) -> u64 {
        match &self.side {
            Side::M3r(engine) => engine.cache().total_bytes(),
            Side::Hadoop(_) => 0,
        }
    }

    fn engine_name(&self) -> &'static str {
        match &self.side {
            Side::M3r(engine) => engine.engine_name(),
            Side::Hadoop(engine) => engine.engine_name(),
        }
    }

    fn sample_pairs(&mut self, n: usize) -> Result<Vec<(Arc<IntWritable>, Arc<BytesWritable>)>> {
        let path = HPath::new(RAW_INPUT).join(&part_file_name(0));
        Ok(scattered(
            read_seq_file::<IntWritable, BytesWritable>(&self.dfs, &path)?,
            n,
        ))
    }
}

impl<const M3R: bool> Shuffle<M3R> {
    /// Value-multiset checksum of a directory of part files, plus the
    /// number of records sitting in a part file their key does not
    /// partition to. The mapper re-keys half the pairs on every iteration
    /// (seeded per task, so the final key of a pair depends on split order
    /// and differs between engines); what both engines must preserve is
    /// every value, exactly once, in the partition its key names.
    fn dir_checksum(&self, dir: &str) -> Result<(Checksum, u64)> {
        let mut sum = Checksum::default();
        let mut misplaced = 0;
        for p in 0..PARTITIONS {
            let path = HPath::new(dir).join(&part_file_name(p));
            for (k, v) in read_seq_file::<IntWritable, BytesWritable>(&self.dfs, &path)? {
                if k.0.rem_euclid(PARTITIONS as i32) as usize != p {
                    misplaced += 1;
                }
                sum.add(&v.0);
            }
        }
        Ok((sum, misplaced))
    }
}
