//! The shuffle microbenchmark of §6.1 / Figure 6.
//!
//! "The input to this job is \[N\] pairs, each with an ascending integer for
//! key and an array of \[B\] bytes for value. The mapper, which implements
//! ImmutableOutput, randomly decides to emit the pair with either its key
//! unchanged or replaced with a key (created during the mapper's setup
//! phase) that partitions to a remote host. The partitioner simply mods the
//! integer key, and the reducer is the identity reducer."
//!
//! Three iterations chain: the output of one job is the input of the next.
//! Under M3R, every output except the last is marked temporary and each
//! consumed input is explicitly deleted from the cache (§6.1's protocol).

use std::sync::Arc;

use hmr_api::collect::OutputCollector;
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::error::Result;
use hmr_api::fs::{FileSystem, HPath};
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult};
use hmr_api::partition::{FnPartitioner, Partitioner};
use hmr_api::task::{IdentityReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{BytesWritable, IntWritable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The microbenchmark job: re-keys a `remote_fraction` of pairs so they
/// partition to the *next* place.
pub struct MicrobenchJob {
    /// Fraction of pairs re-keyed to a remote partition, in `[0, 1]`.
    pub remote_fraction: f64,
    /// RNG seed (per-task offset added), for reproducible mixes.
    pub seed: u64,
}

struct MicroMapper {
    remote_fraction: f64,
    rng: StdRng,
    num_partitions: usize,
}

impl TaskMapper<IntWritable, BytesWritable, IntWritable, BytesWritable> for MicroMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        value: Arc<BytesWritable>,
        out: &mut dyn OutputCollector<IntWritable, BytesWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if self.rng.gen::<f64>() < self.remote_fraction {
            // Shift to the adjacent partition — under partition stability
            // and the mod partitioner that is "an adjacent machine".
            let shifted = key.0.rem_euclid(self.num_partitions as i32) + 1;
            let remote = Arc::new(IntWritable(
                shifted.rem_euclid(self.num_partitions as i32),
            ));
            out.collect(remote, value)
        } else {
            out.collect(key, value)
        }
    }
}

impl JobDef for MicrobenchJob {
    type K1 = IntWritable;
    type V1 = BytesWritable;
    type K2 = IntWritable;
    type V2 = BytesWritable;
    type K3 = IntWritable;
    type V3 = BytesWritable;

    fn create_mapper(
        &self,
        conf: &JobConf,
    ) -> Box<dyn TaskMapper<IntWritable, BytesWritable, IntWritable, BytesWritable>> {
        Box::new(MicroMapper {
            remote_fraction: self.remote_fraction,
            rng: StdRng::seed_from_u64(self.seed),
            num_partitions: conf.num_reduce_tasks().max(1),
        })
    }

    fn create_reducer(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, BytesWritable, IntWritable, BytesWritable>> {
        Box::new(IdentityReducer)
    }

    fn partitioner(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn Partitioner<IntWritable, BytesWritable>> {
        // "The partitioner simply mods the integer key."
        Box::new(FnPartitioner::new(|k: &IntWritable, _: &BytesWritable, n| {
            k.0.rem_euclid(n as i32) as usize
        }))
    }

    fn input_format(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn InputFormat<IntWritable, BytesWritable>> {
        Box::new(SequenceFileInputFormat::new())
    }

    fn output_format(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn OutputFormat<IntWritable, BytesWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }

    fn immutable_output(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "microbench"
    }
}

/// Generate the benchmark input: `pairs` records of `value_bytes` each,
/// grouped into one part file per partition (keys ≡ partition mod
/// `num_partitions`) — the layout the paper's Hadoop generator produces,
/// with the *file placement* left to the DFS (i.e. arbitrary relative to
/// M3R's partition→place map, motivating the §6.1.1 repartitioning).
pub fn generate_microbench_input(
    fs: &dyn FileSystem,
    dir: &HPath,
    pairs: usize,
    value_bytes: usize,
    num_partitions: usize,
    seed: u64,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    for p in 0..num_partitions {
        let mut records = Vec::new();
        let mut k = p as i32;
        while (k as usize) < pairs {
            let mut payload = vec![0u8; value_bytes];
            rng.fill(&mut payload[..]);
            records.push((IntWritable(k), BytesWritable(payload.into())));
            k += num_partitions as i32;
        }
        write_seq_file(fs, &dir.join(&format!("part-{p:05}")), &records)?;
    }
    Ok(())
}

/// Run the chained iterations on `engine`, returning the per-iteration
/// results. When `m3r_protocol` is set, intermediate outputs are named with
/// the temporary prefix, and each consumed *intermediate* input is deleted
/// through `cleanup` afterwards — "we explicitly delete the previous
/// iteration's input, as it will not be accessed again and its presence in
/// the cache wastes memory" (§6.1). The stock Hadoop engine ignores both
/// conventions, exactly as in the paper.
#[allow(clippy::too_many_arguments)]
pub fn run_microbench<E: Engine>(
    engine: &mut E,
    input: &HPath,
    work_dir: &HPath,
    remote_fraction: f64,
    iterations: usize,
    num_partitions: usize,
    m3r_protocol: bool,
    cleanup: Option<&dyn FileSystem>,
) -> Result<Vec<JobResult>> {
    let mut results = Vec::with_capacity(iterations);
    let mut current = input.clone();
    for it in 0..iterations {
        let last = it + 1 == iterations;
        let out = if last || !m3r_protocol {
            work_dir.join(&format!("iter{it}"))
        } else {
            work_dir.join(&format!("temp_iter{it}"))
        };
        let mut conf = JobConf::new();
        conf.add_input_path(&current);
        conf.set_output_path(&out);
        conf.set_num_reduce_tasks(num_partitions);
        conf.set(hmr_api::conf::JOB_NAME, format!("microbench-iter{it}"));
        let job = Arc::new(MicrobenchJob {
            remote_fraction,
            seed: 0xB0B + it as u64,
        });
        results.push(engine.run_job(job, &conf)?);
        if m3r_protocol && it > 0 {
            if let Some(fs) = cleanup {
                // The consumed intermediate will never be read again.
                fs.delete(&current, true)?;
            }
        }
        current = out;
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::counters::task_counter;
    use hmr_api::io::seqfile::read_seq_file;
    use m3r::{M3REngine, M3ROptions};
    use simdfs::SimDfs;
    use simgrid::{Cluster, CostModel};

    fn setup(nodes: usize) -> (Cluster, SimDfs) {
        let cluster = Cluster::new(nodes, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        (cluster, fs)
    }

    #[test]
    fn record_volume_is_preserved_across_iterations() {
        let (cluster, fs) = setup(4);
        generate_microbench_input(&fs, &HPath::new("/in"), 64, 32, 4, 1).unwrap();
        let mut engine = M3REngine::new(cluster, Arc::new(fs.clone()));
        // Repartition first so iteration 1 starts from the stable layout.
        m3r::repartition(
            &mut engine,
            &HPath::new("/in"),
            &HPath::new("/stable"),
            4,
            || {
                Box::new(FnPartitioner::new(
                    |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
                ))
            },
        )
        .unwrap();
        let results = run_microbench(
            &mut engine,
            &HPath::new("/stable"),
            &HPath::new("/mb"),
            0.5,
            3,
            4,
            true,
            None,
        )
        .unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.counters.task(task_counter::MAP_INPUT_RECORDS), 64);
            assert_eq!(r.counters.task(task_counter::REDUCE_OUTPUT_RECORDS), 64);
        }
        // The final iteration's output is materialized and complete.
        let mut n = 0;
        for p in 0..4 {
            n += read_seq_file::<IntWritable, BytesWritable>(
                &fs,
                &HPath::new(format!("/mb/iter2/part-{p:05}")),
            )
            .unwrap()
            .len();
        }
        assert_eq!(n, 64);
    }

    #[test]
    fn zero_remote_fraction_shuffles_nothing_after_repartition() {
        let (cluster, fs) = setup(4);
        generate_microbench_input(&fs, &HPath::new("/in"), 64, 16, 4, 2).unwrap();
        let mut engine = M3REngine::new(cluster, Arc::new(fs.clone()));
        m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), 4, || {
            Box::new(FnPartitioner::new(
                |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
            ))
        })
        .unwrap();
        let results = run_microbench(
            &mut engine,
            &HPath::new("/st"),
            &HPath::new("/mb"),
            0.0,
            3,
            4,
            true,
            None,
        )
        .unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                r.counters.task(task_counter::REMOTE_SHUFFLED_RECORDS),
                0,
                "iteration {i} had remote shuffles at 0%"
            );
        }
    }

    #[test]
    fn full_remote_fraction_shuffles_everything() {
        let (cluster, fs) = setup(4);
        generate_microbench_input(&fs, &HPath::new("/in"), 64, 16, 4, 3).unwrap();
        let mut engine = M3REngine::new(cluster, Arc::new(fs.clone()));
        m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), 4, || {
            Box::new(FnPartitioner::new(
                |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
            ))
        })
        .unwrap();
        let results = run_microbench(
            &mut engine,
            &HPath::new("/st"),
            &HPath::new("/mb"),
            1.0,
            1,
            4,
            true,
            None,
        )
        .unwrap();
        assert_eq!(
            results[0].counters.task(task_counter::REMOTE_SHUFFLED_RECORDS),
            64
        );
        assert_eq!(
            results[0].counters.task(task_counter::LOCAL_SHUFFLED_RECORDS),
            0
        );
    }

    #[test]
    fn m3r_later_iterations_are_cheaper_hadoop_iterations_are_flat() {
        let (cluster, fs) = setup(4);
        generate_microbench_input(&fs, &HPath::new("/in"), 128, 128, 4, 4).unwrap();

        // Hadoop: "every iteration takes the same amount of time."
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
        let h = run_microbench(
            &mut hadoop,
            &HPath::new("/in"),
            &HPath::new("/h"),
            0.5,
            3,
            4,
            false,
            None,
        )
        .unwrap();
        let h_times: Vec<f64> = h.iter().map(|r| r.sim_time).collect();
        for w in h_times.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 0.35 * w[0],
                "hadoop iterations should be flat: {h_times:?}"
            );
        }

        // M3R: "the constant overhead is considerably less in the second
        // and third iterations since pairs are fetched directly from the
        // cache."
        let (cluster2, fs2) = setup(4);
        generate_microbench_input(&fs2, &HPath::new("/in"), 128, 128, 4, 4).unwrap();
        let mut m3r_engine = M3REngine::with_options(
            cluster2,
            Arc::new(fs2),
            M3ROptions::default(),
        );
        m3r::repartition(&mut m3r_engine, &HPath::new("/in"), &HPath::new("/st"), 4, || {
            Box::new(FnPartitioner::new(
                |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
            ))
        })
        .unwrap();
        // The repartitioned data is reorganized on the DFS; start the
        // measured run with a cold cache (the paper's repartitioning was a
        // separate earlier run).
        {
            use hmr_api::extensions::CacheFsExt;
            let raw = m3r_engine.caching_fs().raw_cache();
            raw.delete(&HPath::new("/st"), true).unwrap();
            raw.delete(&HPath::new("/in"), true).unwrap();
        }
        let cleanup = Arc::clone(m3r_engine.caching_fs());
        let m = run_microbench(
            &mut m3r_engine,
            &HPath::new("/st"),
            &HPath::new("/m"),
            0.5,
            3,
            4,
            true,
            Some(&*cleanup),
        )
        .unwrap();
        assert!(
            m[1].sim_time < m[0].sim_time,
            "iteration 2 benefits from the cache: {} vs {}",
            m[1].sim_time,
            m[0].sim_time
        );
        // And M3R beats Hadoop on every iteration.
        for (i, (mi, hi)) in m.iter().zip(&h).enumerate() {
            assert!(
                mi.sim_time < hi.sim_time,
                "iteration {i}: m3r {} vs hadoop {}",
                mi.sim_time,
                hi.sim_time
            );
        }
    }

    #[test]
    fn time_grows_with_remote_fraction_on_m3r() {
        let mut times = Vec::new();
        for frac in [0.0, 0.5, 1.0] {
            let (cluster, fs) = setup(4);
            generate_microbench_input(&fs, &HPath::new("/in"), 128, 256, 4, 7).unwrap();
            let mut engine = M3REngine::new(cluster, Arc::new(fs));
            m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), 4, || {
                Box::new(FnPartitioner::new(
                    |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
                ))
            })
            .unwrap();
            let r = run_microbench(
                &mut engine,
                &HPath::new("/st"),
                &HPath::new("/mb"),
                frac,
                2,
                4,
                true,
                None,
            )
            .unwrap();
            times.push(r[1].sim_time);
        }
        assert!(
            times[0] < times[1] && times[1] < times[2],
            "linear relationship between remote fraction and time: {times:?}"
        );
    }
}
