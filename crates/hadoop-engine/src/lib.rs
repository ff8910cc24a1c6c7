#![warn(missing_docs)]
#![allow(clippy::type_complexity)]

//! # hadoop-engine — the baseline Hadoop MapReduce engine (paper §3.1)
//!
//! A faithful cost-model reproduction of the stock engine's execution flow,
//! the comparator in every figure of the M3R paper:
//!
//! 1. the client *submits* the job to a jobtracker (staging cost);
//! 2. map tasks are scheduled onto tasktrackers in heartbeat-paced waves,
//!    each task starting a **fresh JVM** (startup cost) — nothing survives
//!    between tasks or jobs;
//! 3. mappers read their split from the DFS (disk + network unless local),
//!    deserialize it, and emit into a [`sortbuffer::SortBuffer`] that
//!    serializes immediately, sorts and spills to local disk, runs the
//!    combiner per spill, and merges spills into per-partition segments;
//! 4. reducers fetch every mapper's segment over disk + network — "all
//!    shuffled data is serialized and communicated via local files and
//!    network and therefore there is equal cost for all destinations"
//!    (§6.1): Hadoop has no local-shuffle fast path, so the full cost is
//!    charged regardless of co-location;
//! 5. reduce output is serialized and written to the DFS with replication.
//!
//! All user code really executes (outputs are verified against M3R in the
//! integration tests); only time is simulated.

pub mod sortbuffer;

use std::sync::Arc;

use bytes::Bytes;
use hmr_api::collect::{MapCollector, OutputCollector};
use hmr_api::conf::JobConf;
use hmr_api::counters::{task_counter, Counters, TaskContext};
use hmr_api::distcache::DistCache;
use hmr_api::error::{HmrError, Result};
use hmr_api::fs::FileSystem;
use hmr_api::io::{seqfile, InputFormat, InputSplit, OutputFormat, RecordWriter};
use hmr_api::job::{Engine, JobDef, JobFrame, JobResult, LaneEngine};
use hmr_api::multi::NamedOutputs;
use hmr_api::task::{combine_run, reduce_partition};
use hmr_api::writable::Writable;
use simgrid::cost::Charge;
use simgrid::trace::{self, Phase};
use simgrid::{BufPool, Cluster, JobMem, MemClass, Meter, NodeId, Workers};

use sortbuffer::{decode_segment, SortBuffer};

/// Counter group for Hadoop-engine statistics (mirrors the `m3r` group).
pub const HADOOP_COUNTER_GROUP: &str = "hadoop";

/// Tuning knobs of the simulated Hadoop *installation*. Per-job behaviour
/// (node-level combining, the sort tunables) lives in the job's `JobConf`,
/// the memory budget on the cluster's accountant (`cluster.mem()`), and the
/// per-node buffer pools on the cluster.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Concurrent map tasks per node (paper testbed: 8 cores/node).
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// `io.sort.mb` analogue: map output buffered before spilling.
    pub sort_buffer_bytes: usize,
    /// Task attempts before the job fails (`mapred.map.max.attempts`).
    /// This is the resilience M3R deliberately gives up (§1): "if a node
    /// fails, the job controller has enough information to restart the
    /// computation ... there is no need to restart the entire job."
    pub max_task_attempts: usize,
    /// Whether a wave's slots may run on worker threads: `Auto` (default)
    /// decides per wave from the job's input size (`simgrid::pool`).
    /// Wall-clock only: simulated seconds, outputs and counters are
    /// bit-identical in every mode.
    pub workers: Workers,
    /// Cross-job result memoization (`m3r-memo`), whole-job hits only: the
    /// Hadoop engine keeps nothing between jobs, so there are no retained
    /// partitions to replay a map-prefix match from. The one switch; a job
    /// takes part by declaring a `memo_identity`. Off is bit-identical to
    /// no memoization.
    pub memoize: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            map_slots_per_node: 8,
            reduce_slots_per_node: 8,
            sort_buffer_bytes: 1 << 20,
            max_task_attempts: 4,
            workers: Workers::Auto,
            memoize: false,
        }
    }
}

/// The stock Hadoop MapReduce engine over a simulated cluster.
pub struct HadoopEngine {
    cluster: Cluster,
    fs: Arc<dyn FileSystem>,
    opts: EngineOptions,
    /// Cross-job reuse index: the engine object's long-lived state across
    /// simulated jobs, even though simulated tasks are not long-lived.
    memo: Arc<m3r_memo::ReuseIndex>,
}

impl HadoopEngine {
    /// An engine with default options.
    pub fn new(cluster: Cluster, fs: Arc<dyn FileSystem>) -> Self {
        HadoopEngine::with_options(cluster, fs, EngineOptions::default())
    }

    /// An engine with explicit options.
    pub fn with_options(cluster: Cluster, fs: Arc<dyn FileSystem>, opts: EngineOptions) -> Self {
        assert!(opts.map_slots_per_node >= 1 && opts.reduce_slots_per_node >= 1);
        // Memo entries are budget-live retained state (`MemClass::Memo`):
        // under the accountant's budget they compete, and are dropped, like
        // everything else — whether it was set before or after this engine
        // was built.
        let memo = Arc::new(m3r_memo::ReuseIndex::governed(cluster.len(), cluster.mem().clone()));
        memo.publish_telemetry(cluster.telemetry());
        HadoopEngine { cluster, fs, opts, memo }
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The job filesystem.
    pub fn fs(&self) -> &Arc<dyn FileSystem> {
        &self.fs
    }

    /// The cross-job reuse index (test/bench/report introspection).
    pub fn memo(&self) -> &Arc<m3r_memo::ReuseIndex> {
        &self.memo
    }

    /// The shared reuse policy as this engine binds it: no cache sits under
    /// the job filesystem, so it is also where the durable bytes live.
    fn reuse(&self) -> m3r_memo::Reuse<'_> {
        m3r_memo::Reuse {
            index: &self.memo,
            engine: "hadoop",
            enabled: self.opts.memoize,
            fs: &*self.fs,
            durable: &*self.fs,
        }
    }
}

/// Reducer-side output collector writing through the job's `RecordWriter`,
/// with lazy named side outputs (`MultipleOutputs`).
struct WriterCollector<'a, K, V> {
    writer: Box<dyn RecordWriter<K, V>>,
    named: NamedOutputs<'a, K, V>,
    records: u64,
}

impl<'a, K: Writable, V: Writable> WriterCollector<'a, K, V> {
    fn open(
        format: &'a dyn OutputFormat<K, V>,
        fs: &'a dyn FileSystem,
        conf: &'a JobConf,
        partition: usize,
    ) -> Result<Self> {
        Ok(WriterCollector {
            writer: format.record_writer(fs, conf, partition)?,
            named: NamedOutputs::new(format, fs, conf, partition),
            records: 0,
        })
    }

    fn close(self) -> Result<u64> {
        self.writer.close()?;
        self.named.close()?;
        Ok(self.records)
    }
}

impl<K: Writable, V: Writable> OutputCollector<K, V> for WriterCollector<'_, K, V> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        simgrid::meter::charge(Charge::Serialize {
            bytes: (key.serialized_size() + value.serialized_size()) as u64,
        });
        self.writer.write(&key, &value)?;
        self.records += 1;
        Ok(())
    }

    fn collect_named(&mut self, name: &str, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.named.write(name, &key, &value)?;
        self.records += 1;
        Ok(())
    }
}

/// Outcome of one map task.
struct MapTaskOutput {
    /// Per-partition serialized segments (empty for map-only jobs), held
    /// by refcount and read in place by reduce tasks.
    segments: Vec<Bytes>,
    counters: Counters,
    output_records: u64,
}

impl Engine for HadoopEngine {
    fn engine_name(&self) -> &'static str {
        "hadoop"
    }

    fn run_job<J: JobDef>(&mut self, job: Arc<J>, conf: &JobConf) -> Result<JobResult> {
        let cluster = self.cluster.clone();
        self.run_job_inner(&cluster, job, conf)
    }
}

impl LaneEngine for HadoopEngine {
    fn home(&self) -> &Cluster {
        &self.cluster
    }

    fn run_lane<J: JobDef>(
        &self,
        lane: &Cluster,
        _seq: u64,
        job: Arc<J>,
        conf: &JobConf,
    ) -> Result<JobResult> {
        // Hadoop keeps nothing between jobs (no cache, no quotas), so
        // the sequence number is irrelevant and lanes never need to be
        // serialized: the default `exclusive_only` (false) stands.
        self.run_job_inner(lane, job, conf)
    }

    fn try_memo_replay<J: JobDef>(
        &self,
        job: &Arc<J>,
        conf: &JobConf,
    ) -> Option<Result<JobResult>> {
        self.reuse().try_replay(&self.cluster, &**job, conf)
    }
}

/// What every phase and task of one running job needs: the engine's
/// long-lived state plus the job-scoped handles the frame opened.
struct Run<'a, J: JobDef> {
    engine: &'a HadoopEngine,
    cluster: &'a Cluster,
    tjob: u64,
    held: &'a JobMem,
    job: &'a J,
    conf: &'a Arc<JobConf>,
    output_format: &'a dyn OutputFormat<J::K3, J::V3>,
    num_reducers: usize,
    /// Σ split lengths — what `Workers::Auto` sizes the job by.
    input_bytes: u64,
    dist_cache: Arc<DistCache>,
}

impl HadoopEngine {
    /// The shared body of [`Engine::run_job`] and [`LaneEngine::run_lane`]:
    /// run one job against `cluster` — the home cluster on the classic
    /// blocking path, a [`Cluster::job_lane`] for server submissions.
    fn run_job_inner<J: JobDef>(
        &self,
        cluster: &Cluster,
        job: Arc<J>,
        conf: &JobConf,
    ) -> Result<JobResult> {
        let frame = JobFrame::open(cluster);
        let conf = Arc::new(conf.clone());

        // A whole-job memo hit replays the retained output bytes before the
        // job even opens — no submission, no JVM startups, no phases.
        let reuse = self.reuse();
        let basis = reuse.memo_basis(&*job, &conf);
        if let Some(basis) = &basis {
            match reuse.lookup_full(basis) {
                Some(hit) => return reuse.replay_full(frame, &conf, hit),
                None => self.memo.note_miss(),
            }
        }

        let output_format = job.output_format(&conf);
        let result = frame.run(
            format_args!("{} (hadoop)", conf.job_name()),
            &*self.fs,
            output_format.output_path(&conf),
            |tjob, held| self.execute(cluster, tjob, held, &*job, &conf, &*output_format),
        )?;
        // Retain the finished job's output for future resubmissions.
        if let Some(basis) = &basis {
            reuse.memo_record_full(basis, &conf, &result);
        }
        Ok(result)
    }

    /// Everything between the job frame's open and commit: submission,
    /// split planning, then heartbeat-paced map and reduce waves.
    fn execute<J: JobDef>(
        &self,
        cluster: &Cluster,
        tjob: u64,
        held: &JobMem,
        job: &J,
        conf: &Arc<JobConf>,
        output_format: &dyn OutputFormat<J::K3, J::V3>,
    ) -> Result<(Counters, u64)> {
        let nnodes = cluster.len();
        // Submission: jobid from the jobtracker, job configuration and user
        // code staged to the jobtracker's filesystem (§3.1). Charged through
        // the meter so the submit span captures it; the charge itself is
        // identical with tracing on or off.
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            trace::span(Phase::Submit, "submit", None, || {
                simgrid::meter::charge(Charge::JobSubmit);
            });
        });

        let input_format = job.input_format(conf);
        let splits =
            input_format.get_splits(&*self.fs, conf, nnodes * self.opts.map_slots_per_node)?;
        let num_reducers = conf.num_reduce_tasks();
        let convert = if num_reducers == 0 {
            Some(job.map_only_convert().ok_or_else(|| {
                HmrError::InvalidJob(
                    "0 reducers requires JobDef::map_only_convert (map-only job)".into(),
                )
            })?)
        } else {
            None
        };
        // Distributed cache staging, charged to the submitting node.
        let dist_cache = Arc::new(simgrid::with_meter(
            Meter::new(cluster.node(0).clone()),
            || trace::span(Phase::Setup, "dist_cache", None, || DistCache::load(conf, &*self.fs)),
        )?);
        let run = Run {
            engine: self,
            cluster,
            tjob,
            held,
            job,
            conf,
            output_format,
            num_reducers,
            input_bytes: splits.iter().map(|s| s.length()).sum(),
            dist_cache,
        };

        // "The map tasks (allocated close to their corresponding
        // InputSplits)": assign each split to its first replica host.
        let assigns: Vec<NodeId> = splits
            .iter()
            .enumerate()
            .map(|(i, s)| s.locations().first().copied().unwrap_or(i % nnodes) % nnodes)
            .collect();
        let mut counters = Counters::new();
        let mut output_records = 0u64;
        let mut map_outputs = run.map_phase(
            &*input_format,
            &splits,
            &assigns,
            convert,
            &mut counters,
            &mut output_records,
        )?;

        // What the reducers will actually fetch — the engine's shuffle
        // volume after any node-level combining. Recorded unconditionally
        // so combine-on/off benches compare like for like.
        let seg_bytes_total: i64 = map_outputs
            .iter()
            .flat_map(|segs| segs.iter())
            .map(|s| s.len() as i64)
            .sum();
        counters.incr(HADOOP_COUNTER_GROUP, "SHUFFLE_SEGMENT_BYTES", seg_bytes_total);

        if num_reducers > 0 {
            run.reduce_phase(&map_outputs, &mut counters, &mut output_records)?;
        }

        // Segments die with the job: un-park them and recycle the buffers
        // into their producing node's pool so the next job's sort buffers
        // start warm. (A handle that a straggling reader still holds simply
        // isn't reclaimed.) Un-parked here, segment by segment ahead of its
        // reclaim, so the watermark never counts a dead segment and its
        // pooled buffer at once; a failed job never gets here, and the
        // frame releases what its segments still held.
        for (task, segments) in map_outputs.drain(..).enumerate() {
            let node_id = assigns[task];
            let seg_bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
            held.shrink(node_id, MemClass::Shuffle, seg_bytes);
            for seg in segments {
                cluster.pool(node_id).reclaim(seg);
            }
        }
        Ok((counters, output_records))
    }
}

impl<J: JobDef> Run<'_, J> {
    /// The tasktracker receives work one heartbeat at a time.
    fn heartbeat(&self, node_id: NodeId) {
        simgrid::with_meter(Meter::new(self.cluster.node(node_id).clone()), || {
            trace::span(Phase::Barrier, "heartbeat", None, || {
                simgrid::meter::charge(Charge::Heartbeat);
            });
        });
    }

    /// Map tasks in slot-sized, heartbeat-paced waves per node. Returns the
    /// per-task, per-partition segments, parked on their producing nodes.
    fn map_phase(
        &self,
        input_format: &dyn InputFormat<J::K1, J::V1>,
        splits: &[Arc<dyn InputSplit>],
        assigns: &[NodeId],
        convert: Option<hmr_api::job::MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>,
        counters: &mut Counters,
        output_records: &mut u64,
    ) -> Result<Vec<Vec<Bytes>>> {
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); self.cluster.len()];
        for (i, &n) in assigns.iter().enumerate() {
            per_node[n].push(i);
        }
        let mut map_outputs: Vec<Vec<Bytes>> = (0..splits.len()).map(|_| Vec::new()).collect();
        // Node-level shared combine: only meaningful with reducers to
        // shuffle to and a combiner to merge with.
        let node_combine = self.conf.place_level_combine()
            && self.num_reducers > 0
            && self.job.create_combiner(self.conf).is_some();

        for (node_id, tasks) in per_node.iter().enumerate() {
            for wave in tasks.chunks(self.engine.opts.map_slots_per_node) {
                self.heartbeat(node_id);
                simgrid::pool::traced_wave(
                    self.cluster,
                    node_id,
                    self.tjob,
                    self.engine.opts.workers,
                    self.input_bytes,
                    wave.to_vec(),
                    |task: usize| {
                        // "If a node fails, the job controller ... restart[s]
                        // the computation" — failed attempts are retried
                        // (each paying startup again) up to the attempt
                        // limit.
                        trace::span(Phase::Map, "map", Some(task as u64), || {
                            retry_attempts(self.engine.opts.max_task_attempts, || {
                                self.map_task(
                                    input_format,
                                    splits[task].as_ref(),
                                    task,
                                    convert.clone(),
                                    self.cluster.pool(node_id),
                                )
                            })
                            .map(|out| (task, out))
                        })
                    },
                    |(task, out)| {
                        counters.merge(&out.counters);
                        *output_records += out.output_records;
                        // Segments are parked on the producing node until
                        // the reducers fetch them — live shuffle memory.
                        let seg_bytes: u64 = out.segments.iter().map(|s| s.len() as u64).sum();
                        self.held.grow(node_id, MemClass::Shuffle, seg_bytes);
                        map_outputs[task] = out.segments;
                        Ok(())
                    },
                )?;
                if node_combine {
                    counters.merge(&self.combine_wave_segments(node_id, wave, &mut map_outputs)?);
                }
            }
        }
        Ok(map_outputs)
    }

    /// Reduce tasks in slot-sized, heartbeat-paced waves; partition `p`
    /// reduces on node `p % nodes`.
    fn reduce_phase(
        &self,
        map_outputs: &[Vec<Bytes>],
        counters: &mut Counters,
        output_records: &mut u64,
    ) -> Result<()> {
        // No reducer finishes its sort before the last mapper is done;
        // the jobtracker notices completion on a heartbeat.
        let all_maps_done = self.cluster.max_time();
        for node in self.cluster.nodes() {
            node.clock().advance_to(all_maps_done);
        }
        let nnodes = self.cluster.len();
        for node_id in 0..nnodes {
            let parts: Vec<usize> = (node_id..self.num_reducers).step_by(nnodes).collect();
            for wave in parts.chunks(self.engine.opts.reduce_slots_per_node) {
                self.heartbeat(node_id);
                simgrid::pool::traced_wave(
                    self.cluster,
                    node_id,
                    self.tjob,
                    self.engine.opts.workers,
                    self.input_bytes,
                    wave.to_vec(),
                    |partition: usize| {
                        trace::span(Phase::Reduce, "reduce", Some(partition as u64), || {
                            retry_attempts(self.engine.opts.max_task_attempts, || {
                                self.reduce_task(map_outputs, partition)
                            })
                        })
                    },
                    |(task_counters, recs)| {
                        counters.merge(&task_counters);
                        *output_records += recs;
                        Ok(())
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Node-level shared combine — the Hadoop-engine analogue of M3R's
    /// place-level combine table. After a map wave's barrier, each
    /// partition's per-task segments are decoded in task order, sorted,
    /// merged through the job's combiner, and re-framed into a single
    /// segment parked under the wave's first contributing task (the others
    /// keep an empty segment, which the reduce fetch already skips). Runs on
    /// the tasktracker's driver thread in deterministic partition/task
    /// order, billed to the node clock under a [`Phase::Combine`] span. A
    /// partition whose decoded working set would breach the memory budget
    /// is left untouched: the job degrades to plain per-task streaming
    /// without changing outputs.
    fn combine_wave_segments(
        &self,
        node_id: NodeId,
        wave: &[usize],
        map_outputs: &mut [Vec<Bytes>],
    ) -> Result<Counters> {
        let (cluster, held) = (self.cluster, self.held);
        let mut combiner = self
            .job
            .create_combiner(self.conf)
            .expect("combine_wave_segments requires a combiner");
        let mut ctx = TaskContext::new(
            format!("combine_n_{node_id:06}"),
            Arc::clone(self.conf),
            Arc::clone(&self.dist_cache),
        );
        let sort_cmp = self.job.sort_comparator();
        let group_cmp = self.job.grouping_comparator();
        simgrid::with_meter(Meter::new(cluster.node(node_id).clone()), || {
            trace::span(Phase::Combine, "wave", None, || -> Result<()> {
                for partition in 0..self.num_reducers {
                    let contributing: Vec<usize> = wave
                        .iter()
                        .copied()
                        .filter(|&t| map_outputs[t].get(partition).is_some_and(|s| !s.is_empty()))
                        .collect();
                    // Nothing merges across fewer than two segments.
                    if contributing.len() < 2 {
                        continue;
                    }
                    let in_bytes: u64 = contributing
                        .iter()
                        .map(|&t| map_outputs[t][partition].len() as u64)
                        .sum();
                    // Governor interaction: the decoded working set is combine
                    // memory. If it would not fit the budget, skip this
                    // partition — reducers fetch the per-task segments as usual.
                    if let Some(budget) = cluster.mem().budget() {
                        if cluster.mem().live(node_id) + in_bytes > budget {
                            continue;
                        }
                    }
                    held.grow(node_id, MemClass::Combine, in_bytes);
                    let mut pairs: Vec<(Arc<J::K2>, Arc<J::V2>)> = Vec::new();
                    for &t in &contributing {
                        pairs.extend(decode_segment::<J::K2, J::V2>(&map_outputs[t][partition])?);
                    }
                    simgrid::meter::charge(Charge::Deserialize { bytes: in_bytes });
                    ctx.incr_task_counter(task_counter::COMBINE_INPUT_RECORDS, pairs.len() as i64);
                    let (out, _) =
                        combine_run(pairs, &mut *combiner, &sort_cmp, &group_cmp, &mut ctx)?;
                    ctx.incr_task_counter(task_counter::COMBINE_OUTPUT_RECORDS, out.len() as i64);
                    // The inputs are the wave tasks' already-sorted segments, so
                    // this is a k-way merge, not a fresh sort: bill one sort-pass
                    // record per emitted group (the merge's output walk). That
                    // keeps `records_sorted` a net win — reducers re-merge far
                    // fewer records than the wave produced.
                    simgrid::meter::charge(Charge::Sort {
                        records: out.len() as u64,
                    });
                    // Segments are framed as SequenceFile records: one
                    // header-first encode straight into the pooled buffer.
                    let mut buf = cluster.pool(node_id).get_any(in_bytes as usize);
                    for (k, v) in &out {
                        seqfile::append_record(&mut buf, &**k, &**v);
                    }
                    let seg = buf.freeze();
                    simgrid::meter::charge(Charge::Serialize {
                        bytes: seg.len() as u64,
                    });
                    // Swap the wave's segments for the combined one; shuffle
                    // accounting follows the parked bytes.
                    held.shrink(node_id, MemClass::Shuffle, in_bytes);
                    held.grow(node_id, MemClass::Shuffle, seg.len() as u64);
                    for &t in &contributing {
                        map_outputs[t][partition] = Bytes::new();
                    }
                    map_outputs[contributing[0]][partition] = seg;
                    held.shrink(node_id, MemClass::Combine, in_bytes);
                }
                Ok(())
            })
        })?;
        Ok(ctx.into_counters())
    }

    /// One map task attempt: fresh JVM, split read, real mapper execution,
    /// sort/spill/merge (or direct output for map-only jobs).
    fn map_task(
        &self,
        input_format: &dyn InputFormat<J::K1, J::V1>,
        split: &dyn InputSplit,
        task_idx: usize,
        convert: Option<hmr_api::job::MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>,
        pool: &BufPool,
    ) -> Result<MapTaskOutput> {
        let (job, conf, fs) = (self.job, self.conf, &*self.engine.fs);
        simgrid::meter::charge(Charge::TaskStartup);
        let mut ctx = TaskContext::new(
            format!("attempt_m_{task_idx:06}_0"),
            Arc::clone(conf),
            Arc::clone(&self.dist_cache),
        );
        ctx.set_split_tag(hmr_api::multi::split_tag(split));

        let mut mapper = job.create_mapper(conf);
        let mut reader = input_format.record_reader(fs, split, conf)?;
        // Deserializing the split's bytes into objects.
        simgrid::meter::charge(Charge::Deserialize {
            bytes: split.length(),
        });

        if let Some(convert) = convert {
            // Map-only: "output from the mapper is sent directly to output as
            // per Hadoop" (§5.3). The task writes part-<map index>.
            let mut sink = WriterCollector::open(self.output_format, fs, conf, task_idx)?;
            {
                let mut out = MapCollector::new(&mut sink, convert);
                mapper.setup(&mut ctx)?;
                while let Some((k, v)) = reader.next()? {
                    ctx.incr_task_counter(task_counter::MAP_INPUT_RECORDS, 1);
                    ctx.incr_task_counter(task_counter::MAP_OUTPUT_RECORDS, 1);
                    mapper.map(Arc::new(k), Arc::new(v), &mut out, &mut ctx)?;
                }
                mapper.cleanup(&mut out, &mut ctx)?;
            }
            let records = sink.close()?;
            return Ok(MapTaskOutput {
                segments: Vec::new(),
                counters: ctx.into_counters(),
                output_records: records,
            });
        }

        let mut buffer = SortBuffer::new(
            self.num_reducers,
            self.engine.opts.sort_buffer_bytes,
            job.partitioner(conf),
            job.sort_comparator(),
            job.grouping_comparator(),
            job.create_combiner(conf),
            TaskContext::new(
                format!("combiner_m_{task_idx:06}"),
                Arc::clone(conf),
                Arc::clone(&self.dist_cache),
            ),
        );
        mapper.setup(&mut ctx)?;
        let mut in_records = 0i64;
        while let Some((k, v)) = reader.next()? {
            in_records += 1;
            mapper.map(Arc::new(k), Arc::new(v), &mut buffer, &mut ctx)?;
        }
        mapper.cleanup(&mut buffer, &mut ctx)?;
        ctx.incr_task_counter(task_counter::MAP_INPUT_RECORDS, in_records);
        ctx.incr_task_counter(
            task_counter::MAP_OUTPUT_RECORDS,
            buffer.emitted_records() as i64,
        );
        let (segments, combiner_counters) = buffer.finish(Some(pool))?;
        let mut counters = ctx.into_counters();
        counters.merge(&combiner_counters);
        Ok(MapTaskOutput {
            segments,
            counters,
            output_records: 0,
        })
    }

    /// One reduce task attempt: fetch every mapper's segment (disk + network
    /// — Hadoop's shuffle has no local fast path), merge-sort out of core,
    /// then the shared reduce core writing straight to the DFS.
    fn reduce_task(
        &self,
        map_outputs: &[Vec<Bytes>],
        partition: usize,
    ) -> Result<(Counters, u64)> {
        simgrid::meter::charge(Charge::TaskStartup);
        let mut ctx = TaskContext::new(
            format!("attempt_r_{partition:06}_0"),
            Arc::clone(self.conf),
            Arc::clone(&self.dist_cache),
        );
        ctx.set_partition(Some(partition));

        // Shuffle fetch: every map task's segment for this partition.
        let mut total_bytes = 0u64;
        let mut pairs: Vec<(Arc<J::K2>, Arc<J::V2>)> = Vec::new();
        trace::span(Phase::Shuffle, "fetch", Some(partition as u64), || -> Result<()> {
            for segments in map_outputs {
                let Some(seg) = segments.get(partition) else {
                    continue;
                };
                if seg.is_empty() {
                    continue;
                }
                let bytes = seg.len() as u64;
                total_bytes += bytes;
                // Read the mapper's local spill file and move it over the
                // network; §6.1: equal cost for all destinations, local or
                // remote.
                simgrid::meter::charge(Charge::DiskRead { bytes });
                simgrid::meter::charge(Charge::NetTransfer { bytes });
                pairs.extend(decode_segment::<J::K2, J::V2>(seg)?);
            }
            simgrid::meter::charge(Charge::Deserialize { bytes: total_bytes });
            Ok(())
        })?;
        let sink = reduce_partition(
            self.job,
            partition,
            pairs,
            || {
                if total_bytes as usize > self.engine.opts.sort_buffer_bytes {
                    // Out-of-core merge: one extra round trip through local disk.
                    simgrid::meter::charge(Charge::DiskWrite { bytes: total_bytes });
                    simgrid::meter::charge(Charge::DiskRead { bytes: total_bytes });
                }
            },
            || WriterCollector::open(self.output_format, &*self.engine.fs, self.conf, partition),
            &mut ctx,
        )?;
        let records = sink.close()?;
        ctx.incr_task_counter(task_counter::REDUCE_OUTPUT_RECORDS, records as i64);
        Ok((ctx.into_counters(), records))
    }
}

/// Run `attempt` up to `max_attempts` times, returning the first success
/// or the last error — the jobtracker's retry loop. Each attempt performs
/// (and is charged for) its full startup + work again.
fn retry_attempts<T>(
    max_attempts: usize,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut last_err = None;
    for _ in 0..max_attempts.max(1) {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::comparator::KeyComparator;
    use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
    use hmr_api::io::{SequenceFileInputFormat, SequenceFileOutputFormat};
    use hmr_api::task::{IdentityMapper, IdentityReducer, LongSumReducer, TaskMapper, TaskReducer};
    use hmr_api::writable::{LongWritable, Text};
    use hmr_api::HPath;
    use simdfs::SimDfs;
    use simgrid::CostModel;

    /// WordCount: the canonical test job.
    struct WordCount {
        with_combiner: bool,
    }

    struct WcMapper;

    impl TaskMapper<LongWritable, Text, Text, LongWritable> for WcMapper {
        fn map(
            &mut self,
            _key: Arc<LongWritable>,
            value: Arc<Text>,
            out: &mut dyn OutputCollector<Text, LongWritable>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            for tok in value.as_str().split_whitespace() {
                out.collect(Arc::new(Text::from(tok)), Arc::new(LongWritable(1)))?;
            }
            Ok(())
        }
    }

    impl JobDef for WordCount {
        type K1 = LongWritable;
        type V1 = Text;
        type K2 = Text;
        type V2 = LongWritable;
        type K3 = Text;
        type V3 = LongWritable;

        fn create_mapper(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
            Box::new(WcMapper)
        }
        fn create_reducer(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
            Box::new(LongSumReducer)
        }
        fn create_combiner(
            &self,
            _conf: &JobConf,
        ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
            self.with_combiner.then(|| {
                Box::new(LongSumReducer)
                    as Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>
            })
        }
        fn input_format(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn InputFormat<LongWritable, Text>> {
            Box::new(hmr_api::io::TextInputFormat)
        }
        fn output_format(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn OutputFormat<Text, LongWritable>> {
            Box::new(SequenceFileOutputFormat::new())
        }
        fn name(&self) -> &str {
            "wordcount"
        }
    }

    fn setup(nodes: usize) -> (HadoopEngine, SimDfs) {
        let cluster = Cluster::new(nodes, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        let engine = HadoopEngine::with_options(
            cluster,
            Arc::new(fs.clone()),
            EngineOptions {
                map_slots_per_node: 2,
                reduce_slots_per_node: 2,
                sort_buffer_bytes: 1 << 16,
                max_task_attempts: 4,
                ..EngineOptions::default()
            },
        );
        (engine, fs)
    }

    fn wc_conf(reducers: usize) -> JobConf {
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/in"));
        conf.set_output_path(&HPath::new("/out"));
        conf.set_num_reduce_tasks(reducers);
        conf
    }

    fn load_counts(fs: &SimDfs, dir: &str, parts: usize) -> std::collections::BTreeMap<String, i64> {
        let mut m = std::collections::BTreeMap::new();
        for p in 0..parts {
            let path = HPath::new(format!("{dir}/part-{p:05}"));
            if !fs.exists(&path) {
                continue;
            }
            for (k, v) in read_seq_file::<Text, LongWritable>(fs, &path).unwrap() {
                *m.entry(k.as_str().to_string()).or_insert(0) += v.0;
            }
        }
        m
    }

    #[test]
    fn wordcount_produces_correct_counts() {
        let (mut engine, fs) = setup(3);
        hmr_api::fs::write_file(
            &fs,
            &HPath::new("/in/a.txt"),
            b"the quick brown fox\nthe lazy dog\nthe end",
        )
        .unwrap();
        hmr_api::fs::write_file(&fs, &HPath::new("/in/b.txt"), b"quick quick dog").unwrap();
        let result = engine
            .run_job(Arc::new(WordCount { with_combiner: false }), &wc_conf(2))
            .unwrap();
        let counts = load_counts(&fs, "/out", 2);
        assert_eq!(counts["the"], 3);
        assert_eq!(counts["quick"], 3);
        assert_eq!(counts["dog"], 2);
        assert_eq!(counts["end"], 1);
        assert_eq!(result.output_records, counts.len() as u64);
        assert!(fs.exists(&HPath::new("/out/_SUCCESS")));
        // Framework counters line up.
        assert_eq!(result.counters.task(task_counter::MAP_INPUT_RECORDS), 4);
        assert_eq!(result.counters.task(task_counter::MAP_OUTPUT_RECORDS), 12);
        assert_eq!(result.counters.task(task_counter::REDUCE_INPUT_RECORDS), 12);
        assert_eq!(
            result.counters.task(task_counter::REDUCE_OUTPUT_RECORDS),
            counts.len() as i64
        );
        assert!(result.sim_time > 0.0, "time passed");
        assert!(result.metrics.task_startups >= 4, "2 maps + 2 reduces");
    }

    #[test]
    fn combiner_shrinks_shuffle_but_not_answers() {
        let text = "a b a b a b c\n".repeat(50);
        let (mut engine, fs) = setup(2);
        hmr_api::fs::write_file(&fs, &HPath::new("/in/t.txt"), text.as_bytes()).unwrap();
        let without = engine
            .run_job(Arc::new(WordCount { with_combiner: false }), &wc_conf(2))
            .unwrap();
        let counts_plain = load_counts(&fs, "/out", 2);
        fs.delete(&HPath::new("/out"), true).unwrap();
        let with = engine
            .run_job(Arc::new(WordCount { with_combiner: true }), &wc_conf(2))
            .unwrap();
        let counts_comb = load_counts(&fs, "/out", 2);
        assert_eq!(counts_plain, counts_comb, "combiner must not change results");
        assert_eq!(counts_comb["a"], 150);
        assert!(
            with.counters.task(task_counter::REDUCE_INPUT_RECORDS)
                < without.counters.task(task_counter::REDUCE_INPUT_RECORDS),
            "combiner reduces shuffled records"
        );
        assert!(with.counters.task(task_counter::COMBINE_INPUT_RECORDS) > 0);
    }

    #[test]
    fn node_combine_shrinks_segments_but_not_answers() {
        // One split per file: four files give each node a multi-task wave,
        // which is what node-level combining merges across.
        let text = "a b a b a b c\n".repeat(50);
        let (mut engine, fs) = setup(2);
        for i in 0..4 {
            hmr_api::fs::write_file(&fs, &HPath::new(format!("/in/t{i}.txt")), text.as_bytes())
                .unwrap();
        }
        // Baseline: per-mapper combiner only.
        let off = engine
            .run_job(Arc::new(WordCount { with_combiner: true }), &wc_conf(2))
            .unwrap();
        let counts_off = load_counts(&fs, "/out", 2);
        fs.delete(&HPath::new("/out"), true).unwrap();
        // Same job opted into node-level combining via the conf knob.
        let mut conf = wc_conf(2);
        conf.set_place_level_combine(true);
        let on = engine
            .run_job(Arc::new(WordCount { with_combiner: true }), &conf)
            .unwrap();
        let counts_on = load_counts(&fs, "/out", 2);
        assert_eq!(counts_off, counts_on, "node combine must not change results");
        let seg = |r: &JobResult| r.counters.get(HADOOP_COUNTER_GROUP, "SHUFFLE_SEGMENT_BYTES");
        assert!(
            seg(&on) < seg(&off),
            "wave combine parks fewer segment bytes: {} vs {}",
            seg(&on),
            seg(&off)
        );
        assert!(
            on.counters.task(task_counter::REDUCE_INPUT_RECORDS)
                < off.counters.task(task_counter::REDUCE_INPUT_RECORDS),
            "reducers fetch fewer records with wave combining on"
        );
    }

    #[test]
    fn every_job_pays_startup_and_disk_costs() {
        // The structural claim behind the paper's Figure 6 Hadoop line:
        // repeating an identical job costs the same again — no caching.
        let (mut engine, fs) = setup(2);
        hmr_api::fs::write_file(&fs, &HPath::new("/in/t.txt"), b"x y z x").unwrap();
        let r1 = engine
            .run_job(Arc::new(WordCount { with_combiner: false }), &wc_conf(1))
            .unwrap();
        fs.delete(&HPath::new("/out"), true).unwrap();
        let r2 = engine
            .run_job(Arc::new(WordCount { with_combiner: false }), &wc_conf(1))
            .unwrap();
        assert!(r2.metrics.disk_bytes_read >= r1.metrics.disk_bytes_read);
        assert_eq!(r2.metrics.task_startups, r1.metrics.task_startups);
        assert!(
            (r2.sim_time - r1.sim_time).abs() < 0.35 * r1.sim_time.max(1e-9),
            "iterations cost roughly the same: {} vs {}",
            r1.sim_time,
            r2.sim_time
        );
    }

    /// Identity job over sequence files, used for map-only and sorting tests.
    struct IdJob;

    impl JobDef for IdJob {
        type K1 = LongWritable;
        type V1 = Text;
        type K2 = LongWritable;
        type V2 = Text;
        type K3 = LongWritable;
        type V3 = Text;
        fn create_mapper(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn TaskMapper<LongWritable, Text, LongWritable, Text>> {
            Box::new(IdentityMapper)
        }
        fn create_reducer(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn TaskReducer<LongWritable, Text, LongWritable, Text>> {
            Box::new(IdentityReducer)
        }
        fn input_format(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn InputFormat<LongWritable, Text>> {
            Box::new(SequenceFileInputFormat::new())
        }
        fn output_format(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn OutputFormat<LongWritable, Text>> {
            Box::new(SequenceFileOutputFormat::new())
        }
        fn map_only_convert(
            &self,
        ) -> Option<hmr_api::job::MapOnlyConvert<LongWritable, Text, LongWritable, Text>>
        {
            Some(Arc::new(|k, v| (k, v)))
        }
        fn sort_comparator(&self) -> KeyComparator<LongWritable> {
            KeyComparator::natural()
        }
    }

    #[test]
    fn map_only_job_writes_directly() {
        let (mut engine, fs) = setup(2);
        let records: Vec<(LongWritable, Text)> = (0..10)
            .map(|i| (LongWritable(i), Text::from(format!("v{i}"))))
            .collect();
        write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
        let result = engine.run_job(Arc::new(IdJob), &wc_conf(0)).unwrap();
        assert_eq!(result.output_records, 10);
        // Output file indexed by the map task, not a reducer partition.
        let back: Vec<(LongWritable, Text)> =
            read_seq_file(&fs, &HPath::new("/out/part-00000")).unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(
            result.counters.task(task_counter::REDUCE_INPUT_RECORDS),
            0,
            "no reduce phase ran"
        );
    }

    #[test]
    fn reduce_output_is_sorted_by_key() {
        let (mut engine, fs) = setup(2);
        let mut records: Vec<(LongWritable, Text)> = (0..50)
            .map(|i| (LongWritable(100 - i), Text::from(format!("v{i}"))))
            .collect();
        records.push((LongWritable(-5), Text::from("first")));
        write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
        engine.run_job(Arc::new(IdJob), &wc_conf(1)).unwrap();
        let back: Vec<(LongWritable, Text)> =
            read_seq_file(&fs, &HPath::new("/out/part-00000")).unwrap();
        assert_eq!(back.len(), 51);
        for w in back.windows(2) {
            assert!(w[0].0 <= w[1].0, "reduce input sort order leaks to output");
        }
        assert_eq!(back[0].1.as_str(), "first");
    }

    #[test]
    fn map_only_without_convert_is_invalid() {
        struct NoConvert;
        impl JobDef for NoConvert {
            type K1 = LongWritable;
            type V1 = Text;
            type K2 = LongWritable;
            type V2 = Text;
            type K3 = LongWritable;
            type V3 = Text;
            fn create_mapper(
                &self,
                _c: &JobConf,
            ) -> Box<dyn TaskMapper<LongWritable, Text, LongWritable, Text>> {
                Box::new(IdentityMapper)
            }
            fn create_reducer(
                &self,
                _c: &JobConf,
            ) -> Box<dyn TaskReducer<LongWritable, Text, LongWritable, Text>> {
                Box::new(IdentityReducer)
            }
            fn input_format(
                &self,
                _c: &JobConf,
            ) -> Box<dyn InputFormat<LongWritable, Text>> {
                Box::new(SequenceFileInputFormat::new())
            }
            fn output_format(
                &self,
                _c: &JobConf,
            ) -> Box<dyn OutputFormat<LongWritable, Text>> {
                Box::new(SequenceFileOutputFormat::new())
            }
        }
        let (mut engine, fs) = setup(1);
        write_seq_file(
            &fs,
            &HPath::new("/in/part-00000"),
            &[(LongWritable(1), Text::from("x"))],
        )
        .unwrap();
        let err = engine.run_job(Arc::new(NoConvert), &wc_conf(0)).unwrap_err();
        assert!(matches!(err, HmrError::InvalidJob(_)));
    }

    #[test]
    fn startup_dominates_tiny_jobs() {
        // The paper's motivation: "small HMR jobs can run essentially
        // instantly on M3R, avoiding the huge (10s of second) start-up cost
        // of the HMR engine." Verify the simulated Hadoop overhead floor.
        let (mut engine, fs) = setup(2);
        hmr_api::fs::write_file(&fs, &HPath::new("/in/tiny.txt"), b"one word").unwrap();
        let r = engine
            .run_job(Arc::new(WordCount { with_combiner: false }), &wc_conf(1))
            .unwrap();
        assert!(
            r.sim_time > 5.0,
            "submission + heartbeats + JVM startups put a floor under job time, got {}",
            r.sim_time
        );
    }
}
