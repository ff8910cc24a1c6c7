//! Per-layer timing probes for the traced run. Each probe calls one layer's
//! public function directly — from outside, like the benchmark's spans —
//! on records shaped and counted like the workload's, and reports the
//! fastest of repeated batches.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use hadoop_engine::sortbuffer::SortBuffer;
use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::comparator::{ingest_reduce_groups, sort_pairs_tuned, KeyComparator, SortTuning};
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::distcache::DistCache;
use hmr_api::error::Result;
use hmr_api::fs::{read_file, write_file, FileSystem, HPath, MemFs};
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::io::{InputFormat, TextInputFormat};
use hmr_api::job::Engine;
use hmr_api::partition::HashPartitioner;
use hmr_api::writable::{ByteReader, IntWritable, Text, WritableKey, WritableValue};
use hmr_api::OutputCollector;
use kvstore::{BlockData, KPath, KvStore};
use m3r::shuffle::{decode_stream, ShuffleStream};
use m3r::{KvCache, M3REngine, M3ROptions, RepartitionJob};
use m3r_bench::latency::{small_seq, NoopEngine};
use m3r_server::{JobServer, ServerOptions};
use simgrid::cost::Charge;
use simgrid::{BufPool, Meter};
use x10rt::serialize::{DedupMode, Serializer};
use x10rt::World;

use crate::run::Metric;
use crate::span::Spans;
use crate::stats;
use crate::workload::{fresh_cluster, PARTITIONS, PLACES, SERVER_WORKERS, WORKER_THREADS};

/// Operations per batch of the single-operation probes. Tests run a debug
/// build (the binary refuses to measure one) and only need every probe to
/// report.
const OPS: usize = if cfg!(debug_assertions) { 200 } else { 20_000 };

/// Batches per probe; the fastest is reported.
const BATCHES: usize = 12;

/// The fastest of `BATCHES` runs of `batch` (which returns the nanoseconds
/// it timed), divided by `ops`.
fn ns_per_op(ops: usize, mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch() as f64 / ops.max(1) as f64)
        .collect();
    stats::fastest(&samples)
}

fn timed_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// The probes that depend on the workload's record shape: `pairs` are
/// sample records in scattered arrival order, `ingest` of them are what one
/// reduce task ingests.
pub fn record_probes<K: WritableKey, V: WritableValue>(
    pairs: &[(Arc<K>, Arc<V>)],
    ingest: usize,
    rec: &mut Spans,
) -> Result<Vec<Metric>> {
    let n = pairs.len();
    let mut out = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));

    // -- hmr-api: Writable encode / decode -----------------------------------
    rec.enter("probe.hmr-api");
    let mut wire: Vec<u8> = Vec::new();
    push(
        "hmr-api.writable_encode_ns_per_rec",
        ns_per_op(n, || {
            wire.clear();
            timed_ns(|| {
                for (k, v) in pairs {
                    k.write_to(&mut wire);
                    v.write_to(&mut wire);
                }
            })
        }),
        "ns",
    );
    push(
        "hmr-api.writable_decode_ns_per_rec",
        ns_per_op(n, || {
            timed_ns(|| {
                let mut r = ByteReader::new(&wire);
                for _ in 0..n {
                    let k = K::read_from(&mut r).expect("decode what encode wrote");
                    let v = V::read_from(&mut r).expect("decode what encode wrote");
                    std::hint::black_box((k, v));
                }
            })
        }),
        "ns",
    );

    // -- hmr-api: sequence-file write / read over an in-memory filesystem ----
    let owned: Vec<(K, V)> = pairs
        .iter()
        .map(|(k, v)| ((**k).clone(), (**v).clone()))
        .collect();
    let memfs = MemFs::new();
    let seq_path = HPath::new("/probe/seq");
    push(
        "hmr-api.seqfile_write_ns_per_rec",
        ns_per_op(n, || {
            let _ = memfs.delete(&seq_path, false);
            timed_ns(|| {
                write_seq_file(&memfs, &seq_path, &owned).expect("write probe seqfile");
            })
        }),
        "ns",
    );
    push(
        "hmr-api.seqfile_read_ns_per_rec",
        ns_per_op(n, || {
            timed_ns(|| {
                std::hint::black_box(
                    read_seq_file::<K, V>(&memfs, &seq_path).expect("read probe seqfile"),
                );
            })
        }),
        "ns",
    );

    // -- hmr-api: reduce-ingest sort and hash-group at the ingest size -------
    let natural: KeyComparator<K> = KeyComparator::natural();
    let tuning = SortTuning::default();
    let ingest_pairs: Vec<(Arc<K>, Arc<V>)> =
        pairs.iter().cycle().take(ingest.max(1)).cloned().collect();
    push(
        "hmr-api.sort_ns_per_rec",
        ns_per_op(ingest_pairs.len(), || {
            let mut p = ingest_pairs.clone();
            timed_ns(|| {
                sort_pairs_tuned(&mut p, &natural, &tuning, None);
                std::hint::black_box(p.len());
            })
        }),
        "ns",
    );
    push(
        "hmr-api.group_ns_per_rec",
        ns_per_op(ingest_pairs.len(), || {
            let mut p = ingest_pairs.clone();
            timed_ns(|| {
                std::hint::black_box(
                    ingest_reduce_groups(&mut p, &natural, &natural, &tuning, None).len(),
                );
            })
        }),
        "ns",
    );
    rec.exit();

    // -- x10rt: Serializer record encode, full de-duplication -----------------
    rec.enter("probe.x10rt");
    push(
        "x10rt.serialize_ns_per_rec",
        ns_per_op(n, || {
            let mut ser = Serializer::with_capacity(wire.len() + n * 8, DedupMode::Full);
            let ns = timed_ns(|| {
                for (k, v) in pairs {
                    ser.write_arc_with(k, |k, buf| k.write_to(buf));
                    ser.write_arc_with(v, |v, buf| v.write_to(buf));
                }
            });
            std::hint::black_box(ser.len());
            ns
        }),
        "ns",
    );
    rec.exit();

    // -- core: shuffle route and stream decode ---------------------------------
    rec.enter("probe.core");
    let mut stream_bytes = Bytes::new();
    push(
        "core.shuffle_route_ns_per_rec",
        ns_per_op(n, || {
            let mut stream = ShuffleStream::new(DedupMode::Full);
            stream.reserve(wire.len() + n * 12);
            let ns = timed_ns(|| {
                for (i, (k, v)) in pairs.iter().enumerate() {
                    stream.push(i % PARTITIONS, k, v);
                }
            });
            stream_bytes = stream.finish().0;
            ns
        }),
        "ns",
    );
    push(
        "core.decode_stream_ns_per_rec",
        ns_per_op(n, || {
            let bytes = stream_bytes.clone();
            timed_ns(|| {
                let decoded = decode_stream::<K, V>(bytes).filter(|r| r.is_ok()).count();
                assert_eq!(decoded, n, "probe stream decodes completely");
            })
        }),
        "ns",
    );
    rec.exit();

    // -- hadoop-engine: sort-buffer collect + spill + merge ---------------------
    rec.enter("probe.hadoop-engine");
    push(
        "hadoop-engine.sortbuffer_ns_per_rec",
        ns_per_op(n, || {
            let ctx = TaskContext::new(
                "probe",
                Arc::new(JobConf::new()),
                Arc::new(DistCache::empty()),
            );
            let mut buf = SortBuffer::new(
                PARTITIONS,
                EngineOptions::default().sort_buffer_bytes,
                Box::new(HashPartitioner),
                KeyComparator::natural(),
                KeyComparator::natural(),
                None,
                ctx,
            );
            timed_ns(|| {
                for (k, v) in pairs {
                    buf.collect(Arc::clone(k), Arc::clone(v))
                        .expect("collect into sort buffer");
                }
                std::hint::black_box(buf.finish(None).expect("merge spills").0.len());
            })
        }),
        "ns",
    );
    rec.exit();
    Ok(out)
}

/// The probes that do not depend on the record shape.
pub fn fixed_probes(rec: &mut Spans) -> Result<Vec<Metric>> {
    let mut out = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));

    // -- hmr-api: text line reader ----------------------------------------------
    rec.enter("probe.hmr-api");
    let memfs = MemFs::new();
    let text_path = HPath::new("/probe/text");
    workloads::generate_text(&memfs, &text_path, 256 << 10, 7)?;
    let lines = read_file(&memfs, &text_path)?
        .iter()
        .filter(|b| **b == b'\n')
        .count();
    let mut conf = JobConf::new();
    conf.add_input_path(&text_path);
    let splits = TextInputFormat.get_splits(&memfs, &conf, 1)?;
    push(
        "hmr-api.text_read_ns_per_rec",
        ns_per_op(lines, || {
            timed_ns(|| {
                let mut reader = TextInputFormat
                    .record_reader(&memfs, &*splits[0], &conf)
                    .expect("open text split");
                let mut got = 0;
                while let Some(line) = reader.next().expect("read line") {
                    std::hint::black_box(line);
                    got += 1;
                }
                assert_eq!(got, lines);
            })
        }),
        "ns",
    );
    rec.exit();

    // -- x10rt: one finish + at round trip over all places ----------------------
    rec.enter("probe.x10rt");
    let world = World::new(PLACES);
    world.broadcast(|_| {});
    let rounds = 200;
    push(
        "x10rt.finish_at_us",
        ns_per_op(rounds, || {
            timed_ns(|| {
                for _ in 0..rounds {
                    world.broadcast(|_| {});
                }
            })
        }) / 1e3,
        "us",
    );
    drop(world);
    rec.exit();

    // -- kvstore: block put / get ------------------------------------------------
    rec.enter("probe.kvstore");
    let store: KvStore<u64> = KvStore::new(PLACES);
    let path = KPath::new("/probe/block");
    let payload: BlockData = Arc::new(vec![0u8; 64]);
    let ops = OPS;
    push(
        "kvstore.put_ns",
        ns_per_op(ops, || {
            timed_ns(|| {
                for _ in 0..ops {
                    store
                        .write_block(0, &path, 7, Arc::clone(&payload), 64)
                        .expect("kvstore put");
                }
            })
        }),
        "ns",
    );
    push(
        "kvstore.get_ns",
        ns_per_op(ops, || {
            timed_ns(|| {
                for _ in 0..ops {
                    std::hint::black_box(store.create_reader(&path, &7).expect("kvstore get"));
                }
            })
        }),
        "ns",
    );
    rec.exit();

    // -- core: governed-cache resident hit; empty-job fixed cost ------------------
    rec.enter("probe.core");
    let cache = KvCache::new(PLACES);
    let hot = HPath::new("/probe/hot");
    cache.put_seq(0, &hot, small_seq(4), 64)?;
    push(
        "core.cache_hit_ns",
        ns_per_op(ops, || {
            timed_ns(|| {
                for _ in 0..ops {
                    std::hint::black_box(
                        cache
                            .get_seq::<IntWritable, Text>(&hot, None)
                            .expect("resident"),
                    );
                }
            })
        }),
        "ns",
    );
    let (cluster, dfs) = fresh_cluster();
    let mut m3r = M3REngine::with_options(
        cluster,
        Arc::new(dfs),
        M3ROptions {
            worker_threads: WORKER_THREADS,
            ..M3ROptions::default()
        },
    );
    let m3r_fs = Arc::clone(m3r.caching_fs());
    push("core.empty_job_ms", empty_job_ms(&mut m3r, &*m3r_fs)?, "ms");
    drop(m3r);
    rec.exit();

    rec.enter("probe.hadoop-engine");
    let (cluster, dfs) = fresh_cluster();
    let mut hadoop = HadoopEngine::with_options(
        cluster,
        Arc::new(dfs),
        EngineOptions {
            map_slots_per_node: WORKER_THREADS,
            reduce_slots_per_node: WORKER_THREADS,
            ..EngineOptions::default()
        },
    );
    let hadoop_fs = Arc::clone(hadoop.fs());
    push(
        "hadoop-engine.empty_job_ms",
        empty_job_ms(&mut hadoop, &*hadoop_fs)?,
        "ms",
    );
    drop(hadoop);
    rec.exit();

    // -- simdfs: whole-file write / read ------------------------------------------
    rec.enter("probe.simdfs");
    let (_cluster, dfs) = fresh_cluster();
    // Three 8 MB blocks: the read stitches blocks like a multi-block split.
    let blob = vec![0x5au8; 24 << 20];
    let blob_path = HPath::new("/probe/blob");
    let mb = blob.len() as f64 / 1e6;
    push(
        "simdfs.write_mb_per_s",
        mb / (ns_per_op(1, || {
            let _ = dfs.delete(&blob_path, false);
            timed_ns(|| write_file(&dfs, &blob_path, &blob).expect("dfs write"))
        }) / 1e9),
        "MB/s",
    );
    push(
        "simdfs.read_mb_per_s",
        mb / (ns_per_op(1, || {
            timed_ns(|| {
                std::hint::black_box(read_file(&dfs, &blob_path).expect("dfs read").len());
            })
        }) / 1e9),
        "MB/s",
    );
    rec.exit();

    // -- simgrid: buffer-pool cycle, one metered charge ---------------------------
    rec.enter("probe.simgrid");
    let pool = BufPool::new();
    pool.reclaim(pool.get(1 << 16).freeze());
    push(
        "simgrid.bufpool_cycle_ns",
        ns_per_op(ops, || {
            timed_ns(|| {
                for _ in 0..ops {
                    let buf = pool.get(1 << 16);
                    pool.reclaim(buf.freeze());
                }
            })
        }),
        "ns",
    );
    let (cluster, _dfs) = fresh_cluster();
    let meter = Meter::new(cluster.node(0).clone());
    push(
        "simgrid.charge_ns",
        ns_per_op(ops, || {
            simgrid::meter::with_meter(meter.clone(), || {
                timed_ns(|| {
                    for _ in 0..ops {
                        std::hint::black_box(simgrid::meter::charge(Charge::Serialize {
                            bytes: 64,
                        }));
                    }
                })
            })
        }),
        "ns",
    );
    rec.exit();

    // -- server: submit → resolve of a no-op job ----------------------------------
    rec.enter("probe.server");
    let server_ops = 256;
    push(
        "server.noop_roundtrip_us",
        ns_per_op(server_ops, || {
            // Fresh server per batch with a bounded op count: admission
            // scans every prior entry, so an unbounded loop would measure
            // the ageing, not the round trip.
            let server = JobServer::with_options(
                NoopEngine::new(),
                ServerOptions {
                    workers: SERVER_WORKERS,
                    ..ServerOptions::default()
                },
            );
            let client = server.client();
            let job = m3r_bench::servermix::id_job();
            let conf = JobConf::new();
            client
                .submit(Arc::clone(&job), &conf)
                .expect("submit")
                .wait()
                .expect("noop job");
            let ns = timed_ns(|| {
                for _ in 0..server_ops {
                    client
                        .submit(Arc::clone(&job), &conf)
                        .expect("submit")
                        .wait()
                        .expect("noop job");
                }
            });
            server.shutdown();
            ns
        }) / 1e3,
        "us",
    );
    rec.exit();
    Ok(out)
}

/// Fastest wall milliseconds of an identity job over an empty input: the
/// fixed cost of a job on this engine.
fn empty_job_ms<E: Engine>(engine: &mut E, fs: &dyn FileSystem) -> Result<f64> {
    let input = HPath::new("/probe/empty/part-00000");
    write_seq_file::<IntWritable, Text>(fs, &input, &[])?;
    let job = Arc::new(RepartitionJob::<IntWritable, Text>::new(|| {
        Box::new(HashPartitioner)
    }));
    let output = HPath::new("/probe/empty-out");
    let mut samples = Vec::new();
    for i in 0..40 {
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/probe/empty"));
        conf.set_output_path(&output);
        conf.set_num_reduce_tasks(PARTITIONS);
        let t0 = Instant::now();
        engine.run_job(Arc::clone(&job), &conf)?;
        if i >= 4 {
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        fs.delete(&output, true)?;
    }
    Ok(stats::fastest(&samples))
}
