#![warn(missing_docs)]

//! # m3r-server — the multi-tenant M3R job server (paper §5.3)
//!
//! "M3R also supports a (still somewhat experimental) server mode. In this
//! mode, M3R starts up and registers an IPC server that implements the
//! Hadoop JobTracker protocol. Clients can submit jobs as usual, and the
//! M3R server ... will run the job. It is possible to simply replace the
//! Hadoop server daemon with the M3R one." The paper ran all of BigSheets
//! this way, unmodified — many clients sharing one warm engine.
//!
//! This crate is that server mode grown into a real multi-tenant
//! scheduler:
//!
//! * [`Client::submit`] returns **immediately** with a [`JobTicket`] —
//!   poll it, block on it, or cancel it;
//! * a [`SubmissionBuilder`] carries per-client identity, priority, a
//!   cache quota, and explicit dependencies;
//! * independent jobs from different clients run **concurrently** on
//!   isolated [`simgrid::Cluster::job_lane`]s over the shared places,
//!   while jobs whose file footprints conflict are ordered by a
//!   dependency DAG in admission order;
//! * completed lanes fold back into the home cluster in admission order,
//!   so simulated seconds, metrics and outputs are **bit-identical** to a
//!   serialized schedule regardless of worker count;
//! * per-client cache quotas plug into the governed cache: over-quota
//!   tenants are evicted first;
//! * a [`FlightRecorder`] stamps every ticket's lifecycle
//!   (`submitted → ready → dispatched → lane-done → resolved`) in wall
//!   nanoseconds, attributes the latency exactly across conflict-wait /
//!   queue-wait / lane-run / fold-delay, rolls the traces up into
//!   per-client percentiles with SLO breach counts and per-lane
//!   utilization ([`ServerRollup`]), answers the home cluster's
//!   [`simgrid::telemetry::TelemetryRegistry`] from that same log at
//!   export time, and renders wall-clock lane tracks with submit→dispatch
//!   flow arrows for the Chrome trace viewer — all without perturbing a
//!   single simulated bit. The scheduler itself keeps only the jobs in
//!   flight: an entry is dropped once its lane has folded.
//!
//! The generic [`JobServer`] works over any [`hmr_api::job::LaneEngine`];
//! [`M3RServer`]/[`M3RClient`] are the M3R-engine aliases matching the old
//! blocking API's names.

pub mod flight;
pub mod scheduler;
pub mod submit;
pub mod ticket;

pub use flight::{ClientStat, FlightRecorder, LaneStat, ServerRollup, TicketTrace};
pub use scheduler::{JobServer, ServerOptions};
pub use submit::{Client, SubmissionBuilder};
pub use ticket::{JobStatus, JobTicket, WaitOutcome};

/// The job server specialized to the M3R engine (the daemon of §5.3).
pub type M3RServer = JobServer<m3r::M3REngine>;

/// A client of an [`M3RServer`].
pub type M3RClient = submit::Client<m3r::M3REngine>;

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::conf::JobConf;
    use hmr_api::counters::task_counter;
    use hmr_api::error::HmrError;
    use hmr_api::io::seqfile::write_seq_file;
    use hmr_api::partition::HashPartitioner;
    use hmr_api::writable::{IntWritable, Text};
    use hmr_api::HPath;
    use m3r::{M3REngine, RepartitionJob};
    use simdfs::SimDfs;
    use simgrid::{Cluster, CostModel};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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

    #[test]
    fn clients_share_one_engine_and_cache() {
        let cluster = Cluster::new(2, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        let records: Vec<(IntWritable, Text)> = (0..20)
            .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
            .collect();
        write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

        let server = M3RServer::start(M3REngine::new(cluster, Arc::new(fs.clone())));
        let c1 = server.client_as("alice");
        let c2 = server.client_as("bob");

        // Client 1 reads /in (cold); client 2's job over the same input is
        // served from the cache client 1 populated — one engine, one heap.
        // The shared input is a conflict edge, so the jobs run in admission
        // order even with concurrent workers.
        let t1 = c1.submit(id_job(), &conf("/in", "/o1")).unwrap();
        let t2 = c2.submit(id_job(), &conf("/in", "/o2")).unwrap();
        let r1 = t1.wait().unwrap();
        assert_eq!(r1.counters.task(task_counter::CACHE_HIT_RECORDS), 0);
        let r2 = t2.wait().unwrap();
        assert_eq!(r2.counters.task(task_counter::CACHE_HIT_RECORDS), 20);
        assert_eq!(t1.status(), JobStatus::Completed);
        assert_eq!(t1.client(), "alice");
        assert_eq!(t2.client(), "bob");

        // Shutdown returns the warm engine, cache intact.
        let engine = server.shutdown();
        assert!(engine.cache().total_bytes() > 0);
    }

    #[test]
    fn concurrent_clients_all_complete_through_the_server() {
        let cluster = Cluster::new(2, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        let records: Vec<(IntWritable, Text)> = (0..8)
            .map(|i| (IntWritable(i), Text::from("x")))
            .collect();
        write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
        let server = M3RServer::start(M3REngine::new(cluster, Arc::new(fs.clone())));

        std::thread::scope(|s| {
            for t in 0..6 {
                let client = server.client_as(&format!("tenant-{t}"));
                s.spawn(move || {
                    let r = client
                        .submit(id_job(), &conf("/in", &format!("/out{t}")))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(r.output_records, 8);
                });
            }
        });
        use hmr_api::fs::FileSystem;
        for t in 0..6 {
            assert!(fs.exists(&HPath::new(format!("/out{t}/part-00000"))));
        }
    }

    /// The scheduler keeps an entry only until its lane has folded: after a
    /// long mixed history nothing is left, and a seq that has retired reads
    /// as resolved to `after` and as too late to `cancel`.
    #[test]
    fn scheduler_retires_every_entry_it_has_folded() {
        use hmr_api::fs::FileSystem;
        let cluster = Cluster::new(2, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        let records: Vec<(IntWritable, Text)> = (0..8)
            .map(|i| (IntWritable(i), Text::from("x")))
            .collect();
        write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
        let server = M3RServer::with_options(
            M3REngine::new(cluster, Arc::new(fs.clone())),
            ServerOptions { workers: 2 },
        );
        let client = server.client();

        // Everything below reads `/in`, and shared reads are conflict edges:
        // until this first job's partitioner factory is released the whole
        // mix stays queued behind it, so every cancel lands on a queued job.
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let gated = Arc::new(RepartitionJob::<IntWritable, Text>::new(move || {
            while !gate.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            Box::new(HashPartitioner)
        }));
        let mut tickets = vec![client.submit(gated, &conf("/in", "/gate")).unwrap()];
        for round in 0..20 {
            // Independent of its round-mates, chained on it (reads its
            // output), and one parked behind the chain by an explicit edge
            // and cancelled.
            let head = client
                .submit(id_job(), &conf("/in", &format!("/a{round}")))
                .unwrap();
            let chained = client
                .submit(id_job(), &conf(&format!("/a{round}"), &format!("/b{round}")))
                .unwrap();
            let doomed = client
                .submission()
                .after(&chained)
                .submit(id_job(), &conf("/in", &format!("/c{round}")))
                .unwrap();
            assert!(doomed.cancel(), "queued behind the gate");
            tickets.extend([head, chained, doomed]);
        }
        release.store(true, Ordering::SeqCst);
        for t in &tickets {
            let _ = t.wait();
        }
        assert_eq!(tickets.len(), 61);

        // `wait` returns at resolve; the fold (and with it the retirement)
        // follows under the same lock hold, so one lock round-trip later
        // the map is empty.
        {
            let st = server.shared.state.lock();
            assert!(st.entries.is_empty(), "{} entries never retired", st.entries.len());
            assert_eq!(st.next_fold, st.next_seq, "everything admitted has folded");
        }

        let first = &tickets[0];
        assert!(!first.cancel(), "a retired ticket is too late to cancel");
        let late = client
            .submission()
            .after(first)
            .submit(id_job(), &conf("/in", "/late"))
            .unwrap();
        assert_eq!(late.wait().unwrap().output_records, 8);
        let flight = server.flight_recorder();
        let trace = flight.traces().into_iter().find(|t| t.seq == late.id());
        assert_eq!(trace.expect("late ticket recorded").deps, 0, "a retired dep is resolved");
        server.shutdown();
        assert!(fs.exists(&HPath::new("/late/part-00000")));
    }

    #[test]
    fn submitting_after_shutdown_fails_cleanly() {
        let cluster = Cluster::new(1, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 1);
        let server = M3RServer::start(M3REngine::new(cluster, Arc::new(fs)));
        let client = server.client();
        drop(server);
        let err = client.submit(id_job(), &conf("/in", "/out")).unwrap_err();
        assert!(matches!(err, HmrError::ServerShutdown(_)));
    }
}
