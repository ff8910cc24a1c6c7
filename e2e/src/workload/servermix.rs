//! `servermix`: the seeded 6-client × 8-job independent / chained /
//! shared-input mix of `m3r_bench::servermix`, through `JobServer<M3REngine>`.
//!
//! A pass is one *server lifetime* on the warm engine: `with_options` →
//! rounds of 48 tickets (submit all round-robin, then `wait()` in order: a
//! closed loop with 48 outstanding, one generator thread, no waiter
//! threads) → `shutdown()` returning the engine. Jobs are 400 records, so
//! the per-job fixed cost — admission lock, conflict DAG, two thread
//! handoffs, lane create/fold, `World` finish/at, barriers — is the work
//! and data movement is negligible. Each pass includes the first
//! `rounds × 48` jobs of server ageing (`scheduler::admit`/`pick_ready`
//! scan every entry ever admitted; `entries` is never pruned).
//!
//! The kind roll is restated here so `--seed` drives it. The mix has fixed
//! *counts* per kind (55 / 25 / 20 % of the 42 non-first jobs: 23 / 11 / 8)
//! and the seed permutes which (client, job) slot gets which kind, so the
//! amount of work does not depend on the seed — only the DAG's shape does.

use std::sync::Arc;
use std::time::Instant;

use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{FileSystem, HPath};
use hmr_api::io::part_file_name;
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::writable::{IntWritable, Text, Writable};
use m3r::{CachingFs, M3REngine, M3ROptions};
use m3r_bench::servermix::{conf, id_job, CLIENTS, JOBS_PER_CLIENT, RECORDS, REDUCERS};
use m3r_server::{JobServer, JobStatus, ServerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdfs::SimDfs;
use simgrid::Cluster;

use super::{
    fresh_cluster, scattered, Checksum, PassReport, Sizes, Stopwatch, Workload, SERVER_WORKERS,
    WORKER_THREADS,
};
use crate::span::Spans;
use crate::stats;

/// Tickets per round.
pub const TICKETS_PER_ROUND: usize = CLIENTS * JOBS_PER_CLIENT;
/// Index of the shared dataset among the base inputs (after the clients').
const SHARED: usize = CLIENTS;

/// One entry of the round plan, in submission order.
#[derive(Clone, Debug, PartialEq)]
struct Planned {
    client: usize,
    job: usize,
    kind: Kind,
    /// The base input this job's records descend from (a client index or
    /// [`SHARED`]): the identity job preserves them, so the output's
    /// checksum must equal this input's.
    root: usize,
}

/// What a job in the mix reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The client's private base input: no conflict edges.
    Independent,
    /// The client's previous output: a dependency chain.
    Chained,
    /// The shared dataset: a read-read overlap across clients.
    Shared,
}

/// The seeded round plan: job 0 of every client is independent (nothing to
/// chain to yet); the other 42 slots get 23 independent, 11 chained and 8
/// shared kinds in a seeded permutation. Round-robin submission order.
fn round_plan(seed: u64) -> Vec<Planned> {
    let slots = CLIENTS * (JOBS_PER_CLIENT - 1);
    let chained = slots * 25 / 100 + 1; // 11 of 42
    let shared = slots * 20 / 100; // 8 of 42
    let mut kinds = vec![Kind::Independent; slots];
    kinds[..chained].fill(Kind::Chained);
    kinds[chained..chained + shared].fill(Kind::Shared);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..slots).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }
    let mut root: Vec<usize> = (0..CLIENTS).collect();
    let mut plan = Vec::with_capacity(TICKETS_PER_ROUND);
    for job in 0..JOBS_PER_CLIENT {
        for (client, root) in root.iter_mut().enumerate() {
            let kind = if job == 0 {
                Kind::Independent
            } else {
                kinds[(job - 1) * CLIENTS + client]
            };
            *root = match kind {
                Kind::Independent => client,
                Kind::Chained => *root,
                Kind::Shared => SHARED,
            };
            plan.push(Planned {
                client,
                job,
                kind,
                root: *root,
            });
        }
    }
    plan
}

fn base_input(i: usize) -> String {
    if i == SHARED {
        "/shared".to_string()
    } else {
        format!("/c{i}/in")
    }
}

fn output_dir(round: usize, client: usize, job: usize) -> String {
    format!("/r{round}/c{client}/job{job}")
}

fn record_checksum(sum: &mut Checksum, k: &IntWritable, v: &Text) {
    let mut bytes = Vec::with_capacity(80);
    k.write_to(&mut bytes);
    v.write_to(&mut bytes);
    sum.add(&bytes);
}

/// What the server's own recorder says about one pass (traced run only).
#[derive(Clone, Debug, Default)]
pub struct ServerPass {
    pub submit_call_us: f64,
    pub conflict_wait_ms: f64,
    pub queue_wait_ms: f64,
    pub lane_run_ms: f64,
    pub fold_delay_ms: f64,
    pub lane_utilization: f64,
    pub ticket_ms_p50: f64,
    pub ticket_ms_p90: f64,
    /// Fastest ticket's time inside `run_lane`: `core.run_job_ms`.
    pub run_job_ms: f64,
}

/// The mix on a `JobServer<M3REngine>`.
pub struct ServerMix {
    cluster: Cluster,
    dfs: SimDfs,
    /// `None` only while a pass's server owns the engine.
    engine: Option<M3REngine>,
    fs: Arc<CachingFs>,
    plan: Vec<Planned>,
    rounds: usize,
    base_sums: Vec<Checksum>,
    /// Recorder-derived per-ticket statistics of the last traced pass.
    last_server_pass: ServerPass,
}

impl ServerMix {
    /// One server lifetime of `rounds` rounds. Returns the per-round wall
    /// times in `unit_wall_ms`.
    fn lifetime(&mut self, rounds: usize, rec: &mut Spans) -> Result<PassReport> {
        let mut report = PassReport::default();
        let mut sw = Stopwatch::default();
        let mut submit_ns = 0u64;
        rec.enter("pass");
        let engine = self.engine.take().expect("engine is home between passes");
        let (server, clients) = sw.time(|| {
            let server = JobServer::with_options(
                engine,
                ServerOptions {
                    workers: SERVER_WORKERS,
                    ..ServerOptions::default()
                },
            );
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| server.client_as(&format!("client-{c}")))
                .collect();
            (server, clients)
        });
        let recorder = server.flight_recorder();
        // Ticket stamps are nanoseconds since the server's epoch.
        let epoch_offset = rec.now_ns().saturating_sub(recorder.now_ns());
        let mut round_spans = Vec::with_capacity(rounds);
        let job = id_job();
        for round in 0..rounds {
            round_spans.push(rec.enter("round"));
            let t0 = Instant::now();
            sw.time(|| {
                let mut last_out: Vec<String> = (0..CLIENTS).map(base_input).collect();
                let mut tickets = Vec::with_capacity(self.plan.len());
                for p in &self.plan {
                    let input = match p.kind {
                        Kind::Independent => base_input(p.client),
                        Kind::Chained => last_out[p.client].clone(),
                        Kind::Shared => base_input(SHARED),
                    };
                    let output = output_dir(round, p.client, p.job);
                    let c = conf(&input, &output);
                    let s0 = Instant::now();
                    let ticket = clients[p.client].submit(Arc::clone(&job), &c);
                    submit_ns += s0.elapsed().as_nanos() as u64;
                    last_out[p.client] = output;
                    tickets.push(ticket);
                }
                for ticket in tickets {
                    let result = ticket.and_then(|t| {
                        let r = t.wait()?;
                        if t.status() == JobStatus::Completed && r.output_records == RECORDS as u64
                        {
                            Ok(r)
                        } else {
                            Err(HmrError::Io("wrong status or record count".into()))
                        }
                    });
                    if let Ok(r) = &result {
                        report.dfs_output_records += r.output_records;
                    }
                    report.absorb(&result);
                }
            });
            report.unit_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rec.exit();
            if round > 0 {
                // Untimed: the previous round's outputs are never read again.
                self.fs
                    .delete(&HPath::new(format!("/r{}", round - 1)), true)?;
            }
        }
        let traces = if rec.enabled() {
            recorder.traces()
        } else {
            Vec::new()
        };
        if !traces.is_empty() {
            let rollup = server.rollup(u64::MAX);
            let n = traces.len() as f64;
            let mean_ms = |f: fn(&m3r_server::ClientStat) -> u64| {
                rollup.clients.iter().map(f).sum::<u64>() as f64 / n / 1e6
            };
            let totals: Vec<f64> = traces.iter().map(|t| t.total_ns() as f64 / 1e6).collect();
            let lane_runs: Vec<f64> = traces
                .iter()
                .map(|t| t.lane_run_ns() as f64 / 1e6)
                .collect();
            let busy_ns: u64 = rollup.lanes.iter().map(|l| l.busy_ns).sum();
            self.last_server_pass = ServerPass {
                submit_call_us: submit_ns as f64 / n / 1e3,
                conflict_wait_ms: mean_ms(|c| c.conflict_wait_ns),
                queue_wait_ms: mean_ms(|c| c.queue_wait_ns),
                lane_run_ms: mean_ms(|c| c.lane_run_ns),
                fold_delay_ms: mean_ms(|c| c.fold_delay_ns),
                lane_utilization: busy_ns as f64 / 1e9 / (SERVER_WORKERS as f64 * sw.wall_s),
                ticket_ms_p50: stats::median(&totals),
                ticket_ms_p90: stats::p90(&totals),
                run_job_ms: stats::fastest(&lane_runs),
            };
            for t in &traces {
                let round = (t.seq as usize - 1) / TICKETS_PER_ROUND;
                rec.add_closed(
                    round_spans.get(round).copied().flatten(),
                    "ticket",
                    // One track per slot of the round plan: the 48 tickets
                    // of a round overlap each other, rounds do not.
                    1 + ((t.seq as usize - 1) % TICKETS_PER_ROUND) as u32,
                    t.submitted_ns + epoch_offset,
                    t.resolved_ns + epoch_offset,
                );
            }
        }
        self.engine = Some(sw.time(|| server.shutdown()));
        rec.exit();
        report.stamp(sw);
        Ok(report)
    }
}

impl Workload for ServerMix {
    type K = IntWritable;
    type V = Text;

    fn build(seed: u64, sizes: &Sizes, rec: &mut Spans) -> Result<Self> {
        rec.enter("cluster");
        let (cluster, dfs) = fresh_cluster();
        rec.exit();

        rec.enter("dfs_generate");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_da7a);
        let mut base_sums = Vec::with_capacity(CLIENTS + 1);
        for i in 0..=CLIENTS {
            let mut sum = Checksum::default();
            let records: Vec<(IntWritable, Text)> = (0..RECORDS)
                .map(|r| {
                    let tail: String = (0..6)
                        .map(|_| format!("{:08x}", rng.gen::<u32>()))
                        .collect();
                    let rec = (IntWritable(r), Text::from(format!("{i:04}-{r:06}-{tail}")));
                    record_checksum(&mut sum, &rec.0, &rec.1);
                    rec
                })
                .collect();
            write_seq_file(
                &dfs,
                &HPath::new(base_input(i)).join(&part_file_name(0)),
                &records,
            )?;
            base_sums.push(sum);
        }
        rec.exit();

        rec.enter("engine_start");
        let engine = M3REngine::with_options(
            cluster.clone(),
            Arc::new(dfs.clone()),
            M3ROptions {
                worker_threads: WORKER_THREADS,
                ..M3ROptions::default()
            },
        );
        let fs = Arc::clone(engine.caching_fs());
        rec.exit();

        Ok(ServerMix {
            cluster,
            dfs,
            engine: Some(engine),
            fs,
            plan: round_plan(seed),
            rounds: sizes.rounds,
            base_sums,
            last_server_pass: ServerPass::default(),
        })
    }

    fn pass(&mut self, rec: &mut Spans) -> Result<PassReport> {
        self.lifetime(self.rounds, rec)
    }

    fn clear_outputs(&mut self) -> Result<()> {
        self.fs
            .delete(&HPath::new(format!("/r{}", self.rounds - 1)), true)?;
        Ok(())
    }

    /// Every output of the last round holds its root input's records:
    /// `RECORDS` of them, checksum equal. (Status and record count of
    /// *every* ticket are checked as it resolves, inside the pass.)
    fn verify(&mut self) -> Result<u64> {
        let mut wrong = 0;
        for p in &self.plan {
            let dir = HPath::new(output_dir(self.rounds - 1, p.client, p.job));
            let mut sum = Checksum::default();
            for part in 0..REDUCERS {
                for (k, v) in
                    read_seq_file::<IntWritable, Text>(&self.dfs, &dir.join(&part_file_name(part)))?
                {
                    record_checksum(&mut sum, &k, &v);
                }
            }
            wrong += u64::from(sum != self.base_sums[p.root]);
        }
        Ok(wrong)
    }

    fn input_checksum(&mut self) -> Result<u64> {
        Ok(self
            .base_sums
            .iter()
            .fold(0u64, |acc, s| acc.rotate_left(7) ^ s.sum))
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cache_bytes(&self) -> u64 {
        self.engine.as_ref().map_or(0, |e| e.cache().total_bytes())
    }

    fn sample_pairs(&mut self, n: usize) -> Result<Vec<(Arc<IntWritable>, Arc<Text>)>> {
        let base = read_seq_file::<IntWritable, Text>(
            &self.dfs,
            &HPath::new(base_input(0)).join(&part_file_name(0)),
        )?;
        Ok(scattered(base, n))
    }

    fn server_pass(&self) -> Option<ServerPass> {
        Some(self.last_server_pass.clone())
    }

    fn aged_rounds(&mut self, rounds: usize) -> Result<Option<Vec<f64>>> {
        let report = self.lifetime(rounds, &mut Spans::new(false))?;
        self.fs
            .delete(&HPath::new(format!("/r{}", rounds - 1)), true)?;
        if report.failed > 0 {
            return Err(HmrError::Io("ageing run had failed tickets".into()));
        }
        Ok(Some(report.unit_wall_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_fixed_kind_counts_and_the_seed_only_permutes_them() {
        let count = |plan: &[Planned], k: Kind| plan.iter().filter(|p| p.kind == k).count();
        let a = round_plan(1);
        let b = round_plan(2);
        assert_eq!(a, round_plan(1), "same seed, same plan");
        assert_ne!(a, b, "different seed, different plan");
        for plan in [&a, &b] {
            assert_eq!(plan.len(), TICKETS_PER_ROUND);
            assert_eq!(count(plan, Kind::Chained), 11);
            assert_eq!(count(plan, Kind::Shared), 8);
            assert_eq!(count(plan, Kind::Independent), 29);
            assert!(plan[..CLIENTS]
                .iter()
                .all(|p| p.job == 0 && p.kind == Kind::Independent));
        }
        // A chained job inherits the root of the client's previous job.
        for (i, p) in a.iter().enumerate().skip(CLIENTS) {
            if p.kind == Kind::Chained {
                assert_eq!(p.root, a[i - CLIENTS].root);
            }
        }
    }
}
