//! The reuse policy both engines run: which jobs may participate, how a
//! whole-job hit is replayed, and what a finished job leaves behind. One
//! policy; an engine binds only the four things that differ ([`Reuse`]).

use hmr_api::conf::JobConf;
use hmr_api::error::Result;
use hmr_api::fs::{self, FileSystem};
use hmr_api::job::{JobDef, JobFrame, JobResult};

use crate::fingerprint::FingerprintBasis;
use crate::index::{FullHit, ReuseIndex};

/// One engine's binding of the reuse policy.
pub struct Reuse<'a> {
    /// The engine's reuse index.
    pub index: &'a ReuseIndex,
    /// Engine name: part of every fingerprint (the two engines never share
    /// entries) and of the replay's trace-job label.
    pub engine: &'static str,
    /// The engine's `memoize` option — the one switch. A job takes part
    /// per job by declaring `JobDef::memo_identity`.
    pub enabled: bool,
    /// The filesystem view jobs read and write through.
    pub fs: &'a dyn FileSystem,
    /// Where the durable bytes live: the `_SUCCESS` marker is created here
    /// and finished part files are read back from here. For M3R the DFS
    /// *under* its cache; for Hadoop the same filesystem as `fs`.
    pub durable: &'a dyn FileSystem,
}

impl Reuse<'_> {
    /// The memo eligibility gate: `Some(basis)` iff this job can
    /// participate in cross-job memoization. Requires memoization enabled,
    /// a declared compute identity, a real reduce phase, a durable non-temp
    /// output directory, and a content version for every input and cache
    /// file (`gather` returns `None` otherwise). Unmetered — version reads
    /// are namenode metadata and this runs outside any phase meter.
    pub fn memo_basis<J: JobDef>(&self, job: &J, conf: &JobConf) -> Option<FingerprintBasis> {
        if !self.enabled {
            return None;
        }
        let identity = job.memo_identity()?;
        if conf.num_reduce_tasks() == 0 {
            return None;
        }
        let out = conf.output_path()?;
        if conf.is_temp_output(&out) {
            return None;
        }
        FingerprintBasis::gather(self.fs, conf, &identity, self.engine, &[])
    }

    /// A still-valid retained whole-job result for `basis`, if any.
    pub fn lookup_full(&self, basis: &FingerprintBasis) -> Option<FullHit> {
        self.index.lookup_full(basis.job_fingerprint(), self.fs)
    }

    /// Replay a retained whole-job result: write the stored part bytes (and
    /// the `_SUCCESS` marker) into the submitted conf's output directory,
    /// all unmetered — the job "runs" in ~0 simulated seconds with zero
    /// map/shuffle spans. The trace still opens a job, labelled
    /// `"<name> (<engine> memo)"`, keeping rollup job numbering consistent
    /// with submission order; it simply has no spans. Parts are written
    /// through the job's own view, so an engine cache over it stays
    /// coherent (create invalidates a previously cached part).
    pub fn replay_full(&self, frame: JobFrame, conf: &JobConf, hit: FullHit) -> Result<JobResult> {
        let out_dir = conf.output_path().expect("memo_basis() gated on output");
        frame.run(
            format_args!("{} ({} memo)", conf.job_name(), self.engine),
            conf,
            self.durable,
            Some(out_dir.clone()),
            |_, _| {
                for (name, bytes) in &hit.parts {
                    let path = out_dir.join(name);
                    if self.fs.exists(&path) {
                        self.fs.delete(&path, false)?;
                    }
                    fs::write_file(self.fs, &path, bytes)?;
                }
                Ok(hit.counters)
            },
        )
    }

    /// The pre-admission stage behind `LaneEngine::try_memo_replay`: on a
    /// whole-job hit, replay it on `cluster` without running anything.
    pub fn try_replay<J: JobDef>(
        &self,
        cluster: &simgrid::Cluster,
        job: &J,
        conf: &JobConf,
    ) -> Option<Result<JobResult>> {
        let hit = self.lookup_full(&self.memo_basis(job, conf)?)?;
        Some(self.replay_full(JobFrame::open(cluster), conf, hit))
    }

    /// Read the finished job's part files back (unmetered) and retain them
    /// under its whole-job fingerprint. Best-effort: an unreadable output
    /// directory just skips recording — memoization must never fail a job
    /// that already succeeded.
    pub fn memo_record_full(&self, basis: &FingerprintBasis, conf: &JobConf, result: &JobResult) {
        let Some(out_dir) = conf.output_path() else {
            return;
        };
        let Ok(listing) = self.durable.list_status(&out_dir) else {
            return;
        };
        let mut parts = Vec::new();
        for st in listing {
            if st.is_dir {
                continue;
            }
            let name = st.path.name().unwrap_or_default().to_string();
            if name == "_SUCCESS" {
                continue;
            }
            match fs::read_file(self.durable, &st.path) {
                Ok(bytes) => parts.push((name, bytes)),
                Err(_) => return,
            }
        }
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        self.index.record_full(
            basis.job_fingerprint(),
            basis.input_versions().to_vec(),
            parts,
            result.counters.clone(),
        );
    }
}
