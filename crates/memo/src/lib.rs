#![warn(missing_docs)]

//! # m3r-memo — ReStore-style cross-job result memoization
//!
//! MapReduce workloads resubmit work constantly: dashboards re-run the same
//! aggregation over unchanged inputs, iterative drivers re-launch
//! structurally identical jobs, and exploratory queries share long map
//! pipelines and differ only in the final reduction. ReStore (Elghandour &
//! Aboulnaga, VLDB 2012) showed that retaining and reusing prior job
//! outputs turns these into (near-)free operations. M3R's long-lived
//! in-memory places make the idea cheap to host: retained results are just
//! more governed heap, alongside the §3.2 kv cache.
//!
//! Three pieces, one per module:
//!
//! * [`fingerprint`] — the canonical job fingerprint: inputs (path +
//!   content version), declared compute identity, normalized semantic
//!   conf, engine name. Hashed with the workspace's fnv1a kernel. The
//!   [`Fingerprint`] type is deliberately unconstructible outside this
//!   crate.
//! * [`index`] — the per-server [`ReuseIndex`]: fingerprint → retained
//!   whole-job outputs and map-phase partition sets, owner-tagged
//!   `MemClass::Memo`, invalidated when any input's DFS version changes,
//!   dropped (never spilled) LRU-first under budget pressure.
//! * [`reuse`] — the policy both engines run over the index: the
//!   eligibility gate, whole-job replay, and record-on-exit, parameterised
//!   by engine name and the engine's two filesystem views.
//!
//! The engines own only the wiring: they bind a [`Reuse`], consult it
//! before running (a whole-job hit runs nothing; on M3R a map-prefix hit —
//! identical map pipeline, different reducer — replays the reduce side
//! only), and record on the way out. The §5.3 job server additionally
//! calls `LaneEngine::try_memo_replay` pre-admission so whole-job hits
//! resolve tickets without occupying a dispatch lane. Everything is off by
//! default (`M3ROptions::memoize` / `EngineOptions::memoize`) and
//! bit-identical to the non-memoized engine when off.

pub mod fingerprint;
pub mod index;
pub mod reuse;

pub use fingerprint::{Fingerprint, FingerprintBasis, NON_SEMANTIC_KEYS};
pub use index::{FullHit, ReuseIndex};
pub use reuse::Reuse;

#[cfg(test)]
mod prop {
    use super::*;
    use hmr_api::conf::JobConf;
    use hmr_api::counters::Counters;
    use hmr_api::fs::{write_file, FileSystem, HPath, MemFs};
    use hmr_api::job::ComputeIdentity;
    use proptest::prelude::*;

    /// Build the same seeded job twice, entirely independently.
    fn seeded_basis(seed: u64, files: &[(String, Vec<u8>)]) -> (MemFs, JobConf, FingerprintBasis) {
        let fs = MemFs::new();
        let mut paths = Vec::new();
        for (name, data) in files {
            let p = HPath::new(format!("/in/{name}"));
            write_file(&fs, &p, data).unwrap();
            paths.push(p);
        }
        let mut conf = JobConf::new();
        conf.set_input_paths(&paths)
            .set_output_path(&HPath::new("/out"))
            .set_num_reduce_tasks((seed % 7 + 1) as usize)
            .set(format!("user.seed.{}", seed % 3), seed.to_string());
        let id = ComputeIdentity::new(format!("map-{}", seed % 5), format!("red-{}", seed % 4));
        let basis = FingerprintBasis::gather(&fs, &conf, &id, "m3r", &[]).unwrap();
        (fs, conf, basis)
    }

    proptest! {
        #[test]
        fn same_seeded_job_agrees_on_fingerprint(
            seed in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let files = vec![("a".to_string(), data)];
            let (_fs1, _c1, b1) = seeded_basis(seed, &files);
            let (_fs2, _c2, b2) = seeded_basis(seed, &files);
            prop_assert_eq!(b1.job_fingerprint(), b2.job_fingerprint());
            prop_assert_eq!(b1.map_fingerprint(), b2.map_fingerprint());
        }

        #[test]
        fn mutating_any_input_invalidates_the_entry(
            seed in any::<u64>(),
            which in 0usize..3,
            flip in any::<u8>(),
        ) {
            let files: Vec<(String, Vec<u8>)> = (0..3)
                .map(|i| (format!("f{i}"), vec![i as u8; 8]))
                .collect();
            let (fs, _conf, basis) = seeded_basis(seed, &files);
            let idx = ReuseIndex::new(4);
            idx.record_full(
                basis.job_fingerprint(),
                basis.input_versions().to_vec(),
                vec![("part-00000".to_string(), bytes::Bytes::copy_from_slice(b"o"))],
                Counters::new(),
            );
            prop_assert!(idx.lookup_full(basis.job_fingerprint(), &fs).is_some());

            // Mutate one input file's bytes (guaranteed different content).
            let victim = HPath::new(format!("/in/f{which}"));
            let mut data = vec![which as u8; 8];
            data[0] ^= flip | 1;
            fs.delete(&victim, false).unwrap();
            write_file(&fs, &victim, &data).unwrap();

            prop_assert!(idx.lookup_full(basis.job_fingerprint(), &fs).is_none());
            prop_assert_eq!(idx.invalidations(), 1);
            // And the fingerprint itself moved, so a re-run records afresh.
            let id = ComputeIdentity::new(
                format!("map-{}", seed % 5),
                format!("red-{}", seed % 4),
            );
            let again = FingerprintBasis::gather(&fs, &_conf, &id, "m3r", &[]).unwrap();
            prop_assert_ne!(again.job_fingerprint(), basis.job_fingerprint());
        }
    }

    #[test]
    fn simdfs_backed_fingerprints_work_too() {
        // The same flow over the simulated HDFS (content versions stamped
        // at writer close) — the memo subsystem is filesystem-agnostic.
        let cluster = simgrid::Cluster::free(4);
        let dfs = simdfs::SimDfs::new(cluster);
        write_file(&dfs, &HPath::new("/in/a"), b"hdfs bytes").unwrap();
        let mut conf = JobConf::new();
        conf.set_input_paths(&[HPath::new("/in/a")])
            .set_num_reduce_tasks(2);
        let id = ComputeIdentity::new("m", "r");
        let b1 = FingerprintBasis::gather(&dfs, &conf, &id, "m3r", &[]).unwrap();
        dfs.delete(&HPath::new("/in/a"), false).unwrap();
        write_file(&dfs, &HPath::new("/in/a"), b"hdfs bytes").unwrap();
        let b2 = FingerprintBasis::gather(&dfs, &conf, &id, "m3r", &[]).unwrap();
        assert_eq!(b1.job_fingerprint(), b2.job_fingerprint());
    }
}
