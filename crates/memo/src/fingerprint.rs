//! Canonical job fingerprints.
//!
//! A fingerprint is the identity ReStore-style memoization keys on: two
//! submissions share a fingerprint exactly when the subsystem can prove they
//! would produce the same output bytes. The basis folds together
//!
//! * every input and cache-file path with its filesystem *content version*
//!   (a content hash — see `FileSystem::content_version`), so any byte
//!   change to any input, or any add/remove/rename under an input
//!   directory, changes the fingerprint;
//! * the job's declared [`ComputeIdentity`] (mapper / reducer / combiner /
//!   partitioner), so only jobs running the same code can collide;
//! * the *semantic* subset of the effective `JobConf`, normalized: keys are
//!   iterated in sorted (BTreeMap) order and keys that cannot change output
//!   bytes — job name, client id, the place-combine switch, and the
//!   path-carrying keys hashed separately — are excluded;
//! * the engine name and any engine options that affect output bytes.
//!
//! Everything is hashed with the same fnv1a kernel the comparators use.

use hmr_api::comparator::fnv1a;
use hmr_api::conf::{self, JobConf};
use hmr_api::fs::{FileSystem, HPath};
use hmr_api::job::ComputeIdentity;

/// An opaque 64-bit job fingerprint.
///
/// The field is private on purpose: fingerprints may only be *derived* (via
/// [`FingerprintBasis`]) inside this crate, never constructed ad hoc by a
/// caller — a CI grep gate enforces that no `Fingerprint(` constructor
/// appears outside `crates/memo`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw hash value (for sharding and display; cannot be turned back
    /// into a `Fingerprint` outside this crate).
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Conf keys excluded from the fingerprint because their value cannot change
/// the job's output bytes (or because they are hashed through a dedicated
/// channel instead of as raw conf text).
///
/// * Labels and routing: job name, client id.
/// * The place-combine switch: combining is pinned byte-identical in
///   outputs by the tier-1 tests.
/// * Path-carrying keys: inputs and cache files enter as `(path, content
///   version)` pairs; the output path is where results *land*, not what
///   they *are* — a hit may replay into a different output directory.
/// * Engine selection: the engine name enters the basis explicitly.
pub const NON_SEMANTIC_KEYS: &[&str] = &[
    conf::JOB_NAME,
    conf::CLIENT_ID,
    conf::PLACE_COMBINE,
    conf::INPUT_PATHS,
    conf::CACHE_FILES,
    conf::OUTPUT_PATH,
    conf::TEMP_PREFIX,
    conf::TEMP_PATHS,
    conf::USE_HADOOP,
];

/// The gathered, normalized material a fingerprint is derived from.
///
/// Gathering and hashing are split so the engine can reuse the same basis
/// for the whole-job fingerprint, the map-phase prefix fingerprint, and the
/// input-version snapshot stored alongside the memo entry for later
/// invalidation checks.
#[derive(Clone, Debug)]
pub struct FingerprintBasis {
    engine: String,
    identity: ComputeIdentity,
    inputs: Vec<(HPath, u64)>,
    conf_semantic: Vec<(String, String)>,
    engine_knobs: Vec<(String, String)>,
}

impl FingerprintBasis {
    /// Gather the basis for `conf` against `fs`.
    ///
    /// Returns `None` when any input or cache file lacks a content version
    /// (missing path, or an unversioned filesystem): without proof of input
    /// content the memo subsystem must neither record nor replay.
    ///
    /// `engine_knobs` are the engine options that affect output bytes,
    /// pre-rendered by the engine (e.g. nothing today: both engines pin
    /// byte-identical output across all their knobs, so they pass `&[]` —
    /// the parameter exists so any future bytes-affecting option has an
    /// obvious place to go).
    pub fn gather(
        fs: &dyn FileSystem,
        conf: &JobConf,
        identity: &ComputeIdentity,
        engine: &str,
        engine_knobs: &[(String, String)],
    ) -> Option<FingerprintBasis> {
        let mut inputs = Vec::new();
        for path in conf.input_paths().into_iter().chain(conf.cache_files()) {
            let v = fs.content_version(&path)?;
            inputs.push((path, v));
        }
        let conf_semantic = conf
            .iter()
            .filter(|(k, _)| !NON_SEMANTIC_KEYS.contains(k))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Some(FingerprintBasis {
            engine: engine.to_string(),
            identity: identity.clone(),
            inputs,
            conf_semantic,
            engine_knobs: engine_knobs.to_vec(),
        })
    }

    /// The `(path, content version)` snapshot to persist with a memo entry;
    /// `ReuseIndex` re-checks it on every lookup so a stale entry is
    /// invalidated the moment any input's version changes.
    pub fn input_versions(&self) -> &[(HPath, u64)] {
        &self.inputs
    }

    /// The whole-job fingerprint: everything, including the reducer.
    pub fn job_fingerprint(&self) -> Fingerprint {
        Fingerprint(self.digest(true))
    }

    /// The map-phase prefix fingerprint: the whole-job basis *minus the
    /// reducer identity*. Two jobs sharing this ran the identical map /
    /// combine / partition pipeline over identical inputs, so their
    /// shuffle-stable reduce-input partitions are interchangeable even when
    /// their reducers differ — the sub-job matcher keys retained partitions
    /// on this.
    pub fn map_fingerprint(&self) -> Fingerprint {
        Fingerprint(self.digest(false))
    }

    fn digest(&self, with_reducer: bool) -> u64 {
        // One flat, domain-tagged byte stream through fnv1a. Tags (and NUL
        // separators after variable-length strings) keep fields from
        // bleeding into each other.
        let mut buf = Vec::with_capacity(256);
        let field = |buf: &mut Vec<u8>, tag: u8, s: &str| {
            buf.push(tag);
            buf.extend_from_slice(s.as_bytes());
            buf.push(0);
        };
        field(&mut buf, b'e', &self.engine);
        field(&mut buf, b'm', &self.identity.mapper);
        if with_reducer {
            field(&mut buf, b'r', &self.identity.reducer);
        }
        match &self.identity.combiner {
            Some(c) => field(&mut buf, b'c', c),
            None => buf.push(b'-'),
        }
        field(&mut buf, b'p', &self.identity.partitioner);
        for (path, version) in &self.inputs {
            field(&mut buf, b'i', path.as_str());
            buf.extend_from_slice(&version.to_le_bytes());
        }
        for (k, v) in &self.conf_semantic {
            field(&mut buf, b'k', k);
            field(&mut buf, b'v', v);
        }
        for (k, v) in &self.engine_knobs {
            field(&mut buf, b'K', k);
            field(&mut buf, b'V', v);
        }
        fnv1a(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::fs::{write_file, MemFs};

    fn basis_on(fs: &MemFs, conf: &JobConf, id: &ComputeIdentity) -> FingerprintBasis {
        FingerprintBasis::gather(fs, conf, id, "m3r", &[]).expect("versioned inputs")
    }

    fn setup() -> (MemFs, JobConf, ComputeIdentity) {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/in/a"), b"alpha").unwrap();
        let mut conf = JobConf::new();
        conf.set_input_paths(&[HPath::new("/in/a")])
            .set_output_path(&HPath::new("/out"))
            .set_num_reduce_tasks(4);
        let id = ComputeIdentity::new("wc.map", "wc.reduce");
        (fs, conf, id)
    }

    #[test]
    fn non_semantic_keys_do_not_change_fingerprint() {
        let (fs, mut conf, id) = setup();
        let fp0 = basis_on(&fs, &conf, &id).job_fingerprint();
        conf.set(conf::JOB_NAME, "renamed")
            .set_client_id("tenant-b")
            .set_place_level_combine(true)
            .set_output_path(&HPath::new("/elsewhere"));
        assert_eq!(basis_on(&fs, &conf, &id).job_fingerprint(), fp0);
    }

    #[test]
    fn semantic_conf_keys_do_change_fingerprint() {
        let (fs, mut conf, id) = setup();
        let fp0 = basis_on(&fs, &conf, &id).job_fingerprint();
        conf.set_num_reduce_tasks(8);
        assert_ne!(basis_on(&fs, &conf, &id).job_fingerprint(), fp0);
        conf.set_num_reduce_tasks(4);
        conf.set("user.custom.threshold", "0.5");
        assert_ne!(basis_on(&fs, &conf, &id).job_fingerprint(), fp0);
    }

    #[test]
    fn distinct_mapper_distinct_fingerprint() {
        let (fs, conf, id) = setup();
        let fp0 = basis_on(&fs, &conf, &id).job_fingerprint();
        let other = ComputeIdentity::new("grep.map", "wc.reduce");
        assert_ne!(basis_on(&fs, &conf, &other).job_fingerprint(), fp0);
        // Engine name is part of the basis too.
        let b = FingerprintBasis::gather(&fs, &conf, &id, "hadoop", &[]).unwrap();
        assert_ne!(b.job_fingerprint(), fp0);
    }

    #[test]
    fn map_fingerprint_ignores_reducer_only() {
        let (fs, conf, id) = setup();
        let sum = basis_on(&fs, &conf, &id);
        let max = basis_on(
            &fs,
            &conf,
            &ComputeIdentity::new("wc.map", "wc.reduce.max"),
        );
        assert_ne!(sum.job_fingerprint(), max.job_fingerprint());
        assert_eq!(sum.map_fingerprint(), max.map_fingerprint());
        // …but not the combiner: a combiner changes map *output*.
        let comb = basis_on(
            &fs,
            &conf,
            &ComputeIdentity::new("wc.map", "wc.reduce.max").with_combiner("wc.comb"),
        );
        assert_ne!(comb.map_fingerprint(), max.map_fingerprint());
    }

    #[test]
    fn input_bytes_and_paths_feed_the_fingerprint() {
        let (fs, conf, id) = setup();
        let fp0 = basis_on(&fs, &conf, &id).job_fingerprint();
        // Same bytes, different path.
        write_file(&fs, &HPath::new("/in/b"), b"alpha").unwrap();
        let mut conf2 = conf.clone();
        conf2.set_input_paths(&[HPath::new("/in/b")]);
        assert_ne!(basis_on(&fs, &conf2, &id).job_fingerprint(), fp0);
        // Same path, different bytes.
        fs.delete(&HPath::new("/in/a"), false).unwrap();
        write_file(&fs, &HPath::new("/in/a"), b"beta").unwrap();
        assert_ne!(basis_on(&fs, &conf, &id).job_fingerprint(), fp0);
        // Identical rewrite restores it.
        fs.delete(&HPath::new("/in/a"), false).unwrap();
        write_file(&fs, &HPath::new("/in/a"), b"alpha").unwrap();
        assert_eq!(basis_on(&fs, &conf, &id).job_fingerprint(), fp0);
    }

    #[test]
    fn unversioned_input_declines() {
        let (fs, mut conf, id) = setup();
        conf.set_input_paths(&[HPath::new("/in/a"), HPath::new("/missing")]);
        assert!(FingerprintBasis::gather(&fs, &conf, &id, "m3r", &[]).is_none());
    }
}
