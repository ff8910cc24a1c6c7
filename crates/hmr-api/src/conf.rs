//! `JobConf` — the string-keyed job configuration object (paper §3.1).
//!
//! "This configuration object is threaded throughout the program (and passed
//! to user classes), and can hence be used to communicate information of use
//! to the program." Jobs read both framework settings (reducer count, input
//! and output paths) and their own free-form properties from it. M3R's
//! cache-control conventions (§4.2.3) also live here: the temporary-output
//! prefix and the explicit temporary-path list.

use std::collections::BTreeMap;

use crate::fs::HPath;

/// Well-known property: number of reduce tasks.
pub const NUM_REDUCE_TASKS: &str = "mapred.reduce.tasks";
/// Well-known property: comma-separated input paths.
pub const INPUT_PATHS: &str = "mapred.input.dir";
/// Well-known property: job output directory.
pub const OUTPUT_PATH: &str = "mapred.output.dir";
/// Well-known property: human-readable job name.
pub const JOB_NAME: &str = "mapred.job.name";
/// Well-known property: comma-separated distributed-cache files.
pub const CACHE_FILES: &str = "mapred.cache.files";
/// M3R extension (§4.2.3): outputs whose final path component starts with
/// this prefix are treated as temporary — cached but never written to disk.
pub const TEMP_PREFIX: &str = "m3r.temp.prefix";
/// M3R extension (§4.2.3): explicit comma-separated list of temporary paths.
pub const TEMP_PATHS: &str = "m3r.temp.paths";
/// M3R extension (§5.3): when set to `true`, an M3R-aware client asks for
/// this job to be delegated to a stock Hadoop engine.
pub const USE_HADOOP: &str = "m3r.use.hadoop.engine";
/// M3R server extension (§5.3): the identity of the client that submitted
/// this job. Stamped by the job server's `SubmissionBuilder`; the engine
/// uses it to attribute cache residency to tenants for quota enforcement.
pub const CLIENT_ID: &str = "m3r.client.id";
/// M3R extension (ROADMAP item 3): when `true`, engines run an opt-in
/// place-level (M3R) / node-level (Hadoop engine) shared combine stage that
/// merges equal keys *across all map tasks of a wave* through the job's
/// combiner before shuffle serialization.
///
/// **Combiner contract:** enabling this requires the job's combiner to be
/// **associative and commutative** (and to act as identity on single-value
/// groups, like `LongSumReducer`). Per-mapper combining already reorders
/// value application within one task; place-level combining additionally
/// merges values *across* tasks, applying the combiner to values in task
/// order with equal keys tie-broken by task order. A combiner that is
/// sensitive to grouping depth or value arrival order will change job
/// output with this flag on. Jobs without a combiner ignore the flag.
pub const PLACE_COMBINE: &str = "m3r.shuffle.place.combine";

/// A string-keyed configuration map with typed accessors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobConf {
    props: BTreeMap<String, String>,
}

impl JobConf {
    /// An empty configuration.
    pub fn new() -> Self {
        JobConf::default()
    }

    /// Set a property (fluent).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.props.insert(key.into(), value.into());
        self
    }

    /// Get a property.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.props.get(key).map(String::as_str)
    }

    /// Get a property or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parse a property as `i64`.
    pub fn get_i64(&self, key: &str, default: i64) -> i64 {
        self.get(key).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// Parse a property as `f64`.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// Parse a property as `bool` ("true"/"false").
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        self.get(key).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    // -- framework accessors -------------------------------------------------

    /// Number of reduce tasks (default 1; 0 means a map-only job).
    pub fn num_reduce_tasks(&self) -> usize {
        self.get_i64(NUM_REDUCE_TASKS, 1).max(0) as usize
    }

    /// Set the number of reduce tasks.
    pub fn set_num_reduce_tasks(&mut self, n: usize) -> &mut Self {
        self.set(NUM_REDUCE_TASKS, n.to_string())
    }

    /// The configured input paths.
    pub fn input_paths(&self) -> Vec<HPath> {
        self.get(INPUT_PATHS)
            .map(|s| {
                s.split(',')
                    .filter(|p| !p.is_empty())
                    .map(HPath::new)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Replace the input paths.
    pub fn set_input_paths(&mut self, paths: &[HPath]) -> &mut Self {
        let joined = paths
            .iter()
            .map(|p| p.as_str().to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.set(INPUT_PATHS, joined)
    }

    /// Add one input path.
    pub fn add_input_path(&mut self, path: &HPath) -> &mut Self {
        let mut paths = self.input_paths();
        paths.push(path.clone());
        self.set_input_paths(&paths)
    }

    /// The job output directory, if configured.
    pub fn output_path(&self) -> Option<HPath> {
        self.get(OUTPUT_PATH).map(HPath::new)
    }

    /// Set the job output directory.
    pub fn set_output_path(&mut self, path: &HPath) -> &mut Self {
        self.set(OUTPUT_PATH, path.as_str())
    }

    /// The job name.
    pub fn job_name(&self) -> &str {
        self.get_or(JOB_NAME, "job")
    }

    /// Distributed-cache file paths.
    pub fn cache_files(&self) -> Vec<HPath> {
        self.get(CACHE_FILES)
            .map(|s| {
                s.split(',')
                    .filter(|p| !p.is_empty())
                    .map(HPath::new)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Add a file to the distributed cache.
    pub fn add_cache_file(&mut self, path: &HPath) -> &mut Self {
        let mut files = self.cache_files();
        files.push(path.clone());
        let joined = files
            .iter()
            .map(|p| p.as_str().to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.set(CACHE_FILES, joined)
    }

    // -- M3R cache conventions (§4.2.3) --------------------------------------

    /// The temporary-output prefix (default `"temp"`).
    pub fn temp_prefix(&self) -> &str {
        self.get_or(TEMP_PREFIX, "temp")
    }

    /// True when `path` should be treated as a temporary output: either its
    /// final component starts with the configured prefix, or it appears in
    /// the explicit temporary-path list.
    pub fn is_temp_output(&self, path: &HPath) -> bool {
        if path
            .name()
            .map(|n| n.starts_with(self.temp_prefix()))
            .unwrap_or(false)
        {
            return true;
        }
        self.get(TEMP_PATHS)
            .map(|s| s.split(',').any(|p| HPath::new(p) == *path))
            .unwrap_or(false)
    }

    /// Mark an explicit path as temporary (beyond the naming convention).
    pub fn add_temp_path(&mut self, path: &HPath) -> &mut Self {
        let joined = match self.get(TEMP_PATHS) {
            Some(cur) if !cur.is_empty() => format!("{cur},{}", path.as_str()),
            _ => path.as_str().to_string(),
        };
        self.set(TEMP_PATHS, joined)
    }

    /// §5.3: an M3R-aware client can force this job onto the Hadoop engine.
    pub fn use_hadoop_engine(&self) -> bool {
        self.get_bool(USE_HADOOP, false)
    }

    /// §5.3 server mode: the submitting client's identity, if any.
    pub fn client_id(&self) -> Option<&str> {
        self.get(CLIENT_ID)
    }

    /// Record the submitting client's identity (done by the job server).
    pub fn set_client_id(&mut self, client: &str) -> &mut Self {
        self.set(CLIENT_ID, client)
    }

    /// Whether place-level shared combining is requested for this job
    /// (default `false`). See [`PLACE_COMBINE`] for the combiner contract.
    pub fn place_level_combine(&self) -> bool {
        self.get_bool(PLACE_COMBINE, false)
    }

    /// Opt this job into place-level shared combining. The job's combiner
    /// must be associative and commutative (see [`PLACE_COMBINE`]).
    pub fn set_place_level_combine(&mut self, on: bool) -> &mut Self {
        self.set(PLACE_COMBINE, on.to_string())
    }

    /// Iterate over all properties.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.props.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors_parse_and_default() {
        let mut c = JobConf::new();
        c.set("a", "17").set("b", "true").set("c", "2.5");
        assert_eq!(c.get_i64("a", 0), 17);
        assert!(c.get_bool("b", false));
        assert_eq!(c.get_f64("c", 0.0), 2.5);
        assert_eq!(c.get_i64("missing", 9), 9);
        assert_eq!(c.get_i64("b", 3), 3, "unparseable falls back");
    }

    #[test]
    fn reduce_tasks_default_is_one() {
        let mut c = JobConf::new();
        assert_eq!(c.num_reduce_tasks(), 1);
        c.set_num_reduce_tasks(0);
        assert_eq!(c.num_reduce_tasks(), 0, "map-only jobs have 0 reducers");
    }

    #[test]
    fn input_paths_roundtrip() {
        let mut c = JobConf::new();
        c.add_input_path(&HPath::new("/data/g"));
        c.add_input_path(&HPath::new("/data/v"));
        assert_eq!(
            c.input_paths(),
            vec![HPath::new("/data/g"), HPath::new("/data/v")]
        );
    }

    #[test]
    fn temp_naming_convention() {
        // §4.2.3: "if the last part of the output path starts with a given
        // string (which defaults to 'temp') then it is treated as temporary"
        let mut c = JobConf::new();
        assert!(c.is_temp_output(&HPath::new("/out/temp_iter1")));
        assert!(c.is_temp_output(&HPath::new("/out/temp")));
        assert!(!c.is_temp_output(&HPath::new("/out/result")));
        // The prefix is customizable through the configuration.
        c.set(TEMP_PREFIX, "scratch");
        assert!(!c.is_temp_output(&HPath::new("/out/temp_iter1")));
        assert!(c.is_temp_output(&HPath::new("/out/scratch_1")));
    }

    #[test]
    fn explicit_temp_paths() {
        // "a list of files that should be considered temporary could be
        // passed enumerated in a job configuration setting"
        let mut c = JobConf::new();
        c.add_temp_path(&HPath::new("/out/v1"));
        c.add_temp_path(&HPath::new("/out/v2"));
        assert!(c.is_temp_output(&HPath::new("/out/v1")));
        assert!(c.is_temp_output(&HPath::new("/out/v2")));
        assert!(!c.is_temp_output(&HPath::new("/out/v3")));
    }

    #[test]
    fn cache_files_accumulate() {
        let mut c = JobConf::new();
        c.add_cache_file(&HPath::new("/dict/en"));
        c.add_cache_file(&HPath::new("/dict/fr"));
        assert_eq!(c.cache_files().len(), 2);
    }

    #[test]
    fn place_combine_knob_roundtrip() {
        let mut c = JobConf::new();
        assert!(!c.place_level_combine(), "off by default");
        c.set_place_level_combine(true);
        assert!(c.place_level_combine());
        c.set_place_level_combine(false);
        assert!(!c.place_level_combine());
    }

    #[test]
    fn use_hadoop_escape_hatch() {
        let mut c = JobConf::new();
        assert!(!c.use_hadoop_engine());
        c.set(USE_HADOOP, "true");
        assert!(c.use_hadoop_engine());
    }
}
