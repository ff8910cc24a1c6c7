//! Counters and the task-side context (`Reporter` in the old API).
//!
//! "In addition to correctly propagating user counters, M3R keeps many
//! Hadoop system counters properly updated" (§5.3). Counters are grouped
//! `(group, name) → i64`; each task accumulates its own [`Counters`] which
//! the engine merges into the job total on completion.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::conf::JobConf;
use crate::distcache::DistCache;

/// The framework counter group.
pub const TASK_COUNTER_GROUP: &str = "org.apache.hadoop.mapred.Task$Counter";

/// Framework counter names kept updated by both engines.
pub mod task_counter {
    /// Records read by all mappers.
    pub const MAP_INPUT_RECORDS: &str = "MAP_INPUT_RECORDS";
    /// Records emitted by all mappers.
    pub const MAP_OUTPUT_RECORDS: &str = "MAP_OUTPUT_RECORDS";
    /// Records fed into combiners.
    pub const COMBINE_INPUT_RECORDS: &str = "COMBINE_INPUT_RECORDS";
    /// Records emitted by combiners.
    pub const COMBINE_OUTPUT_RECORDS: &str = "COMBINE_OUTPUT_RECORDS";
    /// Distinct key groups seen by all reducers.
    pub const REDUCE_INPUT_GROUPS: &str = "REDUCE_INPUT_GROUPS";
    /// Records fed into reducers.
    pub const REDUCE_INPUT_RECORDS: &str = "REDUCE_INPUT_RECORDS";
    /// Records emitted by reducers.
    pub const REDUCE_OUTPUT_RECORDS: &str = "REDUCE_OUTPUT_RECORDS";
    /// Map-output records that were shuffled within the same place/node.
    pub const LOCAL_SHUFFLED_RECORDS: &str = "LOCAL_SHUFFLED_RECORDS";
    /// Map-output records that crossed the network.
    pub const REMOTE_SHUFFLED_RECORDS: &str = "REMOTE_SHUFFLED_RECORDS";
    /// Map inputs served from M3R's key/value cache instead of the DFS.
    pub const CACHE_HIT_RECORDS: &str = "CACHE_HIT_RECORDS";
}

/// Grouped job counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Group -> name -> value, looked up by `&str`: reading a counter, or
    /// adding to one that is present, allocates nothing.
    values: BTreeMap<String, BTreeMap<String, i64>>,
}

impl Counters {
    /// Empty counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Add `amount` to counter `(group, name)`.
    pub fn incr(&mut self, group: &str, name: &str, amount: i64) {
        let Some(names) = self.values.get_mut(group) else {
            let names = BTreeMap::from([(name.to_string(), amount)]);
            self.values.insert(group.to_string(), names);
            return;
        };
        match names.get_mut(name) {
            Some(value) => *value += amount,
            None => {
                names.insert(name.to_string(), amount);
            }
        }
    }

    /// Current value of `(group, name)` (0 when never incremented).
    pub fn get(&self, group: &str, name: &str) -> i64 {
        let names = self.values.get(group);
        names.and_then(|names| names.get(name)).copied().unwrap_or(0)
    }

    /// Shorthand for a framework counter.
    pub fn task(&self, name: &str) -> i64 {
        self.get(TASK_COUNTER_GROUP, name)
    }

    /// Merge `other` into `self` (sum per counter).
    pub fn merge(&mut self, other: &Counters) {
        for (group, name, value) in other.iter() {
            self.incr(group, name, value);
        }
    }

    /// Iterate `(group, name, value)`, ordered by group, then name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, i64)> {
        self.values.iter().flat_map(|(g, names)| {
            names.iter().map(move |(n, v)| (g.as_str(), n.as_str(), *v))
        })
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.values().map(BTreeMap::len).sum()
    }

    /// True when no counter was ever incremented.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Per-task context handed to user code: the old API's `Reporter` and the
/// carrier behind the new API's `Context`. Owns the task's counters (merged
/// by the engine afterwards), the job configuration, the distributed cache,
/// and — for `MultipleInputs` — the tag of the split being processed.
pub struct TaskContext {
    counters: Counters,
    conf: Arc<JobConf>,
    dist_cache: Arc<DistCache>,
    task_id: String,
    status: String,
    progress: f32,
    split_tag: Option<usize>,
    /// The partition this task serves (reducers) or `None` (mappers).
    partition: Option<usize>,
}

/// Old-API alias: `Reporter` is the same object.
pub type Reporter = TaskContext;

impl TaskContext {
    /// Build a context for one task attempt.
    pub fn new(task_id: impl Into<String>, conf: Arc<JobConf>, dist_cache: Arc<DistCache>) -> Self {
        TaskContext {
            counters: Counters::new(),
            conf,
            dist_cache,
            task_id: task_id.into(),
            status: String::new(),
            progress: 0.0,
            split_tag: None,
            partition: None,
        }
    }

    /// The task attempt id, e.g. `m_000003`.
    pub fn task_id(&self) -> &str {
        &self.task_id
    }

    /// The job configuration.
    pub fn conf(&self) -> &JobConf {
        &self.conf
    }

    /// Increment a user counter.
    pub fn incr_counter(&mut self, group: &str, name: &str, amount: i64) {
        self.counters.incr(group, name, amount);
    }

    /// Increment a framework counter.
    pub fn incr_task_counter(&mut self, name: &str, amount: i64) {
        self.counters.incr(TASK_COUNTER_GROUP, name, amount);
    }

    /// This task's accumulated counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Consume the context, yielding the counters for engine-side merging.
    pub fn into_counters(self) -> Counters {
        self.counters
    }

    /// Asynchronous progress reporting (§5.3): remembered, surfaced in the
    /// job status.
    pub fn set_progress(&mut self, p: f32) {
        self.progress = p.clamp(0.0, 1.0);
    }

    /// Last reported progress in `[0, 1]`.
    pub fn progress(&self) -> f32 {
        self.progress
    }

    /// Status string reporting.
    pub fn set_status(&mut self, s: impl Into<String>) {
        self.status = s.into();
    }

    /// Last reported status.
    pub fn status(&self) -> &str {
        &self.status
    }

    /// A distributed-cache file by its configured path string.
    pub fn cache_file(&self, path: &str) -> Option<bytes::Bytes> {
        self.dist_cache.get(path)
    }

    /// The whole distributed cache.
    pub fn dist_cache(&self) -> &DistCache {
        &self.dist_cache
    }

    /// `MultipleInputs`: the tag of the split currently being mapped.
    pub fn split_tag(&self) -> Option<usize> {
        self.split_tag
    }

    /// Engine-side: set the split tag before mapping a tagged split.
    pub fn set_split_tag(&mut self, tag: Option<usize>) {
        self.split_tag = tag;
    }

    /// The reduce partition this task serves, when reducing.
    pub fn partition(&self) -> Option<usize> {
        self.partition
    }

    /// Engine-side: set the serving partition for a reduce task.
    pub fn set_partition(&mut self, p: Option<usize>) {
        self.partition = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.incr("g", "x", 2);
        a.incr("g", "x", 3);
        a.incr("g", "y", 1);
        let mut b = Counters::new();
        b.incr("g", "x", 10);
        b.incr("h", "z", 7);
        a.merge(&b);
        assert_eq!(a.get("g", "x"), 15);
        assert_eq!(a.get("g", "y"), 1);
        assert_eq!(a.get("h", "z"), 7);
        assert_eq!(a.get("h", "missing"), 0);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn counters_iterate_deterministically() {
        let mut c = Counters::new();
        c.incr("b", "n", 1);
        c.incr("a", "m", 1);
        c.incr("a", "b", 0);
        let order: Vec<(&str, &str)> = c.iter().map(|(g, n, _)| (g, n)).collect();
        assert_eq!(order, vec![("a", "b"), ("a", "m"), ("b", "n")]);
        assert_eq!(c.len(), 3, "a counter added with 0 is present");
    }

    #[test]
    fn task_context_counter_roundtrip() {
        let mut ctx = TaskContext::new(
            "m_000000",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        );
        ctx.incr_counter("app", "words", 5);
        ctx.incr_task_counter(task_counter::MAP_INPUT_RECORDS, 2);
        let c = ctx.into_counters();
        assert_eq!(c.get("app", "words"), 5);
        assert_eq!(c.task(task_counter::MAP_INPUT_RECORDS), 2);
    }

    #[test]
    fn progress_is_clamped() {
        let mut ctx = TaskContext::new(
            "r_000000",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        );
        ctx.set_progress(1.7);
        assert_eq!(ctx.progress(), 1.0);
        ctx.set_progress(-0.5);
        assert_eq!(ctx.progress(), 0.0);
    }

    #[test]
    fn split_tag_and_partition_are_settable() {
        let mut ctx = TaskContext::new(
            "m_000001",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        );
        assert_eq!(ctx.split_tag(), None);
        ctx.set_split_tag(Some(1));
        assert_eq!(ctx.split_tag(), Some(1));
        ctx.set_partition(Some(4));
        assert_eq!(ctx.partition(), Some(4));
    }
}
