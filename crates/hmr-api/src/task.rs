//! The unified task-side traits both engines execute, the task loops they
//! run over them ([`run_mapper`] into the engine's map-output buffer or, for
//! a map-only job, the job output; [`combine_run`] over one partition's map
//! output; [`reduce_partition`]), and adapters from the two public Hadoop
//! API styles.
//!
//! The three loops count every task counter on both engines, output pairs
//! on the main output only: a named side output (`MultipleOutputs`) counts in
//! no framework counter, as in Hadoop, where only the main writer counts
//! records. A job's `output_records` is read off these counters
//! ([`crate::job::output_records`]).
//!
//! "The compatibility layer is complicated by the need to support two sets
//! of Hadoop APIs: the older `mapred` and the newer `mapreduce` interfaces.
//! Since many classes (such as Map) do not share a common type, separate
//! wrapper code must be written for both of them" (§5.3). Here the wrapper
//! code adapts both styles into [`TaskMapper`] / [`TaskReducer`], and "any
//! combination of old and new style mapper, combiner, and reducer" is
//! supported because a `JobDef` chooses an adapter per role.

use std::ops::Range;
use std::sync::Arc;

use simgrid::trace::{self, Phase};
use simgrid::Charge;

use crate::collect::OutputCollector;
use crate::comparator::{ingest_reduce_groups, SortTuning};
use crate::counters::{task_counter, TaskContext};
use crate::error::Result;
use crate::job::JobDef;
use crate::{mapred, mapreduce};

/// Engine-facing mapper: what actually runs inside a map task.
pub trait TaskMapper<K1, V1, K2, V2>: Send {
    /// Called once before the first record; may emit leading pairs.
    fn setup(
        &mut self,
        _out: &mut dyn OutputCollector<K2, V2>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Ok(())
    }
    /// Called per input record.
    fn map(
        &mut self,
        key: Arc<K1>,
        value: Arc<V1>,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()>;
    /// Called once after the last record; may emit trailing pairs.
    fn cleanup(
        &mut self,
        _out: &mut dyn OutputCollector<K2, V2>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Ok(())
    }
}

/// Engine-facing reducer (also used for combiners).
pub trait TaskReducer<K2, V2, K3, V3>: Send {
    /// Called once before the first group; may emit leading pairs.
    fn setup(
        &mut self,
        _out: &mut dyn OutputCollector<K3, V3>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Ok(())
    }
    /// Called once per key group; `values` iterates the group's values in
    /// sorted arrival order.
    fn reduce(
        &mut self,
        key: Arc<K2>,
        values: &mut dyn Iterator<Item = Arc<V2>>,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()>;
    /// Called once after the last group.
    fn cleanup(
        &mut self,
        _out: &mut dyn OutputCollector<K3, V3>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Ok(())
    }
    /// M3R extension (§4 style: Hadoop ignores it, M3R exploits it): this
    /// reducer, used as a combiner, is a fold. Return `Some(f)` only when
    /// all three hold:
    ///
    /// * for every group `reduce` emits exactly one pair: the group's first
    ///   key with an accumulator that starts as a copy of the first value
    ///   and takes each later value through `f`, in arrival order;
    /// * `reduce` does nothing else: no counters, no charges, no side
    ///   output;
    /// * replacing any prefix of a group's values by the one value the
    ///   fold makes of that prefix leaves `reduce`'s output unchanged.
    ///
    /// M3R's map side then keeps one running value per distinct key and
    /// never calls `reduce` for a folded group. `setup` and `cleanup` are
    /// not part of the declaration: they run around a folded combiner run
    /// as around any other ([`combine_run`]) and may write and count.
    fn as_fold(&self) -> Option<fn(&mut V3, &V2)> {
        None
    }
}

// ---------------------------------------------------------------------------
// The map, combine and reduce loops both engines run
// ---------------------------------------------------------------------------

/// Forwards to `inner`, counting the pairs collected on the main output.
struct CountingCollector<'a, C> {
    inner: &'a mut C,
    pairs: u64,
}

impl<K, V, C: OutputCollector<K, V>> OutputCollector<K, V> for CountingCollector<'_, C> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.pairs += 1;
        self.inner.collect(key, value)
    }

    fn collect_named(&mut self, name: &str, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.inner.collect_named(name, key, value)
    }

    fn collect_all(&mut self, pairs: Vec<(Arc<K>, Arc<V>)>) -> Result<()> {
        self.pairs += pairs.len() as u64;
        self.inner.collect_all(pairs)
    }
}

/// The mapper loop: `setup`, `map` over every `input` record, `cleanup`,
/// all writing into `out`. Counts `MAP_INPUT_RECORDS` per input record and
/// `MAP_OUTPUT_RECORDS` per pair collected on the main output, `setup` and
/// `cleanup` included (named side outputs count in no framework counter).
/// Generic over the collector, so `out` is reached without a second dynamic
/// call per record.
pub fn run_mapper<K1, V1, K2, V2, C: OutputCollector<K2, V2>>(
    mapper: &mut dyn TaskMapper<K1, V1, K2, V2>,
    input: impl IntoIterator<Item = Result<(Arc<K1>, Arc<V1>)>>,
    out: &mut C,
    ctx: &mut TaskContext,
) -> Result<()> {
    let mut out = CountingCollector { inner: out, pairs: 0 };
    let mut records = 0i64;
    mapper.setup(&mut out, ctx)?;
    for record in input {
        let (key, value) = record?;
        records += 1;
        mapper.map(key, value, &mut out, ctx)?;
    }
    mapper.cleanup(&mut out, ctx)?;
    ctx.incr_task_counter(task_counter::MAP_INPUT_RECORDS, records);
    ctx.incr_task_counter(task_counter::MAP_OUTPUT_RECORDS, out.pairs as i64);
    Ok(())
}

/// How a group loop makes each group's values from its entries: as they
/// are ([`Objects`]) or, in Hadoop's sort buffer, decoded from spill bytes
/// as the combiner reads them.
pub trait GroupValues<E, V> {
    /// Called with each group's entries before its `reduce` call.
    fn open<K>(&mut self, _group: &[(Arc<K>, E)]) {}
    /// The value of one entry.
    fn value(&mut self, entry: E) -> Result<Arc<V>>;
}

/// Values that are objects already.
pub struct Objects;

impl<V> GroupValues<Arc<V>, V> for Objects {
    fn value(&mut self, value: Arc<V>) -> Result<Arc<V>> {
        Ok(value)
    }
}

/// The group loop of every reducer and combiner: hand each group of the
/// ingested (sorted and grouped) `entries` to `reducer`, first key of the
/// group and its values in order, each made by `values` as it is read.
/// `groups` are [`ingest_reduce_groups`]' contiguous spans; keys and values
/// move to the reducer, and what it leaves unread drops before the next
/// group. A value that cannot be made ends the group, then the loop.
pub fn reduce_groups<K2, E, V2, K3, V3>(
    entries: Vec<(Arc<K2>, E)>,
    groups: Vec<Range<usize>>,
    mut values: impl GroupValues<E, V2>,
    reducer: &mut dyn TaskReducer<K2, V2, K3, V3>,
    out: &mut dyn OutputCollector<K3, V3>,
    ctx: &mut TaskContext,
) -> Result<()> {
    let mut entries = entries.into_iter();
    for group in groups {
        values.open(&entries.as_slice()[..group.len()]);
        let mut group = entries.by_ref().take(group.len());
        let Some((key, first)) = group.next() else {
            continue;
        };
        let mut failed = None;
        let mut read = std::iter::once(first)
            .chain(group.map(|(_, entry)| entry))
            .map_while(|entry| values.value(entry).map_err(|e| failed = Some(e)).ok())
            .fuse();
        reducer.reduce(key, &mut read, out, ctx)?;
        read.for_each(drop);
        if let Some(e) = failed {
            return Err(e);
        }
    }
    Ok(())
}

/// What one combiner run combines: one partition's records.
pub enum CombineInput<K, V, E> {
    /// Entries sorted and grouped under the job's comparators, with their
    /// groups ([`ingest_reduce_groups`]): `reduce` runs once per group.
    Sort(Vec<(Arc<K>, E)>, Vec<Range<usize>>),
    /// Folded at collect time ([`TaskReducer::as_fold`]): one `(key, acc)`
    /// per group in reduce order, what `reduce` would emit, so it is not
    /// called.
    Folded(Vec<(Arc<K>, Arc<V>)>),
}

/// One combiner run, the unit per which Hadoop's `CombinerRunner` runs a
/// combiner: one partition's `records` records through `combiner` —
/// `setup`, every group ([`reduce_groups`], or the folded pairs moved
/// whole), `cleanup` — into one counting collector around `out`. Counts
/// `COMBINE_INPUT_RECORDS` as `records` and `COMBINE_OUTPUT_RECORDS` per
/// pair collected. Every combine site of both engines runs here; each
/// keeps its own charges and gate. Returns the number of groups.
pub fn combine_run<K, V, E, C: OutputCollector<K, V>>(
    combiner: &mut dyn TaskReducer<K, V, K, V>,
    records: usize,
    input: CombineInput<K, V, E>,
    values: impl GroupValues<E, V>,
    out: &mut C,
    ctx: &mut TaskContext,
) -> Result<usize> {
    let mut out = CountingCollector { inner: out, pairs: 0 };
    combiner.setup(&mut out, ctx)?;
    let groups = match input {
        CombineInput::Sort(entries, groups) => {
            let count = groups.len();
            reduce_groups(entries, groups, values, combiner, &mut out, ctx).map(|()| count)
        }
        CombineInput::Folded(pairs) => {
            let count = pairs.len();
            out.collect_all(pairs).map(|()| count)
        }
    }?;
    combiner.cleanup(&mut out, ctx)?;
    ctx.incr_task_counter(task_counter::COMBINE_INPUT_RECORDS, records as i64);
    ctx.incr_task_counter(task_counter::COMBINE_OUTPUT_RECORDS, out.pairs as i64);
    Ok(groups)
}

/// One reduce partition, from assembled input to a filled sink: the `Sort`
/// span (billed per record whichever sort path runs, so simulated time is
/// independent of the path taken), the input counters, and the job's
/// reducer over every group, its main-output pairs counted in
/// `REDUCE_OUTPUT_RECORDS` as [`run_mapper`] counts map output. `spill`
/// bills whatever the engine pays inside the sort span ahead of the sort
/// itself (Hadoop's out-of-core merge); `open_sink` runs after the sort,
/// where Hadoop opens its DFS writer.
pub fn reduce_partition<J: JobDef, S: OutputCollector<J::K3, J::V3>>(
    job: &J,
    partition: usize,
    mut pairs: Vec<(Arc<J::K2>, Arc<J::V2>)>,
    spill: impl FnOnce(),
    open_sink: impl FnOnce() -> Result<S>,
    ctx: &mut TaskContext,
) -> Result<S> {
    let groups = trace::span(Phase::Sort, "sort", Some(partition as u64), || {
        spill();
        simgrid::meter::charge(Charge::Sort {
            records: pairs.len() as u64,
        });
        ingest_reduce_groups(
            &mut pairs,
            &job.sort_comparator(),
            &job.grouping_comparator(),
            &SortTuning::default(),
            None,
        )
    });
    ctx.incr_task_counter(task_counter::REDUCE_INPUT_RECORDS, pairs.len() as i64);
    ctx.incr_task_counter(task_counter::REDUCE_INPUT_GROUPS, groups.len() as i64);

    let mut sink = open_sink()?;
    let mut out = CountingCollector { inner: &mut sink, pairs: 0 };
    let mut reducer = job.create_reducer(ctx.conf());
    reducer.setup(&mut out, ctx)?;
    reduce_groups(pairs, groups, Objects, &mut *reducer, &mut out, ctx)?;
    reducer.cleanup(&mut out, ctx)?;
    ctx.incr_task_counter(task_counter::REDUCE_OUTPUT_RECORDS, out.pairs as i64);
    Ok(sink)
}

// ---------------------------------------------------------------------------
// Adapters from the old "mapred" API
// ---------------------------------------------------------------------------

/// Adapts an old-API mapper ([`mapred::Mapper`]) to the engine interface.
pub struct MapredMapperAdapter<M>(pub M);

impl<K1, V1, K2, V2, M> TaskMapper<K1, V1, K2, V2> for MapredMapperAdapter<M>
where
    M: mapred::Mapper<K1, V1, K2, V2>,
{
    fn setup(
        &mut self,
        _out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.configure(ctx.conf());
        Ok(())
    }
    fn map(
        &mut self,
        key: Arc<K1>,
        value: Arc<V1>,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.map(&key, &value, out, ctx)
    }
    fn cleanup(
        &mut self,
        _out: &mut dyn OutputCollector<K2, V2>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.close()
    }
}

/// Adapts an old-API reducer ([`mapred::Reducer`]) to the engine interface.
pub struct MapredReducerAdapter<R>(pub R);

impl<K2, V2, K3, V3, R> TaskReducer<K2, V2, K3, V3> for MapredReducerAdapter<R>
where
    R: mapred::Reducer<K2, V2, K3, V3>,
{
    fn setup(
        &mut self,
        _out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.configure(ctx.conf());
        Ok(())
    }
    fn reduce(
        &mut self,
        key: Arc<K2>,
        values: &mut dyn Iterator<Item = Arc<V2>>,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.reduce(&key, values, out, ctx)
    }
    fn cleanup(
        &mut self,
        _out: &mut dyn OutputCollector<K3, V3>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.close()
    }
}

// ---------------------------------------------------------------------------
// Adapters from the new "mapreduce" API
// ---------------------------------------------------------------------------

/// Adapts a new-API mapper ([`mapreduce::Mapper`]) to the engine interface.
pub struct MapreduceMapperAdapter<M>(pub M);

impl<K1, V1, K2, V2, M> TaskMapper<K1, V1, K2, V2> for MapreduceMapperAdapter<M>
where
    M: mapreduce::Mapper<K1, V1, K2, V2>,
{
    fn setup(
        &mut self,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.setup(&mut mapreduce::Context::new(out, ctx))
    }
    fn map(
        &mut self,
        key: Arc<K1>,
        value: Arc<V1>,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.map(key, value, &mut mapreduce::Context::new(out, ctx))
    }
    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.cleanup(&mut mapreduce::Context::new(out, ctx))
    }
}

/// Adapts a new-API reducer ([`mapreduce::Reducer`]) to the engine interface.
pub struct MapreduceReducerAdapter<R>(pub R);

impl<K2, V2, K3, V3, R> TaskReducer<K2, V2, K3, V3> for MapreduceReducerAdapter<R>
where
    R: mapreduce::Reducer<K2, V2, K3, V3>,
{
    fn setup(
        &mut self,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.setup(&mut mapreduce::Context::new(out, ctx))
    }
    fn reduce(
        &mut self,
        key: Arc<K2>,
        values: &mut dyn Iterator<Item = Arc<V2>>,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.reduce(key, values, &mut mapreduce::Context::new(out, ctx))
    }
    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.cleanup(&mut mapreduce::Context::new(out, ctx))
    }
}

// ---------------------------------------------------------------------------
// Stock mappers/reducers
// ---------------------------------------------------------------------------

/// The identity mapper: passes every input pair straight through, aliasing
/// the `Arc`s. Under M3R + `ImmutableOutput` this moves zero bytes for
/// locally shuffled data.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityMapper;

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> TaskMapper<K, V, K, V>
    for IdentityMapper
{
    fn map(
        &mut self,
        key: Arc<K>,
        value: Arc<V>,
        out: &mut dyn OutputCollector<K, V>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        out.collect(key, value)
    }
}

/// The identity reducer: re-emits every value under its key.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityReducer;

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> TaskReducer<K, V, K, V>
    for IdentityReducer
{
    fn reduce(
        &mut self,
        key: Arc<K>,
        values: &mut dyn Iterator<Item = Arc<V>>,
        out: &mut dyn OutputCollector<K, V>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for v in values {
            out.collect(Arc::clone(&key), v)?;
        }
        Ok(())
    }
}

/// Sums `LongWritable` values per key (Hadoop's `LongSumReducer`), usable
/// both as reducer and combiner.
#[derive(Clone, Copy, Debug, Default)]
pub struct LongSumReducer;

impl<K: Send + Sync + 'static>
    TaskReducer<K, crate::writable::LongWritable, K, crate::writable::LongWritable>
    for LongSumReducer
{
    fn reduce(
        &mut self,
        key: Arc<K>,
        values: &mut dyn Iterator<Item = Arc<crate::writable::LongWritable>>,
        out: &mut dyn OutputCollector<K, crate::writable::LongWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        let sum: i64 = values.map(|v| v.0).sum();
        out.collect(key, Arc::new(crate::writable::LongWritable(sum)))
    }
    fn as_fold(
        &self,
    ) -> Option<fn(&mut crate::writable::LongWritable, &crate::writable::LongWritable)> {
        Some(|acc, v| acc.0 += v.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::VecCollector;
    use crate::conf::JobConf;
    use crate::distcache::DistCache;
    use crate::writable::{IntWritable, LongWritable, Text};

    fn ctx() -> TaskContext {
        TaskContext::new(
            "t_0",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        )
    }

    #[test]
    fn identity_mapper_aliases_pairs() {
        let mut m = IdentityMapper;
        let mut out = VecCollector::new();
        let mut c = ctx();
        let k = Arc::new(IntWritable(1));
        let v = Arc::new(Text::from("x"));
        m.map(Arc::clone(&k), Arc::clone(&v), &mut out, &mut c)
            .unwrap();
        assert!(Arc::ptr_eq(&out.pairs[0].0, &k), "no copy was made");
        assert!(Arc::ptr_eq(&out.pairs[0].1, &v));
    }

    #[test]
    fn identity_reducer_replays_values() {
        let mut r = IdentityReducer;
        let mut out = VecCollector::new();
        let mut c = ctx();
        let vals = vec![Arc::new(Text::from("a")), Arc::new(Text::from("b"))];
        r.reduce(
            Arc::new(IntWritable(3)),
            &mut vals.clone().into_iter(),
            &mut out,
            &mut c,
        )
        .unwrap();
        assert_eq!(out.pairs.len(), 2);
        assert!(Arc::ptr_eq(&out.pairs[1].1, &vals[1]));
    }

    #[test]
    fn long_sum_reducer_sums() {
        let mut r = LongSumReducer;
        let mut out = VecCollector::new();
        let mut c = ctx();
        let vals: Vec<Arc<LongWritable>> =
            (1..=4).map(|i| Arc::new(LongWritable(i))).collect();
        r.reduce(
            Arc::new(Text::from("w")),
            &mut vals.into_iter(),
            &mut out,
            &mut c,
        )
        .unwrap();
        assert_eq!(out.pairs[0].1 .0, 10);
    }

    #[test]
    fn long_sum_fold_matches_reduce_and_others_declare_none() {
        let fold = TaskReducer::<Text, LongWritable, Text, LongWritable>::as_fold(&LongSumReducer)
            .expect("LongSumReducer folds");
        let mut acc = LongWritable(1);
        for v in 2..=4 {
            fold(&mut acc, &LongWritable(v));
        }
        assert_eq!(acc, LongWritable(10));
        assert!(TaskReducer::<Text, Text, Text, Text>::as_fold(&IdentityReducer).is_none());
    }

    /// Reads only the first value of each group. `released[j]` are values
    /// that only the caller may still hold when group `j` starts.
    struct FirstOnly {
        seen: Vec<(Arc<Text>, Arc<IntWritable>)>,
        released: Vec<Vec<std::sync::Weak<IntWritable>>>,
    }

    impl TaskReducer<Text, IntWritable, Text, IntWritable> for FirstOnly {
        fn reduce(
            &mut self,
            key: Arc<Text>,
            values: &mut dyn Iterator<Item = Arc<IntWritable>>,
            _out: &mut dyn OutputCollector<Text, IntWritable>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            for w in &self.released[self.seen.len()] {
                assert_eq!(w.strong_count(), 1, "an unread value outlived its group");
            }
            self.seen.push((key, values.next().unwrap()));
            Ok(())
        }
    }

    #[test]
    fn reduce_groups_drains_its_input() {
        let input: Vec<(Arc<Text>, Arc<IntWritable>)> = ["a", "a", "a", "b", "c", "c"]
            .iter()
            .enumerate()
            .map(|(i, k)| (Arc::new(Text::from(*k)), Arc::new(IntWritable(i as i32))))
            .collect();
        let weak = |i: usize| Arc::downgrade(&input[i].1);
        let mut r = FirstOnly {
            seen: Vec::new(),
            released: vec![vec![], vec![weak(1), weak(2)], vec![]],
        };
        let mut out = VecCollector::new();
        let groups = vec![0..3, 3..4, 4..6];
        reduce_groups(input.clone(), groups, Objects, &mut r, &mut out, &mut ctx()).unwrap();
        let firsts: Vec<_> = r.seen.iter().map(|(k, v)| (k.to_string(), v.0)).collect();
        assert_eq!(
            firsts,
            vec![("a".into(), 0), ("b".into(), 3), ("c".into(), 4)]
        );
        for ((k, v), &i) in r.seen.iter().zip(&[0, 3, 4]) {
            assert!(Arc::ptr_eq(k, &input[i].0) && Arc::ptr_eq(v, &input[i].1));
        }
        for (i, (k, v)) in input.iter().enumerate() {
            let handed = [0, 3, 4].contains(&i);
            assert_eq!(Arc::strong_count(k), 1 + usize::from(handed), "key {i}");
            assert_eq!(Arc::strong_count(v), 1 + usize::from(handed), "value {i}");
        }
    }

    /// Sums each group; `setup` and `cleanup` each write one pair.
    struct Bracketing;

    impl TaskReducer<Text, LongWritable, Text, LongWritable> for Bracketing {
        fn setup(
            &mut self,
            out: &mut dyn OutputCollector<Text, LongWritable>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.collect(Arc::new(Text::from("setup")), Arc::new(LongWritable(0)))
        }
        fn reduce(
            &mut self,
            key: Arc<Text>,
            values: &mut dyn Iterator<Item = Arc<LongWritable>>,
            out: &mut dyn OutputCollector<Text, LongWritable>,
            ctx: &mut TaskContext,
        ) -> Result<()> {
            LongSumReducer.reduce(key, values, out, ctx)
        }
        fn cleanup(
            &mut self,
            out: &mut dyn OutputCollector<Text, LongWritable>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.collect(Arc::new(Text::from("cleanup")), Arc::new(LongWritable(0)))
        }
    }

    /// Values made from `i64`s, failing on a negative one.
    struct Checked;

    impl GroupValues<i64, LongWritable> for Checked {
        fn value(&mut self, v: i64) -> Result<Arc<LongWritable>> {
            if v < 0 {
                return Err(crate::error::HmrError::Serde(format!("bad value {v}")));
            }
            Ok(Arc::new(LongWritable(v)))
        }
    }

    #[test]
    fn combine_run_brackets_the_groups_and_counts_every_pair() {
        let key = |k: &str| Arc::new(Text::from(k));
        let run = |input| {
            let (mut out, mut c) = (VecCollector::new(), ctx());
            let groups = combine_run(&mut Bracketing, 5, input, Checked, &mut out, &mut c)?;
            let pairs: Vec<_> = out.pairs.iter().map(|(k, v)| (k.to_string(), v.0)).collect();
            let counters = c.into_counters();
            let names = [task_counter::COMBINE_INPUT_RECORDS, task_counter::COMBINE_OUTPUT_RECORDS];
            let counted = names.map(|name| counters.task(name));
            Ok::<_, crate::error::HmrError>((pairs, groups, counted))
        };
        let keys = ["a", "a", "b", "c", "c"];
        let sorted: Vec<_> = keys.iter().zip(1..).map(|(k, v)| (key(k), v)).collect();
        let expect = |mid: Vec<(&str, i64)>| {
            let all = [vec![("setup", 0)], mid, vec![("cleanup", 0)]].concat();
            all.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<Vec<_>>()
        };
        let grouped = CombineInput::Sort(sorted.clone(), vec![0..2, 2..3, 3..5]);
        let sums = vec![("a", 3), ("b", 3), ("c", 9)];
        assert_eq!(run(grouped).unwrap(), (expect(sums.clone()), 3, [5, 5]));
        let folded = sums.iter().map(|&(k, v)| (key(k), Arc::new(LongWritable(v)))).collect();
        assert_eq!(run(CombineInput::Folded(folded)).unwrap(), (expect(sums), 3, [5, 5]));

        let mut bad = sorted;
        bad[3].1 = -1;
        let failed = run(CombineInput::Sort(bad, vec![0..2, 2..3, 3..5]));
        assert!(matches!(failed, Err(crate::error::HmrError::Serde(_))));
    }

    struct OldCounting {
        configured: bool,
        closed: bool,
    }

    impl mapred::Mapper<IntWritable, Text, Text, LongWritable> for OldCounting {
        fn configure(&mut self, _conf: &JobConf) {
            self.configured = true;
        }
        fn map(
            &mut self,
            _key: &IntWritable,
            value: &Text,
            output: &mut dyn OutputCollector<Text, LongWritable>,
            _reporter: &mut TaskContext,
        ) -> Result<()> {
            output.collect(Arc::new(value.clone()), Arc::new(LongWritable(1)))
        }
        fn close(&mut self) -> Result<()> {
            self.closed = true;
            Ok(())
        }
    }

    #[test]
    fn mapred_adapter_drives_lifecycle() {
        let mut a = MapredMapperAdapter(OldCounting {
            configured: false,
            closed: false,
        });
        let mut out = VecCollector::new();
        let mut c = ctx();
        TaskMapper::setup(&mut a, &mut out, &mut c).unwrap();
        a.map(
            Arc::new(IntWritable(0)),
            Arc::new(Text::from("hi")),
            &mut out,
            &mut c,
        )
        .unwrap();
        TaskMapper::cleanup(&mut a, &mut out, &mut c).unwrap();
        assert!(a.0.configured && a.0.closed);
        assert_eq!(out.pairs.len(), 1);
    }

    struct NewDoubling;

    impl mapreduce::Mapper<IntWritable, IntWritable, IntWritable, IntWritable> for NewDoubling {
        fn map(
            &mut self,
            key: Arc<IntWritable>,
            value: Arc<IntWritable>,
            ctx: &mut mapreduce::Context<'_, IntWritable, IntWritable>,
        ) -> Result<()> {
            ctx.write(key, Arc::new(IntWritable(value.0 * 2)))
        }
    }

    #[test]
    fn mapreduce_adapter_writes_through_context() {
        let mut a = MapreduceMapperAdapter(NewDoubling);
        let mut out = VecCollector::new();
        let mut c = ctx();
        a.map(
            Arc::new(IntWritable(1)),
            Arc::new(IntWritable(21)),
            &mut out,
            &mut c,
        )
        .unwrap();
        assert_eq!(out.pairs[0].1 .0, 42);
    }
}
