//! The unified task-side traits both engines execute, plus adapters from
//! the two public Hadoop API styles.
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

use crate::collect::{OutputCollector, VecCollector};
use crate::comparator::{ingest_reduce_groups, KeyComparator, SortTuning};
use crate::counters::{task_counter, TaskContext};
use crate::error::Result;
use crate::job::JobDef;
use crate::writable::Writable;
use crate::{mapred, mapreduce};

/// Engine-facing mapper: what actually runs inside a map task.
pub trait TaskMapper<K1, V1, K2, V2>: Send {
    /// Called once before the first record.
    fn setup(&mut self, _ctx: &mut TaskContext) -> Result<()> {
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
    /// Called once before the first group.
    fn setup(&mut self, _ctx: &mut TaskContext) -> Result<()> {
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
    /// never calls `reduce` for a folded group.
    fn as_fold(&self) -> Option<fn(&mut V3, &V2)> {
        None
    }
}

// ---------------------------------------------------------------------------
// The reduce-partition core both engines run
// ---------------------------------------------------------------------------

/// The reducer loop: hand every group of the ingested (sorted and grouped)
/// `pairs` to `reducer`, first key of the group and its values in order.
/// Reducers, and every combiner on the sort path ([`combine_run`]), end here.
/// `groups` are [`ingest_reduce_groups`]' contiguous spans; keys and values
/// move to the reducer, and what it leaves unread drops before the next group.
pub fn reduce_groups<K2, V2, K3, V3>(
    pairs: Vec<(Arc<K2>, Arc<V2>)>,
    groups: Vec<Range<usize>>,
    reducer: &mut dyn TaskReducer<K2, V2, K3, V3>,
    out: &mut dyn OutputCollector<K3, V3>,
    ctx: &mut TaskContext,
) -> Result<()> {
    let mut pairs = pairs.into_iter();
    for group in groups {
        let mut group = pairs.by_ref().take(group.len());
        let Some((key, first)) = group.next() else {
            continue;
        };
        let mut values = std::iter::once(first).chain(group.map(|(_, v)| v));
        reducer.reduce(key, &mut values, out, ctx)?;
        values.for_each(drop);
    }
    Ok(())
}

/// A combiner over one run of pairs, on the sort path: the run sorted and
/// grouped under the job's comparators ([`ingest_reduce_groups`]), then
/// [`reduce_groups`] into a fresh collector. Returns the combined pairs
/// and the number of groups the combiner saw. Bills and counts nothing
/// itself; M3R's map and place combines and the Hadoop node combine do.
pub fn combine_run<K: Writable, V>(
    mut pairs: Vec<(Arc<K>, Arc<V>)>,
    combiner: &mut dyn TaskReducer<K, V, K, V>,
    sort_cmp: &KeyComparator<K>,
    group_cmp: &KeyComparator<K>,
    ctx: &mut TaskContext,
) -> Result<(Vec<(Arc<K>, Arc<V>)>, usize)> {
    let tuning = SortTuning::default();
    let groups = ingest_reduce_groups(&mut pairs, sort_cmp, group_cmp, &tuning, None);
    let count = groups.len();
    let mut out = VecCollector::new();
    reduce_groups(pairs, groups, combiner, &mut out, ctx)?;
    Ok((out.pairs, count))
}

/// One reduce partition, from assembled input to a filled sink: the `Sort`
/// span (billed per record whichever sort path runs, so simulated time is
/// independent of the path taken), the input counters, and the job's
/// reducer over every group. `spill` bills
/// whatever the engine pays inside the sort span ahead of the sort itself
/// (Hadoop's out-of-core merge); `open_sink` runs after the sort, where
/// Hadoop opens its DFS writer.
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
    let mut reducer = job.create_reducer(ctx.conf());
    reducer.setup(ctx)?;
    reduce_groups(pairs, groups, &mut *reducer, &mut sink, ctx)?;
    reducer.cleanup(&mut sink, ctx)?;
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
    fn setup(&mut self, ctx: &mut TaskContext) -> Result<()> {
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
    fn setup(&mut self, ctx: &mut TaskContext) -> Result<()> {
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
    fn setup(&mut self, _ctx: &mut TaskContext) -> Result<()> {
        // The new API's setup receives a Context; engines call setup through
        // `map`'s first invocation pattern is avoided by delegating here
        // with a throwaway collector — instead we defer setup to first map.
        Ok(())
    }
    fn map(
        &mut self,
        key: Arc<K1>,
        value: Arc<V1>,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut c = mapreduce::Context::new(out, ctx);
        self.0.map(key, value, &mut c)
    }
    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut c = mapreduce::Context::new(out, ctx);
        self.0.cleanup(&mut c)
    }
}

/// Adapts a new-API reducer ([`mapreduce::Reducer`]) to the engine interface.
pub struct MapreduceReducerAdapter<R>(pub R);

impl<K2, V2, K3, V3, R> TaskReducer<K2, V2, K3, V3> for MapreduceReducerAdapter<R>
where
    R: mapreduce::Reducer<K2, V2, K3, V3>,
{
    fn reduce(
        &mut self,
        key: Arc<K2>,
        values: &mut dyn Iterator<Item = Arc<V2>>,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut c = mapreduce::Context::new(out, ctx);
        self.0.reduce(key, values, &mut c)
    }
    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K3, V3>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut c = mapreduce::Context::new(out, ctx);
        self.0.cleanup(&mut c)
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
        reduce_groups(input.clone(), vec![0..3, 3..4, 4..6], &mut r, &mut out, &mut ctx())
            .unwrap();
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
        TaskMapper::setup(&mut a, &mut c).unwrap();
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
