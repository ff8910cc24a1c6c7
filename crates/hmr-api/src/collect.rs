//! `OutputCollector` — where mappers, combiners and reducers emit pairs —
//! and the cloning contract at the heart of the `ImmutableOutput`
//! extension (§4.1).
//!
//! Key/value pairs flow through the engines as `Arc`s. Hadoop's API lets
//! user code *reuse* (mutate) a key or value after emitting it, because the
//! stock engine serializes immediately; M3R must therefore clone every pair
//! defensively unless the job promises immutability. In this Rust port the
//! reuse idiom is expressed through `Arc`: a mutating mapper keeps its own
//! `Arc` and calls [`crate::writable::Text::set_shared`] between emits. A
//! *cloning* engine deep-copies the contents out of the `Arc` at `collect`
//! time (so the caller's `Arc` stays unique and in-place mutation remains
//! cheap), while an *aliasing* engine — M3R with `ImmutableOutput` — just
//! retains the `Arc`.

use std::sync::Arc;

use crate::error::Result;

/// Sink for `(key, value)` pairs emitted by user code.
pub trait OutputCollector<K, V> {
    /// Emit one pair. Whether the engine clones or aliases is governed by
    /// the job's `ImmutableOutput` declaration.
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()>;

    /// `MultipleOutputs` (§4.2.2): emit a pair to the named side output.
    /// Engines that support it write `{output}/{name}-part-NNNNN`; the
    /// default refuses.
    fn collect_named(&mut self, name: &str, _key: Arc<K>, _value: Arc<V>) -> Result<()> {
        Err(crate::error::HmrError::Unsupported(format!(
            "named output '{name}' not supported by this collector"
        )))
    }

    /// Emit every pair of `pairs`, in order: one [`collect`](Self::collect)
    /// each, unless the collector can take the vector whole.
    fn collect_all(&mut self, pairs: Vec<(Arc<K>, Arc<V>)>) -> Result<()> {
        pairs.into_iter().try_for_each(|(k, v)| self.collect(k, v))
    }
}

/// A collector that appends into a vector — used in unit tests and as the
/// map-side buffer of both engines.
#[derive(Debug, Default)]
pub struct VecCollector<K, V> {
    /// Collected pairs in emission order.
    pub pairs: Vec<(Arc<K>, Arc<V>)>,
}

impl<K, V> VecCollector<K, V> {
    /// An empty collector.
    pub fn new() -> Self {
        VecCollector { pairs: Vec::new() }
    }
}

impl<K, V> OutputCollector<K, V> for VecCollector<K, V> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.pairs.push((key, value));
        Ok(())
    }

    /// Into an empty collector the vector moves whole.
    fn collect_all(&mut self, pairs: Vec<(Arc<K>, Arc<V>)>) -> Result<()> {
        if self.pairs.is_empty() {
            self.pairs = pairs;
        } else {
            self.pairs.extend(pairs);
        }
        Ok(())
    }
}

/// A collector that transforms pairs through a function before forwarding,
/// named side outputs included. Both engines run a map-only job's mapper
/// through one, with the job's `map_only_convert` in front of the job
/// output.
pub struct MapCollector<'a, K, V, K2, V2> {
    inner: &'a mut dyn OutputCollector<K2, V2>,
    f: Arc<dyn Fn(Arc<K>, Arc<V>) -> (Arc<K2>, Arc<V2>) + Send + Sync>,
}

impl<'a, K, V, K2, V2> MapCollector<'a, K, V, K2, V2> {
    /// Forward through `f` into `inner`.
    pub fn new(
        inner: &'a mut dyn OutputCollector<K2, V2>,
        f: Arc<dyn Fn(Arc<K>, Arc<V>) -> (Arc<K2>, Arc<V2>) + Send + Sync>,
    ) -> Self {
        MapCollector { inner, f }
    }
}

impl<K, V, K2, V2> OutputCollector<K, V> for MapCollector<'_, K, V, K2, V2> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let (k, v) = (self.f)(key, value);
        self.inner.collect(k, v)
    }
    fn collect_named(&mut self, name: &str, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let (k, v) = (self.f)(key, value);
        self.inner.collect_named(name, k, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writable::{IntWritable, Text};

    #[test]
    fn collect_all_moves_into_an_empty_vec_collector_and_appends_otherwise() {
        let pair = |i: i32| (Arc::new(IntWritable(i)), Arc::new(Text::from("v")));
        let pairs: Vec<_> = (0..3).map(pair).collect();
        let buffer = pairs.as_ptr();
        let mut c = VecCollector::new();
        c.collect_all(pairs).unwrap();
        assert_eq!(c.pairs.as_ptr(), buffer, "moved, not copied");
        c.collect_all(vec![pair(3)]).unwrap();
        let keys: Vec<i32> = c.pairs.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![0, 1, 2, 3]);
    }

    #[test]
    fn vec_collector_preserves_order() {
        let mut c = VecCollector::new();
        for i in 0..5 {
            c.collect(Arc::new(IntWritable(i)), Arc::new(Text::from(i.to_string())))
                .unwrap();
        }
        let keys: Vec<i32> = c.pairs.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn named_output_defaults_to_unsupported() {
        let mut c: VecCollector<IntWritable, Text> = VecCollector::new();
        assert!(c
            .collect_named("side", Arc::new(IntWritable(0)), Arc::new(Text::from("x")))
            .is_err());
    }

    #[test]
    fn map_collector_transforms() {
        let mut sink: VecCollector<Text, IntWritable> = VecCollector::new();
        {
            let mut mc = MapCollector::new(
                &mut sink,
                Arc::new(|k: Arc<IntWritable>, _v: Arc<IntWritable>| {
                    (
                        Arc::new(Text::from(format!("k{}", k.0))),
                        Arc::new(IntWritable(1)),
                    )
                }),
            );
            mc.collect(Arc::new(IntWritable(7)), Arc::new(IntWritable(0)))
                .unwrap();
        }
        assert_eq!(sink.pairs[0].0.as_str(), "k7");
    }
}
