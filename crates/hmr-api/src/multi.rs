//! `MultipleInputs` / `MultipleOutputs` (§4.2.2).
//!
//! "The Hadoop model only allows a single input format... the Hadoop
//! libraries come with the MultipleInputs and MultipleOutputs classes to
//! multiplex input and output. The MultipleInputs class uses
//! TaggedInputSplit to tag input splits so they can be routed to the
//! appropriate base input format and mapper."
//!
//! Cache awareness (§4.2.1's `DelegatingSplit`) falls out structurally:
//! [`TaggedInputSplit`] *delegates* `cache_name` and `placed_partition` to
//! the split it wraps, so M3R can cache multi-input data without any extra
//! wrapper — this is the role the paper's `CachingInputFormat` plays in
//! Java. Named side outputs are carried by
//! [`crate::collect::OutputCollector::collect_named`]; engines write them
//! as `{output}/{name}-part-NNNNN`.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::conf::JobConf;
use crate::counters::TaskContext;
use crate::collect::OutputCollector;
use crate::error::{HmrError, Result};
use crate::fs::{FileSystem, HPath};
use crate::io::{InputFormat, InputSplit, OutputFormat, RecordReader, RecordWriter};
use crate::task::TaskMapper;
use crate::writable::Writable;

/// A split wrapped with the index of the input it came from.
#[derive(Debug)]
pub struct TaggedInputSplit {
    /// Which `MultipleInputs` entry produced this split.
    pub tag: usize,
    /// The wrapped split.
    pub inner: Arc<dyn InputSplit>,
}

impl InputSplit for TaggedInputSplit {
    fn length(&self) -> u64 {
        self.inner.length()
    }
    fn locations(&self) -> Vec<usize> {
        self.inner.locations()
    }
    // DelegatingSplit (§4.2.1): "tell M3R how to get the underlying
    // information".
    fn cache_name(&self) -> Option<String> {
        self.inner.cache_name()
    }
    fn placed_partition(&self) -> Option<usize> {
        self.inner.placed_partition()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One entry of a `MultipleInputs` configuration.
pub struct InputEntry<K, V> {
    /// The paths this entry covers.
    pub paths: Vec<HPath>,
    /// The format used to read them.
    pub format: Arc<dyn InputFormat<K, V>>,
}

/// The multiplexing input format: unions the splits of its entries, each
/// tagged with its entry index so readers and mappers can be routed.
pub struct DelegatingInputFormat<K, V> {
    entries: Vec<InputEntry<K, V>>,
}

impl<K, V> DelegatingInputFormat<K, V> {
    /// Start an empty configuration.
    pub fn new() -> Self {
        DelegatingInputFormat {
            entries: Vec::new(),
        }
    }

    /// Add an input: these `paths` are read with `format` and routed to the
    /// sub-mapper with the returned tag.
    pub fn add_input(
        &mut self,
        paths: Vec<HPath>,
        format: Arc<dyn InputFormat<K, V>>,
    ) -> usize {
        self.entries.push(InputEntry { paths, format });
        self.entries.len() - 1
    }
}

impl<K, V> Default for DelegatingInputFormat<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: 'static, V: 'static> InputFormat<K, V> for DelegatingInputFormat<K, V> {
    fn get_splits(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        hint: usize,
    ) -> Result<Vec<Arc<dyn InputSplit>>> {
        let mut out: Vec<Arc<dyn InputSplit>> = Vec::new();
        for (tag, entry) in self.entries.iter().enumerate() {
            let mut sub = conf.clone();
            sub.set_input_paths(&entry.paths);
            for split in entry.format.get_splits(fs, &sub, hint)? {
                out.push(Arc::new(TaggedInputSplit { tag, inner: split }));
            }
        }
        Ok(out)
    }

    fn record_reader(
        &self,
        fs: &dyn FileSystem,
        split: &dyn InputSplit,
        conf: &JobConf,
    ) -> Result<Box<dyn RecordReader<K, V>>> {
        let tagged = split
            .as_any()
            .downcast_ref::<TaggedInputSplit>()
            .ok_or_else(|| {
                HmrError::Unsupported("DelegatingInputFormat needs TaggedInputSplit".into())
            })?;
        let entry = self.entries.get(tagged.tag).ok_or_else(|| {
            HmrError::InvalidJob(format!("split tag {} out of range", tagged.tag))
        })?;
        entry.format.record_reader(fs, tagged.inner.as_ref(), conf)
    }
}

/// Extract the tag a split carries, if any. Engines call this before each
/// split so the mapper can route on [`TaskContext::split_tag`].
pub fn split_tag(split: &dyn InputSplit) -> Option<usize> {
    split
        .as_any()
        .downcast_ref::<TaggedInputSplit>()
        .map(|t| t.tag)
}

/// Routes each record to one of several sub-mappers based on the tag of the
/// split being processed (the `MultipleInputs` mapper-side dispatch).
pub struct DelegatingMapper<K1, V1, K2, V2> {
    mappers: Vec<Box<dyn TaskMapper<K1, V1, K2, V2>>>,
}

impl<K1, V1, K2, V2> DelegatingMapper<K1, V1, K2, V2> {
    /// Dispatch to `mappers[tag]`.
    pub fn new(mappers: Vec<Box<dyn TaskMapper<K1, V1, K2, V2>>>) -> Self {
        DelegatingMapper { mappers }
    }
}

impl<K1, V1, K2, V2> TaskMapper<K1, V1, K2, V2> for DelegatingMapper<K1, V1, K2, V2>
where
    K1: Send + Sync + 'static,
    V1: Send + Sync + 'static,
    K2: Send + Sync + 'static,
    V2: Send + Sync + 'static,
{
    fn setup(
        &mut self,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        for m in &mut self.mappers {
            m.setup(out, ctx)?;
        }
        Ok(())
    }

    fn map(
        &mut self,
        key: Arc<K1>,
        value: Arc<V1>,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let tag = ctx.split_tag().ok_or_else(|| {
            HmrError::InvalidJob("DelegatingMapper requires a tagged split".into())
        })?;
        let m = self.mappers.get_mut(tag).ok_or_else(|| {
            HmrError::InvalidJob(format!("no mapper registered for tag {tag}"))
        })?;
        m.map(key, value, out, ctx)
    }

    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K2, V2>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        for m in &mut self.mappers {
            m.cleanup(out, ctx)?;
        }
        Ok(())
    }
}

/// Name of a `MultipleOutputs` side file for a partition.
pub fn named_part_file(name: &str, partition: usize) -> String {
    format!("{name}-part-{partition:05}")
}

/// The named side outputs of one task (`MultipleOutputs`, §4.2.2): one
/// writer per name, opened on first use through the job's output format.
/// Both engines' reduce-side collectors route `collect_named` here.
pub struct NamedOutputs<'a, K, V> {
    /// Ordered so `close()` visits (and bills) writers deterministically.
    writers: BTreeMap<String, Box<dyn RecordWriter<K, V>>>,
    format: &'a dyn OutputFormat<K, V>,
    fs: &'a dyn FileSystem,
    conf: &'a JobConf,
    partition: usize,
}

impl<'a, K: Writable, V: Writable> NamedOutputs<'a, K, V> {
    /// No writer is opened until the first [`NamedOutputs::write`].
    pub fn new(
        format: &'a dyn OutputFormat<K, V>,
        fs: &'a dyn FileSystem,
        conf: &'a JobConf,
        partition: usize,
    ) -> Self {
        NamedOutputs {
            writers: BTreeMap::new(),
            format,
            fs,
            conf,
            partition,
        }
    }

    /// Write one pair to the side output `name`, billing its serialization.
    pub fn write(&mut self, name: &str, key: &K, value: &V) -> Result<()> {
        if !self.writers.contains_key(name) {
            let w = self
                .format
                .record_writer_named(self.fs, self.conf, name, self.partition)?;
            self.writers.insert(name.to_string(), w);
        }
        simgrid::meter::charge(simgrid::Charge::Serialize {
            bytes: (key.serialized_size() + value.serialized_size()) as u64,
        });
        self.writers
            .get_mut(name)
            .expect("inserted above")
            .write(key, value)
    }

    /// Close every opened writer, in name order.
    pub fn close(self) -> Result<()> {
        for (_, w) in self.writers {
            w.close()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::VecCollector;
    use crate::distcache::DistCache;
    use crate::fs::MemFs;
    use crate::io::seqfile::write_seq_file;
    use crate::io::SequenceFileInputFormat;
    use crate::writable::{IntWritable, Text};

    fn setup_two_inputs() -> (MemFs, DelegatingInputFormat<IntWritable, Text>) {
        let fs = MemFs::new();
        write_seq_file(&fs, &HPath::new("/g/part-00000"), &[(IntWritable(1), Text::from("g"))])
            .unwrap();
        write_seq_file(&fs, &HPath::new("/v/part-00000"), &[(IntWritable(2), Text::from("v"))])
            .unwrap();
        let mut dif = DelegatingInputFormat::new();
        let t0 = dif.add_input(
            vec![HPath::new("/g")],
            Arc::new(SequenceFileInputFormat::new()),
        );
        let t1 = dif.add_input(
            vec![HPath::new("/v")],
            Arc::new(SequenceFileInputFormat::new()),
        );
        assert_eq!((t0, t1), (0, 1));
        (fs, dif)
    }

    #[test]
    fn splits_are_tagged_and_named() {
        let (fs, dif) = setup_two_inputs();
        let splits = dif.get_splits(&fs, &JobConf::new(), 2).unwrap();
        assert_eq!(splits.len(), 2);
        let tags: Vec<usize> = splits.iter().map(|s| split_tag(s.as_ref()).unwrap()).collect();
        assert_eq!(tags, vec![0, 1]);
        // DelegatingSplit: the cache name reaches through the tag wrapper.
        assert!(splits[0].cache_name().unwrap().starts_with("/g/part-00000@"));
        assert!(splits[1].cache_name().unwrap().starts_with("/v/part-00000@"));
    }

    #[test]
    fn record_reader_routes_by_tag() {
        let (fs, dif) = setup_two_inputs();
        let conf = JobConf::new();
        let splits = dif.get_splits(&fs, &conf, 2).unwrap();
        let mut r1 = dif.record_reader(&fs, splits[1].as_ref(), &conf).unwrap();
        let (k, v) = r1.next().unwrap().unwrap();
        assert_eq!((k.0, v.as_str()), (2, "v"));
    }

    struct TagEcho;

    impl TaskMapper<IntWritable, Text, IntWritable, Text> for TagEcho {
        fn map(
            &mut self,
            key: Arc<IntWritable>,
            _value: Arc<Text>,
            out: &mut dyn OutputCollector<IntWritable, Text>,
            ctx: &mut TaskContext,
        ) -> Result<()> {
            out.collect(
                key,
                Arc::new(Text::from(format!("tag{}", ctx.split_tag().unwrap()))),
            )
        }
    }

    #[test]
    fn delegating_mapper_dispatches_on_context_tag() {
        let mut dm = DelegatingMapper::new(vec![
            Box::new(TagEcho) as Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>>,
            Box::new(TagEcho),
        ]);
        let mut ctx = TaskContext::new(
            "m_0",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        );
        let mut out = VecCollector::new();
        ctx.set_split_tag(Some(1));
        dm.map(
            Arc::new(IntWritable(0)),
            Arc::new(Text::from("x")),
            &mut out,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(out.pairs[0].1.as_str(), "tag1");
        // Missing tag is an error, not a silent misroute.
        ctx.set_split_tag(None);
        assert!(dm
            .map(
                Arc::new(IntWritable(0)),
                Arc::new(Text::from("x")),
                &mut out,
                &mut ctx
            )
            .is_err());
    }

    #[test]
    fn named_part_files() {
        assert_eq!(named_part_file("debug", 2), "debug-part-00002");
    }
}
