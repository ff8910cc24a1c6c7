//! WordCount (§6.3 / Figures 4 and 8): "Map Reduce's 'Hello World'" — the
//! workload where *none* of M3R's optimizations apply (no iteration, no
//! partition stability, mostly-remote shuffle), so it lower-bounds the M3R
//! speedup.
//!
//! Two mapper variants reproduce Figure 4:
//! * [`WcStyle::ReuseText`] — the original idiom: one `Text` object mutated
//!   and re-emitted per token (old `mapred` API). Incompatible with
//!   `ImmutableOutput`, so M3R must clone every pair.
//! * [`WcStyle::FreshText`] — allocates a new `Text` per token and declares
//!   `ImmutableOutput`. Pays allocation/GC churn (charged through the cost
//!   model), saves all cloning on M3R.

use std::sync::Arc;

use hmr_api::collect::OutputCollector;
use hmr_api::conf::JobConf;
use hmr_api::counters::Reporter;
use hmr_api::error::Result;
use hmr_api::fs::HPath;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileOutputFormat, TextInputFormat};
use hmr_api::job::{Engine, JobDef, JobResult};
use hmr_api::mapred;
use hmr_api::task::{LongSumReducer, MapredMapperAdapter, TaskMapper, TaskReducer};
use hmr_api::writable::{LongWritable, Text};
use simgrid::cost::Charge;

/// Which Figure 4 variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WcStyle {
    /// Mutate-and-reuse (Fig 4 left); not `ImmutableOutput`.
    ReuseText,
    /// Fresh allocation per token (Fig 4 right); `ImmutableOutput`.
    FreshText,
}

/// The WordCount job definition.
pub struct WordCountJob {
    /// The mapper style.
    pub style: WcStyle,
    /// Whether to attach the `LongSumReducer` as a combiner.
    pub combiner: bool,
}

impl WordCountJob {
    /// WordCount with a combiner (the standard configuration).
    pub fn new(style: WcStyle) -> Self {
        WordCountJob {
            style,
            combiner: true,
        }
    }
}

/// Fig 4 left, written against the old `mapred` API: the engine-visible
/// key/value objects are reused across emits.
struct ReuseMapper {
    word: Arc<Text>,
    one: Arc<LongWritable>,
}

impl mapred::Mapper<LongWritable, Text, Text, LongWritable> for ReuseMapper {
    fn map(
        &mut self,
        _key: &LongWritable,
        value: &Text,
        output: &mut dyn OutputCollector<Text, LongWritable>,
        _reporter: &mut Reporter,
    ) -> Result<()> {
        for tok in value.as_str().split_whitespace() {
            // `set_shared` mutates in place while the Arc is unique — the
            // engine cloned our previous emission, so it is.
            Text::set_shared(&mut self.word, tok);
            output.collect(Arc::clone(&self.word), Arc::clone(&self.one))?;
        }
        Ok(())
    }
}

/// Fig 4 right: fresh `Text` per token, safe to alias.
struct FreshMapper;

impl TaskMapper<LongWritable, Text, Text, LongWritable> for FreshMapper {
    fn map(
        &mut self,
        _key: Arc<LongWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        _ctx: &mut hmr_api::TaskContext,
    ) -> Result<()> {
        for tok in value.as_str().split_whitespace() {
            // The fresh allocation is the price of immutability: one new
            // object per token (Fig 8's "new TextWritable()" penalty). The
            // simulation charges it; here the token is a view of its line.
            simgrid::meter::charge(Charge::Alloc { objects: 1 });
            out.collect(Arc::new(value.slice_ref(tok)?), Arc::new(LongWritable(1)))?;
        }
        Ok(())
    }
}

impl JobDef for WordCountJob {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        match self.style {
            WcStyle::ReuseText => Box::new(MapredMapperAdapter(ReuseMapper {
                word: Arc::new(Text::default()),
                one: Arc::new(LongWritable(1)),
            })),
            WcStyle::FreshText => Box::new(FreshMapper),
        }
    }

    fn create_reducer(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        Box::new(LongSumReducer)
    }

    fn create_combiner(
        &self,
        _conf: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
        self.combiner.then(|| {
            Box::new(LongSumReducer)
                as Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>
        })
    }

    fn input_format(&self, _conf: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        Box::new(TextInputFormat)
    }

    fn output_format(&self, _conf: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }

    fn immutable_output(&self) -> bool {
        // "We modified the standard code to not mutate its pairs, and added
        // the ImmutableOutput annotation to mapper and reducer." Only the
        // fresh-allocation variant may make this promise.
        self.style == WcStyle::FreshText
    }

    fn name(&self) -> &str {
        match self.style {
            WcStyle::ReuseText => "wordcount-reuse",
            WcStyle::FreshText => "wordcount-fresh",
        }
    }

    fn memo_identity(&self) -> Option<hmr_api::job::ComputeIdentity> {
        // Identity names code, not observed equivalence: the two mapper
        // styles emit the same pairs today, but they are different mappers
        // and must not share memo entries.
        let id = hmr_api::job::ComputeIdentity::new(
            match self.style {
                WcStyle::ReuseText => "wordcount.map.reuse",
                WcStyle::FreshText => "wordcount.map.fresh",
            },
            "hmr.LongSumReducer",
        );
        Some(if self.combiner {
            id.with_combiner("hmr.LongSumReducer")
        } else {
            id
        })
    }
}

/// Run WordCount over `input` on any engine; output goes to `output` with
/// `reducers` partitions.
pub fn run_wordcount<E: Engine>(
    engine: &mut E,
    style: WcStyle,
    input: &HPath,
    output: &HPath,
    reducers: usize,
) -> Result<JobResult> {
    let mut conf = JobConf::new();
    conf.add_input_path(input);
    conf.set_output_path(output);
    conf.set_num_reduce_tasks(reducers);
    conf.set(hmr_api::conf::JOB_NAME, "wordcount");
    engine.run_job(Arc::new(WordCountJob::new(style)), &conf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textgen::generate_text;
    use hmr_api::io::seqfile::read_seq_file;
    use simdfs::SimDfs;
    use simgrid::{Cluster, CostModel};
    use std::collections::BTreeMap;

    fn counts(fs: &SimDfs, dir: &str, parts: usize) -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for p in 0..parts {
            let path = HPath::new(format!("{dir}/part-{p:05}"));
            for (k, v) in read_seq_file::<Text, LongWritable>(fs, &path).unwrap() {
                *m.entry(k.as_str().to_string()).or_insert(0) += v.0;
            }
        }
        m
    }

    fn reference_counts(fs: &SimDfs, path: &HPath) -> BTreeMap<String, i64> {
        let text =
            String::from_utf8(hmr_api::fs::read_file(fs, path).unwrap().to_vec()).unwrap();
        let mut m = BTreeMap::new();
        for w in text.split_whitespace() {
            *m.entry(w.to_string()).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn both_styles_agree_with_reference_on_both_engines() {
        let cluster = Cluster::new(3, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        generate_text(&fs, &HPath::new("/in/corpus.txt"), 20_000, 11).unwrap();
        let reference = reference_counts(&fs, &HPath::new("/in/corpus.txt"));

        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
        let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));

        for (i, style) in [WcStyle::ReuseText, WcStyle::FreshText].iter().enumerate() {
            let hdir = format!("/h{i}");
            let mdir = format!("/m{i}");
            run_wordcount(&mut hadoop, *style, &HPath::new("/in"), &HPath::new(&hdir), 3)
                .unwrap();
            run_wordcount(&mut m3r, *style, &HPath::new("/in"), &HPath::new(&mdir), 3)
                .unwrap();
            assert_eq!(counts(&fs, &hdir, 3), reference, "{style:?} on hadoop");
            assert_eq!(counts(&fs, &mdir, 3), reference, "{style:?} on m3r");
        }
    }

    #[test]
    fn fresh_style_charges_allocations_reuse_does_not() {
        let cluster = Cluster::new(2, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        generate_text(&fs, &HPath::new("/in/c.txt"), 5_000, 3).unwrap();
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
        let fresh = run_wordcount(
            &mut hadoop,
            WcStyle::FreshText,
            &HPath::new("/in"),
            &HPath::new("/f"),
            2,
        )
        .unwrap();
        let reuse = run_wordcount(
            &mut hadoop,
            WcStyle::ReuseText,
            &HPath::new("/in"),
            &HPath::new("/r"),
            2,
        )
        .unwrap();
        assert!(fresh.metrics.allocs > reuse.metrics.allocs);
        assert!(
            fresh.sim_time > reuse.sim_time,
            "on Hadoop the immutable rewrite costs time: {} vs {}",
            fresh.sim_time,
            reuse.sim_time
        );
    }

    #[test]
    fn m3r_beats_hadoop_on_wordcount() {
        // Fig 8's headline: "the M3R engine is approximately twice as fast
        // as HMR engine for these input sizes."
        let cluster_h = Cluster::new(4, CostModel::default());
        let fs_h = SimDfs::with_config(cluster_h.clone(), 1 << 20, 2);
        generate_text(&fs_h, &HPath::new("/in/c.txt"), 200_000, 5).unwrap();
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster_h, Arc::new(fs_h.clone()));
        let h = run_wordcount(
            &mut hadoop,
            WcStyle::ReuseText,
            &HPath::new("/in"),
            &HPath::new("/h"),
            4,
        )
        .unwrap();

        let cluster_m = Cluster::new(4, CostModel::default());
        let fs_m = SimDfs::with_config(cluster_m.clone(), 1 << 20, 2);
        generate_text(&fs_m, &HPath::new("/in/c.txt"), 200_000, 5).unwrap();
        let mut m3r = m3r::M3REngine::new(cluster_m, Arc::new(fs_m.clone()));
        let m = run_wordcount(
            &mut m3r,
            WcStyle::FreshText,
            &HPath::new("/in"),
            &HPath::new("/m"),
            4,
        )
        .unwrap();
        assert!(
            m.sim_time * 1.5 < h.sim_time,
            "m3r {} vs hadoop {}",
            m.sim_time,
            h.sim_time
        );
    }
}
