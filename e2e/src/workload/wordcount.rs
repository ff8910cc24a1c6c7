//! `wordcount_m3r`: the Figure 8 WordCount (`FreshText` mapper, combiner
//! on) as the paper's one-shot job. The input is evicted from the cache
//! (untimed) before every pass, so each pass pays DFS read + text parse +
//! cache *fill*: it uses the cache layer the other way round from
//! `shuffle_m3r` (writes, no hits), and it is where map-side user code,
//! `Text` encode, the combiner and `hmr-api` sort/group dominate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hmr_api::error::{HmrError, Result};
use hmr_api::extensions::CacheFsExt;
use hmr_api::fs::{read_file, FileSystem, HPath};
use hmr_api::io::part_file_name;
use hmr_api::io::seqfile::read_seq_file;
use hmr_api::writable::{LongWritable, Text};
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use simgrid::Cluster;
use workloads::{generate_text, run_wordcount, WcStyle};

use super::{
    fresh_cluster, Checksum, PassReport, Sizes, Stopwatch, Workload, PARTITIONS, WORKER_THREADS,
};
use crate::span::Spans;

/// Corpus files. One file under the 8 MB block size is a single split and
/// would run single-threaded; 8 files give each place 2 waves of 2 tasks.
pub const CORPUS_FILES: usize = 8;

const CORPUS_DIR: &str = "/corpus";
const OUTPUT_DIR: &str = "/wc";

/// WordCount on `M3REngine`.
pub struct WordCountM3r {
    cluster: Cluster,
    dfs: SimDfs,
    engine: M3REngine,
}

fn corpus_file(i: usize) -> HPath {
    HPath::new(CORPUS_DIR).join(&format!("text-{i:05}"))
}

impl WordCountM3r {
    fn corpus(&self) -> Result<Vec<String>> {
        (0..CORPUS_FILES)
            .map(|i| {
                String::from_utf8(read_file(&self.dfs, &corpus_file(i))?.to_vec())
                    .map_err(|e| HmrError::Serde(e.to_string()))
            })
            .collect()
    }
}

impl Workload for WordCountM3r {
    type K = Text;
    type V = LongWritable;

    fn build(seed: u64, sizes: &Sizes, rec: &mut Spans) -> Result<Self> {
        rec.enter("cluster");
        let (cluster, dfs) = fresh_cluster();
        rec.exit();

        rec.enter("dfs_generate");
        for i in 0..CORPUS_FILES {
            let file_seed = seed
                .wrapping_mul(CORPUS_FILES as u64)
                .wrapping_add(i as u64);
            generate_text(
                &dfs,
                &corpus_file(i),
                sizes.corpus_bytes / CORPUS_FILES,
                file_seed,
            )?;
        }
        rec.exit();

        rec.enter("engine_start");
        let engine = M3REngine::with_options(
            cluster.clone(),
            Arc::new(dfs.clone()),
            M3ROptions {
                worker_threads: WORKER_THREADS,
                ..M3ROptions::default()
            },
        );
        rec.exit();

        Ok(WordCountM3r {
            cluster,
            dfs,
            engine,
        })
    }

    fn pass(&mut self, rec: &mut Spans) -> Result<PassReport> {
        // One-shot job: the input must not be found in the cache.
        self.engine
            .caching_fs()
            .raw_cache()
            .delete(&HPath::new(CORPUS_DIR), true)?;
        let mut report = PassReport::default();
        let mut sw = Stopwatch::default();
        rec.enter("pass");
        rec.enter("job");
        let t0 = Instant::now();
        let result = sw.time(|| {
            run_wordcount(
                &mut self.engine,
                WcStyle::FreshText,
                &HPath::new(CORPUS_DIR),
                &HPath::new(OUTPUT_DIR),
                PARTITIONS,
            )
        });
        report.unit_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rec.exit();
        rec.exit();
        if let Ok(r) = &result {
            report.dfs_output_records += r.output_records;
        }
        report.absorb(&result);
        report.stamp(sw);
        Ok(report)
    }

    fn clear_outputs(&mut self) -> Result<()> {
        self.engine
            .caching_fs()
            .delete(&HPath::new(OUTPUT_DIR), true)?;
        Ok(())
    }

    /// Counts equal a `split_whitespace` reference over the corpus; returns
    /// the number of words whose count differs (missing and extra included).
    fn verify(&mut self) -> Result<u64> {
        let mut expect: BTreeMap<String, i64> = BTreeMap::new();
        for text in self.corpus()? {
            for w in text.split_whitespace() {
                *expect.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        let mut got: BTreeMap<String, i64> = BTreeMap::new();
        let mut duplicates = 0;
        for p in 0..PARTITIONS {
            let path = HPath::new(OUTPUT_DIR).join(&part_file_name(p));
            for (k, v) in read_seq_file::<Text, LongWritable>(&self.dfs, &path)? {
                if got.insert(k.as_str().to_string(), v.0).is_some() {
                    duplicates += 1;
                }
            }
        }
        let wrong = expect
            .iter()
            .filter(|(w, n)| got.get(*w) != Some(n))
            .count()
            + got.keys().filter(|w| !expect.contains_key(*w)).count();
        Ok(wrong as u64 + duplicates)
    }

    fn input_checksum(&mut self) -> Result<u64> {
        let mut sum = Checksum::default();
        for text in self.corpus()? {
            sum.add(text.as_bytes());
        }
        Ok(sum.sum)
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cache_bytes(&self) -> u64 {
        self.engine.cache().total_bytes()
    }

    fn text_input(&self) -> bool {
        true
    }

    /// Map output as the shuffle sees it: the corpus's words, in order.
    fn sample_pairs(&mut self, n: usize) -> Result<Vec<(Arc<Text>, Arc<LongWritable>)>> {
        let text = String::from_utf8(read_file(&self.dfs, &corpus_file(0))?.to_vec())
            .map_err(|e| HmrError::Serde(e.to_string()))?;
        Ok(text
            .split_whitespace()
            .cycle()
            .take(n)
            .map(|w| (Arc::new(Text::from(w)), Arc::new(LongWritable(1))))
            .collect())
    }
}
