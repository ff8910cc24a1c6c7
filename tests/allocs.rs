//! Allocations as a deterministic meter. Wall clock on a shared host cannot
//! tell small changes apart; the number of heap allocations a job makes
//! per record does not drift with the host. This binary counts every
//! allocation through the `counting` module's `#[global_allocator]` and
//! holds a single test, so nothing else allocates while a pass is counted.

use std::sync::Arc;

use hmr_api::counters::task_counter::MAP_OUTPUT_RECORDS;
use hmr_api::extensions::CacheFsExt;
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use workloads::{generate_text, run_wordcount, WcStyle};

mod common;
mod counting;
use common::fresh;
use counting::allocs;

const FILES: usize = 8;
const CORPUS_BYTES: usize = 3 << 20;
const REDUCERS: usize = 4;

/// The Fig. 8 one-shot WordCount (`FreshText`, combiner on) on M3R with
/// the input evicted before every pass: after a warm-up pass, the engine
/// and the mapper make at most 2.5 allocations per map output record. A
/// line or token copied into its own `String` costs about one more each.
#[test]
fn fresh_text_wordcount_allocations_per_record() {
    let (cluster, fs) = fresh(2);
    let corpus = HPath::new("/corpus");
    for i in 0..FILES {
        let file = corpus.join(&format!("text-{i:05}"));
        generate_text(&fs, &file, CORPUS_BYTES / FILES, i as u64).unwrap();
    }
    let opts = M3ROptions {
        worker_threads: 2,
        ..M3ROptions::default()
    };
    let mut engine = M3REngine::with_options(cluster, Arc::new(fs), opts);
    let out = HPath::new("/wc");
    let mut pass = || {
        engine.caching_fs().raw_cache().delete(&corpus, true).unwrap();
        engine.caching_fs().delete(&out, true).unwrap();
        let before = allocs();
        let r = run_wordcount(&mut engine, WcStyle::FreshText, &corpus, &out, REDUCERS).unwrap();
        let made = allocs() - before;
        made as f64 / r.counters.task(MAP_OUTPUT_RECORDS) as f64
    };
    pass();
    let per_record = pass();
    assert!(
        per_record <= 2.5,
        "{per_record:.3} allocations per map output record (bound 2.5)"
    );
}
