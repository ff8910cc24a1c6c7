//! Allocations as a deterministic meter. Wall clock on a shared host cannot
//! tell small changes apart; the number of heap allocations a job makes
//! per record does not drift with the host. This binary counts every
//! allocation through its own `#[global_allocator]` and holds a single
//! test, so nothing else allocates while a pass is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hmr_api::counters::task_counter::MAP_OUTPUT_RECORDS;
use hmr_api::extensions::CacheFsExt;
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use workloads::{generate_text, run_wordcount, WcStyle};

mod common;
use common::fresh;

/// `System`, counting the calls that hand out a new block.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
        let before = ALLOCS.load(Ordering::Relaxed);
        let r = run_wordcount(&mut engine, WcStyle::FreshText, &corpus, &out, REDUCERS).unwrap();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        allocs as f64 / r.counters.task(MAP_OUTPUT_RECORDS) as f64
    };
    pass();
    let per_record = pass();
    assert!(
        per_record <= 2.5,
        "{per_record:.3} allocations per map output record (bound 2.5)"
    );
}
