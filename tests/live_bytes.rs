//! Peak live heap as a deterministic meter. Resident set size on a shared
//! host moves with the allocator's arenas and the kernel; the bytes a pass
//! holds live at once do not. This binary tracks every allocation and
//! free through the `counting` module's `#[global_allocator]` and holds a
//! single test, so nothing else allocates while a pass is measured. Waves
//! run inline (`Workers::Never`) and on one place, so no two tasks hold
//! their buffers at the same time by chance of the schedule.

use std::sync::Arc;

use hmr_api::extensions::CacheFsExt;
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use simgrid::Workers;
use workloads::{generate_text, run_wordcount, WcStyle};

mod common;
mod counting;
use common::fresh;
use counting::{live_bytes, peak_live_bytes, reset_peak};

const FILES: usize = 8;
const CORPUS_BYTES: usize = 3 << 20;
const REDUCERS: usize = 4;
/// The bound on one pass's peak live bytes above what was live before it:
/// the pass peaks at 9 888 762 bytes in a debug build and 9 888 746 in a
/// release build, and the bound keeps the margin of 14.76 % it has had
/// since the fold landed. Keeping every emitted value until the combine
/// step peaked at 12 801 070; a per-record group id on top of the fold at
/// 10 050 630.
const PEAK_BOUND: u64 = 11_348_472;

/// The Fig. 8 one-shot WordCount (`FreshText`, combiner on) on M3R with
/// the input evicted before the pass: after a warm-up pass, the pass never
/// holds more than `PEAK_BOUND` bytes beyond what was live when it began.
/// A map task that kept every emitted value until its combine step would
/// hold each value's `Arc` and its slot in the partition's value list; one
/// that folds each value in as it is collected frees it on the spot.
#[test]
fn fresh_text_wordcount_peak_live_bytes() {
    let (cluster, fs) = fresh(1);
    let corpus = HPath::new("/corpus");
    for i in 0..FILES {
        let file = corpus.join(&format!("text-{i:05}"));
        generate_text(&fs, &file, CORPUS_BYTES / FILES, i as u64).unwrap();
    }
    let opts = M3ROptions {
        worker_threads: 2,
        workers: Workers::Never,
        ..M3ROptions::default()
    };
    let mut engine = M3REngine::with_options(cluster, Arc::new(fs), opts);
    let out = HPath::new("/wc");
    let mut pass = || {
        engine.caching_fs().raw_cache().delete(&corpus, true).unwrap();
        engine.caching_fs().delete(&out, true).unwrap();
        let before = live_bytes();
        reset_peak();
        run_wordcount(&mut engine, WcStyle::FreshText, &corpus, &out, REDUCERS).unwrap();
        peak_live_bytes() - before
    };
    pass();
    let peak = pass();
    assert!(
        peak <= PEAK_BOUND,
        "{peak} bytes peak live above the pass's start (bound {PEAK_BOUND})"
    );
}
