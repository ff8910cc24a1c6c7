//! Small-scale shape checks for every figure of the paper's evaluation —
//! the assertions behind EXPERIMENTS.md, kept fast enough for `cargo test`.
//! The full-size sweeps live in the `m3r-bench` binaries.

use std::sync::Arc;

use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;

mod common;
use common::fresh;

const NODES: usize = 4;

fn micro_partitioner() -> Box<dyn hmr_api::Partitioner<IntWritable, BytesWritable>> {
    Box::new(FnPartitioner::new(
        |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
    ))
}

/// Figure 6: Hadoop flat in remote %, M3R linear in remote %, M3R
/// iteration 2 cheaper than iteration 1, and M3R's worst point beats
/// Hadoop's best.
#[test]
fn fig6_shape() {
    let mut hadoop_times = Vec::new();
    let mut m3r_iter1 = Vec::new();
    let mut m3r_iter2 = Vec::new();
    for frac in [0.0, 0.5, 1.0] {
        let (cluster, fs) = fresh(NODES);
        workloads::microbench::generate_microbench_input(
            &fs, &HPath::new("/in"), 2_000, 500, NODES, 42,
        )
        .unwrap();
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
        let h = workloads::microbench::run_microbench(
            &mut hadoop, &HPath::new("/in"), &HPath::new("/w"), frac, 3, NODES, false, None,
        )
        .unwrap();
        hadoop_times.push(h.iter().map(|r| r.sim_time).collect::<Vec<_>>());

        let (cluster, fs) = fresh(NODES);
        workloads::microbench::generate_microbench_input(
            &fs, &HPath::new("/in"), 2_000, 500, NODES, 42,
        )
        .unwrap();
        let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs));
        m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), NODES, micro_partitioner)
            .unwrap();
        {
            use hmr_api::extensions::CacheFsExt;
            let raw = engine.caching_fs().raw_cache();
            raw.delete(&HPath::new("/st"), true).unwrap();
            raw.delete(&HPath::new("/in"), true).unwrap();
        }
        let m = workloads::microbench::run_microbench(
            &mut engine, &HPath::new("/st"), &HPath::new("/w"), frac, 3, NODES, true, None,
        )
        .unwrap();
        m3r_iter1.push(m[0].sim_time);
        m3r_iter2.push(m[1].sim_time);
    }

    // Hadoop: flat in remote fraction, iterations alike.
    for i in 0..3 {
        let spread = (hadoop_times[2][i] - hadoop_times[0][i]).abs();
        assert!(
            spread < 0.25 * hadoop_times[0][i],
            "hadoop iteration {i} should be flat: {hadoop_times:?}"
        );
    }
    // M3R: monotone in remote fraction. Iteration 1 is dominated by the
    // cold DFS read at this scale (its linearity is visible at the fig6
    // binary's full size), so the assertion targets the cache-hit
    // iteration where shuffle cost is the whole story.
    assert!(
        m3r_iter2[0] < m3r_iter2[1] && m3r_iter2[1] < m3r_iter2[2],
        "m3r cache-hit iteration grows with remote %: {m3r_iter2:?}"
    );
    // Iteration 2 strictly cheaper (cache) at every fraction.
    for (a, b) in m3r_iter1.iter().zip(&m3r_iter2) {
        assert!(b < a, "iteration 2 cheaper: {m3r_iter1:?} vs {m3r_iter2:?}");
    }
    // M3R's worst point still beats Hadoop.
    assert!(m3r_iter1[2] < hadoop_times[0][0]);
}

/// Figure 7: M3R wins by an order of magnitude and both engines grow with
/// the matrix size.
#[test]
fn fig7_shape() {
    let mut h_times = Vec::new();
    let mut m_times = Vec::new();
    for n in [200usize, 400] {
        let block = 50;
        let (cluster, fs) = fresh(NODES);
        workloads::matvec::generate_matvec_input(
            &fs, &HPath::new("/g"), &HPath::new("/v"), n, block, 0.05, NODES, 42,
        )
        .unwrap();
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
        let h = workloads::matvec::run_matvec_iterations(
            &mut hadoop, &HPath::new("/g"), &HPath::new("/v"), &HPath::new("/w"),
            3, NODES, n.div_ceil(block),
        )
        .unwrap();
        h_times.push(h.iter().map(|i| i.sim_time()).sum::<f64>());

        let (cluster, fs) = fresh(NODES);
        workloads::matvec::generate_matvec_input(
            &fs, &HPath::new("/g"), &HPath::new("/v"), n, block, 0.05, NODES, 42,
        )
        .unwrap();
        let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs));
        let m = workloads::matvec::run_matvec_iterations(
            &mut engine, &HPath::new("/g"), &HPath::new("/v"), &HPath::new("/w"),
            3, NODES, n.div_ceil(block),
        )
        .unwrap();
        m_times.push(m.iter().map(|i| i.sim_time()).sum::<f64>());
    }
    for (h, m) in h_times.iter().zip(&m_times) {
        assert!(m * 8.0 < *h, "M3R should win big: m3r {m} vs hadoop {h}");
    }
    assert!(h_times[1] > h_times[0], "hadoop grows with size");
}

/// Figure 8: M3R beats Hadoop on WordCount; on Hadoop the fresh-Text
/// (ImmutableOutput-compatible) variant costs more than reuse.
#[test]
fn fig8_shape() {
    use workloads::wordcount::{run_wordcount, WcStyle};
    let run = |engine_kind: &str, style: WcStyle| -> f64 {
        let (cluster, fs) = fresh(NODES);
        workloads::textgen::generate_text(&fs, &HPath::new("/in/c.txt"), 100_000, 5).unwrap();
        if engine_kind == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
            run_wordcount(&mut e, style, &HPath::new("/in"), &HPath::new("/o"), NODES)
                .unwrap()
                .sim_time
        } else {
            let mut e = m3r::M3REngine::new(cluster, Arc::new(fs));
            run_wordcount(&mut e, style, &HPath::new("/in"), &HPath::new("/o"), NODES)
                .unwrap()
                .sim_time
        }
    };
    let h_fresh = run("hadoop", WcStyle::FreshText);
    let h_reuse = run("hadoop", WcStyle::ReuseText);
    let m = run("m3r", WcStyle::FreshText);
    assert!(m < h_reuse, "M3R faster than the best Hadoop variant");
    assert!(
        h_fresh > h_reuse,
        "fresh allocations cost on Hadoop: {h_fresh} vs {h_reuse}"
    );
}

/// Figures 9–11: each SystemML program runs faster on M3R, with identical
/// numeric results.
#[test]
fn fig9_10_11_shape() {
    let (n, m, k, block) = (80usize, 60usize, 4usize, 20usize);

    // GNMF (Figure 9)
    let gnmf = |kind: &str| {
        let (cluster, fs) = fresh(NODES);
        sysml::block::generate_blocked_sparse(&fs, &HPath::new("/v"), n, m, block, 0.1, NODES, 4)
            .unwrap();
        if kind == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
            sysml::gnmf::run_gnmf(&mut e, &fs, &HPath::new("/v"), &HPath::new("/w"), n, m, k, block, NODES, 2, 7)
                .unwrap()
                .total_sim_time()
        } else {
            let mut e = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
            sysml::gnmf::run_gnmf(&mut e, &fs, &HPath::new("/v"), &HPath::new("/w"), n, m, k, block, NODES, 2, 7)
                .unwrap()
                .total_sim_time()
        }
    };
    let (h, mm) = (gnmf("hadoop"), gnmf("m3r"));
    assert!(mm * 3.0 < h, "GNMF: m3r {mm} vs hadoop {h}");

    // Linear regression (Figure 10)
    let linreg = |kind: &str| {
        let (cluster, fs) = fresh(NODES);
        sysml::block::generate_blocked_sparse(&fs, &HPath::new("/x"), n, m, block, 0.1, NODES, 4)
            .unwrap();
        let y = sysml::dense::DenseMatrix::from_vec(n, 1, vec![1.0; n]).unwrap();
        if kind == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
            sysml::linreg::run_linreg(&mut e, &fs, &HPath::new("/x"), &HPath::new("/w"), &y, n, m, block, NODES, 2, 0.1)
                .unwrap()
                .total_sim_time()
        } else {
            let mut e = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
            sysml::linreg::run_linreg(&mut e, &fs, &HPath::new("/x"), &HPath::new("/w"), &y, n, m, block, NODES, 2, 0.1)
                .unwrap()
                .total_sim_time()
        }
    };
    let (h, mm) = (linreg("hadoop"), linreg("m3r"));
    assert!(mm * 3.0 < h, "LinReg: m3r {mm} vs hadoop {h}");

    // PageRank (Figure 11)
    let pagerank = |kind: &str| {
        let (cluster, fs) = fresh(NODES);
        sysml::block::generate_blocked_sparse(&fs, &HPath::new("/g"), n, n, block, 0.1, NODES, 4)
            .unwrap();
        if kind == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
            let r = sysml::pagerank::run_pagerank(&mut e, &fs, &HPath::new("/g"), &HPath::new("/w"), n, block, NODES, 3, 0.85)
                .unwrap();
            (r.total_sim_time(), r.ranks.data)
        } else {
            let mut e = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
            let r = sysml::pagerank::run_pagerank(&mut e, &fs, &HPath::new("/g"), &HPath::new("/w"), n, block, NODES, 3, 0.85)
                .unwrap();
            (r.total_sim_time(), r.ranks.data)
        }
    };
    let (ht, hr) = pagerank("hadoop");
    let (mt, mr) = pagerank("m3r");
    assert!(mt * 3.0 < ht, "PageRank: m3r {mt} vs hadoop {ht}");
    for (a, b) in hr.iter().zip(&mr) {
        assert!((a - b).abs() < 1e-12, "identical ranks across engines");
    }
}

/// §6.1.1: repartitioning is a one-off cost that pays for itself.
#[test]
fn repartitioning_shape() {
    let (cluster, fs) = fresh(NODES);
    workloads::microbench::generate_microbench_input(&fs, &HPath::new("/in"), 2_000, 500, NODES, 42)
        .unwrap();
    let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs));
    let rep = m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), NODES, micro_partitioner)
        .unwrap();
    assert!(rep.sim_time > 0.0);
    let r = workloads::microbench::run_microbench(
        &mut engine, &HPath::new("/st"), &HPath::new("/w"), 0.0, 1, NODES, true, None,
    )
    .unwrap();
    assert_eq!(
        r[0].counters
            .task(hmr_api::counters::task_counter::REMOTE_SHUFFLED_RECORDS),
        0,
        "stable layout: a 0%-remote job moves nothing"
    );
}
