//! # m3r-bench — harnesses that regenerate every figure of the paper
//!
//! One binary per figure (run with `cargo run --release -p m3r-bench --bin
//! figN`), each printing the series the paper plots, in simulated seconds
//! on a 20-node cluster calibrated like the paper's testbed:
//!
//! | Binary | Paper figure | Series |
//! |---|---|---|
//! | `fig6` | Figure 6 | Hadoop + M3R iterations 1–3 vs remote-shuffle % |
//! | `fig7` | Figure 7 | Hadoop vs M3R sparse matvec vs rows (+ M3R detail) |
//! | `fig8` | Figure 8 | WordCount: Hadoop new/reuse Text, M3R vs input MB |
//! | `fig9` | Figure 9 | SystemML GNMF vs rows |
//! | `fig10` | Figure 10 | SystemML linear regression vs points |
//! | `fig11` | Figure 11 | SystemML PageRank vs graph size |
//! | `repartition` | §6.1.1 | one-off repartitioning job cost |
//! | `ablations` | DESIGN.md | dedup / stability / cache / ImmutableOutput |
//! | `report` | — | per-job phase tables + Chrome traces of one run per engine |
//! | `memory` / `combine` / `memo` | extensions | budget sweep, place-level combining, resubmission reuse |
//!
//! Inputs are scaled down from the paper's absolute sizes (see
//! EXPERIMENTS.md). Simulated time is a function of the job alone: all
//! randomness is seeded and every charge — the workloads' modeled compute
//! included — is priced from the work, never from the host clock, so reruns
//! write byte-identical `bench-results/` files.
//!
//! Nothing here measures wall time: that is `e2e/` (`BENCHMARK.json`), which
//! imports [`fresh`] and the [`latency`] / [`servermix`] fixtures.

pub mod latency;
pub mod servermix;

use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

/// Nodes in the simulated cluster — the paper's testbed size.
pub const NODES: usize = 20;

/// A fresh paper-calibrated cluster + DFS.
pub fn cluster(nodes: usize) -> (Cluster, SimDfs) {
    let cluster = Cluster::new(nodes, CostModel::default());
    // 8 MB blocks, 2-way replication: scaled-down HDFS defaults.
    let fs = SimDfs::with_config(cluster.clone(), 8 << 20, 2);
    (cluster, fs)
}

/// [`cluster`] under the signature the `e2e/` benchmark calls, which always
/// passes 0.0 for a compute scale the cost model no longer has. Deleted with
/// the probe facade that lets `e2e/` stop naming this crate's internals
/// (ROADMAP item 2).
pub fn fresh(nodes: usize, compute_scale: f64) -> (Cluster, SimDfs) {
    assert_eq!(compute_scale, 0.0, "simulated time has no compute scale");
    cluster(nodes)
}

/// Print a CSV-ish table: header then rows.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n# {title}");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Format a simulated-seconds value.
pub fn secs(v: f64) -> String {
    format!("{v:.2}")
}

/// Write `contents` to `bench-results/<file>` (creating the directory),
/// returning the path written.
pub fn write_bench_file(file: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("bench-results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// A figure binary's result set: the tables it prints, collected so the
/// run also lands as machine-readable JSON in `bench-results/<name>.json`.
///
/// Each [`BenchReport::table`] call prints the table immediately;
/// [`BenchReport::finish`] serializes the same data for scripts to consume
/// — no JSON dependency, the escaper is shared with the trace exporter
/// ([`simgrid::trace::json_escape`]).
pub struct BenchReport {
    name: String,
    tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
}

impl BenchReport {
    /// Start a report named `name` (the JSON lands in
    /// `bench-results/<name>.json`).
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            tables: Vec::new(),
        }
    }

    /// Print one table (same text format as before) and keep it for the
    /// JSON emission.
    pub fn table(&mut self, title: &str, header: &[&str], rows: Vec<Vec<String>>) {
        print_table(title, header, &rows);
        self.tables.push((
            title.to_string(),
            header.iter().map(|h| h.to_string()).collect(),
            rows,
        ));
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        use simgrid::trace::json_escape;
        let mut out = format!("{{\n  \"name\": \"{}\",\n  \"tables\": [", json_escape(&self.name));
        for (i, (title, header, rows)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"title\": \"{}\",\n      \"header\": [{}],\n      \"rows\": [",
                json_escape(title),
                header
                    .iter()
                    .map(|h| format!("\"{}\"", json_escape(h)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            for (j, row) in rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        [{}]",
                    row.iter()
                        .map(|c| format!("\"{}\"", json_escape(c)))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write `bench-results/<name>.json` and return the path.
    pub fn finish(self) -> std::io::Result<std::path::PathBuf> {
        let path = write_bench_file(&format!("{}.json", self.name), &self.to_json())?;
        println!("\nwrote {}", path.display());
        Ok(path)
    }
}
