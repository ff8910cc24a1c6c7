//! `e2e selfcheck`: is it noise? Runs the untraced benchmark as child
//! processes (peak RSS is per process) in two interleaved sets A and B over
//! the same seeds, and judges every workload × end-to-end metric the way
//! the acceptance driver does: spread = (Q3 − Q1) ÷ median by Python's
//! `statistics.quantiles(n=4)`, against the bound in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;
use crate::stats::py_quartiles;

/// Where run artifacts go: `e2e/out/`, next to the sources this binary was
/// built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Gated {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// The workload names and end-to-end metrics of the `BENCHMARK.json` beside
/// the crate.
fn benchmark_spec() -> Result<(Vec<String>, Vec<Gated>), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    };
    let name_of = |j: &Json| match j.get("name") {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err("entry without a name".to_string()),
    };
    let workloads = list("workloads")?
        .iter()
        .map(name_of)
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            let higher_is_better = matches!(m.get("better"), Some(Json::Str(b)) if b == "higher");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Gated {
                name: name_of(m)?,
                higher_is_better,
                bound,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// One child run: the parsed result line.
fn child_run(workload: &str, seed: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "run {workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().ok_or("run printed nothing")?)
}

fn spread(values: &[f64]) -> ([f64; 3], f64) {
    let q = py_quartiles(values);
    (q, (q[2] - q[0]) / q[1])
}

/// Run `runs` seeds × sets A and B per workload and print the verdicts;
/// returns whether every metric passed.
pub fn selfcheck(
    runs: usize,
    only: Option<&str>,
    seconds: u64,
    seed0: u64,
) -> Result<bool, String> {
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let (workloads, metrics) = benchmark_spec()?;
    let mut all_ok = true;
    let mut report = Vec::new();
    println!(
        "{:<15} {:<15} {:>3} {:>13} {:>13} {:>13} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "set", "q1", "median", "q3", "iqr/med", "rng/med", "B-vs-A", "bound"
    );
    for workload in workloads
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.as_str()))
    {
        // results[set][run]
        let mut results: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            // Interleaved, alternating which set goes first.
            for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                results[set].push(child_run(workload, seed0 + i as u64, seconds)?);
            }
        }
        // Counts must repeat exactly for a given seed.
        let mut deterministic = true;
        for (a, b) in results[0].iter().zip(&results[1]) {
            let same = |key: &str| a.get(key) == b.get(key);
            let sim = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get("sim_s_per_pass"))
                    .cloned()
            };
            deterministic &= same("attempted") && same("failed") && sim(a) == sim(b);
        }
        let clean = results.iter().flatten().all(|r| {
            r.get("correct") == Some(&Json::Bool(true))
                && r.get("failed").and_then(Json::as_f64) == Some(0.0)
        });
        all_ok &= deterministic && clean;
        let mut rows = Vec::new();
        for Gated {
            name,
            higher_is_better,
            bound,
        } in &metrics
        {
            let values: Vec<Vec<f64>> = results
                .iter()
                .map(|set| {
                    set.iter()
                        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                        .collect()
                })
                .collect();
            if values.iter().any(|v| v.len() != runs) {
                return Err(format!("{workload}: metric {name} missing from a run"));
            }
            let (qa, sa) = spread(&values[0]);
            let (qb, sb) = spread(&values[1]);
            // How much worse set B's median is than set A's (negative: better).
            let worse = if *higher_is_better {
                (qa[1] - qb[1]) / qa[1]
            } else {
                (qb[1] - qa[1]) / qa[1]
            };
            // setup_s is exempt from the spread test, as in the driver.
            let spread_ok = name == "setup_s" || (sa <= *bound && sb <= *bound);
            let ok = spread_ok && worse.abs() <= *bound;
            let steady = sa.max(sb) <= bound / 3.0 && worse.abs() <= bound / 2.0;
            all_ok &= ok;
            let verdict = match (ok, steady) {
                (true, true) => "steady",
                (true, false) => "within bound",
                _ => "TOO NOISY",
            };
            for (set, q, s, v) in [("A", qa, sa, &values[0]), ("B", qb, sb, &values[1])] {
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
                println!(
                    "{workload:<15} {name:<15} {set:>3} {:>13.6} {:>13.6} {:>13.6} {:>7.2}% {:>7.2}% {:>8.2}% {:>5.1}%  {verdict}",
                    q[0], q[1], q[2], s * 100.0, (hi - lo) / q[1] * 100.0, worse * 100.0, bound * 100.0
                );
            }
            rows.push(Json::obj([
                ("metric", Json::Str(name.clone())),
                ("bound", Json::Num(*bound)),
                ("set_a", Json::nums(&values[0])),
                ("set_b", Json::nums(&values[1])),
                ("quartiles_a", Json::nums(&qa)),
                ("quartiles_b", Json::nums(&qb)),
                ("spread_a", Json::Num(sa)),
                ("spread_b", Json::Num(sb)),
                ("b_worse_than_a", Json::Num(worse)),
                ("verdict", Json::Str(verdict.into())),
            ]));
        }
        println!(
            "{workload:<15} counts (attempted, failed, sim_s_per_pass) repeat per seed: {deterministic}; all runs correct: {clean}"
        );
        report.push(Json::obj([
            ("workload", Json::Str(workload.clone())),
            ("counts_repeat_per_seed", Json::Bool(deterministic)),
            ("all_correct", Json::Bool(clean)),
            ("metrics", Json::Arr(rows)),
        ]));
    }
    let doc = Json::obj([
        ("runs_per_set", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("first_seed", Json::Num(seed0 as f64)),
        ("ok", Json::Bool(all_ok)),
        ("workloads", Json::Arr(report)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("selfcheck.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}
