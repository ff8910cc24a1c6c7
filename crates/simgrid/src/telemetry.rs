//! Pull-based telemetry: a stateless view over state its owners already
//! keep, exported as Prometheus-style text and JSON.
//!
//! The trace module answers "where did *simulated* time go inside a job";
//! this module is the operational sensor layer *around* jobs — the numbers
//! a fleet dashboard would scrape from a long-lived server: ticket
//! outcomes, submit→resolve latency histograms, lane busy-seconds, memory
//! watermarks, cache hit/miss/spill traffic, per-tenant resident bytes.
//! Every [`crate::Cluster`] carries one registry (shared by its job lanes,
//! like the memory accountant).
//!
//! # Design rules
//!
//! * **The registry owns no numbers.** It holds *sources*: one callback per
//!   subsystem instance (memory accountant, governed cache, reuse index,
//!   job server) that reads the state its owner keeps anyway and returns
//!   every [`Family`] it answers for, in one pass under the owner's one
//!   lock. Nothing is counted twice and no per-event path touches the
//!   registry; a family that needs a histogram buckets its owner's log at
//!   export time ([`Family::observe`]).
//! * **Simulation-invisible.** Nothing in this module touches clocks,
//!   [`crate::Metrics`], or job outputs: registering and exporting leaves
//!   simulated seconds, counters and `MetricsSnapshot`s bit-identical
//!   (pinned by `tests/serverobs.rs`).
//! * **One rendering.** [`TelemetryRegistry::prometheus_text`] and
//!   [`TelemetryRegistry::json`] both render the one sorted list the
//!   private `collect` returns; sources hand over label
//!   *pairs* and the escaping happens here. Families export in name order
//!   and samples in label order, so two exports of the same state are
//!   byte-identical.
//!
//! # Naming scheme
//!
//! `m3r_<subsystem>_<what>[_<unit>]` with snake-case label keys:
//! `m3r_server_jobs_total{state="completed"}`,
//! `m3r_mem_high_watermark_bytes{place="0"}`,
//! `m3r_cache_resident_bytes{owner="client-3"}`. Counters end in `_total`;
//! byte/second units are spelled out in the name, Prometheus-style.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::trace::json_escape;

/// How a family is typed in the exposition (`# TYPE`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Monotonically increasing over the owner's life.
    Counter,
    /// A value that can go down.
    Gauge,
    /// Bucketed observations; carries the ascending bucket upper bounds
    /// (an implicit `+Inf` bucket catches the rest).
    Histogram(&'static [f64]),
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram(_) => "histogram",
        }
    }
}

/// One sample's value.
#[derive(Debug, PartialEq)]
enum Value {
    Scalar(f64),
    /// Per-bucket (non-cumulative) counts, one per bound plus `+Inf`, and
    /// the sum of the observations.
    Buckets {
        bounds: &'static [f64],
        counts: Vec<u64>,
        sum: f64,
    },
}

/// One metric family as a source reports it: name, help, kind and the
/// current samples.
#[derive(Debug, PartialEq)]
pub struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    /// `(rendered label set, value)`.
    samples: Vec<(String, Value)>,
}

impl Family {
    /// An empty family.
    pub fn new(kind: Kind, name: &'static str, help: &'static str) -> Self {
        Family {
            name,
            help,
            kind,
            samples: Vec::new(),
        }
    }

    /// Add one counter/gauge sample. An empty `labels` is the unlabelled
    /// sample.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) {
        self.samples.push((render_labels(labels), Value::Scalar(value)));
    }

    /// Add one histogram sample by bucketing `observations` into the
    /// family's bounds.
    pub fn observe(&mut self, labels: &[(&str, &str)], observations: impl IntoIterator<Item = f64>) {
        let Kind::Histogram(bounds) = self.kind else {
            panic!("{} is not a histogram family", self.name);
        };
        let mut counts = vec![0u64; bounds.len() + 1];
        let mut sum = 0.0;
        for v in observations {
            counts[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += 1;
            sum += v;
        }
        let value = Value::Buckets { bounds, counts, sum };
        self.samples.push((render_labels(labels), value));
    }
}

/// Render label pairs as the Prometheus label-set string without braces
/// (`a="1",b="x"`, keys in caller order), escaping `\`, `"` and newline in
/// values as the exposition format requires.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (k, v) in labels {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// A telemetry source: called at every export, returns the current state
/// of every family one subsystem instance answers for.
pub type Source = Arc<dyn Fn() -> Vec<Family> + Send + Sync>;

/// The registry of telemetry sources. `Clone` is shallow: clones (and the
/// cluster's job lanes) share one registry.
#[derive(Clone, Default)]
pub struct TelemetryRegistry {
    sources: Arc<Mutex<BTreeMap<&'static str, Source>>>,
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("sources", &self.sources.lock().keys())
            .finish()
    }
}

impl TelemetryRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        TelemetryRegistry::default()
    }

    /// Register `source` as subsystem `name`, replacing any source already
    /// registered under that name (a second engine or server started on
    /// the same cluster takes over its subsystem's families).
    pub fn register(&self, name: &'static str, source: Source) {
        self.sources.lock().insert(name, source);
    }

    /// Ask every source for its families: the one list both exports render,
    /// families in name order, samples in rendered-label order.
    fn collect(&self) -> Vec<Family> {
        // Sources lock their owners; don't hold the registry lock meanwhile.
        let sources: Vec<Source> = self.sources.lock().values().cloned().collect();
        let mut families: Vec<Family> = sources.iter().flat_map(|s| s()).collect();
        families.sort_by_key(|f| f.name);
        for f in &mut families {
            f.samples.sort_by(|a, b| a.0.cmp(&b.0));
        }
        families
    }

    /// Export in the Prometheus text exposition format: `# HELP` / `# TYPE`
    /// headers, one sample per line; histograms as cumulative
    /// `_bucket{le=…}` lines plus `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for fam in self.collect() {
            let name = fam.name;
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, value) in &fam.samples {
                match value {
                    Value::Scalar(v) => sample_line(&mut out, name, labels, None, &fmt_value(*v)),
                    Value::Buckets { bounds, counts, sum } => {
                        let bucket = format!("{name}_bucket");
                        for (le, cum) in cumulative(bounds, counts) {
                            let le = le.map_or("+Inf".to_string(), fmt_value);
                            sample_line(&mut out, &bucket, labels, Some(&le), &cum.to_string());
                        }
                        sample_line(&mut out, &format!("{name}_sum"), labels, None, &fmt_value(*sum));
                        let count = counts.iter().sum::<u64>().to_string();
                        sample_line(&mut out, &format!("{name}_count"), labels, None, &count);
                    }
                }
            }
        }
        out
    }

    /// Export as a JSON document: `{"families": [{name, type, help,
    /// samples: [{labels, value | count/sum/buckets}]}]}`. Same ordering
    /// guarantees as the text format; no JSON dependency (shared escaper).
    pub fn json(&self) -> String {
        let fams: Vec<String> = self
            .collect()
            .iter()
            .map(|fam| {
                let samples: Vec<String> = fam
                    .samples
                    .iter()
                    .map(|(labels, value)| {
                        let labels = json_escape(labels);
                        match value {
                            Value::Scalar(v) => {
                                format!("{{\"labels\":\"{labels}\",\"value\":{}}}", fmt_value(*v))
                            }
                            Value::Buckets { bounds, counts, sum } => {
                                // The `+Inf` bucket is `count` itself.
                                let buckets: Vec<String> = cumulative(bounds, counts)
                                    .filter_map(|(le, cum)| {
                                        let le = fmt_value(le?);
                                        Some(format!("{{\"le\":{le},\"count\":{cum}}}"))
                                    })
                                    .collect();
                                format!(
                                    "{{\"labels\":\"{labels}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                                    counts.iter().sum::<u64>(),
                                    fmt_value(*sum),
                                    buckets.join(",")
                                )
                            }
                        }
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"type\":\"{}\",\"help\":\"{}\",\"samples\":[{}]}}",
                    json_escape(fam.name),
                    fam.kind.as_str(),
                    json_escape(fam.help),
                    samples.join(",")
                )
            })
            .collect();
        format!("{{\"families\":[{}]}}\n", fams.join(",\n"))
    }
}

/// `(upper bound, cumulative count)` per bucket of a histogram sample; the
/// last bucket is `+Inf` (`None`).
fn cumulative<'a>(
    bounds: &'a [f64],
    counts: &'a [u64],
) -> impl Iterator<Item = (Option<f64>, u64)> + 'a {
    let les = bounds.iter().copied().map(Some).chain([None]);
    les.zip(counts.iter().scan(0u64, |cum, c| {
        *cum += c;
        Some(*cum)
    }))
}

/// Append one sample line; `le` (a histogram bucket's bound) renders after
/// the sample's own labels.
fn sample_line(out: &mut String, name: &str, labels: &str, le: Option<&str>, value: &str) {
    let mut all = labels.to_string();
    if let Some(le) = le {
        if !all.is_empty() {
            all.push(',');
        }
        let _ = write!(all, "le=\"{le}\"");
    }
    let _ = if all.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{all}}} {value}")
    };
}

/// Trim floats so integers export without a trailing `.0...` tail and
/// non-integers keep full precision.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scalar(kind: Kind, name: &'static str, labels: &[(&str, &str)], v: f64) -> Family {
        let mut f = Family::new(kind, name, "help");
        f.sample(labels, v);
        f
    }

    #[test]
    fn sources_are_pulled_at_export_time() {
        let reg = TelemetryRegistry::new();
        let cell = Arc::new(AtomicU64::new(5));
        let seen = Arc::clone(&cell);
        reg.register(
            "test",
            Arc::new(move || {
                let v = seen.load(Ordering::Relaxed) as f64;
                vec![scalar(Kind::Gauge, "m3r_test_bytes", &[], v)]
            }),
        );
        assert!(reg.prometheus_text().contains("m3r_test_bytes 5\n"));
        cell.store(9, Ordering::Relaxed);
        assert!(
            reg.prometheus_text().contains("m3r_test_bytes 9\n"),
            "sources re-evaluate per export"
        );
    }

    #[test]
    fn a_source_registered_twice_under_one_name_replaces() {
        let reg = TelemetryRegistry::new();
        for v in [1.0, 2.0] {
            reg.register(
                "test",
                Arc::new(move || vec![scalar(Kind::Gauge, "m3r_test_bytes", &[], v)]),
            );
        }
        let text = reg.prometheus_text();
        assert_eq!(text.matches("# TYPE m3r_test_bytes").count(), 1);
        assert!(text.contains("m3r_test_bytes 2\n") && !text.contains("m3r_test_bytes 1\n"));
    }

    #[test]
    fn label_values_are_escaped_into_one_well_formed_line() {
        let reg = TelemetryRegistry::new();
        reg.register(
            "test",
            Arc::new(|| {
                vec![scalar(
                    Kind::Gauge,
                    "m3r_cache_resident_bytes",
                    &[("owner", "a\"b\\c\nd")],
                    7.0,
                )]
            }),
        );
        let text = reg.prometheus_text();
        assert!(text.contains("m3r_cache_resident_bytes{owner=\"a\\\"b\\\\c\\nd\"} 7\n"));
        assert_eq!(text.lines().count(), 3, "HELP, TYPE and exactly one sample line");
        assert!(reg.json().contains(r#""labels":"owner=\"a\\\"b\\\\c\\nd\"""#));
    }

    #[test]
    fn total_families_export_as_counters() {
        let reg = TelemetryRegistry::new();
        reg.register(
            "test",
            Arc::new(|| {
                vec![
                    scalar(Kind::Counter, "m3r_test_total", &[("state", "ok")], 3.0),
                    scalar(Kind::Gauge, "m3r_test_bytes", &[], 1.0),
                ]
            }),
        );
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE m3r_test_total counter\n"));
        assert!(text.contains("# TYPE m3r_test_bytes gauge\n"));
        assert!(text.contains("m3r_test_total{state=\"ok\"} 3\n"));
    }

    #[test]
    fn histograms_bucket_at_export_and_render_cumulatively() {
        let reg = TelemetryRegistry::new();
        reg.register(
            "test",
            Arc::new(|| {
                let mut f = Family::new(Kind::Histogram(&[1.0, 10.0, 100.0]), "m3r_test_ms", "latency");
                f.observe(&[("client", "a")], [0.5, 2.0, 3.0, 50.0, 1e6]);
                vec![f]
            }),
        );
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE m3r_test_ms histogram\n"));
        assert!(text.contains("m3r_test_ms_bucket{client=\"a\",le=\"1\"} 1\n"));
        assert!(text.contains("m3r_test_ms_bucket{client=\"a\",le=\"10\"} 3\n"));
        assert!(text.contains("m3r_test_ms_bucket{client=\"a\",le=\"100\"} 4\n"));
        assert!(text.contains("m3r_test_ms_bucket{client=\"a\",le=\"+Inf\"} 5\n"));
        assert!(text.contains("m3r_test_ms_sum{client=\"a\"} 1000055.5\n"));
        assert!(text.contains("m3r_test_ms_count{client=\"a\"} 5\n"));
        let json = reg.json();
        assert!(json.contains("\"name\":\"m3r_test_ms\",\"type\":\"histogram\""));
        assert!(json.contains("\"count\":5,\"sum\":1000055.5"));
        assert!(json.contains("{\"le\":100,\"count\":4}]"), "+Inf is the count itself");
    }

    #[test]
    fn export_is_sorted_and_byte_identical_across_collections() {
        let reg = TelemetryRegistry::new();
        reg.register(
            "zz",
            Arc::new(|| vec![scalar(Kind::Counter, "m3r_a_total", &[], 7.0)]),
        );
        reg.register(
            "aa",
            Arc::new(|| {
                let mut f = Family::new(Kind::Counter, "m3r_b_total", "b");
                f.sample(&[("z", "1")], 1.0);
                f.sample(&[("a", "1")], 1.0);
                vec![f]
            }),
        );
        let text = reg.prometheus_text();
        assert_eq!(text, reg.prometheus_text());
        assert_eq!(reg.json(), reg.json());
        assert_eq!(reg.collect(), reg.collect());
        let at = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("missing {needle}"));
        assert!(at("m3r_a_total") < at("m3r_b_total"), "families export in name order");
        assert!(at("m3r_b_total{a=") < at("m3r_b_total{z="), "samples in label order");
    }
}
