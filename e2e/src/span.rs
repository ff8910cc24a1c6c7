//! Harness-side spans for the traced run: recorded around the calls into
//! each layer (never inside the program), kept in memory, written at exit
//! as a Chrome trace. A span's *self time* is its duration minus the part
//! of that interval its child spans cover.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` is the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Display track in the Chrome trace: 0 for the harness thread's own
    /// nesting, 1.. for intervals that overlap each other (tickets).
    pub track: u32,
}

/// The in-memory recorder. Disabled (the untraced run) it records nothing
/// and `enter`/`exit` cost one branch.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            track: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let _ = self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Record an already-measured interval (a ticket's submit→resolve, read
    /// from the server's own recorder) as a child of `parent`, shown on
    /// `track`.
    pub fn add_closed(
        &mut self,
        parent: Option<u32>,
        name: &str,
        track: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            track,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span, indexed like `spans`: duration minus the union of
/// the children's intervals clipped to the parent (children may overlap —
/// 48 tickets are outstanding at once — and must not be subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Chrome trace (`chrome://tracing`, Perfetto): one complete event per
/// span, microsecond timestamps, `args` carrying id, parent and self time.
pub fn chrome_trace(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(&self_ns)
        .map(|(s, self_ns)| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(f64::from(s.track))),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("self_us", Json::Num(*self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0, 100),     // root
            span(1, Some(0), 10, 30),  // child
            span(2, Some(0), 30, 50),  // adjacent to 1
            span(3, Some(1), 12, 20),  // nested in 1
            span(4, Some(0), 40, 70),  // overlaps 2
            span(5, Some(0), 90, 120), // runs past the parent: clipped
        ];
        let st = self_times_ns(&spans);
        // Root: 100 − (10..70 = 60) − (90..100 = 10) = 30.
        assert_eq!(st[0], 30);
        assert_eq!(st[1], 20 - 8);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 8);
        assert_eq!(st[4], 30);
        assert_eq!(st[5], 30);
    }

    #[test]
    fn recorder_nests_by_call_order_and_disabled_records_nothing() {
        let mut rec = Spans::new(true);
        rec.scope("run", |rec| {
            rec.scope("setup", |rec| rec.scope("dfs_generate", |_| ()));
            let pass = rec.enter("pass");
            let (a, b) = (rec.now_ns(), rec.now_ns() + 5);
            rec.exit();
            rec.add_closed(pass, "ticket", 3, a, b);
        });
        let names: Vec<(&str, Option<u32>)> = rec
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("run", None),
                ("setup", Some(0)),
                ("dfs_generate", Some(1)),
                ("pass", Some(0)),
                ("ticket", Some(3))
            ]
        );
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let trace = chrome_trace(rec.spans());
        let doc = Json::parse(&trace).expect("chrome trace parses");
        assert_eq!(
            doc.get("traceEvents")
                .map(|e| matches!(e, Json::Arr(v) if v.len() == 5)),
            Some(true)
        );

        let mut off = Spans::new(false);
        off.scope("run", |off| off.add_closed(None, "x", 1, 0, 1));
        assert!(off.spans().is_empty());
    }
}
