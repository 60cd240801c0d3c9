//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer's public functions — nothing inside the program is touched.
//! They are kept in memory and written once, when the run ends. A layer's
//! self time is its span's duration minus the part its child spans cover.
//! Only the benchmark's driving thread records, so nesting is a stack.

use std::path::Path;
use std::time::Instant;

use telemetry::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<module>.<call>`, e.g. `stats.pearson_blocked.n61`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Work done inside the span, counted at the same boundary (calls,
    /// pairs, bytes — the span's name says which).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; every span carries the workload as its
/// shared identifier.
pub struct Recorder {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`, child of whichever span is
    /// open. `f` gets the recorder to open child spans and returns the
    /// count of work it did alongside its value.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> (T, u64)) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(idx);
        let (value, count) = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].count = count;
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `idx`'s duration minus its direct children's, in ns.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(children)
    }

    /// Write every span to `path` as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(i as f64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ("self_ns".into(), Json::Num(self.self_ns(i) as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("count".into(), Json::Num(s.count as f64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("spans".into(), Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new("t");
        rec.span("outer", |rec| {
            spin(4);
            rec.span("a", |_| (spin(3), 1));
            rec.span("b", |rec| {
                rec.span("b.inner", |_| (spin(2), 7));
                ((), 2)
            });
            ((), 0)
        });
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].count, 7);
        // Children nest inside the parent's interval.
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
        // outer self = outer − (a + b); the grandchild is not subtracted twice.
        assert_eq!(
            rec.self_ns(0),
            s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns()
        );
        assert!(rec.self_ns(0) >= 4_000_000);
        assert_eq!(rec.self_ns(3), s[3].dur_ns());
    }

    #[test]
    fn written_trace_parses_back() {
        let mut rec = Recorder::new("w");
        rec.span("x", |_| ((), 3));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        rec.write(&path).unwrap();
        let doc = telemetry::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("w"));
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
