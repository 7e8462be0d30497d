//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, its parent span and the id of the
//! job it belongs to. Spans are kept in memory while the benchmark runs
//! and written out once at the end; a layer's self time is its span's
//! duration minus the time its direct children cover. With tracing off
//! every call is a no-op, so the untraced runs that give the end-to-end
//! metrics pay nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder. One per thread; [`Tracer::merge`] joins them.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread sharing this one's epoch and setting.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span; later spans nest under it until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, job: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as a span under the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, job);
        let out = f();
        self.exit();
        out
    }

    /// Append another thread's spans (their parent links are shifted).
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "merging a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// durations of its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times in milliseconds, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name).or_default().push(ns as f64 / 1e6);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(i as f64)),
                ("name".into(), Json::from(s.name)),
                ("job".into(), Json::Num(s.job as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                ("self_us".into(), Json::Num(own as f64 / 1e3)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            Span {
                name: "a",
                job: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b",
                job: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 50,
            },
            Span {
                name: "c",
                job: 1,
                parent: Some(1),
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                name: "b",
                job: 1,
                parent: Some(0),
                start_ns: 60,
                end_ns: 70,
            },
        ];
        assert_eq!(t.self_ns(), vec![50, 30, 10, 10]);
        let by_name = t.self_ms_by_name();
        assert_eq!(by_name["b"], vec![30e-6, 10e-6]);
    }

    #[test]
    fn nesting_and_merge_keep_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.enter("outer", 7);
        a.span("inner", 7, || ());
        a.exit();
        let mut b = a.fork();
        b.enter("other", 8);
        b.span("leaf", 8, || ());
        b.exit();
        a.merge(b);
        let parents: Vec<_> = a.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(a.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("x", 1);
        assert_eq!(t.span("y", 1, || 5), 5);
        t.exit();
        assert_eq!(t.len(), 0);
    }
}
