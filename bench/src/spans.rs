//! Benchmark-owned spans: `{name, start_ns, end_ns, parent}` recorded
//! around calls into each layer, kept in memory and written out once at
//! the end of a traced run. Nothing inside the engine is instrumented.

use std::time::Instant;

use crate::report::{obj, Json};

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Single-threaded span recorder. Disabled recorders run the closure
/// and keep nothing, so traced and untraced jobs share one code path.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// The span file: every span with its self time (its duration minus
    /// the part its children cover; children of one parent never overlap
    /// because the recorder is single-threaded).
    pub fn to_json(&self, workload: &str) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("workload", Json::Str(workload.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    (
                        "self_ns",
                        Json::Num((s.end_ns - s.start_ns - child_ns[id]) as f64),
                    ),
                ])
            })
            .collect();
        obj([
            ("workload", Json::Str(workload.to_string())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.time("outer", |s| {
            s.time("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("b", |_| ());
        });
        let doc = spans.to_json("w");
        let list = match doc.get("spans") {
            Some(Json::Arr(l)) => l.clone(),
            other => panic!("no spans: {other:?}"),
        };
        assert_eq!(list.len(), 3);
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
        let dur = |s: &Json| num(s, "end_ns") - num(s, "start_ns");
        assert_eq!(list[0].get("parent"), Some(&Json::Null));
        assert_eq!(num(&list[1], "parent"), 0.0);
        assert_eq!(
            num(&list[0], "self_ns"),
            dur(&list[0]) - dur(&list[1]) - dur(&list[2])
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        let (v, secs) = spans.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(spans.to_json("w").get("spans"), Some(&Json::Arr(vec![])));
    }
}
