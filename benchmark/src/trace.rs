//! Spans recorded from the benchmark's own files, around calls into the
//! crates' public functions.  Spans stay in memory until the run ends.

use serde::json::{Object, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// Shared by every span of one request; 0 outside any request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at the same boundary (rows, iterations, events).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> Value {
        let mut o = Object::new();
        o.insert("id", Value::UInt(u64::from(self.id)));
        o.insert(
            "parent",
            self.parent
                .map_or(Value::Null, |p| Value::UInt(u64::from(p))),
        );
        o.insert("request", Value::UInt(self.request));
        o.insert("name", Value::Str(self.name.to_string()));
        o.insert("start_ns", Value::UInt(self.start_ns));
        o.insert("end_ns", Value::UInt(self.end_ns));
        for (k, v) in &self.counts {
            o.insert(*k, Value::UInt(*v));
        }
        Value::Object(o)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

/// Records spans when enabled; every call is a branch and nothing else
/// when disabled, so the timed and the traced run share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans opened from here on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Attaches counts made at a span's boundary (the span may already be
    /// closed, so that counting does not stretch it).
    pub fn annotate(&mut self, open: Open, counts: &[(&'static str, u64)]) {
        if let Some(id) = open.0 {
            self.spans[id as usize].counts.extend_from_slice(counts);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.to_json().render());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (overlapping children are counted once, and a child
/// reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children.entry(p.id).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(iv) = children.get_mut(&s.id) {
                iv.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in iv.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: how many spans, their total self time, total duration
/// and the sum of each count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub counts: BTreeMap<&'static str, u64>,
}

impl NameTotals {
    /// Mean duration of one span, in microseconds (0 when none ran).
    pub fn mean_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.spans as f64 / 1e3
        }
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.self_ns += self_ns;
        t.total_ns += s.duration_ns();
        for (k, v) in &s.counts {
            *t.counts.entry(k).or_default() += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60 with grandchild 20..30, child 70..90.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_escaping_children_are_clipped() {
        // Children 10..50 and 30..70 overlap (cover 10..70 = 60); a third
        // child 90..130 escapes the parent and is clipped to 90..100.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_request();
        let a = t.open("outer");
        let b = t.open("inner");
        t.close(b);
        t.annotate(b, &[("rows", 3)]);
        t.close(a);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 1);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(totals["inner"].count("rows"), 3);
        let line = t.to_jsonl();
        let first = Value::parse(line.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.as_object().unwrap().get("name").unwrap().as_str(),
            Some("outer")
        );

        let mut off = Tracer::new(false);
        let s = off.open("x");
        off.close(s);
        assert!(off.spans().is_empty());
    }
}
