//! Outside-in tracing: a span around every call the benchmark makes into a
//! layer. Spans stay in memory until the workload ends; a layer's self
//! time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its tracer; spans of a merged set are renumbered.
pub type SpanId = u32;

/// Returned by a tracer that is off; never stored.
const NO_SPAN: SpanId = u32::MAX;

/// A tracer stops recording at this many spans and counts the rest, so a
/// much faster scheduler cannot turn a trace into gigabytes.
const MAX_SPANS: usize = 1 << 20;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one operation (one request, one pass) share this.
    pub trace: u64,
    pub thread: u32,
}

/// One thread's span recorder. Every thread of a workload shares `epoch`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Start a span; reads no clock when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, trace: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NO_SPAN;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.filter(|&p| p != NO_SPAN),
            trace,
            thread: self.thread,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Move another thread's spans in, renumbering their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span name: how many, their total duration, and their self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&(i as SpanId)) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// The trace document written when a traced workload ends.
pub fn to_json(workload: &str, tracer: &Tracer) -> String {
    let mut s = String::with_capacity(64 + tracer.spans.len() * 96);
    write!(
        s,
        "{{\"workload\":\"{workload}\",\"dropped_spans\":{},\"self_time\":[",
        tracer.dropped
    )
    .unwrap();
    for (i, (name, t)) in totals_by_name(&tracer.spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            s,
            "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        )
        .unwrap();
    }
    s.push_str("],\"spans\":[");
    for (i, sp) in tracer.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            s,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{},\"thread\":{}}}",
            sp.name, sp.start_ns, sp.end_ns, sp.trace, sp.thread
        )
        .unwrap();
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trace: 1,
            thread: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("encode", 0, 10, Some(0)),
            span("residency", 10, 80, Some(0)),
            span("decode", 80, 95, Some(0)),
            span("inner", 20, 30, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 60, 15, 10]);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["request"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 5
            }
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),   // overlaps a
            span("c", 100, 150, Some(0)), // runs past the parent
        ];
        // covered: 20..80 and 100..110
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_off_records_nothing_and_merge_renumbers() {
        let mut off = Tracer::off();
        let id = off.open("x", None, 0);
        off.close(id);
        assert!(off.spans().is_empty());

        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let root = a.open("root", None, 7);
        a.close(root);
        let mut b = Tracer::new(true, epoch, 1);
        let p = b.open("p", None, 8);
        let c = b.open("c", Some(p), 8);
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].thread, 1);
        assert!(api_json_parses(&to_json("w", &a)));
    }

    fn api_json_parses(text: &str) -> bool {
        crate::api::parse_json(text).is_ok()
    }
}
