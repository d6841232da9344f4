//! In-memory span recording for the traced run.
//!
//! Every call the traced run makes into a layer is wrapped in a span with
//! a name, start, end, parent span and request id. Spans stay in memory
//! until the run ends, when [`Tracer::write_jsonl`] writes them out and
//! [`self_times`] / [`covered`] turn them into per-layer figures.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Name prefix of wrapper spans that group one request's layer calls.
/// They carry the request id but are not a layer themselves, so they are
/// left out of coverage.
pub const REQUEST: &str = "request";

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or wrapper) name.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (equal to `start` while still open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch, for bracketing a traced phase.
    pub fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span log lock poisoned")
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let start = self.clock();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end = self.clock();
        self.lock()[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per span: its duration minus the part of its interval that its child
/// spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.len() - union_len(kids, s.start, s.end))
        .collect()
}

/// Per layer name: (summed self time in ns, span count). Wrapper spans
/// are skipped.
pub fn by_layer(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.name.starts_with(REQUEST) {
            continue;
        }
        let e = out.entry(s.name.clone()).or_insert((0, 0));
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Nanoseconds of `[lo, hi)` during which at least one layer span was
/// open on any thread.
pub fn covered(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !s.name.starts_with(REQUEST))
        .map(|s| (s.start, s.end))
        .collect();
    union_len(&mut iv, lo, hi)
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.len() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            request: 0,
        }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// 0 request  [0, 100)
    /// ├─ 1 a     [10, 60)
    /// │  ├─ 3 c  [20, 30)
    /// │  └─ 4 c  [25, 40)   overlaps 3: the union is [20, 40)
    /// └─ 2 b     [50, 90)   overlaps 1 (another thread)
    /// ```
    fn tree() -> Vec<Span> {
        vec![
            span("request", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 20, 30, Some(1)),
            span("c", 25, 40, Some(1)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request: 100 - |[10,90)| = 20; a: 50 - |[20,40)| = 30
        assert_eq!(self_times(&tree()), vec![20, 30, 40, 10, 15]);
    }

    #[test]
    fn layers_sum_self_time_and_count_spans() {
        let layers = by_layer(&tree());
        assert_eq!(layers.get("a"), Some(&(30, 1)));
        assert_eq!(layers.get("c"), Some(&(25, 2)));
        assert!(!layers.contains_key("request"), "wrappers are not layers");
    }

    #[test]
    fn coverage_is_the_union_of_layer_spans() {
        // layer spans cover [10, 90); the wrapper does not count
        assert_eq!(covered(&tree(), 0, 100), 80);
        // clipped to a window
        assert_eq!(covered(&tree(), 40, 70), 30);
    }

    #[test]
    fn union_merges_touching_and_disjoint_intervals() {
        let mut iv = vec![(5, 10), (0, 5), (20, 30), (25, 26)];
        assert_eq!(union_len(&mut iv, 0, 100), 20);
        assert_eq!(union_len(&mut [], 0, 100), 0);
    }

    #[test]
    fn tracer_records_nesting_and_request_ids() {
        let t = Tracer::default();
        let root = t.open("request", None, 7);
        let v = t.span("layer", Some(root), 7, || 42);
        t.close(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
