//! In-memory span log for the traced run.
//!
//! The benchmark wraps its own calls into each layer in spans: name,
//! start, end, the span that caused it, and the request it belongs to.
//! Spans stay in memory until the run ends; then they are summarised per
//! name (count, mean duration, mean self time) and written out as TSV.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary, `layer.kind.op` (for example `rpc.call.read`).
    pub name: &'static str,
    /// Wall-clock start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// Wall-clock end, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Virtual (simulated) duration, ns; zero outside the simulator.
    pub virt_ns: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared span sink with one wall-clock epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span (or request) id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Takes every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children covers (children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.dur_ns() };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration, ns.
    pub dur_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed virtual duration, ns.
    pub virt_ns: u64,
}

impl Totals {
    /// Mean wall duration, µs (zero when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        per(self.dur_ns, self.count) / 1e3
    }
    /// Mean self time, µs.
    pub fn mean_self_us(&self) -> f64 {
        per(self.self_ns, self.count) / 1e3
    }
    /// Mean virtual duration, ms.
    pub fn mean_virt_ms(&self) -> f64 {
        per(self.virt_ns, self.count) / 1e6
    }
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Sums spans by name.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.virt_ns += s.virt_ns;
    }
    out
}

/// Writes the span log as TSV (`req id parent name start_ns end_ns virt_ns`).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns\tvirt_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.name, s.start_ns, s.end_ns, s.virt_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { req: 1, id, parent, name, start_ns: start, end_ns: end, virt_ns: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // req [0,100) → encode [0,10), call [10,90) → dispatch [30,70),
        // decode [90,100). The grandchild counts against `call` only.
        let spans = [
            span(1, None, "req", 0, 100),
            span(2, Some(1), "encode", 0, 10),
            span(3, Some(1), "call", 10, 90),
            span(4, Some(3), "dispatch", 30, 70),
            span(5, Some(1), "decode", 90, 100),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 40, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = [
            span(1, None, "p", 100, 200),
            span(2, Some(1), "a", 90, 130),  // overhangs the start
            span(3, Some(1), "b", 120, 150), // overlaps a
            span(4, Some(1), "c", 180, 260), // overhangs the end
        ];
        // Covered: [100,150) + [180,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn summary_means() {
        let mut spans = vec![span(1, None, "x", 0, 1000), span(2, None, "x", 0, 3000)];
        spans[0].virt_ns = 4_000_000;
        let sum = summarise(&spans);
        assert_eq!(sum["x"].count, 2);
        assert_eq!(sum["x"].mean_us(), 2.0);
        assert_eq!(sum["x"].mean_virt_ms(), 2.0);
        assert_eq!(Totals::default().mean_self_us(), 0.0);
    }
}
