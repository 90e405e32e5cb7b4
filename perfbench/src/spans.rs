//! In-memory span recorder for the traced run.
//!
//! A span brackets one call the benchmark makes into a layer: its name,
//! host start and end, the span that caused it, and the op index as the
//! request id. Spans stay in memory and are written out when the run
//! ends. With tracing off the recorder only runs the closure.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder's
/// origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: Option<u64>,
}

/// Span recorder shared by the benchmark's threads. Only the threads that
/// call [`Tracer::span`] touch the lock, and the runtime workloads record
/// from rank 0 alone, so it is uncontended.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span. `f` receives the new span's id to pass to
    /// its children (`None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: Option<u64>,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = f(Some(id));
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span lock poisoned").push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            req,
        });
        r
    }

    /// Take the recorded spans, ordered by start time.
    pub fn finish(self) -> Vec<Span> {
        let mut v = self.spans.into_inner().expect("span lock poisoned");
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap each other; their union counts
/// once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name, in seconds, ordered by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, u64)> {
    let mut acc: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = acc.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(n, (t, c))| (n, t as f64 * 1e-9, c))
        .collect()
}

/// Total self time of spans named `name`, in seconds.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    self_time_by_name(spans)
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .map_or(0.0, |(_, t, _)| t)
}

/// Total duration (not self time) of spans named `name`, in seconds.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns: a,
            end_ns: b,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(0), 60, 70),
            span(4, Some(1), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 18, 20, 10, 2]);
    }
}
