//! In-memory span recording for the traced run.
//!
//! Spans are recorded only by the benchmark's own timing adapters around
//! calls into the program's layers. Each adapter buffers its spans and
//! hands them to a shared [`Sink`] when it is dropped (or, for the
//! long-lived substrate adapter, on every push), so the hot path never
//! takes a contended lock. Nothing is written out until the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the shared clock
/// every span is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (e.g. `"cells.run"`).
    pub name: &'static str,
    /// Unique id, so children can name this span as their parent.
    pub id: u64,
    /// Id of the span that caused this one (the operation, or the sweep
    /// worker whose scratch a cell ran on).
    pub parent: u64,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A fresh span id.
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Where adapters deposit their spans. Clones share one buffer.
#[derive(Debug, Clone, Default)]
pub struct Sink {
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Sink {
    /// Appends a batch of spans.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking adapter")
            .extend(spans);
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span sink poisoned by a panicking adapter"),
        )
    }
}

/// Total nanoseconds covered by the union of `intervals`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Sum of the durations of the spans named `name`, and their count.
pub fn busy(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 10), (10, 12)]), 17);
    }
}
