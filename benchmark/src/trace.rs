//! In-memory span recorder for the traced runs.
//!
//! A span is `(name, start, end, parent, id)`: nanoseconds since the
//! recorder's origin, the index of the span that caused it (or
//! [`ROOT`]), and the request, round or candidate it belongs to. Spans
//! are kept in memory and written out once, after the run.
//!
//! Consecutive layer calls share a timestamp — one span's end is the
//! next one's start ([`Tracer::lap`]) — so the recorder's own cost, a
//! vector push, lands inside the following span instead of opening a
//! gap that no layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a span that nothing caused.
pub const ROOT: u32 = u32::MAX;

/// Name of the span wrapping one traced round; its direct children are
/// the layer calls [`Tracer::coverage`] sums.
pub const ROUND: &str = "round";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, as used in the per-layer metric names.
    pub name: &'static str,
    /// Start, in nanoseconds since the origin.
    pub start: u64,
    /// End, in nanoseconds since the origin.
    pub end: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Request id, round index or candidate index.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from (worker threads stamp their
    /// own spans against it).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32, id: u64) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent, id)
    }

    /// Ends the span `index` now.
    pub fn close(&mut self, index: u32) {
        let now = self.now();
        self.spans[index as usize].end = now;
    }

    /// Duration of span `index`, in nanoseconds.
    pub fn span_ns(&self, index: u32) -> u64 {
        self.spans[index as usize].ns()
    }

    /// Records a span from `*mark` to now and moves `*mark` to now.
    pub fn lap(&mut self, mark: &mut u64, name: &'static str, parent: u32, id: u64) {
        let now = self.now();
        self.record(name, *mark, now, parent, id);
        *mark = now;
    }

    /// Drops every span recorded so far (set-up work is not traced).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Per-name `(count, total ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
        }
        out
    }

    /// Total duration of the [`ROUND`] spans, in nanoseconds.
    pub fn round_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == ROUND)
            .map(Span::ns)
            .sum()
    }

    /// Share of the rounds' duration that the named `layers` cover:
    /// Σ the direct child spans of a round with one of those names ÷ Σ
    /// the rounds' durations less their direct children named in
    /// `excluded` (work that is not the traced path, such as a
    /// reference call timed beside it). Glue between layer calls counts
    /// against coverage.
    pub fn coverage(&self, layers: &[&str], excluded: &[&str]) -> f64 {
        let under_round =
            |s: &&Span| s.parent != ROOT && self.spans[s.parent as usize].name == ROUND;
        let sum = |names: &[&str]| -> u64 {
            self.spans
                .iter()
                .filter(under_round)
                .filter(|s| names.contains(&s.name))
                .map(Span::ns)
                .sum()
        };
        let wall = self.round_ns().saturating_sub(sum(excluded));
        sum(layers) as f64 / wall.max(1) as f64
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_named_direct_children_of_rounds_only() {
        let mut t = Tracer::new();
        let round = t.record(ROUND, 0, 100, ROOT, 0);
        let child = t.record("a", 0, 50, round, 0);
        t.record("glue", 50, 60, round, 0);
        t.record("b", 60, 80, round, 0);
        t.record("reference", 80, 100, round, 0);
        // A grandchild overlaps its parent and must not count twice.
        t.record("a", 10, 40, child, 0);
        assert!((t.coverage(&["a", "b"], &[]) - 0.7).abs() < 1e-12);
        // Glue counts against coverage; excluded work leaves the wall.
        assert!((t.coverage(&["a", "b"], &["reference"]) - 0.875).abs() < 1e-12);
        assert_eq!(t.totals()["a"], (2, 80));
    }
}
