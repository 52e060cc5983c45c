//! The traced run's span recorder: the benchmark times each call it makes
//! into a layer, keeps the spans in memory, folds them into per-name
//! self-time totals and writes one round of them out at the end.
//!
//! A span is named `<layer>.<call>` (`partition.admit.direct`,
//! `sim.level3`, …); its self time is its duration minus the durations of
//! its child spans. Children never overlap (every workload runs on one
//! thread), so the sum of their durations is the time they cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `<layer>.<call>` name.
    pub name: &'static str,
    /// Index of the trace, trial or task set the call served.
    pub trial: u32,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log of one traced round (or one set-up).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Empty log measuring from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// Record a call that ran from `start` to `end`; returns its index for
    /// use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        trial: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            trial: u32::try_from(trial).unwrap_or(u32::MAX),
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        self.spans.len() - 1
    }

    /// Close span `index` (pushed with a provisional end) at `end`.
    pub fn set_end(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    /// Add this log's calls, total and self time to `table`.
    pub fn fold_into(&self, table: &mut LayerTable) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        for (s, children) in self.spans.iter().zip(child_ns) {
            let agg = table.0.entry(s.name).or_default();
            agg.calls += 1;
            agg.total_ns += s.duration_ns();
            agg.self_ns += s.duration_ns().saturating_sub(children);
        }
    }

    /// Write the spans as JSON lines (`name`, `trial`, `parent`,
    /// `start_ns`, `end_ns`).
    ///
    /// # Errors
    /// I/O failure creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trial, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Calls, total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Span totals keyed by span name.
#[derive(Clone, Debug, Default)]
pub struct LayerTable(pub BTreeMap<&'static str, Agg>);

impl LayerTable {
    /// Totals of one span name (zero when it never ran).
    #[must_use]
    pub fn get(&self, name: &str) -> Agg {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over every span of `layer` (the name prefix before
    /// the first dot).
    #[must_use]
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.0
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ns| t0 + Duration::from_nanos(ns);
        let mut rec = Recorder::new(t0);
        let root = rec.push("harness.trial", 0, None, at(0), at(100));
        rec.push("partition.ffd", 0, Some(root), at(10), at(40));
        rec.push("partition.wfd", 0, Some(root), at(50), at(70));
        let mut table = LayerTable::default();
        rec.fold_into(&mut table);
        assert_eq!(table.get("harness.trial"), Agg { calls: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(table.get("partition.ffd").self_ns, 30);
        assert_eq!(table.layer_self_ns("partition"), 50);
        assert_eq!(table.get("sim.level1"), Agg::default());
    }
}
