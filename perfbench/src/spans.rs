//! The span recorder: spans around every call the harness makes into a
//! layer's public functions, kept in memory and written out when the
//! run ends. When the recorder is off (`bench run`), `enter`/`exit`
//! return at once without reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `engine.eval`; the unit's root is `unit`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the spans file, if any.
    pub parent: Option<usize>,
    /// Which timed unit the span belongs to.
    pub unit: usize,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`], consumed by
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span log.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: usize,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open` (and anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Share of the `unit` root spans' wall time that falls inside a
    /// named child span: `1 − Σ self(unit) ÷ Σ duration(unit)`. A run
    /// whose layers do not reconcile with the unit wall reads low.
    pub fn attributed_ratio(&self) -> f64 {
        let own = self.self_times();
        let (mut wall, mut unattributed) = (0u64, 0u64);
        for (span, own) in self.spans.iter().zip(&own) {
            if span.name == "unit" {
                wall += span.duration();
                unattributed += own;
            }
        }
        if wall == 0 {
            return 0.0;
        }
        1.0 - unattributed as f64 / wall as f64
    }

    /// Per span name, the median over units of the self time spent
    /// under that name in one unit, in milliseconds.
    pub fn self_ms_per_unit(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut per_unit: BTreeMap<&'static str, BTreeMap<usize, u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&own) {
            *per_unit
                .entry(span.name)
                .or_default()
                .entry(span.unit)
                .or_insert(0) += own;
        }
        per_unit
            .into_iter()
            .map(|(name, units)| {
                let mut ns: Vec<f64> = units.values().map(|&n| n as f64).collect();
                (name, crate::report::median(&mut ns) / 1e6)
            })
            .collect()
    }

    /// Writes one JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `parent` (line index or null), `unit`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.unit
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding hand-made spans, so arithmetic is tested on
    /// exact numbers rather than on what the clock happened to read.
    fn recorded(spans: &[(&'static str, u64, u64, Option<usize>, usize)]) -> Recorder {
        let mut rec = Recorder::new(true);
        rec.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent, unit)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                unit,
            })
            .collect();
        rec
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("unit");
        assert_eq!(rec.span("engine.eval", || 7), 7);
        rec.exit(open);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.attributed_ratio(), 0.0);
    }

    #[test]
    fn enter_and_exit_link_children_to_parents() {
        let mut rec = Recorder::new(true);
        rec.set_unit(3);
        let unit = rec.enter("unit");
        rec.span("engine.eval", || ());
        rec.exit(unit);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].unit, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_excludes_children_and_rolls_up_per_unit() {
        let rec = recorded(&[
            ("unit", 0, 100, None, 0),
            ("engine.eval", 10, 60, Some(0), 0),
            ("engine.export", 20, 30, Some(1), 0),
            ("unit", 100, 300, None, 1),
            ("engine.eval", 100, 280, Some(3), 1),
        ]);
        assert_eq!(rec.self_times(), vec![50, 40, 10, 20, 180]);
        // 70 of 300 ns of unit wall lie outside every child span.
        assert!((rec.attributed_ratio() - (1.0 - 70.0 / 300.0)).abs() < 1e-12);
        let per_unit = rec.self_ms_per_unit();
        // Median over the two units of engine.eval self time: (40 + 180) / 2 ns.
        assert!((per_unit["engine.eval"] - 110e-6).abs() < 1e-12);
        assert!((per_unit["engine.export"] - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut rec = Recorder::new(true);
        let unit = rec.enter("unit");
        let _leaked = rec.enter("serve.rtt");
        rec.exit(unit);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let next = rec.enter("unit");
        rec.exit(next);
        assert_eq!(rec.spans()[2].parent, None);
    }
}
