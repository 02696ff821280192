//! The traced run's span recorder.
//!
//! Every span records its name, start, end, parent and op id, plus a unit
//! count (particles, lanes) for per-unit figures.  Spans stay in memory,
//! one recorder per client thread, and are written once at exit.

use std::time::Instant;

/// Marks a root span (no parent).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.  Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the span covers (particles, lanes); 0 when not counted.
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory recorder for one thread.  Spans nest: a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for op `op`; every span opened until the matching
    /// [`Recorder::exit`] carries the same op id.
    pub fn enter_op(&mut self, name: &'static str, op: u64) -> u32 {
        self.op = op;
        self.enter(name)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
            units: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, and any span opened under it that is still open
    /// (a call that failed half way).
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = end;
            if open == id {
                break;
            }
        }
    }

    /// Records `units` of work on span `id`.
    pub fn set_units(&mut self, id: u32, units: u64) {
        self.spans[id as usize].units = units;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// The column header of [`write_tsv`].
pub const TSV_HEADER: &str = "thread\tid\tparent\top\tname\tstart_ns\tend_ns\tself_ns\tunits";

/// Writes spans as tab-separated rows (no header), with their self time;
/// a root span's parent is `-`.
pub fn write_tsv(
    out: &mut impl std::io::Write,
    spans: &[Span],
    thread: usize,
) -> std::io::Result<()> {
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        write!(out, "{thread}\t{i}\t")?;
        if s.parent == NO_PARENT {
            write!(out, "-")?;
        } else {
            write!(out, "{}", s.parent)?;
        }
        writeln!(
            out,
            "\t{}\t{}\t{}\t{}\t{self_ns}\t{}",
            s.op, s.name, s.start_ns, s.end_ns, s.units
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 40, 70),
            span("a.inner", 1, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("op", NO_PARENT, 100, 200),
            span("x", 0, 90, 130),
            span("y", 0, 120, 150),
            span("z", 0, 190, 260),
        ];
        // Covered: [100,150) and [190,200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("leaf", NO_PARENT, 5, 17)];
        assert_eq!(self_times(&spans), vec![12]);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.enter_op("op", 7);
        let child = rec.enter("child");
        rec.exit(child);
        let sibling = rec.time("sibling", rec_probe);
        rec.exit(root);
        assert_eq!(sibling, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, root);
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = self_times(spans);
        let kids = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(selfs[0], spans[0].duration_ns() - kids);
    }

    fn rec_probe() -> u32 {
        3
    }

    #[test]
    fn exit_closes_spans_left_open_below() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.enter_op("op", 1);
        rec.enter("failed.half.way");
        rec.exit(root);
        let next = rec.enter_op("op", 2);
        rec.exit(next);
        let spans = rec.spans();
        assert_eq!(spans[1].end_ns, spans[0].end_ns);
        assert_eq!(spans[2].parent, NO_PARENT);
    }

    #[test]
    fn tsv_rows_carry_parent_and_self_time() {
        let spans = [span("op", NO_PARENT, 0, 100), span("a", 0, 10, 30)];
        let mut out = Vec::new();
        write_tsv(&mut out, &spans, 3).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "3\t0\t-\t0\top\t0\t100\t80\t0\n3\t1\t0\t0\ta\t10\t30\t20\t0\n"
        );
    }
}
