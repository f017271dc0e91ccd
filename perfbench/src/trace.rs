//! In-memory span recording for traced runs.
//!
//! Spans are opened only by benchmark code, around calls into the
//! library's public functions. Recording is per thread and off by
//! default: every run executes the same `span` calls, but an untraced run
//! neither reads the clock nor allocates for them. Spans stay in memory
//! and are written as Chrome trace-event JSON when the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `simmpi.run` or `flowsim.corun`.
    pub name: &'static str,
    /// Free-form detail (a cell label), shown in the trace viewer.
    pub detail: String,
    /// The sweep cell the span belongs to (0 outside cells).
    pub cell: u64,
    /// Start and end, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cells: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cells: 0,
        })
    });
}

/// Stops recording and returns the spans, in opening order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

fn open(name: &'static str, detail: Option<&str>) -> Option<usize> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let parent = rec.open.last().copied();
        let cell = match detail {
            Some(_) => {
                rec.cells += 1;
                rec.cells
            }
            None => parent.map_or(0, |p| rec.spans[p].cell),
        };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            detail: detail.unwrap_or_default().to_owned(),
            cell,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let index = rec.spans.len() - 1;
        rec.open.push(index);
        Some(index)
    })
}

fn close(index: Option<usize>) {
    let Some(index) = index else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.open.pop();
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = open(name, None);
    let out = f();
    close(index);
    out
}

/// Runs `f` inside a span that starts a new cell, labelled `label`.
pub fn cell<T>(name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
    let index = open(name, Some(label));
    let out = f();
    close(index);
    out
}

/// Records `ns` nanoseconds spent in many short calls made during the
/// span that is open now, as one child span at its start. Used for
/// `Program::next_op`, which runs millions of times per cell.
pub fn aggregate(name: &'static str, ns: u64) {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else { return };
        let Some(&parent) = rec.open.last() else {
            return;
        };
        let start_ns = rec.spans[parent].start_ns;
        let cell = rec.spans[parent].cell;
        rec.spans.push(Span {
            name,
            detail: String::new(),
            cell,
            start_ns,
            end_ns: start_ns.saturating_add(ns),
            parent: Some(parent),
        });
    });
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share of the root spans' time that their child spans cover, in percent.
pub fn coverage_pct(spans: &[Span], self_ns: &[u64]) -> f64 {
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, &own) in spans.iter().zip(self_ns) {
        if s.parent.is_none() {
            total += s.duration_ns();
            uncovered += own;
        }
    }
    if total == 0 {
        return 0.0;
    }
    100.0 * (total - uncovered) as f64 / total as f64
}

/// The spans as a Chrome trace-event document (`ph: "X"` complete
/// events, microsecond timestamps), loadable in Perfetto or
/// `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"cell\":{},\"detail\":\"{}\"}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.cell,
            crate::report::escape(&s.detail),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            detail: String::new(),
            cell: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 ns and reaches past the root's end.
            span("b", 30, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
            // Nested inside `a` but outside the root's other children.
            span("c", 35, 38, Some(1)),
        ];
        let own = self_times(&spans);
        // Root: children cover [10, 100) -> 10 ns of self time.
        assert_eq!(own[0], 10);
        // `a`: 30 ns minus `leaf` (8) and `c` (3).
        assert_eq!(own[1], 19);
        assert_eq!(own[2], 90);
        assert_eq!(own[3], 8);
        assert_eq!(coverage_pct(&spans, &own), 90.0);
    }

    #[test]
    fn recording_is_off_until_enabled() {
        assert_eq!(super::span("x", || 7), 7);
        assert!(finish().is_empty());
        enable();
        cell("cell", "c0", || {
            super::span("inner", || aggregate("agg", 5))
        });
        let spans = finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cell", "inner", "agg"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.cell == 1));
        assert_eq!(spans[2].duration_ns(), 5);
        assert!(chrome_json(&spans).contains("\"name\":\"agg\""));
    }
}
