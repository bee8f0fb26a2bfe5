//! In-memory spans: name, start, end, parent and an operation id, recorded
//! by the benchmark around its calls into each layer and written out when
//! the run ends. A span's self time is its duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Fix the time origin every span is measured from.
pub(crate) fn init_epoch() {
    EPOCH.get_or_init(Instant::now);
}

fn ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) op: u64,
    pub(crate) name: &'static str,
    pub(crate) parent: u32,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

impl Span {
    pub(crate) fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans, plus the stack of spans still open.
#[derive(Debug, Default)]
pub(crate) struct Spans {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub(crate) fn with_capacity(n: usize) -> Spans {
        Spans {
            spans: Vec::with_capacity(n),
            stack: Vec::new(),
        }
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Open a span that later spans nest under until [`Spans::close`].
    pub(crate) fn open(&mut self, op: u64, name: &'static str) -> usize {
        let t = ns(Instant::now());
        let idx = self.spans.len();
        self.spans.push(Span {
            op,
            name,
            parent: self.parent(),
            start_ns: t,
            end_ns: t,
        });
        self.stack
            .push(u32::try_from(idx).expect("fewer than 2^32 spans"));
        idx
    }

    pub(crate) fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = ns(Instant::now());
        self.stack.retain(|&i| i as usize != idx);
    }

    /// A finished span from `from` until now, under the open span if any.
    pub(crate) fn record(&mut self, op: u64, name: &'static str, from: Instant) {
        self.spans.push(Span {
            op,
            name,
            parent: self.parent(),
            start_ns: ns(from),
            end_ns: ns(Instant::now()),
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span named `name`, in nanoseconds.
    pub(crate) fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns().saturating_sub(c) as f64)
            .collect()
    }

    /// Whole duration of every span named `name`, in nanoseconds.
    pub(crate) fn dur_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write every span as one JSON object per line; a span's `parent` is the
/// line number (0-based, within its thread's block) of its parent.
pub(crate) fn write_jsonl(path: &Path, threads: &[&Spans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, sp) in threads.iter().enumerate() {
        for s in sp.spans() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"thread\":{t},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::default();
        let root = sp.open(1, "outer");
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(3));
        sp.record(1, "inner", t);
        sp.close(root);
        let whole = sp.dur_ns("outer")[0];
        let own = sp.self_ns("outer")[0];
        assert!(
            whole >= 3e6 && own < whole - 2.9e6,
            "whole {whole} self {own}"
        );
        assert_eq!(sp.spans()[1].parent, 0);
    }
}
