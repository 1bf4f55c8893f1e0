//! The benchmark's own span recorder: every call into a crate is bracketed by
//! [`Tracer::begin`]/[`Tracer::end`]. The untraced run only reads the clock; the traced
//! run also keeps the span (name, start, end, parent, program/request id) in memory and
//! writes a Chrome trace-event file plus a self-time table at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    /// Program index or request number the span belongs to.
    id: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: returned by [`Tracer::begin`], consumed by [`Tracer::end`].
pub struct Open {
    start: Instant,
    index: Option<u32>,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `<layer>.<what>`; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str, id: usize) -> Open {
        let index = self.enabled.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                id: id as u32,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(index);
            index
        });
        let start = Instant::now();
        if let Some(i) = index {
            self.spans[i as usize].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        Open { start, index }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ns = open.start.elapsed().as_nanos() as u64;
        if let Some(i) = open.index {
            let span = &mut self.spans[i as usize];
            span.end_ns = span.start_ns + ns;
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "spans must close innermost first"
            );
        }
        ns as f64
    }

    /// Self time (duration minus the part covered by child spans) summed per layer, the
    /// layer being the span name up to its first dot. Nanoseconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let covered = span.end_ns - span.start_ns;
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(covered);
            }
        }
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0) += own;
        }
        layers
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete event per span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\"id\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.id,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.root", 0);
        let a = t.begin("core.a", 1);
        let b = t.begin("ir.b", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(a);
        let root_ns = t.end(root) as u64;
        let layers = t.self_time_by_layer();
        assert_eq!(layers.values().sum::<u64>(), root_ns);
        assert!(layers["ir"] >= 2_000_000 && layers["core"] < layers["ir"]);
        assert!(t.chrome_json().contains("\"name\":\"core.a\""));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("core.a", 0);
        assert!(t.end(open) >= 0.0);
        assert!(t.self_time_by_layer().is_empty());
    }
}
