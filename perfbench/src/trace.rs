//! Spans recorded by the traced run around calls into each layer, kept
//! in memory and written once, at the end, as a chrome trace-event
//! document (`traceEvents`, `ph: "X"`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    /// Program or tenant index the span works for.
    tenant: u32,
    /// Interval index, or `u32::MAX` for spans covering many intervals.
    interval: u32,
}

/// An in-memory span log with a fixed capacity: spans past it are
/// counted, not kept, so a long run cannot grow the log without bound.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: usize,
}

impl Tracer {
    /// A log that keeps at most `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Opens a span now; close it with [`Tracer::close`]. `None` when the
    /// log is full (children of a `None` parent are dropped too).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        tenant: usize,
        interval: Option<usize>,
    ) -> Option<SpanId> {
        self.push(name, Instant::now(), None, parent, tenant, interval)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = Some(Instant::now());
        }
    }

    /// Records a finished span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<SpanId>,
        tenant: usize,
        interval: Option<usize>,
    ) -> Option<SpanId> {
        self.push(name, start, Some(end), parent, tenant, interval)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Option<Instant>,
        parent: Option<SpanId>,
        tenant: usize,
        interval: Option<usize>,
    ) -> Option<SpanId> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            tenant: tenant as u32,
            interval: interval.map_or(u32::MAX, |i| i as u32),
        });
        Some(self.spans.len() - 1)
    }

    /// Spans kept and spans dropped for capacity.
    #[must_use]
    pub fn counts(&self) -> (usize, usize) {
        (self.spans.len(), self.dropped)
    }

    /// The chrome trace-event document of every closed span.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let us = |t: Instant| t.duration_since(self.origin).as_nanos() as f64 / 1e3;
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        for (id, span) in self.spans.iter().enumerate() {
            let Some(end) = span.end else { continue };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = span.parent.map_or(-1, |p| p as i64);
            let interval = if span.interval == u32::MAX {
                -1
            } else {
                i64::from(span.interval)
            };
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \
                 \"parent\": {parent}, \"tenant\": {}, \"interval\": {interval}}}}}",
                json_string(span.name),
                us(span.start),
                us(end) - us(span.start),
                span.tenant,
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }

    /// Writes the document to `path` and checks it the way
    /// `regmon metrics --check` does. Returns the number of events.
    pub fn write(&self, path: &Path) -> Result<usize, String> {
        let text = self.to_chrome_json();
        let events = check_trace(&text)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(events)
    }
}

/// Parses a chrome trace document with the telemetry crate's parser and
/// requires a non-empty `traceEvents` array of complete (`"X"`) events.
pub fn check_trace(text: &str) -> Result<usize, String> {
    let doc = regmon_telemetry::parse::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("trace has no traceEvents array")?;
    if events.is_empty() {
        return Err("trace has no events".into());
    }
    if let Some(bad) = events
        .iter()
        .find(|e| e.get("ph").and_then(|p| p.as_str()) != Some("X"))
    {
        return Err(format!("trace event is not a complete span: {bad:?}"));
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_traces_pass_the_check() {
        let mut tracer = Tracer::new(3);
        let root = tracer.open("interval", None, 0, Some(5));
        let now = Instant::now();
        tracer.record("attribute", (now, now), root, 0, Some(5));
        tracer.close(root);
        tracer.record("gpd.observe", (now, now), root, 0, Some(5));
        tracer.record("dropped", (now, now), root, 0, Some(5));
        assert_eq!(tracer.counts(), (3, 1));
        assert_eq!(check_trace(&tracer.to_chrome_json()), Ok(3));
    }

    #[test]
    fn empty_and_open_only_traces_fail_the_check() {
        let mut tracer = Tracer::new(4);
        assert!(check_trace(&tracer.to_chrome_json()).is_err());
        let _open = tracer.open("interval", None, 0, None);
        assert!(check_trace(&tracer.to_chrome_json()).is_err());
    }
}
