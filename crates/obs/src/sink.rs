//! Trace sinks: where the runtime hands its [`TraceEvent`]s.
//!
//! The contract that keeps tracing free when it is off: the runtime asks
//! [`TraceSink::enabled`] *before constructing an event*, so with the
//! default [`NoopSink`] the hot path performs one virtual call returning a
//! constant and allocates nothing.

use std::collections::VecDeque;
use std::io::Write;

use crate::event::TraceEvent;
use crate::metrics::MetricsRegistry;

/// A consumer of trace events.
pub trait TraceSink {
    /// Whether the producer of events should bother constructing them.
    /// Implementations that discard events return `false` so callers can
    /// skip the (allocating) event construction entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: TraceEvent);

    /// The metrics registry this sink folds events into, when it has one.
    /// Lets the runtime surface histogram-derived statistics (RTT
    /// quantiles, batch fill) without knowing the concrete sink type.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// Takes the retained events out of the sink, oldest first. Sinks
    /// that keep no events (the default) return an empty vector; this
    /// lets a caller holding a `Box<dyn TraceSink>` recover a
    /// [`RingBufferSink`]'s capture without downcasting.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Events the sink recorded but no longer holds because it was full.
    /// Sinks that never drop (the default) return 0; a caller that builds
    /// timelines or counts from [`TraceSink::drain`] reads this to know
    /// whether they cover the whole run.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The zero-overhead default: reports itself disabled and discards
/// anything recorded anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory sink: keeps the most recent `capacity` events and
/// counts what it had to drop.
#[derive(Debug, Clone, Default)]
pub struct RingBufferSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring buffer holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    #[cfg(test)]
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Retained event count.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is retained.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.buf).into()
    }

    /// Events evicted (or refused) because the buffer was full.
    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A sink that serialises every event as one JSON object per line
/// (JSONL), suitable for offline analysis with any JSON tooling.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (a `File`, a `Vec<u8>`, ...).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            lines: 0,
            errors: 0,
        }
    }

    /// Lines successfully written.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn lines(&self) -> u64 {
        self.lines
    }

    /// Events that failed to serialise or write.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the flush error, if any.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        match serde_json::to_string(&event) {
            Ok(line) => {
                if writeln!(self.out, "{line}").is_ok() {
                    self.lines += 1;
                } else {
                    self.errors += 1;
                }
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Parses a JSONL trace (as written by [`JsonlSink`]) back into events.
///
/// Blank lines are skipped, so a trailing newline is fine.
///
/// # Errors
///
/// Returns the first line that fails to parse, with its 1-based number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LossCause;
    use desim::SimTime;

    fn ev(key: u64) -> TraceEvent {
        TraceEvent::Enqueued {
            at: SimTime::from_millis(key),
            key,
            partition: 0,
            deadline: SimTime::from_millis(key + 500),
        }
    }

    #[test]
    fn noop_is_disabled_and_discards() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.record(ev(1));
        assert!(sink.metrics().is_none());
        assert_eq!(sink.dropped(), 0, "it keeps nothing, so drops nothing");
    }

    #[test]
    fn ring_buffer_keeps_the_newest() {
        let mut sink = RingBufferSink::new(3);
        assert!(sink.enabled());
        for k in 0..5 {
            sink.record(ev(k));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let keys: Vec<u64> = sink.events().filter_map(TraceEvent::key).collect();
        assert_eq!(keys, vec![2, 3, 4]);
    }

    #[test]
    fn drain_recovers_events_through_the_trait_object() {
        let mut sink: Box<dyn TraceSink> = Box::new(RingBufferSink::new(8));
        sink.record(ev(1));
        sink.record(ev(2));
        let events = sink.drain();
        assert_eq!(
            events
                .iter()
                .filter_map(TraceEvent::key)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(sink.drain().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut sink = RingBufferSink::new(0);
        sink.record(ev(0));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = vec![
            ev(7),
            TraceEvent::Expired {
                at: SimTime::from_millis(9),
                key: 7,
                cause: LossCause::ExpiredInBuffer,
                batch: Some(2),
            },
        ];
        for e in &events {
            sink.record(e.clone());
        }
        assert_eq!(sink.lines(), 2);
        assert_eq!(sink.errors(), 0);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }
}
