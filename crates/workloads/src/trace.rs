//! Trace serialization: write and replay edge-event streams.
//!
//! The paper's demo replays captured internet traffic (CAIDA traces). This
//! module provides the equivalent plumbing for the reproduction: any generated
//! workload can be persisted as a JSON-lines trace file and replayed later
//! (for reproducible experiments, cross-engine comparisons, or feeding an
//! engine from an external producer). One JSON object per line keeps the
//! format streamable and diff-friendly.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use streamworks_graph::{AttrValue, Attrs, EdgeEvent, Timestamp};

/// Serializable form of one edge event (one JSON line in a trace file).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TraceRecord {
    /// Source vertex external key.
    pub src: String,
    /// Source vertex type label.
    pub src_type: String,
    /// Destination vertex external key.
    pub dst: String,
    /// Destination vertex type label.
    pub dst_type: String,
    /// Edge type label.
    pub etype: String,
    /// Timestamp in microseconds of stream time.
    pub ts_micros: i64,
    /// Attributes as `(key, value)` pairs.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub attrs: Vec<(String, AttrValue)>,
}

impl From<&EdgeEvent> for TraceRecord {
    fn from(ev: &EdgeEvent) -> Self {
        TraceRecord {
            src: ev.src_key.clone(),
            src_type: ev.src_type.clone(),
            dst: ev.dst_key.clone(),
            dst_type: ev.dst_type.clone(),
            etype: ev.edge_type.clone(),
            ts_micros: ev.timestamp.as_micros(),
            attrs: ev
                .attrs
                .iter()
                .map(|(k, v)| (k.to_owned(), v.clone()))
                .collect(),
        }
    }
}

impl From<TraceRecord> for EdgeEvent {
    fn from(r: TraceRecord) -> Self {
        EdgeEvent {
            src_key: r.src,
            src_type: r.src_type,
            dst_key: r.dst,
            dst_type: r.dst_type,
            edge_type: r.etype,
            timestamp: Timestamp::from_micros(r.ts_micros),
            attrs: Attrs::from_pairs(r.attrs),
        }
    }
}

/// Errors raised while reading or writing traces.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed as a trace record.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes events to any writer, one JSON object per line.
pub fn write_trace<'a, W: Write>(
    writer: W,
    events: impl IntoIterator<Item = &'a EdgeEvent>,
) -> Result<usize, TraceError> {
    let mut out = BufWriter::new(writer);
    let mut count = 0usize;
    for ev in events {
        let record = TraceRecord::from(ev);
        let line = serde_json::to_string(&record).map_err(|e| TraceError::Parse {
            line: count + 1,
            message: e.to_string(),
        })?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        count += 1;
    }
    out.flush()?;
    Ok(count)
}

/// Writes events to a file path.
pub fn write_trace_file<'a>(
    path: impl AsRef<Path>,
    events: impl IntoIterator<Item = &'a EdgeEvent>,
) -> Result<usize, TraceError> {
    write_trace(File::create(path)?, events)
}

/// Reads all events from a reader (one JSON object per line, blank lines and
/// `#` comments ignored).
pub fn read_trace<R: io::Read>(reader: R) -> Result<Vec<EdgeEvent>, TraceError> {
    let buf = BufReader::new(reader);
    let mut events = Vec::new();
    for (i, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let record: TraceRecord = serde_json::from_str(trimmed).map_err(|e| TraceError::Parse {
            line: i + 1,
            message: e.to_string(),
        })?;
        events.push(record.into());
    }
    Ok(events)
}

/// Reads all events from a file path.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<Vec<EdgeEvent>, TraceError> {
    read_trace(File::open(path)?)
}

/// An iterator that replays a trace from any reader without materialising it.
pub struct TraceReplay<R: io::Read> {
    lines: io::Lines<BufReader<R>>,
    line_no: usize,
}

impl<R: io::Read> TraceReplay<R> {
    /// Creates a replay iterator over `reader`.
    pub fn new(reader: R) -> Self {
        TraceReplay {
            lines: BufReader::new(reader).lines(),
            line_no: 0,
        }
    }
}

impl<R: io::Read> Iterator for TraceReplay<R> {
    type Item = Result<EdgeEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line_no += 1;
            match self.lines.next()? {
                Err(e) => return Some(Err(TraceError::Io(e))),
                Ok(line) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    return Some(
                        serde_json::from_str::<TraceRecord>(trimmed)
                            .map(EdgeEvent::from)
                            .map_err(|e| TraceError::Parse {
                                line: self.line_no,
                                message: e.to_string(),
                            }),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CyberConfig, CyberTrafficGenerator};

    fn sample_events() -> Vec<EdgeEvent> {
        CyberTrafficGenerator::new(CyberConfig {
            background_edges: 50,
            ..Default::default()
        })
        .generate()
        .events
    }

    #[test]
    fn round_trip_preserves_events() {
        let events = sample_events();
        let mut buf = Vec::new();
        let written = write_trace(&mut buf, &events).unwrap();
        assert_eq!(written, events.len());
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn replay_iterator_streams_lazily() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        let replayed: Result<Vec<_>, _> = TraceReplay::new(buf.as_slice()).collect();
        assert_eq!(replayed.unwrap(), events);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "# a comment\n\n{}\n",
            serde_json::to_string(&TraceRecord {
                src: "a".into(),
                src_type: "IP".into(),
                dst: "b".into(),
                dst_type: "IP".into(),
                etype: "flow".into(),
                ts_micros: 123,
                attrs: vec![("bytes".into(), AttrValue::Int(10))],
            })
            .unwrap()
        );
        let events = read_trace(text.as_bytes()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].attrs.get("bytes").unwrap().as_int(), Some(10));
    }

    #[test]
    fn parse_errors_report_line_numbers() {
        let text = "# header\n{not json}\n";
        match read_trace(text.as_bytes()) {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_line_of_a_hundred_thousand_open_brackets_is_a_parse_error() {
        let text = "[".repeat(100_000);
        match read_trace(text.as_bytes()) {
            Err(TraceError::Parse { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("nesting"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let events = sample_events();
        let dir = std::env::temp_dir().join("streamworks-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        write_trace_file(&path, &events).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back.len(), events.len());
        std::fs::remove_file(&path).ok();
    }
}
