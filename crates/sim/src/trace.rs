//! Span-oriented execution traces.
//!
//! A [`TraceLog`] records what ran where and when, as closed spans on named
//! *lanes* (one lane per workflow component in Figure 3: "LLM (Text)",
//! "Speech-to-Text", "LLM (Embeddings)", "Object Detection"). The ASCII
//! renderer reproduces the paper's timeline plots in a terminal.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// A closed interval of work on a lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Lane (component/resource) the span belongs to.
    pub lane: String,
    /// Human-readable label (task name, request id, ...).
    pub label: String,
    /// Span start time.
    pub start: SimTime,
    /// Span end time (`end >= start`).
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// An append-only log of spans.
///
/// # Examples
///
/// ```
/// use murakkab_sim::{SimTime, TraceLog};
///
/// let mut log = TraceLog::new();
/// log.record("Speech-to-Text", "scene-0", SimTime::ZERO, SimTime::from_secs(6));
/// assert_eq!(log.spans().len(), 1);
/// assert_eq!(log.makespan(), SimTime::from_secs(6));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceLog {
    spans: Vec<Span>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Records a span.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn record(
        &mut self,
        lane: impl Into<String>,
        label: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        assert!(end >= start, "span ends before it starts");
        self.spans.push(Span {
            lane: lane.into(),
            label: label.into(),
            start,
            end,
        });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on a given lane, in recording order.
    pub fn lane_spans(&self, lane: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.lane == lane).collect()
    }

    /// Distinct lane names, in first-appearance order.
    pub fn lanes(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for s in &self.spans {
            if !seen.contains(&s.lane.as_str()) {
                seen.push(s.lane.as_str());
            }
        }
        seen
    }

    /// The latest span end (simulation makespan as observed by the trace).
    pub fn makespan(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: &TraceLog) {
        self.spans.extend(other.spans.iter().cloned());
    }

    /// Exports the log in Chrome trace-event format (the JSON array
    /// flavour), loadable in `chrome://tracing` or Perfetto. Lanes map to
    /// thread ids so each component gets its own row.
    pub fn to_chrome_trace(&self) -> String {
        let lanes = self.lanes();
        let tid = |lane: &str| -> usize { lanes.iter().position(|l| *l == lane).unwrap_or(0) + 1 };
        let mut events = Vec::with_capacity(self.spans.len() + lanes.len());
        for (i, lane) in lanes.iter().enumerate() {
            events.push(serde_json::json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": i + 1,
                "args": {"name": lane},
            }));
        }
        for s in &self.spans {
            events.push(serde_json::json!({
                "name": s.label,
                "cat": s.lane,
                "ph": "X",
                "pid": 1,
                "tid": tid(&s.lane),
                "ts": s.start.as_micros(),
                "dur": s.duration().as_micros(),
            }));
        }
        serde_json::to_string(&events).expect("trace events serialize")
    }

    /// Renders the log as an ASCII Gantt chart, `width` characters wide.
    ///
    /// Each lane gets one row; cells show `#` where at least one span is
    /// active and `.` where the lane is idle. This is the terminal stand-in
    /// for the paper's Figure 3 timeline plots.
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let makespan = self.makespan();
        if makespan == SimTime::ZERO {
            return String::from("(empty trace)\n");
        }
        let total = makespan.as_secs_f64();
        let lanes = self.lanes();
        let name_w = lanes.iter().map(|l| l.len()).max().unwrap_or(0).max(4);
        let mut out = String::new();
        out.push_str(&format!(
            "{:>name_w$} 0s{}{:.0}s\n",
            "",
            " ".repeat(width.saturating_sub(6)),
            total
        ));
        for lane in &lanes {
            let mut cells = vec!['.'; width];
            for s in self.spans.iter().filter(|s| &s.lane == lane) {
                let a = ((s.start.as_secs_f64() / total) * width as f64).floor() as usize;
                let b = ((s.end.as_secs_f64() / total) * width as f64).ceil() as usize;
                for c in cells.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *c = '#';
                }
            }
            out.push_str(&format!(
                "{:>name_w$} {}\n",
                lane,
                cells.iter().collect::<String>()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_and_queries_spans() {
        let mut log = TraceLog::new();
        log.record("stt", "s0", t(0), t(6));
        log.record("llm", "sum0", t(6), t(20));
        log.record("stt", "s1", t(6), t(12));
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.lane_spans("stt").len(), 2);
        assert_eq!(log.lanes(), vec!["stt", "llm"]);
        assert_eq!(log.makespan(), t(20));
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn rejects_inverted_span() {
        let mut log = TraceLog::new();
        log.record("x", "bad", t(5), t(1));
    }

    #[test]
    fn ascii_render_shape() {
        let mut log = TraceLog::new();
        log.record("a", "first-half", t(0), t(50));
        log.record("b", "second-half", t(50), t(100));
        let art = log.render_ascii(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains('#'));
        // Lane `a` busy early, idle late; lane `b` the reverse.
        let a_row = lines[1].split_whitespace().last().unwrap();
        let b_row = lines[2].split_whitespace().last().unwrap();
        assert!(a_row.starts_with('#'));
        assert!(a_row.ends_with('.'));
        assert!(b_row.starts_with('.'));
        assert!(b_row.ends_with('#'));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(TraceLog::new().render_ascii(40), "(empty trace)\n");
    }

    #[test]
    fn merge_combines_spans() {
        let mut a = TraceLog::new();
        a.record("x", "1", t(0), t(1));
        let mut b = TraceLog::new();
        b.record("y", "2", t(1), t(2));
        a.merge(&b);
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.makespan(), t(2));
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let mut log = TraceLog::new();
        log.record("stt", "scene-0", t(2), t(8));
        log.record("llm", "sum-0", t(8), t(20));
        let json = log.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        // 2 lane-name metadata events + 2 spans.
        assert_eq!(events.len(), 4);
        let span = events
            .iter()
            .find(|e| e["name"] == "scene-0")
            .expect("span present");
        assert_eq!(span["ph"], "X");
        assert_eq!(span["ts"], 2_000_000);
        assert_eq!(span["dur"], 6_000_000);
        // Lanes get distinct tids.
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e["ph"] == "X")
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn spans_serialize() {
        let mut log = TraceLog::new();
        log.record("stt", "s0", t(0), t(6));
        let json = serde_json::to_string(&log).unwrap();
        let back: TraceLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spans(), log.spans());
    }
}
