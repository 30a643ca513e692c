//! In-memory span recorder.
//!
//! Every layer call the benchmark makes is bracketed by [`Spans::begin`]
//! and [`Spans::end`]. `end` always returns the call's host duration (the
//! untraced run's end-to-end metrics come from it); only when recording
//! is on does the pair also store a [`Span`]. Spans stay in memory until
//! the run ends and [`Spans::to_json`] writes them out.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, `<module>.<call>` (or `job` for a job's root).
    pub name: &'static str,
    /// What the call ran on: a detector configuration, benchmark or row.
    pub detail: String,
    /// Shared by every span of one benchmark, row or generated kernel.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// A span that has begun and not yet ended.
#[must_use = "an open span must be passed to Spans::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// The recorder. Spans must end in the reverse order they began.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// Their summed duration minus the time their child spans cover.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder that stores spans only if `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off for the spans that begin from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, detail: &str, job: u64) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                detail: detail.to_string(),
                job,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: 0,
            });
            let idx = self.spans.len() - 1;
            self.open.push(idx);
            idx
        });
        Open { start, idx }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.open.pop(), Some(idx), "spans must nest");
            self.spans[idx].end_ns = self.ns(end);
        }
        (end - open.start).as_secs_f64()
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.t0).as_nanos()).expect("run shorter than 584 years")
    }

    /// Total and self time per span name. Children of one span never
    /// overlap (a single thread runs them in turn), so the time they
    /// cover is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur - child;
        }
        out
    }

    /// All spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"job\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}{}\n",
                sp.name,
                escape(&sp.detail),
                sp.job,
                sp.start_ns,
                sp.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        s.push(']');
        s.push('\n');
        s
    }
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        let root = sp.begin("job", "x", 7);
        let a = sp.begin("a", "", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sp.end(a);
        let b = sp.begin("b", "", 7);
        sp.end(b);
        let total = sp.end(root);
        assert_eq!(sp.spans.len(), 3);
        assert_eq!(sp.spans[1].parent, Some(0));
        assert!(sp
            .spans
            .iter()
            .all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        let t = sp.self_times();
        let (job, a, b) = (t["job"], t["a"], t["b"]);
        assert_eq!(job.calls, 1);
        assert_eq!(job.self_ns, job.total_ns - a.total_ns - b.total_ns);
        assert!(a.total_ns >= 2_000_000);
        assert!((job.total_ns as f64 / 1e9 - total).abs() < 1e-3);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut sp = Spans::new(false);
        let o = sp.begin("a", "", 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sp.end(o) >= 1e-3);
        assert!(sp.spans.is_empty());
        assert_eq!(sp.to_json(), "[\n]\n");
    }

    #[test]
    fn json_escapes_details() {
        let mut sp = Spans::new(true);
        let o = sp.begin("a", "q\"\\", 1);
        sp.end(o);
        assert!(sp.to_json().contains("\"detail\":\"q\\\"\\\\\""));
    }
}
