//! In-memory spans recorded around the benchmark's calls into the
//! workspace crates. Spans nest on one thread; each records its name,
//! start, end and parent. They stay in memory until the run ends.

use std::time::Instant;

use crate::json::quote;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// runs its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Opens a span called `name` under whichever span is open; close it
    /// with [`Tracer::end`] (spans close in reverse order of opening).
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Some(index)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(index) = id {
            debug_assert_eq!(self.open.last(), Some(&index), "spans close in order");
            self.open.pop();
            self.spans[index].end_ns = self.now();
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations, in seconds, of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Share of the summed duration of every span called `name` that
    /// their direct children cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let own = self.self_secs();
        let (mut whole, mut covered) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == name {
                whole += s.secs();
                covered += s.secs() - own;
            }
        }
        if whole > 0.0 {
            covered / whole
        } else {
            0.0
        }
    }

    /// Every span as one JSON document, self time included.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        let own = self.self_secs();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{}}}",
                quote(&s.name),
                s.start_ns,
                s.end_ns,
                (own[i] * 1e9).round() as u64
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        let outer = t.spans()[0].secs();
        let inner = t.total_secs("inner");
        assert!(inner >= 0.002 && inner <= outer);
        assert!((t.self_secs()[0] - (outer - inner)).abs() < 1e-12);
        assert!(t.coverage("outer") > 0.0 && t.coverage("outer") <= 1.0);
        assert_eq!(t.coverage("missing"), 0.0);
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
