//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end, parent span and request id, kept in memory and
//! written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    /// Seconds since the trace's origin.
    pub start: f64,
    pub end: f64,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Records a finished span and returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            request,
            start: at(start),
            end: at(end),
        });
        self.spans.len() - 1
    }

    pub fn duration(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end - s.start
    }

    /// The span's duration minus the part of its interval that its
    /// children cover (overlapping children count once).
    pub fn self_time(&self, id: usize) -> f64 {
        let own = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(own.start), s.end.min(own.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are finite"));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in children {
            let from = a.max(reach);
            if b > from {
                covered += b - from;
            }
            reach = reach.max(b);
        }
        (own.end - own.start) - covered
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \
                 \"start_s\": {}, \"end_s\": {}}}",
                if id == 0 { "" } else { ", " },
                span.name,
                span.request,
                crate::metrics::num(span.start),
                crate::metrics::num(span.end)
            );
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut tr = Trace {
            origin: t0,
            spans: Vec::new(),
        };
        let root = tr.add("root", None, 1, ms(0), ms(100));
        // Overlapping children covering 10..60 and one at 80..90: 60 ms.
        tr.add("a", Some(root), 1, ms(10), ms(40));
        tr.add("b", Some(root), 1, ms(30), ms(60));
        let c = tr.add("c", Some(root), 1, ms(80), ms(90));
        // A grandchild does not count against the root.
        tr.add("d", Some(c), 1, ms(82), ms(84));
        assert!((tr.self_time(root) - 0.040).abs() < 1e-9);
        assert!((tr.self_time(c) - 0.008).abs() < 1e-9);
        assert!((tr.duration(root) - 0.1).abs() < 1e-9);
        assert!(tr.to_json().contains("\"name\": \"d\", \"parent\": 3"));
    }
}
