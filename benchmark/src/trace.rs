//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run is a *layered replay*: the same op list goes through the
//! parent call and then, in passes of their own, through each layer's public
//! entry point. Spans of one op share its id; `parent` names the layer whose
//! span of the same op encloses this one. Because the passes run one after
//! another, a child's timestamps do not lie inside its parent's: nesting is
//! by op id, and a layer's self time is its duration minus the durations of
//! its children for the same op.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u32,
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Room for `capacity` spans up front, so recording does not allocate
    /// inside a pass whose allocations are being counted.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn record(
        &mut self,
        op: usize,
        layer: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            op: op as u32,
            layer,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of one layer's spans, in recording order.
    pub fn durations(&self, layer: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of one layer's spans, in recording order: each span's
    /// duration minus its children's (spans naming this layer as `parent`
    /// with the same op id), floored at zero.
    pub fn self_times(&self, layer: &str) -> Vec<u64> {
        let mut children: HashMap<u32, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(layer)) {
            *children.entry(s.op).or_insert(0) += s.duration_ns();
        }
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| {
                s.duration_ns()
                    .saturating_sub(children.get(&s.op).copied().unwrap_or(0))
            })
            .collect()
    }

    /// One JSON object per span, one span per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"op\":{},\"layer\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.layer, parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_op() {
        let mut t = Tracer::with_capacity(8);
        let origin = t.origin;
        let at = move |us: u64| origin + Duration::from_micros(us);
        let (a0, a100, a200, a260) = (at(0), at(100), at(200), at(260));
        let (b0, b60, b70, b100, b30) = (at(1000), at(1060), at(1070), at(1100), at(1030));
        // Op 0: score 100 µs = get_user 60 µs (of which get_row 45 µs) + predict 10 µs + 30 µs own.
        t.record(0, "score", None, a0, a100);
        // Op 1: score 60 µs, children recorded for op 1 only partly.
        t.record(1, "score", None, a200, a260);
        t.record(0, "get_user", Some("score"), b0, b60);
        t.record(0, "predict", Some("score"), b60, b70);
        t.record(1, "get_user", Some("score"), b70, b100);
        t.record(0, "get_row", Some("get_user"), b0, at(1045));
        t.record(1, "get_row", Some("get_user"), b0, b30);

        assert_eq!(t.durations("score"), vec![100_000, 60_000]);
        assert_eq!(t.self_times("score"), vec![30_000, 30_000]);
        assert_eq!(t.self_times("get_user"), vec![15_000, 0]);
        assert_eq!(t.self_times("get_row"), vec![45_000, 30_000]);
        assert_eq!(t.self_times("predict"), vec![10_000]);
        assert!(t.self_times("absent").is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::with_capacity(2);
        let now = t.origin;
        t.record(3, "score", None, now, now + Duration::from_nanos(500));
        t.record(
            3,
            "get_row",
            Some("score"),
            now,
            now + Duration::from_nanos(200),
        );
        let mut bytes = Vec::new();
        t.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"op":3,"layer":"score","parent":null,"start_ns":0,"end_ns":500}"#,
                r#"{"op":3,"layer":"get_row","parent":"score","start_ns":0,"end_ns":200}"#,
            ]
        );
    }
}
