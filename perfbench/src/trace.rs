//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out when the run ends, and the self-time table
//! built from them.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `trace` groups the spans of one op; `parent` is the
/// span that caused this one. Times are microseconds since the tracer's
/// epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub trace: usize,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// `true` when the layer itself reported the duration (a stage time
    /// from `Report`) and the benchmark laid it out in its parent; `false`
    /// when the benchmark timed the call.
    pub reported: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span log.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span the benchmark timed; returns its id.
    pub fn timed(
        &mut self,
        trace: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.push(trace, parent, name, start_us, end_us, false)
    }

    /// Records a duration a layer reported, starting `offset_ms` after the
    /// parent span's start; returns its id.
    pub fn reported(
        &mut self,
        parent: usize,
        name: &'static str,
        offset_ms: f64,
        ms: f64,
    ) -> usize {
        let p = &self.spans[parent];
        let (trace, start_us) = (p.trace, p.start_us + offset_ms * 1e3);
        self.push(
            trace,
            Some(parent),
            name,
            start_us,
            start_us + ms * 1e3,
            true,
        )
    }

    fn push(
        &mut self,
        trace: usize,
        parent: Option<usize>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        reported: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_us,
            end_us,
            reported,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span log as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"reported\":{}}}",
                s.trace, s.id, parent, s.name, s.start_us, s.end_us, s.reported
            );
        }
        out.push_str("]\n");
        out
    }
}

/// A layer in a per-op breakdown: its mean duration and the layers it
/// contains.
#[derive(Clone, Debug)]
pub struct Node {
    pub name: String,
    pub ms: f64,
    pub children: Vec<Node>,
}

impl Node {
    pub fn leaf(name: &str, ms: f64) -> Node {
        Node {
            name: name.to_string(),
            ms,
            children: Vec::new(),
        }
    }

    pub fn with(name: &str, ms: f64, children: Vec<Node>) -> Node {
        Node {
            name: name.to_string(),
            ms,
            children,
        }
    }

    /// The mean breakdown of every trace rooted at a span named `root`:
    /// each distinct path of span names becomes one node whose duration is
    /// the mean over those traces.
    pub fn mean_of(spans: &[Span], root: &str) -> Option<Node> {
        let roots: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .collect();
        if roots.is_empty() {
            return None;
        }
        let mut node = Node::leaf(root, 0.0);
        for r in &roots {
            node.add(spans, r);
        }
        node.scale(1.0 / roots.len() as f64);
        Some(node)
    }

    fn add(&mut self, spans: &[Span], span: &Span) {
        self.ms += span.ms();
        for child in spans.iter().filter(|c| c.parent == Some(span.id)) {
            let slot = match self.children.iter().position(|n| n.name == child.name) {
                Some(i) => i,
                None => {
                    self.children.push(Node::leaf(child.name, 0.0));
                    self.children.len() - 1
                }
            };
            self.children[slot].add(spans, child);
        }
    }

    fn scale(&mut self, k: f64) {
        self.ms *= k;
        for c in &mut self.children {
            c.scale(k);
        }
    }
}

/// One row of a self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub layer: String,
    pub depth: usize,
    pub total_ms: f64,
    /// Total minus the time its children cover; never negative.
    pub self_ms: f64,
    /// How far the children overran this layer (0 when they fit).
    pub overrun_ms: f64,
}

/// A self-time table and the check that its rows add up to the root.
#[derive(Clone, Debug)]
pub struct SelfTable {
    pub rows: Vec<Row>,
    pub wall_ms: f64,
    pub accounted_ms: f64,
    pub slack: f64,
}

impl SelfTable {
    /// Flattens `root` depth-first, subtracting each node's children from
    /// it. The self times sum to the root's duration exactly when every
    /// layer's children fit inside it; `slack` is the share of the root by
    /// which they may disagree (children measured apart from their parent
    /// can overrun it by noise).
    pub fn build(root: &Node, slack: f64) -> SelfTable {
        let mut rows = Vec::new();
        flatten(root, 0, &mut rows);
        let accounted_ms = rows.iter().map(|r| r.self_ms).sum();
        SelfTable {
            rows,
            wall_ms: root.ms,
            accounted_ms,
            slack,
        }
    }

    /// Whether the layers account for the measured wall within the slack.
    pub fn accounts(&self) -> bool {
        (self.accounted_ms - self.wall_ms).abs() <= self.slack * self.wall_ms
    }

    pub fn self_ms(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer == layer)
            .map(|r| r.self_ms)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"layer\":\"{}\",\"depth\":{},\"total_ms\":{},\"self_ms\":{},\"overrun_ms\":{}}}",
                    r.layer, r.depth, r.total_ms, r.self_ms, r.overrun_ms
                )
            })
            .collect();
        format!(
            "{{\"wall_ms\":{},\"accounted_ms\":{},\"slack\":{},\"accounts\":{},\"rows\":[{}]}}",
            self.wall_ms,
            self.accounted_ms,
            self.slack,
            self.accounts(),
            rows.join(",")
        )
    }

    /// A fixed-width text rendering for the log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<32} {:>14} {:>14}", "layer", "total_ms", "self_ms");
        for r in &self.rows {
            let name = format!("{}{}", "  ".repeat(r.depth), r.layer);
            let _ = writeln!(out, "{name:<32} {:>14.4} {:>14.4}", r.total_ms, r.self_ms);
        }
        let _ = write!(
            out,
            "layers account for {:.4} of {:.4} ms (slack {:.0}%): {}",
            self.accounted_ms,
            self.wall_ms,
            self.slack * 100.0,
            if self.accounts() {
                "ok"
            } else {
                "NOT ACCOUNTED"
            }
        );
        out
    }
}

fn flatten(node: &Node, depth: usize, rows: &mut Vec<Row>) {
    let covered: f64 = node.children.iter().map(|c| c.ms).sum();
    rows.push(Row {
        layer: node.name.clone(),
        depth,
        total_ms: node.ms,
        self_ms: (node.ms - covered).max(0.0),
        overrun_ms: (covered - node.ms).max(0.0),
    });
    for c in &node.children {
        flatten(c, depth + 1, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Node {
        Node::with(
            "op",
            10.0,
            vec![
                Node::leaf("parse", 1.0),
                Node::with(
                    "analyze",
                    8.0,
                    vec![Node::leaf("plan", 2.0), Node::leaf("solve", 5.5)],
                ),
            ],
        )
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let t = SelfTable::build(&sample(), 0.01);
        let got: Vec<(&str, f64)> = t
            .rows
            .iter()
            .map(|r| (r.layer.as_str(), r.self_ms))
            .collect();
        assert_eq!(
            got,
            vec![
                ("op", 1.0),
                ("parse", 1.0),
                ("analyze", 0.5),
                ("plan", 2.0),
                ("solve", 5.5)
            ]
        );
        assert_eq!(t.accounted_ms, 10.0);
        assert!(t.accounts());
    }

    #[test]
    fn children_that_overrun_their_parent_are_flagged() {
        let mut root = sample();
        root.children[1].children[1].ms = 7.0; // plan + solve = 9 > analyze = 8
        let t = SelfTable::build(&root, 0.05);
        let analyze = &t.rows[2];
        assert_eq!((analyze.self_ms, analyze.overrun_ms), (0.0, 1.0));
        assert_eq!(t.accounted_ms, 11.0);
        assert!(!t.accounts(), "a 10% overrun exceeds a 5% slack");
        assert!(SelfTable::build(&root, 0.10).accounts());
    }

    #[test]
    fn mean_of_spans_builds_the_breakdown() {
        let mut tr = Tracer::new();
        let t0 = tr.epoch;
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        for (trace, scale) in [(0, 1u64), (1, 3u64)] {
            let op = tr.timed(trace, None, "op", at(0), at(1000 * scale));
            tr.timed(trace, Some(op), "parse", at(0), at(100 * scale));
            let a = tr.timed(trace, Some(op), "analyze", at(100 * scale), at(900 * scale));
            tr.reported(a, "plan", 0.0, 0.5 * scale as f64);
        }
        let node = Node::mean_of(tr.spans(), "op").expect("two traces");
        assert!((node.ms - 2.0).abs() < 1e-9);
        let analyze = &node.children[1];
        assert_eq!(analyze.name, "analyze");
        assert!((analyze.ms - 1.6).abs() < 1e-9);
        assert!((analyze.children[0].ms - 1.0).abs() < 1e-9);
        let t = SelfTable::build(&node, 0.0);
        assert!((t.self_ms("analyze") - 0.6).abs() < 1e-9);
        assert!((t.accounted_ms - node.ms).abs() < 1e-9);
        assert!(tr.to_json().contains("\"reported\":true"));
    }
}
