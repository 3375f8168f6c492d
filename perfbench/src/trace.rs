//! In-memory spans recorded around calls into each layer, and the self
//! times derived from them.
//!
//! A span is opened and closed around a call the benchmark makes. Layers
//! the benchmark cannot wrap in place (the guard, kernel and chain append
//! inside `Fleet::tick`, say) are timed on the same inputs in isolation
//! and attached as *estimated* children, so the enclosing span's self
//! time is its duration minus those estimates.

use crate::util::{json_number, json_string, median_ns};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    root: usize,
    start_ns: u64,
    end_ns: u64,
    estimated: bool,
}

/// Spans of one traced replay. Each root span is one unit of work (a
/// request, or one pipeline run).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `parent: None` starts a new unit of work.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let now = self.now();
        self.spans.push(Span {
            name,
            parent,
            root,
            start_ns: now,
            end_ns: now,
            estimated: false,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Attaches a child whose duration was measured in isolation.
    pub fn estimated(&mut self, name: &'static str, parent: usize, dur_ns: u64) {
        let root = self.spans[parent].root;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            root,
            start_ns: 0,
            end_ns: dur_ns,
            estimated: true,
        });
    }

    /// Per-unit self times by layer, and the units' own durations.
    pub fn summarize(&self) -> Summary {
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut roots: Vec<usize> = Vec::new();
        let mut root_index = vec![usize::MAX; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                root_index[i] = roots.len();
                roots.push(i);
            }
        }
        let mut self_ns: BTreeMap<&'static str, Vec<i64>> = BTreeMap::new();
        let mut dur_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                continue;
            }
            let unit = root_index[s.root];
            self_ns
                .entry(s.name)
                .or_insert_with(|| vec![0; roots.len()])[unit] +=
                dur(s) as i64 - child_ns[i] as i64;
            dur_ns.entry(s.name).or_insert_with(|| vec![0; roots.len()])[unit] += dur(s);
        }
        Summary {
            unit_ns: roots.iter().map(|&r| dur(&self.spans[r])).collect(),
            self_ns,
            dur_ns,
            example: self.render_example(roots.first().copied()),
        }
    }

    /// The span tree of one unit, as JSON, for the written-out trace.
    fn render_example(&self, root: Option<usize>) -> String {
        let Some(root) = root else {
            return "[]".to_string();
        };
        let base = self.spans[root].start_ns;
        let mut out = String::from("[");
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.root == root)
        {
            if i != root {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"estimated\":{}}}",
                json_string(s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                if s.estimated { 0 } else { s.start_ns - base },
                s.end_ns.saturating_sub(s.start_ns),
                s.estimated
            );
        }
        out.push(']');
        out
    }
}

/// Self times per unit of work, by layer.
#[derive(Debug, Default)]
pub struct Summary {
    /// Duration of each unit (the traced end-to-end samples).
    pub unit_ns: Vec<u64>,
    /// Self time of each layer in each unit (estimated children can
    /// push a parent's self time below zero on a noisy sample).
    pub self_ns: BTreeMap<&'static str, Vec<i64>>,
    /// Total duration of each layer's spans in each unit.
    pub dur_ns: BTreeMap<&'static str, Vec<u64>>,
    /// One unit's full span tree, as JSON.
    pub example: String,
}

impl Summary {
    /// Median self time of a layer per unit, ns.
    pub fn self_median(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |v| {
            crate::util::median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
        })
    }

    /// Median total duration of a layer's spans per unit, ns.
    pub fn dur_median(&self, name: &str) -> f64 {
        self.dur_ns.get(name).map_or(0.0, |v| median_ns(v))
    }

    /// Median traced end-to-end time per unit, ns.
    pub fn unit_median(&self) -> f64 {
        median_ns(&self.unit_ns)
    }

    /// Sum of the layers' median self times per unit, ns.
    pub fn self_sum(&self) -> f64 {
        self.self_ns.keys().map(|name| self.self_median(name)).sum()
    }

    /// JSON for the written-out trace: per-layer median self time and
    /// the example tree.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"units\":{},\"unit_median_ns\":{},\"layers\":{{",
            self.unit_ns.len(),
            json_number(self.unit_median())
        );
        for (i, name) in self.self_ns.keys().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{}",
                json_string(name),
                json_number(self.self_median(name))
            );
        }
        let _ = write!(out, "}},\"example\":{}}}", self.example);
        out
    }
}
