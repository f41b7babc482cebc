//! The benchmark's own spans: one around every call it makes into a layer
//! of the program under test. Spans are kept in memory and written out
//! when the run ends; a layer's self time is its span's duration minus the
//! part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer call, `<module>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the call was made for, if it was made for one.
    pub job: Option<u64>,
}

/// Self-time totals of one span name.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    /// Self time of each call, in nanoseconds, in call order.
    pub self_ns: Vec<u64>,
}

impl LayerTime {
    /// Number of calls.
    pub fn count(&self) -> usize {
        self.self_ns.len()
    }

    /// Mean self time per call, in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.self_ns.is_empty() {
            return 0.0;
        }
        self.self_ns.iter().sum::<u64>() as f64 / self.self_ns.len() as f64 / 1e3
    }

    /// Self-time quantile in microseconds (0 without calls).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let values: Vec<f64> = self.self_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
        crate::stats::quantile(&values, q)
    }
}

/// An in-memory span recorder. A disabled recorder runs the timed
/// closures and records nothing, so the untraced run pays no tracing cost.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.records.len();
        let start_ns = self.now_ns();
        self.records.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.records[id].end_ns = self.now_ns();
        out
    }

    /// Self time of every span, indexed like the records.
    fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.records.len()];
        for record in &self.records {
            if let Some(parent) = record.parent {
                children[parent] += record.end_ns - record.start_ns;
            }
        }
        self.records
            .iter()
            .zip(children)
            .map(|(r, c)| (r.end_ns - r.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times grouped by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (record, self_ns) in self.records.iter().zip(self.self_times()) {
            layers.entry(record.name).or_default().self_ns.push(self_ns);
        }
        layers
    }

    /// Total self time, in nanoseconds, of the direct children of spans
    /// named `root`, over every such root.
    pub fn children_self_ns(&self, root: &str) -> u64 {
        let self_times = self.self_times();
        self.records
            .iter()
            .zip(&self_times)
            .filter(|(r, _)| r.parent.is_some_and(|p| self.records[p].name == root))
            .map(|(_, ns)| *ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.records.iter().filter(|r| r.name == name).count()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (record, self_ns)) in self.records.iter().zip(self.self_times()).enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"job\":{}}}",
                record.name,
                record.start_ns,
                record.end_ns,
                record.parent.map_or("null".to_string(), |p| p.to_string()),
                record.job.map_or("null".to_string(), |j| j.to_string()),
            );
        }
        out
    }
}
