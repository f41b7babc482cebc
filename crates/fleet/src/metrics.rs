//! A small metrics registry with Prometheus-style text exposition.
//!
//! Modeled on the rezolus/metriken idiom of a flat metric namespace with
//! `metadata` labels (e.g. one `cpu_usage` metric split by a `state` label)
//! rather than a metric name per series. The registry is deterministic:
//! series render sorted by name then label set, so two runs over the same
//! records produce byte-identical dumps.
//!
//! Three metric kinds: monotonic counters, point-in-time gauges, and
//! log-bucketed [`MetricKind::Histogram`]s rendered in the Prometheus
//! `_bucket`/`_sum`/`_count` exposition with quantile query helpers
//! ([`MetricsRegistry::histogram_quantile`]) — the fleet's per-stage
//! latency distributions ride on these.
//!
//! A registry is plain data, written through `&mut`, with no atomics or
//! lock. The fleet service builds its registries when they are read
//! ([`crate::FleetService::metering`], [`crate::FleetService::metrics`])
//! instead of keeping a second copy of the state they report on.
//!
//! ```
//! use trustmeter_fleet::metrics::MetricsRegistry;
//!
//! let mut registry = MetricsRegistry::new();
//! registry.counter_add("cpu_usage", "CPU time spent busy", &[("state", "user")], 1.5);
//! registry.counter_add("cpu_usage", "CPU time spent busy", &[("state", "user")], 0.5);
//! let text = registry.render();
//! assert!(text.contains("# TYPE cpu_usage counter"));
//! assert!(text.contains("cpu_usage{state=\"user\"} 2"));
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Log-spaced (1–2–5 per decade) latency bucket upper bounds in seconds,
/// from 1 µs to 10 s. The implicit `+Inf` overflow bucket catches
/// anything slower. Shared by every `fleet_stage_seconds*` histogram so
/// per-stage and per-tenant distributions are directly comparable.
pub const LATENCY_BUCKETS: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,
    0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
];

/// Counter, gauge or histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically accumulating value.
    Counter,
    /// Point-in-time value, overwritten by `gauge_set`.
    Gauge,
    /// Log-bucketed distribution, rendered as cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`.
    Histogram,
}

impl MetricKind {
    fn exposition_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' stored value: a scalar for counters/gauges, bucket counts
/// plus sum/count for histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum SeriesValue {
    Scalar(f64),
    Histogram(HistogramCell),
}

/// The accumulator behind one histogram series. `counts` is
/// *non-cumulative* per bucket with one trailing overflow (`+Inf`) slot;
/// rendering accumulates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HistogramCell {
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl HistogramCell {
    fn zeroed(buckets: usize) -> HistogramCell {
        HistogramCell {
            counts: vec![0; buckets + 1],
            sum: 0.0,
            count: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Histogram bucket upper bounds, ascending (empty for scalar kinds).
    /// The `+Inf` overflow bucket is implicit.
    bounds: Vec<f64>,
    // label-set rendering -> value; BTreeMap keeps exposition deterministic.
    series: BTreeMap<String, SeriesValue>,
}

/// A deterministic metrics registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash first, then quote and newline.
fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Splices `le="<bound>"` into an already-rendered label set (appended
/// after the sorted user labels, the conventional place for `le`).
fn labels_with_le(labels: &str, bound: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{bound}\"}}")
    } else {
        format!("{},le=\"{bound}\"}}", &labels[..labels.len() - 1])
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn family_mut(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        bounds: &[f64],
    ) -> &mut Family {
        let family = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind,
                bounds: bounds.to_vec(),
                series: BTreeMap::new(),
            });
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {:?}, used as {kind:?}",
            family.kind
        );
        family
    }

    fn scalar_mut(&mut self, name: &str, help: &str, kind: MetricKind, key: String) -> &mut f64 {
        let family = self.family_mut(name, help, kind, &[]);
        match family.series.entry(key).or_insert(SeriesValue::Scalar(0.0)) {
            SeriesValue::Scalar(value) => value,
            SeriesValue::Histogram(_) => unreachable!("scalar family holds scalar series"),
        }
    }

    /// Adds `delta` to a counter series, creating it at zero on first use.
    /// The `help` text from the first registration of `name` wins.
    ///
    /// # Panics
    /// Panics if `name` is already registered as another kind, or if
    /// `delta` is negative (counters are monotonic).
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], delta: f64) {
        assert!(
            delta >= 0.0,
            "counter `{name}` cannot decrease (delta {delta})"
        );
        *self.scalar_mut(name, help, MetricKind::Counter, render_labels(labels)) += delta;
    }

    /// Sets a gauge series to `value`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as another kind.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        *self.scalar_mut(name, help, MetricKind::Gauge, render_labels(labels)) = value;
    }

    fn histogram_cell_mut(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> &mut HistogramCell {
        assert!(!bounds.is_empty(), "histogram `{name}` needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram `{name}` buckets must ascend"
        );
        let family = self.family_mut(name, help, MetricKind::Histogram, bounds);
        let buckets = family.bounds.len();
        match family
            .series
            .entry(render_labels(labels))
            .or_insert_with(|| SeriesValue::Histogram(HistogramCell::zeroed(buckets)))
        {
            SeriesValue::Histogram(cell) => cell,
            SeriesValue::Scalar(_) => unreachable!("histogram family holds histogram series"),
        }
    }

    /// Records one observation into a histogram series, creating the
    /// family (with `bounds` as its bucket upper bounds; the first
    /// registration of `name` wins) and the series on first use. A value
    /// equal to a bucket's upper bound lands in that bucket (`le` is
    /// inclusive); values above every bound land in the implicit `+Inf`
    /// overflow bucket.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a scalar kind, if
    /// `bounds` is empty or not strictly ascending.
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
        value: f64,
    ) {
        let cell = self.histogram_cell_mut(name, help, bounds, labels);
        let slot = bounds
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(bounds.len());
        cell.counts[slot] += 1;
        cell.sum += value;
        cell.count += 1;
    }

    /// Merges pre-aggregated bucket counts into a histogram series — the
    /// bulk path the pipeline tracer drains its observations through
    /// (`counts` must have `bounds.len() + 1` slots, the last being the
    /// `+Inf` overflow bucket). With all-zero counts this simply
    /// pre-registers the series, so the exposition is stable before the
    /// first observation.
    ///
    /// # Panics
    /// Panics on kind conflicts, ill-formed `bounds`, or a `counts` slice
    /// that does not match `bounds`.
    #[allow(clippy::too_many_arguments)]
    pub fn histogram_add(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
        counts: &[u64],
        sum: f64,
        count: u64,
    ) {
        assert!(
            counts.len() == bounds.len() + 1,
            "histogram `{name}` merge needs {} counts (incl. +Inf), got {}",
            bounds.len() + 1,
            counts.len()
        );
        let cell = self.histogram_cell_mut(name, help, bounds, labels);
        for (slot, delta) in cell.counts.iter_mut().zip(counts) {
            *slot += delta;
        }
        cell.sum += sum;
        cell.count += count;
    }

    /// Pre-registers a histogram series at zero observations (existing
    /// series are kept), so the exposition shows the full bucket ladder
    /// before anything is observed.
    pub fn histogram_zero(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) {
        self.histogram_cell_mut(name, help, bounds, labels);
    }

    /// Pre-registers a *family* (help text, type and, for a histogram, its
    /// bucket bounds) with no series yet — for label dimensions whose
    /// values (e.g. tenants) are unknown until traffic arrives.
    ///
    /// # Panics
    /// Panics if `name` is already registered as another kind, or if
    /// `bounds` is empty for a histogram or non-empty for a scalar kind.
    pub fn declare(&mut self, name: &str, help: &str, kind: MetricKind, bounds: &[f64]) {
        assert!(
            (kind == MetricKind::Histogram) != bounds.is_empty(),
            "metric `{name}`: only histograms take (and need) buckets"
        );
        self.family_mut(name, help, kind, bounds);
    }

    /// Reads one scalar series back (`None` if it was never touched or is
    /// a histogram).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .families
            .get(name)?
            .series
            .get(&render_labels(labels))?
        {
            SeriesValue::Scalar(value) => Some(*value),
            SeriesValue::Histogram(_) => None,
        }
    }

    fn histogram_series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<(&[f64], &HistogramCell)> {
        let family = self.families.get(name)?;
        match family.series.get(&render_labels(labels))? {
            SeriesValue::Histogram(cell) => Some((&family.bounds, cell)),
            SeriesValue::Scalar(_) => None,
        }
    }

    /// Total observations recorded into a histogram series (`None` if the
    /// series does not exist).
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        Some(self.histogram_series(name, labels)?.1.count)
    }

    /// Sum of all values observed into a histogram series (`None` if the
    /// series does not exist).
    pub fn histogram_sum(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        Some(self.histogram_series(name, labels)?.1.sum)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`, e.g. `0.5` = p50,
    /// `0.99` = p99) of a histogram series by linear interpolation within
    /// the bucket containing the target rank — the standard
    /// `histogram_quantile` estimator. Returns `None` for a missing
    /// series or one with zero observations. Ranks landing in the `+Inf`
    /// overflow bucket clamp to the highest finite bound (the estimator
    /// cannot see past the bucket ladder).
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let (bounds, cell) = self.histogram_series(name, labels)?;
        if cell.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * cell.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (slot, bucket_count) in cell.counts.iter().enumerate() {
            let below = cumulative as f64;
            cumulative += bucket_count;
            if (cumulative as f64) < rank {
                continue;
            }
            let Some(upper) = bounds.get(slot).copied() else {
                // Overflow bucket: clamp to the highest finite bound.
                return Some(bounds[bounds.len() - 1]);
            };
            let lower = if slot == 0 { 0.0 } else { bounds[slot - 1] };
            let inside = (rank - below) / (*bucket_count).max(1) as f64;
            return Some(lower + (upper - lower) * inside.clamp(0.0, 1.0));
        }
        Some(bounds[bounds.len() - 1])
    }

    /// Number of registered series across all families (a histogram
    /// series counts once, however many lines it renders as).
    pub fn series_count(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Every registered family as `(name, help, kind)`, in render order.
    pub fn family_info(&self) -> impl Iterator<Item = (&str, &str, MetricKind)> {
        self.families
            .iter()
            .map(|(name, family)| (name.as_str(), family.help.as_str(), family.kind))
    }

    /// Renders the whole registry in the Prometheus text exposition format,
    /// families and series in sorted order. Histogram series render as
    /// cumulative `name_bucket{...,le="<bound>"}` lines (ending with
    /// `le="+Inf"`) followed by `name_sum` and `name_count`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.exposition_type());
            for (labels, value) in &family.series {
                match value {
                    SeriesValue::Scalar(value) => {
                        let _ = writeln!(out, "{name}{labels} {value}");
                    }
                    SeriesValue::Histogram(cell) => {
                        let mut cumulative = 0u64;
                        for (slot, bucket_count) in cell.counts.iter().enumerate() {
                            cumulative += bucket_count;
                            let bound = match family.bounds.get(slot) {
                                Some(bound) => bound.to_string(),
                                None => "+Inf".to_string(),
                            };
                            let le = labels_with_le(labels, &bound);
                            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        }
                        let _ = writeln!(out, "{name}_sum{labels} {}", cell.sum);
                        let _ = writeln!(out, "{name}_count{labels} {}", cell.count);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("jobs_total", "Jobs executed", &[("tenant", "t2")], 1.0);
        registry.counter_add("jobs_total", "Jobs executed", &[("tenant", "t1")], 2.0);
        registry.counter_add("jobs_total", "Jobs executed", &[("tenant", "t1")], 3.0);
        assert_eq!(registry.get("jobs_total", &[("tenant", "t1")]), Some(5.0));
        let text = registry.render();
        let t1 = text.find("tenant=\"t1\"").unwrap();
        let t2 = text.find("tenant=\"t2\"").unwrap();
        assert!(t1 < t2, "series must render in sorted label order");
        assert!(text.contains("# TYPE jobs_total counter"));
    }

    #[test]
    fn gauges_overwrite() {
        let mut registry = MetricsRegistry::new();
        registry.gauge_set("tenants", "Active tenants", &[], 3.0);
        registry.gauge_set("tenants", "Active tenants", &[], 5.0);
        assert_eq!(registry.get("tenants", &[]), Some(5.0));
        assert!(registry.render().contains("tenants 5"));
    }

    #[test]
    fn label_order_is_canonical() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("m", "h", &[("b", "2"), ("a", "1")], 1.0);
        registry.counter_add("m", "h", &[("a", "1"), ("b", "2")], 1.0);
        assert_eq!(registry.get("m", &[("b", "2"), ("a", "1")]), Some(2.0));
        assert_eq!(registry.series_count(), 1);
        assert!(registry.render().contains("m{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("m", "h", &[("path", "C:\\x\"y\nz")], 1.0);
        let text = registry.render();
        assert!(text.contains("path=\"C:\\\\x\\\"y\\nz\""), "got: {text}");
    }

    #[test]
    #[should_panic(expected = "cannot decrease")]
    fn negative_counter_delta_rejected() {
        MetricsRegistry::new().counter_add("m", "h", &[], -1.0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_rejected() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("m", "h", &[], 1.0);
        registry.gauge_set("m", "h", &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn histogram_kind_conflict_rejected() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("m", "h", &[], 1.0);
        registry.histogram_observe("m", "h", &LATENCY_BUCKETS, &[], 0.5);
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let mut registry = MetricsRegistry::new();
        let bounds = [0.1, 1.0, 10.0];
        registry.histogram_observe("lat", "Latency", &bounds, &[("stage", "run")], 0.05);
        registry.histogram_observe("lat", "Latency", &bounds, &[("stage", "run")], 0.5);
        registry.histogram_observe("lat", "Latency", &bounds, &[("stage", "run")], 99.0);
        let text = registry.render();
        assert!(text.contains("# TYPE lat histogram"), "got: {text}");
        assert!(text.contains("lat_bucket{stage=\"run\",le=\"0.1\"} 1"));
        assert!(text.contains("lat_bucket{stage=\"run\",le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{stage=\"run\",le=\"10\"} 2"));
        assert!(text.contains("lat_bucket{stage=\"run\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum{stage=\"run\"} 99.55"));
        assert!(text.contains("lat_count{stage=\"run\"} 3"));
        assert_eq!(
            registry.histogram_count("lat", &[("stage", "run")]),
            Some(3)
        );
        assert_eq!(
            registry.histogram_sum("lat", &[("stage", "run")]),
            Some(99.55)
        );
    }

    #[test]
    fn histogram_unlabeled_series_renders_bare_le() {
        let mut registry = MetricsRegistry::new();
        registry.histogram_observe("lat", "Latency", &[1.0], &[], 0.5);
        let text = registry.render();
        assert!(text.contains("lat_bucket{le=\"1\"} 1"), "got: {text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_sum 0.5"));
        assert!(text.contains("lat_count 1"));
    }

    #[test]
    fn histogram_boundary_value_lands_in_its_bucket() {
        // `le` is inclusive: a value exactly at a bound belongs to that
        // bucket, not the next one.
        let mut registry = MetricsRegistry::new();
        let bounds = [1.0, 2.0];
        registry.histogram_observe("m", "h", &bounds, &[], 1.0);
        let text = registry.render();
        assert!(text.contains("m_bucket{le=\"1\"} 1"), "got: {text}");
        assert!(text.contains("m_bucket{le=\"2\"} 1"));
    }

    #[test]
    fn histogram_overflow_bucket_catches_large_values() {
        let mut registry = MetricsRegistry::new();
        registry.histogram_observe("m", "h", &[1.0], &[], 1e9);
        let text = registry.render();
        assert!(text.contains("m_bucket{le=\"1\"} 0"), "got: {text}");
        assert!(text.contains("m_bucket{le=\"+Inf\"} 1"));
        // The quantile estimator cannot see past the ladder: it clamps to
        // the highest finite bound.
        assert_eq!(registry.histogram_quantile("m", &[], 0.5), Some(1.0));
    }

    #[test]
    fn histogram_zero_observations_render_but_have_no_quantile() {
        let mut registry = MetricsRegistry::new();
        registry.histogram_zero("m", "h", &[1.0, 2.0], &[]);
        let text = registry.render();
        assert!(text.contains("m_bucket{le=\"+Inf\"} 0"), "got: {text}");
        assert!(text.contains("m_count 0"));
        assert_eq!(registry.histogram_quantile("m", &[], 0.5), None);
        assert_eq!(registry.histogram_count("m", &[]), Some(0));
    }

    #[test]
    fn histogram_quantile_of_missing_series_is_none() {
        let registry = MetricsRegistry::new();
        assert_eq!(registry.histogram_quantile("nope", &[], 0.5), None);
    }

    #[test]
    fn histogram_single_bucket_quantiles_interpolate() {
        let mut registry = MetricsRegistry::new();
        for _ in 0..4 {
            registry.histogram_observe("m", "h", &[8.0], &[], 1.0);
        }
        // All mass in [0, 8): rank interpolation walks the bucket.
        assert_eq!(registry.histogram_quantile("m", &[], 0.25), Some(2.0));
        assert_eq!(registry.histogram_quantile("m", &[], 0.5), Some(4.0));
        assert_eq!(registry.histogram_quantile("m", &[], 1.0), Some(8.0));
        // q is clamped: out-of-range requests behave like 0 / 1.
        assert_eq!(registry.histogram_quantile("m", &[], -3.0), Some(2.0));
        assert_eq!(registry.histogram_quantile("m", &[], 7.0), Some(8.0));
    }

    #[test]
    fn histogram_quantile_spans_buckets() {
        let mut registry = MetricsRegistry::new();
        let bounds = [1.0, 2.0, 4.0];
        // 2 obs in (0,1], 6 in (1,2], 2 in (2,4].
        for value in [0.5, 0.6, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 3.0, 3.5] {
            registry.histogram_observe("m", "h", &bounds, &[], value);
        }
        // p50: rank 5 → 3rd obs of the (1,2] bucket → 1 + (5-2)/6.
        assert_eq!(registry.histogram_quantile("m", &[], 0.5), Some(1.5));
        // p90: rank 9 → 1st obs of the (2,4] bucket → 2 + (9-8)/2 * 2.
        assert_eq!(registry.histogram_quantile("m", &[], 0.9), Some(3.0));
    }

    #[test]
    fn histogram_add_merges_preaggregated_counts() {
        let mut registry = MetricsRegistry::new();
        let bounds = [1.0, 2.0];
        registry.histogram_add("m", "h", &bounds, &[], &[1, 2, 3], 10.0, 6);
        registry.histogram_add("m", "h", &bounds, &[], &[1, 0, 0], 0.5, 1);
        assert_eq!(registry.histogram_count("m", &[]), Some(7));
        assert_eq!(registry.histogram_sum("m", &[]), Some(10.5));
        let text = registry.render();
        assert!(text.contains("m_bucket{le=\"1\"} 2"), "got: {text}");
        assert!(text.contains("m_bucket{le=\"+Inf\"} 7"));
    }

    #[test]
    #[should_panic(expected = "counts (incl. +Inf)")]
    fn histogram_add_rejects_mismatched_counts() {
        MetricsRegistry::new().histogram_add("m", "h", &[1.0], &[], &[1], 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn histogram_rejects_unsorted_buckets() {
        MetricsRegistry::new().histogram_observe("m", "h", &[2.0, 1.0], &[], 0.5);
    }

    #[test]
    fn histogram_family_preregisters_without_series() {
        let mut registry = MetricsRegistry::new();
        registry.declare("m", "h", MetricKind::Histogram, &[1.0]);
        let text = registry.render();
        assert!(text.contains("# HELP m h"));
        assert!(text.contains("# TYPE m histogram"));
        assert_eq!(registry.series_count(), 0);
        // First observation adopts the registered buckets.
        registry.histogram_observe("m", "h", &[1.0], &[], 0.5);
        assert_eq!(registry.histogram_count("m", &[]), Some(1));
    }

    #[test]
    fn serde_round_trips_the_families_shape() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("m", "h", &[("tenant", "t1")], 4.0);
        registry.histogram_observe("lat", "h", &[1.0], &[], 0.5);
        let json = serde_json::to_string(&registry).unwrap();
        assert!(json.starts_with("{\"families\":{"), "got: {json}");
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, registry);
    }

    #[test]
    fn latency_buckets_are_strictly_ascending() {
        assert!(LATENCY_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }
}
