//! Order statistics over measured samples.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice). Infinite samples sort last, and a
/// quantile that reaches one is infinite.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quartile of per-round `values` on the fast side: the 75th
/// percentile of a higher-is-better metric, the 25th of a lower-is-better
/// one. Interference from other work on a shared host only ever slows a
/// round down, so the fast quartile tracks the program and not the host,
/// as long as a quarter of a run's rounds ran undisturbed.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}
