//! Small statistics helpers shared by the load and replay reports.

/// Linearly interpolated percentile (`q` in `[0, 1]`) of `values`;
/// `NaN` when empty. Sorts a copy, so callers can pass samples in
/// arrival order.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median over `windows` of completions per second, where each
/// `[start_ms, end_ms)` interval is one completion, credited to the
/// windows it overlaps in proportion to the time it spent in each.
pub fn windowed_rate(intervals: &[(f64, f64)], windows: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .map(|&(lo, hi)| {
            let credit: f64 = intervals
                .iter()
                .map(|&(s, e)| ratio((e.min(hi) - s.max(lo)).max(0.0), e - s))
                .sum();
            credit / ((hi - lo) / 1e3)
        })
        .collect();
    percentile(&rates, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_rate_splits_straddling_intervals() {
        let w = [(0.0, 1000.0), (1000.0, 2000.0)];
        // Back to back 400 ms intervals: 2.5 per second in each window.
        let intervals: Vec<(f64, f64)> = (0..5)
            .map(|i| (i as f64 * 400.0, (i + 1) as f64 * 400.0))
            .collect();
        assert!((windowed_rate(&intervals, &w) - 2.5).abs() < 1e-9);
    }
}
