//! Order statistics and process measurements.

/// The `pct`th percentile by linear interpolation between order
/// statistics (numpy's default; Python's `quantiles(method="inclusive")`).
/// On a few samples it blends neighbouring values instead of jumping from
/// one to the next. `None` on an empty slice.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!(pct <= 100, "percentile {pct} above 100");
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let h = (s.len() - 1) as f64 * pct as f64 / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(s[lo] + (h - lo as f64) * (s[hi] - s[lo]))
}

/// How many of `n` distinct samples lie above their `pct`th percentile.
pub fn beyond(n: usize, pct: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (n - 1) * pct / 100
}

/// Median; the mean of the two middle samples when `n` is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let close = |a: Option<f64>, b: f64| (a.expect("samples") - b).abs() < 1e-9;
        assert!(close(percentile(&xs, 50), 5.5));
        assert!(close(percentile(&xs, 90), 9.1));
        assert!(close(percentile(&xs, 100), 10.0));
        assert!(close(percentile(&xs, 0), 1.0));
        assert!(close(percentile(&[7.0], 90), 7.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(beyond(10, 90), 1);
        // 1..=1000: p90 is 900.1, with 100 samples above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(close(percentile(&xs, 90), 900.1));
        assert_eq!(beyond(1000, 90), 100);
        let p90 = percentile(&xs, 90).expect("samples");
        assert_eq!(xs.iter().filter(|&&x| x > p90).count(), beyond(1000, 90));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
