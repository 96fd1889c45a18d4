//! Order statistics over latency samples, and the peak resident set of
//! a process.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q` in `[0, 1]`); `None` when there are no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default `exclusive` method); `None` below
/// two values.
pub fn python_quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The diagnostic tail of a latency sample: the highest of p90, p99,
/// p99.9, … that still has at least ten samples beyond it, with its
/// value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile, e.g. `0.99`.
    pub quantile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the quantile was taken over.
    pub samples: usize,
}

impl Tail {
    /// The quantile as a percentile label: `90`, `99`, `99.9`, …
    pub fn label(&self) -> String {
        format!("{:.4}", self.quantile * 100.0)
            .trim_end_matches('0')
            .trim_end_matches('.')
            .to_string()
    }
}

/// The tail of `values` (see [`Tail`]); `None` below 100 samples, where
/// not even p90 has ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    // `1 / denominator` of the samples lie beyond the quantile.
    let mut denominator = 10;
    let mut chosen = None;
    while n / denominator >= 10 {
        chosen = Some(denominator);
        denominator *= 10;
    }
    let q = 1.0 - 1.0 / chosen? as f64;
    Some(Tail {
        quantile: q,
        value: quantile(values, q)?,
        samples: n,
    })
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(python_quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..2500).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert!((t.quantile - 0.99).abs() < 1e-12, "{t:?}");
        assert_eq!(t.samples, 2500);
        assert!(tail(&v[..99]).is_none());
        let t = tail(&v[..100]).expect("p90 has ten beyond");
        assert!((t.quantile - 0.9).abs() < 1e-12);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(std::process::id()).expect("proc status") > 0.0);
    }
}
