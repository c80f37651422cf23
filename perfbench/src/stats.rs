//! Order statistics over samples, and the process's peak memory.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs` after dropping the lowest and the highest `trim` share
/// of them (at least one value stays); `0.0` for no samples. Over the
/// iterations of a window on a shared host, whose speed drifts within
/// the window, it moves less from window to window than the median.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let k = ((v.len() as f64 * trim) as usize).min((v.len() - 1) / 2);
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The tail of a timing distribution: the highest nearest-rank
/// percentile that still has at least ten samples above it, with that
/// percentile. With ten samples or fewer there is no such percentile and
/// the maximum is returned as the 100th.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 100.0);
    }
    let v = sorted(xs);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    // Nearest rank `n - 10` leaves exactly ten samples beyond it.
    let rank = n - 10;
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&xs, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 100.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 0.1), 5.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.5), 3.0);
        assert_eq!(trimmed_mean(&[7.0], 0.4), 7.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (5.0, 100.0));
    }
}
