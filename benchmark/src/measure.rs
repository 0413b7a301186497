//! Arithmetic over samples, and the process's own CPU and memory ledgers.

/// A percentile is reported only with at least this many samples beyond it.
const SAMPLES_BEYOND: f64 = 10.0;

/// The `q`-quantile (nearest rank) of `sorted`, or `None` when fewer than
/// ten samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || (n as f64) * (1.0 - q).min(q) < SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[((n - 1) as f64 * q).round() as usize])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so `repeat.sh` and the driver agree on a spread.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// Median over windows of each window's `q`-quantile, with the number of
/// windows that voted. One scheduler hiccup owns one window, not the
/// metric; a periodic spike is in every window and stays. Adjacent
/// windows are merged until a typical one has the samples `q` needs.
pub fn windowed_percentile(windows: &[Vec<u64>], q: f64) -> Option<(f64, usize)> {
    let sizes: Vec<f64> = windows.iter().map(|w| w.len() as f64).collect();
    let typical = median(&sizes)?.max(1.0);
    let needed = SAMPLES_BEYOND / (1.0 - q).min(q);
    let merge = (needed / typical).ceil().max(1.0) as usize;
    let per_window: Vec<f64> = windows
        .chunks(merge)
        .filter_map(|chunk| percentile(&flatten_sorted(chunk), q).map(|v| v as f64))
        .collect();
    median(&per_window).map(|m| (m, per_window.len()))
}

/// All windows' samples as one sorted vector.
pub fn flatten_sorted(windows: &[Vec<u64>]) -> Vec<u64> {
    let mut all: Vec<u64> = windows.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

/// User and system CPU seconds this process has used, all threads, from
/// `/proc/self/stat` (in `USER_HZ` ticks, 100 per second on Linux).
pub fn cpu_seconds() -> std::io::Result<(f64, f64)> {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields are counted after the parenthesised command name, which may
    // itself hold spaces: utime and stime are fields 14 and 15 overall.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or(&stat);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(user), Some(sys)) => Ok((user / USER_HZ, sys / USER_HZ)),
        _ => Err(std::io::Error::other("unexpected /proc/self/stat layout")),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        assert_eq!(percentile(&sorted, 0.5), Some(501));
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        assert_eq!(percentile(&sorted, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let calm: Vec<u64> = (1..=1000).collect();
        let stalled: Vec<u64> = (1..=1000).map(|v| v * 100).collect();
        let windows = vec![calm.clone(), stalled, calm.clone(), vec![1, 2, 3]];
        // The stalled window is outvoted; the short window cannot support
        // a p99 and does not vote.
        assert_eq!(windowed_percentile(&windows, 0.99), Some((990.0, 3)));
        assert_eq!(windowed_percentile(&[vec![1, 2]], 0.99), None);
        // Windows too thin for a p99 merge with their neighbours: four
        // windows of 500 vote as two of 1000.
        let thin: Vec<Vec<u64>> = (0..4).map(|_| (1..=500).collect()).collect();
        assert_eq!(windowed_percentile(&thin, 0.99), Some((495.0, 2)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn process_ledgers_are_readable() {
        let (user, sys) = cpu_seconds().unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
