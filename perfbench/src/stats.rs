//! The benchmark's one statistics helper: median, `_tail`, quartiles and
//! sample count of a set of measurements, their mean, Spearman rank
//! correlation, and the
//! host record every report carries.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (linear interpolation between the two middle samples).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The `_tail` value: the highest of the [`TAIL_LADDER`] percentiles
    /// that has at least [`TAIL_BEYOND`] samples beyond it (the median when
    /// none has).
    pub tail: f64,
    /// The percentile the tail value sits at.
    pub tail_pct: f64,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;
/// Percentiles a tail is reported at. The ladder stops at p90: on a shared
/// host, stalls of tens of milliseconds hit a few runs in ten, and they set
/// those runs' p99 (it moved 6 → 20 ms between runs of one build), not the
/// program.
pub const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

impl Summary {
    /// Summarize `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = TAIL_LADDER
            .into_iter()
            .rev()
            .find(|p| n as f64 * (100.0 - p) >= 100.0 * TAIL_BEYOND as f64)
            .unwrap_or(50.0);
        Some(Summary {
            n,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail: quantile(&sorted, tail_pct / 100.0),
            tail_pct,
        })
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quantile `p` in `[0, 1]` of an ascending slice, interpolating linearly
/// between the closest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`; `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Arithmetic mean of `samples`; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Spearman rank correlation of two equally long series (average ranks for
/// ties). `None` with fewer than three pairs or a constant series.
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "spearman needs paired series");
    if a.len() < 3 {
        return None;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (a.len() as f64 + 1.0) / 2.0;
    let (mut num, mut da, mut db) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - mean) * (y - mean);
        da += (x - mean).powi(2);
        db += (y - mean).powi(2);
    }
    (da > 0.0 && db > 0.0).then(|| num / (da * db).sqrt())
}

/// 1-based ranks, ties sharing their average rank.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
    let mut ranks = vec![0.0; values.len()];
    let mut start = 0;
    while start < order.len() {
        let mut end = start;
        while end + 1 < order.len() && values[order[end + 1]] == values[order[start]] {
            end += 1;
        }
        let rank = (start + end) as f64 / 2.0 + 1.0;
        for &i in &order[start..=end] {
            ranks[i] = rank;
        }
        start = end + 1;
    }
    ranks
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// L2 size per core, as sysfs reports it (e.g. `1024K`).
    pub l2: String,
    /// L3 size, as sysfs reports it.
    pub l3: String,
    /// The ISA the fused kernels execute on.
    pub isa: &'static str,
}

impl Host {
    /// Probe the running host.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let cache = |level: &str| {
            (0..8)
                .find_map(|i| {
                    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                    let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                    let ty = std::fs::read_to_string(format!("{dir}/type")).ok()?;
                    (lvl.trim() == level && ty.trim() != "Instruction")
                        .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                        .flatten()
                        .map(|s| s.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into())
        };
        Host {
            cpu,
            nproc: nproc(),
            l2: cache("2"),
            l3: cache("3"),
            isa: helium_halide::Target::detect().effective_isa().as_str(),
        }
    }
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_inclusive_interpolation() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.q1, 1.75);
        assert!((even.iqr_frac() - 1.5 / 2.5).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_beyond() {
        let upto = |n: i32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 100 samples: p90 has exactly ten beyond it.
        let s = Summary::of(&upto(100)).unwrap();
        assert_eq!(s.tail_pct, 90.0);
        assert!((s.tail - 90.1).abs() < 1e-9);
        assert_eq!(
            upto(100).iter().filter(|&&v| v > s.tail).count(),
            TAIL_BEYOND
        );
        // The ladder never goes beyond p90, however many samples there are.
        assert_eq!(Summary::of(&upto(100_000)).unwrap().tail_pct, 90.0);
        // 40 samples: p75 has ten beyond it, p90 only four.
        assert_eq!(Summary::of(&upto(40)).unwrap().tail_pct, 75.0);
        // Too few samples for any tail: the median stands in.
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.tail, s.tail_pct), (2.0, 50.0));
    }

    #[test]
    fn spearman_ranks_monotone_series() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spearman(&a, &[10.0, 20.0, 35.0, 90.0]), Some(1.0));
        assert_eq!(spearman(&a, &[9.0, 5.0, 2.0, 1.0]), Some(-1.0));
        assert_eq!(ranks(&[5.0, 1.0, 5.0]), vec![2.5, 1.0, 2.5]);
        assert!(spearman(&a, &[1.0; 4]).is_none());
    }
}
