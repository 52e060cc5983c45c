//! Estimators: medians, nearest-rank percentiles, a log-linear latency
//! histogram for the pooled tail, and the process's peak resident memory.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice; 0 when empty.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sub-buckets per power of two: values are kept to within 1/64 (~1.6 %).
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond samples, pooled over every round of
/// a run so the highest well-sampled percentile can be reported without
/// keeping every sample.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: vec![0; 64 * SUB], total: 0 }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + mantissa
}

fn bucket_low(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let shift = (b / SUB - 1) as u32;
    ((SUB + b % SUB) as u64) << shift
}

impl Hist {
    /// Add one sample.
    pub fn add(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample was added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile, as the lower edge of its bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(b);
            }
        }
        0
    }

    /// The highest of p50, p90, p99, p99.9, … that has at least ten
    /// samples above it, as `(label, ns)`.
    #[must_use]
    pub fn deepest_tail(&self) -> (String, u64) {
        let mut label = "p50".to_string();
        let mut q = 0.5;
        for (l, cand) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999), ("p99.99", 0.9999)] {
            if (1.0 - cand) * self.total as f64 >= 10.0 {
                label = l.to_string();
                q = cand;
            }
        }
        (label, self.quantile(q))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, 9_876_543_210] {
            let b = bucket(v);
            assert!(b >= prev);
            prev = b;
            let low = bucket_low(b);
            assert!(low <= v && v - low <= v / 64, "{v} -> {low}");
        }
    }

    #[test]
    fn quantiles_and_tail_label() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.add(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((49_000..=50_000).contains(&p50), "{p50}");
        assert_eq!(h.deepest_tail().0, "p99");
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4);
        assert!((median(&[3.0, 1.0, 2.0, 10.0]) - 2.5).abs() < 1e-12);
    }
}
