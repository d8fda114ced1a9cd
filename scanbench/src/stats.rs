//! Order statistics over the samples of one run.

/// An ascending copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples beyond the tail rank.
pub const TAIL_BEYOND: usize = 10;

/// Samples per chunk of a long run; a chunk's tail is then about p95.
const CHUNK: usize = 20 * TAIL_BEYOND;

/// The highest percentile that still has [`TAIL_BEYOND`] samples above
/// it, never below the upper median: `(value, percentile)`.
fn chunk_tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    let k = n.saturating_sub(TAIL_BEYOND + 1).max(n / 2);
    let pct = if n == 1 {
        50.0
    } else {
        100.0 * k as f64 / (n - 1) as f64
    };
    (v[k], pct)
}

/// The tail of a run, with its percentile and sample count. Samples are
/// in arrival order; a run of at least two [`CHUNK`]s is cut into
/// consecutive chunks of at least [`CHUNK`] samples and the tail is the
/// median of the chunks' tails. So a long run reports about p95 instead
/// of sliding out to its ten slowest requests, and host stalls that
/// touch fewer than half the chunks do not set it.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let n = samples.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    let chunks = (n / CHUNK).max(1);
    let tails: Vec<(f64, f64)> = (0..chunks)
        .map(|i| chunk_tail(&samples[i * n / chunks..(i + 1) * n / chunks]))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let pcts: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (median(&values), median(&pcts), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_tails() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        // Ranks 90..=99 — ten samples — lie above rank 89.
        let (value, pct, n) = tail(&hundred);
        assert_eq!((value, n), (89.0, 100));
        assert!((pct - 89.0 / 99.0 * 100.0).abs() < 1e-9);
        // Too few samples for ten beyond: the tail floors at the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 2.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0]).0, 3.0);
    }

    #[test]
    fn a_stall_in_one_chunk_does_not_set_the_tail() {
        // Three chunks of 200; the middle one is slow throughout.
        let mut run: Vec<f64> = (0..600).map(|i| f64::from(i % 200)).collect();
        for x in &mut run[200..400] {
            *x += 1e6;
        }
        let (value, pct, n) = tail(&run);
        assert_eq!((value, n), (189.0, 600));
        assert!((pct - 189.0 / 199.0 * 100.0).abs() < 1e-9);
    }
}
