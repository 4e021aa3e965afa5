//! Order statistics over timing samples.

/// Sorts samples ascending (timings are never NaN).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// The `q`-quantile (0..=1) by linear interpolation between order statistics;
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A time: less is better.
    Lower,
    /// A rate: more is better.
    Higher,
}

/// Samples of one kind of operation, grouped by the batch that made them.
///
/// A batch is fixed work — one pass over the tenants, a few rounds of one
/// fleet — so the median over a batch's samples is always over the same mix
/// of operations. Of those per-batch medians a run reports the decile on the
/// *good* side ([`Series::quiet`]). Interference on a shared host only ever
/// adds time, and it comes in bursts of a tenth of a second to many seconds:
/// the median over a whole run slides with the share of the run the bursts
/// took (20–50 % between identical runs on the box this was written on),
/// while the good decile stays on the program's own cost as long as a tenth
/// of the batches ran undisturbed. A change to the program moves every batch,
/// and so the decile, by as much as it moves the median.
///
/// Derefs to every sample in the order made, for tails and layer figures.
#[derive(Debug, Default)]
pub struct Series {
    all: Vec<f64>,
    /// Where the open batch's samples start in `all`.
    open: usize,
    batch_p50: Vec<f64>,
}

impl Series {
    /// Adds a sample to the open batch.
    pub fn push(&mut self, x: f64) {
        self.all.push(x);
    }

    /// Ends the open batch: its median joins the per-batch medians. A batch
    /// that made no sample of this kind leaves nothing behind.
    pub fn close_batch(&mut self) {
        if let Some(p50) = median(&self.all[self.open..]) {
            self.batch_p50.push(p50);
        }
        self.open = self.all.len();
    }

    /// The quiet-host estimate of the median operation: the first decile of
    /// the per-batch medians of a time, the ninth of a rate. `None` before the
    /// first batch closes.
    pub fn quiet(&self, better: Better) -> Option<f64> {
        let q = match better {
            Better::Lower => 0.1,
            Better::Higher => 0.9,
        };
        quantile(&self.batch_p50, q)
    }
}

impl std::ops::Deref for Series {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.all
    }
}

/// Geometric mean of positive values; `None` for an empty sample.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The tail figure reported beside a median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen (99, 95, 90, 75, or 100 when the sample is too
    /// small for any of them).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the figure rests on.
    pub n: usize,
}

/// The highest of p99/p95/p90/p75 that still has at least ten samples beyond
/// it; a sample too small for p75 reports its maximum as p100, so that a
/// reader sees the count and does not mistake it for a percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for pct in [99usize, 95, 90, 75] {
        let beyond = n * (100 - pct) / 100;
        if beyond >= 10 {
            return Some(Tail {
                pct: pct as f64,
                value: v[n - 1 - beyond],
                n,
            });
        }
    }
    Some(Tail {
        pct: 100.0,
        value: v[n - 1],
        n,
    })
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
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1,000 samples: p99 leaves exactly ten beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: nine beyond p99, so p95 it is.
        assert_eq!(tail(&ramp(999)).unwrap().pct, 95.0);
        // 200 samples: p95 leaves ten beyond it.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        assert_eq!(tail(&ramp(40)).unwrap().pct, 75.0);
        // Too small for any percentile: the maximum, labelled p100.
        let t = tail(&ramp(12)).unwrap();
        assert_eq!((t.pct, t.value, t.n), (100.0, 12.0, 12));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn series_reports_the_good_decile_of_batch_medians() {
        let mut s = Series::default();
        assert_eq!(s.quiet(Better::Lower), None);
        // Eleven batches of three samples with medians 10, 11, .. 20; a burst
        // then triples the last five.
        for b in 0..11 {
            let slow = if b >= 6 { 3.0 } else { 1.0 };
            for x in [1.0, 10.0 + b as f64, 100.0] {
                s.push(x * slow);
            }
            s.close_batch();
            s.close_batch(); // a batch of another kind: nothing to add
        }
        assert_eq!(s.batch_p50[..6], [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        assert_eq!(s.batch_p50[6], 48.0);
        assert_eq!(s.quiet(Better::Lower), Some(11.0));
        assert_eq!(s.quiet(Better::Higher), Some(57.0));
        assert_eq!(s.len(), 33, "derefs to every sample");
        assert_eq!(median(&s), Some(15.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
