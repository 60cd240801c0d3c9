//! Streaming and rolling moment computations.
//!
//! The live half of MarketMiner never sees a complete sample: quotes arrive
//! one at a time, and the cleaning filter and sliding-window Pearson
//! engine need running means/variances that can be updated in O(1).

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long streams (a full trading day of quotes for a
/// liquid stock is easily 10^5–10^6 updates).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Incorporate an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (denominator n).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Kahan-compensated accumulation: adds `v` into `sum`, folding the rounding
/// error into `comp` so long add/subtract chains do not drift.
#[inline]
pub(crate) fn kadd(sum: &mut f64, comp: &mut f64, v: f64) {
    let y = v - *comp;
    let t = *sum + y;
    *comp = (t - *sum) - y;
    *sum = t;
}

/// Rolling mean/variance over a fixed-size window, with O(1) push.
///
/// Used by the TCP-like data-cleaning filter of the paper ("eliminate prices
/// that are more than a few standard deviations from their corresponding
/// moving average and deviation").
///
/// This accumulator sees raw *price levels* (not log returns), so the
/// classic `E[x²] - E[x]²` identity on raw sums is catastrophically
/// cancellation-prone: at a price level of `1e8` the squared sums sit near
/// `1e16`, where one ulp is `2.0` — larger than any realistic intraday
/// variance. Three defences are layered here:
///
/// 1. **Anchor shift** — sums are kept over `x - anchor`, where the anchor
///    is the first observed value (re-pinned at every refresh). Mean and
///    variance are shift-invariant, and shifted values are at noise scale,
///    not price scale.
/// 2. **Kahan compensation** — the shifted sums are accumulated with
///    compensated addition, so the add/subtract eviction churn over ~10^6
///    pushes cannot drift them.
/// 3. **Periodic refresh** — sums are rebuilt from the stored window every
///    65 536 pushes, bounding any residual error.
///
/// The variance is clamped at zero: a constant window must never report a
/// tiny negative variance (whose square root would be NaN downstream).
#[derive(Debug, Clone)]
pub struct RollingMoments {
    window: Vec<f64>,
    head: usize,
    len: usize,
    /// First-seen value; all sums are over `x - anchor`.
    anchor: f64,
    sum: f64,
    sum_c: f64,
    sum_sq: f64,
    sum_sq_c: f64,
    pushes_since_refresh: usize,
}

impl RollingMoments {
    /// Create a rolling window of the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "rolling window must have capacity > 0");
        RollingMoments {
            window: vec![0.0; capacity],
            head: 0,
            len: 0,
            anchor: 0.0,
            sum: 0.0,
            sum_c: 0.0,
            sum_sq: 0.0,
            sum_sq_c: 0.0,
            pushes_since_refresh: 0,
        }
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.window.len()
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the window has been filled at least once.
    pub fn is_full(&self) -> bool {
        self.len == self.window.len()
    }

    /// Push an observation, evicting the oldest when full. Returns the
    /// evicted value if any.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        if self.len == 0 {
            self.anchor = x;
        }
        let cap = self.window.len();
        let evicted = if self.len == cap {
            let old = self.window[self.head];
            let d = old - self.anchor;
            kadd(&mut self.sum, &mut self.sum_c, -d);
            kadd(&mut self.sum_sq, &mut self.sum_sq_c, -(d * d));
            Some(old)
        } else {
            self.len += 1;
            None
        };
        self.window[self.head] = x;
        self.head = (self.head + 1) % cap;
        let d = x - self.anchor;
        kadd(&mut self.sum, &mut self.sum_c, d);
        kadd(&mut self.sum_sq, &mut self.sum_sq_c, d * d);

        // Rebuild the running sums from scratch occasionally; this also
        // re-pins the anchor in case prices have drifted far from it.
        self.pushes_since_refresh += 1;
        if self.pushes_since_refresh >= 65_536 {
            self.refresh();
        }
        evicted
    }

    fn refresh(&mut self) {
        self.pushes_since_refresh = 0;
        let anchor = self.iter_raw().next().copied().unwrap_or(0.0);
        self.anchor = anchor;
        let (mut s, mut sc) = (0.0, 0.0);
        let (mut s2, mut s2c) = (0.0, 0.0);
        for &v in self.iter_raw() {
            let d = v - self.anchor;
            kadd(&mut s, &mut sc, d);
            kadd(&mut s2, &mut s2c, d * d);
        }
        self.sum = s;
        self.sum_c = sc;
        self.sum_sq = s2;
        self.sum_sq_c = s2c;
    }

    fn iter_raw(&self) -> impl Iterator<Item = &f64> {
        let cap = self.window.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |k| &self.window[(start + k) % cap])
    }

    /// Current mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.anchor + self.sum / self.len as f64
        }
    }

    /// Current population variance, clamped at 0 against rounding.
    ///
    /// The variance of the anchor-shifted values equals the variance of the
    /// raw values, but is computed at noise scale rather than price scale.
    pub fn variance(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let n = self.len as f64;
        let mean = self.sum / n;
        (self.sum_sq / n - mean * mean).max(0.0)
    }

    /// Current population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

// Durable-checkpoint codecs. Every accumulator field is encoded verbatim
// — including the Kahan compensators and the refresh countdown — because
// rebuilding the sums by re-pushing the stored window would produce
// different rounding than the original eviction history, breaking the
// bit-identity guarantee of checkpoint recovery.
wire::record! { Welford { n, mean, m2 } }

wire::record! {
    RollingMoments {
        window, head, len, anchor, sum, sum_c, sum_sq, sum_sq_c, pushes_since_refresh
    }
    check(m) {
        if m.window.is_empty() || m.head >= m.window.len() || m.len > m.window.len() {
            return Err(wire::WireError::Invalid("rolling moments geometry"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [1.0, 4.0, 9.0, 16.0, 25.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn rolling_window_evicts() {
        let mut r = RollingMoments::new(3);
        assert_eq!(r.push(1.0), None);
        assert_eq!(r.push(2.0), None);
        assert_eq!(r.push(3.0), None);
        assert!(r.is_full());
        assert!((r.mean() - 2.0).abs() < 1e-12);
        assert_eq!(r.push(4.0), Some(1.0));
        assert!((r.mean() - 3.0).abs() < 1e-12);
        let var = ((2.0f64 - 3.0).powi(2) + 0.0 + (4.0f64 - 3.0).powi(2)) / 3.0;
        assert!((r.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn rolling_long_stream_stays_accurate() {
        let mut r = RollingMoments::new(100);
        // Long stream with an offset that would amplify cancellation error.
        for i in 0..200_000u64 {
            r.push(1e6 + (i % 7) as f64);
        }
        // Window now holds values 1e6 + (i % 7) for the last 100 i's.
        let tail: Vec<f64> = (199_900..200_000u64)
            .map(|i| 1e6 + (i % 7) as f64)
            .collect();
        let mean = tail.iter().sum::<f64>() / 100.0;
        let var = tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 100.0;
        assert!((r.mean() - mean).abs() < 1e-6);
        assert!((r.variance() - var).abs() < 1e-3);
    }

    #[test]
    fn rolling_survives_extreme_price_levels() {
        // Regression for catastrophic cancellation: at a 1e8 price level the
        // raw squared sums sit near 1e16, where one ulp is 2.0 — far larger
        // than the ~0.08 variance of the noise. The old raw-sum formulation
        // returned garbage (often exactly 0.0) here; the anchor-shifted,
        // Kahan-compensated sums must stay at full precision.
        let mut r = RollingMoments::new(128);
        let noise = |i: u64| ((i * 37) % 101) as f64 * 0.01 - 0.5;
        for i in 0..10_000u64 {
            r.push(1e8 + noise(i));
        }
        let tail: Vec<f64> = (10_000 - 128..10_000u64).map(|i| 1e8 + noise(i)).collect();
        let mean = tail.iter().sum::<f64>() / 128.0;
        let var = tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 128.0;
        assert!(var > 0.05, "sanity: noise variance is macroscopic");
        assert!((r.mean() - mean).abs() < 1e-6, "{} vs {}", r.mean(), mean);
        assert!(
            (r.variance() - var).abs() / var < 1e-9,
            "{} vs {}",
            r.variance(),
            var
        );
        // A constant stream at the same level must clamp to exactly zero,
        // never a tiny negative (whose sqrt is NaN downstream).
        let mut c = RollingMoments::new(64);
        for _ in 0..1_000 {
            c.push(1e8 + 0.123);
        }
        assert_eq!(c.variance(), 0.0);
        assert_eq!(c.std_dev(), 0.0);
    }

    #[test]
    #[should_panic]
    fn rolling_zero_capacity_panics() {
        let _ = RollingMoments::new(0);
    }

    #[test]
    fn codecs_roundtrip_mid_stream_state_bit_exactly() {
        let mut w = Welford::new();
        let mut r = RollingMoments::new(7);
        for i in 0..1_000u64 {
            let x = 1e8 + ((i * 37) % 101) as f64 * 0.01;
            w.push(x);
            r.push(x);
        }
        let w2: Welford = wire::from_bytes(&wire::to_bytes(&w)).unwrap();
        let r2: RollingMoments = wire::from_bytes(&wire::to_bytes(&r)).unwrap();
        // The decoded accumulators must continue the stream bit-for-bit.
        let (mut a, mut b) = (w, w2);
        let (mut c, mut d) = (r, r2);
        for i in 0..200u64 {
            let x = 1e8 + (i % 13) as f64 * 0.07;
            a.push(x);
            b.push(x);
            c.push(x);
            d.push(x);
        }
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());
        assert_eq!(c.mean().to_bits(), d.mean().to_bits());
        assert_eq!(c.variance().to_bits(), d.variance().to_bits());
    }

    #[test]
    fn rolling_decode_rejects_bad_geometry() {
        let r = RollingMoments::new(4);
        let mut bytes = wire::to_bytes(&r);
        // head is the second field (after the 4-element window vec:
        // 8-byte len + 4*8 payload); corrupt it to an out-of-range value.
        bytes[8 + 32] = 0xFF;
        assert!(wire::from_bytes::<RollingMoments>(&bytes).is_err());
    }
}
