//! Rolling extrema and combined rolling statistics.
//!
//! The retracement rule needs the high, low and average of the pair spread
//! over the trailing `RT` intervals, updated every interval. The min/max
//! use the classic monotonic-deque algorithm: amortised O(1) per step
//! instead of O(RT) rescans.

use std::collections::VecDeque;

/// Rolling maximum over a fixed window (amortised O(1) per push).
#[derive(Debug, Clone)]
pub struct RollingMax {
    window: usize,
    /// (sequence index, value), values strictly decreasing front→back.
    deque: VecDeque<(u64, f64)>,
    next_idx: u64,
}

impl RollingMax {
    /// Rolling max over the last `window` observations.
    ///
    /// # Panics
    /// Panics if `window` is 0.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        RollingMax {
            window,
            deque: VecDeque::new(),
            next_idx: 0,
        }
    }

    /// Push an observation and return the current windowed maximum.
    pub fn push(&mut self, v: f64) -> f64 {
        let idx = self.next_idx;
        self.next_idx += 1;
        while matches!(self.deque.back(), Some(&(_, back)) if back <= v) {
            self.deque.pop_back();
        }
        self.deque.push_back((idx, v));
        let cutoff = idx + 1 - self.window.min(idx as usize + 1) as u64;
        while matches!(self.deque.front(), Some(&(i, _)) if i < cutoff) {
            self.deque.pop_front();
        }
        self.deque.front().expect("deque never empty after push").1
    }

    /// Current maximum without pushing (None before the first push).
    pub fn current(&self) -> Option<f64> {
        self.deque.front().map(|&(_, v)| v)
    }
}

/// Rolling minimum over a fixed window (mirror of [`RollingMax`]).
#[derive(Debug, Clone)]
pub struct RollingMin {
    inner: RollingMax,
}

impl RollingMin {
    /// Rolling min over the last `window` observations.
    pub fn new(window: usize) -> Self {
        RollingMin {
            inner: RollingMax::new(window),
        }
    }

    /// Push an observation and return the current windowed minimum.
    pub fn push(&mut self, v: f64) -> f64 {
        -self.inner.push(-v)
    }

    /// Current minimum without pushing.
    pub fn current(&self) -> Option<f64> {
        self.inner.current().map(|v| -v)
    }
}

/// Combined rolling low / high / mean over a fixed window — exactly the
/// `(Sl, Sh, S̄)` triple of the strategy's retracement computation.
#[derive(Debug, Clone)]
pub struct RollingRange {
    min: RollingMin,
    max: RollingMax,
    window: crate::window::SlidingWindow<f64>,
    sum: f64,
}

/// A snapshot of rolling range statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeStats {
    /// Window low (`Sl`).
    pub low: f64,
    /// Window high (`Sh`).
    pub high: f64,
    /// Window mean (`S̄`).
    pub mean: f64,
    /// Observations currently in the window.
    pub len: usize,
}

impl RollingRange {
    /// Rolling range over the last `window` observations.
    pub fn new(window: usize) -> Self {
        RollingRange {
            min: RollingMin::new(window),
            max: RollingMax::new(window),
            window: crate::window::SlidingWindow::new(window),
            sum: 0.0,
        }
    }

    /// Push an observation and return the updated stats.
    pub fn push(&mut self, v: f64) -> RangeStats {
        let low = self.min.push(v);
        let high = self.max.push(v);
        if let Some(evicted) = self.window.push(v) {
            self.sum -= evicted;
        }
        self.sum += v;
        RangeStats {
            low,
            high,
            mean: self.sum / self.window.len() as f64,
            len: self.window.len(),
        }
    }

    /// Current stats without pushing (None before the first push).
    pub fn current(&self) -> Option<RangeStats> {
        if self.window.is_empty() {
            return None;
        }
        Some(RangeStats {
            low: self.min.current()?,
            high: self.max.current()?,
            mean: self.sum / self.window.len() as f64,
            len: self.window.len(),
        })
    }
}

// Durable-checkpoint codecs. The monotonic deque and its sequence counter
// are encoded verbatim: the deque's contents depend on the whole
// observation history, not just the retained window, so reconstruction
// from values alone is impossible.
wire::record! {
    RollingMax { window, deque, next_idx }
    check(m) {
        if m.window == 0
            || m.deque.len() > m.window
            || m.deque.iter().any(|&(i, _)| i >= m.next_idx)
        {
            return Err(wire::WireError::Invalid("rolling max geometry"));
        }
    }
}

wire::record! { RollingMin { inner } }

// The running sum is eviction-history dependent; verbatim.
wire::record! { RollingRange { min, max, window, sum } }

wire::record! { RangeStats { low, high, mean, len } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_max_matches_naive() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (((i * 37 + 11) % 101) as f64) - 50.0)
            .collect();
        let w = 7;
        let mut rm = RollingMax::new(w);
        for (k, &x) in xs.iter().enumerate() {
            let got = rm.push(x);
            let lo = k.saturating_sub(w - 1);
            let want = xs[lo..=k].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(got, want, "step {k}");
        }
    }

    #[test]
    fn rolling_min_matches_naive() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (((i * 53 + 5) % 97) as f64) * 0.3)
            .collect();
        let w = 13;
        let mut rm = RollingMin::new(w);
        for (k, &x) in xs.iter().enumerate() {
            let got = rm.push(x);
            let lo = k.saturating_sub(w - 1);
            let want = xs[lo..=k].iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(got, want, "step {k}");
        }
    }

    #[test]
    fn range_stats_track_all_three() {
        let mut rr = RollingRange::new(3);
        assert!(rr.current().is_none());
        let s = rr.push(5.0);
        assert_eq!((s.low, s.high, s.mean, s.len), (5.0, 5.0, 5.0, 1));
        rr.push(1.0);
        let s = rr.push(3.0);
        assert_eq!((s.low, s.high, s.len), (1.0, 5.0, 3));
        assert!((s.mean - 3.0).abs() < 1e-12);
        // Evicts 5.0.
        let s = rr.push(2.0);
        assert_eq!((s.low, s.high), (1.0, 3.0));
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(rr.current().unwrap(), s);
    }

    #[test]
    fn ties_are_kept_long_enough() {
        let mut rm = RollingMax::new(2);
        rm.push(4.0);
        rm.push(4.0);
        // Both 4.0s in window; evicting one must keep the other.
        assert_eq!(rm.push(1.0), 4.0);
        assert_eq!(rm.push(1.0), 1.0);
    }
}
