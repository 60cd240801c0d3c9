//! A generic fixed-capacity ring buffer with chronological iteration.
//!
//! The strategy's many windowed quantities (last `M` returns, last `W`
//! correlations, last `Y` divergences, last `RT` spreads) all sit on this
//! one container.

/// Fixed-capacity sliding window over values of type `T`.
#[derive(Debug, Clone)]
pub struct SlidingWindow<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
    cap: usize,
}

impl<T: Copy> SlidingWindow<T> {
    /// Create a window with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            cap: capacity,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once at capacity.
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Push a value, evicting and returning the oldest when full.
    pub fn push(&mut self, v: T) -> Option<T> {
        if self.buf.len() < self.cap {
            self.buf.push(v);
            self.len += 1;
            None
        } else {
            let evicted = self.buf[self.head];
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
            Some(evicted)
        }
    }

    /// Oldest element, if any.
    pub fn front(&self) -> Option<T> {
        if self.len == 0 {
            None
        } else if self.buf.len() < self.cap {
            Some(self.buf[0])
        } else {
            Some(self.buf[self.head])
        }
    }

    /// Newest element, if any.
    pub fn back(&self) -> Option<T> {
        if self.len == 0 {
            None
        } else if self.buf.len() < self.cap {
            Some(self.buf[self.len - 1])
        } else {
            Some(self.buf[(self.head + self.cap - 1) % self.cap])
        }
    }

    /// The contents as two contiguous slices, oldest → newest: the ring
    /// from `head` to its physical end, then the wrapped prefix. Before
    /// the first eviction the second slice is empty.
    pub fn as_slices(&self) -> (&[T], &[T]) {
        let (wrapped, oldest) = self.buf.split_at(self.head);
        (oldest, wrapped)
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let (oldest, wrapped) = self.as_slices();
        oldest.iter().chain(wrapped).copied()
    }

    /// Copy contents oldest → newest into a fresh vector.
    pub fn to_vec(&self) -> Vec<T> {
        let (oldest, wrapped) = self.as_slices();
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(oldest);
        out.extend_from_slice(wrapped);
        out
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }
}

impl SlidingWindow<f64> {
    /// Mean of the current contents (0 when empty) — convenience for the
    /// strategy's `C̄` average-correlation window.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.iter().sum::<f64>() / self.len as f64
        }
    }
}

// Durable-checkpoint codec. The window is encoded as capacity plus its
// *logical* contents (oldest → newest) and rebuilt by pushing: every
// consumer observes the window through `iter()`-order, so the physical
// ring layout does not affect downstream arithmetic.
impl<T: Copy + wire::Codec> wire::Codec for SlidingWindow<T> {
    fn encode(&self, w: &mut wire::Writer) {
        wire::Codec::encode(&self.cap, w);
        wire::Codec::encode(&self.to_vec(), w);
    }

    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        let cap = <usize as wire::Codec>::decode(r)?;
        let items = <Vec<T> as wire::Codec>::decode(r)?;
        if cap == 0 || items.len() > cap {
            return Err(wire::WireError::Invalid("sliding window geometry"));
        }
        let mut win = SlidingWindow::new(cap);
        for v in items {
            win.push(v);
        }
        Ok(win)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_fifo() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.push(1), None);
        assert_eq!(w.push(2), None);
        assert_eq!(w.push(3), None);
        assert!(w.is_full());
        assert_eq!(w.push(4), Some(1));
        assert_eq!(w.push(5), Some(2));
        assert_eq!(w.to_vec(), vec![3, 4, 5]);
    }

    #[test]
    fn front_back() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.front(), None);
        assert_eq!(w.back(), None);
        w.push(10);
        w.push(20);
        assert_eq!(w.front(), Some(10));
        assert_eq!(w.back(), Some(20));
        w.push(30);
        w.push(40); // evicts 10
        assert_eq!(w.front(), Some(20));
        assert_eq!(w.back(), Some(40));
    }

    #[test]
    fn iteration_order_after_wrap() {
        let mut w = SlidingWindow::new(4);
        for v in 0..10 {
            w.push(v);
        }
        assert_eq!(w.to_vec(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn slices_cover_the_window_in_order_at_every_head() {
        let mut w = SlidingWindow::new(4);
        for v in 0..11 {
            w.push(v);
            let (oldest, wrapped) = w.as_slices();
            let joined: Vec<i32> = oldest.iter().chain(wrapped).copied().collect();
            let want: Vec<i32> = ((v - 3).max(0)..=v).collect();
            assert_eq!(joined, want);
            assert_eq!(w.to_vec(), want);
            assert_eq!(w.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn mean_of_f64_window() {
        let mut w: SlidingWindow<f64> = SlidingWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert!((w.mean() - 2.0).abs() < 1e-12);
        w.push(4.0);
        w.push(8.0); // evicts 1.0 -> {2, 3, 4, 8}
        assert!((w.mean() - 4.25).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let mut w = SlidingWindow::new(2);
        w.push(1);
        w.push(2);
        w.push(3);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.push(9), None);
        assert_eq!(w.to_vec(), vec![9]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _: SlidingWindow<u8> = SlidingWindow::new(0);
    }
}
