//! Per-rank virtual clocks.
//!
//! All latency numbers the experiment harness reports are *virtual seconds*:
//! simulated wall-clock on the simulated cluster, decoupled from how fast the
//! host machine happens to execute the simulation. A rank's clock advances
//! when it is charged compute cost (from a calibrated cost model) or
//! communication cost (from the α–β network model).

/// A monotone clock measuring virtual seconds on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `now` virtual seconds.
    pub fn at(now: f64) -> Self {
        assert!(now.is_finite() && now >= 0.0, "clock must start at a finite, non-negative time");
        Self { now }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance the clock by `secs` virtual seconds.
    ///
    /// # Panics
    /// Panics (debug) on negative or non-finite charges — time cannot flow
    /// backwards on a rank.
    #[inline]
    pub fn charge(&mut self, secs: f64) {
        debug_assert!(
            secs.is_finite() && secs >= 0.0,
            "charge must be finite and non-negative, got {secs}"
        );
        self.now += secs.max(0.0);
    }

    /// Move the clock forward to `t` if `t` is later; used when a collective
    /// releases a rank at the synchronized time. Never moves backwards.
    #[inline]
    pub fn sync_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut c = VirtualClock::new();
        c.charge(1.5);
        c.charge(0.25);
        assert!((c.now() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn sync_never_rewinds() {
        let mut c = VirtualClock::at(10.0);
        c.sync_to(5.0);
        assert_eq!(c.now(), 10.0);
        c.sync_to(12.0);
        assert_eq!(c.now(), 12.0);
    }

    #[test]
    fn zero_charge_is_noop() {
        let mut c = VirtualClock::at(3.0);
        c.charge(0.0);
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    #[should_panic]
    fn negative_start_rejected() {
        VirtualClock::at(-1.0);
    }
}
