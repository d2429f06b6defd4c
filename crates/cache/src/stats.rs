//! Cache observability counters.

/// Counters describing one [`crate::IeMemo`]'s lifetime activity —
/// exposed through `Session::stats()` so serving paths can watch hit
/// rates and budget overflows without instrumenting IE functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that fell through to the IE function.
    pub misses: u64,
    /// Entries stored (one per miss of a cacheable call that fit the
    /// budget).
    pub insertions: u64,
    /// Entries dropped when the table overflowed its budget.
    pub evictions: u64,
    /// Entries rejected outright because a single entry exceeded the
    /// whole byte budget.
    pub oversized: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident (keys + outputs + fixed
    /// per-entry overhead).
    pub bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the memo, in `[0, 1]`; `0.0`
    /// before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(stats.hit_rate(), 0.75);
    }

    #[test]
    fn hit_rate_stays_finite_and_bounded() {
        // Degenerate and saturated counters must never yield NaN/∞ or
        // leave [0, 1] — serving dashboards divide by this blindly.
        let cases = [
            CacheStats::default(),
            CacheStats {
                misses: 17,
                ..CacheStats::default()
            },
            CacheStats {
                hits: u64::MAX / 2,
                misses: u64::MAX / 2,
                ..CacheStats::default()
            },
        ];
        for stats in cases {
            let rate = stats.hit_rate();
            assert!(rate.is_finite(), "{stats:?}");
            assert!((0.0..=1.0).contains(&rate), "{stats:?} → {rate}");
        }
    }
}
