//! Cache observability counters.

/// Counters of IE memo traffic — of one [`crate::IeMemo`], or summed
/// over every evaluation of a session and exposed through
/// `Session::stats()`, so serving paths can watch hit rates without
/// instrumenting IE functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that fell through to the IE function.
    pub misses: u64,
    /// Stores (one per miss of a shared call that returned).
    pub insertions: u64,
    /// Always 0: a table lives for one evaluation and drops no entry
    /// before it ends. Kept for the readers of `cache.memo.evictions`.
    pub evictions: u64,
    /// Entries resident (summed: in the last evaluation's table).
    pub entries: usize,
    /// Approximate bytes resident — keys, outputs and a fixed per-entry
    /// overhead (summed: in the last evaluation's table).
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
