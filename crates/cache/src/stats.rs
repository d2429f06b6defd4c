//! Cache observability counters.

/// Counters of the IE memo the engine once kept. A call two rules share
/// is now a derived relation, so every field reads 0; the type stays for
/// the readers of `Session::cache_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo: 0.
    pub hits: u64,
    /// Lookups that fell through to the IE function: 0.
    pub misses: u64,
    /// Stores: 0.
    pub insertions: u64,
    /// Entries dropped: 0.
    pub evictions: u64,
    /// Entries resident: 0.
    pub entries: usize,
    /// Approximate bytes resident: 0.
    pub bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the memo, in `[0, 1]`; `0.0`
    /// before any lookup.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
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
