//! Property tests closing the loop between `encode_prometheus` and
//! `check_exposition`: histogram expansion must always be a body the
//! checker accepts and a valid cumulative distribution.

use proptest::prelude::*;
use spannerlib_trace::{check_exposition, encode_prometheus, MetricsRegistry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The expanded histogram is a genuine cumulative distribution:
    /// finite-bucket values never decrease, `+Inf` dominates them all,
    /// and `_count` equals the `+Inf` bucket equals the sample count.
    #[test]
    fn histogram_buckets_are_monotone_cumulative(
        samples in prop::collection::vec(any::<u64>(), 0..32),
    ) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns");
        for &s in &samples {
            h.record(s);
        }

        let body = encode_prometheus(&reg);
        prop_assert!(check_exposition(&body).is_ok(), "{body}");

        let mut finite: Vec<(u64, u64)> = Vec::new(); // (le, cumulative)
        let mut inf = None;
        let mut count = None;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("lat_ns_bucket{le=\"") {
                let (le, value) = rest
                    .split_once("\"} ")
                    .unwrap_or_else(|| panic!("bad bucket line {line:?}"));
                let value: u64 = value.parse().unwrap();
                if le == "+Inf" {
                    inf = Some(value);
                } else {
                    finite.push((le.parse().unwrap(), value));
                }
            } else if let Some(rest) = line.strip_prefix("lat_ns_count ") {
                count = Some(rest.parse::<u64>().unwrap());
            }
        }

        prop_assert!(
            finite.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "buckets not cumulative: {finite:?}"
        );
        let inf = inf.expect("+Inf bucket always present");
        if let Some(&(_, last)) = finite.last() {
            prop_assert!(last <= inf);
        }
        prop_assert_eq!(inf, samples.len() as u64, "{}", body);
        prop_assert_eq!(count, Some(samples.len() as u64));
    }
}
