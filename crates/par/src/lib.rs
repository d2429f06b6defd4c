//! Shard-parallel map over a range of row ids, on scoped threads.
//!
//! The engine shards a rule firing by row range of one scan, and the
//! list of ranges is fixed before any of them runs — so
//! it needs a counter, not a scheduler. [`map_ranges`] cuts the range
//! into contiguous pieces; the caller and a few `std::thread::scope`
//! threads each claim the next piece from one atomic counter until
//! none is left. Threads live for one call: nothing is pooled, nothing
//! outlives the borrow, and the crate holds no `unsafe`.
//!
//! ```
//! let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
//! let lens = spannerlib_par::map_ranges(2, 0..words.len(), |_, rows| {
//!     words[rows].iter().map(|w| w.len()).sum::<usize>()
//! });
//! assert_eq!(lens.iter().sum::<usize>(), 26);
//! ```

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pieces cut per lane: a few, so a lane that drew the long documents
/// leaves the rest of the range to the others.
const PIECES_PER_LANE: usize = 4;

/// Applies `f` to each of up to `lanes × PIECES_PER_LANE` contiguous
/// pieces of `rows` — `f(i, piece)` for the `i`-th piece — and returns
/// the results in piece order.
///
/// The lanes are the calling thread plus `lanes − 1` scoped threads
/// (never more threads than pieces); each claims the next unclaimed
/// piece until none is left. With `lanes ≤ 1` or a single piece every
/// piece runs on the caller and nothing is spawned, and a thread that
/// fails to spawn is skipped: the lanes that exist claim its pieces.
/// A panic in `f` re-raises on the caller once every lane has stopped,
/// so the other lanes finish every piece not yet claimed first.
pub fn map_ranges<R, F>(lanes: usize, rows: Range<usize>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let len = rows.len();
    if len == 0 {
        return Vec::new();
    }
    let size = len.div_ceil(lanes.max(1).saturating_mul(PIECES_PER_LANE));
    let pieces = len.div_ceil(size);
    let piece = |i: usize| {
        let start = rows.start + i * size;
        start..rows.end.min(start + size)
    };
    if lanes <= 1 || pieces == 1 {
        return (0..pieces).map(|i| f(i, piece(i))).collect();
    }
    // Relaxed: the counter hands out indexes and publishes no data;
    // results come back through `join` and the end of the scope.
    let next = AtomicUsize::new(0);
    let lane = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= pieces {
                return done;
            }
            done.push((i, f(i, piece(i))));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes.min(pieces))
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, lane).ok())
            .collect();
        let mut done = lane();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Every row of `rows`, collected from the pieces `map_ranges`
    /// handed out, with the piece indexes it returned.
    fn covered(lanes: usize, rows: Range<usize>) -> (Vec<usize>, Vec<usize>) {
        let pieces = map_ranges(lanes, rows, |i, piece| (i, piece));
        let order = pieces.iter().map(|(i, _)| *i).collect();
        (order, pieces.into_iter().flat_map(|(_, p)| p).collect())
    }

    /// The threads `map_ranges` ran `f` on.
    fn threads(lanes: usize, rows: Range<usize>) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        map_ranges(lanes, rows, |_, _| {
            seen.lock().unwrap().insert(thread::current().id());
            thread::sleep(Duration::from_millis(1));
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn executes_every_task_once() {
        for (lanes, rows) in [(2, 0..100), (3, 5..6), (4, 10..17), (2, 0..8), (8, 3..1000)] {
            let (order, covered) = covered(lanes, rows.clone());
            assert_eq!(covered, rows.clone().collect::<Vec<_>>(), "{lanes} lanes");
            assert_eq!(order, (0..order.len()).collect::<Vec<_>>());
            assert!(order.len() <= lanes * PIECES_PER_LANE);
        }
    }

    #[test]
    fn tasks_borrow_the_callers_stack() {
        let words = ["alpha", "beta", "gamma", "delta"];
        let lens = map_ranges(2, 0..words.len(), |_, rows| words[rows][0].len());
        assert_eq!(lens, vec![5, 4, 5, 5]);
    }

    #[test]
    fn an_empty_range_runs_nothing() {
        let runs = AtomicUsize::new(0);
        let out: Vec<()> = map_ranges(4, 7..7, |_, _| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert!(out.is_empty());
        assert_eq!(runs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let caller = HashSet::from([thread::current().id()]);
        assert_eq!(threads(0, 0..20), caller);
        assert_eq!(threads(1, 0..20), caller);
        assert_eq!(threads(4, 9..10), caller, "a single row is a single piece");
        assert_eq!(covered(0, 0..20).1, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn more_lanes_than_pieces_cover_every_row_once() {
        let (order, rows) = covered(1_000_000, 0..10);
        assert_eq!(order.len(), 10);
        assert_eq!(rows, (0..10).collect::<Vec<_>>());
        assert!(threads(1_000, 0..3).len() <= 3);
    }

    #[test]
    fn panics_propagate_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            map_ranges(2, 0..16, |i, _| {
                if i == 0 {
                    panic!("boom");
                }
                // Keeps the other lane busy when the panic lands; the
                // assertion below holds whichever lane takes piece 0.
                thread::sleep(Duration::from_millis(1));
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = outcome.expect_err("map_ranges re-raises the piece's panic");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
        // Every other piece ran to completion before the panic surfaced.
        assert_eq!(finished.load(Ordering::Relaxed), 7);
    }
}
