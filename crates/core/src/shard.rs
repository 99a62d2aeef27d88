//! The sharded-worker pool behind `pgvn batch --jobs N` and `pgvn fuzz
//! --jobs N`.
//!
//! The paper's sparse analysis solves each routine's fixed point on its
//! own, so a corpus (or a fuzz campaign's iteration space) shards by
//! index: [`run_sharded`] hands indices `0..n` to scoped worker threads
//! one at a time through a shared atomic cursor, each worker keeping its
//! private state (typically a [`GvnContext`](crate::GvnContext)) across
//! every index it claims, and returns the results in index order. When
//! each result depends only on its index, the output is therefore the
//! same at any worker count; which worker ran which index shows up only
//! in [`Sharded::worker_items`] and [`Sharded::wall_nanos`].

use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Everything one [`run_sharded`] call produced.
#[derive(Debug)]
pub struct Sharded<S, R> {
    /// One result per processed index, in index order: `results[i]`
    /// belongs to index `i`. Covers all of `0..n` unless a worker asked
    /// to stop, in which case it covers a prefix.
    pub results: Vec<R>,
    /// Each worker's private state after its last item, in spawn order.
    pub states: Vec<S>,
    /// Items each worker processed, sorted ascending (the shard-balance
    /// profile). Its length is the clamped worker count.
    pub worker_items: Vec<u64>,
    /// Wall-clock nanoseconds from spawning the first worker to joining
    /// the last.
    pub wall_nanos: u64,
}

/// Processes indices `0..n` on `jobs` scoped worker threads, clamped to
/// at least one and at most one per index (so `n == 0` still runs one
/// idle worker).
///
/// Each worker builds its private state with `init`, then repeatedly
/// claims the next unclaimed index and calls `work(&mut state, i)`.
/// `Continue(r)` records `r` and keeps claiming; `Break(r)` records `r`
/// and tells every worker to stop claiming. Calls already running still
/// finish, and every claimed index is processed, so the processed
/// indices are always a prefix `0..k` — in particular every index below
/// the one that stopped has a result.
///
/// A panic in `init` or `work` is propagated to the caller with its
/// original payload once the other workers have finished.
pub fn run_sharded<S, R>(
    n: usize,
    jobs: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> ControlFlow<R, R> + Sync,
) -> Sharded<S, R>
where
    S: Send,
    R: Send,
{
    let jobs = jobs.max(1).min(n.max(1));
    // Both atomics are `Relaxed`: neither publishes other data, and
    // results reach this thread through the joins.
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut state = init();
        let mut produced = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = match work(&mut state, i) {
                ControlFlow::Continue(r) => r,
                ControlFlow::Break(r) => {
                    stop.store(true, Ordering::Relaxed);
                    r
                }
            };
            produced.push((i, r));
        }
        (state, produced)
    };
    let t0 = Instant::now();
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let wall_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(joined.iter().map(|(_, p)| p.len()).sum(), || None);
    let mut states = Vec::with_capacity(jobs);
    let mut worker_items = Vec::with_capacity(jobs);
    for (state, produced) in joined {
        worker_items.push(produced.len() as u64);
        for (i, r) in produced {
            slots[i] = Some(r);
        }
        states.push(state);
    }
    worker_items.sort_unstable();
    let results = slots.into_iter().map(|r| r.expect("processed indices form a prefix")).collect();
    Sharded { results, states, worker_items, wall_nanos }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize, jobs: usize) -> Sharded<usize, usize> {
        run_sharded(
            n,
            jobs,
            || 0,
            |seen, i| {
                *seen += 1;
                ControlFlow::Continue(i * i)
            },
        )
    }

    #[test]
    fn results_come_back_in_index_order() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 8] {
            let run = squares(100, jobs);
            assert_eq!(run.results, expected, "jobs {jobs}");
            assert_eq!(run.worker_items.len(), jobs);
            assert_eq!(run.states.len(), jobs);
        }
    }

    #[test]
    fn jobs_clamp_to_at_least_one_and_at_most_one_per_item() {
        assert_eq!(squares(5, 0).worker_items, vec![5]);
        assert_eq!(squares(3, 8).worker_items.len(), 3);
        let empty = squares(0, 4);
        assert!(empty.results.is_empty());
        assert_eq!(empty.worker_items, vec![0]);
        assert_eq!(empty.states, vec![0]);
    }

    #[test]
    fn worker_counts_add_up_to_items_processed() {
        for jobs in [1, 3, 8] {
            let run = squares(37, jobs);
            assert_eq!(run.worker_items.iter().sum::<u64>(), 37);
            assert!(run.worker_items.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
            // Each state counted its own items; they match the profile.
            let mut per_state: Vec<u64> = run.states.iter().map(|&s| s as u64).collect();
            per_state.sort_unstable();
            assert_eq!(per_state, run.worker_items);
        }
    }

    #[test]
    fn stop_keeps_every_index_up_to_the_stop_point() {
        for jobs in [1, 2, 4, 8] {
            let run = run_sharded(
                1000,
                jobs,
                || (),
                |_, i| if i == 17 { ControlFlow::Break(i) } else { ControlFlow::Continue(i) },
            );
            // The prefix reaches the stopping index, and nothing is
            // missing below it; in-flight claims may run a little past.
            assert!(run.results.len() > 17, "jobs {jobs}: {}", run.results.len());
            assert!(run.results.len() < 1000, "jobs {jobs}: stop was ignored");
            assert!(run.results.iter().enumerate().all(|(k, &i)| k == i));
            assert_eq!(run.worker_items.iter().sum::<u64>(), run.results.len() as u64);
        }
    }

    #[test]
    fn a_panicking_worker_propagates_its_panic() {
        for jobs in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_sharded(
                    16,
                    jobs,
                    || (),
                    |_, i| {
                        assert!(i != 5, "worker failed on item 5");
                        ControlFlow::<usize, usize>::Continue(i)
                    },
                )
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("worker failed on item 5"), "jobs {jobs}: {message:?}");
        }
    }
}
