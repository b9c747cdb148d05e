//! The global worker-thread budget shared by *nested* parallelism.
//!
//! A fleet run parallelizes at two levels: an outer scheduler runs several
//! libraries concurrently, and each library's [`crate::Engine`] session
//! fans its clusters across an inner pool.  Without coordination, `L`
//! libraries × `T` threads each would oversubscribe the machine by `L×T`.
//! [`ThreadBudget`] owns the single number both levels divide between
//! them, with the invariant
//!
//! > `outer workers × threads per worker ≤ total budget`
//!
//! so `ATLAS_THREADS` bounds the *total* worker count of a run, however
//! deeply it nests.  The split is a pure function of `(budget, jobs)` —
//! schedulers that use it stay deterministic.
//!
//! Both levels schedule through one work queue, [`map_indexed`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A resolved global thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    total: usize,
}

/// How a [`ThreadBudget`] divides between an outer scheduler and the
/// engines it drives concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetSplit {
    /// Concurrent outer workers (≥ 1, never more than there are jobs).
    pub outer: usize,
    /// Engine threads each outer worker may use (≥ 1).
    pub inner: usize,
}

impl ThreadBudget {
    /// Resolves a configured thread count: `0` means "one per available
    /// core", anything else is taken literally (the `ATLAS_THREADS`
    /// convention used across the harness).
    pub fn resolve(configured: usize) -> ThreadBudget {
        let total = if configured == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            configured
        };
        ThreadBudget {
            total: total.max(1),
        }
    }

    /// The total number of workers the budget allows, across all levels.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Splits the budget over `jobs` independent outer jobs, maximizing
    /// utilization: among all `outer ≤ jobs`, the split with the largest
    /// `outer × (total / outer)` wins (at a utilization tie, the larger
    /// `outer` — more libraries in flight hides per-library imbalance).
    /// E.g. a budget of 6 over 4 jobs yields `3 × 2`, not `4 × 1`.
    ///
    /// Guarantees `outer * inner <= total()`, `1 <= outer <= max(jobs, 1)`,
    /// and `inner >= 1`; a pure function of `(total, jobs)`, so schedulers
    /// built on it stay deterministic.
    pub fn split(&self, jobs: usize) -> BudgetSplit {
        let max_outer = self.total.clamp(1, jobs.max(1));
        let outer = (1..=max_outer)
            .max_by_key(|o| (o * (self.total / o), *o))
            .expect("the range 1..=max_outer is never empty");
        BudgetSplit {
            outer,
            inner: (self.total / outer).max(1),
        }
    }

    /// Splits the budget over a *fixed* outer worker count — the resident
    /// service's shape, where the pool size is a configuration knob
    /// rather than a job count known up front.  Unlike
    /// [`ThreadBudget::split`], the outer side is not optimized away:
    /// `workers` is clamped into `1..=total()` and each worker gets an
    /// equal share of what remains (always at least one engine thread),
    /// preserving the `outer * inner <= total()` invariant.
    pub fn split_workers(&self, workers: usize) -> BudgetSplit {
        let outer = workers.clamp(1, self.total);
        BudgetSplit {
            outer,
            inner: (self.total / outer).max(1),
        }
    }
}

/// The work queue both levels share: maps `f` over `items` on `workers`
/// scoped threads that pull indices off an atomic cursor, and returns the
/// results in index order, whatever the scheduling.  One worker (or
/// none) runs inline, spawning no thread.
pub fn map_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                slots.lock().expect("result lock poisoned")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("result lock poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index was run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_keeps_index_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * x)).collect();
        for workers in [0, 1, 2, 5, 64] {
            let got = map_indexed(&items, workers, |i, &x| (i, x * x));
            assert_eq!(got, expected, "{workers} workers");
        }
        // One worker runs on the calling thread.
        let caller = std::thread::current().id();
        let ids = map_indexed(&items, 1, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        assert!(map_indexed(&[] as &[u64], 4, |_, &x| x).is_empty());
    }

    #[test]
    fn split_never_exceeds_the_budget() {
        for total in 1..=33 {
            let budget = ThreadBudget::resolve(total);
            assert_eq!(budget.total(), total);
            for jobs in 0..=40 {
                let split = budget.split(jobs);
                assert!(split.outer >= 1 && split.inner >= 1);
                assert!(split.outer <= jobs.max(1));
                assert!(
                    split.outer * split.inner <= total,
                    "{total} threads / {jobs} jobs -> {split:?}"
                );
                // Utilization is maximal: no legal outer does better.
                let best = (1..=total.min(jobs.max(1)))
                    .map(|o| o * (total / o))
                    .max()
                    .unwrap();
                assert_eq!(
                    split.outer * split.inner,
                    best,
                    "{total} threads / {jobs} jobs -> {split:?} wastes budget"
                );
            }
        }
    }

    #[test]
    fn split_workers_pins_the_pool_size() {
        let budget = ThreadBudget::resolve(8);
        assert_eq!(budget.split_workers(4), BudgetSplit { outer: 4, inner: 2 });
        // The pool is clamped by the budget, never past it.
        assert_eq!(
            ThreadBudget::resolve(2).split_workers(4),
            BudgetSplit { outer: 2, inner: 1 }
        );
        // An indivisible remainder strands threads rather than breaking
        // the invariant: 3 workers over 8 threads get 2 each.
        assert_eq!(budget.split_workers(3), BudgetSplit { outer: 3, inner: 2 });
        // Zero workers is promoted to one (all threads inner).
        assert_eq!(budget.split_workers(0), BudgetSplit { outer: 1, inner: 8 });
        for total in 1..=16 {
            for workers in 0..=20 {
                let split = ThreadBudget::resolve(total).split_workers(workers);
                assert!(split.outer >= 1 && split.inner >= 1);
                assert!(split.outer * split.inner <= total);
            }
        }
    }

    #[test]
    fn split_saturates_sensibly() {
        let budget = ThreadBudget::resolve(8);
        // Few jobs: all threads go inner.
        assert_eq!(budget.split(1), BudgetSplit { outer: 1, inner: 8 });
        assert_eq!(budget.split(2), BudgetSplit { outer: 2, inner: 4 });
        // Many jobs: all threads go outer.
        assert_eq!(budget.split(8), BudgetSplit { outer: 8, inner: 1 });
        assert_eq!(budget.split(100), BudgetSplit { outer: 8, inner: 1 });
        // Indivisible cases maximize utilization instead of stranding
        // budget: 6 threads over 4 jobs run 3 x 2 (6 used), not 4 x 1.
        assert_eq!(
            ThreadBudget::resolve(6).split(4),
            BudgetSplit { outer: 3, inner: 2 }
        );
        assert_eq!(
            ThreadBudget::resolve(7).split(2),
            BudgetSplit { outer: 1, inner: 7 }
        );
        // Zero means "the machine"; never zero workers.
        assert!(ThreadBudget::resolve(0).total() >= 1);
    }
}
