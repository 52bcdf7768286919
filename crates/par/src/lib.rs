//! Minimal scoped-thread parallel primitives — zero external dependencies.
//!
//! The workspace parallelises across queries and shards, never inside one
//! query (see DESIGN.md §9): `msq_core::BatchEngine` batches and sharded
//! skyline jobs both reduce to the primitives here, built directly on
//! [`std::thread::scope`]:
//!
//! * [`par_map`] — fan-out over a shared slice, results merged by index;
//! * [`par_map_indexed`] — dynamically claimed fan-out over an index
//!   range, results merged by index;
//! * [`effective_workers`] — the worker-count clamp both apply.
//!
//! **Determinism contract**: every primitive returns results ordered by
//! item index, never by completion order. Scheduling decides only *when*
//! work runs, not *what* the merged output is; callers whose per-item work
//! is a pure function of the item therefore get byte-identical results at
//! every worker count. **No locks**: shared state is either immutable, an
//! atomic counter, or thread-local-and-merged — the xtask `hot-lock` lint
//! enforces the same rule on the query path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Clamps a requested worker count to at least one.
pub fn effective_workers(requested: usize) -> usize {
    requested.max(1)
}

/// Applies `f` to every element of a shared slice across `workers`
/// scoped threads, returning the results **in item order**.
///
/// Built on [`par_map_indexed`]'s dynamic index claiming: items are
/// borrowed immutably, so jobs that carry references (like the sharded
/// skyline backend's per-shard jobs) fan out without cloning. The same
/// determinism contract applies — a pure `f` yields byte-identical
/// results at every worker count.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed(items.len(), workers, |i| f(i, &items[i]))
}

/// Applies `f` to every index in `0..count` across `workers` scoped
/// threads, returning the results **in index order**.
///
/// Indices are claimed dynamically from a shared atomic counter (natural
/// load balancing for uneven work). The claim order affects only which
/// thread computes which index; the merged output is index-ordered either
/// way, so a pure `f` yields identical results at every worker count.
pub fn par_map_indexed<R, F>(count: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let w = effective_workers(workers).min(count.max(1));
    if w <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..w)
            .map(|_| {
                let f = &f;
                let next = &next;
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map_indexed worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_borrows_without_cloning_and_keeps_order() {
        let items: Vec<String> = (0..23).map(|i| format!("item-{i}")).collect();
        let seq: Vec<usize> = items.iter().map(|s| s.len()).collect();
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                par_map(&items, workers, |_, s| s.len()),
                seq,
                "workers={workers}"
            );
        }
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |_, v| *v).is_empty());
    }

    #[test]
    fn par_map_indexed_matches_sequential_at_every_width() {
        let seq: Vec<usize> = (0..33).map(|i| i * i).collect();
        for workers in [1, 2, 5, 16] {
            assert_eq!(
                par_map_indexed(33, workers, |i| i * i),
                seq,
                "workers={workers}"
            );
        }
        let none: Vec<usize> = par_map_indexed(0, 4, |i| i);
        assert!(none.is_empty());
    }
}
