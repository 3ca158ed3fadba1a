//! Deterministic parallel execution for embarrassingly-parallel loops.
//!
//! The workspace builds offline, so it cannot depend on rayon; this
//! crate provides the small subset the simulation hot paths need:
//!
//! * [`parallel_fold_with`] — run `n` independent index-addressed
//!   tasks across a pool of scoped worker threads. Scheduling is
//!   *self-balancing* (workers pull the next task index from a shared
//!   atomic counter, so long tasks do not stall short ones), but results
//!   are always folded **in task-index order**, so callers observe the
//!   same output for any worker count; [`parallel_map_with`] collects
//!   them into a `Vec`.
//! * [`chunks`] — split a trial count into fixed-size chunks whose
//!   boundaries depend only on the total and the chunk length, never on
//!   the worker count. Combined with a per-chunk derived RNG seed this
//!   is what makes the Monte-Carlo drivers bit-identical regardless of
//!   parallelism.
//! * a process-wide worker-count configuration ([`set_threads`] /
//!   [`threads`]) fed by the repro binaries' `--threads` flag or the
//!   `RTM_THREADS` environment variable, defaulting to the machine's
//!   available parallelism.
//!
//! # Determinism contract
//!
//! `parallel_fold_with` hands result `i` to the fold only after every
//! result below `i`, and `parallel_map_with` guarantees that `out[i]`
//! is `f(i)` — the worker count only affects wall-clock time. Any
//! order-sensitive merge (e.g. floating-point Welford merges) is
//! therefore identical for every worker count.
//!
//! # Examples
//!
//! ```
//! let squares = rtm_par::parallel_map_with(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one leaf
// module, the SPSC ring (`spsc`), whose soundness argument lives next
// to the code. Everything else in the workspace keeps
// `forbid(unsafe_code)` and reuses this primitive.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod spsc;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide configured worker count; 0 means "auto" (resolve from
/// `RTM_THREADS` or the machine's available parallelism).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide worker count used by [`threads`]; 0 restores
/// the automatic default. Called by the repro binaries' `--threads`
/// flag before any simulation starts.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// The raw configured value (0 = auto), without resolution.
pub fn configured_threads() -> usize {
    CONFIGURED.load(Ordering::Relaxed)
}

/// The `RTM_THREADS` environment override, read once per process.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RTM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// The effective worker count: the value set with [`set_threads`] if
/// non-zero, else `RTM_THREADS` if set and non-zero, else
/// [`available_parallelism`]. Always at least 1.
pub fn threads() -> usize {
    let configured = configured_threads();
    let resolved = if configured > 0 {
        configured
    } else {
        match env_threads() {
            0 => available_parallelism(),
            n => n,
        }
    };
    resolved.max(1)
}

/// One fixed-size slice of a trial count produced by [`chunks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk position, `0..chunk_count` — also the RNG stream label the
    /// Monte-Carlo drivers derive per-chunk seeds from.
    pub index: usize,
    /// First trial covered (inclusive).
    pub start: u64,
    /// Number of trials in this chunk (the final chunk may be short).
    pub len: u64,
}

/// Splits `total` work items into chunks of at most `chunk_len` items.
///
/// The split depends only on `(total, chunk_len)`, never on the worker
/// count, so per-chunk RNG streams stay stable across machines and
/// `--threads` settings. The last chunk holds the remainder.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
///
/// # Examples
///
/// ```
/// let plan = rtm_par::chunks(10, 4);
/// assert_eq!(plan.len(), 3);
/// assert_eq!((plan[2].start, plan[2].len), (8, 2));
/// ```
pub fn chunks(total: u64, chunk_len: u64) -> Vec<Chunk> {
    assert!(chunk_len > 0, "chunk length must be positive");
    let n = total.div_ceil(chunk_len) as usize;
    (0..n)
        .map(|index| {
            let start = index as u64 * chunk_len;
            Chunk {
                index,
                start,
                len: chunk_len.min(total - start),
            }
        })
        .collect()
}

/// Runs `tasks` independent jobs on `workers` scoped threads (0 =
/// process default), returning `vec![f(0), f(1), …]`: the in-order
/// collect of [`parallel_fold_with`].
pub fn parallel_map_with<T, F>(workers: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_fold_with(workers, tasks, f, Vec::with_capacity(tasks), |out, _, v| {
        out.push(v)
    })
}

/// Runs `tasks` independent jobs and folds their results into an
/// accumulator **in task-index order**, without ever holding more than
/// the out-of-order completion window in memory.
///
/// Each result is handed to `fold(&mut acc, index, result)` on the
/// calling thread as soon as every lower-indexed result has been
/// folded. The fold order — and therefore any order-sensitive merge,
/// metrics recording or last-writer-wins gauge — is identical for every
/// worker count, and a sweep never holds O(cells) results.
///
/// Memory: the calling thread holds at most the results that completed
/// ahead of the next index to fold (bounded in practice by the worker
/// count times scheduling skew), not all `tasks` of them.
///
/// A panicking task propagates its panic to the caller after the
/// remaining workers drain; the accumulator is dropped in that case.
pub fn parallel_fold_with<T, A, F, G>(workers: usize, tasks: usize, f: F, init: A, mut fold: G) -> A
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(&mut A, usize, T),
{
    let workers = if workers == 0 { threads() } else { workers };
    let workers = workers.min(tasks).max(1);
    let mut acc = init;
    if workers == 1 || tasks <= 1 {
        for i in 0..tasks {
            let v = f(i);
            fold(&mut acc, i, v);
        }
        return acc;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        // A send only fails when the receiver is gone,
                        // which means the main thread is unwinding; stop
                        // producing.
                        if tx.send((i, f(i))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        // In-order streaming merge on the calling thread: buffer only
        // results that completed ahead of the next index to fold.
        let mut pending: std::collections::BTreeMap<usize, T> = std::collections::BTreeMap::new();
        let mut next_fold = 0usize;
        while next_fold < tasks {
            let Ok((i, v)) = rx.recv() else {
                // All senders hung up early: a worker panicked mid-task.
                break;
            };
            pending.insert(i, v);
            while let Some(v) = pending.remove(&next_fold) {
                fold(&mut acc, next_fold, v);
                next_fold += 1;
            }
        }
        for h in handles {
            if let Err(e) = h.join() {
                panic = Some(e);
            }
        }
    });
    if let Some(e) = panic {
        std::panic::resume_unwind(e);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_task_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = parallel_map_with(workers, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_yield_empty_vec() {
        let out: Vec<usize> = parallel_map_with(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = parallel_map_with(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let out = parallel_map_with(7, 500, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn worker_panic_propagates() {
        let _ = parallel_map_with(4, 16, |i| {
            if i == 9 {
                panic!("task boom");
            }
            i
        });
    }

    #[test]
    fn fold_order_is_task_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let order = parallel_fold_with(
                workers,
                100,
                |i| i * 3,
                Vec::new(),
                |acc: &mut Vec<(usize, usize)>, i, v| acc.push((i, v)),
            );
            let want: Vec<(usize, usize)> = (0..100).map(|i| (i, i * 3)).collect();
            assert_eq!(order, want, "workers={workers}");
        }
    }

    #[test]
    fn fold_matches_map_then_merge() {
        // Order-sensitive floating-point sum: streaming fold must equal
        // the collect-then-iterate merge bit-for-bit.
        let collected: f64 = parallel_map_with(8, 500, |i| (i as f64).sqrt())
            .into_iter()
            .fold(0.0, |a, b| a + b);
        let streamed = parallel_fold_with(
            8,
            500,
            |i| (i as f64).sqrt(),
            0.0f64,
            |acc, _i, v| *acc += v,
        );
        assert_eq!(collected.to_bits(), streamed.to_bits());
    }

    #[test]
    fn fold_zero_tasks_returns_init() {
        let acc = parallel_fold_with(4, 0, |i| i, 42usize, |a, _i, v| *a += v);
        assert_eq!(acc, 42);
    }

    #[test]
    #[should_panic(expected = "fold boom")]
    fn fold_worker_panic_propagates() {
        let _ = parallel_fold_with(
            4,
            16,
            |i| {
                if i == 9 {
                    panic!("fold boom");
                }
                i
            },
            0usize,
            |a, _i, v| *a += v,
        );
    }

    #[test]
    fn chunks_cover_total_without_overlap() {
        let plan = chunks(1_000_003, 4096);
        assert_eq!(plan.iter().map(|c| c.len).sum::<u64>(), 1_000_003);
        for w in plan.windows(2) {
            assert_eq!(w[0].start + w[0].len, w[1].start);
            assert_eq!(w[0].index + 1, w[1].index);
        }
        assert_eq!(plan[0].start, 0);
    }

    #[test]
    fn chunks_edge_cases() {
        assert!(chunks(0, 8).is_empty());
        let single = chunks(5, 8);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].len, 5);
        let exact = chunks(16, 8);
        assert_eq!(exact.len(), 2);
        assert_eq!(exact[1].len, 8);
    }

    #[test]
    #[should_panic]
    fn zero_chunk_len_rejected() {
        let _ = chunks(10, 0);
    }

    #[test]
    fn set_threads_round_trips_and_resolves() {
        // Other tests never rely on the configured default, so briefly
        // flipping the global here cannot race with them.
        set_threads(3);
        assert_eq!(configured_threads(), 3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert_eq!(configured_threads(), 0);
        assert!(threads() >= 1);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }
}
