//! Minimal parallel map over independent work items.
//!
//! The figure-reproducing sweeps run one engine per sweep point; the
//! points are embarrassingly parallel. This is a dependency-free
//! `std::thread::scope` map that bounds the worker count by the
//! `SOC_SIM_THREADS` environment variable when set, the available
//! parallelism otherwise.
//!
//! Work is claimed in *chunks* through a single atomic index — the old
//! per-item `Mutex<Option<T>>` input and output slots (two lock round
//! trips per item) are gone. Each chunk pairs a batch of inputs with the
//! matching disjoint slice of output slots behind one `Mutex` that its
//! claiming worker locks exactly once. Panics inside `f` are caught per
//! item: every other item still completes (no lock is ever poisoned, no
//! chunk is stranded), and the first panic is re-raised on the caller's
//! thread with a payload naming the item index and the original message
//! (a bare re-raise of the original payload loses *which* sweep point
//! failed once the closure's context is gone).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count of every parallel sweep in the workspace.
///
/// Resolution order: the `SOC_SIM_THREADS` environment variable (a positive
/// integer; an unparsable or zero value is ignored with a once-per-process
/// stderr warning naming it); otherwise the host's
/// [`std::thread::available_parallelism`]. Always at least 1.
fn worker_count() -> usize {
    if let Ok(v) = std::env::var("SOC_SIM_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                // Warn once so a misconfigured deployment (e.g.
                // SOC_SIM_THREADS=0 or a typo) is visible instead of
                // silently falling back to all cores.
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring SOC_SIM_THREADS={v:?}: \
                         not a positive integer; using available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Apply `f` to every item, in parallel, preserving input order in the
/// result. A panic in `f` propagates to the caller after all workers
/// have drained the remaining chunks; the re-raised payload is a
/// `String` of the form `par_map item <i> panicked: <message>`.
pub fn par_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let workers = worker_count();
    // ~4 claims per worker: coarse enough that claiming is a rare atomic
    // op, fine enough to balance uneven item costs.
    let chunk = items.len().div_ceil(workers * 4).max(1);
    par_map_chunked(items, chunk, f)
}

/// [`par_map`] with an explicit chunk size (pinned by tests that need a
/// deterministic item→chunk assignment).
pub(crate) fn par_map_chunked<T: Send, U: Send>(
    items: Vec<T>,
    chunk: usize,
    f: impl Fn(T) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(chunk > 0, "chunk size must be positive");

    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    // Pair each input batch with its disjoint output slice up front.
    type Task<'a, T, U> = Mutex<(Vec<T>, &'a mut [Option<U>])>;
    let tasks: Vec<Task<'_, T, U>> = {
        let mut it = items.into_iter();
        let mut batches = Vec::with_capacity(n.div_ceil(chunk));
        loop {
            let batch: Vec<T> = it.by_ref().take(chunk).collect();
            if batch.is_empty() {
                break;
            }
            batches.push(batch);
        }
        batches
            .into_iter()
            .zip(out.chunks_mut(chunk))
            .map(Mutex::new)
            .collect()
    };

    let workers = worker_count().min(tasks.len());
    let next = AtomicUsize::new(0);
    // First panic from `f` as (item index, message); caught per item so
    // the claiming loop keeps draining — one bad item never strands the
    // rest of the sweep.
    let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= tasks.len() {
                        break;
                    }
                    // Uncontended by construction: the atomic index hands
                    // each chunk to exactly one worker.
                    let mut guard = tasks[k]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let (batch, slots) = &mut *guard;
                    for (off, (slot, item)) in
                        slots.iter_mut().zip(std::mem::take(batch)).enumerate()
                    {
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(v) => *slot = Some(v),
                            Err(p) => {
                                // `p.as_ref()`, not `&p`: a `&Box<dyn Any>`
                                // coerces to `&dyn Any` *about the Box*,
                                // and every downcast of that misses.
                                first_panic
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .get_or_insert((k * chunk + off, payload_message(p.as_ref())));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join()
                .unwrap_or_else(|_| unreachable!("worker threads catch item panics"));
        }
    });
    drop(tasks);
    if let Some((index, msg)) = first_panic
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        resume_unwind(Box::new(format!("par_map item {index} panicked: {msg}")));
    }
    out.into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every chunk was processed")))
        .collect()
}

/// Extract the human-readable message from a caught panic payload
/// (`panic!("...")` yields `&str`, `panic!("{x}")` yields `String`;
/// anything else is opaque).
fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn maps_in_order() {
        let out = par_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn empty_is_empty() {
        assert!(par_map(Vec::<u8>::new(), |x| x).is_empty());
    }

    #[test]
    fn odd_chunk_sizes_cover_all_items() {
        for chunk in [1, 3, 7, 64, 1000] {
            let out = par_map_chunked((0..50).collect::<Vec<i32>>(), chunk, |x| x + 1);
            assert_eq!(out, (1..51).collect::<Vec<i32>>(), "chunk {chunk}");
        }
    }

    #[test]
    fn panicking_item_propagates_without_poisoning_other_chunks() {
        let done = AtomicUsize::new(0);
        // Chunk size 1: the panicking item is alone in its chunk, so every
        // other item lives in an unrelated chunk and must still complete —
        // regardless of how many workers the host grants.
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_chunked((0..64).collect::<Vec<i32>>(), 1, |x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = result.expect_err("the item panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("composed String payload");
        assert_eq!(msg, "par_map item 13 panicked: boom at 13");
        // All 63 non-panicking items ran to completion.
        assert_eq!(done.load(Ordering::Relaxed), 63);
    }

    #[test]
    fn panic_message_names_the_item_even_for_str_payloads() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_chunked((0..8).collect::<Vec<i32>>(), 3, |x| {
                if x == 5 {
                    panic!("static payload");
                }
                x
            })
        }));
        let payload = result.expect_err("must propagate");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "par_map item 5 panicked: static payload");
    }
}
