//! A persistent worker pool and a spin barrier for the sharded engine.
//!
//! The sharded delta-cycle engine (paper §4.1: blocks separated by
//! *registered* boundaries may be evaluated once per system cycle in any
//! order) runs one shard per worker and synchronises the workers at
//! system-cycle and exchange-round barriers. The barriers make the tasks
//! *interlocking*: every task of a dispatch must run on its own thread
//! concurrently, so spawning per call (as `std::thread::scope` maps do)
//! would pay thread start-up on every simulation period. [`ThreadPool`]
//! keeps the workers alive across dispatches; [`SpinBarrier`] keeps the
//! per-round synchronisation cost at a few cache-line round trips.

// The lifetime-erasing transmute in `scope` is the one audited unsafe
// block of the workspace; everything it touches is joined before the
// borrow ends.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// A boxed task with a caller-chosen (non-`'static`) borrow lifetime.
pub type ScopedTask<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The shared worker-count knob for every parallel sweep in the
/// workspace (`par_map` in the root crate).
///
/// Resolution order: the `SOC_SIM_THREADS` environment variable (a positive
/// integer; an unparsable or zero value is ignored with a once-per-process
/// stderr warning naming it); otherwise the host's
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn worker_count() -> usize {
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

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Worker {
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of worker threads for interlocking task sets.
///
/// Unlike a work-stealing pool, [`run`](Self::run) pins task `i` to
/// worker `i`: the sharded engine's tasks block on a shared barrier, so
/// two tasks multiplexed onto one thread would deadlock. The pool
/// outlives many dispatches; workers park on their channel between
/// dispatches.
pub struct ThreadPool {
    workers: Vec<Worker>,
}

impl ThreadPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let workers = (0..threads.max(1))
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("seqsim-shard-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .unwrap_or_else(|e| panic!("spawn pool worker: {e}"));
                Worker {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        ThreadPool { workers }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run `tasks` to completion, task `i` on worker `i`, blocking the
    /// caller until every task has finished. Tasks may borrow from the
    /// caller's stack: the blocking collect below is what makes the
    /// lifetime erasure sound — no borrowed data outlives this call.
    ///
    /// Panics inside a task are caught on the worker (keeping the worker
    /// alive), collected, and the first payload is re-raised here after
    /// *all* tasks have completed.
    ///
    /// # Panics
    /// Panics when `tasks.len()` exceeds [`threads`](Self::threads), and
    /// re-raises the first task panic.
    pub fn run<'a>(&self, tasks: Vec<ScopedTask<'a>>) {
        assert!(
            tasks.len() <= self.workers.len(),
            "{} interlocking tasks need {} workers, pool has {}",
            tasks.len(),
            tasks.len(),
            self.workers.len()
        );
        let n = tasks.len();
        let (done_tx, done_rx) = mpsc::channel::<Option<Box<dyn std::any::Any + Send>>>();
        for (i, task) in tasks.into_iter().enumerate() {
            // SAFETY: the worker runs the task to completion and then
            // sends on `done_tx`; this function blocks until all `n`
            // completions arrive, so every borrow in `task` is live for
            // the task's whole execution. Trait-object boxes with
            // different lifetime bounds share one layout.
            let task: Job = unsafe { std::mem::transmute::<ScopedTask<'a>, Job>(task) };
            let tx = done_tx.clone();
            let sent = self.workers[i].tx.send(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                // The receiver only disappears if the dispatching
                // thread itself panicked; nothing left to report to.
                let _ = tx.send(result.err());
            }));
            // A worker loop only exits when its channel is closed, which
            // happens in Drop; a send can therefore not fail here.
            if sent.is_err() {
                unreachable!("pool worker {i} hung up before Drop");
            }
        }
        drop(done_tx);
        let mut first_panic = None;
        for _ in 0..n {
            // Every dispatched job sends exactly one completion (panics
            // are caught inside the job), so recv cannot fail before all
            // n completions arrive.
            let Ok(outcome) = done_rx.recv() else {
                unreachable!("pool worker dropped its completion channel");
            };
            if let Some(p) = outcome {
                first_panic.get_or_insert(p);
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops.
        for w in &mut self.workers {
            let (dead_tx, _) = mpsc::channel();
            w.tx = dead_tx;
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Marker error: the barrier was poisoned by a failing party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

/// A sense-reversing spin barrier for a fixed party count.
///
/// Parties spin briefly (the exchange rounds between shards settle in
/// well under a scheduling quantum on dedicated cores) and then yield, so
/// an oversubscribed host degrades to cooperative scheduling instead of
/// livelock. A party that panics while others wait must call
/// [`poison`](Self::poison) so the waiters panic out instead of spinning
/// forever.
pub struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    parties: usize,
    poisoned: AtomicBool,
}

/// Spins before each `yield_now` once the barrier looks slow.
const SPINS_BEFORE_YIELD: u32 = 1 << 12;

impl SpinBarrier {
    /// A barrier for `parties` participants (at least one).
    pub fn new(parties: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parties: parties.max(1),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The configured party count.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Block until all parties have arrived. Returns `true` on exactly
    /// one party per generation (the "leader", the last to arrive).
    ///
    /// # Panics
    /// Panics when the barrier is [poisoned](Self::poison). Use
    /// [`try_wait`](Self::try_wait) to observe poisoning as a value.
    pub fn wait(&self) -> bool {
        match self.try_wait() {
            Ok(leader) => leader,
            Err(BarrierPoisoned) => panic!("barrier poisoned"),
        }
    }

    /// [`wait`](Self::wait) that reports poisoning instead of panicking:
    /// returns `Err(BarrierPoisoned)` when the barrier was poisoned
    /// before or during the wait, letting interlocked workers unwind
    /// cooperatively after a peer's failure.
    pub fn try_wait(&self) -> Result<bool, BarrierPoisoned> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(BarrierPoisoned);
        }
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return Ok(true);
        }
        let mut spins: u32 = 0;
        while self.generation.load(Ordering::Acquire) == gen {
            if self.poisoned.load(Ordering::Relaxed) {
                return Err(BarrierPoisoned);
            }
            spins = spins.wrapping_add(1);
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Ok(false)
    }

    /// Mark the barrier broken; current and future waiters panic.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn pool_runs_borrowing_tasks_to_completion() {
        let pool = ThreadPool::new(4);
        let mut outputs = vec![0u64; 4];
        {
            let tasks: Vec<ScopedTask<'_>> = outputs
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let t: ScopedTask<'_> = Box::new(move || *slot = (i as u64 + 1) * 10);
                    t
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(outputs, vec![10, 20, 30, 40]);
    }

    #[test]
    fn pool_is_reusable_across_dispatches() {
        let pool = ThreadPool::new(2);
        let hits = AtomicU64::new(0);
        for _ in 0..50 {
            let tasks: Vec<ScopedTask<'_>> = (0..2)
                .map(|_| {
                    let t: ScopedTask<'_> = Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    t
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn interlocking_tasks_meet_at_the_barrier() {
        let pool = ThreadPool::new(3);
        let barrier = SpinBarrier::new(3);
        let before = AtomicU64::new(0);
        let after_ok = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..3)
            .map(|_| {
                let t: ScopedTask<'_> = Box::new(|| {
                    before.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    // Everyone arrived before anyone proceeds.
                    if before.load(Ordering::SeqCst) == 3 {
                        after_ok.fetch_add(1, Ordering::SeqCst);
                    }
                });
                t
            })
            .collect();
        pool.run(tasks);
        assert_eq!(after_ok.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn barrier_elects_one_leader_per_generation() {
        let pool = ThreadPool::new(4);
        let barrier = SpinBarrier::new(4);
        let leaders = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..4)
            .map(|_| {
                let t: ScopedTask<'_> = Box::new(|| {
                    for _ in 0..100 {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
                t
            })
            .collect();
        pool.run(tasks);
        assert_eq!(leaders.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> =
                vec![Box::new(|| panic!("shard exploded")), Box::new(|| {})];
            pool.run(tasks);
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().expect("payload preserved");
        assert_eq!(*msg, "shard exploded");
        // Workers caught the panic and are still serviceable.
        let ok = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..2)
            .map(|_| {
                let t: ScopedTask<'_> = Box::new(|| {
                    ok.fetch_add(1, Ordering::Relaxed);
                });
                t
            })
            .collect();
        pool.run(tasks);
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn poisoned_barrier_releases_waiters_by_panicking() {
        let pool = ThreadPool::new(2);
        let barrier = Arc::new(SpinBarrier::new(2));
        let r = catch_unwind(AssertUnwindSafe(|| {
            let b1 = barrier.clone();
            let b2 = barrier.clone();
            let tasks: Vec<ScopedTask<'_>> = vec![
                Box::new(move || {
                    // Simulates a shard failing before reaching the
                    // barrier: poison, then panic.
                    b1.poison();
                    panic!("shard died");
                }),
                Box::new(move || {
                    b2.wait();
                }),
            ];
            pool.run(tasks);
        }));
        assert!(r.is_err(), "one of the panics must surface");
    }

    #[test]
    #[should_panic(expected = "interlocking tasks")]
    fn oversized_dispatch_is_rejected() {
        let pool = ThreadPool::new(1);
        let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| {}), Box::new(|| {})];
        pool.run(tasks);
    }
}
