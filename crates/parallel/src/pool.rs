//! A small persistent thread pool for long-lived experiment drivers.
//!
//! The free functions in the crate root spawn scoped threads per call,
//! which is fine for coarse kernels (APSP over thousands of sources) but
//! wasteful when a driver issues many tiny parallel sections (e.g. the
//! best-response dynamics loop certifies every intermediate network).
//! [`ThreadPool`] keeps workers parked between submissions.
//!
//! The pool intentionally exposes only a *blocking* `run` API: submit a
//! job set, wait for completion. The callers in this workspace never need
//! futures or detached tasks, and a blocking API keeps lifetimes simple.
//!
//! # Panic policy
//!
//! Every job runs under `catch_unwind`. A panicking job decrements
//! `pending` like any other (so [`ThreadPool::wait`] can never block
//! forever on a dead job), its payload is recorded, and the *first*
//! recorded panic is re-raised on the caller of `wait()` once the batch
//! has drained. The pool itself stays usable afterwards.

use crate::{fault, PanicSlot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A persistent pool of worker threads executing closures of type
/// `Box<dyn FnOnce() + Send>`.
pub struct ThreadPool {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

struct Inner {
    queue: Mutex<Queue>,
    cond: Condvar,
    pending: AtomicUsize,
    done_mutex: Mutex<()>,
    done_cond: Condvar,
    panic_slot: PanicSlot,
}

struct Queue {
    jobs: std::collections::VecDeque<Job>,
    shutdown: bool,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

impl ThreadPool {
    /// Create a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                jobs: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            pending: AtomicUsize::new(0),
            done_mutex: Mutex::new(()),
            done_cond: Condvar::new(),
            panic_slot: PanicSlot::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Self { inner, workers }
    }

    /// Submit a job. The job runs on some worker at an unspecified time.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.inner.pending.fetch_add(1, Ordering::SeqCst);
        {
            let mut q = self.inner.queue.lock().expect("pool queue poisoned");
            q.jobs.push_back(Box::new(f));
        }
        self.inner.cond.notify_one();
    }

    /// Block until every submitted job has finished.
    ///
    /// If any job of the batch panicked, the first recorded panic is
    /// re-raised here after the batch has fully drained; the pool
    /// remains usable for subsequent batches.
    pub fn wait(&self) {
        {
            let mut guard = self.inner.done_mutex.lock().expect("pool mutex poisoned");
            while self.inner.pending.load(Ordering::SeqCst) != 0 {
                guard = self
                    .inner
                    .done_cond
                    .wait(guard)
                    .expect("pool mutex poisoned");
            }
        }
        self.inner.panic_slot.propagate();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.inner.cond.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = inner.cond.wait(q).expect("pool queue poisoned");
            }
        };
        // injection point *before* the job is invoked: an injected fault
        // here is absorbed and the job still runs, exercising the
        // catch/decrement path without losing work
        let _ = catch_unwind(fault::fault_point);
        gncg_trace::incr(gncg_trace::Counter::PoolJobs);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            if !fault::is_injected(&*payload) {
                inner.panic_slot.record(payload);
            }
        }
        // the pool's threads outlive any scope, so counters recorded by
        // this job must merge before the submitter can observe wait();
        // flushing ahead of the decrement guarantees that ordering
        gncg_trace::flush_thread();
        // the decrement runs regardless of how the job ended — this is
        // the invariant that keeps `wait()` from blocking forever
        if inner.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = inner.done_mutex.lock().expect("pool mutex poisoned");
            inner.done_cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn wait_with_no_jobs_returns() {
        let pool = ThreadPool::new(2);
        pool.wait();
    }

    #[test]
    fn reusable_across_batches() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for batch in 0..5 {
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait();
            assert_eq!(counter.load(Ordering::Relaxed), (batch + 1) * 100);
        }
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(2, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panicking_job_does_not_deadlock_wait_and_is_surfaced() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                if i == 50 {
                    panic!("job boom");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // regression: this used to block forever (the panicking job
        // skipped the `pending` decrement); now it must return and
        // re-raise the job's panic
        let r = catch_unwind(AssertUnwindSafe(|| pool.wait()));
        let payload = r.expect_err("panic must surface at wait()");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("job boom"));
        assert_eq!(counter.load(Ordering::Relaxed), 99);

        // the pool stays usable after a panicked batch
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 119);
    }

    #[test]
    fn only_first_panic_is_kept_per_batch() {
        let pool = ThreadPool::new(2);
        for _ in 0..10 {
            pool.submit(|| panic!("many booms"));
        }
        let r = catch_unwind(AssertUnwindSafe(|| pool.wait()));
        assert!(r.is_err());
        // next batch starts clean
        pool.submit(|| {});
        pool.wait();
    }

    #[test]
    fn injected_faults_never_lose_jobs() {
        let _guard = crate::fault::test_lock();
        let before = crate::fault::injection_probability();
        crate::fault::set_injection_probability(1.0);
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        crate::fault::set_injection_probability(before);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }
}
