//! The explorer's worker pool: helper threads spawned once per search and
//! parked between jobs.
//!
//! The coordinating thread posts a job to each helper it needs, does its
//! own share of the work, then [`join`](Pool::join)s: it waits until every
//! posted job is done and takes the results. A helper runs each job
//! under `catch_unwind` and parks its panic payload in the pool, and
//! `join` resumes that payload on the coordinator, so a panic anywhere
//! ends the search with the panic's own message. The coordinator holds a
//! [`Closer`] for as long as the helpers live: dropping it, on return or
//! while unwinding, tells every helper to exit once its current job is
//! done, so the enclosing `std::thread::scope` can always join them —
//! a parked helper that nobody releases would hang the scope instead.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A pool of `helpers` mailboxes, each served by one helper thread
/// running [`serve`](Pool::serve), for jobs `J` with results `R`.
pub(crate) struct Pool<J, R> {
    state: Mutex<State<J, R>>,
    /// One condition per helper, signalled when it gets a job or the
    /// pool closes.
    wake: Vec<Condvar>,
    /// Signalled when the last busy helper finishes.
    done: Condvar,
}

struct State<J, R> {
    /// Posted jobs not yet taken, one mailbox per helper.
    jobs: Vec<Option<J>>,
    /// Finished jobs' results not yet joined, one per helper.
    results: Vec<Option<R>>,
    /// Posted jobs whose helper has not finished them.
    busy: usize,
    /// The first panic payload of a helper's job since the last join.
    panic: Option<Box<dyn Any + Send>>,
    closed: bool,
}

impl<J, R> Pool<J, R> {
    /// A pool for `helpers` helper threads; spawns nothing.
    pub fn new(helpers: usize) -> Self {
        Pool {
            state: Mutex::new(State {
                jobs: (0..helpers).map(|_| None).collect(),
                results: (0..helpers).map(|_| None).collect(),
                busy: 0,
                panic: None,
                closed: false,
            }),
            wake: (0..helpers).map(|_| Condvar::new()).collect(),
            done: Condvar::new(),
        }
    }

    /// The number of helper mailboxes.
    pub fn helpers(&self) -> usize {
        self.wake.len()
    }

    /// The state, whether or not a thread panicked while holding it: no
    /// job runs under the lock, so the state is always consistent.
    fn lock(&self) -> MutexGuard<'_, State<J, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `job` to helper `helper`, which starts it at once.
    pub fn post(&self, helper: usize, job: J) {
        let mut state = self.lock();
        debug_assert!(state.jobs[helper].is_none() && state.results[helper].is_none());
        state.jobs[helper] = Some(job);
        state.busy += 1;
        drop(state);
        self.wake[helper].notify_one();
    }

    /// Waits until every posted job is done and passes each result to
    /// `each`, in helper order.
    ///
    /// # Panics
    ///
    /// Resumes the first panic a posted job raised.
    pub fn join(&self, mut each: impl FnMut(R)) {
        let mut state = self.lock();
        while state.busy > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
        for result in &mut state.results {
            if let Some(result) = result.take() {
                each(result);
            }
        }
    }

    /// Helper `helper`'s loop: runs `work` on each job posted to it until
    /// the pool closes.
    pub fn serve(&self, helper: usize, mut work: impl FnMut(J) -> R) {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs[helper].take() {
                drop(state);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(job)));
                state = self.lock();
                match outcome {
                    Ok(result) => state.results[helper] = Some(result),
                    Err(payload) => {
                        state.panic.get_or_insert(payload);
                    }
                }
                state.busy -= 1;
                if state.busy == 0 {
                    self.done.notify_one();
                }
            } else if state.closed {
                return;
            } else {
                state = self.wake[helper]
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// A guard that closes the pool when dropped.
    pub fn closer(&self) -> Closer<'_, J, R> {
        Closer(self)
    }
}

/// Closes its [`Pool`] when dropped: every helper exits once its current
/// job, if any, is done.
pub(crate) struct Closer<'p, J, R>(&'p Pool<J, R>);

impl<J, R> Drop for Closer<'_, J, R> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        for wake in &self.0.wake {
            wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_run_on_their_helpers_and_join_in_helper_order() {
        let pool: Pool<u64, (usize, u64)> = Pool::new(3);
        std::thread::scope(|scope| {
            for helper in 0..pool.helpers() {
                let pool = &pool;
                scope.spawn(move || pool.serve(helper, |job| (helper, job * 10)));
            }
            let _closer = pool.closer();
            for round in 0..50u64 {
                for helper in 0..3 {
                    if (round + helper as u64).is_multiple_of(2) {
                        pool.post(helper, round);
                    }
                }
                let mut seen = Vec::new();
                pool.join(|result| seen.push(result));
                let want: Vec<_> = (0..3)
                    .filter(|&h| (round + h as u64).is_multiple_of(2))
                    .map(|h| (h, round * 10))
                    .collect();
                assert_eq!(seen, want);
            }
        });
    }

    #[test]
    fn a_helper_panic_resumes_on_join_and_the_scope_still_ends() {
        let pool: Pool<u32, u32> = Pool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for helper in 0..pool.helpers() {
                    let pool = &pool;
                    scope.spawn(move || {
                        pool.serve(helper, |job| {
                            assert!(job != 7, "job {job} refused");
                            job
                        });
                    });
                }
                let _closer = pool.closer();
                pool.post(0, 1);
                pool.post(1, 7);
                pool.join(|_| {});
            });
        }));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 7 refused");
    }

    #[test]
    fn a_coordinator_panic_releases_busy_and_parked_helpers() {
        let pool: Pool<u32, u32> = Pool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for helper in 0..pool.helpers() {
                    let pool = &pool;
                    scope.spawn(move || pool.serve(helper, |job| job));
                }
                let _closer = pool.closer();
                pool.post(0, 3);
                panic!("coordinator gave up");
            });
        }));
        let payload = caught.expect_err("the coordinator's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("coordinator gave up")
        );
    }
}
