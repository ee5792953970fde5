//! The ordered work pool: the one place simulation crates run compute on
//! more than one thread.
//!
//! A [`Pool`] of `n` threads runs jobs that a coordinator submits, and
//! hands their results back **in submission order**, whichever worker ran
//! which job and whenever it finished. That ordering is the whole
//! determinism contract: a client whose jobs touch only job-private state
//! and whose coordinator folds results in the order it submitted them gets
//! the same answer for any thread count. Two clients rely on it:
//!
//! * the chunked kernel ([`crate::kernel`]) runs one job per chunk and
//!   folds chunk outcomes in chunk order;
//! * the session pool (`psa-sessions`) runs one job per frame slice and
//!   commits pool-virtual time in dispatch order.
//!
//! The pool is scoped: [`Pool::scope`] spawns its workers inside
//! `std::thread::scope`, so no thread outlives the call and jobs may
//! borrow from the caller's stack. A pool of `n` threads is the calling
//! thread plus `n − 1` workers, all pulling jobs from one queue: while the
//! coordinator waits for a result it runs the oldest queued job itself
//! instead of sleeping. With one thread it spawns nothing and opens no
//! channel: each job runs inline, on the submitting thread, at
//! [`Queue::submit`]. A job that panics re-raises its panic on the
//! coordinator when its result is collected.
//!
//! This file is the one module of the simulation crates that starts
//! threads: clippy's `disallowed_methods` (the workspace `clippy.toml`)
//! refuses `thread::scope`/`thread::spawn` everywhere else.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// A fixed number of threads (at least one), the caller's included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` threads; `0` is taken as `1`.
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// A pool of as many threads as the host has cores, but no more than
    /// `limit`. The cores are counted once per process: the count reads
    /// the scheduler affinity and cgroup quota, which costs more than a
    /// small pool's whole set-up.
    pub fn host(limit: usize) -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Pool::new(cores.min(limit))
    }

    /// Threads jobs run on (`1` = inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every job through `work`; the results come back in `jobs`'
    /// order.
    pub fn map<J, R, W>(&self, jobs: impl IntoIterator<Item = J>, work: W) -> Vec<R>
    where
        J: Send,
        R: Send,
        W: Fn(J) -> R + Sync,
    {
        self.scope(work, |q| {
            for job in jobs {
                q.submit(job);
            }
            std::iter::from_fn(|| q.next_result()).collect()
        })
    }

    /// Open the pool for `body`: every job `body` submits runs through
    /// `work` on some thread, and [`Queue::next_result`] hands results back in
    /// submission order. Jobs `body` leaves uncollected may or may not run;
    /// their results are dropped, and every worker has exited before
    /// `scope` returns.
    pub fn scope<J, R, W, T>(&self, work: W, body: impl FnOnce(&mut Queue<'_, J, R>) -> T) -> T
    where
        J: Send,
        R: Send,
        W: Fn(J) -> R + Sync,
    {
        if self.threads == 1 {
            let lane = Lane::Inline(VecDeque::new());
            return body(&mut Queue { work: &work, lane, sent: 0, got: 0 });
        }
        let backlog = Backlog { jobs: Mutex::new((VecDeque::new(), true)), posted: Condvar::new() };
        let (done_tx, done) = mpsc::channel::<(u64, thread::Result<R>)>();
        #[expect(clippy::disallowed_methods, reason = "the ordered pool is where threads start")]
        thread::scope(|s| {
            for _ in 1..self.threads {
                let (backlog, done_tx, work) = (&backlog, done_tx.clone(), &work);
                s.spawn(move || {
                    while let Some((seq, job)) = backlog.take() {
                        if done_tx.send((seq, run(work, job))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);
            let lane = Lane::Threaded { backlog: &backlog, done, early: BTreeMap::new() };
            body(&mut Queue { work: &work, lane, sent: 0, got: 0 })
        })
    }
}

/// Run one job, catching its panic for the coordinator to re-raise.
fn run<J, R>(work: &(dyn Fn(J) -> R + Sync), job: J) -> thread::Result<R> {
    panic::catch_unwind(AssertUnwindSafe(|| work(job)))
}

/// Jobs no thread has taken yet, oldest first, and whether the queue is
/// still open.
struct Backlog<J> {
    jobs: Mutex<(VecDeque<(u64, J)>, bool)>,
    posted: Condvar,
}

impl<J> Backlog<J> {
    fn lock(&self) -> MutexGuard<'_, (VecDeque<(u64, J)>, bool)> {
        // No job runs under the lock, so a poisoned lock holds a whole queue.
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn post(&self, seq: u64, job: J) {
        self.lock().0.push_back((seq, job));
        self.posted.notify_one();
    }

    /// The oldest queued job, without waiting.
    fn try_take(&self) -> Option<(u64, J)> {
        self.lock().0.pop_front()
    }

    /// The oldest queued job, waiting for one; `None` once closed.
    fn take(&self) -> Option<(u64, J)> {
        let mut jobs = self.lock();
        loop {
            if !jobs.1 {
                return None;
            }
            if let Some(job) = jobs.0.pop_front() {
                return Some(job);
            }
            jobs = self.posted.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drop the jobs no thread has taken and release every worker.
    fn close(&self) {
        let dropped = {
            let mut jobs = self.lock();
            jobs.1 = false;
            std::mem::take(&mut jobs.0)
        };
        self.posted.notify_all();
        drop(dropped);
    }
}

/// The coordinator's handle on an open [`Pool`]: submit jobs, collect
/// results in submission order.
pub struct Queue<'a, J, R> {
    work: &'a (dyn Fn(J) -> R + Sync),
    lane: Lane<'a, J, R>,
    sent: u64,
    got: u64,
}

enum Lane<'a, J, R> {
    /// One thread: the job ran at submission; results wait here in order.
    Inline(VecDeque<R>),
    Threaded {
        backlog: &'a Backlog<J>,
        done: Receiver<(u64, thread::Result<R>)>,
        /// Results that arrived ahead of an older one, by sequence number.
        early: BTreeMap<u64, thread::Result<R>>,
    },
}

impl<J, R> Queue<'_, J, R> {
    /// Hand `job` to the pool (inline: run it now).
    pub fn submit(&mut self, job: J) {
        match &mut self.lane {
            Lane::Inline(results) => results.push_back((self.work)(job)),
            Lane::Threaded { backlog, .. } => backlog.post(self.sent, job),
        }
        self.sent += 1;
    }

    /// Jobs submitted whose results have not been collected yet.
    pub fn in_flight(&self) -> usize {
        (self.sent - self.got) as usize
    }

    /// The result of the oldest uncollected job; `None` when nothing is in
    /// flight. While that job is still running elsewhere, the calling
    /// thread runs queued jobs. A job that panicked re-raises its panic
    /// here.
    pub fn next_result(&mut self) -> Option<R> {
        if self.got == self.sent {
            return None;
        }
        let out = match &mut self.lane {
            Lane::Inline(results) => results.pop_front(),
            Lane::Threaded { backlog, done, early } => loop {
                if let Some(out) = early.remove(&self.got) {
                    break Some(out.unwrap_or_else(|payload| panic::resume_unwind(payload)));
                }
                if let Ok((seq, out)) = done.try_recv() {
                    early.insert(seq, out);
                } else if let Some((seq, job)) = backlog.try_take() {
                    early.insert(seq, run(self.work, job));
                } else {
                    // The job is running on a worker, which catches its
                    // panic and reports it, so its result is on its way.
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the worker running the job always reports, panic or not"
                    )]
                    let (seq, out) = done.recv().expect("a pool worker exited with a job pending");
                    early.insert(seq, out);
                }
            },
        };
        self.got += 1;
        out
    }
}

impl<J, R> Drop for Queue<'_, J, R> {
    fn drop(&mut self) {
        if let Lane::Threaded { backlog, .. } = &self.lane {
            backlog.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn results_come_back_in_submission_order_when_jobs_finish_out_of_order() {
        // Job 0 holds its thread until the last job has finished, so every
        // other job finishes first.
        for threads in [2, 4] {
            let last_done = AtomicBool::new(false);
            let got = Pool::new(threads).map(0..12u64, |i| {
                while i == 0 && !last_done.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                if i == 11 {
                    last_done.store(true, Ordering::Release);
                }
                i * i
            });
            assert_eq!(got, (0..12u64).map(|i| i * i).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn inline_and_threaded_modes_give_equal_results() {
        let work = |i: u64| (0..i).fold(i, |h, k| h.rotate_left(5) ^ k.wrapping_mul(0x9E37));
        let inline = Pool::new(1).map(0..200u64, work);
        for threads in [2, 3, 8] {
            assert_eq!(Pool::new(threads).map(0..200u64, work), inline, "{threads} threads");
        }
    }

    #[test]
    fn inline_runs_each_job_at_submission_on_the_calling_thread() {
        let caller = thread::current().id();
        Pool::new(0).scope(
            |i: u32| (i, thread::current().id()),
            |q| {
                q.submit(7);
                assert_eq!(q.in_flight(), 1);
                assert_eq!(q.next_result(), Some((7, caller)));
                assert_eq!(q.next_result(), None);
            },
        );
    }

    #[test]
    fn zero_jobs_work() {
        for threads in [1, 2] {
            let got: Vec<u8> = Pool::new(threads).map(std::iter::empty::<u8>(), |j| j);
            assert!(got.is_empty());
            let none = Pool::new(threads).scope(|j: u8| j, |q| q.next_result());
            assert_eq!(none, None);
        }
    }

    #[test]
    fn a_lookahead_window_keeps_order_across_interleaved_submits() {
        for threads in [1, 2, 3] {
            let got = Pool::new(threads).scope(
                |i: u64| i + 100,
                |q| {
                    let mut out = Vec::new();
                    for i in 0..50 {
                        if q.in_flight() == 4 {
                            out.extend(q.next_result());
                        }
                        q.submit(i);
                    }
                    out.extend(std::iter::from_fn(|| q.next_result()));
                    out
                },
            );
            assert_eq!(got, (100..150).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn jobs_may_borrow_the_callers_data_mutably() {
        let mut data = vec![1u32; 64];
        let pieces: Vec<&mut [u32]> = data.chunks_mut(10).collect();
        let sums = Pool::new(3).map(pieces, |p| {
            p.iter_mut().for_each(|x| *x += 1);
            p.iter().sum::<u32>()
        });
        assert_eq!(sums, vec![20, 20, 20, 20, 20, 20, 8]);
        assert!(data.iter().all(|&x| x == 2));
    }

    #[test]
    fn a_panicking_job_propagates() {
        for threads in [1, 2, 4] {
            let caught = panic::catch_unwind(|| {
                Pool::new(threads).map(0..16u32, |i| {
                    if i == 9 {
                        panic!("job {i} failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("job 9 failed"), "{threads} threads");
        }
    }
}
