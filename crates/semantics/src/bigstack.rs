//! A big stack for deep recursion, without a thread spawn per call.
//!
//! Deeply recursive service specifications build deeply nested terms;
//! term hashing, transition derivation and `Rc` drops all recurse over
//! that structure. [`with_big_stack`] runs such work on a thread with a
//! 256 MiB stack. Each calling thread keeps one such worker, spawned on
//! its first call, and hands every call to it.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Stack size of the big-stack worker.
const BIG_STACK: usize = 256 << 20;

/// A job for the big-stack worker, its borrowed lifetime erased.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One calling thread's big-stack worker: jobs go out on `jobs`, and each
/// job's outcome (its panic payload, if it panicked) comes back on `done`
/// before the worker takes the next one. Dropping it, when the calling
/// thread exits, closes `jobs` and so ends the worker.
struct Worker {
    jobs: Sender<Job>,
    done: Receiver<std::thread::Result<()>>,
    /// The CPUs the worker may run on, as last set from the caller.
    cpus: Cell<Option<affinity::CpuSet>>,
}

impl Worker {
    fn spawn() -> Worker {
        let (jobs, inbox) = channel::<Job>();
        let (outcome, done) = channel();
        std::thread::Builder::new()
            .name("big-stack".to_string())
            .stack_size(BIG_STACK)
            .spawn(move || {
                ON_WORKER.set(true);
                for job in inbox {
                    if outcome.send(catch_unwind(AssertUnwindSafe(job))).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn big-stack thread");
        // A new thread inherits its creator's CPUs.
        Worker {
            jobs,
            done,
            cpus: Cell::new(affinity::get()),
        }
    }
}

thread_local! {
    /// This thread's worker, spawned on its first big-stack call.
    static WORKER: Worker = Worker::spawn();
    /// Is this thread a big-stack worker?
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` on a thread with a 256 MiB stack and return its result.
/// Explorations and simulations get room to spare this way, rather than an arbitrary
/// nesting limit on specifications.
///
/// The calling thread blocks until `f` has finished on its worker. The
/// worker first takes on the caller's CPU affinity if that changed since
/// the last call, so a caller pinned to one CPU hands off on that CPU. A
/// panic in `f` is resumed on the caller with its original payload, and
/// the worker stays usable. A call made on the worker itself runs inline.
pub fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    if ON_WORKER.get() {
        return f();
    }
    WORKER.with(|w| {
        let cpus = affinity::get();
        let repin = (cpus != w.cpus.replace(cpus)).then_some(cpus).flatten();
        let mut out: Option<T> = None;
        let slot = &mut out;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            if let Some(set) = repin {
                affinity::set(&set);
            }
            *slot = Some(f());
        });
        // SAFETY: only the lifetime changes; the layout of the box is the
        // same. The job borrows from this frame (`out`, and whatever `f`
        // borrows), and this frame does not return or unwind before the
        // worker is done with the job:
        // - a job the worker received is called under `catch_unwind`,
        //   which consumes it, and its outcome is sent on `done` only
        //   afterwards; the `recv` below returns only then;
        // - if `send` fails, the job comes back in the error and is
        //   dropped here, while its borrows are still live;
        // - `recv` fails only once the worker's `done` sender is gone,
        //   that is after its loop has ended and its `inbox`, with any
        //   job still queued in it, has been dropped.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        w.jobs.send(job).expect("big-stack thread exited");
        match w.done.recv().expect("big-stack thread exited") {
            Ok(()) => out.expect("big-stack job ran to completion"),
            Err(payload) => resume_unwind(payload),
        }
    })
}

/// The calling thread's CPU affinity (Linux `sched_{get,set}affinity`).
#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs this thread may run on, if the kernel says.
    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Confine this thread to `set`; on failure it keeps its CPUs.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is a valid cpu_set_t of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    }
}

/// Elsewhere the worker keeps the CPUs it was spawned with.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub type CpuSet = ();

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::mpsc::RecvTimeoutError;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn worker_id() -> ThreadId {
        with_big_stack(|| std::thread::current().id())
    }

    #[test]
    fn borrowing_closures_run_on_one_worker_per_thread() {
        let items = [1, 2, 3];
        let mut calls = 0;
        let sum = with_big_stack(|| {
            calls += 1;
            items.iter().sum::<i32>()
        });
        assert_eq!((sum, calls), (6, 1));
        let worker = worker_id();
        assert_ne!(worker, std::thread::current().id());
        assert_eq!(worker_id(), worker);
    }

    #[test]
    fn panic_payload_reaches_the_caller_and_the_worker_survives() {
        let worker = worker_id();
        let payload = catch_unwind(|| with_big_stack(|| std::panic::panic_any(42u32))).unwrap_err();
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
        assert_eq!(with_big_stack(|| 7), 7);
        assert_eq!(worker_id(), worker);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let (outer, inner) = with_big_stack(|| (std::thread::current().id(), worker_id()));
        assert_eq!(outer, inner);
        assert_ne!(outer, std::thread::current().id());
    }

    thread_local! {
        /// Dropped, and so disconnected, when its thread exits.
        static EXIT_SIGNAL: RefCell<Option<Sender<()>>> = const { RefCell::new(None) };
    }

    #[test]
    fn worker_exits_with_its_calling_thread() {
        let (signal, exited) = channel::<()>();
        std::thread::spawn(move || {
            with_big_stack(move || EXIT_SIGNAL.with(|s| *s.borrow_mut() = Some(signal)));
        })
        .join()
        .unwrap();
        assert_eq!(
            exited.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
