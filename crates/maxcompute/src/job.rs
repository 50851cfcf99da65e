//! Job instances, subtask splitting and the priority scheduler.
//!
//! Mirrors §4.2's server layer: a submitted job becomes an *instance*
//! registered in OTS as `Running`; the scheduler splits "the task of job
//! instance into multiple subtasks, which are arranged into task pool in
//! priority order"; executor threads wait for Fuxi slots, run subtasks, and
//! the instance flips to `Terminated` when the last subtask finishes.

use crate::fuxi::Fuxi;
use crate::ots::{InstanceStatus, Ots};
use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A unit of work. Subtasks run on executor threads under one Fuxi slot.
pub type Subtask = Box<dyn FnOnce() + Send>;

/// A job to submit: a description, a priority (higher runs first) and its
/// subtasks.
pub struct JobSpec {
    pub description: String,
    pub priority: u8,
    pub subtasks: Vec<Subtask>,
}

struct PoolEntry {
    priority: u8,
    seq: u64,
    task: Subtask,
    /// Shared per-job completion state: (remaining, instance id, notifier).
    job: Arc<JobState>,
}

struct JobState {
    remaining: Mutex<usize>,
    instance: u64,
    done_tx: Sender<u64>,
}

impl PartialEq for PoolEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for PoolEntry {}
impl PartialOrd for PoolEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PoolEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first; FIFO within a priority.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct SchedulerState {
    pool: BinaryHeap<PoolEntry>,
    seq: u64,
    shutdown: bool,
}

/// The job scheduler: a task pool drained by executor threads gated on
/// Fuxi slots.
pub struct Scheduler {
    state: Arc<(Mutex<SchedulerState>, Condvar)>,
    ots: Arc<Ots>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

/// Handle to a submitted job.
pub struct JobHandle {
    pub instance_id: u64,
    done_rx: Receiver<u64>,
}

impl JobHandle {
    /// Block until the job's instance terminates.
    pub fn wait(self) {
        let _ = self.done_rx.recv();
    }
}

impl Scheduler {
    /// Start `n_executors` executor threads sharing `fuxi` slots.
    pub fn new(fuxi: Fuxi, ots: Arc<Ots>, n_executors: usize) -> Self {
        let state = Arc::new((
            Mutex::new(SchedulerState {
                pool: BinaryHeap::new(),
                seq: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let executors = (0..n_executors.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let fuxi = fuxi.clone();
                let ots = Arc::clone(&ots);
                // A long-lived executor draining the task pool, not chunked
                // work, so not a `Pool` job.
                #[allow(clippy::disallowed_methods)]
                std::thread::spawn(move || executor_loop(state, fuxi, ots))
            })
            .collect();
        Self {
            state,
            ots,
            executors,
        }
    }

    /// Submit a job: registers an OTS instance, splits into subtasks and
    /// enqueues them by priority. Returns a handle to wait on.
    pub fn submit(&self, owner: &str, spec: JobSpec) -> JobHandle {
        let instance = self.ots.register(owner, &spec.description);
        let (done_tx, done_rx) = channel();
        let n = spec.subtasks.len();
        let job = Arc::new(JobState {
            remaining: Mutex::new(n),
            instance,
            done_tx,
        });
        if n == 0 {
            // Degenerate job: terminates immediately.
            self.ots.set_status(instance, InstanceStatus::Terminated);
            let _ = job.done_tx.send(instance);
            return JobHandle {
                instance_id: instance,
                done_rx,
            };
        }
        {
            let (lock, cv) = &*self.state;
            let mut st = lock.lock();
            for task in spec.subtasks {
                let seq = st.seq;
                st.seq += 1;
                st.pool.push(PoolEntry {
                    priority: spec.priority,
                    seq,
                    task,
                    job: Arc::clone(&job),
                });
            }
            cv.notify_all();
        }
        JobHandle {
            instance_id: instance,
            done_rx,
        }
    }

    /// Submit one job whose subtasks each *produce* a value, wait for the
    /// instance to terminate, and return the values **in subtask order**
    /// (not completion order). This is the coordinator side of scatter/
    /// gather: the distributed SQL engine fans per-segment scans out
    /// through it and merges the partials it gets back.
    ///
    /// # Panics
    /// Panics if a subtask panicked on its executor (its result slot stays
    /// empty).
    pub fn run_collect<T, F>(
        &self,
        owner: &str,
        description: &str,
        priority: u8,
        tasks: Vec<F>,
    ) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        let slots: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let subtasks: Vec<Subtask> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let slots = Arc::clone(&slots);
                Box::new(move || {
                    let v = f();
                    slots.lock()[i] = Some(v);
                }) as Subtask
            })
            .collect();
        self.submit(
            owner,
            JobSpec {
                description: description.to_string(),
                priority,
                subtasks,
            },
        )
        .wait();
        let mut slots = slots.lock();
        slots
            .iter_mut()
            .map(|s| s.take().expect("subtask did not produce a result"))
            .collect()
    }

    /// Stop executors after draining the pool.
    pub fn shutdown(mut self) {
        {
            let (lock, cv) = &*self.state;
            lock.lock().shutdown = true;
            cv.notify_all();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

fn executor_loop(state: Arc<(Mutex<SchedulerState>, Condvar)>, fuxi: Fuxi, ots: Arc<Ots>) {
    loop {
        let entry = {
            let (lock, cv) = &*state;
            let mut st = lock.lock();
            loop {
                if let Some(e) = st.pool.pop() {
                    break e;
                }
                if st.shutdown {
                    return;
                }
                cv.wait(&mut st);
            }
        };
        // "As soon as the resource conditions are satisfied, the subtasks
        // are sent to an executor, which requests Fuxi…"
        // The slot goes back before the job can be reported done, so a
        // submitter that returns from `wait` sees every slot free again.
        let slot = fuxi.allocate(1);
        (entry.task)();
        drop(slot);
        let mut remaining = entry.job.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            ots.set_status(entry.job.instance, InstanceStatus::Terminated);
            let _ = entry.job.done_tx.send(entry.job.instance);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        lock.lock().shutdown = true;
        cv.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtOrd};

    fn setup(slots: usize, executors: usize) -> (Scheduler, Arc<Ots>) {
        let ots = Arc::new(Ots::new());
        let fuxi = Fuxi::new(slots);
        (Scheduler::new(fuxi, Arc::clone(&ots), executors), ots)
    }

    /// A job is done only once its slots are back: read right after
    /// `run_collect` returns, Fuxi must show every slot free, for every job
    /// of a long back-to-back run. Jobs of one subtask on one slot, then of
    /// four subtasks on four slots, where an executor that did not finish
    /// last can still be between its subtask and its slot release.
    #[test]
    fn slots_are_free_when_a_job_returns() {
        for width in [1usize, 4] {
            let fuxi = Fuxi::new(width);
            let sched = Scheduler::new(fuxi.clone(), Arc::new(Ots::new()), width);
            for i in 0..250 {
                let tasks: Vec<_> = (0..width).map(|k| move || i + k).collect();
                let out = sched.run_collect("a", "back to back", 1, tasks);
                assert_eq!(out, (i..i + width).collect::<Vec<_>>());
                let stats = fuxi.stats();
                assert_eq!(
                    stats.free_slots, stats.total_slots,
                    "width {width}, job {i} returned while a slot was still held"
                );
            }
        }
    }

    #[test]
    fn job_runs_all_subtasks_and_terminates() {
        let (sched, ots) = setup(4, 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let subtasks: Vec<Subtask> = (0..10)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, AtOrd::SeqCst);
                }) as Subtask
            })
            .collect();
        let h = sched.submit(
            "alice",
            JobSpec {
                description: "count".into(),
                priority: 1,
                subtasks,
            },
        );
        let id = h.instance_id;
        h.wait();
        assert_eq!(counter.load(AtOrd::SeqCst), 10);
        assert_eq!(ots.get(id).unwrap().status, InstanceStatus::Terminated);
    }

    #[test]
    fn empty_job_terminates_immediately() {
        let (sched, ots) = setup(1, 1);
        let h = sched.submit(
            "a",
            JobSpec {
                description: "noop".into(),
                priority: 0,
                subtasks: vec![],
            },
        );
        let id = h.instance_id;
        h.wait();
        assert_eq!(ots.get(id).unwrap().status, InstanceStatus::Terminated);
    }

    #[test]
    fn priority_orders_pending_tasks() {
        // Single executor, single slot: occupy it, then enqueue low and
        // high priority jobs and observe execution order.
        let (sched, _ots) = setup(1, 1);
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));

        let g = Arc::clone(&gate);
        let blocker = sched.submit(
            "a",
            JobSpec {
                description: "blocker".into(),
                priority: 9,
                subtasks: vec![Box::new(move || {
                    let (lock, cv) = &*g;
                    let mut open = lock.lock();
                    while !*open {
                        cv.wait(&mut open);
                    }
                })],
            },
        );
        // Give the executor a moment to grab the blocker.
        std::thread::sleep(std::time::Duration::from_millis(30));

        let o1 = Arc::clone(&order);
        let low = sched.submit(
            "a",
            JobSpec {
                description: "low".into(),
                priority: 1,
                subtasks: vec![Box::new(move || o1.lock().push("low"))],
            },
        );
        let o2 = Arc::clone(&order);
        let high = sched.submit(
            "a",
            JobSpec {
                description: "high".into(),
                priority: 5,
                subtasks: vec![Box::new(move || o2.lock().push("high"))],
            },
        );
        // Open the gate.
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        blocker.wait();
        high.wait();
        low.wait();
        assert_eq!(*order.lock(), vec!["high", "low"]);
    }

    #[test]
    fn run_collect_returns_results_in_subtask_order() {
        let (sched, _ots) = setup(4, 4);
        let tasks: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    // Finish out of order on purpose.
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) % 4));
                    i * i
                }
            })
            .collect();
        let results = sched.run_collect("a", "squares", 3, tasks);
        assert_eq!(results, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
        assert!(sched
            .run_collect("a", "empty", 3, Vec::<fn() -> u8>::new())
            .is_empty());
    }

    #[test]
    fn slot_contention_serialises_execution() {
        let (sched, _) = setup(1, 4);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let subtasks: Vec<Subtask> = (0..8)
            .map(|_| {
                let c = Arc::clone(&concurrent);
                let p = Arc::clone(&peak);
                Box::new(move || {
                    let now = c.fetch_add(1, AtOrd::SeqCst) + 1;
                    p.fetch_max(now, AtOrd::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    c.fetch_sub(1, AtOrd::SeqCst);
                }) as Subtask
            })
            .collect();
        let h = sched.submit(
            "a",
            JobSpec {
                description: "serial".into(),
                priority: 1,
                subtasks,
            },
        );
        h.wait();
        assert_eq!(peak.load(AtOrd::SeqCst), 1, "one slot => no concurrency");
    }
}
