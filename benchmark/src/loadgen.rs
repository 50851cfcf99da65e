//! Open-loop load: event `i` is due at `i / rate` seconds whatever the
//! system does, runs as soon as it is due and the single server thread is
//! free, and its latency counts from the due time — so a stall shows as
//! queueing delay on the events behind it.

use crate::stats::ns_u32;
use std::time::{Duration, Instant};

pub trait Clock {
    /// Nanoseconds since the schedule started.
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// Wall clock; waits by spinning, so an event starts within a clock read of
/// its due time instead of a scheduler wake-up after it.
pub struct RealClock(Instant);

impl RealClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        while self.now_ns() < t_ns {
            std::hint::spin_loop();
        }
    }
}

pub struct OpenLoopRun {
    /// Due time → verdict, per event.
    pub latency_ns: Vec<u32>,
    /// Due time → start, per event: how late the schedule ran.
    pub late_ns: Vec<u32>,
    /// Most events that were due and still waiting when an event started.
    pub max_backlog: usize,
    /// Schedule start → last event finished.
    pub wall: Duration,
}

/// Run `n` events at `rate_per_s` on the calling thread. `event(i)` returns
/// the clock reading at which event `i`'s verdict was ready; work it does
/// after that (a tick-closing flush) is outside event `i`'s latency but
/// ahead of every later event.
pub fn run_open_loop(
    n: usize,
    rate_per_s: u64,
    clock: &impl Clock,
    mut event: impl FnMut(usize) -> u64,
) -> OpenLoopRun {
    let due = |i: usize| i as u64 * 1_000_000_000 / rate_per_s;
    let mut run = OpenLoopRun {
        latency_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        max_backlog: 0,
        wall: Duration::ZERO,
    };
    for i in 0..n {
        clock.wait_until(due(i));
        let start = clock.now_ns();
        let arrived = ((start * rate_per_s / 1_000_000_000) as usize + 1).min(n);
        run.max_backlog = run.max_backlog.max(arrived - (i + 1));
        let done = event(i);
        run.late_ns
            .push(ns_u32(Duration::from_nanos(start - due(i))));
        run.latency_ns
            .push(ns_u32(Duration::from_nanos(done - due(i))));
    }
    run.wall = Duration::from_nanos(clock.now_ns());
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Virtual time: waiting jumps to the due time, work advances it.
    struct FakeClock(Cell<u64>);

    impl FakeClock {
        fn advance_us(&self, us: u64) {
            self.0.set(self.0.get() + us * 1_000);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn a_stall_becomes_queueing_delay_on_the_events_behind_it() {
        // 1,000 events/s, 100 µs of service each; a 10 ms stall follows the
        // verdict of event 10.
        let clock = FakeClock(Cell::new(0));
        let run = run_open_loop(50, 1_000, &clock, |i| {
            clock.advance_us(100);
            let verdict = clock.now_ns();
            if i == 10 {
                clock.advance_us(10_000);
            }
            verdict
        });
        // Before the stall, and for the stalled event itself, latency is
        // the service time and nothing is late.
        for i in 0..=10 {
            assert_eq!(run.latency_ns[i], 100_000, "event {i}");
            assert_eq!(run.late_ns[i], 0, "event {i}");
        }
        // Event 11 was due at 11 ms but starts at 20.1 ms.
        assert_eq!(run.late_ns[11], 9_100_000);
        assert_eq!(run.latency_ns[11], 9_200_000);
        // The queue drains 0.9 ms per event: event 12 is 8.2 ms late.
        assert_eq!(run.late_ns[12], 8_200_000);
        // Events 11..=20 were due by 20.1 ms; 9 waited behind event 11.
        assert_eq!(run.max_backlog, 9);
        // The backlog is gone well before the end.
        assert_eq!(run.late_ns[40], 0);
        assert_eq!(run.latency_ns[49], 100_000);
        assert_eq!(run.wall, Duration::from_micros(49_100));
    }

    #[test]
    fn an_idle_schedule_has_no_backlog() {
        let clock = FakeClock(Cell::new(0));
        let run = run_open_loop(20, 1_000, &clock, |_| {
            clock.advance_us(10);
            clock.now_ns()
        });
        assert_eq!(run.max_backlog, 0);
        assert!(run.late_ns.iter().all(|&l| l == 0));
    }
}
