//! Load generators: a closed loop (each caller waits for its reply) and an
//! open loop (requests fall due on a fixed schedule whether or not earlier
//! ones have returned).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// What one loop observed. Times are in milliseconds.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per completed request: latency. Open loop: from when the request
    /// was due, so a stall also counts against every request queued behind
    /// it. Closed loop: from when it was sent.
    pub latencies_ms: Vec<f64>,
    /// Per request, in the same order: seconds from the loop's start to
    /// when it was due (open loop) or sent (closed loop).
    pub at_s: Vec<f64>,
    /// Open loop only: how late each request was sent after its due time.
    pub lags_ms: Vec<f64>,
    /// Requests started.
    pub sent: usize,
    /// Requests that returned a correct answer.
    pub completed: usize,
    /// Requests that failed or returned a wrong answer.
    pub failed: usize,
    /// Wall time of the whole loop.
    pub wall: Duration,
}

impl LoopResult {
    fn merge(&mut self, other: LoopResult) {
        self.latencies_ms.extend(other.latencies_ms);
        self.at_s.extend(other.at_s);
        self.lags_ms.extend(other.lags_ms);
        self.sent += other.sent;
        self.completed += other.completed;
        self.failed += other.failed;
    }
}

/// Sleeps until `due`, finishing with a short yield-spin so that the
/// generator is not late by the timer's slack.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(50);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            thread::sleep(left - SPIN);
        } else {
            thread::yield_now();
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs an open loop: request `i` falls due at `start + i / rate` for every
/// `i` whose due time is before `start + duration`. Each connection takes
/// the next request off one shared schedule, waits for its due time, and
/// calls `send(conn, i)`, which returns whether the answer was correct.
pub fn open_loop<C: Send>(
    conns: &mut [C],
    rate: f64,
    duration: Duration,
    send: impl Fn(&mut C, usize) -> bool + Sync,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut total = LoopResult::default();
    thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, send) = (&next, &send);
                scope.spawn(move || {
                    let mut out = LoopResult::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let offset = Duration::from_secs_f64(i as f64 / rate);
                        if offset >= duration {
                            return out;
                        }
                        let due = start + offset;
                        wait_until(due);
                        out.lags_ms.push(ms(Instant::now() - due));
                        out.sent += 1;
                        let ok = send(conn, i);
                        out.latencies_ms.push(ms(Instant::now() - due));
                        out.at_s.push(offset.as_secs_f64());
                        if ok {
                            out.completed += 1;
                        } else {
                            out.failed += 1;
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("open-loop connection thread"));
        }
    });
    total.wall = start.elapsed();
    total
}

/// Runs a closed loop: every connection sends its next request as soon as
/// the previous one returns, until `duration` has passed. `send(conn, k, i)`
/// gets the connection index `k` and that connection's request count `i`.
pub fn closed_loop<C: Send>(
    conns: &mut [C],
    duration: Duration,
    send: impl Fn(&mut C, usize, usize) -> bool + Sync,
) -> LoopResult {
    let start = Instant::now();
    let mut total = LoopResult::default();
    thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let send = &send;
                scope.spawn(move || {
                    let mut out = LoopResult::default();
                    while start.elapsed() < duration {
                        let sent_at = Instant::now();
                        out.sent += 1;
                        let ok = send(conn, k, out.sent - 1);
                        out.latencies_ms.push(ms(sent_at.elapsed()));
                        out.at_s.push((sent_at - start).as_secs_f64());
                        if ok {
                            out.completed += 1;
                        } else {
                            out.failed += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("closed-loop connection thread"));
        }
    });
    total.wall = start.elapsed();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One connection at 1000 req/s for 100 ms; request 20 stalls for
    /// 30 ms. The requests that fell due during the stall were sent late,
    /// and their latency, timed from when they were due, shows it.
    #[test]
    fn a_stall_raises_the_latency_of_the_requests_behind_it() {
        let stall = Duration::from_millis(30);
        let mut conns = [()];
        let r = open_loop(&mut conns, 1000.0, Duration::from_millis(100), |_, i| {
            if i == 20 {
                thread::sleep(stall);
            }
            true
        });
        assert_eq!(r.sent, 100);
        assert_eq!((r.completed, r.failed), (100, 0));
        // With one connection, results come back in schedule order.
        let lat = &r.latencies_ms;
        assert!(lat[20] >= 30.0, "the stalled request itself: {}", lat[20]);
        // Request 21 fell due 1 ms into the stall: it waited ≥ 29 ms.
        assert!(lat[21] >= 29.0, "request 21 waited {} ms", lat[21]);
        // Request 45 fell due 25 ms after request 20: it waited ≥ 5 ms.
        assert!(lat[45] >= 5.0, "request 45 waited {} ms", lat[45]);
        assert_eq!(r.at_s[45], 0.045);
        // Their sends were late by the same amount.
        assert!(r.lags_ms[21] >= 29.0);
        // Timed from send instead, the queued requests would look instant:
        // the due-time rule is what charges the stall to them.
        assert!(lat[21] - r.lags_ms[21] < 5.0);
    }

    #[test]
    fn without_a_stall_requests_leave_on_schedule() {
        let mut conns = [(), ()];
        let r = open_loop(&mut conns, 500.0, Duration::from_millis(100), |_, _| true);
        assert_eq!(r.sent, 50);
        assert!(r.wall >= Duration::from_millis(98));
        let mut lags = r.lags_ms.clone();
        lags.sort_by(f64::total_cmp);
        assert!(
            lags[lags.len() / 2] < 5.0,
            "median lag {}",
            lags[lags.len() / 2]
        );
    }

    #[test]
    fn closed_loop_counts_every_request_it_sends() {
        let mut conns = [0usize, 0usize];
        let r = closed_loop(&mut conns, Duration::from_millis(20), |n, k, i| {
            *n += 1;
            thread::sleep(Duration::from_millis(1));
            k < 2 && i + 1 == *n
        });
        assert_eq!(r.sent, conns[0] + conns[1]);
        assert_eq!((r.completed, r.failed), (r.sent, 0));
        assert_eq!(r.latencies_ms.len(), r.sent);
        assert_eq!(r.at_s.len(), r.sent);
        assert!(r.at_s.iter().all(|&t| (0.0..0.02).contains(&t)));
    }
}
