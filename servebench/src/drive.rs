//! Load generators: closed-loop reader clients and the open-loop writer.

use std::time::{Duration, Instant};

use crate::check::{Outcome, Tally};
use crate::report::percentile;
use crate::workload::{EdgeUpdate, RequestPool};

/// Measurement windows per second of a phase: throughput and latency
/// percentiles are taken per window and reported as the median over
/// windows, so a stall of the shared host moves one window, not the run.
const WINDOWS_PER_S: f64 = 1.0;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the phase started.
    pub end_ns: u64,
    pub latency_ns: u64,
    /// Pairs of the request that were answered.
    pub served: u32,
}

/// What one reader client saw.
#[derive(Debug, Default)]
pub struct ClientStats {
    pub samples: Vec<Sample>,
    /// Answers against the references.
    pub tally: Tally,
}

/// One closed-loop client: sends request `cursor`, waits for the answers,
/// checks them, and moves to the next request of its pool (wrapping),
/// from `start` until `deadline` or until `serve` returns false.
pub fn client_loop<S>(
    pool: &RequestPool,
    refs: &[u32],
    cursor: &mut usize,
    (start, deadline): (Instant, Instant),
    mut serve: S,
) -> ClientStats
where
    S: FnMut(&[(u32, u32)], &mut Vec<Outcome>) -> bool,
{
    let mut stats = ClientStats {
        samples: Vec::with_capacity(1 << 16),
        ..ClientStats::default()
    };
    let mut outcomes = Vec::with_capacity(pool.request_len);
    let len = pool.request_len;
    loop {
        let begin = Instant::now();
        if begin >= deadline {
            break;
        }
        let i = *cursor;
        *cursor = (i + 1) % pool.requests();
        outcomes.clear();
        let more = serve(pool.request(i), &mut outcomes);
        let end = Instant::now();
        assert_eq!(outcomes.len(), len, "one answer per pair");
        let before = stats.tally.answered;
        for (&outcome, &reference) in outcomes.iter().zip(&refs[i * len..(i + 1) * len]) {
            stats.tally.record(outcome, reference);
        }
        stats.samples.push(Sample {
            end_ns: (end - start).as_nanos() as u64,
            latency_ns: (end - begin).as_nanos() as u64,
            served: (stats.tally.answered - before) as u32,
        });
        if !more {
            break;
        }
    }
    stats
}

/// Throughput and latency of one measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub served_qps: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Merged view of all clients of one or more phases.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Sorted request latencies, nanoseconds.
    pub latencies_ns: Vec<u64>,
    pub served: u64,
    pub tally: Tally,
    /// Measured wall time: from the common start of each phase to its
    /// last completion, summed over phases.
    pub wall_s: f64,
    pub windows: Vec<Window>,
}

impl PhaseStats {
    /// Merge the clients of a phase that ran for `duration`.
    pub fn merge(duration: Duration, clients: Vec<ClientStats>) -> PhaseStats {
        let mut phase = PhaseStats::default();
        let mut samples = Vec::new();
        for client in clients {
            samples.extend_from_slice(&client.samples);
            phase.tally.merge(&client.tally);
        }
        samples.sort_unstable_by_key(|s| s.end_ns);
        phase.served = samples.iter().map(|s| s.served as u64).sum();
        phase.wall_s = samples.last().map_or(0.0, |s| s.end_ns as f64 / 1e9);
        phase.latencies_ns = samples.iter().map(|s| s.latency_ns).collect();
        phase.latencies_ns.sort_unstable();

        let count = ((duration.as_secs_f64() * WINDOWS_PER_S).floor() as usize).max(1);
        let width_ns = (duration.as_nanos() as u64 / count as u64).max(1);
        let mut window_latencies = vec![Vec::new(); count];
        let mut window_served = vec![0u64; count];
        for s in &samples {
            let w = ((s.end_ns / width_ns) as usize).min(count - 1);
            window_latencies[w].push(s.latency_ns);
            window_served[w] += s.served as u64;
        }
        // The last window also holds requests that ended past the deadline.
        let last_end_ns = samples.last().map_or(0, |s| s.end_ns);
        for (w, mut latencies) in window_latencies.into_iter().enumerate() {
            if latencies.is_empty() {
                continue;
            }
            let begin = w as u64 * width_ns;
            let end = if w == count - 1 {
                last_end_ns.max(begin + width_ns)
            } else {
                begin + width_ns
            };
            latencies.sort_unstable();
            phase.windows.push(Window {
                served_qps: window_served[w] as f64 / ((end - begin) as f64 / 1e9),
                p50_ns: percentile(&latencies, 50.0),
                p99_ns: percentile(&latencies, 99.0),
            });
        }
        phase
    }

    /// Fold a later phase of the same run into this one.
    pub fn extend(&mut self, other: PhaseStats) {
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.latencies_ns.sort_unstable();
        self.served += other.served;
        self.tally.merge(&other.tally);
        self.wall_s += other.wall_s;
        self.windows.extend(other.windows);
    }

    /// Pairs answered per second over the whole phase.
    pub fn served_qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.served as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Median over windows of a window statistic.
    pub fn window_median(&self, stat: impl Fn(&Window) -> f64) -> f64 {
        let mut values: Vec<f64> = self.windows.iter().map(stat).collect();
        if values.is_empty() {
            return 0.0;
        }
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        }
    }
}

/// What the open-loop writer saw.
#[derive(Debug, Default)]
pub struct WriterStats {
    /// Per update: from when it was due to when the writer call returned.
    pub latencies_ns: Vec<u64>,
    /// Largest delay between an update's due time and its start.
    pub late_max_ns: u64,
    /// Updates that returned an error or did not apply.
    pub errors: u64,
}

impl WriterStats {
    pub fn extend(&mut self, other: WriterStats) {
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.late_max_ns = self.late_max_ns.max(other.late_max_ns);
        self.errors += other.errors;
    }
}

/// Sleep until shortly before `due`, then spin, so an update starts on
/// time rather than a scheduler tick late.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The open-loop writer: update `k` of this phase is due at
/// `start + k / rate`, whatever happened to earlier updates. `apply`
/// performs one update and reports whether it applied.
pub fn writer_loop<A>(
    schedule: &[EdgeUpdate],
    next: &mut usize,
    rate_per_s: f64,
    start: Instant,
    deadline: Instant,
    mut apply: A,
) -> WriterStats
where
    A: FnMut(EdgeUpdate, u32) -> bool,
{
    let mut stats = WriterStats::default();
    for k in 0u32.. {
        let due = start + Duration::from_secs_f64(k as f64 / rate_per_s);
        if due >= deadline {
            break;
        }
        wait_until(due);
        let begin = Instant::now();
        let update = schedule[*next % schedule.len()];
        let applied = apply(update, *next as u32);
        let end = Instant::now();
        *next += 1;
        if !applied {
            stats.errors += 1;
        }
        stats.late_max_ns = stats.late_max_ns.max((begin - due).as_nanos() as u64);
        stats.latencies_ns.push((end - due).as_nanos() as u64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(samples: &[(u64, u64, u32)]) -> ClientStats {
        ClientStats {
            samples: samples
                .iter()
                .map(|&(end_ns, latency_ns, served)| Sample {
                    end_ns,
                    latency_ns,
                    served,
                })
                .collect(),
            tally: Tally::default(),
        }
    }

    #[test]
    fn windows_split_the_phase_and_report_medians() {
        const S: u64 = 1_000_000_000;
        let a = client(&[(S / 2, 10, 4), (S + S / 2, 30, 4), (2 * S + 1, 50, 4)]);
        let b = client(&[(S / 4, 20, 2), (3 * S / 2, 40, 2)]);
        let phase = PhaseStats::merge(Duration::from_secs(2), vec![a, b]);
        assert_eq!(phase.served, 16);
        assert_eq!(phase.latencies_ns, vec![10, 20, 30, 40, 50]);
        assert_eq!(phase.windows.len(), 2);
        assert_eq!(phase.windows[0].served_qps, 6.0);
        // The second window runs to the last completion, just past 2 s.
        assert!((phase.windows[1].served_qps - 10.0 / (1.0 + 1e-9)).abs() < 1e-6);
        assert_eq!(phase.windows[1].p50_ns, 40);
        assert_eq!(
            phase.window_median(|w| w.served_qps),
            (6.0 + phase.windows[1].served_qps) / 2.0
        );
    }
}
