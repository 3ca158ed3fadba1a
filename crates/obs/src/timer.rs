//! A heartbeat progress reporter for long Monte-Carlo sweeps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Periodic progress reporter for long-running sweeps.
///
/// `tick` is cheap (one atomic add, plus an occasional clock read);
/// heartbeat lines go to stderr at most every `min_interval` so even a
/// million-trial Monte-Carlo loop can tick per trial. Nothing is
/// printed unless reporting was switched on with
/// [`crate::set_progress`].
#[derive(Debug)]
pub struct Progress {
    label: String,
    unit: &'static str,
    total: u64,
    done: AtomicU64,
    start: Instant,
    last_report: Mutex<Instant>,
    min_interval: Duration,
    active: bool,
}

impl Progress {
    /// Creates a reporter for `total` units of work (0 when unknown).
    pub fn new(label: impl Into<String>, total: u64, unit: &'static str) -> Self {
        let now = Instant::now();
        Self {
            label: label.into(),
            unit,
            total,
            done: AtomicU64::new(0),
            start: now,
            last_report: Mutex::new(now),
            min_interval: Duration::from_millis(500),
            active: crate::progress_enabled(),
        }
    }

    /// Advances the counter by `n` and emits a heartbeat if one is
    /// due.
    pub fn tick(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        if !self.active {
            return;
        }
        let mut last = self.last_report.lock().expect("progress poisoned");
        if last.elapsed() >= self.min_interval {
            *last = Instant::now();
            drop(last);
            self.report(done, false);
        }
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Emits a final summary line (if reporting is on).
    pub fn finish(&self) {
        if self.active {
            self.report(self.done(), true);
        }
    }

    fn report(&self, done: u64, finished: bool) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let state = if finished { "done" } else { "running" };
        if self.total > 0 {
            let pct = 100.0 * done as f64 / self.total as f64;
            eprintln!(
                "[progress] {}: {}/{} {} ({:.1}%), {:.1}s elapsed, {:.0} {}/s, {}",
                self.label, done, self.total, self.unit, pct, elapsed, rate, self.unit, state
            );
        } else {
            eprintln!(
                "[progress] {}: {} {}, {:.1}s elapsed, {:.0} {}/s, {}",
                self.label, done, self.unit, elapsed, rate, self.unit, state
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_counts_ticks() {
        let p = Progress::new("unit-test", 10, "steps");
        p.tick(3);
        p.tick(4);
        assert_eq!(p.done(), 7);
        p.finish();
    }
}
