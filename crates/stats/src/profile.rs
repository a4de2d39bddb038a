//! Wall-clock phase profiling — the measurement behind the paper's
//! Table 4 ("Profile information": percentage of time per simulation
//! step).

use std::time::{Duration, Instant};

/// Accumulates wall-clock time per named phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phases: Vec<(&'static str, Duration)>,
}

impl PhaseProfiler {
    /// Empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under `phase`.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Add a measured duration to `phase`.
    pub fn add(&mut self, phase: &'static str, d: Duration) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.0 == phase) {
            p.1 += d;
        } else {
            self.phases.push((phase, d));
        }
    }

    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.1).sum()
    }

    /// `(phase, duration, share)` rows in first-seen order.
    pub fn rows(&self) -> Vec<(&'static str, Duration, f64)> {
        let total = self.total().as_secs_f64().max(1e-12);
        self.phases
            .iter()
            .map(|&(n, d)| (n, d, d.as_secs_f64() / total))
            .collect()
    }

    /// Share (0..=1) of one phase.
    pub fn share(&self, phase: &str) -> f64 {
        let total = self.total().as_secs_f64().max(1e-12);
        self.phases
            .iter()
            .find(|p| p.0 == phase)
            .map(|p| p.1.as_secs_f64() / total)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_shares() {
        let mut p = PhaseProfiler::new();
        p.add("generate", Duration::from_millis(60));
        p.add("simulate", Duration::from_millis(30));
        p.add("generate", Duration::from_millis(30));
        p.add("analyse", Duration::from_millis(10));
        assert_eq!(p.total(), Duration::from_millis(130));
        assert!((p.share("generate") - 90.0 / 130.0).abs() < 1e-9);
        assert_eq!(p.rows().len(), 3);
        assert_eq!(p.rows()[0].0, "generate");
        assert_eq!(p.share("missing"), 0.0);
    }

    #[test]
    fn time_measures_something() {
        let mut p = PhaseProfiler::new();
        let v = p.time("work", || {
            let mut x = 0u64;
            for i in 0..100_000 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert!(v > 0);
        assert!(p.total() > Duration::ZERO);
    }
}
