//! Canonical metric names of the resilience layer.
//!
//! The checkpointing runner publishes its recovery bookkeeping as
//! ordinary registry counters, so it lands in the same metrics snapshot
//! as every other `run.*`/`check.*` series. The names live here — next
//! to the metrics substrate, away from the publisher — so the runner and
//! the tests that read the counters agree on one spelling.

/// Counter: durable checkpoints written by the runner.
pub const CHECKPOINTS_WRITTEN: &str = "recover.checkpoints_written";

/// Counter: campaign resumes from a checkpoint (`--resume` restarts).
pub const RESUMES: &str = "recover.resumes";

/// Counter: checkpoint files rejected at resume time (truncated,
/// bit-flipped, wrong engine or wrong campaign fingerprint).
pub const CHECKPOINTS_REJECTED: &str = "recover.checkpoints_rejected";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn recover_series_flow_into_snapshots() {
        let r = Registry::new();
        r.counter(CHECKPOINTS_WRITTEN, &[]).inc();
        r.counter(RESUMES, &[]).add(2);
        r.counter(CHECKPOINTS_REJECTED, &[]).inc();
        let snap = r.snapshot_json();
        for name in [CHECKPOINTS_WRITTEN, RESUMES, CHECKPOINTS_REJECTED] {
            assert!(snap.contains(name), "{name} missing from snapshot");
        }
    }
}
