//! Durable campaign checkpoints: crash-consistent files the five-phase
//! runner cuts at period boundaries and a `--resume` run restarts from.
//!
//! A checkpoint is one self-contained binary file in the sealed
//! [`seqsim::wire`] container (magic, version, length, CRC32): a
//! campaign *fingerprint* (so a file is never restored into a different
//! campaign), the cut cycle, the runner's loop flags, the engine's own
//! sealed state bytes ([`crate::NocEngine::save_state`]) and the opaque
//! host-side state the runner encodes (delivery analyzers, backlogs,
//! fault-applier streams, the conservation ledger).
//!
//! Files are written crash-consistently — payload to a temp file in the
//! same directory, fsync, atomic rename — and pruned to the newest
//! `keep`. Resume scans newest-first and *skips* (with a warning on
//! stderr) any file whose checksum, version or fingerprint does not
//! match, so a file truncated by a crash mid-write costs one cadence of
//! progress, never the campaign.

use seqsim::{wire, Dec, Enc, WireError};
use std::path::{Path, PathBuf};

/// Wire version of campaign checkpoint files.
const CAMPAIGN_VERSION: u32 = 0x434B_0001; // "CK" 1

/// File-name prefix of checkpoint files (`ckpt-{cycle:012}.bin`).
const PREFIX: &str = "ckpt-";

/// Checkpoint cadence and location, attached to a run through
/// [`RunConfig::checkpoint_every`](crate::RunConfig::checkpoint_every).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Cut a checkpoint every `every` system cycles (rounded up to the
    /// enclosing period boundary — cuts happen at the quiescent point
    /// after the analyse phase).
    pub every: u64,
    /// Directory the files live in (created on the first cut).
    pub dir: PathBuf,
    /// Newest files kept on disk; older ones are pruned after each cut.
    pub keep: usize,
    /// Resume from the newest valid checkpoint in `dir` instead of
    /// starting at cycle 0 (no-op when none matches this campaign).
    pub resume: bool,
    /// Caller-chosen discriminator mixed into the campaign fingerprint
    /// (use distinct tags to share one directory between campaigns).
    pub tag: u64,
}

impl CheckpointConfig {
    /// Checkpoint every `every` cycles into `dir`, keeping the newest 3
    /// files, starting fresh.
    pub fn new(every: u64, dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            every: every.max(1),
            dir: dir.into(),
            keep: 3,
            resume: false,
            tag: 0,
        }
    }

    /// Keep the newest `keep` files (at least 1).
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Resume from the newest valid checkpoint, when one exists.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Set the campaign-fingerprint discriminator.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// One decoded campaign checkpoint.
#[derive(Debug, Clone)]
pub struct CampaignCkpt {
    /// Campaign fingerprint ([`fingerprint`]) the file belongs to.
    pub fingerprint: u64,
    /// The cycle the cut was taken at (simulation resumes here).
    pub t0: u64,
    /// The runner's saturation flag at the cut.
    pub saturated: bool,
    /// Whether the warm-up delta-stats reset had already happened.
    pub delta_reset_done: bool,
    /// The engine's own sealed state bytes
    /// ([`crate::NocEngine::save_state`]).
    pub engine_state: Vec<u8>,
    /// The runner's host-side state (analyzers, backlogs, applier
    /// streams, checker ledger), encoded by the runner itself.
    pub host_state: Vec<u8>,
}

impl CampaignCkpt {
    /// Seal the checkpoint into its on-disk byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.u64(self.t0);
        e.bool(self.saturated);
        e.bool(self.delta_reset_done);
        e.bytes(&self.engine_state);
        e.bytes(&self.host_state);
        wire::seal(CAMPAIGN_VERSION, &e.into_bytes())
    }

    /// Open and decode checkpoint bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the container is truncated, the checksum or
    /// version does not match, or the payload underruns.
    pub fn from_bytes(data: &[u8]) -> Result<Self, WireError> {
        let payload = wire::open(data, CAMPAIGN_VERSION)?;
        let mut d = Dec::new(payload);
        let ckpt = CampaignCkpt {
            fingerprint: d.u64()?,
            t0: d.u64()?,
            saturated: d.bool()?,
            delta_reset_done: d.bool()?,
            engine_state: d.bytes()?.to_vec(),
            host_state: d.bytes()?.to_vec(),
        };
        if !d.finished() {
            return Err(WireError::new("campaign checkpoint: trailing bytes"));
        }
        Ok(ckpt)
    }
}

/// FNV-1a over a campaign-identity string: engine name, network config,
/// run extents and the config's tag. Two campaigns with the
/// same fingerprint may exchange checkpoints; everything else is
/// rejected at resume time.
pub fn fingerprint(identity: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in identity.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The file name of a cut at cycle `t0`.
fn file_name(t0: u64) -> String {
    format!("{PREFIX}{t0:012}.bin")
}

/// Write `ckpt` crash-consistently into `dir` and prune to the newest
/// `keep` files. Returns the final path.
///
/// # Errors
///
/// Filesystem errors creating, writing, syncing or renaming the file.
/// Pruning errors are swallowed — stale extra files are harmless.
pub fn write_checkpoint(dir: &Path, keep: usize, ckpt: &CampaignCkpt) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = dir.join(file_name(ckpt.t0));
    let tmp = dir.join(format!(".{}.tmp", file_name(ckpt.t0)));
    let bytes = ckpt.to_bytes();
    {
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, &bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &final_path)?;
    // Prune: newest `keep` by cycle (file names sort lexicographically
    // because cycles are zero-padded).
    if let Ok(mut files) = list_checkpoints(dir) {
        files.sort();
        while files.len() > keep.max(1) {
            let victim = files.remove(0);
            let _ = std::fs::remove_file(dir.join(victim));
        }
    }
    Ok(final_path)
}

/// Checkpoint file names in `dir` (unsorted).
fn list_checkpoints(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.starts_with(PREFIX) && name.ends_with(".bin") {
                out.push(name.to_string());
            }
        }
    }
    Ok(out)
}

/// Scan `dir` newest-first for a valid checkpoint of the campaign with
/// `fp`. Corrupt, truncated, foreign-version or foreign-campaign files
/// are skipped; the rejection count is returned (it flows into the
/// `recover.checkpoints_rejected` counter) and summarised in a single
/// stderr warning per scan — a campaign directory can hold hundreds of
/// stale files and per-file lines drown real diagnostics.
pub fn latest_valid(dir: &Path, fp: u64) -> (Option<CampaignCkpt>, u64) {
    let mut files = match list_checkpoints(dir) {
        Ok(f) => f,
        Err(_) => return (None, 0),
    };
    files.sort();
    files.reverse();
    let mut rejected = 0u64;
    let warn = |rejected: u64| {
        if rejected > 0 {
            eprintln!(
                "warning: skipped {rejected} corrupt or foreign checkpoint file(s) in {} \
                 (campaign fingerprint {fp:016x})",
                dir.display()
            );
        }
    };
    for name in files {
        let path = dir.join(&name);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        match CampaignCkpt::from_bytes(&data) {
            Ok(ckpt) if ckpt.fingerprint == fp => {
                warn(rejected);
                return (Some(ckpt), rejected);
            }
            Ok(_) | Err(_) => rejected += 1,
        }
    }
    warn(rejected);
    (None, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t0: u64) -> CampaignCkpt {
        CampaignCkpt {
            fingerprint: fingerprint("test-campaign"),
            t0,
            saturated: false,
            delta_reset_done: t0 > 100,
            engine_state: vec![1, 2, 3, 4],
            host_state: vec![9; 32],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let c = sample(512);
        let b = c.to_bytes();
        let back = CampaignCkpt::from_bytes(&b).unwrap();
        assert_eq!(back.fingerprint, c.fingerprint);
        assert_eq!(back.t0, 512);
        assert_eq!(back.engine_state, c.engine_state);
        assert_eq!(back.host_state, c.host_state);
    }

    #[test]
    fn truncated_and_flipped_files_are_rejected() {
        let b = sample(512).to_bytes();
        assert!(CampaignCkpt::from_bytes(&b[..b.len() - 3]).is_err());
        let mut flipped = b.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(CampaignCkpt::from_bytes(&flipped).is_err());
    }

    #[test]
    fn write_prune_and_resume_newest() {
        let dir = std::env::temp_dir().join(format!("socsim-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for t0 in [256u64, 512, 768, 1024] {
            write_checkpoint(&dir, 2, &sample(t0)).unwrap();
        }
        let mut names = list_checkpoints(&dir).unwrap();
        names.sort();
        assert_eq!(names, vec![file_name(768), file_name(1024)]);

        let fp = fingerprint("test-campaign");
        let (found, rejected) = latest_valid(&dir, fp);
        assert_eq!(found.unwrap().t0, 1024);
        assert_eq!(rejected, 0);

        // Corrupt the newest: resume falls back to the previous one.
        let newest = dir.join(file_name(1024));
        let mut data = std::fs::read(&newest).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        std::fs::write(&newest, &data).unwrap();
        let (found, rejected) = latest_valid(&dir, fp);
        assert_eq!(found.unwrap().t0, 768);
        assert_eq!(rejected, 1);

        // A different campaign sees nothing valid.
        let (found, rejected) = latest_valid(&dir, fingerprint("other"));
        assert!(found.is_none());
        assert_eq!(rejected, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
