//! Checkpoint/resume of fleet runs at shard granularity.
//!
//! Shards are independent and merged in shard order, so the prefix of
//! merged shard aggregates *is* the engine's durable state: a
//! [`FleetCheckpoint`] records how many shards completed plus their merged
//! [`FleetStats`], guarded by the spec fingerprint. Resuming runs the
//! remaining shards and produces bit-identical results to an uninterrupted
//! run (pinned by the crate's tests).
//!
//! The serialisation is a hand-rolled, versioned `key=value` text format
//! (the build environment is offline — no serde), round-tripping floats
//! through their IEEE-754 bit patterns so checkpoints survive re-parsing
//! without rounding drift.

use std::fmt;
use std::io;
use std::path::Path;

use crate::source::ReplayArrivals;
use crate::spec::FleetSpec;
use crate::stats::{FleetStats, PopulationStats, MODE_COUNT};

/// A resumable fleet-run prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Fingerprint of the spec the prefix was computed under.
    pub fingerprint: u64,
    /// Shards completed (shard ids `0..shards_done`).
    pub shards_done: u64,
    /// Merged aggregate of the completed shards, in shard order.
    pub stats: FleetStats,
}

/// Errors parsing a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The text was not a valid checkpoint serialisation.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Errors persisting a checkpoint to (or loading one from) disk.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure reading or writing the checkpoint file.
    Io(io::Error),
    /// The file existed but was not a valid checkpoint.
    Parse(CheckpointError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint file I/O failed: {e}"),
            PersistError::Parse(e) => write!(f, "checkpoint file unreadable: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Parse(e) => Some(e),
        }
    }
}

impl FleetCheckpoint {
    /// The empty prefix for `spec` (nothing run yet).
    pub fn start(spec: &FleetSpec) -> Self {
        Self {
            fingerprint: spec.fingerprint(),
            shards_done: 0,
            stats: FleetStats::empty(spec.epochs(), spec.populations.len()),
        }
    }

    /// The empty prefix for a *replay* run of `arrivals` under `spec`:
    /// the fingerprint mixes both, so replay checkpoints never resume a
    /// synthetic run (or a different log) and vice versa.
    pub fn start_replay(spec: &FleetSpec, arrivals: &ReplayArrivals) -> Self {
        Self {
            fingerprint: arrivals.run_fingerprint(spec),
            shards_done: 0,
            stats: FleetStats::empty(spec.epochs(), spec.populations.len()),
        }
    }

    /// The empty prefix of an *incrementally extended* replay run (a
    /// digital twin whose log arrives in segments): stamped with the
    /// prefix run fingerprint over zero channels, which is what
    /// [`extend_replay`](crate::extend_replay) derives for a checkpoint
    /// with no shards done. Fork a twin onto a counterfactual spec by
    /// calling this with the same arrivals and a different policy —
    /// the next extension reruns the covered prefix under the new spec.
    pub fn start_twin(spec: &FleetSpec, arrivals: &ReplayArrivals) -> Self {
        Self {
            fingerprint: arrivals.run_fingerprint_prefix(spec, 0),
            shards_done: 0,
            stats: FleetStats::empty(spec.epochs(), spec.populations.len()),
        }
    }

    /// Does this checkpoint belong to `spec`?
    pub fn matches(&self, spec: &FleetSpec) -> bool {
        self.fingerprint == spec.fingerprint()
    }

    /// Writes the checkpoint to `path` atomically: the serialisation goes
    /// to a per-process `<path>.tmp.<pid>` sibling, is fsynced, and is
    /// renamed into place —
    /// so a crash (process kill, OS crash, power loss) leaves either the
    /// previous complete checkpoint or the new one, never a truncated
    /// file. (Without the fsync, journalling filesystems may persist the
    /// rename before the data blocks, leaving a zero-length file after
    /// power loss; [`Self::from_text`]'s end marker would refuse it, but
    /// resume would then demand manual cleanup.)
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error (the temporary file is not cleaned
    /// up on failure; the rename either happens fully or not at all).
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        use std::io::Write;
        // Per-process tmp name: if a supervisor restarts a run while the
        // presumed-dead predecessor is still flushing, the writers use
        // distinct tmp files and the last atomic rename wins intact —
        // never an interleaved, unparseable checkpoint.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.to_text().as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // Best-effort directory fsync so the rename itself is durable;
        // not all platforms/filesystems support syncing a directory
        // handle, and the data is already safe, so failures are ignored.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads a checkpoint from `path`; `Ok(None)` when the file does not
    /// exist (a fresh run), so callers can `load(...)?.unwrap_or_else(start)`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on read failures other than not-found,
    /// [`PersistError::Parse`] when the contents don't parse.
    pub fn load(path: &Path) -> Result<Option<Self>, PersistError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(PersistError::Io(e)),
        };
        Self::from_text(&text)
            .map(Some)
            .map_err(PersistError::Parse)
    }

    /// Serialises to the versioned text format.
    pub fn to_text(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str("arcc-fleet-checkpoint v2\n");
        out.push_str(&format!("fingerprint={:#x}\n", self.fingerprint));
        out.push_str(&format!("shards_done={}\n", self.shards_done));
        out.push_str(&format!("channels={}\n", s.channels));
        out.push_str(&format!("horizon_hours={:#x}\n", s.horizon_hours.to_bits()));
        out.push_str(&format!("channel_hours={:#x}\n", s.channel_hours.to_bits()));
        out.push_str(&format!("faults={}\n", s.faults));
        let modes: Vec<String> = s.faults_by_mode.iter().map(|m| m.to_string()).collect();
        out.push_str(&format!("faults_by_mode={}\n", modes.join(",")));
        out.push_str(&format!("transient_cleared={}\n", s.transient_cleared));
        out.push_str(&format!("detections={}\n", s.detections));
        out.push_str(&format!("due_events={}\n", s.due_events));
        out.push_str(&format!("sdc_channels={}\n", s.sdc_channels));
        out.push_str(&format!(
            "channels_with_faults={}\n",
            s.channels_with_faults
        ));
        out.push_str(&format!("channels_with_due={}\n", s.channels_with_due));
        out.push_str(&format!("channels_failed={}\n", s.channels_failed));
        out.push_str(&format!("replacements={}\n", s.replacements));
        out.push_str(&format!("spares_consumed={}\n", s.spares_consumed));
        out.push_str(&format!(
            "upgraded_page_mass={:#x}\n",
            s.upgraded_page_mass.to_bits()
        ));
        let epochs: Vec<String> = s
            .epoch_upgraded_hours
            .iter()
            .map(|h| format!("{:#x}", h.to_bits()))
            .collect();
        out.push_str(&format!("epoch_upgraded_hours={}\n", epochs.join(",")));
        let service: Vec<String> = s
            .epoch_service_hours
            .iter()
            .map(|h| format!("{:#x}", h.to_bits()))
            .collect();
        out.push_str(&format!("epoch_service_hours={}\n", service.join(",")));
        for (i, p) in s.populations.iter().enumerate() {
            out.push_str(&format!(
                "population.{i}={},{},{},{},{},{:#x}\n",
                p.channels,
                p.faults,
                p.due_events,
                p.sdc_channels,
                p.replacements,
                p.upgraded_page_mass.to_bits()
            ));
        }
        // Trailing marker: a truncated write (crash mid-flush) must not
        // parse as a smaller-but-valid checkpoint.
        out.push_str("end=1\n");
        out
    }

    /// Serialised size in bytes (`to_text().len()`): a deterministic
    /// function of the checkpoint contents, which is what lets the
    /// digital twin's `checkpoint.bytes` counter stay schedule-invariant.
    pub fn text_bytes(&self) -> u64 {
        self.to_text().len() as u64
    }

    /// Parses the text format produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        // v1 (pre-service-hours) checkpoints are refused rather than
        // silently resumed with a zeroed denominator histogram.
        if header != "arcc-fleet-checkpoint v2" {
            return Err(CheckpointError::Malformed(format!(
                "unknown header {header:?}"
            )));
        }
        let mut ckpt = FleetCheckpoint {
            fingerprint: 0,
            shards_done: 0,
            stats: FleetStats::default(),
        };
        let mut complete = false;
        for line in lines {
            if complete {
                return Err(CheckpointError::Malformed(format!(
                    "content after end marker: {line:?}"
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| CheckpointError::Malformed(format!("no '=' in {line:?}")))?;
            let s = &mut ckpt.stats;
            match key {
                "fingerprint" => ckpt.fingerprint = parse_u64(value)?,
                "shards_done" => ckpt.shards_done = parse_u64(value)?,
                "channels" => s.channels = parse_u64(value)?,
                "horizon_hours" => s.horizon_hours = f64::from_bits(parse_u64(value)?),
                "channel_hours" => s.channel_hours = f64::from_bits(parse_u64(value)?),
                "faults" => s.faults = parse_u64(value)?,
                "faults_by_mode" => {
                    let parts: Vec<u64> =
                        value.split(',').map(parse_u64).collect::<Result<_, _>>()?;
                    if parts.len() != MODE_COUNT {
                        return Err(CheckpointError::Malformed(format!(
                            "expected {MODE_COUNT} mode counters, got {}",
                            parts.len()
                        )));
                    }
                    s.faults_by_mode.copy_from_slice(&parts);
                }
                "transient_cleared" => s.transient_cleared = parse_u64(value)?,
                "detections" => s.detections = parse_u64(value)?,
                "due_events" => s.due_events = parse_u64(value)?,
                "sdc_channels" => s.sdc_channels = parse_u64(value)?,
                "channels_with_faults" => s.channels_with_faults = parse_u64(value)?,
                "channels_with_due" => s.channels_with_due = parse_u64(value)?,
                "channels_failed" => s.channels_failed = parse_u64(value)?,
                "replacements" => s.replacements = parse_u64(value)?,
                "spares_consumed" => s.spares_consumed = parse_u64(value)?,
                "upgraded_page_mass" => s.upgraded_page_mass = f64::from_bits(parse_u64(value)?),
                "epoch_upgraded_hours" => {
                    s.epoch_upgraded_hours = parse_f64_list(value)?;
                }
                "epoch_service_hours" => {
                    s.epoch_service_hours = parse_f64_list(value)?;
                }
                k if k.starts_with("population.") => {
                    let idx: usize = k["population.".len()..].parse().map_err(|_| {
                        CheckpointError::Malformed(format!("bad population index in {k:?}"))
                    })?;
                    let parts: Vec<&str> = value.split(',').collect();
                    if parts.len() != 6 {
                        return Err(CheckpointError::Malformed(format!(
                            "population line needs 6 fields, got {}",
                            parts.len()
                        )));
                    }
                    if s.populations.len() <= idx {
                        s.populations.resize(idx + 1, PopulationStats::default());
                    }
                    s.populations[idx] = PopulationStats {
                        channels: parse_u64(parts[0])?,
                        faults: parse_u64(parts[1])?,
                        due_events: parse_u64(parts[2])?,
                        sdc_channels: parse_u64(parts[3])?,
                        replacements: parse_u64(parts[4])?,
                        upgraded_page_mass: f64::from_bits(parse_u64(parts[5])?),
                    };
                }
                "end" => complete = true,
                other => {
                    return Err(CheckpointError::Malformed(format!("unknown key {other:?}")));
                }
            }
        }
        if !complete {
            return Err(CheckpointError::Malformed(
                "missing end marker (truncated checkpoint)".to_string(),
            ));
        }
        Ok(ckpt)
    }
}

fn parse_f64_list(value: &str) -> Result<Vec<f64>, CheckpointError> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|v| parse_u64(v).map(f64::from_bits))
        .collect()
}

fn parse_u64(v: &str) -> Result<u64, CheckpointError> {
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.map_err(|_| CheckpointError::Malformed(format!("bad integer {v:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DimmPopulation;
    use arcc_faults::HOURS_PER_YEAR;

    fn spec() -> FleetSpec {
        FleetSpec::baseline(2000)
            .population(DimmPopulation::paper("extra").weight(0.5))
            .shard_channels(512)
    }

    #[test]
    fn text_round_trip_is_exact() {
        let mut ckpt = FleetCheckpoint::start(&spec());
        ckpt.shards_done = 2;
        ckpt.stats.channels = 1024;
        ckpt.stats.channel_hours = 1024.0 * 61320.0 + 0.125;
        ckpt.stats.faults = 37;
        ckpt.stats.faults_by_mode[6] = 3;
        ckpt.stats.upgraded_page_mass = 0.123_456_789_012_345_67;
        ckpt.stats.epoch_upgraded_hours[3] = 1.0e-17;
        ckpt.stats.epoch_service_hours[2] = 512.0 * HOURS_PER_YEAR + 0.5;
        ckpt.stats.populations[1].faults = 12;
        ckpt.stats.populations[1].upgraded_page_mass = 3.25;
        let parsed = FleetCheckpoint::from_text(&ckpt.to_text()).expect("round trip");
        assert_eq!(parsed, ckpt);
        // Bit-exact float round trip, not just approximate.
        assert_eq!(
            parsed.stats.upgraded_page_mass.to_bits(),
            ckpt.stats.upgraded_page_mass.to_bits()
        );
        assert_eq!(ckpt.text_bytes(), ckpt.to_text().len() as u64);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            FleetCheckpoint::from_text("not a checkpoint"),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            FleetCheckpoint::from_text("arcc-fleet-checkpoint v2\nchannels=abc\n"),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            FleetCheckpoint::from_text("arcc-fleet-checkpoint v2\nmystery=1\n"),
            Err(CheckpointError::Malformed(_))
        ));
        // Pre-service-hours checkpoints are versioned out, not zero-filled.
        assert!(matches!(
            FleetCheckpoint::from_text("arcc-fleet-checkpoint v1\nend=1\n"),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_checkpoints_are_rejected() {
        let mut ckpt = FleetCheckpoint::start(&spec());
        ckpt.shards_done = 3;
        ckpt.stats.faults = 99;
        let text = ckpt.to_text();
        // Dropping any suffix of whole lines (a crash mid-write) must fail
        // to parse, never round-trip to a checkpoint with zeroed counters.
        let lines: Vec<&str> = text.lines().collect();
        for keep in 1..lines.len() {
            let truncated = lines[..keep].join("\n") + "\n";
            assert!(
                matches!(
                    FleetCheckpoint::from_text(&truncated),
                    Err(CheckpointError::Malformed(_))
                ),
                "truncation to {keep} lines parsed successfully"
            );
        }
        // Trailing garbage after the end marker is rejected too.
        let padded = text.clone() + "faults=1\n";
        assert!(FleetCheckpoint::from_text(&padded).is_err());
        assert_eq!(FleetCheckpoint::from_text(&text).unwrap(), ckpt);
    }

    #[test]
    fn write_atomic_round_trips_through_disk() {
        // The crash-safety path itself: write_atomic (tmp + fsync +
        // rename + dir sync) followed by load must reproduce the
        // checkpoint exactly, leave no tmp sibling behind, and replace
        // an existing file atomically rather than appending to it.
        let mut ckpt = FleetCheckpoint::start(&spec());
        ckpt.shards_done = 3;
        ckpt.stats.channels = 1536;
        ckpt.stats.channel_hours = 1536.0 * 61320.0 + 0.0625;
        ckpt.stats.faults = 41;
        ckpt.stats.populations[0].faults = 40;
        let path = std::env::temp_dir().join(format!(
            "arcc-fleet-{}-write-atomic.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        ckpt.write_atomic(&path).expect("write");
        let loaded = FleetCheckpoint::load(&path).expect("load").expect("exists");
        assert_eq!(loaded, ckpt);
        assert_eq!(
            loaded.stats.channel_hours.to_bits(),
            ckpt.stats.channel_hours.to_bits()
        );
        let tmp =
            std::path::PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
        assert!(!tmp.exists(), "tmp file must be renamed away");
        // Overwriting with a further-along checkpoint wins cleanly.
        let mut newer = ckpt.clone();
        newer.shards_done = 4;
        newer.stats.faults = 55;
        newer.write_atomic(&path).expect("overwrite");
        let reloaded = FleetCheckpoint::load(&path).expect("load").expect("exists");
        assert_eq!(reloaded, newer);
        // Garbage at the path is a parse error, never a silent restart.
        std::fs::write(&path, "definitely not a checkpoint").expect("write garbage");
        assert!(matches!(
            FleetCheckpoint::load(&path),
            Err(PersistError::Parse(_))
        ));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn fingerprint_guards_spec_identity() {
        let ckpt = FleetCheckpoint::start(&spec());
        assert!(ckpt.matches(&spec()));
        assert!(!ckpt.matches(&spec().seed(99)));
    }
}
