//! The [`TwinEngine`]: durable, incrementally-extended fleet state with
//! counterfactual branches.
//!
//! The engine owns one accumulated fault log (the fleet's observed
//! history), its [`ReplayArrivals`] image, and a set of **branches** —
//! named `(OperatorPolicy, FleetCheckpoint)` pairs over that shared
//! arrival set. The `baseline` branch is created on the first ingest;
//! counterfactual branches are forked on demand. Every ingest *extends*
//! each branch over the newly complete shards
//! ([`arcc_fleet::extend_replay`]) instead of rerunning it, and every
//! stats query folds the pending partial tail shard on demand — so the
//! total simulation work of N ingests plus Q queries is N extensions
//! plus Q tail shards, never a rerun of the shared prefix (pinned by the
//! `serve.*` work counters of [`TwinEngine::metrics`]).
//!
//! With a state directory the engine is durable: segments are appended
//! as numbered files, branch checkpoints are written atomically
//! ([`FleetCheckpoint::write_atomic`]), and [`TwinEngine::open`] rebuilds
//! the engine from disk — re-validating every checkpoint against the
//! accumulated log's fingerprint and *refusing* (typed
//! [`ServeError::CheckpointMismatch`], never a panic) state that
//! belongs to a different history.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use arcc_exp::ExpError;
use arcc_fleet::{
    extend_replay, run_shard_replay, FleetCheckpoint, FleetSpec, FleetStats, OperatorPolicy,
    ReplayArrivals, ReplayError, DEFAULT_SHARD_CHANNELS,
};
use arcc_obs::{MetricsSnapshot, Recorder as _, SnapshotRecorder};
use arcc_replay::{FaultLog, SegmentError};

/// The reserved name of the branch every fleet starts with.
pub const BASELINE_BRANCH: &str = "baseline";

/// Typed service errors; each maps to one `error.kind` in the protocol.
#[derive(Debug)]
pub enum ServeError {
    /// An ingested segment violated the log/segment contract.
    Segment(SegmentError),
    /// The arrival set failed replay validation.
    Replay(ReplayError),
    /// A branch checkpoint does not belong to the accumulated log — a
    /// foreign, stale, or tampered checkpoint is refused, not extended.
    CheckpointMismatch {
        /// Fingerprint the checkpoint carries.
        expected: u64,
        /// Fingerprint of the prefix it claims to cover.
        found: u64,
    },
    /// A query named a branch that does not exist.
    UnknownBranch {
        /// The requested name.
        name: String,
    },
    /// A fork tried to reuse an existing branch name.
    DuplicateBranch {
        /// The requested name.
        name: String,
    },
    /// A branch name outside `[A-Za-z0-9_.:-]+`.
    BadBranchName {
        /// The offending name.
        name: String,
    },
    /// A policy token outside `none | replace-on-due | spare-pool:<n>`.
    BadPolicy {
        /// The offending token.
        token: String,
    },
    /// A query arrived before the first ingest: there is no fleet yet.
    NoFleet,
    /// A scenario run failed (unknown name, or the scenario panicked).
    Scenario(ExpError),
    /// A malformed request line or payload.
    Protocol {
        /// What was wrong.
        detail: String,
    },
    /// The state directory is unreadable or corrupt.
    State {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Segment(e) => write!(f, "segment rejected: {e}"),
            ServeError::Replay(e) => write!(f, "replay rejected: {e}"),
            ServeError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {expected:#x} does not match the \
                 ingested inventory's prefix {found:#x}"
            ),
            ServeError::UnknownBranch { name } => write!(f, "unknown branch {name:?}"),
            ServeError::DuplicateBranch { name } => {
                write!(f, "branch {name:?} already exists")
            }
            ServeError::BadBranchName { name } => write!(
                f,
                "branch name {name:?} must match [A-Za-z0-9_.:-]+ and not be reserved"
            ),
            ServeError::BadPolicy { token } => write!(
                f,
                "bad policy {token:?} (expected none, replace-on-due, or spare-pool:<n>)"
            ),
            ServeError::NoFleet => write!(f, "no fleet ingested yet"),
            ServeError::Scenario(e) => write!(f, "scenario failed: {e}"),
            ServeError::Protocol { detail } => write!(f, "bad request: {detail}"),
            ServeError::State { detail } => write!(f, "state directory: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Segment(e) => Some(e),
            ServeError::Replay(e) => Some(e),
            ServeError::Scenario(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SegmentError> for ServeError {
    fn from(e: SegmentError) -> Self {
        ServeError::Segment(e)
    }
}

impl From<ReplayError> for ServeError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::CheckpointMismatch { expected, actual } => {
                ServeError::CheckpointMismatch {
                    expected,
                    found: actual,
                }
            }
            other => ServeError::Replay(other),
        }
    }
}

/// Parses a protocol policy token.
///
/// # Errors
///
/// [`ServeError::BadPolicy`] for anything outside
/// `none | replace-on-due | spare-pool:<n>`.
pub fn parse_policy(token: &str) -> Result<OperatorPolicy, ServeError> {
    match token {
        "none" => Ok(OperatorPolicy::None),
        "replace-on-due" => Ok(OperatorPolicy::ReplaceOnDue),
        other => match other.strip_prefix("spare-pool:") {
            Some(n) => n
                .parse::<u32>()
                .map(|spares_per_10k| OperatorPolicy::SparePool { spares_per_10k })
                .map_err(|_| ServeError::BadPolicy {
                    token: token.to_string(),
                }),
            None => Err(ServeError::BadPolicy {
                token: token.to_string(),
            }),
        },
    }
}

/// The canonical token for a policy (inverse of [`parse_policy`]).
pub fn policy_token(policy: OperatorPolicy) -> String {
    match policy {
        OperatorPolicy::None => "none".to_string(),
        OperatorPolicy::ReplaceOnDue => "replace-on-due".to_string(),
        OperatorPolicy::SparePool { spares_per_10k } => {
            format!("spare-pool:{spares_per_10k}")
        }
    }
}

/// One counterfactual (or the baseline): a policy and the checkpoint of
/// its run over the shared arrival prefix.
#[derive(Debug, Clone)]
pub struct Branch {
    /// The branch's operator policy; every other spec knob is shared.
    pub policy: OperatorPolicy,
    spec: FleetSpec,
    ckpt: FleetCheckpoint,
}

impl Branch {
    /// Complete shards folded into this branch's checkpoint.
    pub fn shards_done(&self) -> u64 {
        self.ckpt.shards_done
    }

    /// Channels per shard in this branch's spec (shared by all branches).
    pub fn shard_channels(&self) -> u32 {
        self.spec.shard_channels
    }
}

/// A summary of one ingest, for the protocol response.
#[derive(Debug, Clone, Copy)]
pub struct IngestSummary {
    /// Channels the ingested segment added.
    pub segment_channels: u64,
    /// Fault events the ingested segment added.
    pub segment_events: u64,
    /// Accumulated channels after the ingest.
    pub channels: u64,
    /// Accumulated fault events after the ingest.
    pub events: u64,
    /// Complete shards every branch now covers.
    pub complete_shards: u64,
    /// Branches extended.
    pub branches: u64,
}

/// The long-lived digital twin (see the module docs).
#[derive(Debug)]
pub struct TwinEngine {
    threads: usize,
    seed: u64,
    shard: u32,
    state_dir: Option<PathBuf>,
    /// Segment files already on disk; the next ingest persists
    /// `segment-<this>.log`. Restored by [`Self::open`] from the files it
    /// replays, so a reopened engine appends after them instead of
    /// renumbering from zero (the in-session `serve.ingest.segments`
    /// counter resets across processes and must not drive durable file
    /// names).
    segments_persisted: u64,
    log: Option<FaultLog>,
    arrivals: ReplayArrivals,
    branches: BTreeMap<String, Branch>,
    /// Deterministic work metrics (`serve.*` plus the `replay.parse.*`
    /// counters of every absorbed segment): a pure function of the
    /// command sequence this process handled, independent of thread
    /// count and wall-clock. Resets with the process — a reopened
    /// durable engine re-counts the segments it replays from disk.
    obs: SnapshotRecorder,
}

impl TwinEngine {
    /// An ephemeral engine (no state directory): state lives and dies
    /// with the process. `threads` caps the extension parallelism and
    /// never affects results (the workspace determinism contract);
    /// `seed` is stamped into the replay spec and therefore into every
    /// checkpoint fingerprint.
    pub fn new(threads: usize, seed: u64) -> Self {
        Self {
            threads: threads.max(1),
            seed,
            shard: DEFAULT_SHARD_CHANNELS,
            state_dir: None,
            segments_persisted: 0,
            log: None,
            arrivals: empty_arrivals(),
            branches: BTreeMap::new(),
            obs: SnapshotRecorder::new(),
        }
    }

    /// Sets the checkpoint granularity (channels per shard). The shard
    /// size is part of every checkpoint fingerprint, so it must stay
    /// fixed for the life of a fleet — set it before the first ingest
    /// (durable engines stamp it into `twin.meta` and refuse to reopen
    /// under a different value).
    ///
    /// # Panics
    ///
    /// When `shard` is zero.
    pub fn shard_channels(mut self, shard: u32) -> Self {
        assert!(shard > 0, "shards must hold at least one channel");
        self.shard = shard;
        self
    }

    /// A durable engine rooted at `dir` (created if absent): replays the
    /// persisted segments, reloads every branch checkpoint, and extends
    /// any branch the last process crashed before checkpointing. A
    /// checkpoint that does not match the accumulated log — tampered
    /// state, or a file from a different fleet — is refused with
    /// [`ServeError::CheckpointMismatch`].
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] for unreadable/corrupt state files,
    /// [`ServeError::CheckpointMismatch`] for foreign checkpoints, plus
    /// any ingest-path error while replaying persisted segments.
    pub fn open(
        threads: usize,
        seed: u64,
        shard_channels: u32,
        dir: &Path,
    ) -> Result<Self, ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::State {
            detail: format!("cannot create {}: {e}", dir.display()),
        })?;
        let mut engine = Self::new(threads, seed).shard_channels(shard_channels);
        engine.state_dir = Some(dir.to_path_buf());
        engine.load_meta(dir)?;

        // Replay the persisted segments into the accumulated log.
        for index in 0.. {
            let path = dir.join(segment_file(index));
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => {
                    return Err(ServeError::State {
                        detail: format!("cannot read {}: {e}", path.display()),
                    });
                }
            };
            engine.absorb_segment(&text)?;
            engine.segments_persisted += 1;
        }

        // Reload the branch table (baseline is implicit on ingest, so a
        // missing table just means no branches were ever persisted).
        let listing = dir.join("branches.txt");
        let mut wanted: Vec<(String, OperatorPolicy)> = Vec::new();
        match std::fs::read_to_string(&listing) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let (name, token) = line.split_once(' ').ok_or_else(|| ServeError::State {
                        detail: format!("malformed branches.txt line {line:?}"),
                    })?;
                    wanted.push((name.to_string(), parse_policy(token)?));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if engine.log.is_some() {
                    wanted.push((BASELINE_BRANCH.to_string(), OperatorPolicy::None));
                }
            }
            Err(e) => {
                return Err(ServeError::State {
                    detail: format!("cannot read {}: {e}", listing.display()),
                });
            }
        }

        // Rebind each branch: load its checkpoint (or start fresh), then
        // extend over the accumulated arrivals. `extend_replay` is both
        // the validator (foreign checkpoints are a typed mismatch) and
        // the recovery path (a crash between segment write and
        // checkpoint write just re-runs the missing shards).
        for (name, policy) in wanted {
            let spec = engine.spec_for(policy)?;
            let ckpt = match FleetCheckpoint::load(&dir.join(branch_file(&name))) {
                Ok(Some(ckpt)) => ckpt,
                Ok(None) => FleetCheckpoint::start_twin(&spec, &engine.arrivals),
                Err(e) => {
                    return Err(ServeError::State {
                        detail: format!("branch {name:?}: {e}"),
                    });
                }
            };
            let before = ckpt.shards_done;
            let ckpt = extend_replay(engine.threads, &spec, &engine.arrivals, ckpt)?;
            engine
                .obs
                .counter_add("serve.shards_run", ckpt.shards_done - before);
            engine.branches.insert(name, Branch { policy, spec, ckpt });
        }
        engine.persist()?;
        Ok(engine)
    }

    /// Channels the accumulated log covers.
    pub fn channels(&self) -> u64 {
        self.arrivals.channels()
    }

    /// Fault events the accumulated log carries.
    pub fn events(&self) -> u64 {
        self.arrivals.total_events()
    }

    /// Complete shards every branch's checkpoint covers.
    pub fn complete_shards(&self) -> u64 {
        match self.branches.get(BASELINE_BRANCH) {
            Some(b) => b.ckpt.shards_done,
            None => 0,
        }
    }

    /// The engine's deterministic metric snapshot: the `serve.*` work
    /// counters and the `replay.parse.*` counters of every absorbed
    /// segment. The incremental contract is observable here: ingests
    /// advance `serve.shards_run` by the newly complete shards only, and
    /// a what-if over an existing branch advances it by at most the one
    /// pending tail shard. The protocol's `status` command reports
    /// `serve.ingest.segments`, `serve.forks`, `serve.queries` (stats
    /// queries answered by simulation), `serve.shards_run` and
    /// `serve.memo.hits` as its work counters.
    pub fn metrics(&self) -> &MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Notes a memo-table hit (the protocol layer owns the table).
    pub fn note_memo_hit(&mut self) {
        self.obs.counter_add("serve.memo.hits", 1);
    }

    /// Branch names in iteration (lexicographic) order.
    pub fn branch_names(&self) -> Vec<&str> {
        self.branches.keys().map(String::as_str).collect()
    }

    /// Looks up a branch.
    pub fn branch(&self, name: &str) -> Option<&Branch> {
        self.branches.get(name)
    }

    /// Ingests one fault-log segment (an `arcc-fault-log v1` document):
    /// appends its DIMMs to the accumulated log, extends every branch
    /// over the newly complete shards, and persists segment + checkpoints
    /// when durable. The first ingest creates the `baseline` branch
    /// (policy `none`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Segment`] for parse/contract violations (the engine
    /// is unchanged), [`ServeError::CheckpointMismatch`] when a branch
    /// checkpoint does not belong to the accumulated history.
    ///
    /// Only the `Segment` contract leaves the engine untouched: an error
    /// *after* the segment was absorbed (branch extension or a durable
    /// write) leaves the in-memory log ahead of the branches and/or the
    /// disk. Resynchronise by discarding an ephemeral engine, or by
    /// reopening a durable one — [`Self::open`] replays exactly the
    /// persisted segments and re-extends every branch from its last good
    /// checkpoint.
    pub fn ingest(&mut self, segment_text: &str) -> Result<IngestSummary, ServeError> {
        let before_channels = self.channels();
        let before_events = self.events();
        self.absorb_segment(segment_text)?;
        if self.branches.is_empty() {
            let spec = self.spec_for(OperatorPolicy::None)?;
            let ckpt = FleetCheckpoint::start_twin(&spec, &self.arrivals);
            self.branches.insert(
                BASELINE_BRANCH.to_string(),
                Branch {
                    policy: OperatorPolicy::None,
                    spec,
                    ckpt,
                },
            );
        }
        self.extend_branches()?;
        let summary = IngestSummary {
            segment_channels: self.channels() - before_channels,
            segment_events: self.events() - before_events,
            channels: self.channels(),
            events: self.events(),
            complete_shards: self.complete_shards(),
            branches: self.branches.len() as u64,
        };
        self.obs.counter_add("serve.ingest.segments", 1);
        self.obs
            .counter_add("serve.ingest.channels", summary.segment_channels);
        self.obs
            .counter_add("serve.ingest.events", summary.segment_events);
        self.obs
            .gauge_max("serve.branches", self.branches.len() as u64);
        self.persist_segment(segment_text)?;
        self.persist()?;
        Ok(summary)
    }

    /// Forks a new branch: the same fleet history under `policy`. Pays a
    /// one-time cold run of the covered prefix under the new policy;
    /// afterwards the branch extends incrementally like the baseline.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoFleet`] before the first ingest,
    /// [`ServeError::DuplicateBranch`] / [`ServeError::BadBranchName`]
    /// for naming violations.
    pub fn fork(&mut self, name: &str, policy: OperatorPolicy) -> Result<&Branch, ServeError> {
        if self.log.is_none() {
            return Err(ServeError::NoFleet);
        }
        if !valid_branch_name(name) {
            return Err(ServeError::BadBranchName {
                name: name.to_string(),
            });
        }
        if self.branches.contains_key(name) {
            return Err(ServeError::DuplicateBranch {
                name: name.to_string(),
            });
        }
        let spec = self.spec_for(policy)?;
        let ckpt = FleetCheckpoint::start_twin(&spec, &self.arrivals);
        let before = ckpt.shards_done;
        let ckpt = extend_replay(self.threads, &spec, &self.arrivals, ckpt)?;
        self.obs
            .counter_add("serve.shards_run", ckpt.shards_done - before);
        self.obs.counter_add("serve.forks", 1);
        self.branches
            .insert(name.to_string(), Branch { policy, spec, ckpt });
        self.obs
            .gauge_max("serve.branches", self.branches.len() as u64);
        self.persist()?;
        Ok(&self.branches[name])
    }

    /// The branch's fleet statistics over everything ingested so far:
    /// the checkpointed complete-shard prefix plus the pending partial
    /// tail shard, folded on demand (at most one shard of simulation).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoFleet`] before the first ingest,
    /// [`ServeError::UnknownBranch`] for an unknown name.
    pub fn stats(&mut self, branch: &str) -> Result<FleetStats, ServeError> {
        if self.log.is_none() {
            return Err(ServeError::NoFleet);
        }
        let b = self
            .branches
            .get(branch)
            .ok_or_else(|| ServeError::UnknownBranch {
                name: branch.to_string(),
            })?;
        let mut stats = b.ckpt.stats.clone();
        if b.ckpt.shards_done < b.spec.shard_count() {
            stats.merge(&run_shard_replay(
                &b.spec,
                b.ckpt.shards_done,
                &self.arrivals,
            ));
            self.obs.counter_add("serve.shards_run", 1);
        }
        self.obs.counter_add("serve.queries", 1);
        Ok(stats)
    }

    /// Answers a what-if: the fleet's statistics had it run under
    /// `policy`. Reuses the branch already running that policy when one
    /// exists (then only the tail shard is simulated); otherwise forks
    /// an anonymous `whatif:<policy>` branch first (the one-time cold
    /// prefix run). Returns the branch name used, the stats, and whether
    /// a fork happened.
    ///
    /// # Errors
    ///
    /// As for [`Self::fork`] and [`Self::stats`].
    pub fn whatif(
        &mut self,
        policy: OperatorPolicy,
    ) -> Result<(String, FleetStats, bool), ServeError> {
        if self.log.is_none() {
            return Err(ServeError::NoFleet);
        }
        let existing = self
            .branches
            .iter()
            .find(|(_, b)| b.policy == policy)
            .map(|(name, _)| name.clone());
        let (name, forked) = match existing {
            Some(name) => (name, false),
            None => {
                let name = format!("whatif:{}", policy_token(policy));
                self.fork(&name, policy)?;
                (name, true)
            }
        };
        let stats = self.stats(&name)?;
        Ok((name, stats, forked))
    }

    // --- internals ------------------------------------------------------

    /// Parses and appends a segment to the accumulated log + arrivals
    /// (no branch work, no persistence).
    fn absorb_segment(&mut self, text: &str) -> Result<(), ServeError> {
        match &mut self.log {
            None => {
                let log = FaultLog::parse_recorded(text, &mut self.obs)
                    .map_err(|e| ServeError::Segment(SegmentError::Parse(e)))?;
                let arrivals = log.arrivals()?;
                self.log = Some(log);
                self.arrivals = arrivals;
            }
            Some(log) => {
                let (populations, per_channel) =
                    log.ingest_segment_recorded(text, &mut self.obs)?;
                self.arrivals.extend(populations, per_channel)?;
            }
        }
        Ok(())
    }

    /// The shared replay spec under `policy`, covering the current
    /// channel count. Population weights are pinned to 1 so the spec
    /// fingerprint lineage depends only on the class table and channel
    /// count, not on how many DIMMs each class happens to hold (replay
    /// ignores weights; they only drive synthetic assignment).
    fn spec_for(&self, policy: OperatorPolicy) -> Result<FleetSpec, ServeError> {
        let log = self.log.as_ref().ok_or(ServeError::NoFleet)?;
        let mut spec = log
            .replay_spec(self.seed)
            .policy(policy)
            .shard_channels(self.shard);
        for p in &mut spec.populations {
            p.weight = 1.0;
        }
        Ok(spec)
    }

    /// Extends every branch over the current arrivals.
    fn extend_branches(&mut self) -> Result<(), ServeError> {
        let names: Vec<String> = self.branches.keys().cloned().collect();
        for name in names {
            let policy = self.branches[&name].policy;
            let spec = self.spec_for(policy)?;
            let ckpt = self.branches[&name].ckpt.clone();
            let before = ckpt.shards_done;
            let ckpt = extend_replay(self.threads, &spec, &self.arrivals, ckpt)?;
            self.obs
                .counter_add("serve.shards_run", ckpt.shards_done - before);
            if let Some(b) = self.branches.get_mut(&name) {
                b.spec = spec;
                b.ckpt = ckpt;
            }
        }
        Ok(())
    }

    fn load_meta(&mut self, dir: &Path) -> Result<(), ServeError> {
        let path = dir.join("twin.meta");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut lines = text.lines();
                if lines.next() != Some("arcc-serve-state v1") {
                    return Err(ServeError::State {
                        detail: format!("{} has an unknown header", path.display()),
                    });
                }
                for line in lines {
                    if let Some(seed) = line.strip_prefix("seed=") {
                        let seed: u64 = seed.parse().map_err(|_| ServeError::State {
                            detail: format!("bad seed in {}", path.display()),
                        })?;
                        if seed != self.seed {
                            return Err(ServeError::State {
                                detail: format!(
                                    "state was created with seed {seed}, not {}",
                                    self.seed
                                ),
                            });
                        }
                    }
                    if let Some(shard) = line.strip_prefix("shard=") {
                        let shard: u32 = shard.parse().map_err(|_| ServeError::State {
                            detail: format!("bad shard in {}", path.display()),
                        })?;
                        if shard != self.shard {
                            return Err(ServeError::State {
                                detail: format!(
                                    "state was created with {shard}-channel shards, not {}",
                                    self.shard
                                ),
                            });
                        }
                    }
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(ServeError::State {
                detail: format!("cannot read {}: {e}", path.display()),
            }),
        }
    }

    /// Appends the raw segment document to the state directory (before
    /// checkpoints are rewritten: a crash in between is recovered by
    /// [`Self::open`] re-extending from the last good checkpoint).
    fn persist_segment(&mut self, text: &str) -> Result<(), ServeError> {
        let Some(dir) = self.state_dir.clone() else {
            return Ok(());
        };
        write_atomic_text(&dir.join(segment_file(self.segments_persisted)), text)?;
        self.segments_persisted += 1;
        self.obs
            .counter_add("serve.persist.segment_bytes", text.len() as u64);
        Ok(())
    }

    /// Rewrites meta, branch table, and branch checkpoints.
    fn persist(&mut self) -> Result<(), ServeError> {
        let Some(dir) = &self.state_dir else {
            return Ok(());
        };
        write_atomic_text(
            &dir.join("twin.meta"),
            &format!(
                "arcc-serve-state v1\nseed={}\nshard={}\n",
                self.seed, self.shard
            ),
        )?;
        let mut listing = String::new();
        for (name, b) in &self.branches {
            listing.push_str(&format!("{name} {}\n", policy_token(b.policy)));
        }
        write_atomic_text(&dir.join("branches.txt"), &listing)?;
        let mut checkpoint_bytes = 0u64;
        for (name, b) in &self.branches {
            b.ckpt
                .write_atomic(&dir.join(branch_file(name)))
                .map_err(|e| ServeError::State {
                    detail: format!("cannot persist branch {name:?}: {e}"),
                })?;
            checkpoint_bytes += b.ckpt.text_bytes();
        }
        self.obs
            .counter_add("serve.persist.checkpoint_bytes", checkpoint_bytes);
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn corrupt_branch_fingerprint(&mut self, name: &str) {
        self.branches
            .get_mut(name)
            .expect("branch")
            .ckpt
            .fingerprint ^= 1;
    }
}

/// An arrival set covering zero channels (infallible by construction).
fn empty_arrivals() -> ReplayArrivals {
    match ReplayArrivals::new(Vec::new(), Vec::new()) {
        Ok(a) => a,
        // new() only fails on mismatched or malformed inputs; two empty
        // vectors are neither.
        Err(_) => unreachable!("empty arrival set is always valid"),
    }
}

fn valid_branch_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
}

fn segment_file(index: u64) -> String {
    format!("segment-{index:05}.log")
}

fn branch_file(name: &str) -> String {
    format!("branch-{name}.ckpt")
}

/// Atomic text write (tmp + fsync + rename + best-effort dir sync), the
/// same discipline as [`FleetCheckpoint::write_atomic`], for the
/// service's own state files.
fn write_atomic_text(path: &Path, text: &str) -> Result<(), ServeError> {
    let io_err = |e: std::io::Error| ServeError::State {
        detail: format!("cannot write {}: {e}", path.display()),
    };
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(text.as_bytes()).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
