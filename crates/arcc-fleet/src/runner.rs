//! The sharded fleet runner: windowed parallel execution with a
//! streaming, shard-ordered merge.
//!
//! Shards execute on the workspace's deterministic
//! [`parallel_map`](arcc_core::parallel_map) (results collected in input
//! order), in bounded windows of `threads * WINDOW_FACTOR` shards: each
//! window's aggregates are folded into the running total before the next
//! window starts, so peak memory is `O(threads * shard_channels)` channel
//! states plus `O(threads)` shard aggregates — independent of fleet size.
//! Because the fold is always in shard order and every shard derives its
//! RNG streams from `cell_seed(spec.seed, shard)`, a parallel run is
//! byte-identical to a sequential one, and a resumed run byte-identical
//! to an uninterrupted one.

use arcc_core::parallel_map;
use arcc_obs::{MetricsSnapshot, NoopRecorder, Recorder, SnapshotRecorder};

use crate::checkpoint::FleetCheckpoint;
use crate::engine::ShardEngine;
use crate::source::{ReplayArrivals, ReplayError};
use crate::spec::FleetSpec;
use crate::stats::FleetStats;

/// Shards in flight per merge window, as a multiple of the worker count.
const WINDOW_FACTOR: usize = 4;

/// Runs one shard to completion (the unit the runner parallelises).
pub fn run_shard(spec: &FleetSpec, shard: u64) -> FleetStats {
    ShardEngine::new(spec, shard).run().0
}

/// Runs one shard in replay mode.
///
/// # Panics
///
/// `arrivals` must already be
/// [validated](ReplayArrivals::validate_for) against `spec` — an
/// arrival set covering fewer channels than the spec simulates panics
/// on an out-of-bounds channel lookup. The fleet-level entry points
/// ([`run_replay`], [`run_until`]) validate first and return a typed
/// [`ReplayError`] instead.
pub fn run_shard_replay(spec: &FleetSpec, shard: u64, arrivals: &ReplayArrivals) -> FleetStats {
    ShardEngine::new_replay(spec, shard, arrivals).run().0
}

/// Runs the whole fleet on up to `threads` workers and returns the merged
/// aggregate.
pub fn run_fleet(threads: usize, spec: &FleetSpec) -> FleetStats {
    let ckpt = FleetCheckpoint::start(spec);
    let all = spec.shard_count();
    span(threads, spec, None, ckpt, all, &mut NoopRecorder).stats
}

/// [`run_fleet`] plus a deterministic metric snapshot (`fleet.*` event
/// counts). The snapshot is schedule-invariant: any `threads` value
/// yields byte-identical metrics, and merging the snapshots of a split
/// run ([`run_until`] into a fresh recorder per call) reproduces the
/// one-shot snapshot — the same contract the stats themselves carry.
pub fn run_fleet_observed(threads: usize, spec: &FleetSpec) -> (FleetStats, MetricsSnapshot) {
    let ckpt = FleetCheckpoint::start(spec);
    let all = spec.shard_count();
    let mut rec = SnapshotRecorder::new();
    let done = span(threads, spec, None, ckpt, all, &mut rec);
    (done.stats, rec.into_snapshot())
}

/// Replays an observed arrival set through the fleet engine: logged
/// arrivals in `(time, seq)` order, detection/upgrade/policy simulated.
///
/// # Errors
///
/// Returns a [`ReplayError`] when `arrivals` does not cover `spec`'s
/// channels or names populations outside its mix.
pub fn run_replay(
    threads: usize,
    spec: &FleetSpec,
    arrivals: &ReplayArrivals,
) -> Result<FleetStats, ReplayError> {
    arrivals.validate_for(spec)?;
    let ckpt = FleetCheckpoint::start_replay(spec, arrivals);
    let all = spec.shard_count();
    Ok(span(threads, spec, Some(arrivals), ckpt, all, &mut NoopRecorder).stats)
}

/// The one general entry point: runs shards `[ckpt.shards_done, until)`
/// of a synthetic (`arrivals: None`) or replay run, records every shard's
/// [`EngineMetrics`](crate::EngineMetrics) into `rec` in shard order, and
/// returns the extended checkpoint. `until` is clamped to the shard
/// count, so feeding the result back in (with a larger `until`)
/// continues the same run, and `until = spec.shard_count()` resumes it
/// to completion. Start from [`FleetCheckpoint::start`] or
/// [`FleetCheckpoint::start_replay`]; pass [`NoopRecorder`] when no
/// metrics are wanted. `rec` sees only the shards this call ran, so the
/// snapshots of consecutive calls merge to the one-shot snapshot.
///
/// Durable progress is a loop around this call — resume from disk,
/// checkpoint every `n` shards:
///
/// ```
/// # use arcc_fleet::{run_fleet, run_until, FleetCheckpoint, FleetSpec};
/// # use arcc_obs::NoopRecorder;
/// # let spec = FleetSpec::baseline(3_000).shard_channels(1_000);
/// # let path = std::env::temp_dir().join(format!("arcc-doc-{}.ckpt", std::process::id()));
/// # let n = 1;
/// let mut ckpt = FleetCheckpoint::load(&path)?.unwrap_or_else(|| FleetCheckpoint::start(&spec));
/// while ckpt.shards_done < spec.shard_count() {
///     let until = ckpt.shards_done + n;
///     ckpt = run_until(2, &spec, None, ckpt, until, &mut NoopRecorder)?;
///     ckpt.write_atomic(&path)?;
/// }
/// # assert_eq!(ckpt.stats, run_fleet(2, &spec));
/// # std::fs::remove_file(&path)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`ReplayError::CheckpointMismatch`] when `ckpt` was produced under a
/// different spec, a different arrival set, or the other source (a
/// replay checkpoint never resumes a synthetic run, nor the reverse),
/// plus the [`run_replay`] validations of `arrivals`.
pub fn run_until(
    threads: usize,
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    ckpt: FleetCheckpoint,
    until: u64,
    rec: &mut dyn Recorder,
) -> Result<FleetCheckpoint, ReplayError> {
    let expected = match arrivals {
        Some(arrivals) => {
            arrivals.validate_for(spec)?;
            arrivals.run_fingerprint(spec)
        }
        None => spec.fingerprint(),
    };
    if ckpt.fingerprint != expected {
        return Err(ReplayError::CheckpointMismatch {
            expected: ckpt.fingerprint,
            actual: expected,
        });
    }
    let until = until.min(spec.shard_count());
    Ok(span(threads, spec, arrivals, ckpt, until, rec))
}

/// Extends a checkpointed replay run whose arrival set has *grown*
/// ([`ReplayArrivals::extend`]) since the checkpoint was taken: verifies
/// that `ckpt` is the prefix of `arrivals` it claims to be (the prefix
/// run fingerprint of its first `shards_done` shards), runs every newly
/// **complete** shard, and returns the checkpoint re-stamped for the new
/// covered prefix. Repeated calls as segments land cost the same total
/// simulation work as one one-shot [`run_replay`] of the final log.
///
/// The trailing partial shard — channels past the last complete shard
/// boundary — is deliberately *not* folded in: a shard's spare pool
/// couples its channels, so a partially populated shard cannot be run
/// now and topped up later. Aggregate the tail on demand with
/// [`run_shard_replay`] (shard id `ckpt.shards_done`) and merge it into
/// a *copy* of `ckpt.stats`; the digital-twin service in `arcc-serve`
/// does exactly that per query.
///
/// Start a fresh twin from [`FleetCheckpoint::start_twin`]; fork a
/// counterfactual by starting a twin under a different policy spec and
/// extending it over the same arrivals.
///
/// # Errors
///
/// [`ReplayError::CheckpointMismatch`] when `ckpt` does not carry the
/// prefix fingerprint of its `shards_done` shards over (`spec`,
/// `arrivals`) — a checkpoint from a different log or spec, or one
/// claiming more complete shards than the set holds (reported against
/// the full-set fingerprint) — plus the [`run_replay`] validations.
pub fn extend_replay(
    threads: usize,
    spec: &FleetSpec,
    arrivals: &ReplayArrivals,
    ckpt: FleetCheckpoint,
) -> Result<FleetCheckpoint, ReplayError> {
    arrivals.validate_for(spec)?;
    let shard = u64::from(spec.shard_channels);
    let complete = spec.channels / shard;
    if ckpt.shards_done > complete {
        return Err(ReplayError::CheckpointMismatch {
            expected: ckpt.fingerprint,
            actual: arrivals.run_fingerprint(spec),
        });
    }
    let expected = arrivals.run_fingerprint_prefix(spec, ckpt.shards_done * shard);
    if ckpt.fingerprint != expected {
        return Err(ReplayError::CheckpointMismatch {
            expected: ckpt.fingerprint,
            actual: expected,
        });
    }
    let mut ckpt = ckpt;
    ckpt.fingerprint = arrivals.run_fingerprint_prefix(spec, complete * shard);
    Ok(span(
        threads,
        spec,
        Some(arrivals),
        ckpt,
        complete,
        &mut NoopRecorder,
    ))
}

/// The runner's one shard loop: runs shards `[ckpt.shards_done, until)`
/// in windows and folds each shard's stats into `ckpt` and its
/// [`EngineMetrics`](crate::EngineMetrics) into `rec` — always in shard
/// order, so both the stats and the recorded snapshot are invariant to
/// `threads` and to how a run is split.
fn span(
    threads: usize,
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    mut ckpt: FleetCheckpoint,
    until: u64,
    rec: &mut dyn Recorder,
) -> FleetCheckpoint {
    let window = (threads.max(1) * WINDOW_FACTOR) as u64;
    while ckpt.shards_done < until {
        let hi = (ckpt.shards_done + window).min(until);
        let shards: Vec<u64> = (ckpt.shards_done..hi).collect();
        let results = parallel_map(threads, &shards, |_, &shard| {
            ShardEngine::build(spec, shard, arrivals).run()
        });
        for (stats, metrics) in &results {
            ckpt.stats.merge(stats);
            metrics.record_into(rec);
        }
        ckpt.shards_done = hi;
    }
    ckpt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DimmPopulation;

    fn spec() -> FleetSpec {
        // 5 shards, one partial; hot rates so every counter moves.
        FleetSpec::baseline(2_100)
            .populations(vec![DimmPopulation::paper("hot").rate_multiplier(8.0)])
            .shard_channels(512)
            .seed(0xBEEF)
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        let s = spec();
        let seq = run_fleet(1, &s);
        let par = run_fleet(8, &s);
        assert_eq!(seq, par);
        assert_eq!(
            seq.channel_hours.to_bits(),
            par.channel_hours.to_bits(),
            "float sums must fold in shard order regardless of parallelism"
        );
        assert_eq!(seq.channels, 2_100);
        assert!(seq.faults > 0);
    }

    #[test]
    fn fleet_equals_manual_shard_merge() {
        let s = spec();
        let fleet = run_fleet(4, &s);
        let mut manual = FleetStats::empty(s.epochs(), s.populations.len());
        for shard in 0..s.shard_count() {
            manual.merge(&run_shard(&s, shard));
        }
        assert_eq!(fleet, manual);
    }

    /// Synthetic [`run_until`] with no metrics recorded.
    fn until(threads: usize, s: &FleetSpec, ckpt: FleetCheckpoint, to: u64) -> FleetCheckpoint {
        run_until(threads, s, None, ckpt, to, &mut NoopRecorder).expect("synthetic span")
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let s = spec();
        let full = run_fleet(4, &s);
        // Stop after 2 shards, round-trip through text, resume.
        let half = until(4, &s, FleetCheckpoint::start(&s), 2);
        assert_eq!(half.shards_done, 2);
        let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("round trip");
        let resumed = until(4, &s, parsed, s.shard_count());
        assert_eq!(resumed.stats, full);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let s = spec();
        let ckpt = FleetCheckpoint::start(&s.clone().seed(1));
        assert!(matches!(
            run_until(1, &s, None, ckpt, s.shard_count(), &mut NoopRecorder),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn until_clamps_to_shard_count() {
        let s = spec();
        let done = until(2, &s, FleetCheckpoint::start(&s), 999);
        assert_eq!(done.shards_done, s.shard_count());
        assert_eq!(done.stats, run_fleet(2, &s));
    }

    use arcc_faults::montecarlo::FaultSampler;
    use arcc_faults::{FaultGeometry, FitRates};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Hand-built observed arrivals: `faults_at[c]` lists channel `c`'s
    /// arrival times.
    fn arrivals_at(channels: u64, faults_at: &[(u64, &[f64])]) -> ReplayArrivals {
        let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut per_channel = vec![Vec::new(); channels as usize];
        let mut rng = StdRng::seed_from_u64(0xD1A6);
        for (c, times) in faults_at {
            for &t in *times {
                per_channel[*c as usize].push(sampler.draw_fault(&mut rng, t));
            }
        }
        ReplayArrivals::new(vec![0; channels as usize], per_channel).expect("valid arrivals")
    }

    #[test]
    fn replay_delivers_logged_arrivals_and_truncates_at_horizon() {
        // 700 channels over 2 shards; three observed faults, one of them
        // past the 7-year horizon (must be ignored, not an error).
        let s = FleetSpec::baseline(700).shard_channels(512).seed(3);
        let horizon = s.horizon_hours();
        let arrivals = arrivals_at(700, &[(3, &[100.0, 2000.0]), (600, &[50.0, horizon + 5.0])]);
        let stats = run_replay(2, &s, &arrivals).expect("replay");
        assert_eq!(stats.channels, 700);
        assert_eq!(stats.faults, 3, "in-horizon logged arrivals only");
        assert_eq!(stats.channels_with_faults, 2);
        assert_eq!(stats.populations[0].channels, 700);
        // Replay is deterministic and independent of the thread count.
        let again = run_replay(1, &s, &arrivals).expect("replay");
        assert!(stats.bitwise_eq(&again));
    }

    #[test]
    fn replay_checkpoint_round_trips_and_refuses_synthetic() {
        let s = FleetSpec::baseline(700).shard_channels(256).seed(9);
        let arrivals = arrivals_at(700, &[(1, &[10.0, 11.0, 12.0]), (400, &[99.5])]);
        let full = run_replay(2, &s, &arrivals).expect("replay");
        let replay_until = |ckpt: FleetCheckpoint, to: u64| {
            run_until(2, &s, Some(&arrivals), ckpt, to, &mut NoopRecorder)
        };
        let half = replay_until(FleetCheckpoint::start_replay(&s, &arrivals), 1).expect("prefix");
        assert_eq!(half.shards_done, 1);
        let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("round trip");
        let resumed = replay_until(parsed, s.shard_count()).expect("resume");
        assert!(resumed.stats.bitwise_eq(&full));
        // A synthetic checkpoint must not resume a replay run...
        assert!(matches!(
            replay_until(FleetCheckpoint::start(&s), s.shard_count()),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        // ...nor a replay checkpoint a synthetic one...
        assert!(matches!(
            run_until(1, &s, None, half, s.shard_count(), &mut NoopRecorder),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        // ...and a replay set of the wrong width is refused outright.
        let narrow = arrivals_at(500, &[]);
        assert!(matches!(
            run_replay(1, &s, &narrow),
            Err(ReplayError::ChannelCountMismatch {
                spec: 700,
                arrivals: 500
            })
        ));
    }

    #[test]
    fn incremental_extension_matches_one_shot_replay() {
        // A 700-channel log lands in three segments (300 + 250 + 150)
        // over 256-channel shards; extending after each segment must
        // reproduce the one-shot replay bit for bit, running each
        // complete shard exactly once.
        let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut rng = StdRng::seed_from_u64(0x7117);
        let mut stream = |n: usize, faults: &[(usize, f64)]| {
            let mut per = vec![Vec::new(); n];
            for &(c, t) in faults {
                per[c].push(sampler.draw_fault(&mut rng, t));
            }
            per
        };
        let seg_a = stream(300, &[(3, 100.0), (3, 2000.0), (120, 50.0)]);
        let seg_b = stream(250, &[(10, 7.0), (200, 30_000.0)]);
        let seg_c = stream(150, &[(0, 1.5), (149, 61_000.0)]);
        let spec_for = |channels: u64| FleetSpec::baseline(channels).shard_channels(256).seed(21);

        // One-shot ground truth over the concatenated log.
        let mut all = seg_a.clone();
        all.extend(seg_b.iter().cloned());
        all.extend(seg_c.iter().cloned());
        let full_spec = spec_for(700);
        let oneshot = ReplayArrivals::new(vec![0; 700], all).expect("arrivals");
        let truth = run_replay(2, &full_spec, &oneshot).expect("one-shot");

        // Incremental: start a twin, extend per segment.
        let mut arrivals = ReplayArrivals::new(Vec::new(), Vec::new()).expect("empty");
        let mut ckpt = FleetCheckpoint::start_twin(&spec_for(0), &arrivals);
        let mut shard_runs = Vec::new();
        for seg in [seg_a, seg_b, seg_c] {
            let n = seg.len();
            arrivals.extend(vec![0; n], seg).expect("extend arrivals");
            let spec = spec_for(arrivals.channels());
            ckpt = extend_replay(2, &spec, &arrivals, ckpt).expect("extend replay");
            shard_runs.push(ckpt.shards_done);
        }
        // 300 → 1 complete shard, 550 → 2, 700 → 2 (tail of 188 pending).
        assert_eq!(shard_runs, vec![1, 2, 2]);
        // Fold the pending tail shard on demand.
        let mut stats = ckpt.stats.clone();
        stats.merge(&run_shard_replay(&full_spec, ckpt.shards_done, &oneshot));
        assert!(stats.bitwise_eq(&truth), "incremental != one-shot");

        // Counterfactual fork: a twin under a different policy, extended
        // over the same arrivals, equals that policy's one-shot replay.
        let forked_spec = full_spec
            .clone()
            .policy(crate::spec::OperatorPolicy::ReplaceOnDue);
        let fork = FleetCheckpoint::start_twin(&forked_spec, &arrivals);
        let fork = extend_replay(2, &forked_spec, &arrivals, fork).expect("fork extend");
        let mut fork_stats = fork.stats.clone();
        fork_stats.merge(&run_shard_replay(&forked_spec, fork.shards_done, &oneshot));
        let fork_truth = run_replay(2, &forked_spec, &oneshot).expect("fork one-shot");
        assert!(fork_stats.bitwise_eq(&fork_truth));
    }

    #[test]
    fn extend_refuses_foreign_and_overrun_checkpoints() {
        let arrivals = arrivals_at(700, &[(1, &[10.0]), (400, &[99.5])]);
        let s = FleetSpec::baseline(700).shard_channels(256).seed(5);
        // A twin from a different seed is a typed mismatch, not a panic.
        let foreign = FleetCheckpoint::start_twin(&s.clone().seed(6), &arrivals);
        assert!(matches!(
            extend_replay(1, &s, &arrivals, foreign),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        // A checkpoint claiming more complete shards than the arrival
        // set holds is refused the same way.
        let mut overrun = FleetCheckpoint::start_twin(&s, &arrivals);
        overrun.shards_done = 99;
        assert!(matches!(
            extend_replay(1, &s, &arrivals, overrun),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        // A fully-extended checkpoint extends again as a no-op.
        let ckpt = extend_replay(2, &s, &arrivals, FleetCheckpoint::start_twin(&s, &arrivals))
            .expect("extend");
        assert_eq!(ckpt.shards_done, 2);
        let again = extend_replay(2, &s, &arrivals, ckpt.clone()).expect("re-extend");
        assert_eq!(again, ckpt);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("arcc-fleet-{}-{name}", std::process::id()))
    }

    /// The documented durable loop: load the checkpoint at `path` (or
    /// start fresh), then [`run_until`] `n` shards at a time, writing the
    /// checkpoint after each step. The first step always runs, so a
    /// finished file is still checked against `s` and `arrivals`.
    fn run_on_disk(
        threads: usize,
        s: &FleetSpec,
        arrivals: Option<&ReplayArrivals>,
        path: &std::path::Path,
        n: u64,
    ) -> Result<FleetStats, Box<dyn std::error::Error>> {
        let start = || match arrivals {
            Some(arrivals) => FleetCheckpoint::start_replay(s, arrivals),
            None => FleetCheckpoint::start(s),
        };
        let mut ckpt = FleetCheckpoint::load(path)?.unwrap_or_else(start);
        loop {
            let until = ckpt.shards_done + n;
            ckpt = run_until(threads, s, arrivals, ckpt, until, &mut NoopRecorder)?;
            ckpt.write_atomic(path)?;
            if ckpt.shards_done == s.shard_count() {
                return Ok(ckpt.stats);
            }
        }
    }

    fn is_mismatch(e: &(dyn std::error::Error + 'static)) -> bool {
        matches!(
            e.downcast_ref::<ReplayError>(),
            Some(ReplayError::CheckpointMismatch { .. })
        )
    }

    #[test]
    fn checkpointed_run_persists_and_resumes_from_disk() {
        let s = spec();
        let path = temp_path("persist.ckpt");
        let _ = std::fs::remove_file(&path);
        let full = run_fleet(4, &s);
        // A "killed" run: two shards done, checkpoint flushed to disk.
        let partial = until(4, &s, FleetCheckpoint::start(&s), 2);
        partial.write_atomic(&path).expect("write");
        // The fresh process picks the file up and finishes the run.
        let resumed = run_on_disk(4, &s, None, &path, 1).expect("resume from disk");
        assert_eq!(resumed, full);
        // The file now holds the complete run; running again is a no-op
        // that returns the same stats.
        let done = FleetCheckpoint::load(&path).expect("load").expect("exists");
        assert_eq!(done.shards_done, s.shard_count());
        let again = run_on_disk(4, &s, None, &path, 3).expect("finished run");
        assert_eq!(again, full);
        // A different spec must refuse the file, not silently restart.
        let err = run_on_disk(1, &s.clone().seed(1), None, &path, 1).expect_err("mismatch");
        assert!(is_mismatch(err.as_ref()), "{err}");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn checkpointed_run_from_scratch_matches_and_gates_garbage() {
        let s = spec();
        let path = temp_path("scratch.ckpt");
        let _ = std::fs::remove_file(&path);
        let stats = run_on_disk(2, &s, None, &path, 2).expect("fresh run");
        assert_eq!(stats, run_fleet(2, &s));
        // No stray temporary file is left behind.
        let tmp =
            std::path::PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
        assert!(!tmp.exists(), "atomic write must rename its tmp file away");
        // Garbage at the path is a parse error, never a silent restart.
        std::fs::write(&path, "definitely not a checkpoint").expect("write garbage");
        let err = run_on_disk(1, &s, None, &path, 1).expect_err("garbage");
        assert!(
            matches!(
                err.downcast_ref::<crate::checkpoint::PersistError>(),
                Some(crate::checkpoint::PersistError::Parse(_))
            ),
            "{err}"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn replay_checkpointed_run_persists_with_mixed_fingerprint() {
        let s = FleetSpec::baseline(700).shard_channels(256).seed(11);
        let arrivals = arrivals_at(700, &[(2, &[40.0]), (300, &[1.0, 2.0])]);
        let path = temp_path("replay.ckpt");
        let _ = std::fs::remove_file(&path);
        let direct = run_replay(2, &s, &arrivals).expect("replay");
        let persisted = run_on_disk(2, &s, Some(&arrivals), &path, 1).expect("persisted");
        assert!(direct.bitwise_eq(&persisted));
        // A synthetic run must refuse the replay checkpoint file.
        let err = run_on_disk(1, &s, None, &path, 1).expect_err("mismatch");
        assert!(is_mismatch(err.as_ref()), "{err}");
        std::fs::remove_file(&path).expect("cleanup");
    }
}
