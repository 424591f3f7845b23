//! Pre-zoo checkpoint compatibility.
//!
//! The scheme-zoo refactor added `scheme` and `large_fault_multiplier`
//! to [`DimmPopulation`]. Checkpoints identify their spec by
//! [`FleetSpec::fingerprint`], so these tests pin the fingerprints of
//! three specs that shipped *before* the zoo existed — if any pin moves,
//! every checkpoint written by an earlier release refuses to resume.

use arcc_fleet::{
    run_fleet, run_until, DimmPopulation, FleetCheckpoint, FleetSpec, OperatorPolicy,
};
use arcc_obs::NoopRecorder;

/// The mixed-population spec used by the `arcc-serve` golden session.
fn serve_mixed_spec() -> FleetSpec {
    FleetSpec::baseline(80)
        .populations(vec![
            DimmPopulation::paper("hot").rate_multiplier(55.0),
            DimmPopulation::paper("cold").rate_multiplier(12.0),
        ])
        .shard_channels(32)
        .seed(0xC0FFEE)
}

/// A spare-pool spec exercised by the PR 6 checkpoint tests.
fn sparepool_spec() -> FleetSpec {
    FleetSpec::baseline(4096)
        .years(3.0)
        .seed(99)
        .policy(OperatorPolicy::SparePool { spares_per_10k: 25 })
}

#[test]
fn pre_zoo_fingerprints_are_pinned() {
    // Captured on the commit immediately before the scheme-zoo refactor.
    assert_eq!(FleetSpec::baseline(1000).fingerprint(), 0x233bdbdd3aedf881);
    assert_eq!(serve_mixed_spec().fingerprint(), 0x77216f07ac8b409d);
    assert_eq!(sparepool_spec().fingerprint(), 0xd9571daf54fa78dc);
}

#[test]
fn pre_zoo_checkpoint_text_loads_and_resumes() {
    // A checkpoint written before the refactor is byte-identical to one
    // written today for the same (default-scheme) spec: same fingerprint,
    // same stats layout. Serialise a partial run, re-parse it, and resume
    // — and make sure the text really carries the pre-zoo fingerprint.
    let spec = serve_mixed_spec();
    let partial = run_until(
        2,
        &spec,
        None,
        FleetCheckpoint::start(&spec),
        1,
        &mut NoopRecorder,
    )
    .expect("partial run");
    assert_eq!(partial.shards_done, 1);
    let text = partial.to_text();
    assert!(
        text.contains(&format!("{:016x}", 0x77216f07ac8b409du64)),
        "checkpoint text must carry the pre-zoo fingerprint:\n{text}"
    );
    let reloaded = FleetCheckpoint::from_text(&text).expect("reload");
    let resumed = run_until(
        2,
        &spec,
        None,
        reloaded,
        spec.shard_count(),
        &mut NoopRecorder,
    )
    .expect("resume");
    assert_eq!(resumed.stats, run_fleet(2, &spec));
}

#[test]
fn zoo_specs_refuse_pre_zoo_checkpoints() {
    // The flip side: a population that *does* use a zoo scheme must not
    // accept a default-scheme checkpoint (the histories differ).
    let old = serve_mixed_spec();
    let ckpt = FleetCheckpoint::start(&old);
    let new = old.clone().populations(vec![
        DimmPopulation::paper("hot")
            .rate_multiplier(55.0)
            .scheme("sccdcd"),
        DimmPopulation::paper("cold").rate_multiplier(12.0),
    ]);
    assert!(!ckpt.matches(&new));
    assert!(run_until(2, &new, None, ckpt, 1, &mut NoopRecorder).is_err());
}
