//! The round-trip property that keeps the whole subsystem honest: a log
//! generated from a `FleetSpec`, serialised to text, parsed back, and
//! replayed through `ReplaySource` machinery reproduces the synthetic
//! engine's `FleetStats` — **bit-for-bit** under `OperatorPolicy::None`
//! (no redraw ever differs), and within the golden ±2pp tolerance on
//! DUE/SDC probabilities under repair policies (where synthetic mode
//! redraws arrivals for replaced DIMMs while replay redelivers the
//! observed stream). Replay must also survive checkpoint/resume.

use arcc_fleet::{
    run_fleet, run_replay, run_until, DimmPopulation, FleetCheckpoint, FleetSpec, FleetStats,
    OperatorPolicy,
};
use arcc_obs::NoopRecorder;
use arcc_replay::{fit_spec, generate_log, FaultLog};
use proptest::prelude::*;

/// The ISSUE's acceptance tolerance on DUE/SDC probability agreement.
const TOL_PP: f64 = 0.02;

fn hot_spec(channels: u64, mult: f64) -> FleetSpec {
    FleetSpec::baseline(channels)
        .populations(vec![DimmPopulation::paper("hot").rate_multiplier(mult)])
        .shard_channels(512)
        .seed(0x5EED)
}

/// Generate → to_text → parse → arrivals, the full ingestion pipeline.
fn ingest(spec: &FleetSpec) -> arcc_fleet::ReplayArrivals {
    let log = generate_log(spec);
    let parsed = FaultLog::parse(&log.to_text()).expect("generated logs always parse");
    assert_eq!(parsed, log, "text round trip must be lossless");
    parsed.arrivals().expect("parsed logs build valid arrivals")
}

#[test]
fn replay_of_generated_log_is_bit_identical_under_no_repair() {
    let spec = hot_spec(2_000, 8.0);
    let arrivals = ingest(&spec);
    let synthetic = run_fleet(4, &spec);
    assert!(synthetic.faults > 1_000, "need a busy fleet");
    let replayed = run_replay(4, &spec, &arrivals).expect("replay");
    assert!(
        synthetic.bitwise_eq(&replayed),
        "replay diverged from synthetic\nsynthetic: {synthetic:?}\nreplayed: {replayed:?}"
    );
    // Thread count must not matter either.
    let sequential = run_replay(1, &spec, &arrivals).expect("replay");
    assert!(synthetic.bitwise_eq(&sequential));
}

#[test]
fn replay_checkpoint_resume_round_trips_through_text() {
    let spec = hot_spec(1_500, 8.0);
    let arrivals = ingest(&spec);
    let full = run_replay(2, &spec, &arrivals).expect("replay");
    // Stop after one shard, round-trip the checkpoint through text, and
    // resume from the parsed copy.
    let half = run_until(
        2,
        &spec,
        Some(&arrivals),
        FleetCheckpoint::start_replay(&spec, &arrivals),
        1,
        &mut NoopRecorder,
    )
    .expect("prefix");
    assert_eq!(half.shards_done, 1);
    let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("checkpoint text");
    let resumed = run_until(
        2,
        &spec,
        Some(&arrivals),
        parsed,
        spec.shard_count(),
        &mut NoopRecorder,
    )
    .expect("resume");
    assert!(
        full.bitwise_eq(&resumed.stats),
        "replay resumed from a text checkpoint diverged"
    );
}

fn prob_close(a: &FleetStats, b: &FleetStats, what: &str) {
    for (name, pa, pb) in [
        ("fault", a.fault_probability(), b.fault_probability()),
        ("DUE", a.due_probability(), b.due_probability()),
        ("SDC", a.sdc_probability(), b.sdc_probability()),
    ] {
        assert!(
            (pa - pb).abs() <= TOL_PP,
            "{what}: {name} probability {pa:.4} vs {pb:.4}"
        );
    }
}

#[test]
fn replay_matches_synthetic_within_tolerance_under_repair_policies() {
    // Synthetic mode redraws a replaced DIMM's arrivals; replay
    // redelivers the observed stream. The runs are therefore only
    // statistically equal — but must stay inside the golden tolerance.
    for policy in [
        OperatorPolicy::ReplaceOnDue,
        OperatorPolicy::SparePool { spares_per_10k: 20 },
    ] {
        let spec = hot_spec(3_000, 30.0).policy(policy);
        let arrivals = ingest(&spec);
        let synthetic = run_fleet(4, &spec);
        let replayed = run_replay(4, &spec, &arrivals).expect("replay");
        assert!(synthetic.due_events > 0, "need DUEs to exercise {policy:?}");
        assert!(replayed.replacements > 0);
        prob_close(&synthetic, &replayed, policy.name());
        // Fault *arrivals* differ only by post-replacement redraws, so
        // the totals stay close in relative terms.
        let (fa, fb) = (synthetic.faults as f64, replayed.faults as f64);
        assert!(
            (fa - fb).abs() / fa < 0.05,
            "{}: faults {fa} vs {fb}",
            policy.name()
        );
    }
}

#[test]
fn fitted_spec_reproduces_log_statistics() {
    // Fit a synthetic fleet to a generated log, then compare the fitted
    // run's headline probabilities against the replayed log: the fitter
    // feeds the scenario registry's fleet_fit_vs_replay comparison.
    let truth = FleetSpec::baseline(4_000)
        .populations(vec![
            DimmPopulation::paper("cold_4x")
                .weight(0.7)
                .rate_multiplier(4.0),
            DimmPopulation::paper("hot_16x")
                .weight(0.3)
                .rate_multiplier(16.0),
        ])
        .seed(0xF17);
    let log = generate_log(&truth);
    let replayed = run_replay(4, &truth, &log.arrivals().expect("arrivals")).expect("replay");
    let fitted = fit_spec(&log, 0xD1FF);
    let synthetic = run_fleet(4, &fitted.spec);
    prob_close(&replayed, &synthetic, "fit-vs-replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The bit-exact round trip holds across random fleet shapes: any
    /// channel count, shard granularity, rate multiplier, scrub cadence,
    /// and seed — including multi-population mixes.
    #[test]
    fn roundtrip_is_bit_exact_for_random_fleets(
        channels in 64u64..700,
        shard_channels in prop_oneof![Just(64u32), Just(256), Just(4096)],
        mult_a in 0.0f64..25.0,
        mult_b in 0.0f64..25.0,
        scrub in prop_oneof![Just(2.0f64), Just(4.0), Just(12.0)],
        years in 1.0f64..9.0,
        seed in any::<u64>(),
    ) {
        let spec = FleetSpec::baseline(channels)
            .populations(vec![
                DimmPopulation::paper("a").rate_multiplier(mult_a).scrub_interval_h(scrub),
                DimmPopulation::paper("b").weight(0.5).rate_multiplier(mult_b),
            ])
            .shard_channels(shard_channels)
            .years(years)
            .seed(seed);
        let arrivals = ingest(&spec);
        let synthetic = run_fleet(2, &spec);
        let replayed = run_replay(2, &spec, &arrivals).expect("replay");
        prop_assert!(
            synthetic.bitwise_eq(&replayed),
            "replay diverged: synthetic {synthetic:?} vs replayed {replayed:?}"
        );
    }
}
