//! The digital twin's acceptance goldens: incremental ingestion matches
//! one-shot replay bit for bit, what-ifs never rerun the shared prefix,
//! memoised responses are byte-identical, and durable state survives a
//! reopen but refuses tampering with a typed error.

use std::path::PathBuf;

use arcc_fleet::{run_replay, DimmPopulation, FleetSpec, OperatorPolicy};
use arcc_replay::generate_log;
use arcc_serve::{Service, TwinEngine, BASELINE_BRANCH};

const SHARD: u32 = 64;
const SEED: u64 = 0x7315;

/// A busy little fleet: 200 channels over 64-channel shards, split into
/// three uneven ingestion segments (the last one leaves a partial tail).
fn sample() -> (arcc_replay::FaultLog, Vec<String>) {
    let spec = FleetSpec::baseline(200)
        .populations(vec![
            DimmPopulation::paper("hot").rate_multiplier(60.0),
            DimmPopulation::paper("cold").rate_multiplier(10.0),
        ])
        .shard_channels(SHARD)
        .seed(0xFEED);
    let log = generate_log(&spec);
    // split_channels gives equal chunks; splitting twice gives the
    // uneven 90 + 80 + 30 arrival pattern a real fleet would see.
    let mut segments: Vec<String> = Vec::new();
    let halves = log.split_channels(90);
    segments.push(halves[0].to_text());
    let rest = &halves[1..];
    // 90 + 80 + 30: split the 90-channel second chunk into 80 + 10-joined-with-20.
    let second = rest[0].split_channels(80);
    segments.push(second[0].to_text());
    let mut tail = second[1].clone();
    if rest.len() > 1 {
        tail.append_segment(&rest[1]).expect("tail merge");
    }
    segments.push(tail.to_text());
    (log, segments)
}

fn ingest_all(engine: &mut TwinEngine, segments: &[String]) {
    for seg in segments {
        engine.ingest(seg).expect("ingest");
    }
}

#[test]
fn incremental_ingest_matches_one_shot_replay_bit_for_bit() {
    let (log, segments) = sample();
    let mut engine = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut engine, &segments);
    assert_eq!(engine.channels(), 200);
    assert_eq!(
        engine.complete_shards(),
        3,
        "200 channels over 64-channel shards"
    );

    let incremental = engine.stats(BASELINE_BRANCH).expect("stats");
    let one_shot = run_replay(
        2,
        &log.replay_spec(SEED).shard_channels(SHARD),
        &log.arrivals().expect("arrivals"),
    )
    .expect("one-shot replay");
    assert!(
        incremental.bitwise_eq(&one_shot),
        "incremental ingestion diverged from one-shot replay\n\
         incremental: {incremental:?}\none-shot: {one_shot:?}"
    );

    // The work ledger shows appends, not reruns: each complete shard was
    // simulated exactly once across all three ingests, plus the one
    // on-demand tail fold for the query.
    let m = engine.metrics();
    assert_eq!(m.counter("serve.ingest.segments"), 3);
    assert_eq!(m.counter("serve.shards_run"), 3 + 1);
    assert_eq!(m.counter("serve.queries"), 1);
}

#[test]
fn whatif_runs_only_divergent_work_and_memoises_bytes() {
    let (log, segments) = sample();
    let mut service = Service::new(TwinEngine::new(2, SEED).shard_channels(SHARD));
    for seg in &segments {
        let request = format!("ingest lines={}", seg.lines().count());
        let reply = service.handle(&request, Some(seg));
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    let shards_run = |s: &Service| s.engine().metrics().counter("serve.shards_run");
    let before = shards_run(&service);
    assert_eq!(before, 3, "three complete shards folded by ingestion");

    // Cold what-if: fork pays the divergent prefix (3 shards) plus the
    // tail fold — and nothing more. The shared baseline prefix is not
    // rerun (its 3 shards are already banked above).
    let cold = service.handle("whatif policy=replace-on-due", None);
    assert!(
        cold.starts_with("{\"ok\":true,\"cmd\":\"whatif\""),
        "{cold}"
    );
    let after_cold = shards_run(&service);
    assert_eq!(service.engine().metrics().counter("serve.forks"), 1);
    assert_eq!(after_cold - before, 3 + 1);

    // Re-issue: answered from the memo table byte-identically, with no
    // simulation at all.
    let warm = service.handle("whatif policy=replace-on-due", None);
    assert_eq!(cold, warm, "cached response must be byte-identical");
    assert_eq!(shards_run(&service), after_cold);
    assert_eq!(service.engine().metrics().counter("serve.memo.hits"), 1);

    // The counterfactual answer itself is the from-zero truth.
    let mut engine = TwinEngine::new(2, SEED).shard_channels(SHARD);
    for seg in &segments {
        engine.ingest(seg).expect("ingest");
    }
    let (_, via_twin, _) = engine.whatif(OperatorPolicy::ReplaceOnDue).expect("whatif");
    let from_zero = run_replay(
        2,
        &log.replay_spec(SEED)
            .policy(OperatorPolicy::ReplaceOnDue)
            .shard_channels(SHARD),
        &log.arrivals().expect("arrivals"),
    )
    .expect("from-zero replay");
    assert!(via_twin.bitwise_eq(&from_zero));
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arcc-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn reopened_state_appends_segments_without_renumbering() {
    let (_, segments) = sample();
    let dir = state_dir("append");

    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
        engine.ingest(&segments[0]).expect("ingest");
    }
    let seg0 = std::fs::read(dir.join("segment-00000.log")).expect("segment 0");

    // The first ingest after a reopen must number its segment file after
    // the replayed ones — reusing segment-00000.log would silently
    // corrupt the durable history.
    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("reopen");
        engine.ingest(&segments[1]).expect("ingest");
    }
    assert_eq!(
        std::fs::read(dir.join("segment-00000.log")).expect("segment 0"),
        seg0,
        "reopen + ingest must leave already-persisted segments untouched"
    );
    assert!(
        dir.join("segment-00001.log").exists(),
        "the post-reopen ingest must append the next segment file"
    );

    // A second reopen replays the uncorrupted two-segment history and
    // agrees with an ephemeral engine fed the same segments.
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("second reopen");
    assert_eq!(engine.channels(), 170);
    let reopened = engine.stats(BASELINE_BRANCH).expect("stats");
    let mut reference = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut reference, &segments[..2]);
    let expected = reference.stats(BASELINE_BRANCH).expect("stats");
    assert!(reopened.bitwise_eq(&expected));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_state_reopens_extends_and_refuses_tampering() {
    let (_, segments) = sample();
    let dir = state_dir("durable");

    // Session 1: ingest two segments, fork a counterfactual.
    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
        engine.ingest(&segments[0]).expect("ingest");
        engine.ingest(&segments[1]).expect("ingest");
        engine
            .fork(
                "pool",
                arcc_serve::parse_policy("spare-pool:50").expect("policy"),
            )
            .expect("fork");
    }

    // Session 2: everything is back, and ingestion picks up where the
    // last process stopped — for every branch.
    let stats_after_all = {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("reopen");
        assert_eq!(engine.channels(), 170);
        assert_eq!(
            engine.branch_names(),
            vec!["baseline", "pool"],
            "branch table survived the restart"
        );
        engine.ingest(&segments[2]).expect("ingest");
        engine.stats("pool").expect("stats")
    };

    // From-zero reference for the forked branch.
    let mut reference = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut reference, &segments);
    let (_, expected, _) = reference
        .whatif(arcc_serve::parse_policy("spare-pool:50").expect("policy"))
        .expect("whatif");
    assert!(stats_after_all.bitwise_eq(&expected));

    // A different seed is a different fleet: refused, typed.
    match TwinEngine::open(2, SEED + 1, SHARD, &dir) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("seed"), "{detail}");
        }
        other => panic!("foreign seed must be refused, got {other:?}"),
    }
    // A different shard size would re-grid every checkpoint: refused.
    match TwinEngine::open(2, SEED, SHARD * 2, &dir) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("shard"), "{detail}");
        }
        other => panic!("foreign shard size must be refused, got {other:?}"),
    }

    // Tamper with a persisted checkpoint: reopening refuses it as a
    // typed CheckpointMismatch instead of silently extending.
    let ckpt_path = dir.join("branch-pool.ckpt");
    let text = std::fs::read_to_string(&ckpt_path).expect("read checkpoint");
    let tampered: String = text
        .lines()
        .map(|line| {
            let line = match line.strip_prefix("fingerprint=0x") {
                Some(hex) => {
                    // Flip the last nibble so the value stays parseable.
                    let (head, last) = hex.split_at(hex.len() - 1);
                    let flipped = if last == "0" { "1" } else { "0" };
                    format!("fingerprint=0x{head}{flipped}")
                }
                None => line.to_string(),
            };
            format!("{line}\n")
        })
        .collect();
    assert_ne!(
        text, tampered,
        "fixture must actually change the fingerprint"
    );
    std::fs::write(&ckpt_path, tampered).expect("tamper");
    match TwinEngine::open(2, SEED, SHARD, &dir) {
        Err(arcc_serve::ServeError::CheckpointMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("tampered checkpoint must be refused, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
