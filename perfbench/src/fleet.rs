//! `fleet_scale`: a synthetic `FleetSpec::baseline` fleet through
//! `run_fleet`, then a generated fault log, serialised during set-up,
//! through `FaultLog::parse` -> `arrivals()` -> `run_replay`.

use std::collections::BTreeMap;

use arcc_fleet::{
    run_fleet, run_fleet_observed, run_replay, run_shard, FleetSpec, FleetStats, OperatorPolicy,
};
use arcc_obs::{MetricsSnapshot, SnapshotRecorder};
use arcc_replay::{generate_log, FaultLog};

use crate::digest;
use crate::run::{derive, timed, Ctx, Pipeline, Scale};
use crate::stats::{median, median_sum};

/// Channels of the synthetic fleet and of the generated log.
fn sizes(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (20_000_000, 1_000_000),
        Scale::Companion => (5_000_000, 200_000),
    }
}

/// The generated inputs: the synthetic spec, and the log's spec with the
/// log already serialised to text.
pub struct Inputs {
    spec: FleetSpec,
    log_spec: FleetSpec,
    text: String,
}

pub fn setup(seed: u64, scale: Scale) -> Inputs {
    let (channels, log_channels) = sizes(scale);
    let log_spec = FleetSpec::baseline(log_channels).seed(derive(seed, 4));
    let text = generate_log(&log_spec).to_text();
    Inputs {
        // Replace-on-DUE retires channels mid-run, so the engine's stale-event
        // path runs too; the log spec keeps the default policy, under which
        // replay is bit-identical to the synthetic run.
        spec: FleetSpec::baseline(channels)
            .seed(derive(seed, 3))
            .policy(OperatorPolicy::ReplaceOnDue),
        log_spec,
        text,
    }
}

fn stats_digest(stats: &FleetStats) -> u64 {
    digest::of(format!("{stats:?}").as_bytes())
}

/// The pipeline: `fleet_ch_per_s` and `replay_ch_per_s` end to end;
/// output checks; in a traced run also the engine, runner, recorder and
/// replay-layer figures.
pub struct Fleet<'a> {
    inputs: &'a Inputs,
    fleet_walls: Vec<f64>,
    /// Wall seconds of the replay's parse, CSR and run phases, one per
    /// iteration each; `replay_ch_per_s` rests on the sum of their
    /// medians.
    replay_walls: [Vec<f64>; 3],
    /// Median `run_fleet` wall of the last report, for the speed-up and
    /// recorder-overhead ratios.
    last_fleet_wall: f64,
    /// The synthetic and replayed statistics of the first iteration.
    reference: Option<(FleetStats, FleetStats)>,
}

impl<'a> Fleet<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Self {
            inputs,
            fleet_walls: Vec::new(),
            replay_walls: Default::default(),
            last_fleet_wall: f64::NAN,
            reference: None,
        }
    }
}

impl Pipeline for Fleet<'_> {
    fn iteration(&mut self, ctx: &mut Ctx) {
        let threads = ctx.threads;
        let Inputs {
            spec,
            log_spec,
            text,
        } = self.inputs;
        let mut phases = [0.0; 3];
        let ((fleet_s, synthetic), replayed) = ctx.tracer.span("fleet.iteration", |tracer| {
            let fleet = timed(|| tracer.span("fleet.run_fleet", |_| run_fleet(threads, spec)));
            let replay = tracer.span("replay.pipeline", |tracer| {
                let (parse_s, log) =
                    timed(|| tracer.span("replay.parse", |_| FaultLog::parse(text)));
                let (csr_s, arrivals) = timed(|| {
                    tracer.span("replay.csr", |_| {
                        log.map_err(|e| e.to_string())
                            .and_then(|log| log.arrivals().map_err(|e| e.to_string()))
                    })
                });
                let (run_s, stats) = timed(|| {
                    tracer.span("replay.run", |_| {
                        arrivals.and_then(|a| {
                            run_replay(threads, log_spec, &a).map_err(|e| e.to_string())
                        })
                    })
                });
                phases = [parse_s, csr_s, run_s];
                stats
            });
            (fleet, replay)
        });
        self.fleet_walls.push(fleet_s);
        for (walls, secs) in self.replay_walls.iter_mut().zip(phases) {
            walls.push(secs);
        }
        // Two operations: the synthetic run (which cannot fail short of a
        // panic) and the replay.
        ctx.check(true, String::new);
        let replayed = match replayed {
            Ok(stats) => stats,
            Err(e) => {
                ctx.check(false, || format!("replay of the generated log failed: {e}"));
                return;
            }
        };
        ctx.check(true, String::new);
        ctx.repeat_counts(BTreeMap::from([
            ("fleet.digest".to_string(), stats_digest(&synthetic)),
            ("replay.digest".to_string(), stats_digest(&replayed)),
        ]));
        self.reference.get_or_insert((synthetic, replayed));
    }

    fn report(&mut self, ctx: &mut Ctx) -> f64 {
        let (fleet, replay) = (median(&self.fleet_walls), median_sum(&self.replay_walls));
        let Inputs { spec, log_spec, .. } = self.inputs;
        ctx.end_to_end(
            "fleet_ch_per_s",
            spec.channels as f64 / fleet,
            "1/s",
            self.fleet_walls.len(),
        );
        ctx.end_to_end(
            "replay_ch_per_s",
            log_spec.channels as f64 / replay,
            "1/s",
            self.replay_walls[0].len(),
        );
        self.fleet_walls.clear();
        self.replay_walls = Default::default();
        self.last_fleet_wall = fleet;
        fleet + replay
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        if let Some((synthetic, replayed)) = self.reference.take() {
            checks(
                ctx,
                self.inputs,
                &synthetic,
                &replayed,
                self.last_fleet_wall,
            );
        }
    }

    fn root_span(&self) -> &'static str {
        "fleet.iteration"
    }
}

fn checks(
    ctx: &mut Ctx,
    inputs: &Inputs,
    synthetic: &FleetStats,
    replayed: &FleetStats,
    fleet_wall: f64,
) {
    let threads = ctx.threads;
    let Inputs {
        spec,
        log_spec,
        text,
    } = inputs;
    // Output checks, run once: the recorder leaves results untouched, the
    // shard-by-shard sequential merge equals the parallel run, and the
    // replayed log equals the synthetic run of its own spec.
    let (observed_s, (observed, snapshot)) = timed(|| run_fleet_observed(threads, spec));
    ctx.check(observed.bitwise_eq(synthetic), || {
        "run_fleet_observed differs from run_fleet".to_string()
    });
    let mut merged = FleetStats::empty(spec.epochs(), spec.populations.len());
    let mut shard_walls = Vec::new();
    let (sequential_s, ()) = timed(|| {
        for shard in 0..spec.shard_count() {
            let (s, stats) = timed(|| run_shard(spec, shard));
            shard_walls.push(s);
            merged.merge(&stats);
        }
    });
    ctx.check(merged.bitwise_eq(synthetic), || {
        format!("sequential shard merge differs from run_fleet at {threads} threads")
    });
    ctx.check(run_fleet(threads, log_spec).bitwise_eq(replayed), || {
        "replay of the generated log differs from the synthetic run of its spec".to_string()
    });
    let mut rec = SnapshotRecorder::new();
    let parsed = FaultLog::parse_recorded(text, &mut rec);
    ctx.check(parsed.is_ok(), || {
        "parse_recorded refused the log".to_string()
    });
    let lines = rec.snapshot().counter("replay.parse.lines");
    let counter = |name: &str| snapshot.counter(name);
    let mut counts = BTreeMap::new();
    for name in [
        "fleet.events.scheduled",
        "fleet.events.popped",
        "fleet.events.stale_dropped",
        "fleet.bypass.hits",
        "fleet.bypass.misses",
        "fleet.compactions",
    ] {
        counts.insert(name.to_string(), counter(name));
    }
    counts.insert(
        "fleet.queue.peak".to_string(),
        gauge(&snapshot, "fleet.queue.peak"),
    );
    counts.insert("replay.lines_parsed".to_string(), lines);
    ctx.repeat_counts(counts);

    if ctx.traced {
        let popped = counter("fleet.events.popped");
        let (hits, misses) = (counter("fleet.bypass.hits"), counter("fleet.bypass.misses"));
        let shards = shard_walls.len();
        ctx.per_layer(
            "fleet.engine.ch_per_s_t1",
            spec.channels as f64 / sequential_s,
            "1/s",
            1,
        );
        ctx.per_layer(
            "fleet.ns_per_event",
            sequential_s * 1e9 / popped as f64,
            "ns",
            1,
        );
        ctx.per_layer(
            "fleet.shard_ms_p50",
            median(&shard_walls) * 1e3,
            "ms",
            shards,
        );
        let max = shard_walls.iter().copied().fold(0.0, f64::max);
        ctx.per_layer("fleet.shard_ms_max", max * 1e3, "ms", shards);
        ctx.per_layer(
            "fleet.runner.speedup",
            sequential_s / fleet_wall,
            "ratio",
            1,
        );
        ctx.per_layer("fleet.events_popped", popped as f64, "count", 1);
        ctx.per_layer(
            "fleet.bypass_ratio",
            hits as f64 / (hits + misses) as f64,
            "ratio",
            1,
        );
        ctx.per_layer(
            "fleet.stale_dropped",
            counter("fleet.events.stale_dropped") as f64,
            "count",
            1,
        );
        ctx.per_layer(
            "fleet.queue_peak",
            gauge(&snapshot, "fleet.queue.peak") as f64,
            "count",
            1,
        );
        ctx.per_layer("obs.recorder_overhead", observed_s / fleet_wall, "ratio", 1);
        let parse = ctx.tracer.durations("replay.parse");
        let parse_s = median(&parse);
        ctx.per_layer("replay.parse_s", parse_s, "s", parse.len());
        ctx.per_layer(
            "replay.parse_mb_per_s",
            text.len() as f64 / 1e6 / parse_s,
            "MB/s",
            parse.len(),
        );
        let csr = ctx.tracer.durations("replay.csr");
        ctx.per_layer("replay.csr_s", median(&csr), "s", csr.len());
        let replay = ctx.tracer.durations("replay.run");
        ctx.per_layer("replay.run_s", median(&replay), "s", replay.len());
        ctx.per_layer("replay.lines_parsed", lines as f64, "count", 1);
    }
}

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    match snapshot.get(name) {
        Some(arcc_obs::MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}
