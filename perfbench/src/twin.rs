//! The serve twin: a durable `TwinEngine` driven through
//! `Service::handle` by one in-process client in a closed loop (one
//! request at a time). A generated log is cut into equal segments; each
//! ingest is followed by reads, then come cold what-ifs over the full
//! history, and last the state directory is reopened.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use arcc_fleet::{
    extend_replay, run_replay, run_shard_replay, FleetCheckpoint, FleetSpec, FleetStats,
    ReplayArrivals,
};
use arcc_obs::MetricsSnapshot;
use arcc_replay::{generate_log, FaultLog};
use arcc_serve::{Service, TwinEngine, BASELINE_BRANCH};

use crate::digest::Fnv;
use crate::json::Json;
use crate::run::{derive, timed, Ctx, Pipeline};
use crate::stats::{mean, median, median_sum, percentile};

const SHARD_CHANNELS: u32 = 4096;
/// The reads after each ingest, in order. Three `query-stats` of the
/// four are memo hits and every `whatif` computes, so three `status` and
/// five `metrics` put the median read inside one request kind instead of
/// on the edge between two, where it would jump from run to run.
const READS: [Read; 16] = {
    use Read::{Metrics as M, Query as Q, Status as S, WhatIf as W};
    [Q, W, S, M, Q, W, M, S, Q, W, M, M, Q, W, S, M]
};

#[derive(Clone, Copy)]
enum Read {
    Query,
    WhatIf,
    Status,
    Metrics,
}

/// The what-if policies the per-ingest reads rotate over; each becomes a
/// branch that every later ingest extends.
const POLICIES: [&str; 4] = [
    "replace-on-due",
    "spare-pool:2",
    "spare-pool:8",
    "spare-pool:32",
];
/// Cold what-ifs per session, each a new spare-pool policy forked over
/// the full history. They run on an in-memory engine that holds the same
/// log (see `session`).
const COLD_WHATIFS: u32 = 12;
/// Reopens of the state directory at the end of each session.
const REOPENS: usize = 2;
/// Repetitions of each end-of-session probe (their median is reported).
const PROBE_REPEATS: usize = 5;

/// Segments per session and channels per segment (384k channels). The
/// twin runs at this size in every workload: smaller sessions are
/// dominated by the fsyncs of the durable writes, whose latency swings
/// with the disk from run to run. With 64 segments the four forking
/// first-ingest `whatif`s stay under 1% of the reads, out of the p99.
const SEGMENTS: u64 = 64;
const SEGMENT_CHANNELS: u64 = 6_000;

/// The generated log, its segments as `ingest` requests, and the
/// directory that holds each session's state.
pub struct Inputs {
    log: FaultLog,
    segments: Vec<(String, String)>,
    /// The whole log as one `ingest` request.
    whole: (String, String),
    twin_seed: u64,
    root: PathBuf,
}

pub fn setup(seed: u64, root: &Path) -> std::io::Result<Inputs> {
    let log = generate_log(&FleetSpec::baseline(SEGMENTS * SEGMENT_CHANNELS).seed(derive(seed, 5)));
    let segments = log
        .split_channels(SEGMENT_CHANNELS as usize)
        .iter()
        .map(|s| {
            let text = s.to_text();
            (format!("ingest lines={}", text.lines().count()), text)
        })
        .collect();
    let text = log.to_text();
    let whole = (format!("ingest lines={}", text.lines().count()), text);
    std::fs::create_dir_all(root)?;
    Ok(Inputs {
        log,
        segments,
        whole,
        twin_seed: derive(seed, 6),
        root: root.to_path_buf(),
    })
}

/// Latency samples of one pass.
#[derive(Default)]
struct Samples {
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    reopen_s: Vec<f64>,
    /// Milliseconds of each ingest by segment index, one per session.
    ingest_by_segment: Vec<Vec<f64>>,
    sessions: usize,
    growth: Vec<f64>,
    walls: Vec<f64>,
}

/// One request through the service, timed and traced; a reply that is
/// not `"ok":true` is a failed operation.
fn request(
    ctx: &mut Ctx,
    svc: &mut Service,
    transcript: &mut Fnv,
    span: &str,
    req: &str,
    payload: Option<&str>,
) -> (f64, String) {
    let id = ctx.tracer.begin(span);
    let start = Instant::now();
    let reply = svc.handle(req, payload);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.end(id);
    ctx.check(reply.starts_with("{\"ok\":true"), || {
        format!("{req} -> {}", reply.chars().take(200).collect::<String>())
    });
    transcript.write(reply.as_bytes());
    (ms, reply)
}

fn open(ctx: &Ctx, inputs: &Inputs, dir: &Path) -> Result<TwinEngine, String> {
    TwinEngine::open(ctx.threads, inputs.twin_seed, SHARD_CHANNELS, dir).map_err(|e| e.to_string())
}

/// One session on a fresh state directory.
fn session(
    ctx: &mut Ctx,
    inputs: &Inputs,
    dir: &Path,
    one_shot: &FleetStats,
    s: &mut Samples,
) -> Option<MetricsSnapshot> {
    let _ = std::fs::remove_dir_all(dir);
    let engine = open(ctx, inputs, dir);
    if !ctx.check(engine.is_ok(), || {
        format!("open {}: {:?}", dir.display(), engine.as_ref().err())
    }) {
        return None;
    }
    let mut svc = Service::new(engine.ok()?);
    let mut transcript = Fnv::new();
    let baseline_query = format!("query-stats branch={BASELINE_BRANCH}");
    let start = Instant::now();
    let root = ctx.tracer.begin("serve.session");
    let mut ingest_ms = Vec::new();
    let mut whatifs = 0;
    for (req, text) in &inputs.segments {
        let (ms, _) = request(
            ctx,
            &mut svc,
            &mut transcript,
            "serve.ingest",
            req,
            Some(text),
        );
        ingest_ms.push(ms);
        let mut first_query: Option<String> = None;
        for read in READS {
            let (span, req) = match read {
                Read::Query => ("serve.query-stats", baseline_query.clone()),
                Read::WhatIf => {
                    whatifs += 1;
                    let policy = POLICIES[(whatifs - 1) % POLICIES.len()];
                    ("serve.whatif", format!("whatif policy={policy}"))
                }
                Read::Status => ("serve.status", "status".to_string()),
                Read::Metrics => ("serve.metrics", "metrics".to_string()),
            };
            let (ms, reply) = request(ctx, &mut svc, &mut transcript, span, &req, None);
            s.read_ms.push(ms);
            if matches!(read, Read::Query) {
                match &first_query {
                    None => first_query = Some(reply),
                    Some(first) => {
                        ctx.check(*first == reply, || {
                            "memoised query-stats re-issue is not byte-identical".to_string()
                        });
                    }
                }
            }
        }
    }
    cold_whatifs(ctx, inputs, one_shot, &mut transcript, s);
    let (_, final_stats) = request(
        ctx,
        &mut svc,
        &mut transcript,
        "serve.query-stats",
        &baseline_query,
        None,
    );
    let metrics = svc.engine().metrics().clone();
    // Each reopen drops the engine it replaces, then opens the directory.
    let mut svc = Some(svc);
    for _ in 0..REOPENS {
        let reopen_start = Instant::now();
        let reopen_span = ctx.tracer.begin("serve.reopen");
        drop(svc.take());
        let reopened = open(ctx, inputs, dir).map(Service::new);
        ctx.tracer.end(reopen_span);
        s.reopen_s.push(reopen_start.elapsed().as_secs_f64());
        match reopened {
            Ok(mut again) => {
                let reply = again.handle(&baseline_query, None);
                ctx.check(reply == final_stats, || {
                    "reopened engine answers query-stats differently".to_string()
                });
                svc = Some(again);
            }
            Err(e) => {
                ctx.check(false, || format!("reopen failed: {e}"));
                break;
            }
        }
    }
    drop(svc);
    ctx.tracer.end(root);
    let wall = start.elapsed().as_secs_f64();
    ctx.check(same_stats(&final_stats, one_shot), || {
        format!("baseline branch differs from one-shot run_replay: {final_stats}")
    });
    let _ = std::fs::remove_dir_all(dir);

    let quarter = ingest_ms.len() / 4;
    s.growth
        .push(mean(&ingest_ms[ingest_ms.len() - quarter..]) / mean(&ingest_ms[..quarter]));
    s.ingest_by_segment.resize(ingest_ms.len(), Vec::new());
    for (segment, ms) in s.ingest_by_segment.iter_mut().zip(&ingest_ms) {
        segment.push(*ms);
    }
    s.sessions += 1;
    s.ingest_ms.extend(ingest_ms);
    s.walls.push(wall);
    let mut counts = BTreeMap::from([("serve.transcript".to_string(), transcript.finish())]);
    for (name, value) in metrics.iter() {
        if let arcc_obs::MetricValue::Counter(v) | arcc_obs::MetricValue::Gauge(v) = value {
            counts.insert(name.to_string(), *v);
        }
    }
    ctx.repeat_counts(counts);
    Some(metrics)
}

/// The cold what-ifs of one session: a fresh in-memory engine ingests the
/// whole log as one segment, then each what-if forks a new policy over
/// the full history. On the durable engine each fork also rewrites and
/// fsyncs every branch checkpoint; on a shared disk those fsyncs slow
/// down for minutes at a time, which moved the median durable what-if by
/// up to 40% between runs while the replay it waits for did not change.
/// Ingest and reopen still measure the persistence.
fn cold_whatifs(
    ctx: &mut Ctx,
    inputs: &Inputs,
    one_shot: &FleetStats,
    transcript: &mut Fnv,
    s: &mut Samples,
) {
    let engine = TwinEngine::new(ctx.threads, inputs.twin_seed).shard_channels(SHARD_CHANNELS);
    let mut svc = Service::new(engine);
    let (req, text) = &inputs.whole;
    request(
        ctx,
        &mut svc,
        transcript,
        "serve.cold_ingest",
        req,
        Some(text),
    );
    let query = format!("query-stats branch={BASELINE_BRANCH}");
    let (_, stats) = request(ctx, &mut svc, transcript, "serve.query-stats", &query, None);
    ctx.check(same_stats(&stats, one_shot), || {
        format!("in-memory engine's baseline differs from one-shot run_replay: {stats}")
    });
    for c in 0..COLD_WHATIFS {
        let req = format!("whatif policy=spare-pool:{}", 1000 + c);
        let (ms, _) = request(ctx, &mut svc, transcript, "serve.whatif_cold", &req, None);
        s.cold_ms.push(ms);
    }
}

/// The `query-stats` reply agrees with `stats` on every field they share.
fn same_stats(reply: &str, stats: &FleetStats) -> bool {
    let Ok(v) = Json::parse(reply) else {
        return false;
    };
    let fields: [(&str, f64); 13] = [
        ("channels", stats.channels as f64),
        ("faults", stats.faults as f64),
        ("transient_cleared", stats.transient_cleared as f64),
        ("detections", stats.detections as f64),
        ("due_events", stats.due_events as f64),
        ("sdc_channels", stats.sdc_channels as f64),
        ("channels_with_faults", stats.channels_with_faults as f64),
        ("channels_failed", stats.channels_failed as f64),
        ("replacements", stats.replacements as f64),
        ("spares_consumed", stats.spares_consumed as f64),
        ("fault_probability", stats.fault_probability()),
        ("due_probability", stats.due_probability()),
        ("avg_upgraded_fraction", stats.avg_upgraded_fraction()),
    ];
    fields.iter().all(|(k, want)| {
        v.get(k)
            .and_then(Json::as_f64)
            .is_some_and(|got| got.to_bits() == want.to_bits())
    })
}

/// The one-shot replay the baseline branch must equal, prepared once.
struct Reference {
    arrivals: ReplayArrivals,
    spec: FleetSpec,
    one_shot: FleetStats,
}

/// The pipeline: the serve end-to-end metrics; in a traced run also
/// ingest growth, the serve counters and the end-of-session probes.
pub struct Twin<'a> {
    inputs: &'a Inputs,
    reference: Option<Reference>,
    samples: Samples,
    /// The samples of the last report, for the per-layer figures.
    reported: Samples,
    /// The serve metrics snapshot at the end of the last session.
    last: Option<MetricsSnapshot>,
    sessions: usize,
}

impl<'a> Twin<'a> {
    pub fn new(ctx: &mut Ctx, inputs: &'a Inputs) -> Self {
        let spec = inputs
            .log
            .replay_spec(inputs.twin_seed)
            .shard_channels(SHARD_CHANNELS);
        let reference = inputs
            .log
            .arrivals()
            .map_err(|e| e.to_string())
            .and_then(|arrivals| {
                let one_shot =
                    run_replay(ctx.threads, &spec, &arrivals).map_err(|e| e.to_string())?;
                Ok(Reference {
                    arrivals,
                    spec,
                    one_shot,
                })
            });
        let reference = match reference {
            Ok(r) => Some(r),
            Err(e) => {
                ctx.check(false, || {
                    format!("one-shot replay of the generated log: {e}")
                });
                None
            }
        };
        Self {
            inputs,
            reference,
            samples: Samples::default(),
            reported: Samples::default(),
            last: None,
            sessions: 0,
        }
    }
}

impl Pipeline for Twin<'_> {
    fn iteration(&mut self, ctx: &mut Ctx) {
        let Some(reference) = &self.reference else {
            return;
        };
        let dir = self.inputs.root.join(format!("session-{}", self.sessions));
        self.sessions += 1;
        let metrics = session(
            ctx,
            self.inputs,
            &dir,
            &reference.one_shot,
            &mut self.samples,
        );
        if metrics.is_some() {
            self.last = metrics;
        }
    }

    fn report(&mut self, ctx: &mut Ctx) -> f64 {
        report(ctx, &self.samples);
        self.reported = std::mem::take(&mut self.samples);
        median(&self.reported.walls)
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        if let (true, Some(reference), Some(metrics)) = (ctx.traced, &self.reference, &self.last) {
            per_layer(ctx, self.inputs, reference, &self.reported, metrics);
        }
    }

    fn root_span(&self) -> &'static str {
        "serve.session"
    }
}

fn report(ctx: &mut Ctx, s: &Samples) {
    let tail = |xs: &[f64], p: f64| percentile(xs, p).unwrap_or(f64::NAN);
    // Channels over the session's ingest time, with each segment's ingest
    // taken at its median over the run's sessions.
    ctx.end_to_end(
        "ingest_ch_per_s",
        (SEGMENTS * SEGMENT_CHANNELS) as f64 / (median_sum(&s.ingest_by_segment) / 1e3),
        "1/s",
        s.sessions,
    );
    ctx.end_to_end(
        "ingest_ms_p50",
        median(&s.ingest_ms),
        "ms",
        s.ingest_ms.len(),
    );
    ctx.end_to_end(
        "ingest_ms_p80",
        tail(&s.ingest_ms, 0.8),
        "ms",
        s.ingest_ms.len(),
    );
    ctx.end_to_end("query_ms_p50", median(&s.read_ms), "ms", s.read_ms.len());
    ctx.end_to_end(
        "query_ms_p99",
        tail(&s.read_ms, 0.99),
        "ms",
        s.read_ms.len(),
    );
    ctx.end_to_end(
        "whatif_cold_ms_p50",
        median(&s.cold_ms),
        "ms",
        s.cold_ms.len(),
    );
    ctx.end_to_end("reopen_s", median(&s.reopen_s), "s", s.reopen_s.len());
}

fn per_layer(
    ctx: &mut Ctx,
    inputs: &Inputs,
    reference: &Reference,
    s: &Samples,
    m: &MetricsSnapshot,
) {
    let (spec, arrivals) = (&reference.spec, &reference.arrivals);
    ctx.per_layer(
        "serve.ingest_growth",
        median(&s.growth),
        "ratio",
        s.growth.len(),
    );
    ctx.per_layer(
        "serve.shards_run",
        m.counter("serve.shards_run") as f64,
        "count",
        1,
    );
    ctx.per_layer(
        "serve.persist_bytes",
        (m.counter("serve.persist.segment_bytes") + m.counter("serve.persist.checkpoint_bytes"))
            as f64,
        "bytes",
        1,
    );
    let (hits, queries) = (m.counter("serve.memo.hits"), m.counter("serve.queries"));
    ctx.per_layer(
        "serve.memo_hit_ratio",
        hits as f64 / (hits + queries) as f64,
        "ratio",
        1,
    );

    // Probes of single public calls at full history, outside any session.
    let n = inputs.log.dimms.len();
    let prefix = inputs
        .log
        .split_channels(n - SEGMENT_CHANNELS as usize)
        .swap_remove(0);
    let last_segment = &inputs.segments[inputs.segments.len() - 1].1;
    let ckpt = extend_replay(
        ctx.threads,
        spec,
        arrivals,
        FleetCheckpoint::start_twin(spec, arrivals),
    );
    let Ok(ckpt) = ckpt else {
        ctx.check(false, || {
            "extend_replay over the full log failed".to_string()
        });
        return;
    };
    let ckpt_path = inputs.root.join("probe.ckpt");
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let root = ctx.tracer.begin("probe");
    for _ in 0..PROBE_REPEATS {
        let mut log = prefix.clone();
        measure(ctx, &mut samples, "segment_parse", || {
            log.ingest_segment(last_segment).is_ok()
        });
        drop(log);
        measure(ctx, &mut samples, "fingerprint", || {
            std::hint::black_box(arrivals.run_fingerprint_prefix(spec, arrivals.channels()));
            true
        });
        measure(ctx, &mut samples, "checkpoint_write", || {
            ckpt.write_atomic(&ckpt_path).is_ok()
        });
        measure(ctx, &mut samples, "tail_shard", || {
            std::hint::black_box(run_shard_replay(spec, spec.shard_count() - 1, arrivals));
            true
        });
    }
    ctx.tracer.end(root);
    let _ = std::fs::remove_file(&ckpt_path);
    for (name, ms) in samples {
        ctx.per_layer(
            &format!("serve.probe.{name}_ms"),
            median(&ms),
            "ms",
            ms.len(),
        );
    }
}

/// Times one probe call into `samples[name]` (milliseconds).
fn measure<'a>(
    ctx: &mut Ctx,
    samples: &mut BTreeMap<&'a str, Vec<f64>>,
    name: &'a str,
    f: impl FnOnce() -> bool,
) {
    let id = ctx.tracer.begin(&format!("probe.{name}"));
    let (secs, ok) = timed(f);
    ctx.tracer.end(id);
    ctx.check(ok, || format!("probe {name} failed"));
    samples.entry(name).or_default().push(secs * 1e3);
}
