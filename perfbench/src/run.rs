//! State shared by the three pipelines of one benchmark run: the
//! operation ledger behind `attempted`/`failed`, the tracer, the
//! deterministic counts, and the metrics gathered so far.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::record::Metric;
use crate::trace::Tracer;

/// How large the repro and fleet pipelines run: `Full` for the workload
/// that names them, `Companion` otherwise (small, so every run still
/// reports every metric at a bearable cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Companion,
}

pub struct Ctx {
    pub threads: usize,
    pub seed: u64,
    /// A traced run: each pipeline runs once untraced (end-to-end
    /// figures), once traced (per-layer figures), then its probes.
    pub traced: bool,
    pub tracer: Tracer,
    attempted: u64,
    failed: u64,
    pub failures: Vec<String>,
    /// Work counts and output digests of the first iteration of each
    /// pipeline; later iterations must reproduce them exactly.
    pub counts: BTreeMap<String, u64>,
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures of the traced passes, kept apart to show what
    /// tracing costs.
    pub traced_end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Ctx {
    pub fn new(threads: usize, seed: u64, traced: bool) -> Self {
        Self {
            threads,
            seed,
            traced,
            tracer: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            counts: BTreeMap::new(),
            end_to_end: Vec::new(),
            traced_end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Counts one operation or output check; a false `ok` is a failure
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("perfbench: FAILED: {what}");
            self.failures.push(what);
        }
        ok
    }

    /// Records the counts of one pipeline iteration: the first sets them,
    /// each later one must match them key for key.
    pub fn repeat_counts(&mut self, counts: BTreeMap<String, u64>) {
        for (k, v) in counts {
            match self.counts.get(&k).copied() {
                None => {
                    self.counts.insert(k, v);
                }
                Some(first) => {
                    self.check(first == v, || {
                        format!("count {k} changed between iterations: {first} then {v}")
                    });
                }
            }
        }
    }

    pub fn end_to_end(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.end_to_end.push(metric(name, value, unit, samples));
    }

    pub fn per_layer(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.per_layer.push(metric(name, value, unit, samples));
    }
}

fn metric(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        samples,
    }
}

/// One measured pipeline. Iterations of all pipelines run round-robin,
/// so contention from outside the process spreads over every metric
/// instead of landing on whichever pipeline happened to be running.
pub trait Pipeline {
    /// Runs one iteration and keeps its samples.
    fn iteration(&mut self, ctx: &mut Ctx);
    /// Reports the end-to-end metrics of the samples kept since the last
    /// report, forgets them, and returns the median main wall time.
    fn report(&mut self, ctx: &mut Ctx) -> f64;
    /// One-time output checks and, in a traced run, per-layer metrics.
    fn finish(&mut self, ctx: &mut Ctx);
    /// The span each traced iteration opens; its children are the
    /// pipeline's top-level spans.
    fn root_span(&self) -> &'static str;
}

/// Rounds repeat while at least `min_rounds` have not run or the budget
/// still holds most of another round: a round starts only if half the
/// previous round's time fits before `budget` runs out, so a run ends
/// near its budget on average instead of overshooting by a round. In
/// each round pipeline `i` runs iterations for at least `least[i]` (at
/// least one), so every metric gathers several samples per run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub budget: Duration,
    pub min_rounds: usize,
    pub least: Vec<Duration>,
}

fn rounds(ctx: &mut Ctx, pipelines: &mut [Box<dyn Pipeline + '_>], plan: &Plan) -> Vec<f64> {
    let start = Instant::now();
    let mut done = 0;
    let mut last = Duration::ZERO;
    while done < plan.min_rounds || start.elapsed() + last / 2 < plan.budget {
        let round = Instant::now();
        for (p, &least) in pipelines.iter_mut().zip(&plan.least) {
            let share = Instant::now();
            p.iteration(ctx);
            while share.elapsed() < least {
                p.iteration(ctx);
            }
        }
        last = round.elapsed();
        done += 1;
    }
    pipelines.iter_mut().map(|p| p.report(ctx)).collect()
}

/// Main wall time of the workload's pipeline, untraced and (in a traced
/// run) traced, with the share of the traced time its top-level spans
/// cover.
#[derive(Debug, Clone, Copy)]
pub struct Walls {
    pub plain: f64,
    pub traced: Option<(f64, f64)>,
}

/// Measures `pipelines` under `plan`; in a traced run, twice with half the
/// budget each, first untraced and then traced (the traced end-to-end
/// figures are kept apart). Then runs every pipeline's `finish`. Returns
/// the walls of pipeline `main`.
pub fn measure(
    ctx: &mut Ctx,
    pipelines: &mut [Box<dyn Pipeline + '_>],
    main: usize,
    plan: Plan,
) -> Walls {
    let walls = if ctx.traced {
        let half = Plan {
            budget: plan.budget / 2,
            ..plan
        };
        ctx.tracer.set_enabled(false);
        let plain = rounds(ctx, pipelines, &half)[main];
        ctx.tracer.set_enabled(true);
        let untraced_metrics = ctx.end_to_end.len();
        let traced = rounds(ctx, pipelines, &half)[main];
        for mut m in ctx.end_to_end.split_off(untraced_metrics) {
            m.name = format!("traced.{}", m.name);
            ctx.traced_end_to_end.push(m);
        }
        let coverage = ctx.tracer.coverage(pipelines[main].root_span());
        Walls {
            plain,
            traced: Some((traced, coverage)),
        }
    } else {
        Walls {
            plain: rounds(ctx, pipelines, &plan)[main],
            traced: None,
        }
    };
    for p in pipelines.iter_mut() {
        p.finish(ctx);
    }
    walls
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// An independent seed for input stream `stream` of run seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    arcc_core::cell_seed(seed, stream)
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
