//! `paper_repro`: every `arcc-exp` registry scenario, in registry order,
//! through one shared `Experiment` per iteration (so the simulation memo
//! is shared exactly as in `repro_all`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use arcc_exp::{registry, Experiment, Report};
use arcc_gf::analysis::{measure_line_escape_rate, measure_miscorrection_rate, LineInjection};
use arcc_gf::codec::codec_registry;
use arcc_gf::{Gf256, ReedSolomon};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::digest;
use crate::run::{derive, timed, Ctx, Pipeline, Scale};
use crate::stats::{mean, median, median_sum};

/// The fig7_1 headline (average power saving) and the tolerance its
/// golden test pins it to.
const FIG7_1_SAVING: f64 = 0.368;
const FIG7_1_TOLERANCE: f64 = 0.02;

/// The three injections of `codec_escape_rates`, as the scenario runs them.
const INJECTIONS: [LineInjection; 3] = [
    LineInjection::Words { count: 1 },
    LineInjection::Words { count: 2 },
    LineInjection::Devices { count: 1 },
];

/// The `escape_rates` cases: (n, k, errors, correction limit).
const RS_CASES: [(usize, usize, usize, usize); 6] = [
    (18, 16, 2, 1),
    (18, 16, 3, 1),
    (36, 32, 2, 1),
    (36, 32, 3, 1),
    (36, 32, 3, 2),
    (72, 64, 2, 1),
];

/// A fresh experiment (empty simulation memo) fed by the run seed.
fn experiment(ctx: &Ctx, scale: Scale) -> Experiment {
    let base = match scale {
        Scale::Full => Experiment::new(),
        Scale::Companion => Experiment::quick(),
    };
    base.mc_seed(derive(ctx.seed, 1))
        .trace_seed(derive(ctx.seed, 2))
        .threads(ctx.threads)
}

/// Runs the registry once; returns the wall seconds of each scenario, in
/// registry order.
fn iteration(ctx: &mut Ctx, scale: Scale) -> Vec<f64> {
    let exp = experiment(ctx, scale);
    let mut reports: Vec<(&'static str, Option<Report>)> = Vec::new();
    let mut walls = Vec::new();
    ctx.tracer.span("exp.repro", |tracer| {
        for s in registry() {
            let (secs, out) = timed(|| {
                tracer.span(&format!("exp.scenario.{}", s.name()), |_| {
                    catch_unwind(AssertUnwindSafe(|| s.run(&exp))).ok()
                })
            });
            walls.push(secs);
            reports.push((s.name(), out));
        }
    });
    let mut counts = BTreeMap::new();
    for (name, report) in reports {
        let Some(report) = report else {
            ctx.check(false, || format!("scenario {name} panicked"));
            continue;
        };
        ctx.check(true, String::new);
        check_report(ctx, name, &report);
        counts.insert(
            format!("exp.digest.{name}"),
            digest::of(report.to_json().as_bytes()),
        );
    }
    ctx.repeat_counts(counts);
    walls
}

/// Output checks that hold on any seed.
fn check_report(ctx: &mut Ctx, name: &str, report: &Report) {
    match name {
        "fig7_1" => {
            let saving = report
                .meta_value("avg_power_saving")
                .and_then(|v| v.as_f64());
            ctx.check(
                saving.is_some_and(|s| (s - FIG7_1_SAVING).abs() <= FIG7_1_TOLERANCE),
                || format!("fig7_1 average power saving {saving:?} outside 0.368 +- 0.02"),
            );
        }
        "codec_escape_rates" => {
            let Some(t) = report.table("codec_escape_rates") else {
                ctx.check(false, || "codec_escape_rates table missing".to_string());
                return;
            };
            let col = |c: &str| t.columns.iter().position(|n| n == c);
            let (Some(codec), Some(inj), Some(esc)) =
                (col("codec"), col("injection"), col("escape_probability"))
            else {
                ctx.check(false, || "codec_escape_rates columns missing".to_string());
                return;
            };
            // Single-word and single-device corruption sits inside every
            // registered codec's guarantee: it must never escape.
            for row in &t.rows {
                let label = row[inj].as_str().unwrap_or("");
                if label == "word" || label == "device" {
                    let p = row[esc].as_f64();
                    ctx.check(p == Some(0.0), || {
                        format!(
                            "codec {} escapes {p:?} under in-guarantee {label} injection",
                            row[codec].as_str().unwrap_or("?")
                        )
                    });
                }
            }
        }
        _ => {}
    }
}

/// The pipeline: `repro_s` end to end — the sum over scenarios of each
/// scenario's median wall, so a slow spell during one scenario of one
/// pass does not move it; in a traced run also the per-scenario split
/// and probes of the escape-rate kernels and the system simulator.
pub struct Repro {
    scale: Scale,
    /// Wall seconds of each scenario (registry order), one per pass.
    walls: Vec<Vec<f64>>,
    passes: usize,
}

impl Repro {
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            walls: Vec::new(),
            passes: 0,
        }
    }
}

impl Pipeline for Repro {
    fn iteration(&mut self, ctx: &mut Ctx) {
        let walls = iteration(ctx, self.scale);
        self.walls.resize(walls.len(), Vec::new());
        for (scenario, secs) in self.walls.iter_mut().zip(walls) {
            scenario.push(secs);
        }
        self.passes += 1;
    }

    fn report(&mut self, ctx: &mut Ctx) -> f64 {
        let wall = median_sum(&self.walls);
        ctx.end_to_end("repro_s", wall, "s", self.passes);
        self.walls.clear();
        self.passes = 0;
        wall
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        if ctx.traced {
            per_layer(ctx, self.scale);
        }
    }

    fn root_span(&self) -> &'static str {
        "exp.repro"
    }
}

fn per_layer(ctx: &mut Ctx, scale: Scale) {
    for s in registry() {
        let name = format!("exp.scenario.{}", s.name());
        let secs = ctx.tracer.durations(&name);
        ctx.per_layer(&format!("{name}_s"), median(&secs), "s", secs.len());
    }
    let codec_scenario_s = median(&ctx.tracer.durations("exp.scenario.codec_escape_rates"));

    let exp = experiment(ctx, scale);
    let codecs = codec_registry();
    let trials = exp.escape_trial_count().min(20_000);
    ctx.tracer.span("probe", |tracer| {
        // The `codec_escape_rates` cells one by one, seeded as the
        // scenario seeds them (codec-major, injection-minor).
        let base = exp.mc_seed_value() ^ 0x2C0DEC;
        let mut cell = 0u64;
        for codec in &codecs {
            tracer.span(&format!("gf.escape.{}", codec.name()), |tracer| {
                for injection in INJECTIONS {
                    let mut rng = StdRng::seed_from_u64(arcc_core::cell_seed(base, cell));
                    tracer.span("gf.escape.cell", |_| {
                        black_box(measure_line_escape_rate(
                            codec.as_ref(),
                            injection,
                            trials,
                            &mut rng,
                        ))
                    });
                    cell += 1;
                }
            });
        }
        // The `escape_rates` cases.
        let base = exp.mc_seed_value() ^ 0xE5CA9E;
        tracer.span("gf.rs_miscorrection", |_| {
            for (i, (n, k, errors, limit)) in RS_CASES.into_iter().enumerate() {
                let rs = ReedSolomon::<Gf256>::new(n, k).expect("escape_rates codes are valid");
                let mut rng = StdRng::seed_from_u64(arcc_core::cell_seed(base, i as u64));
                black_box(measure_miscorrection_rate(
                    &rs,
                    errors,
                    limit,
                    exp.escape_trial_count(),
                    &mut rng,
                ));
            }
        });
        // Baseline and fault-free ARCC simulation of every mix on a fresh
        // experiment, so nothing is served from the memo.
        tracer.span("core.sim", |_| {
            for mix in exp.mix_list() {
                black_box(exp.run_baseline(&mix));
                black_box(exp.run_arcc(&mix, 0.0));
            }
        });
    });

    for codec in &codecs {
        let name = format!("gf.escape.{}", codec.name());
        let secs = ctx.tracer.total_secs(&name);
        ctx.per_layer(&format!("{name}_s"), secs, "s", INJECTIONS.len());
    }
    let cells = ctx.tracer.durations("gf.escape.cell");
    let cell_total: f64 = cells.iter().sum();
    let cell_max = cells.iter().copied().fold(0.0, f64::max);
    ctx.per_layer(
        "gf.escape.trials_per_s",
        (trials * cells.len() as u64) as f64 / cell_total,
        "1/s",
        cells.len(),
    );
    ctx.per_layer(
        "gf.escape.cell_max_over_mean",
        cell_max / mean(&cells),
        "ratio",
        cells.len(),
    );
    ctx.per_layer(
        "exp.codec_cells_efficiency",
        cell_total / (ctx.threads as f64 * codec_scenario_s),
        "ratio",
        cells.len(),
    );
    let rs_s = ctx.tracer.total_secs("gf.rs_miscorrection");
    ctx.per_layer("gf.rs_miscorrection_s", rs_s, "s", RS_CASES.len());
    let sims = 2 * exp.mix_list().len();
    let sim_s = ctx.tracer.total_secs("core.sim");
    ctx.per_layer("core.sim_s", sim_s, "s", sims);
    ctx.per_layer(
        "core.sim.requests_per_s",
        (sims * exp.trace_config().requests) as f64 / sim_s,
        "1/s",
        sims,
    );
}
