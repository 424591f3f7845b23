//! The ARCC workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <record-a> <record-b>
//! perfbench spread <output>...
//! ```
//!
//! Run it from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). Each run executes three pipelines in
//! one process on every logical core: the experiment registry, the fleet
//! (synthetic run plus log replay) and the serve twin. The workload
//! names the pipeline that runs at full size — `paper_repro` or
//! `fleet_scale` — and the other of the two runs small; the twin runs at
//! full size in both, so every run reports every metric. Rounds, in
//! which each pipeline runs iterations for a few seconds, repeat for
//! about `--seconds` (at least two rounds); set-up is timed once per
//! round. All inputs derive from `--seed`.
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` each pipeline runs once untraced and once with
//! spans around its calls into the workspace crates, followed by probes
//! of single public calls, and the last line holds the per-layer figures.
//! The line before it is the full record (stamp, sample counts, traced
//! end-to-end figures, deterministic counts), which `compare` and
//! `spread` read. `spread` prints, per workload and metric, the median of
//! the given runs and their interquartile distance as a share of it.
//! Scratch state, span dumps and the count ledger live under
//! `.perfbench/` in the working directory.

#![forbid(unsafe_code)]

mod digest;
mod fleet;
mod json;
mod record;
mod repro;
mod run;
mod stats;
mod trace;
mod twin;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use record::{Record, Stamp};
use run::{measure, peak_rss_mb, timed, Ctx, Pipeline, Plan, Scale};
use stats::median;

/// The workloads, in the order of the pipelines they scale up.
const WORKLOADS: [&str; 2] = ["paper_repro", "fleet_scale"];

/// Least rounds per measured pass, so every median rests on at least two
/// iterations.
const MIN_ROUNDS: usize = 2;

/// Least time the workload's own pipeline and each companion measure
/// per round. Set-up runs once per round.
const MAIN_ROUND: Duration = Duration::from_millis(4000);
const COMPANION_ROUND: Duration = Duration::from_millis(2000);

/// Scratch directory, relative to the working directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=3600).contains(&s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare_main(&argv[1..]),
        Some("spread") => return spread_main(&argv[1..]),
        _ => {}
    }
    match parse_args(&argv) {
        Ok(args) => match bench(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
                 perfbench compare <record-a> <record-b>\n       \
                 perfbench spread <output>...",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !cwd.join("crates").is_dir() {
        return Err(format!(
            "{} holds no crates/ directory; run from the repository root",
            cwd.display()
        ));
    }
    let work = cwd.join(WORK_DIR);
    let threads = arcc_core::default_threads();
    let stamp = Stamp::here(threads, args.seed, &cwd);
    let mut ctx = Ctx::new(threads, args.seed, args.traced);
    let scale = |pipeline: &str| {
        if pipeline == args.workload {
            Scale::Full
        } else {
            Scale::Companion
        }
    };
    // Set-up: generate, serialise and split every input, and create the
    // state directory. These inputs are the ones measured; `Setup` times
    // the same work again once per round for `setup_s`, once the heap
    // has grown (the first few set-ups in a process run up to half as
    // slow again while the allocator takes fresh memory from the kernel).
    let state = work.join(format!("state-{}", std::process::id()));
    let fleet_scale = scale("fleet_scale");
    let (fleet_inputs, twin_inputs) = setup(&mut ctx.tracer, args.seed, fleet_scale, &state)
        .map_err(|e| format!("set-up failed in {}: {e}", state.display()))?;
    let mut pipelines: Vec<Box<dyn Pipeline + '_>> = vec![
        Box::new(repro::Repro::new(scale("paper_repro"))),
        Box::new(fleet::Fleet::new(&fleet_inputs)),
        Box::new(twin::Twin::new(&mut ctx, &twin_inputs)),
        Box::new(Setup {
            seed: args.seed,
            fleet_scale,
            state: &state,
            walls: Vec::new(),
        }),
    ];
    let main = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .expect("the workload is one of the pipelines");
    let mut least = vec![COMPANION_ROUND; WORKLOADS.len() + 1];
    least[main] = MAIN_ROUND;
    least.push(Duration::ZERO);
    let plan = Plan {
        budget: Duration::from_secs(args.seconds),
        min_rounds: MIN_ROUNDS,
        least,
    };
    let main = measure(&mut ctx, &mut pipelines, main, plan);
    drop(pipelines);
    drop((fleet_inputs, twin_inputs));
    let _ = std::fs::remove_dir_all(&state);

    ctx.end_to_end("peak_rss_mb", peak_rss_mb(), "MB", 1);
    if let Some((traced, coverage)) = main.traced {
        ctx.per_layer("trace.overhead", traced / main.plain, "ratio", 1);
        ctx.per_layer("trace.span_coverage", coverage, "ratio", 1);
        let path = work.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::create_dir_all(&work)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    check_count_ledger(&mut ctx, &work, args, &stamp);

    let record = Record {
        workload: args.workload.to_string(),
        traced: args.traced,
        stamp,
        attempted: ctx.attempted(),
        failed: ctx.failed(),
        metrics: ctx
            .end_to_end
            .iter()
            .chain(&ctx.traced_end_to_end)
            .chain(&ctx.per_layer)
            .cloned()
            .collect(),
        counts: ctx.counts.clone(),
    };
    print_report(&record, &ctx);
    println!("{}", record.to_json());
    let reported = if args.traced {
        &ctx.per_layer
    } else {
        &ctx.end_to_end
    };
    println!("{}", result_line(&record, reported));
    Ok(())
}

/// Generates every input of a run and creates the state directory.
fn setup(
    tracer: &mut trace::Tracer,
    seed: u64,
    fleet_scale: Scale,
    state: &Path,
) -> std::io::Result<(fleet::Inputs, twin::Inputs)> {
    tracer.span("setup", |_| {
        let fleet = fleet::setup(seed, fleet_scale);
        twin::setup(seed, state).map(|twin| (fleet, twin))
    })
}

/// Times the whole set-up once per round (and drops what it made) for
/// `setup_s`.
struct Setup<'a> {
    seed: u64,
    fleet_scale: Scale,
    state: &'a Path,
    walls: Vec<f64>,
}

impl Pipeline for Setup<'_> {
    fn iteration(&mut self, ctx: &mut Ctx) {
        let (secs, made) =
            timed(|| setup(&mut ctx.tracer, self.seed, self.fleet_scale, self.state));
        ctx.check(made.is_ok(), || format!("set-up failed: {:?}", made.err()));
        self.walls.push(secs);
    }

    fn report(&mut self, ctx: &mut Ctx) -> f64 {
        let wall = median(&self.walls);
        ctx.end_to_end("setup_s", wall, "s", self.walls.len());
        self.walls.clear();
        wall
    }

    fn finish(&mut self, _ctx: &mut Ctx) {}

    fn root_span(&self) -> &'static str {
        "setup"
    }
}

/// Compares this run's deterministic counts with the ones an earlier run
/// of the same code, workload and seed left in the ledger (or starts the
/// ledger entry).
fn check_count_ledger(ctx: &mut Ctx, work: &Path, args: &Args, stamp: &Stamp) {
    let dir = work.join("counts");
    let path = dir.join(format!(
        "{}-{}-{}.txt",
        args.workload, args.seed, stamp.commit
    ));
    let mine: String = ctx
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            ctx.check(before == mine, || {
                format!(
                    "deterministic counts differ from the earlier run in {}",
                    path.display()
                )
            });
        }
        Err(_) => {
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &mine))
            {
                eprintln!("perfbench: cannot record counts in {}: {e}", path.display());
            }
        }
    }
}

fn print_report(record: &Record, ctx: &Ctx) {
    let s = &record.stamp;
    println!(
        "perfbench {} seed {} trace {}: {} logical cores ({}), {} threads, commit {}",
        record.workload,
        s.seed,
        u8::from(record.traced),
        s.logical_cores,
        s.cpu_model,
        s.threads,
        s.commit
    );
    let sections = [
        ("end to end", &ctx.end_to_end),
        ("end to end, traced pass", &ctx.traced_end_to_end),
        ("per layer", &ctx.per_layer),
    ];
    for (title, metrics) in sections {
        if metrics.is_empty() {
            continue;
        }
        println!("  {title}:");
        for m in metrics {
            println!(
                "    {:<38} {:>16.6} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    println!(
        "  fail_ratio {} ({} failed of {} attempted)",
        record.fail_ratio(),
        record.failed,
        record.attempted
    );
    for f in &ctx.failures {
        println!("  FAILED: {f}");
    }
}

/// The benchmark's last output line.
fn result_line(record: &Record, metrics: &[record::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&m.name),
                json::number(m.value),
                json::quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        record.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        record.attempted,
        record.failed,
        body.join(",")
    )
}

/// Every record line in `path`.
fn records_in(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| Record::from_json(l).ok())
        .collect())
}

fn spread_main(paths: &[String]) -> ExitCode {
    let mut by_metric: BTreeMap<(String, u8, String), Vec<f64>> = BTreeMap::new();
    let mut first: Option<Stamp> = None;
    for path in paths {
        match records_in(path) {
            Ok(records) => {
                for r in records {
                    let base = first.get_or_insert_with(|| r.stamp.clone());
                    if let Some(why) = base.mismatch(&r.stamp) {
                        eprintln!(
                            "perfbench: refusing to pool {path}: machine stamps differ: {why}"
                        );
                        return ExitCode::FAILURE;
                    }
                    for m in &r.metrics {
                        by_metric
                            .entry((r.workload.clone(), u8::from(r.traced), m.name.clone()))
                            .or_default()
                            .push(m.value);
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for ((workload, traced, name), values) in by_metric {
        let spread = if values.len() >= 2 {
            format!("{:.4}", stats::relative_spread(&values))
        } else {
            "-".to_string()
        };
        println!(
            "{workload:<13} trace={traced} {name:<38} n={:<3} median={:<16.6} spread={spread}",
            values.len(),
            median(&values)
        );
    }
    ExitCode::SUCCESS
}

fn compare_main(argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        eprintln!("usage: perfbench compare <record-a> <record-b>");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Record, String> {
        records_in(path)?
            .pop()
            .ok_or_else(|| format!("{path}: no {} line", record::SCHEMA))
    };
    match load(a).and_then(|ra| Ok((ra, load(b)?))) {
        Ok((ra, rb)) => match record::compare(&ra, &rb) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("perfbench: refusing to compare: {why}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
