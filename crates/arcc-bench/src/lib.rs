//! Shared harness for the experiment and bench binaries of the ARCC
//! workspace.
//!
//! Every table and figure of the paper is reproduced by `repro_all`,
//! which loops the in-process scenario registry in [`arcc_exp`]
//! (`arcc::exp`) via [`arcc_exp::repro_all_main`], writing JSON reports
//! under `target/repro/`; `repro_all <name>` runs a single artefact
//! (e.g. `repro_all fig7_6`) at the paper-scale defaults of
//! [`arcc_exp::Experiment::new`].
//!
//! The throughput ladders (`codec`, `fleet`, `replay`, `serve`) are
//! driven by the `bench` binary through [`bench_main`]: `bench record
//! <suite>` writes the committed `BENCH_<suite>.json` record at the
//! workspace root, and `bench gate <suite>` re-measures the same rungs
//! and fails when one falls more than 30% below it.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use arcc_core::default_threads;
use arcc_fleet::{run_fleet, run_fleet_observed, run_replay, FleetSpec};
use arcc_gf::codec::codec_registry;
use arcc_obs::{elapsed_secs, Clock, WallClock};
use arcc_replay::{generate_log, FaultLog};
use arcc_serve::{Service, TwinEngine};

/// Wall-clock seconds spent in `f`, plus its result, built on the
/// [`arcc_obs::Clock`] abstraction so the only raw `Instant` reads in
/// the workspace live in `arcc-obs`.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let clock = WallClock::new();
    let start = clock.now_nanos();
    let out = f();
    (elapsed_secs(&clock, start), out)
}

/// Best-of-`passes` timing of `f`: the minimum wall-clock seconds over
/// all passes, plus the result of the final pass. Committed bench
/// records are gate baselines, so scheduler noise must not understate
/// them. Panics when `passes` is zero (there would be nothing to return).
fn best_of<T>(passes: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(passes > 0, "best_of needs at least one pass");
    let (mut best, mut out) = timed(&mut f);
    for _ in 1..passes {
        let (secs, value) = timed(&mut f);
        best = best.min(secs);
        out = value;
    }
    (best, out)
}

/// Formats a ratio as a signed percentage.
fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// One measured rung of a `BENCH_<suite>.json` record.
#[derive(Debug, PartialEq)]
struct Rung {
    /// The rung's label: a channel count for the sized ladders, the
    /// registry name for `codec`.
    rung: String,
    /// Wall-clock seconds of the best pass.
    seconds: f64,
    /// Work units (channels or lines) per second of the best pass.
    per_sec: f64,
}

/// A `BENCH_<suite>.json` throughput record: the baseline `bench gate`
/// compares against, written by `bench record`.
#[derive(Debug, PartialEq)]
struct Record {
    /// The suite that produced the record.
    bench: String,
    /// Worker threads of the recording run.
    threads: usize,
    /// Rungs in ladder order.
    results: Vec<Rung>,
}

impl Record {
    /// The record as one line of JSON (hand-rolled: no serde in the
    /// offline build), read back by [`Record::parse`].
    fn to_json(&self) -> String {
        let rung = |r: &Rung| {
            format!(
                r#"{{"rung":"{}","seconds":{},"per_sec":{}}}"#,
                r.rung, r.seconds, r.per_sec
            )
        };
        let rungs: Vec<String> = self.results.iter().map(rung).collect();
        let (bench, threads) = (&self.bench, self.threads);
        format!(
            r#"{{"bench":"{bench}","threads":{threads},"results":[{}]}}"#,
            rungs.join(",")
        ) + "\n"
    }

    /// Parses the format [`Record::to_json`] writes.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    fn parse(text: &str) -> Result<Self, String> {
        let (head, results) = text
            .split_once("\"results\":[")
            .ok_or("missing \"results\" array")?;
        let mut rungs = Vec::new();
        for entry in results.split('{').skip(1) {
            rungs.push(Rung {
                rung: field(entry, "rung")?.to_string(),
                seconds: number(entry, "seconds")?,
                per_sec: number(entry, "per_sec")?,
            });
        }
        Ok(Self {
            bench: field(head, "bench")?.to_string(),
            threads: number(head, "threads")?,
            results: rungs,
        })
    }

    /// The recorded rate of `rung`, if the record has it.
    fn rate(&self, rung: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.rung == rung)
            .map(|r| r.per_sec)
    }
}

/// The value of `"key":` in a flat JSON object fragment, unquoted.
fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let tag = format!("\"{key}\":");
    let start = text.find(&tag).ok_or(format!("missing \"{key}\""))? + tag.len();
    let rest = &text[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Ok(rest[..end].trim().trim_matches('"'))
}

fn number<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    let value = field(text, key)?;
    value
        .parse()
        .map_err(|_| format!("\"{key}\" is not a number: {value}"))
}

/// Fractional slowdown tolerated against the committed baseline (bench
/// machines vary; real regressions are larger).
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Fractional slowdown the enabled metrics recorder may cost in the
/// `gate fleet` A/B rung.
const OBS_AB_TOLERANCE: f64 = 0.05;

/// The regression gate: measures every rung once through `rate`,
/// retries a rung once when it lands below its floor (the baseline is
/// best-of-3, so one noisy pass must not flake the gate), and fails
/// when a rung stays more than [`REGRESSION_TOLERANCE`] below its
/// baseline. A gate that matched *no* rung also fails, so baseline
/// format drift cannot ship regressions under a green job. Returns the
/// number of rungs checked.
fn compare(
    baseline: &Record,
    rungs: &[String],
    mut rate: impl FnMut(&str) -> Result<f64, String>,
) -> Result<usize, String> {
    let mut checked = 0;
    let mut regressions = Vec::new();
    for rung in rungs {
        let mut measured = rate(rung)?;
        let Some(base) = baseline.rate(rung) else {
            continue;
        };
        checked += 1;
        let floor = base * (1.0 - REGRESSION_TOLERANCE);
        if measured < floor {
            measured = measured.max(rate(rung)?);
        }
        if measured < floor {
            regressions.push(format!(
                "rung {rung}: {measured:.0}/s is more than 30% below the committed \
                 baseline {base:.0}/s"
            ));
        }
    }
    match (checked, regressions.is_empty()) {
        (0, _) => Err(format!(
            "baseline contained no rungs matching the measured ones ({} baseline rungs parsed)",
            baseline.results.len()
        )),
        (_, true) => Ok(checked),
        _ => Err(regressions.join("\n")),
    }
}

/// One timed rung: best-pass seconds, work units (channels or lines)
/// timed, and a human-readable detail column.
type Measured = (f64, u64, String);

/// A bench ladder: its rung labels and the one measurement `record`
/// and `gate` share — `measure(threads, rung, passes)` times the best
/// of `passes` passes and checks the result.
struct Suite {
    name: &'static str,
    threads: fn() -> usize,
    rungs: fn() -> Vec<String>,
    measure: fn(usize, &str, usize) -> Result<Measured, String>,
}

const SUITES: [Suite; 4] = [
    Suite {
        name: "codec",
        threads: || 1,
        rungs: || codec_registry().iter().map(|c| c.name().into()).collect(),
        measure: measure_codec,
    },
    Suite {
        name: "fleet",
        threads: default_threads,
        rungs: || sizes(&[10_000, 100_000, 1_000_000, 10_000_000]),
        measure: measure_fleet,
    },
    Suite {
        name: "replay",
        threads: default_threads,
        rungs: || sizes(&[10_000, 100_000, 1_000_000]),
        measure: measure_replay,
    },
    Suite {
        name: "serve",
        threads: default_threads,
        rungs: || sizes(&[20_000, 100_000, 400_000]),
        measure: measure_serve,
    },
];

fn sizes(channels: &[u64]) -> Vec<String> {
    channels.iter().map(u64::to_string).collect()
}

fn channels(rung: &str) -> Result<u64, String> {
    rung.parse()
        .map_err(|_| format!("rung {rung} is not a channel count"))
}

/// Encode + clean-decode roundtrips per `codec` rung.
const CODEC_LINES: u64 = 20_000;

/// Segments each `serve` rung's log is split into.
const SERVE_SEGMENTS: usize = 8;

/// Encode + clean-decode roundtrip throughput of one registry codec.
fn measure_codec(_threads: usize, rung: &str, passes: usize) -> Result<Measured, String> {
    let codec = codec_registry()
        .into_iter()
        .find(|c| c.name() == rung)
        .ok_or(format!("no registry codec named {rung}"))?;
    let data: Vec<u8> = (0..codec.data_bytes())
        .map(|i| (i * 37 + 11) as u8)
        .collect();
    let (secs, clean) = best_of(passes, || {
        let mut clean = 0u64;
        for _ in 0..CODEC_LINES {
            if let Ok(mut line) = codec.encode(&data) {
                if let Ok(outcome) = codec.decode(&mut line, &[]) {
                    clean += u64::from(outcome.is_clean());
                }
            }
        }
        clean
    });
    // Every pass runs identical deterministic work, so checking the
    // final pass checks them all: the payload is sized to the codec,
    // and a clean line must decode without repair.
    assert_eq!(clean, CODEC_LINES, "{rung}: clean roundtrips failed");
    let note = format!(
        "{} devices, {} beats, {} data bytes",
        codec.devices(),
        codec.beats(),
        codec.data_bytes()
    );
    Ok((secs, CODEC_LINES, note))
}

/// Synthetic fleet run of the baseline spec. Peak memory is
/// `O(threads × shard)` at any size: shard aggregates merge as they
/// complete and no per-channel fault vector ever exists.
fn measure_fleet(threads: usize, rung: &str, passes: usize) -> Result<Measured, String> {
    let channels = channels(rung)?;
    let spec = FleetSpec::baseline(channels);
    let (secs, stats) = best_of(passes, || run_fleet(threads, &spec));
    assert_eq!(stats.channels, channels, "every channel must be simulated");
    let note = format!("{} faults, {} DUEs", stats.faults, stats.due_events);
    Ok((secs, channels, note))
}

/// Replay of the baseline spec's generated log after a serialise →
/// strict-parse round trip; only the replay engine is timed, so the
/// rate is comparable to the `fleet` rungs.
fn measure_replay(threads: usize, rung: &str, passes: usize) -> Result<Measured, String> {
    let channels = channels(rung)?;
    let spec = FleetSpec::baseline(channels);
    let text = generate_log(&spec).to_text();
    let (parse_secs, arrivals) = timed(|| FaultLog::parse(&text).map(|log| log.arrivals()));
    let arrivals = arrivals
        .map_err(|e| format!("generated log does not parse: {e}"))?
        .map_err(|e| format!("generated log arrivals invalid: {e}"))?;
    let (secs, stats) = best_of(passes, || run_replay(threads, &spec, &arrivals));
    let stats = stats.map_err(|e| format!("replay failed: {e}"))?;
    assert_eq!(stats.channels, channels, "every channel must be replayed");
    let mb = text.len() as f64 / 1e6;
    let note = format!(
        "{mb:.1} MB log parsed at {:.0} MB/s, {} faults",
        mb / parse_secs,
        stats.faults
    );
    Ok((secs, channels, note))
}

/// Segment-wise ingestion through the digital twin's protocol (strict
/// parse, arrival extension, incremental checkpoint extension), then the
/// what-if ladder over the ingested fleet: the cold fork, the warm
/// branch query, and the memoised re-issue, which must answer with the
/// cold fork's exact bytes.
fn measure_serve(threads: usize, rung: &str, passes: usize) -> Result<Measured, String> {
    let channels = channels(rung)?;
    let log = generate_log(&FleetSpec::baseline(channels));
    let per_segment = (log.dimms.len() / SERVE_SEGMENTS).max(1);
    let segments: Vec<String> = log
        .split_channels(per_segment)
        .iter()
        .map(|s| s.to_text())
        .collect();
    let (secs, service) = best_of(passes, || ingest(threads, &segments));
    let mut service = service?;
    assert_eq!(
        service.engine().channels(),
        channels,
        "every channel must be ingested"
    );
    let request = "whatif policy=replace-on-due";
    let (cold_secs, cold) = timed(|| service.handle(request, None));
    let (warm_secs, warm) =
        timed(|| service.handle("query-stats branch=whatif:replace-on-due", None));
    let (memo_secs, memo) = timed(|| service.handle(request, None));
    assert_eq!(cold, memo, "memoised response must be byte-identical");
    assert!(warm.starts_with("{\"ok\":true"), "{warm}");
    let note = format!(
        "{} segments, what-if cold {:.1}ms / warm {:.1}ms / memo {:.3}ms",
        segments.len(),
        cold_secs * 1e3,
        warm_secs * 1e3,
        memo_secs * 1e3
    );
    Ok((secs, channels, note))
}

fn ingest(threads: usize, segments: &[String]) -> Result<Service, String> {
    let mut service = Service::new(TwinEngine::new(threads, 0x5E21).shard_channels(4096));
    for text in segments {
        let request = format!("ingest lines={}", text.lines().count());
        let reply = service.handle(&request, Some(text));
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("ingest refused: {reply}"));
        }
    }
    Ok(service)
}

/// Recorder A/B at 100k channels: best-of-3 plain [`run_fleet`] vs
/// best-of-3 [`run_fleet_observed`], failing when the enabled recorder
/// costs more than [`OBS_AB_TOLERANCE`] after one retry.
fn obs_ab(threads: usize) -> Result<(), String> {
    let spec = FleetSpec::baseline(100_000);
    let overhead = || {
        let (plain, stats) = best_of(3, || run_fleet(threads, &spec));
        let (observed, (obs_stats, snapshot)) = best_of(3, || run_fleet_observed(threads, &spec));
        assert_eq!(stats, obs_stats, "observed run must not change results");
        assert!(!snapshot.is_empty(), "observed run must record metrics");
        (plain, observed, observed / plain - 1.0)
    };
    let (mut plain, mut observed, mut delta) = overhead();
    if delta > OBS_AB_TOLERANCE {
        // One retry: both sides are best-of-3 already, but a loaded
        // machine can still skew one whole triple.
        (plain, observed, delta) = overhead();
    }
    println!(
        "obs A/B: 100000 channels, plain {plain:.3}s vs observed {observed:.3}s ({})",
        pct(delta)
    );
    if delta > OBS_AB_TOLERANCE {
        return Err(format!(
            "enabled recorder costs {} (budget {})",
            pct(delta),
            pct(OBS_AB_TOLERANCE)
        ));
    }
    Ok(())
}

/// Where `BENCH_<suite>.json` lives: the workspace root.
fn record_path(suite: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(format!("BENCH_{suite}.json"))
}

/// Measures one rung and prints its table row.
fn run_rung(suite: &Suite, threads: usize, rung: &str, passes: usize) -> Result<Rung, String> {
    let (seconds, units, note) = (suite.measure)(threads, rung, passes)?;
    let per_sec = units as f64 / seconds;
    println!("{rung:>16}  {seconds:>9.3}s  {per_sec:>12.0}/s  {note}");
    Ok(Rung {
        rung: rung.into(),
        seconds,
        per_sec,
    })
}

/// `bench record <suite>`: best of 3 passes per rung, written to the
/// committed `BENCH_<suite>.json`.
fn record(suite: &Suite, threads: usize) -> Result<(), String> {
    let results = (suite.rungs)()
        .iter()
        .map(|rung| run_rung(suite, threads, rung, 3))
        .collect::<Result<_, _>>()?;
    let record = Record {
        bench: suite.name.into(),
        threads,
        results,
    };
    let path = record_path(suite.name);
    std::fs::write(&path, record.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} record written to {}", suite.name, path.display());
    Ok(())
}

/// `bench gate <suite>`: one pass per rung against the committed
/// record (see [`compare`]); `fleet` adds the recorder A/B rung.
fn gate(suite: &Suite, threads: usize) -> Result<(), String> {
    let path = record_path(suite.name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline = Record::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let machines = format!(
        "baseline recorded with {} thread(s), this run {threads}",
        baseline.threads
    );
    let mut failures = Vec::new();
    let rate = |rung: &str| run_rung(suite, threads, rung, 1).map(|r| r.per_sec);
    match compare(&baseline, &(suite.rungs)(), rate) {
        Ok(n) => println!(
            "bench gate {}: all {n} rung(s) within 30% of the committed baseline ({machines}).",
            suite.name
        ),
        Err(e) => failures.push(format!("bench gate {} ({machines}):\n{e}", suite.name)),
    }
    if suite.name == "fleet" {
        failures.extend(obs_ab(threads).err().map(|e| format!("obs A/B: {e}")));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// `bench replay-log <path>`: parse a field-data fault log and replay it
/// under the spec derived from its own inventory.
fn replay_log(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (parse_secs, parsed) = timed(|| FaultLog::parse(&text).map(|log| (log.arrivals(), log)));
    let (arrivals, log) = parsed.map_err(|e| format!("{path} does not parse: {e}"))?;
    let arrivals = arrivals.map_err(|e| format!("{path}: arrivals invalid: {e}"))?;
    println!(
        "replaying {path}: {} dimms, {} classes, {} faults over {} years",
        log.dimms.len(),
        log.classes.len(),
        log.faults.len(),
        log.years
    );
    let spec = log.replay_spec(0xF1EE7);
    let (replay_secs, stats) = timed(|| run_replay(default_threads(), &spec, &arrivals));
    let stats = stats.map_err(|e| format!("replay failed: {e}"))?;
    println!("  parse {parse_secs:.3}s, replay {replay_secs:.3}s");
    println!(
        "  replayed: faults={} DUEs={} SDC channels={} upgraded fraction={:.5}",
        stats.faults,
        stats.due_events,
        stats.sdc_channels,
        stats.avg_upgraded_fraction()
    );
    Ok(())
}

const USAGE: &str = "usage: bench record <suite> | bench gate <suite> | bench replay-log <path>
suites: codec, fleet, replay, serve";

/// Entry point of the `bench` binary; `args` excludes the program name.
/// Returns the process exit code: 0 on success, 1 on a failed gate or
/// measurement, 2 on a usage error.
pub fn bench_main(args: impl IntoIterator<Item = String>) -> i32 {
    let args: Vec<String> = args.into_iter().collect();
    let result = match args.as_slice() {
        [verb, path] if verb == "replay-log" => replay_log(path),
        [verb, name] if verb == "record" || verb == "gate" => {
            let Some(suite) = SUITES.iter().find(|s| s.name == name) else {
                eprintln!("unknown suite {name}\n{USAGE}");
                return 2;
            };
            let threads = (suite.threads)();
            println!("{} ladder, {threads} worker(s):", suite.name);
            println!("            rung     seconds         per sec  detail");
            if verb == "record" {
                record(suite, threads)
            } else {
                gate(suite, threads)
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("FAILED: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(rungs: &[(&str, f64)]) -> Record {
        Record {
            bench: "test".into(),
            threads: 1,
            results: rungs
                .iter()
                .map(|&(rung, per_sec)| Rung {
                    rung: rung.into(),
                    seconds: 1.0,
                    per_sec,
                })
                .collect(),
        }
    }

    #[test]
    fn record_round_trips_string_labels() {
        let record = baseline(&[("two-tier-secded", 746212.4958729785), ("1000000", 5e5)]);
        let json = record.to_json();
        assert!(json.starts_with("{\"bench\":\"test\",\"threads\":1,"));
        assert!(json.contains("{\"rung\":\"two-tier-secded\",\"seconds\":1,"));
        assert_eq!(Record::parse(&json), Ok(record));
        assert!(Record::parse("{\"bench\":\"codec\",\"threads\":1}").is_err());
        assert!(Record::parse(&json.replace("\"per_sec\"", "\"rate\"")).is_err());
    }

    #[test]
    fn gate_fails_31_percent_below_and_passes_29_percent_below() {
        let base = baseline(&[("10000", 100.0)]);
        let rungs = vec!["10000".to_string()];
        let mut calls = 0;
        let slow = compare(&base, &rungs, |_| {
            calls += 1;
            Ok(69.0)
        });
        assert!(slow.is_err_and(|e| e.contains("rung 10000")));
        assert_eq!(calls, 2, "a rung below its floor is retried exactly once");

        calls = 0;
        let ok = compare(&base, &rungs, |_| {
            calls += 1;
            Ok(71.0)
        });
        assert_eq!(ok, Ok(1));
        assert_eq!(calls, 1, "a rung above its floor is measured once");

        let recovered = compare(&base, &rungs, {
            let mut rates = [69.0, 90.0].into_iter();
            move |_| Ok(rates.next().unwrap_or(0.0))
        });
        assert_eq!(recovered, Ok(1), "a passing retry clears the rung");
    }

    #[test]
    fn gate_fails_when_no_rung_matches() {
        let base = baseline(&[("1", 100.0)]);
        let verdict = compare(&base, &["10000".to_string()], |_| Ok(1e9));
        assert!(verdict.is_err_and(|e| e.contains("no rungs matching")));
    }

    #[test]
    fn committed_baselines_name_every_rung() {
        for suite in &SUITES {
            let path = record_path(suite.name);
            let text = std::fs::read_to_string(&path).expect("committed baseline exists");
            let record = Record::parse(&text).expect("committed baseline parses");
            assert_eq!(
                record.to_json(),
                text,
                "one writer: the file is what `record` writes"
            );
            assert_eq!(record.bench, suite.name);
            for rung in (suite.rungs)() {
                assert!(
                    record.rate(&rung).is_some(),
                    "{} has no rung {rung}: re-record with `bench record {}`",
                    path.display(),
                    suite.name
                );
            }
        }
    }

    #[test]
    fn bench_main_rejects_bad_usage() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(bench_main(args(&[])), 2);
        assert_eq!(bench_main(args(&["gate", "nope"])), 2);
        assert_eq!(bench_main(args(&["rerecord", "fleet"])), 2);
    }

    #[test]
    fn timing_helpers_time_and_return() {
        let (secs, value) = timed(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(secs >= 0.0 && secs.is_finite());

        let mut pass = 0u32;
        let (best, last) = best_of(3, || {
            pass += 1;
            pass
        });
        assert_eq!(pass, 3, "best_of must run every pass");
        assert_eq!(last, 3, "best_of returns the final pass's result");
        assert!(best >= 0.0 && best.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn best_of_rejects_zero_passes() {
        best_of(0, || ());
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(pct(0.367), "+36.7%");
        assert_eq!(pct(-0.059), "-5.9%");
    }
}
