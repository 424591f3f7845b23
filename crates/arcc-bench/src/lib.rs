//! Shared harness for the experiment and bench binaries of the ARCC
//! workspace.
//!
//! Every table and figure of the paper is reproduced by `repro_all`,
//! which loops the in-process scenario registry in [`arcc_exp`]
//! (`arcc::exp`) via [`arcc_exp::repro_all_main`], writing JSON reports
//! under `target/repro/`; `repro_all <name>` runs a single artefact
//! (e.g. `repro_all fig7_6`).
//!
//! Knobs are typed on [`arcc_exp::Experiment`]; the legacy environment
//! variables (`ARCC_TRACE_REQUESTS`, `ARCC_MC_CHANNELS`,
//! `ARCC_MC_MACHINES`) survive as a deprecated fallback through
//! [`arcc_exp::Experiment::from_env`], which `repro_all` uses so existing
//! CI configurations keep working.

#![forbid(unsafe_code)]

use arcc_obs::{elapsed_secs, Clock, WallClock};

/// Wall-clock seconds spent in `f`, plus its result — the shared
/// timing primitive behind every bench bin and throughput record,
/// built on the [`arcc_obs::Clock`] abstraction so the only raw
/// `Instant` reads in the workspace live in `arcc-obs`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let clock = WallClock::new();
    let start = clock.now_nanos();
    let out = f();
    (elapsed_secs(&clock, start), out)
}

/// Best-of-`passes` timing of `f`: the minimum wall-clock seconds over
/// all passes, plus the result of the final pass. Committed bench
/// records are gate baselines, so scheduler noise must not understate
/// them — every record measurement goes through this.
///
/// # Panics
///
/// Panics when `passes` is zero (there would be nothing to return).
pub fn best_of<T>(passes: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(passes > 0, "best_of needs at least one pass");
    let (mut best, mut out) = timed(&mut f);
    for _ in 1..passes {
        let (secs, value) = timed(&mut f);
        best = best.min(secs);
        out = value;
    }
    (best, out)
}

/// The throughput-regression gate shared by the `fleet` and `replay`
/// bins: measured channels/sec at each ladder rung is compared against a
/// committed `BENCH_*.json` record named by `ARCC_BENCH_BASELINE`, and
/// the run fails when any recorded rung drops more than
/// [`BenchGate::REGRESSION_TOLERANCE`] below its baseline. A gate that
/// matched *no* rungs also fails — baseline format drift must not let
/// regressions ship under a green job.
pub struct BenchGate {
    requested: bool,
    baseline: Vec<(u64, f64)>,
    checked: usize,
    regressions: Vec<String>,
}

impl BenchGate {
    /// Fractional slowdown tolerated against the committed baseline
    /// (bench machines vary; real regressions are larger).
    pub const REGRESSION_TOLERANCE: f64 = 0.30;

    /// Builds the gate from `ARCC_BENCH_BASELINE` (absent = disabled;
    /// present-but-unreadable = immediate failure).
    pub fn from_env() -> Self {
        let requested = std::env::var("ARCC_BENCH_BASELINE").is_ok();
        let baseline = std::env::var("ARCC_BENCH_BASELINE")
            .ok()
            .map(|path| match std::fs::read_to_string(&path) {
                Ok(text) => Self::parse_rungs(&text),
                Err(e) => {
                    eprintln!("cannot read baseline {path}: {e}");
                    std::process::exit(1);
                }
            })
            .unwrap_or_default();
        Self {
            requested,
            baseline,
            checked: 0,
            regressions: Vec::new(),
        }
    }

    /// Extracts `(channels, channels_per_sec)` rungs from the hand-rolled
    /// `BENCH_*.json` format (no serde in the offline build).
    pub fn parse_rungs(text: &str) -> Vec<(u64, f64)> {
        let mut rungs = Vec::new();
        for entry in text.split('{').skip(2) {
            let field = |key: &str| -> Option<&str> {
                let start = entry.find(key)? + key.len();
                let rest = &entry[start..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                    .unwrap_or(rest.len());
                Some(&rest[..end])
            };
            let channels = field("\"channels\":").and_then(|v| v.parse::<u64>().ok());
            let rate = field("\"channels_per_sec\":").and_then(|v| v.parse::<f64>().ok());
            if let (Some(channels), Some(rate)) = (channels, rate) {
                rungs.push((channels, rate));
            }
        }
        rungs
    }

    /// The committed rate for a rung, if the baseline records it;
    /// calling this counts the rung as gate-checked.
    pub fn baseline_rate(&mut self, channels: u64) -> Option<f64> {
        let hit = self.baseline.iter().find(|(c, _)| *c == channels);
        if hit.is_some() {
            self.checked += 1;
        }
        hit.map(|(_, rate)| *rate)
    }

    /// The minimum acceptable rate against a committed baseline rate.
    pub fn floor_for(base_rate: f64) -> f64 {
        base_rate * (1.0 - Self::REGRESSION_TOLERANCE)
    }

    /// Records a rung regression (after the caller's retry, if any).
    pub fn fail_rung(&mut self, channels: u64, rate: f64, base_rate: f64) {
        self.regressions.push(format!(
            "{channels} channels: {rate:.0}/s is more than 30% below \
             the committed baseline {base_rate:.0}/s"
        ));
    }

    /// Prints the verdict and returns `false` when the process should
    /// exit non-zero (regressions, or a requested gate that compared
    /// nothing).
    pub fn finish(&self) -> bool {
        if !self.requested {
            return true;
        }
        if self.checked == 0 {
            eprintln!(
                "bench gate FAILED: baseline contained no rungs matching the \
                 measured sizes ({} baseline rungs parsed)",
                self.baseline.len()
            );
            return false;
        }
        if self.regressions.is_empty() {
            println!(
                "bench gate: all {} rung(s) within 30% of the committed baseline.",
                self.checked
            );
            true
        } else {
            for r in &self.regressions {
                eprintln!("bench gate FAILED: {r}");
            }
            false
        }
    }
}

/// Serialises a `BENCH_*.json` throughput record in the shared
/// hand-rolled format [`BenchGate::parse_rungs`] reads back.
pub fn bench_record_json(bench: &str, threads: usize, rungs: &[(u64, f64, f64)]) -> String {
    let entries: Vec<String> = rungs
        .iter()
        .map(|(channels, secs, rate)| {
            format!("{{\"channels\":{channels},\"seconds\":{secs},\"channels_per_sec\":{rate}}}")
        })
        .collect();
    format!(
        "{{\"bench\":\"{bench}\",\"threads\":{threads},\"results\":[{}]}}\n",
        entries.join(",")
    )
}

/// Stable [`BenchGate`] rung ids for the codec throughput record
/// (`BENCH_codec.json`). The gate keys rungs by an integer, so every
/// registry codec owns a fixed id here — never renumber one once a
/// committed baseline records it; append new codecs at the end.
pub const CODEC_RUNGS: &[(u64, &str)] = &[
    (1, "arcc-relaxed"),
    (2, "arcc-upgraded"),
    (3, "arcc-upgraded2"),
    (4, "sccdcd"),
    (5, "s8sc"),
    (6, "qpc"),
    (7, "multi-ecc"),
    (8, "two-tier-secded"),
];

/// The gate rung id of a registry codec, if it has one.
pub fn codec_rung_id(name: &str) -> Option<u64> {
    CODEC_RUNGS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(id, _)| *id)
}

/// Best-of-3 encode + clean-decode roundtrip throughput of one codec
/// over `lines` lines, as `(seconds, lines/sec)` of the best pass —
/// the shared measurement behind the `codec` bench record and the
/// `codec` bin's CI regression gate.
pub fn measure_codec(codec: &dyn arcc_gf::codec::Codec, lines: u64) -> (f64, f64) {
    let data: Vec<u8> = (0..codec.data_bytes())
        .map(|i| (i * 37 + 11) as u8)
        .collect();
    let (best, clean) = best_of(3, || {
        let mut clean = 0u64;
        for _ in 0..lines {
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
    assert_eq!(clean, lines, "{}: clean roundtrips failed", codec.name());
    (best, lines as f64 / best)
}

/// Prints a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {caption}");
    println!("==================================================================");
}

/// Formats a ratio as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Geometric mean of a slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_record_round_trips_through_the_gate_parser() {
        let json = bench_record_json(
            "replay",
            4,
            &[(10_000, 0.5, 20_000.0), (1_000_000, 2.0, 500_000.0)],
        );
        assert!(json.starts_with("{\"bench\":\"replay\",\"threads\":4,"));
        let rungs = BenchGate::parse_rungs(&json);
        assert_eq!(rungs, vec![(10_000, 20_000.0), (1_000_000, 500_000.0)]);
        assert_eq!(BenchGate::floor_for(100.0), 70.0);
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
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(pct(0.367), "+36.7%");
        assert_eq!(pct(-0.059), "-5.9%");
    }
}
