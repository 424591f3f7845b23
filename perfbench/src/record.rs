//! The result record: every metric with its unit and sample count, the
//! deterministic work counts, and the stamp of the machine and code that
//! produced them. Records only compare when their machine stamps match.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{number, quote, Json};

/// Record schema tag; bump when the layout changes.
pub const SCHEMA: &str = "perfbench-record/1";

/// Where and from what a record was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub logical_cores: usize,
    pub cpu_model: String,
    pub threads: usize,
    pub seed: u64,
    pub commit: String,
}

impl Stamp {
    /// Stamps a run on this machine.
    pub fn here(threads: usize, seed: u64, root: &Path) -> Self {
        Self {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            threads,
            seed,
            commit: commit_id(root),
        }
    }

    /// Why two stamps describe different machines or thread counts, or
    /// `None` when their timings may be compared. Seed and commit are
    /// allowed to differ: comparing commits on one machine is the point.
    pub fn mismatch(&self, other: &Stamp) -> Option<String> {
        let mut why = Vec::new();
        if self.logical_cores != other.logical_cores {
            why.push(format!(
                "logical_cores {} vs {}",
                self.logical_cores, other.logical_cores
            ));
        }
        if self.cpu_model != other.cpu_model {
            why.push(format!(
                "cpu_model {:?} vs {:?}",
                self.cpu_model, other.cpu_model
            ));
        }
        if self.threads != other.threads {
            why.push(format!("threads {} vs {}", self.threads, other.threads));
        }
        (!why.is_empty()).then(|| why.join("; "))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub traced: bool,
    pub stamp: Stamp,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Deterministic work counts and digests; identical across runs of
    /// the same code and seed.
    pub counts: BTreeMap<String, u64>,
}

impl Record {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One-line JSON form. Counts are written as decimal strings so
    /// 64-bit digests survive readers that hold numbers as doubles.
    pub fn to_json(&self) -> String {
        let s = &self.stamp;
        let mut out = format!(
            "{{\"record\":{},\"workload\":{},\"trace\":{},\"stamp\":{{\"logical_cores\":{},\
             \"cpu_model\":{},\"threads\":{},\"seed\":{},\"commit\":{}}},\"attempted\":{},\
             \"failed\":{},\"fail_ratio\":{},\"metrics\":[",
            quote(SCHEMA),
            quote(&self.workload),
            u8::from(self.traced),
            s.logical_cores,
            quote(&s.cpu_model),
            s.threads,
            s.seed,
            quote(&s.commit),
            self.attempted,
            self.failed,
            number(self.fail_ratio()),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit),
                m.samples
            ));
        }
        out.push_str("],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:\"{v}\"", quote(k)));
        }
        out.push_str("}}");
        out
    }

    /// Reads a record back from [`Record::to_json`] output.
    pub fn from_json(text: &str) -> Result<Record, String> {
        let v = Json::parse(text)?;
        if v.get("record").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} record"));
        }
        let num = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number {k:?}"))
        };
        let text_of = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {k:?}"))
        };
        let stamp = v.get("stamp").ok_or("missing stamp")?;
        let stamp = Stamp {
            logical_cores: num(stamp, "logical_cores")? as usize,
            cpu_model: text_of(stamp, "cpu_model")?,
            threads: num(stamp, "threads")? as usize,
            seed: num(stamp, "seed")? as u64,
            commit: text_of(stamp, "commit")?,
        };
        let mut metrics = Vec::new();
        for m in v
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("missing metrics")?
        {
            metrics.push(Metric {
                name: text_of(m, "name")?,
                value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                unit: text_of(m, "unit")?,
                samples: num(m, "samples")? as usize,
            });
        }
        let mut counts = BTreeMap::new();
        if let Some(Json::Obj(c)) = v.get("counts") {
            for (k, val) in c {
                let n = val
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("count {k:?} is not a decimal string"))?;
                counts.insert(k.clone(), n);
            }
        }
        Ok(Record {
            workload: text_of(&v, "workload")?,
            traced: num(&v, "trace")? != 0.0,
            stamp,
            attempted: num(&v, "attempted")? as u64,
            failed: num(&v, "failed")? as u64,
            metrics,
            counts,
        })
    }
}

/// Side-by-side report of two records of the same workload on the same
/// machine; refuses (with the reason) when they are not comparable.
pub fn compare(a: &Record, b: &Record) -> Result<String, String> {
    if let Some(why) = a.stamp.mismatch(&b.stamp) {
        return Err(format!("machine stamps differ: {why}"));
    }
    if a.workload != b.workload || a.traced != b.traced {
        return Err(format!(
            "different runs: workload {} trace {} vs workload {} trace {}",
            a.workload,
            u8::from(a.traced),
            b.workload,
            u8::from(b.traced)
        ));
    }
    let mut out = format!(
        "workload {}: commit {} seed {} -> commit {} seed {}\n",
        a.workload, a.stamp.commit, a.stamp.seed, b.stamp.commit, b.stamp.seed
    );
    for m in &a.metrics {
        match b.metrics.iter().find(|n| n.name == m.name) {
            Some(n) => out.push_str(&format!(
                "{:<40} {:>14.6} -> {:>14.6} {:<8} x{:.4}\n",
                m.name,
                m.value,
                n.value,
                m.unit,
                n.value / m.value
            )),
            None => out.push_str(&format!("{:<40} only in the first record\n", m.name)),
        }
    }
    if a.stamp.seed == b.stamp.seed {
        for (k, v) in &a.counts {
            if b.counts.get(k) != Some(v) {
                out.push_str(&format!(
                    "count {k} differs: {v} vs {:?}\n",
                    b.counts.get(k)
                ));
            }
        }
    }
    Ok(out)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A digest of the sources the benchmark builds (`tree-<hex>`), prefixed
/// with the git commit when `root` is a git checkout: uncommitted edits
/// and plain source copies are still told apart.
fn commit_id(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.lock",
        "Cargo.toml",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_sources(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = crate::digest::Fnv::new();
    for f in &files {
        h.write(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        if let Ok(bytes) = std::fs::read(f) {
            h.write(&bytes);
        }
    }
    let tree = format!("tree-{:016x}", h.finish());
    // Only ask git about `root` itself, never about a repository that
    // happens to enclose a plain source copy.
    if root.join(".git").exists() {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = out {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if out.status.success() && !sha.is_empty() {
                return format!("{sha}+{tree}");
            }
        }
    }
    tree
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() && name != "target" && name != "fixtures" {
                collect_sources(&p, out);
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                out.push(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            workload: "fleet_scale".to_string(),
            traced: false,
            stamp: Stamp {
                logical_cores: 2,
                cpu_model: "Test \"CPU\" @ 2GHz".to_string(),
                threads: 2,
                seed: 7,
                commit: "abc123".to_string(),
            },
            attempted: 12,
            failed: 1,
            metrics: vec![
                Metric {
                    name: "fleet_ch_per_s".to_string(),
                    value: 12_345_678.901_234_5,
                    unit: "1/s".to_string(),
                    samples: 5,
                },
                Metric {
                    name: "setup_s".to_string(),
                    value: 0.1 + 0.2,
                    unit: "s".to_string(),
                    samples: 3,
                },
            ],
            counts: [("digest".to_string(), u64::MAX - 3), ("n".to_string(), 0)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let r = sample();
        let back = Record::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.metrics[1].value.to_bits(), (0.1f64 + 0.2).to_bits());
        assert!((r.fail_ratio() - 1.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    fn compare_refuses_different_machines_and_says_why() {
        let a = sample();
        let mut b = sample();
        b.stamp.commit = "def456".to_string();
        b.stamp.seed = 8;
        assert!(compare(&a, &b).is_ok(), "commit and seed may differ");
        b.stamp.cpu_model = "Other".to_string();
        b.stamp.threads = 1;
        let why = compare(&a, &b).unwrap_err();
        assert!(
            why.contains("cpu_model") && why.contains("threads 2 vs 1"),
            "{why}"
        );
        let mut c = sample();
        c.workload = "paper_repro".to_string();
        assert!(compare(&a, &c).unwrap_err().contains("workload"));
    }

    #[test]
    fn compare_lists_count_drift_on_the_same_seed() {
        let a = sample();
        let mut b = sample();
        b.counts.insert("n".to_string(), 1);
        assert!(compare(&a, &b).unwrap().contains("count n differs"));
    }
}
