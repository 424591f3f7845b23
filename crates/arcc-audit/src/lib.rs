//! `arcc-audit`: a dependency-free static-analysis suite for the arcc
//! workspace.
//!
//! The fleet engine's headline results rest on a determinism contract —
//! parallel sweeps byte-identical to sequential runs, the calendar event
//! queue popping in a binary heap's order, replay round trips lossless.
//! The proptests enforce that contract dynamically; this tool enforces it
//! at the source level, so a stray `HashMap` iteration or wall-clock read
//! is caught in CI before it can make a run irreproducible. Eight checks:
//!
//! 1. **Determinism lints** — ban `HashMap`/`HashSet`, `Instant::now`,
//!    `SystemTime`, `thread_rng`, and environment reads in library code of
//!    the deterministic crates. Tests, benches, and binaries are exempt;
//!    justified exceptions live in `audit/allowlist.toml`.
//! 2. **Parallelism-safety lints** — ban shared-mutable-state primitives
//!    (`Mutex`, `RwLock`, cells, atomics, `static mut`, `thread_local!`)
//!    in the same library code, the static precondition for running
//!    sweeps under a parallel fleet runner.
//! 3. **Crate layering** — `audit/layers.toml` assigns each crate an
//!    integer layer; `Cargo.toml` dependencies and `use arcc_*` paths may
//!    only reach strictly lower layers.
//! 4. **Unsafe policy** — every crate root must carry
//!    `#![forbid(unsafe_code)]`; an allowlisted crate may use `unsafe`
//!    only under `// SAFETY:` comments.
//! 5. **Panic ratchet** — per-crate counts of `unwrap()`/`expect()`/
//!    `panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test library
//!    code may never rise above `audit/ratchet.toml`, and improvements
//!    must be locked in with `--fix-ratchet`.
//! 6. **Public-API snapshot** — each library crate's pub-reachable
//!    signatures are compared against `audit/api/<crate>.txt`; any drift
//!    fails until reviewed and accepted with `--fix-api`.
//! 7. **Doc-coverage ratchet** — the percentage of public items carrying
//!    docs may never fall below the `[doc_coverage]` bounds in
//!    `audit/ratchet.toml`.
//! 8. **Fingerprint drift** — the fields of `FleetSpec` and the
//!    checkpoint structs are compared against `audit/fingerprint.toml`,
//!    which classifies each as fingerprinted or excluded, so a new knob
//!    cannot silently skip the checkpoint-compatibility decision.
//!
//! The tool is pure `std` (rust-tidy-style) and never drags the crates it
//! audits into its build graph. Since PR 7 it lexes and parses for real:
//! [`lex`] produces spanned tokens and token trees, [`model`] builds a
//! semantic item model per crate (module tree, visibility, signatures,
//! doc attachment), and every check consumes that model.

#![forbid(unsafe_code)]

pub mod checks;
pub mod config;
pub mod lex;
pub mod model;
pub mod report;
pub mod scan;
pub mod workspace;

use std::io;
use std::path::Path;

use report::AuditOutcome;
use workspace::Workspace;

/// Runs every check over the workspace at `root` and returns the sorted
/// outcome.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable sources, missing root
/// manifest); configuration problems are reported as violations instead.
pub fn run_audit(root: &Path) -> io::Result<AuditOutcome> {
    let ws = Workspace::discover(root)?;
    let mut out = AuditOutcome::default();
    checks::run_all(&ws, &mut out)?;
    out.finish();
    Ok(out)
}

/// What [`fix_ratchet`] measured and wrote.
pub struct RatchetCounts {
    /// Per-crate panic-site counts, sorted by crate.
    pub panic_counts: Vec<(String, i64)>,
    /// Per-lib-crate doc-coverage percent, sorted by crate.
    pub doc_counts: Vec<(String, i64)>,
}

/// Rewrites `audit/ratchet.toml` under `root` with the measured per-crate
/// panic-site counts and doc-coverage percentages, returning them.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn fix_ratchet(root: &Path) -> io::Result<RatchetCounts> {
    let ws = Workspace::discover(root)?;
    let m = checks::measure(&ws)?;
    let dir = root.join("audit");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join("ratchet.toml"),
        config::Ratchet::render(&m.panic_counts, &m.doc_counts),
    )?;
    Ok(RatchetCounts {
        panic_counts: m.panic_counts,
        doc_counts: m.doc_counts,
    })
}

/// Rewrites `audit/api/<crate>.txt` for every library crate with the
/// measured public-API lines, pruning snapshots of crates that no longer
/// exist. Returns `(crate, line count)` pairs.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn fix_api(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let ws = Workspace::discover(root)?;
    let m = checks::measure(&ws)?;
    let dir = root.join("audit/api");
    std::fs::create_dir_all(&dir)?;
    let mut out = Vec::with_capacity(m.api.len());
    for (name, lines) in &m.api {
        let mut text = format!(
            "# Public-API snapshot for {name} — managed by \
             `cargo run -p arcc-audit -- --fix-api`.\n\
             # One sorted, normalized signature per line; `#` lines are ignored.\n"
        );
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(dir.join(format!("{name}.txt")), text)?;
        out.push((name.clone(), lines.len()));
    }
    // Prune snapshots for crates that vanished.
    for entry in std::fs::read_dir(&dir)?.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = file.strip_suffix(".txt") {
            if !m.api.iter().any(|(n, _)| n == stem) {
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(out)
}

/// Renders a committed-vs-current public-API diff as text (`+` added,
/// `-` removed, per crate), suitable for a CI artifact.
///
/// # Errors
///
/// Propagates filesystem errors reading sources.
pub fn api_diff(root: &Path) -> io::Result<String> {
    let ws = Workspace::discover(root)?;
    let m = checks::measure(&ws)?;
    let mut out = String::new();
    let mut drift = false;
    for (name, lines) in &m.api {
        let committed_text =
            std::fs::read_to_string(root.join(format!("audit/api/{name}.txt"))).unwrap_or_default();
        let committed: std::collections::BTreeSet<&str> = committed_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let current: std::collections::BTreeSet<&str> = lines.iter().map(String::as_str).collect();
        let added: Vec<&&str> = current.difference(&committed).collect();
        let removed: Vec<&&str> = committed.difference(&current).collect();
        if added.is_empty() && removed.is_empty() {
            continue;
        }
        drift = true;
        out.push_str(&format!("{name}: +{} -{}\n", added.len(), removed.len()));
        for l in added {
            out.push_str(&format!("  + {l}\n"));
        }
        for l in removed {
            out.push_str(&format!("  - {l}\n"));
        }
    }
    if !drift {
        out.push_str("no public-API drift\n");
    }
    Ok(out)
}
