//! Workload inputs, output digests and the standalone reference runs
//! the outputs are checked against.

use std::path::{Path, PathBuf};
use std::time::Instant;

use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_sampling::{Interval, Sampler};
use regmon_workload::{suite, Workload};

use crate::measure::Latencies;
use crate::report::Report;

/// The seed whose digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Sampling period of every session (the program's usual default).
pub const PERIOD: u64 = 45_000;

/// Digests of every program's or tenant's `SessionSummary` at
/// [`DEFAULT_SEED`], one `workload label digest` line each.
const COMMITTED: &str = include_str!("../digests.txt");

/// Program `index` of a workload: the suite model `name` whose sampling
/// draws come from `seed ^ index`.
///
/// # Panics
///
/// On a name the suite does not have (a bug in this benchmark).
#[must_use]
pub fn program(name: &str, seed: u64, index: usize) -> Workload {
    suite::by_name(name)
        .expect("benchmark programs are suite models")
        .with_seed(seed ^ index as u64)
}

/// The label a program or tenant is reported and digested under.
#[must_use]
pub fn label(name: &str, index: usize) -> String {
    format!("{name}#{index}")
}

/// FNV-1a over the summary's `Debug` form, which prints every field,
/// floats included, exactly.
#[must_use]
pub fn digest(summary: &SessionSummary) -> u64 {
    format!("{summary:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The committed digest of `label` on `workload`, when `seed` is the
/// default seed.
#[must_use]
pub fn committed(workload: &str, label: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    COMMITTED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(workload) && fields.next() == Some(label))
            .then(|| fields.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    })
}

/// The expected output of one program or tenant: the digest of a
/// standalone session over the same inputs.
#[derive(Debug)]
pub struct Expected {
    /// Reporting label.
    pub label: String,
    /// Intervals the program or tenant contributes per run.
    pub intervals: u64,
    /// Digest of the standalone session's summary.
    pub digest: u64,
}

/// Checks a reference digest against the committed one (default seed
/// only) and prints it on stderr as `digest <workload> <label> <hex>`,
/// the line `digests.txt` keeps without its `digest ` prefix. A mismatch
/// or a missing digest fails the reference itself, so every run it
/// checks fails too.
fn settle_reference(workload: &str, seed: u64, expected: &Expected, report: &mut Report) -> bool {
    eprintln!(
        "digest {workload} {} {:016x}",
        expected.label, expected.digest
    );
    match committed(workload, &expected.label, seed) {
        Some(want) if want != expected.digest => {
            report.problems.push(format!(
                "{}: summary digest {:016x} differs from the committed {want:016x}",
                expected.label, expected.digest
            ));
            false
        }
        None if seed == DEFAULT_SEED => {
            report.problems.push(format!(
                "{}: no committed digest for the default seed",
                expected.label
            ));
            false
        }
        _ => true,
    }
}

/// Checks every run's per-tenant outcome (`Ok(digest)`, or why the
/// tenant produced no usable summary) against the references. Each
/// failed tenant fails all of its intervals in that run.
pub fn check_runs(
    workload: &str,
    seed: u64,
    expected: &[Expected],
    runs: &[Vec<Result<u64, String>>],
    report: &mut Report,
) {
    for (t, want) in expected.iter().enumerate() {
        let reference_ok = settle_reference(workload, seed, want, report);
        let mut bad = 0usize;
        let mut first = None;
        for run in runs {
            let why = match run.get(t) {
                None => Some("missing from the run".to_string()),
                Some(Err(why)) => Some(why.clone()),
                Some(Ok(got)) if *got != want.digest => Some(format!(
                    "summary digest {got:016x}, reference {:016x}",
                    want.digest
                )),
                Some(Ok(_)) => (!reference_ok).then(|| "reference rejected above".to_string()),
            };
            if let Some(why) = why {
                bad += 1;
                first.get_or_insert(why);
            }
        }
        if let Some(why) = first {
            report.fail(
                bad as u64 * want.intervals,
                format!(
                    "{}: {bad} of {} runs failed ({why})",
                    want.label,
                    runs.len()
                ),
            );
        }
    }
}

/// `n` intervals of `workload`, as the session's sampler draws them.
#[must_use]
pub fn intervals(workload: &Workload, config: &SessionConfig, n: usize) -> Vec<Interval> {
    Sampler::new(workload, config.sampling).take(n).collect()
}

/// A standalone session of `workload` over `intervals`: the steps of
/// [`MonitoringSession::run_limited`] when they are the sampler's first
/// intervals, with each `process_interval` timed into `latencies`.
#[must_use]
pub fn standalone(
    workload: &Workload,
    config: &SessionConfig,
    intervals: &[Interval],
    latencies: &mut Latencies,
) -> MonitoringSession {
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(workload);
    for interval in intervals {
        let start = Instant::now();
        session.process_interval(interval);
        latencies.push(start.elapsed());
    }
    session
}

/// A session to restore from its checkpoint file.
#[derive(Debug)]
pub struct Checkpointed {
    /// Program the session monitored (for its binary and name).
    pub workload: Workload,
    /// The checkpoint file.
    pub path: PathBuf,
    /// Digest of the session's summary before it was checkpointed.
    pub digest: u64,
}

/// Writes `session`'s RGSN checkpoint under `dir` as file `slot`.
pub fn checkpoint(
    dir: &Path,
    slot: usize,
    workload: &Workload,
    session: &MonitoringSession,
) -> Result<Checkpointed, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("session-{slot:04}.rgsn"));
    regmon_serve::save_snapshot(&path, &session.snapshot())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Checkpointed {
        workload: workload.clone(),
        path,
        digest: digest(&session.summary(workload.name())),
    })
}

/// Restores every checkpointed session once, one at a time (load the
/// file, decode, rebuild the session, attach its binary). Returns the
/// seconds that took and the indices of sessions whose restored summary
/// differs from the original, or that failed to load.
#[must_use]
pub fn restore_once(sessions: &[Checkpointed]) -> (f64, Vec<usize>) {
    let mut secs = 0.0;
    let mut bad = Vec::new();
    for (i, c) in sessions.iter().enumerate() {
        let start = Instant::now();
        let restored = regmon_serve::load_snapshot(&c.path).ok().map(|snapshot| {
            let mut session = MonitoringSession::from_snapshot(snapshot);
            session.attach_binary(&c.workload);
            session
        });
        secs += start.elapsed().as_secs_f64();
        if !restored.is_some_and(|s| digest(&s.summary(c.workload.name())) == c.digest) {
            bad.push(i);
        }
    }
    (secs, bad)
}

/// Records a failed restore of checkpoint `index` once per session.
pub fn fail_restores(
    sessions: &[Checkpointed],
    bad: &[usize],
    intervals: u64,
    report: &mut Report,
) {
    let mut bad = bad.to_vec();
    bad.sort_unstable();
    bad.dedup();
    for i in bad {
        report.fail(
            intervals,
            format!(
                "{}: restored session differs from its checkpoint",
                sessions[i].path.display()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_matches_run_limited() {
        let config = SessionConfig::new(PERIOD);
        for (i, name) in ["181.mcf", "254.gap"].into_iter().enumerate() {
            let w = program(name, 9, i);
            let mut latencies = Latencies::with_capacity(0);
            let session = standalone(&w, &config, &intervals(&w, &config, 30), &mut latencies);
            assert_eq!(latencies.len(), 30);
            assert_eq!(
                digest(&session.summary(w.name())),
                digest(&MonitoringSession::run_limited(&w, &config, 30)),
                "{name}"
            );
        }
    }

    #[test]
    fn committed_digests_cover_the_default_seed_only() {
        assert!(committed("session-steady", "176.gcc#0", DEFAULT_SEED).is_some());
        assert!(committed("serve-wal", "164.gzip#0", DEFAULT_SEED).is_some());
        assert!(committed("session-steady", "176.gcc#0", DEFAULT_SEED + 1).is_none());
        assert!(committed("session-steady", "no-such#0", DEFAULT_SEED).is_none());
    }

    #[test]
    fn checkpoints_restore_to_the_same_summary() {
        let dir = std::env::temp_dir().join(format!("perfbench-ckpt-{}", std::process::id()));
        let config = SessionConfig::new(PERIOD);
        let w = program("187.facerec", 4, 0);
        let session = standalone(
            &w,
            &config,
            &intervals(&w, &config, 25),
            &mut Latencies::with_capacity(0),
        );
        let sessions = vec![checkpoint(&dir, 0, &w, &session).expect("checkpoint written")];
        let (_, bad) = restore_once(&sessions);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(bad.is_empty());
    }
}
