//! End-to-end tests of the `regmon` binary.

use std::process::Command;

fn regmon(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
        .args(args)
        .output()
        .expect("spawn regmon");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_every_benchmark() {
    let (ok, stdout, _) = regmon(&["list"]);
    assert!(ok);
    for name in ["164.gzip", "181.mcf", "301.apsi"] {
        assert!(stdout.contains(name), "{name} missing");
    }
}

#[test]
fn run_reports_both_detectors() {
    let (ok, stdout, _) = regmon(&["run", "172.mgrid", "--intervals", "20"]);
    assert!(ok);
    assert!(stdout.contains("GPD"));
    assert!(stdout.contains("LPD"));
    assert!(stdout.contains("regions formed"));
}

#[test]
fn run_json_is_parseable_shape() {
    let (ok, stdout, _) = regmon(&["run", "mcf", "--intervals", "10", "--json"]);
    assert!(ok);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"benchmark\":\"181.mcf\""));
    assert!(line.contains("\"regions\":["));
    // Balanced braces/brackets (the emitter is hand-rolled).
    let opens = line.matches('{').count();
    let closes = line.matches('}').count();
    assert_eq!(opens, closes);
}

#[test]
fn fuzzy_names_resolve_unambiguously() {
    let (ok, stdout, _) = regmon(&["run", "facerec", "--intervals", "8"]);
    assert!(ok);
    assert!(stdout.contains("187.facerec"));
}

#[test]
fn unknown_benchmark_fails_with_hint() {
    let (ok, _, stderr) = regmon(&["run", "999.nope"]);
    assert!(!ok);
    assert!(stderr.contains("regmon list"));
}

#[test]
fn unknown_subcommand_prints_usage() {
    let (ok, _, stderr) = regmon(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn missing_flag_value_is_an_error() {
    let (ok, _, stderr) = regmon(&["run", "172.mgrid", "--period"]);
    assert!(!ok);
    assert!(stderr.contains("requires a value"));
}

/// A zero `--period` is an option error (exit 1, no backtrace) on
/// every single-period command, caught before any sampler is built.
#[test]
fn zero_period_is_rejected_before_any_work() {
    for cmd in ["run", "rto", "baselines"] {
        let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
            .args([cmd, "181.mcf", "--period", "0"])
            .output()
            .expect("spawn regmon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains("--period must be positive"),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn baselines_compares_four_detectors() {
    let (ok, stdout, _) = regmon(&["baselines", "172.mgrid", "--intervals", "20"]);
    assert!(ok);
    for detector in [
        "centroid",
        "basic-block vector",
        "working-set signature",
        "local",
    ] {
        assert!(stdout.contains(detector), "{detector} missing");
    }
}

#[test]
fn fleet_text_reports_shards_and_aggregate() {
    let (ok, stdout, _) = regmon(&[
        "fleet",
        "all",
        "--tenants",
        "12",
        "--shards",
        "3",
        "--intervals",
        "10",
    ]);
    assert!(ok);
    assert!(stdout.contains("12 tenants over 3 shards"));
    assert!(stdout.contains("completed 12"));
    assert!(stdout.contains("high-water"));
}

#[test]
fn fleet_json_is_deterministic_across_runs() {
    let args = [
        "fleet",
        "all",
        "--tenants",
        "16",
        "--shards",
        "4",
        "--intervals",
        "12",
        "--json",
    ];
    let (ok_a, a, _) = regmon(&args);
    let (ok_b, b, _) = regmon(&args);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "fleet --json must be byte-identical across runs");
    let line = a.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    for key in [
        "\"aggregate\":",
        "\"shards_detail\":",
        "\"tenants_detail\":",
        "\"backpressure_stalls\":",
        "\"gpd_phase_changes\":",
        "\"lpd_phase_changes\":",
        "\"ucr_median",
    ] {
        assert!(line.contains(key), "{key} missing from fleet JSON");
    }
    assert!(
        !line.contains("wall_ms"),
        "wall clock must stay out of JSON"
    );
    assert_eq!(line.matches('{').count(), line.matches('}').count());
}

/// A single benchmark over depth-1 queues: 3 tenants per shard stall
/// twice in each of the 7 full rounds, and every interval arrives.
#[test]
fn fleet_single_benchmark_and_drop_policy() {
    let (ok, stdout, _) = regmon(&[
        "fleet",
        "mcf",
        "--tenants",
        "6",
        "--shards",
        "2",
        "--intervals",
        "8",
        "--queue-depth",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("181.mcf"));
    assert!(stdout.contains("completed 6"));
    assert!(
        stdout.contains("48 produced / 48 processed  stalls 28"),
        "{stdout}"
    );
}

#[test]
fn fleet_rejects_bad_policy_and_zero_sizes() {
    let (ok, _, stderr) = regmon(&["fleet", "all", "--policy", "newest-wins"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --policy"), "{stderr}");
    for zero in ["--tenants", "--shards", "--intervals", "--queue-depth"] {
        let (ok, _, stderr) = regmon(&["fleet", "all", zero, "0"]);
        assert!(!ok, "{zero} 0 accepted");
        assert!(stderr.contains("positive"), "{zero}: {stderr}");
    }
}

/// A queue depth past the bound is an option error (exit 1) on both
/// commands that build shard queues, reported before any ring is
/// allocated.
#[test]
fn oversized_queue_depth_is_rejected_before_any_work() {
    let sock = std::env::temp_dir().join(format!("regmon_smoke_{}.sock", std::process::id()));
    let sock = sock.to_str().expect("utf8 temp path");
    for args in [
        vec!["fleet", "all"],
        vec!["serve", "--unix", sock, "--expect-sessions", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
            .args(&args)
            .args(["--queue-depth", "4611686018427387904"])
            .output()
            .expect("spawn regmon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("--queue-depth must be at most 65536"),
            "{}: {stderr}",
            args[0]
        );
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
    }
    assert!(!std::path::Path::new(sock).exists(), "serve bound a socket");
}

/// An option the subcommand never reads is an error, not a silent
/// no-op: removed flags and typos are named, typos with a suggestion.
#[test]
fn unread_options_are_rejected() {
    let (ok, _, stderr) = regmon(&[
        "fleet",
        "181.mcf",
        "--tenants",
        "2",
        "--intervals",
        "2",
        "--jsn",
        "x",
        "--json",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown option --jsn; did you mean --json?"),
        "{stderr}"
    );
    let (ok, _, stderr) = regmon(&["fleet", "all", "--pin", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --pin"), "{stderr}");
    for (flag, value) in [
        ("--pacing", "freerun"),
        ("--policy", "drop-oldest"),
        ("--batch", "8"),
    ] {
        let (ok, _, stderr) = regmon(&["fleet", "all", flag, value, "--json"]);
        assert!(!ok, "{flag} accepted");
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{flag}: {stderr}"
        );
    }
}

/// The largest queue depth is accepted and reported (the test is named
/// for the drop-policy alias it once covered).
#[test]
fn fleet_accepts_drop_alias() {
    let (ok, stdout, stderr) = regmon(&[
        "fleet",
        "mcf",
        "--tenants",
        "4",
        "--shards",
        "2",
        "--intervals",
        "6",
        "--queue-depth",
        "65536",
    ]);
    assert!(ok, "--queue-depth 65536 must be accepted: {stderr}");
    assert!(stdout.contains("(depth 65536)"), "{stdout}");
}

/// Named for the driver batching factor it once compared: a depth-1
/// queue blocks the driver on nearly every interval, and still no
/// tenant's results move.
#[test]
fn fleet_batch_json_matches_per_interval_baseline() {
    let base = [
        "fleet",
        "all",
        "--tenants",
        "12",
        "--shards",
        "3",
        "--intervals",
        "10",
        "--json",
    ];
    let (ok_a, a, _) = regmon(&base);
    let mut shallow: Vec<&str> = base.to_vec();
    shallow.extend(["--queue-depth", "1"]);
    let (ok_b, b, _) = regmon(&shallow);
    assert!(ok_a && ok_b);
    assert!(a.contains("\"queue_depth\":16"));
    assert!(b.contains("\"queue_depth\":1"));
    assert!(b.contains("\"batch_sizes\":"));
    assert!(!b.contains("\"batch\":"));
    // The per-tenant detector results and shard placement must not
    // depend on the queue depth: compare the tenants_detail blobs.
    let detail = |s: &str| {
        let start = s.find("\"tenants_detail\":").expect("tenants_detail");
        s[start..].to_string()
    };
    assert_eq!(
        detail(&a),
        detail(&b),
        "queue depth must not change any tenant's results"
    );
}

#[test]
fn rto_reports_speedup() {
    let (ok, stdout, _) = regmon(&[
        "rto",
        "172.mgrid",
        "--period",
        "100000",
        "--intervals",
        "30",
    ]);
    assert!(ok);
    assert!(stdout.contains("RTO_LPD over RTO_ORIG"));
}
