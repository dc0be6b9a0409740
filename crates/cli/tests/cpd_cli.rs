//! End-to-end CLI contract for change-point detection:
//!
//! - `fleet --json` must be byte-identical with `--cpd` off, and with
//!   it on the document must be the same bytes plus one trailing
//!   `"cpd"` member — at every queue depth.
//! - Offline `regmon cpd --trace` must find the same planted change
//!   point the online run reported.
//! - `regmon cpd` output must be byte-identical across `--simd` levels
//!   and across the shard (worker thread) count of the recording run.
//! - Typos get spelling suggestions, and `metrics --check` understands
//!   traces that carry change-point events.

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

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("regmon_cpd_cli_{}_{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn fleet_json_gains_only_a_trailing_cpd_member() {
    for &depth in &["1", "16"] {
        let base = vec![
            "fleet",
            "all",
            "--tenants",
            "6",
            "--shards",
            "2",
            "--intervals",
            "48",
            "--queue-depth",
            depth,
            "--degrade",
            "3:20",
            "--json",
        ];
        let (ok, plain, _) = regmon(&base);
        assert!(ok, "plain fleet run failed (depth {depth})");

        let mut with_cpd = base.clone();
        with_cpd.push("--cpd");
        let (ok, cpd, _) = regmon(&with_cpd);
        assert!(ok, "cpd fleet run failed (depth {depth})");

        // Identical prefix: strip the final `}` from the plain doc,
        // the cpd doc must continue it with exactly `,"cpd":`.
        let prefix = plain.trim_end().strip_suffix('}').expect("json object");
        assert!(
            cpd.starts_with(prefix),
            "--cpd perturbed earlier fields (depth {depth})"
        );
        assert!(
            cpd[prefix.len()..].starts_with(",\"cpd\":{"),
            "--cpd must only append a trailing member, got {:?}",
            &cpd[prefix.len()..cpd.len().min(prefix.len() + 40)]
        );
    }
}

/// Named for the transport options it once varied. Three tenants per
/// shard never overflow a queue of depth 3 or 16, so both runs share
/// every stall series while their real queues block at different points.
#[test]
fn cpd_detections_are_identical_across_batch_and_steal() {
    let mut outputs = Vec::new();
    for &depth in &["3", "16"] {
        let args = [
            "fleet",
            "all",
            "--tenants",
            "6",
            "--shards",
            "2",
            "--intervals",
            "48",
            "--queue-depth",
            depth,
            "--cpd",
            "--degrade",
            "3:20",
            "--json",
        ];
        let (ok, out, _) = regmon(&args);
        assert!(ok);
        // The document as a whole legitimately encodes the queue
        // depth; the detection member may not.
        let cpd_member = out
            .find("\"cpd\":")
            .map(|i| out[i..].to_string())
            .expect("cpd member present");
        outputs.push(cpd_member);
    }
    for other in &outputs[1..] {
        assert_eq!(
            other, &outputs[0],
            "cpd detections must be byte-identical across queue depths"
        );
    }
}

#[test]
fn offline_trace_finds_the_online_change_point() {
    let trace = temp_path("trace.json");
    let (ok, online, _) = regmon(&[
        "fleet",
        "all",
        "--tenants",
        "6",
        "--shards",
        "2",
        "--intervals",
        "96",
        "--cpd",
        "--degrade",
        "3:40",
        "--json",
        "--trace-out",
        &trace,
    ]);
    assert!(ok, "online run failed");
    let needle = "\"tenant\":3,\"region\":null,\"metric\":\"ucr\",\"round\":40";
    assert!(
        online.contains(needle),
        "online --cpd must attribute the planted regression: {online}"
    );

    let (ok, offline, _) = regmon(&["cpd", "--trace", &trace, "--json"]);
    assert!(ok, "offline analysis failed");
    assert!(
        offline.contains("\"series\":\"tenant 3 ucr\",\"round\":40"),
        "offline --trace must find the same change point: {offline}"
    );

    // metrics --check recognizes the change-point events in the trace.
    let (ok, check, _) = regmon(&["metrics", "--check", &trace]);
    assert!(ok);
    assert!(
        check.contains("change-point"),
        "metrics --check must count cpd events: {check}"
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn cpd_output_is_byte_identical_across_simd_and_worker_counts() {
    // Two recordings of the same tenants over different worker (shard)
    // counts: the per-tenant series in the trace are equivalence-
    // guaranteed, so the offline analysis must not see a difference.
    let mut outputs = Vec::new();
    for (shards, name) in [("2", "s2.json"), ("4", "s4.json")] {
        let trace = temp_path(name);
        let (ok, _, _) = regmon(&[
            "fleet",
            "all",
            "--tenants",
            "6",
            "--shards",
            shards,
            "--intervals",
            "64",
            "--cpd",
            "--degrade",
            "3:30",
            "--trace-out",
            &trace,
        ]);
        assert!(ok);
        for simd in [None, Some("scalar")] {
            let mut args = vec!["cpd", "--trace", trace.as_str(), "--json"];
            if let Some(level) = simd {
                args.extend(["--simd", level]);
            }
            let (ok, out, _) = regmon(&args);
            assert!(ok, "cpd --trace failed (shards {shards} simd {simd:?})");
            // Outputs carry the trace path; normalize it away so the
            // two recordings compare.
            outputs.push(out.replace(trace.as_str(), "TRACE"));
        }
        let _ = std::fs::remove_file(&trace);
    }
    for other in &outputs[1..] {
        assert_eq!(
            other, &outputs[0],
            "offline cpd output must be byte-identical across simd levels and shard counts"
        );
    }
}

#[test]
fn typos_get_spelling_suggestions() {
    let (ok, _, err) = regmon(&["cdp"]);
    assert!(!ok);
    assert!(
        err.contains("did you mean \"cpd\"?"),
        "subcommand typo must suggest cpd: {err}"
    );

    let (ok, _, err) = regmon(&["cpd", "trace"]);
    assert!(!ok);
    assert!(
        err.contains("did you mean --trace?"),
        "positional mode must suggest the flag: {err}"
    );

    let (ok, _, err) = regmon(&["fleet", "all", "--cpd", "--degrad", "3:20"]);
    assert!(!ok);
    assert!(
        err.contains("unknown option --degrad; did you mean --degrade?"),
        "a fleet option typo must suggest the flag: {err}"
    );
}
