//! Integration test: monitoring on a separate thread (the paper's
//! "not on the critical path" argument) is equivalent to inline
//! monitoring. The off-thread session is the fleet of one
//! (`regmon_fleet::run_single`).

use regmon::{MonitoringSession, SessionConfig};
use regmon_fleet::run_single;
use regmon_workload::suite;

#[test]
fn threaded_monitoring_equals_inline_monitoring() {
    for name in ["181.mcf", "187.facerec"] {
        let w = suite::by_name(name).unwrap();
        let config = SessionConfig::new(450_000);
        let inline = MonitoringSession::run_limited(&w, &config, 25);
        let threaded = run_single(&w, &config, 25, 8);
        assert_eq!(
            format!("{inline:?}"),
            format!("{:?}", threaded.summary),
            "{name}"
        );
    }
}

#[test]
fn deep_queue_absorbs_bursts() {
    let w = suite::by_name("172.mgrid").unwrap();
    let config = SessionConfig::new(450_000);
    let run = run_single(&w, &config, 20, 64);
    assert_eq!(run.summary.intervals, 20);
    // With a queue this deep and an analysis this cheap, the producer
    // should rarely (if ever) catch a full queue.
    assert!(run.backpressure_stalls <= 20, "{}", run.backpressure_stalls);
}
