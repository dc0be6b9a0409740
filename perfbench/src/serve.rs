//! `serve-wal`: an in-process unix-socket server in durable mode, fed
//! by two `send_plan` connections of 16 sessions each, then recovered
//! from its WAL directory by a fresh `Server`.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use regmon::SessionConfig;
use regmon_serve::snapshot::encode_snapshot;
use regmon_serve::wire::AdmitFrame;
use regmon_serve::{
    durable, read_wal, send_plan, serve_unix, DurableOptions, Frame, FrameParser, RetryPolicy,
    SendPlan, ServeOptions, ServeReport, Server, SessionStream, WireDialect,
};
use regmon_workload::{suite, Workload};

use crate::inputs::{self, Expected};
use crate::measure::{median, range_note, Latencies, MemGrowth, Samples};
use crate::report::Report;
use crate::session::{self, LayerTotals};
use crate::trace::Tracer;
use crate::Args;

const NAME: &str = "serve-wal";
/// Sessions the server expects before it drains and reports.
pub const SESSIONS: usize = 32;
/// Client connections; each streams `SESSIONS / CONNECTIONS` sessions.
const CONNECTIONS: usize = 2;
/// Intervals per session: two batches, so that one round, with its
/// recovery and the reference pass after it, takes about a second and
/// a run's medians span many rounds.
pub const INTERVALS_PER_SESSION: usize = 64;
/// Intervals per `Batch` frame.
const BATCH: usize = 32;
/// Latency samples the buffer holds before it has to grow.
const LATENCY_CAPACITY: usize = 1 << 17;
/// Set-ups per run: one before the rounds, the rest after them.
const SETUP_REPS: usize = 5;
/// Repetitions of each isolated layer measurement in the traced run.
const LAYER_REPS: usize = 5;
/// How long to wait for the server's socket to appear.
const BIND_WAIT: Duration = Duration::from_secs(10);

/// The generated sessions, split into one plan per connection.
#[derive(Debug)]
pub struct Inputs {
    /// One plan per connection.
    pub plans: Vec<SendPlan>,
    /// Tenant `i`'s label and seeded program.
    pub tenants: Vec<(String, Workload)>,
    /// Intervals per session.
    pub per_session: usize,
}

impl Inputs {
    /// Intervals over all plans.
    #[must_use]
    pub fn intervals(&self) -> usize {
        self.tenants.len() * self.per_session
    }
}

/// Generates every session's intervals and plans the sends. Tenant `i`
/// runs suite program `i % 23` and goes out on connection `i / 16`.
#[must_use]
pub fn plan(seed: u64, sessions: usize, per_session: usize) -> Inputs {
    let names = suite::names();
    let config = SessionConfig::new(inputs::PERIOD);
    let per_conn = sessions.div_ceil(CONNECTIONS);
    let mut plans: Vec<SendPlan> = (0..CONNECTIONS)
        .map(|_| SendPlan {
            sessions: Vec::new(),
        })
        .collect();
    let mut tenants = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let name = names[i % names.len()];
        let workload = inputs::program(name, seed, i);
        let intervals = inputs::intervals(&workload, &config, per_session);
        plans[i / per_conn].sessions.push(SessionStream {
            admit: AdmitFrame {
                tenant: i as u32,
                name: inputs::label(name, i),
                workload: name.to_string(),
                config: config.clone(),
                max_intervals: per_session as u64,
            },
            snapshot: None,
            base: 0,
            batches: intervals.chunks(BATCH).map(<[_]>::to_vec).collect(),
            finish: true,
            checkpoint: false,
        });
        tenants.push((inputs::label(name, i), workload));
    }
    Inputs {
        plans,
        tenants,
        per_session,
    }
}

/// Each tenant's summary digest in a serve report, in tenant order
/// (admission order interleaves the two connections).
fn outcomes(inputs: &Inputs, served: &ServeReport) -> Vec<Result<u64, String>> {
    inputs
        .tenants
        .iter()
        .map(|(label, _)| {
            if let Some(error) = served.errors.first() {
                return Err(format!("serve error: {error}"));
            }
            match served.sessions.iter().find(|s| s.name == *label) {
                Some(s) => s
                    .summary
                    .as_ref()
                    .map(inputs::digest)
                    .ok_or_else(|| "session ended without a summary".to_string()),
                None => Err("session missing from the serve report".to_string()),
            }
        })
        .collect()
}

/// One serve round: the server's report, per-connection send spans and
/// wire bytes, and the wall time from the first connect to the report.
struct Round {
    wall: f64,
    served: ServeReport,
    sends: Vec<(Instant, Instant)>,
    wire_bytes: u64,
}

/// Serves both plans once, durably under `durable_dir` when given.
fn serve_round(inputs: &Inputs, sock: &Path, durable_dir: Option<&Path>) -> Result<Round, String> {
    let options = ServeOptions {
        expect_sessions: inputs.tenants.len(),
        durable: durable_dir.map(DurableOptions::new),
        ..ServeOptions::default()
    };
    let policy = RetryPolicy::default();
    let _ = std::fs::remove_file(sock);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_unix(sock, options));
        let bound = Instant::now();
        while !sock.exists() {
            if server.is_finished() || bound.elapsed() > BIND_WAIT {
                return Err(format!("server did not bind {}", sock.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        let clients: Vec<_> = inputs
            .plans
            .iter()
            .map(|plan| {
                scope.spawn(move || {
                    let connect = || {
                        let stream = UnixStream::connect(sock)?;
                        stream.set_read_timeout(Some(policy.timeout))?;
                        Ok(stream)
                    };
                    let begin = Instant::now();
                    let sent = send_plan(connect, plan, None, false, &policy, false, None);
                    (begin, Instant::now(), sent)
                })
            })
            .collect();
        let mut sends = Vec::with_capacity(clients.len());
        let mut wire_bytes = 0;
        let mut failure = None;
        for client in clients {
            let (begin, end, sent) = client.join().expect("client thread panicked");
            sends.push((begin, end));
            match sent {
                Ok(outcome) => wire_bytes += outcome.bytes,
                Err(e) => failure = Some(format!("send_plan: {e}")),
            }
        }
        // A failed client leaves the server waiting for its sessions;
        // the run's watchdog ends the process in that case.
        let served = server
            .join()
            .expect("server thread panicked")
            .map_err(|e| format!("serve_unix: {e}"))?;
        let wall = start.elapsed().as_secs_f64();
        if let Some(failure) = failure {
            return Err(failure);
        }
        Ok(Round {
            wall,
            served,
            sends,
            wire_bytes,
        })
    })
}

/// Recovers a fresh server from `dir`; returns the seconds
/// `recover` + `finish` took and the recovered report.
fn recover(dir: &Path, sessions: usize) -> Result<(f64, ServeReport), String> {
    let server = Server::new(ServeOptions {
        expect_sessions: sessions,
        durable: Some(DurableOptions::new(dir)),
        recover: true,
        ..ServeOptions::default()
    });
    let start = Instant::now();
    let recovered = server.recover().map_err(|e| format!("recover: {e}"))?;
    let served = server.finish();
    let secs = start.elapsed().as_secs_f64();
    if recovered != sessions {
        return Err(format!("recovered {recovered} of {sessions} sessions"));
    }
    Ok((secs, served))
}

/// A tenant's served outcome, failed when its recovered summary differs.
fn same_after_recovery(
    (served, recovered): (Result<u64, String>, Result<u64, String>),
) -> Result<u64, String> {
    match (served, recovered) {
        (Ok(a), Ok(b)) if a == b => Ok(a),
        (Ok(_), Ok(_)) => Err("recovered summary differs from the served one".into()),
        (Err(why), _) => Err(why),
        (_, Err(why)) => Err(format!("after recovery: {why}")),
    }
}

/// Standalone reference sessions over the intervals each tenant sent,
/// each `process_interval` timed into `latencies`: the server runs
/// sessions inside the program, where single intervals cannot be timed
/// from outside.
fn references(inputs: &Inputs, latencies: &mut Latencies) -> Vec<Expected> {
    let config = SessionConfig::new(inputs::PERIOD);
    let streams = inputs.plans.iter().flat_map(|p| &p.sessions);
    inputs
        .tenants
        .iter()
        .zip(streams)
        .map(|((label, workload), stream)| {
            let intervals = stream.batches.concat();
            let session = inputs::standalone(workload, &config, &intervals, latencies);
            Expected {
                label: label.clone(),
                intervals: inputs.per_session as u64,
                digest: inputs::digest(&session.summary(workload.name())),
            }
        })
        .collect()
}

/// Runs the serve workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let build = || plan(args.seed, SESSIONS, INTERVALS_PER_SESSION);
    let mut setup = Samples::default();
    let mut inputs = setup.time(build);
    if args.trace {
        report.set(
            "sampling.ns_per_interval",
            setup.median() * 1e9 / inputs.intervals() as f64,
        );
        return traced(args, &inputs, report);
    }

    let sock = args.scratch.join("serve.sock");
    let mut rates = Vec::new();
    let mut recover_times = Samples::default();
    let mut runs = Vec::new();
    let mut latencies = Latencies::with_capacity(LATENCY_CAPACITY);
    let mut expected = Vec::new();
    let mut mem = MemGrowth::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while runs.is_empty() || start.elapsed() < seconds {
        let dir = args.scratch.join(format!("wal-{}", runs.len()));
        let round = mem.time(|| serve_round(&inputs, &sock, Some(&dir)))?;
        rates.push(inputs.intervals() as f64 / round.wall);
        let (secs, recovered) = recover(&dir, inputs.tenants.len())?;
        recover_times.push(secs);
        let served = outcomes(&inputs, &round.served);
        let recovered = outcomes(&inputs, &recovered);
        runs.push(
            served
                .into_iter()
                .zip(recovered)
                .map(same_after_recovery)
                .collect(),
        );
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // One pass of the standalone references between rounds, outside
        // the timed rounds: spread over the run, its percentiles see the
        // same host drift as the rounds do.
        expected = references(&inputs, &mut latencies);
        latencies.end_unit();
    }
    crate::record_mem(report, &mem);
    report.attempted = (runs.len() * inputs.intervals()) as u64;
    report.set("intervals_per_s", median(&rates));
    report.set("recover_s", recover_times.median());
    eprintln!(
        "{NAME}: {} serve rounds, each recovered once; intervals/s {}",
        runs.len(),
        range_note(&rates)
    );

    // More set-ups after the rounds, so the median spans the whole run
    // and sees the same host drift as the rounds. The old inputs go
    // first: set-up never runs beside a second copy.
    for _ in 1..SETUP_REPS {
        drop(inputs);
        inputs = setup.time(build);
    }
    report.set("setup_s", setup.median());
    inputs::check_runs(NAME, args.seed, &expected, &runs, report);
    let (p50, p99, beyond) = latencies.p50_p99_us();
    report.set("interval_p50_us", p50);
    report.set("interval_p99_us", p99);
    eprintln!(
        "{NAME}: reference latency over {} samples, {beyond} above p99",
        latencies.len()
    );
    Ok(())
}

/// Total bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// Serves the plans durably and in memory, alternating, and times wire
/// decode, snapshot encode and WAL read in isolation.
fn traced(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new(session::SPAN_CAPACITY);
    let n = inputs.intervals() as f64;
    let sock = args.scratch.join("serve.sock");

    // Serial re-composed sessions: layer costs and the reference digests.
    let config = SessionConfig::new(inputs::PERIOD);
    let mut totals = LayerTotals::default();
    let mut expected = Vec::with_capacity(inputs.tenants.len());
    let mut snapshots = Vec::with_capacity(inputs.tenants.len());
    let mut serial = Vec::with_capacity(inputs.tenants.len());
    let streams = inputs.plans.iter().flat_map(|p| &p.sessions);
    for (i, ((label, workload), stream)) in inputs.tenants.iter().zip(streams).enumerate() {
        let intervals: Vec<_> = stream.batches.concat();
        let session = session::lockstep(i, workload, &config, &intervals, &mut totals, &mut tracer);
        let digest = inputs::digest(&session.summary(workload.name()));
        serial.push(Ok(digest));
        expected.push(Expected {
            label: label.clone(),
            intervals: inputs.per_session as u64,
            digest,
        });
        snapshots.push(session.snapshot());
    }
    totals.passes = 1;
    let mut runs = vec![serial];

    let mut durable_walls = Vec::new();
    let mut memory_walls = Vec::new();
    let mut durable_bytes = 0;
    let mut wire_bytes = 0;
    let mut wal_read = Vec::new();
    for pair in 0..2 {
        for durable in [true, false] {
            let dir = args.scratch.join(format!("wal-{pair}"));
            let round = serve_round(inputs, &sock, durable.then_some(dir.as_path()))?;
            let name = if durable {
                "serve.durable"
            } else {
                "serve.memory"
            };
            let first = round.sends.iter().map(|s| s.0).min().expect("two clients");
            let last = round.sends.iter().map(|s| s.1).max().expect("two clients");
            let parent = tracer.record(name, (first, last), None, 0, None);
            for (c, send) in round.sends.iter().enumerate() {
                tracer.record("send_plan", *send, parent, c, None);
            }
            runs.push(outcomes(inputs, &round.served));
            wire_bytes = round.wire_bytes;
            if durable {
                durable_walls.push(round.wall);
                durable_bytes = dir_bytes(&dir)?;
                let wals =
                    durable::wal_slots(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                for _ in 0..LAYER_REPS {
                    let start = Instant::now();
                    for (_, path) in &wals {
                        read_wal(path).map_err(|e| format!("{}: {e}", path.display()))?;
                    }
                    let end = Instant::now();
                    tracer.record("read_wal", (start, end), parent, 0, None);
                    wal_read.push(end.duration_since(start).as_secs_f64());
                }
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            } else {
                memory_walls.push(round.wall);
            }
        }
    }
    let durable_wall = median(&durable_walls);

    // Wire decode of the same frames, encoded in the negotiated dialect.
    let dialect = WireDialect::v2(false);
    let mut encoded = 0usize;
    let streams: Vec<Vec<u8>> = inputs
        .plans
        .iter()
        .map(|plan| {
            let mut frames = Vec::new();
            for s in &plan.sessions {
                frames.push(Frame::Admit(Box::new(s.admit.clone())));
                frames.extend(s.batches.iter().map(|batch| Frame::Batch {
                    tenant: s.admit.tenant,
                    intervals: batch.clone(),
                }));
                frames.push(Frame::Finish {
                    tenant: s.admit.tenant,
                });
            }
            encoded += frames.len();
            frames
                .iter()
                .flat_map(|f| dialect.encode_frame(f))
                .collect()
        })
        .collect();
    let mut decode = Samples::default();
    for _ in 0..LAYER_REPS {
        let start = Instant::now();
        let decoded = decode.time(|| -> Result<usize, String> {
            let mut frames = 0;
            for bytes in &streams {
                let mut parser = FrameParser::new();
                parser.feed(bytes);
                while let Some(frame) = parser.next_frame().map_err(|e| format!("decode: {e}"))? {
                    frames += 1;
                    std::hint::black_box(frame);
                }
                parser.finish_eof().map_err(|e| format!("decode: {e}"))?;
            }
            Ok(frames)
        })?;
        tracer.record("decode", (start, Instant::now()), None, 0, None);
        if decoded != encoded {
            return Err(format!("decoded {decoded} frames of {encoded}"));
        }
    }

    let mut encode = Samples::default();
    for _ in 0..LAYER_REPS {
        let start = Instant::now();
        encode.time(|| {
            for snapshot in &snapshots {
                std::hint::black_box(encode_snapshot(snapshot));
            }
        });
        tracer.record("encode_snapshot", (start, Instant::now()), None, 0, None);
    }

    report.set("serve.wire_bytes_per_interval", wire_bytes as f64 / n);
    report.set("serve.decode_ns_per_interval", decode.median() * 1e9 / n);
    report.set(
        "serve.durable_share",
        1.0 - median(&memory_walls) / durable_wall,
    );
    report.set("serve.durable_bytes_per_interval", durable_bytes as f64 / n);
    report.set(
        "serve.snapshot_encode_ns",
        encode.median() * 1e9 / snapshots.len() as f64,
    );
    report.set(
        "serve.wal_read_ns_per_interval",
        median(&wal_read) * 1e9 / n,
    );
    report.set(
        "fleet.shard_busy_share",
        totals.untraced_secs() / (ServeOptions::default().shards as f64 * durable_wall),
    );
    totals.finish(NAME, report);
    report.attempted += (runs.len() - 1) as u64 * n as u64;
    inputs::check_runs(NAME, args.seed, &expected, &runs, report);
    eprintln!(
        "{NAME}: durable rounds {durable_walls:.3?} s, in-memory rounds {memory_walls:.3?} s"
    );
    crate::write_trace(args, &tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves a small plan durably; returns the per-tenant outcomes and
    /// the wire and durable bytes.
    fn serve_small(seed: u64, tag: &str) -> (Vec<Result<u64, String>>, u64, u64) {
        let base = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).expect("test directory");
        let inputs = plan(seed, 4, 40);
        let dir = base.join("wal");
        let round = serve_round(&inputs, &base.join("s.sock"), Some(&dir)).expect("serve round");
        let durable = dir_bytes(&dir).expect("durable directory");
        let (_, recovered) = recover(&dir, inputs.tenants.len()).expect("recovery");
        let served = outcomes(&inputs, &round.served);
        assert_eq!(
            served,
            outcomes(&inputs, &recovered),
            "recovery changed a summary"
        );
        let _ = std::fs::remove_dir_all(&base);
        (served, round.wire_bytes, durable)
    }

    #[test]
    fn same_seed_gives_the_same_bytes_and_summaries() {
        let (a, wire_a, durable_a) = serve_small(6, "a");
        let (b, wire_b, durable_b) = serve_small(6, "b");
        assert_eq!((wire_a, durable_a), (wire_b, durable_b));
        assert_eq!(a, b);
        let expected = references(&plan(6, 4, 40), &mut Latencies::with_capacity(0));
        for (got, want) in a.iter().zip(&expected) {
            assert_eq!(got, &Ok(want.digest), "{}", want.label);
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let batches = |seed| -> Vec<_> {
            plan(seed, 2, 8)
                .plans
                .into_iter()
                .flat_map(|p| p.sessions)
                .map(|s| s.batches)
                .collect()
        };
        assert_ne!(batches(1), batches(2));
        assert_eq!(batches(1), batches(1));
    }
}
