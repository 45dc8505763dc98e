//! The `serve_art` workload: a `kanon serve` daemon over loopback TCP.
//!
//! The daemon runs in this process and bootstraps from an ART base
//! table read from a CSV file. A closed-loop writer sends consecutive
//! 50-row ART batches over one connection; every other batch carries
//! `absorb_epsilon`, so both absorption tiers run. Beside it an
//! open-loop reader sends `OUTPUT` at a fixed rate over a second
//! connection and times each reply from when the request was due. At
//! the end the state directory is copied and the copies are recovered.
//!
//! The daemon's stages cannot be reached over TCP, so the traced run
//! replays the identical stream through the public `ServeState` and
//! `Journal` API in the daemon's order (see [`mirror`]).

use crate::release::{min_row_multiplicity, parse_generalized};
use crate::report::{median, tail, Outcome};
use crate::trace::Tracer;
use kanon_algos::{try_sharded_k_anonymize, ShardConfig};
use kanon_core::{SharedSchema, Table};
use kanon_data::csv::{table_to_csv, RowPolicy};
use kanon_data::table_from_path_with_policy;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_serve::journal::{Journal, RecordKind};
use kanon_serve::proto::{parse_request, read_frame, write_frame, Request};
use kanon_serve::state::{Measure, ServeConfig, ServeState};
use kanon_serve::{Daemon, ServeOptions, ADDR_FILE, JOURNAL_FILE, SNAPSHOT_FILE};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Size and parameters of a serve workload.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Rows in the base table the daemon bootstraps from.
    pub base: usize,
    /// Rows per `BATCH`.
    pub batch_rows: usize,
    /// Batches in the write stream; never a multiple of
    /// `snapshot_every`, so recovery has a journal tail to replay.
    pub batches: usize,
    /// The anonymity parameter.
    pub k: usize,
    /// Shard size cap of the bootstrap's sharded run.
    pub shard_max: usize,
    /// Snapshot (and compact the journal) every N batches.
    pub snapshot_every: u64,
    /// `OUTPUT` requests per second of the open-loop reader.
    pub read_hz: f64,
    /// The ε odd-numbered batches carry.
    pub epsilon: f64,
    /// Daemon starts timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Recoveries timed per run; `recover_s` is their median.
    pub recoveries: usize,
}

impl ServeParams {
    /// `serve_art` at full size: a 20 000-row ART base, k = 10, and a
    /// stream of `10 × seconds + 1` batches of 50 rows.
    pub fn art(seconds: u64) -> ServeParams {
        ServeParams {
            base: 20_000,
            batch_rows: 50,
            batches: 10 * seconds.max(1) as usize + 1,
            k: 10,
            shard_max: 2000,
            snapshot_every: 10,
            read_hz: 20.0,
            epsilon: 0.05,
            setups: 3,
            recoveries: 25,
        }
    }

    /// A tiny instance for the self-tests.
    pub fn tiny() -> ServeParams {
        ServeParams {
            base: 300,
            batch_rows: 10,
            batches: 11,
            k: 5,
            shard_max: 100,
            snapshot_every: 10,
            read_hz: 20.0,
            epsilon: 0.05,
            setups: 2,
            recoveries: 2,
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            k: self.k,
            measure: Measure::Em,
            policy: RowPolicy::Strict,
            shard_max: self.shard_max,
            reopt_every: 0,
            absorb_epsilon: 0.0,
        }
    }

    fn options(&self, state_dir: PathBuf) -> ServeOptions {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            snapshot_every: self.snapshot_every,
            ..ServeOptions::new(state_dir)
        }
    }
}

/// The generated inputs: the base table's CSV file and each batch's
/// request payload.
struct Stream {
    base_path: PathBuf,
    schema: SharedSchema,
    requests: Vec<String>,
    /// CSV bytes of all batch bodies together.
    body_bytes: usize,
}

fn generate(p: &ServeParams, seed: u64, dir: &Path) -> Result<Stream, String> {
    // `u64::is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.75.
    #[allow(clippy::manual_is_multiple_of)]
    if p.batches as u64 % p.snapshot_every == 0 {
        return Err("the batch count must not be a multiple of snapshot_every".to_string());
    }
    let full = kanon_data::art::generate(p.base + p.batches * p.batch_rows, seed);
    let slice = |lo: usize, hi: usize| {
        let rows: Vec<usize> = (lo..hi).collect();
        full.select_rows(&rows).map(|t| table_to_csv(&t))
    };
    let base_path = dir.join("base.csv");
    let base_csv = slice(0, p.base).map_err(|e| e.to_string())?;
    std::fs::write(&base_path, base_csv).map_err(|e| e.to_string())?;
    let mut requests = Vec::with_capacity(p.batches);
    let mut body_bytes = 0;
    for b in 0..p.batches {
        let lo = p.base + b * p.batch_rows;
        let csv = slice(lo, lo + p.batch_rows).map_err(|e| e.to_string())?;
        let body = csv.split_once('\n').map_or("", |(_, rows)| rows);
        body_bytes += body.len();
        let head = if b % 2 == 1 {
            format!("BATCH absorb_epsilon={}", p.epsilon)
        } else {
            "BATCH".to_string()
        };
        requests.push(format!("{head}\n{body}"));
    }
    Ok(Stream {
        base_path,
        schema: full.schema().clone(),
        requests,
        body_bytes,
    })
}

fn load_base(s: &Stream) -> Result<Table, String> {
    let path = s.base_path.to_str().ok_or("work directory is not UTF-8")?;
    table_from_path_with_policy(&s.schema, path, true, RowPolicy::Strict)
        .map(|(t, _)| t)
        .map_err(|e| e.to_string())
}

/// One framed-protocol connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    fn call(&mut self, request: &str) -> Result<String, String> {
        write_frame(&mut self.stream, request.as_bytes()).map_err(|e| e.to_string())?;
        match read_frame(&mut self.stream, u32::MAX as u64) {
            Ok(Some(reply)) => String::from_utf8(reply).map_err(|e| e.to_string()),
            Ok(None) => Err("connection closed without a reply".to_string()),
            Err(e) => Err(format!("reply dropped: {e}")),
        }
    }
}

/// A daemon serving from its own thread.
struct Running {
    thread: JoinHandle<Result<(), String>>,
    addr: String,
}

impl Running {
    /// Starts a daemon over `state_dir` and waits until it listens.
    /// Returns it with the seconds `Daemon::start` took.
    fn start(p: &ServeParams, base: Table, state_dir: &Path) -> Result<(Running, f64), String> {
        let t = Instant::now();
        let daemon = Daemon::start(base, p.config(), p.options(state_dir.to_path_buf()))
            .map_err(|e| format!("Daemon::start: {e}"))?;
        let start_s = t.elapsed().as_secs_f64();
        let thread = std::thread::spawn(move || daemon.run().map_err(|e| e.to_string()));
        let addr_path = state_dir.join(ADDR_FILE);
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_path) {
                if let Some(addr) = text.strip_suffix('\n') {
                    break addr.to_string();
                }
            }
            if thread.is_finished() {
                return Err(match thread.join() {
                    Ok(Err(e)) => e,
                    _ => "the daemon stopped before it listened".to_string(),
                });
            }
            if Instant::now() > deadline {
                return Err("the daemon did not listen within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        Ok((Running { thread, addr }, start_s))
    }

    /// Sends `SHUTDOWN` over `client` and joins the daemon thread.
    fn stop(self, client: &mut Client) -> Result<(), String> {
        let reply = client.call("SHUTDOWN")?;
        if !reply.starts_with("OK") {
            return Err(format!("SHUTDOWN replied {reply:?}"));
        }
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// What one daemon session measured.
struct Session {
    setup_s: Vec<f64>,
    batch_ms: Vec<f64>,
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rows_acked: usize,
    stream_s: f64,
    wall_s: f64,
    loss: f64,
    /// The live daemon's final `OUTPUT` reply.
    output: String,
    recover_s: Vec<f64>,
}

/// The open-loop reader: `OUTPUT` every `1 / hz` seconds until `done`,
/// each timed from its due time. Returns latencies and how late each
/// request was sent, both in milliseconds.
fn reader(addr: &str, hz: f64, done: &AtomicBool) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut failures = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return (latencies, late, vec![e]),
    };
    let period = Duration::from_secs_f64(1.0 / hz);
    let t0 = Instant::now();
    for i in 0u32.. {
        let due = t0 + period * i;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if done.load(Ordering::Acquire) {
            break;
        }
        late.push(due.elapsed().as_secs_f64() * 1e3);
        match client.call("OUTPUT") {
            Ok(reply) => {
                latencies.push(due.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = check_output(&reply) {
                    failures.push(format!("OUTPUT {i}: {e}"));
                }
            }
            Err(e) => {
                failures.push(format!("OUTPUT {i}: {e}"));
                break;
            }
        }
    }
    (latencies, late, failures)
}

/// Checks an `OUTPUT` reply's framing: `OK rows=R loss=L`, then a CSV
/// with R data rows. Returns R, L and the CSV.
fn check_output(reply: &str) -> Result<(usize, f64, &str), String> {
    let (head, csv) = reply
        .split_once('\n')
        .ok_or_else(|| format!("reply {:?} has no body", &reply[..reply.len().min(80)]))?;
    let mut words = head.split(' ');
    let field = |w: Option<&str>, key: &str| -> Result<String, String> {
        w.and_then(|w| w.strip_prefix(key))
            .map(str::to_string)
            .ok_or_else(|| format!("reply head {head:?} lacks {key}"))
    };
    if words.next() != Some("OK") {
        return Err(format!("reply head {head:?}"));
    }
    let rows: usize = field(words.next(), "rows=")?
        .parse()
        .map_err(|_| format!("bad rows in {head:?}"))?;
    let loss: f64 = field(words.next(), "loss=")?
        .parse()
        .map_err(|_| format!("bad loss in {head:?}"))?;
    let data_rows = csv.lines().skip(1).filter(|l| !l.is_empty()).count();
    if data_rows != rows {
        return Err(format!("rows={rows} but {data_rows} data rows"));
    }
    Ok((rows, loss, csv))
}

/// Parses the `published` field of a `HEALTH` reply.
fn published(health: &str) -> Option<usize> {
    let rest = health.split("\"published\":").nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// A `counters_json` block as `(name, value)` pairs in its order.
fn parse_counters(block: &str) -> Result<Vec<(&str, u64)>, String> {
    let inner = block
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| format!("counter block {block:?} is not an object"))?;
    inner
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').ok_or("counter without a value")?;
            let v = v.parse().map_err(|_| format!("counter {k} = {v:?}"))?;
            Ok((k.trim_matches('"'), v))
        })
        .collect()
}

/// Line `n` (0-based) of a `STATS` reply: 1 is the lifetime counter
/// block, 3 the recovery block (work done replaying the journal).
fn stats_line(stats: &str, n: usize) -> Result<&str, String> {
    stats
        .lines()
        .nth(n)
        .ok_or_else(|| format!("STATS reply has no line {}", n + 1))
}

/// The counter check of a recovery from a snapshot plus a journal tail
/// of `tail` batches. The daemon keeps replay work out of the lifetime
/// block (line 2), so a recovered daemon that has served nothing shows
/// an all-zero lifetime block, and its recovery block (line 4) must
/// equal the live daemon's lifetime counters accrued over the tail —
/// its final block minus the one read right after the last snapshot
/// (`at_snapshot`; `None` when no snapshot was taken) — with
/// `serve_journal_replays` equal to the tail's length.
fn check_recovered_counters(
    recovered: &str,
    live: &str,
    at_snapshot: Option<&str>,
    tail: usize,
) -> Result<(), String> {
    let lifetime = parse_counters(stats_line(recovered, 1)?)?;
    if lifetime.iter().any(|&(_, v)| v != 0) {
        return Err(format!(
            "recovered lifetime block is not all-zero: {lifetime:?}"
        ));
    }
    let after = parse_counters(stats_line(live, 1)?)?;
    let before = match at_snapshot {
        Some(s) => parse_counters(stats_line(s, 1)?)?,
        None => after.iter().map(|&(k, _)| (k, 0)).collect(),
    };
    let mut expected = String::from("{");
    for (i, (&(k, a), &(_, b))) in after.iter().zip(&before).enumerate() {
        let v = if k == "serve_journal_replays" {
            tail as u64
        } else {
            a.saturating_sub(b)
        };
        if i > 0 {
            expected.push(',');
        }
        expected.push_str(&format!("\"{k}\":{v}"));
    }
    expected.push('}');
    let got = stats_line(recovered, 3)?;
    if got != expected {
        return Err(format!(
            "recovered recovery block {got} differs from the live tail's work {expected}"
        ));
    }
    Ok(())
}

/// The final-release gate: every distinct generalized row occurs at
/// least k times, the parsed release passes `kanon-verify`'s
/// k-anonymity check, and `rows=` equals HEALTH's `published`.
fn check_final(
    p: &ServeParams,
    schema: &SharedSchema,
    output: &str,
    health: &str,
) -> Result<f64, String> {
    let (rows, loss, csv) = check_output(output)?;
    let (min, _) = min_row_multiplicity(csv);
    if rows > 0 && min < p.k {
        return Err(format!(
            "a generalized row occurs only {min} times (k = {})",
            p.k
        ));
    }
    let release = parse_generalized(schema, csv)?;
    if !kanon_verify::is_k_anonymous(&release, p.k) {
        return Err("release fails kanon-verify's k-anonymity check".to_string());
    }
    match published(health) {
        Some(n) if n == rows => Ok(loss),
        other => Err(format!("OUTPUT rows={rows} but HEALTH published {other:?}")),
    }
}

fn copy_state(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for name in [JOURNAL_FILE, SNAPSHOT_FILE] {
        let src = from.join(name);
        if src.exists() {
            std::fs::copy(&src, to.join(name)).map_err(|e| format!("copy {name}: {e}"))?;
        }
    }
    Ok(())
}

/// Runs one daemon session: `setups` timed starts (the last one stays
/// up), the write stream beside the reader, the final checks, then
/// `recoveries` timed starts on copies of the final state directory.
fn session(
    p: &ServeParams,
    stream: &Stream,
    dir: &Path,
    setups: usize,
    recoveries: usize,
    outcome: &mut Outcome,
) -> Option<Session> {
    let base = outcome.check_ok("loading the base table", load_base(stream))?;
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..setups.max(1) {
        let state_dir = dir.join(format!("state{i}"));
        let t = Instant::now();
        let started = Running::start(p, base.clone(), &state_dir).and_then(|(running, _)| {
            let mut client = Client::connect(&running.addr)?;
            let health = client.call("HEALTH")?;
            if !health.starts_with("OK") {
                return Err(format!("HEALTH replied {health:?}"));
            }
            Ok((running, client))
        });
        let (running, mut client) = outcome.check_ok("daemon start", started)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < setups {
            outcome.check_ok("daemon stop", running.stop(&mut client))?;
            let _ = std::fs::remove_dir_all(&state_dir);
        } else {
            live = Some((running, client, state_dir));
        }
    }
    let (running, mut writer, state_dir) = live?;

    // The write stream, with the reader beside it.
    let done = AtomicBool::new(false);
    let last_snapshot = stream.requests.len() as u64 / p.snapshot_every * p.snapshot_every;
    let mut snap_stats = None;
    let mut batch_ms = Vec::with_capacity(stream.requests.len());
    let mut rows_acked = 0;
    let t0 = Instant::now();
    let ((read_ms, late_ms, read_failures), stream_s) = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(&running.addr, p.read_hz, &done));
        for (b, request) in stream.requests.iter().enumerate() {
            let t = Instant::now();
            let reply = writer.call(request);
            batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match reply {
                Ok(r) if r.starts_with("OK") => {
                    rows_acked += p.batch_rows;
                    outcome.attempted += 1;
                }
                Ok(r) => outcome.fail(format!("BATCH {b}: {r}")),
                Err(e) => outcome.fail(format!("BATCH {b}: {e}")),
            }
            if b as u64 + 1 == last_snapshot {
                // The lifetime counters the snapshot covers, for the
                // recovery check; outside the batch's timing.
                snap_stats = outcome.check_ok("STATS", writer.call("STATS"));
            }
        }
        let stream_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let reads = reader
            .join()
            .unwrap_or_else(|_| (Vec::new(), Vec::new(), vec!["reader panicked".to_string()]));
        (reads, stream_s)
    });
    // One read per request sent; each failure below counts itself.
    outcome.attempted += (late_ms.len() - read_failures.len().min(late_ms.len())) as u64;
    for f in read_failures {
        outcome.fail(f);
    }

    // The final release and its counters, checked.
    let finals = (|| {
        let output = writer.call("OUTPUT")?;
        let stats = writer.call("STATS")?;
        let health = writer.call("HEALTH")?;
        let loss = check_final(p, &stream.schema, &output, &health)?;
        Ok::<_, String>((output, stats, loss))
    })();
    let wall_s = t0.elapsed().as_secs_f64();
    let (output, stats, loss) = outcome.check_ok("final OUTPUT", finals)?;

    // Copy the state while the daemon idles, before its shutdown
    // snapshot would cover the journal tail.
    let copies: Vec<PathBuf> = (0..recoveries)
        .map(|i| dir.join(format!("recover{i}")))
        .collect();
    for c in &copies {
        outcome.check_ok("copying the state directory", copy_state(&state_dir, c))?;
    }
    outcome.check_ok("daemon stop", running.stop(&mut writer))?;

    let mut recover_s = Vec::new();
    for (i, c) in copies.iter().enumerate() {
        let recovered = Running::start(p, base.clone(), c);
        let (running, start_s) = outcome.check_ok("recovery", recovered)?;
        recover_s.push(start_s);
        let checked = (|| {
            let mut client = Client::connect(&running.addr)?;
            let same = if i == 0 {
                (|| {
                    let r_output = client.call("OUTPUT")?;
                    let r_stats = client.call("STATS")?;
                    if r_output != output {
                        return Err("recovered OUTPUT differs from the live daemon's".to_string());
                    }
                    let tail = (p.batches as u64 % p.snapshot_every) as usize;
                    check_recovered_counters(&r_stats, &stats, snap_stats.as_deref(), tail)
                })()
            } else {
                Ok(())
            };
            // Stop the recovered daemon whether or not it passed.
            running.stop(&mut client).and(same)
        })();
        outcome.check_ok(&format!("recovery {i}"), checked);
    }
    Some(Session {
        setup_s,
        batch_ms,
        read_ms,
        late_ms,
        rows_acked,
        stream_s,
        wall_s,
        loss,
        output,
        recover_s,
    })
}

/// The untraced run.
pub fn run(p: &ServeParams, seed: u64, dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let Some(stream) = outcome.check_ok("generating the stream", generate(p, seed, dir)) else {
        return outcome;
    };
    let Some(s) = session(p, &stream, dir, p.setups, p.recoveries, &mut outcome) else {
        return outcome;
    };
    let (b95, b95_note) = tail(&s.batch_ms);
    let late_max = s.late_ms.iter().copied().fold(0.0, f64::max);
    outcome.set_noted(
        "wall_s",
        s.wall_s,
        format!(
            "{} batches, then the final OUTPUT checked",
            s.batch_ms.len()
        ),
    );
    outcome.set("loss_em", s.loss);
    outcome.set_noted(
        "setup_s",
        median(&s.setup_s),
        format!("median of {} daemon starts", s.setup_s.len()),
    );
    outcome.set_noted(
        "batch_p50_ms",
        median(&s.batch_ms),
        format!("median of {} batches", s.batch_ms.len()),
    );
    outcome.set_noted("batch_p95_ms", b95, b95_note);
    outcome.set("ingest_rows_per_s", s.rows_acked as f64 / s.stream_s);
    outcome.set_noted(
        "read_p50_ms",
        median(&s.read_ms),
        format!(
            "median of {} reads; generator late by median {:.3} ms, max {:.3} ms",
            s.read_ms.len(),
            median(&s.late_ms),
            late_max
        ),
    );
    outcome.set_noted(
        "recover_s",
        median(&s.recover_s),
        format!("median of {} recoveries", s.recover_s.len()),
    );
    if let Some(rss) = crate::machine::peak_rss_mib() {
        outcome.set("peak_rss_mb", rss);
    }
    outcome
}

/// What a mirror replay produced.
struct MirrorOut {
    /// Seconds spent in the batch loop.
    stream_s: f64,
    /// The final release, formatted like the daemon's `OUTPUT` reply.
    output: String,
    journal_bytes_written: u64,
    journal_bytes_compacted: u64,
    snapshot_bytes_written: u64,
    last_snapshot_bytes: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Replays the stream through the public `ServeState` + `Journal` API
/// in the daemon's order, one span per public call:
///
/// * bootstrap: `NodeCostTable::compute` and the sharded run timed on
///   their own, then `ServeState::bootstrap` (which repeats both);
/// * each batch: `parse_request` → `Journal::append` → `apply_batch`
///   (→ every `snapshot_every`-th batch: `write_snapshot` →
///   `Journal::compact`) → `published_loss` → `published_csv`;
/// * recovery, `recoveries` times on copies of the final state:
///   `restore_snapshot` → `replay_journal`.
fn mirror(
    p: &ServeParams,
    stream: &Stream,
    dir: &Path,
    recoveries: usize,
    t: &mut Tracer,
) -> Result<MirrorOut, String> {
    let base = t.call("data.ingest", || load_base(stream))?;
    let costs = t.call("measures.cost_table", || {
        NodeCostTable::compute(&base, &EntropyMeasure)
    });
    let shard_cfg = ShardConfig::new(p.k).with_shard_max(p.shard_max);
    t.call("algos.sharded", || {
        try_sharded_k_anonymize(&base, &costs, &shard_cfg)
    })
    .map_err(|e| e.to_string())?;
    let mut state = t
        .call_scratch("serve.bootstrap", || {
            ServeState::bootstrap(base, p.config())
        })
        .map_err(|e| e.to_string())?;
    let state_dir = dir.join("mirror");
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).map_err(|e| e.to_string())?;
    let journal_path = state_dir.join(JOURNAL_FILE);
    let snapshot_path = state_dir.join(SNAPSHOT_FILE);
    let mut journal = Journal::open(&journal_path).map_err(|e| e.to_string())?;
    let mut out = MirrorOut {
        stream_s: 0.0,
        output: String::new(),
        journal_bytes_written: 0,
        journal_bytes_compacted: 0,
        snapshot_bytes_written: 0,
        last_snapshot_bytes: 0,
    };
    let t0 = Instant::now();
    for (b, request) in stream.requests.iter().enumerate() {
        t.begin("serve.batch");
        let req = t.call("serve.parse", || parse_request(request.as_bytes()))?;
        let Request::Batch {
            absorb_epsilon,
            body,
            ..
        } = req
        else {
            return Err(format!("batch {b} did not parse as BATCH"));
        };
        let epsilon = absorb_epsilon.unwrap_or_else(|| state.absorb_epsilon());
        let seq = state.next_seq();
        let before = file_len(&journal_path);
        t.call("serve.journal_append", || {
            journal.append(seq, RecordKind::Batch, 0, epsilon, body.as_bytes())
        })
        .map_err(|e| format!("batch {b}: journal append: {e}"))?;
        out.journal_bytes_written += file_len(&journal_path) - before;
        t.call("serve.apply", || state.apply_batch(&body, 0, epsilon))
            .map_err(|e| format!("batch {b}: {e}"))?;
        if state.batches_applied() % p.snapshot_every == 0 {
            t.call("serve.snapshot", || state.write_snapshot(&snapshot_path))
                .map_err(|e| format!("batch {b}: snapshot: {e}"))?;
            out.last_snapshot_bytes = file_len(&snapshot_path);
            out.snapshot_bytes_written += out.last_snapshot_bytes;
            let covered = state.next_seq() - 1;
            let reclaimed = t
                .call("serve.compact", || journal.compact(covered))
                .map_err(|e| format!("batch {b}: compact: {e}"))?;
            out.journal_bytes_compacted += reclaimed.unwrap_or(0);
        }
        let loss = t
            .call("serve.render_loss", || state.published_loss())
            .map_err(|e| e.to_string())?;
        let csv = t
            .call("serve.render_csv", || state.published_csv())
            .map_err(|e| e.to_string())?;
        t.end();
        out.output = format!("OK rows={} loss={loss:.6}\n{csv}", state.published_rows());
    }
    out.stream_s = t0.elapsed().as_secs_f64();
    let csv = out.output.split_once('\n').map_or("", |(_, c)| c);
    let release = parse_generalized(&stream.schema, csv)?;
    if !t.call("verify.check", || {
        kanon_verify::is_k_anonymous(&release, p.k)
    }) {
        return Err("mirror release fails kanon-verify's k-anonymity check".to_string());
    }
    drop(journal);
    for i in 0..recoveries {
        let copy = dir.join(format!("mirror_recover{i}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_state(&state_dir, &copy)?;
        t.begin("serve.recovery");
        let mut recovered = t.call_scratch("serve.restore", || {
            let text =
                std::fs::read_to_string(copy.join(SNAPSHOT_FILE)).map_err(|e| e.to_string())?;
            ServeState::restore_snapshot(&text, p.config(), stream.schema.clone())
                .map_err(|e| e.to_string())
        })?;
        t.call_scratch("serve.replay", || {
            recovered.replay_journal(&copy.join(JOURNAL_FILE))
        })
        .map_err(|e| e.to_string())?;
        t.end();
        if recovered.published_csv().map_err(|e| e.to_string())? != csv {
            return Err("mirror recovery published a different release".to_string());
        }
    }
    Ok(out)
}

/// The traced run: a daemon session for the untraced batch latency,
/// then the mirror replay untraced and traced.
pub fn run_traced(p: &ServeParams, seed: u64, dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let Some(stream) = outcome.check_ok("generating the stream", generate(p, seed, dir)) else {
        return outcome;
    };
    let Some(s) = session(p, &stream, dir, 1, 0, &mut outcome) else {
        return outcome;
    };
    let Some(plain) = outcome.check_ok(
        "untraced mirror",
        mirror(p, &stream, dir, 0, &mut Tracer::disabled()),
    ) else {
        return outcome;
    };
    let mut t = Tracer::new();
    let Some(m) = outcome.check_ok(
        "traced mirror",
        mirror(p, &stream, dir, p.recoveries, &mut t),
    ) else {
        return outcome;
    };
    outcome.check(m.output == plain.output, || {
        "traced and untraced mirror releases differ".to_string()
    });
    outcome.check(m.output == s.output, || {
        "the mirror's release differs from the daemon's final OUTPUT".to_string()
    });

    let (r95, r95_note) = tail(&s.read_ms);
    outcome.set_noted("read_p95_ms", r95, r95_note);
    let stage = |name: &str| median(&t.durations_ms(name));
    let stages = [
        ("serve.parse", "serve.parse_ms"),
        ("serve.journal_append", "serve.journal_append_ms"),
        ("serve.apply", "serve.apply_ms"),
        ("serve.render_loss", "serve.render_loss_ms"),
        ("serve.render_csv", "serve.render_csv_ms"),
    ];
    let mut stage_sum = 0.0;
    for (span, metric) in stages {
        stage_sum += stage(span);
        outcome.set(metric, stage(span));
    }
    outcome.set_noted(
        "serve.unaccounted_ms",
        median(&s.batch_ms) - stage_sum,
        "daemon batch_p50_ms minus the traced stage medians".to_string(),
    );
    outcome.set("serve.snapshot_ms", stage("serve.snapshot"));
    outcome.set("serve.compact_ms", stage("serve.compact"));
    outcome.set("serve.bootstrap_ms", t.total_ms("serve.bootstrap"));
    outcome.set("serve.restore_ms", stage("serve.restore"));
    outcome.set("serve.replay_ms", stage("serve.replay"));
    outcome.set("data.ingest_ms", t.total_ms("data.ingest"));
    outcome.set("data.render_ms", stage("serve.render_csv"));
    outcome.set("measures.cost_table_ms", t.total_ms("measures.cost_table"));
    outcome.set("algos.sharded_ms", t.total_ms("algos.sharded"));
    outcome.set("verify.check_ms", t.total_ms("verify.check"));

    let report = t.report();
    let ingested = report.counter(kanon_obs::Counter::ServeRowsIngested) as f64;
    let absorbed = report.counter(kanon_obs::Counter::ServeRowsAbsorbed) as f64;
    let absorbed_eps = report.counter(kanon_obs::Counter::ServeRowsAbsorbedEps) as f64;
    outcome.set("serve.rows_ingested", ingested);
    outcome.set("serve.rows_absorbed", absorbed);
    outcome.set("serve.rows_absorbed_eps", absorbed_eps);
    outcome.set(
        "serve.absorb_rate",
        if ingested > 0.0 {
            absorbed / ingested
        } else {
            0.0
        },
    );
    outcome.set(
        "serve.journal_bytes_written",
        m.journal_bytes_written as f64,
    );
    outcome.set(
        "serve.journal_bytes_compacted",
        m.journal_bytes_compacted as f64,
    );
    outcome.set("serve.snapshot_bytes", m.last_snapshot_bytes as f64);
    outcome.set(
        "serve.write_amp",
        (m.journal_bytes_written + m.snapshot_bytes_written) as f64 / stream.body_bytes as f64,
    );
    let output_bytes = m.output.split_once('\n').map_or(0, |(_, c)| c.len()) as f64;
    outcome.set("serve.output_bytes", output_bytes);
    outcome.set("data.output_bytes", output_bytes);

    let batches: f64 = t.total_ms("serve.batch");
    let covered: f64 = [
        "serve.parse",
        "serve.journal_append",
        "serve.apply",
        "serve.snapshot",
        "serve.compact",
        "serve.render_loss",
        "serve.render_csv",
    ]
    .iter()
    .map(|s| t.total_ms(s))
    .sum();
    outcome.set("trace_coverage_frac", covered / batches);
    outcome.set("trace_overhead_frac", m.stream_s / plain.stream_s - 1.0);
    t.set_counters(&mut outcome);
    t.write_spans(dir, &mut outcome);
    outcome
}
