//! `perfbench`: one run of one workload against the `circlekit serve`
//! daemon. Normally started through `run.py`, which builds both binaries:
//!
//! ```text
//! perfbench --workload hot_groups|cold_sets|write_mix --seed N --seconds S
//!           --trace 0|1 --daemon PATH/circlekit --work DIR
//!           [--rev REV] [--source-digest HEX]
//! ```
//!
//! Prints a `# provenance` line, then, as the last line of standard
//! output, the result object. Exits 0 when every answer was right, 1
//! when one was wrong, 2 when the run could not be made.

use circlekit_graph::VertexSet;
use circlekit_live::{wal_path_for, LiveSnapshot, Mutation};
use circlekit_perfbench::check::check_scores;
use circlekit_perfbench::corpus::{Corpus, CORPUS_SEED, PRESET};
use circlekit_perfbench::daemon::Daemon;
use circlekit_perfbench::load::{drive, Conn, ConnRun, Phase, Sample, Verdict};
use circlekit_perfbench::percentile::median;
use circlekit_perfbench::replay::{self, Inputs};
use circlekit_perfbench::report::{
    delta, per_layer, summarize, Metrics, Traced, WindowSummary, END_TO_END,
};
use circlekit_perfbench::trace::Tracer;
use circlekit_perfbench::workload::{
    plan, OpKind, Plan, Proto, Workload, CONNECTIONS, SNAPSHOT_ID,
};
use circlekit_scoring::{Scorer, ScoringFunction, SetStats};
use circlekit_serve::protocol::wire;
use circlekit_serve::Request;
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Load before the measured window: caches fill, lazy set-up finishes.
const WARMUP: Duration = Duration::from_secs(2);

/// The first part of the warm-up, which measures the connections'
/// request rate.
const PROBE: Duration = Duration::from_secs(1);

/// Requests generated per connection before the probe. At the rates of
/// the reference machine the probe uses at most a tenth of them.
const FIRST_CHUNK: usize = 5_000;

/// After the probe, a non-wrapping stream is extended to this many times
/// what the rest of the run would use at the probe's rate.
const HEADROOM: f64 = 4.0;

/// Daemon starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 31;

/// `health` round trips timed after the traced window.
const HEALTH_PROBES: usize = 2_000;

/// JSON replies kept from the traced window for the replay.
const CAPTURE: usize = 4_000;

/// Length of the (repeating) `hot_groups` streams.
const WRAPPING_STREAM: usize = 4_096;

/// The WAL flush policy the daemon runs with (its only one).
const FLUSH_POLICY: &str = "one sync_data per committed apply_mutations batch";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
    rev: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let need = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = need("workload")?;
    Ok(Args {
        workload: Workload::from_name(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: need("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        daemon: PathBuf::from(need("daemon")?),
        work: PathBuf::from(need("work")?),
        rev: map
            .get("rev")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
        source_digest: map.get("source-digest").cloned().unwrap_or_default(),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(2)
        }
    }
}

/// Failures found by checks outside the load loop.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add_runs(&mut self, runs: &[ConnRun]) {
        for r in runs {
            self.attempted += r.attempted;
            self.failed += r.failed;
            for why in &r.failures {
                eprintln!("perfbench: FAILED {why}");
            }
        }
    }

    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED {why}");
            }
        }
    }
}

/// Expected `hot_groups` answers, keyed by (circle, function count).
type Expected = HashMap<(usize, usize), Vec<f64>>;

fn offline_hot_answers(corpus: &Corpus, plan: &Plan) -> Expected {
    let mut scorer = Scorer::new(&corpus.graph);
    let mut expected = HashMap::new();
    for &g in &plan.circles {
        for functions in [&ScoringFunction::PAPER[..], &ScoringFunction::ALL[..]] {
            let scores = functions
                .iter()
                .map(|&f| scorer.score(f, &corpus.groups[g]))
                .collect();
            expected.insert((g, functions.len()), scores);
        }
    }
    expected
}

/// The reply check of one workload, run inside the load loop.
fn reply_check<'a>(
    workload: Workload,
    plan: &'a Plan,
    expected: &'a Expected,
) -> impl Fn(usize, usize, &Value) -> Verdict + Sync + 'a {
    move |conn, index, reply| {
        let scores = || wire::get_scores(reply, "scores").map_err(|(_, m)| m);
        match &plan.streams[conn][index] {
            Request::ScoreGroup {
                group, functions, ..
            } => match workload {
                Workload::HotGroups => {
                    check_scores(&expected[&(*group, functions.len())], &scores()?).map(|()| None)
                }
                // Interleaved writes decide which version a read sees; the
                // score table is checked once the writes stop.
                _ if scores()?.len() == functions.len() => Ok(None),
                _ => Err("wrong number of scores".to_string()),
            },
            Request::ScoreSet { .. } => Ok(Some(scores()?)),
            Request::ApplyMutations { mutations, .. } => {
                let applied = wire::get_u64(reply, "applied").map_err(|(_, m)| m)?;
                match wire::get(reply, "rejected") {
                    Some(Value::Null) if applied == mutations.len() as u64 => Ok(None),
                    _ => Err(format!("batch not fully applied: {reply}")),
                }
            }
            Request::SuggestCircles { ego, .. } => match wire::get(reply, "candidates") {
                Some(Value::Seq(_)) if wire::get_u64(reply, "ego") == Ok(u64::from(*ego)) => {
                    Ok(None)
                }
                _ => Err(format!("malformed suggestion: {reply}")),
            },
            other => Err(format!("unexpected request {other:?}")),
        }
    }
}

/// Fails the run (exit 2) when a connection ran out of requests in
/// `phase`: the streams were sized for a lower rate than the daemon
/// reached.
fn ran_out(runs: &[ConnRun], plan: &Plan, phase: &str) -> Result<(), String> {
    match runs.iter().position(|r| r.exhausted) {
        None => Ok(()),
        Some(c) => Err(format!(
            "connection {c} used up its {} generated requests in {phase}: \
             the streams start with {FIRST_CHUNK} requests and are extended to \
             {HEADROOM}x what the run needs at the rate of the warm-up's probe, \
             and the daemon went faster than that",
            plan.streams[c].len()
        )),
    }
}

/// The cache counters a workload pins, over one window: `hot_groups`
/// hits at least 99% of its lookups, `cold_sets` never hits.
fn check_counters(
    workload: Workload,
    before: &Value,
    after: &Value,
    tally: &mut Tally,
) -> Result<(), String> {
    let hits = delta(before, after, "cache_hits")?;
    let misses = delta(before, after, "cache_misses")?;
    match workload {
        Workload::HotGroups => tally.check(if hits * 100 >= (hits + misses) * 99 && hits > 0 {
            Ok(())
        } else {
            Err(format!(
                "hot_groups: {hits} cache hits and {misses} misses in a window, want a hit ratio of at least 0.99"
            ))
        }),
        Workload::ColdSets => tally.check(if hits == 0 {
            Ok(())
        } else {
            Err(format!("cold_sets: {hits} cache hits in a window, want 0"))
        }),
        Workload::WriteMix => {}
    }
    Ok(())
}

/// Checks kept `score_set` replies against offline `SetStats`, on as
/// many threads as there are cores (the daemon has stopped by now).
fn check_deferred(corpus: &Corpus, plan: &Plan, runs: &[ConnRun], tally: &mut Tally) {
    let kept: Vec<(usize, &(usize, Vec<f64>))> = runs
        .iter()
        .enumerate()
        .flat_map(|(conn, run)| run.deferred.iter().map(move |k| (conn, k)))
        .collect();
    let check_one = |&(conn, (index, got)): &(usize, &(usize, Vec<f64>))| {
        let Request::ScoreSet {
            members, functions, ..
        } = &plan.streams[conn][*index]
        else {
            return Err(format!("kept reply {index} is not a score_set"));
        };
        let set = VertexSet::from_vec(members.clone());
        let stats = SetStats::compute(&corpus.graph, &set, corpus.median_degree);
        let expected: Vec<f64> = functions.iter().map(|f| f.score(&stats)).collect();
        check_scores(&expected, got)
            .map_err(|e| format!("connection {conn} score_set {index}: {e}"))
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = kept.len().div_ceil(threads).max(1);
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = kept
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(check_one).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    for outcome in outcomes {
        tally.check(outcome);
    }
}

/// Every mutation the connections sent, per connection.
fn sent_mutations(plan: &Plan, cursors: &[usize]) -> Vec<Vec<Mutation>> {
    plan.streams
        .iter()
        .zip(cursors)
        .map(|(stream, &n)| {
            stream[..n.min(stream.len())]
                .iter()
                .flat_map(|r| match r {
                    Request::ApplyMutations { mutations, .. } => mutations.clone(),
                    _ => Vec::new(),
                })
                .collect()
        })
        .collect()
}

/// How many mutations the streams hold before positions `cursors`.
fn mutation_count(plan: &Plan, cursors: &[usize]) -> usize {
    sent_mutations(plan, cursors).iter().map(Vec::len).sum()
}

/// After the writes stop: the daemon's whole score table against the
/// offline `Scorer` over `LiveSnapshot::materialize()` after the same
/// mutations.
fn check_final_table(
    corpus: &Corpus,
    plan: &Plan,
    cursors: &[usize],
    conn: &mut Conn,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut live = LiveSnapshot::in_memory(corpus.graph.clone(), corpus.groups.clone());
    for batch in sent_mutations(plan, cursors) {
        let outcome = live
            .apply(&batch)
            .map_err(|e| format!("offline apply: {e}"))?;
        if outcome.applied != batch.len() {
            return Err(format!("offline apply rejected {:?}", outcome.rejected));
        }
    }
    let graph = live.materialize();
    let mut scorer = Scorer::new(&graph);
    for (g, set) in live.groups().iter().enumerate() {
        let expected: Vec<f64> = ScoringFunction::ALL
            .iter()
            .map(|&f| scorer.score(f, set))
            .collect();
        let reply = conn.call(&Request::ScoreGroup {
            snapshot: SNAPSHOT_ID.to_string(),
            group: g,
            functions: ScoringFunction::ALL.to_vec(),
            deadline_ms: None,
        });
        tally.check(
            reply
                .and_then(|r| wire::get_scores(&r, "scores").map_err(|(_, m)| m))
                .and_then(|got| check_scores(&expected, &got))
                .map_err(|e| format!("final score table, circle {g}: {e}")),
        );
    }
    Ok(())
}

/// The snapshot a daemon start serves: the packed file itself, or for
/// `write_mix` a fresh copy without a WAL (writes must not outlive a
/// start).
fn serving_copy(workload: Workload, packed: &Path, work: &Path) -> Result<PathBuf, String> {
    if workload != Workload::WriteMix {
        return Ok(packed.to_path_buf());
    }
    let dir = work.join("serve");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{SNAPSHOT_ID}.cks"));
    let _ = std::fs::remove_file(wal_path_for(&path));
    std::fs::copy(packed, &path).map_err(|e| format!("copying snapshot: {e}"))?;
    Ok(path)
}

/// The filesystem type holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn samples_of(runs: &[ConnRun]) -> Vec<Sample> {
    runs.iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let work = &args.work;
    if work.exists() {
        std::fs::remove_dir_all(work).map_err(|e| format!("clearing {}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Inputs, all before any clock starts.
    let clock = Instant::now();
    let stage = |what: &str| {
        eprintln!(
            "perfbench: {:>7.2} s  {what}",
            clock.elapsed().as_secs_f64()
        )
    };
    let corpus = Corpus::synthesize(w.scale(), CORPUS_SEED);
    stage("corpus generated");
    let packed = work.join(format!("{SNAPSHOT_ID}.cks"));
    let packed_bytes = corpus.pack(w.format(), &packed)?;
    let windows = if args.trace { 2 } else { 1 };
    let first = if w.wraps() {
        WRAPPING_STREAM
    } else {
        FIRST_CHUNK
    };
    let mut plan = plan(w, &corpus, args.seed, first);
    let expected = match w {
        Workload::HotGroups => offline_hot_answers(&corpus, &plan),
        _ => Expected::new(),
    };
    stage("streams generated");

    // Set-up: several daemon starts; the last one serves the load.
    let mut setup_times = Vec::with_capacity(SETUP_STARTS);
    let mut daemon = None;
    for i in 0..SETUP_STARTS {
        let snapshot = serving_copy(w, &packed, work)?;
        let (d, seconds) = Daemon::start(&args.daemon, &snapshot)?;
        setup_times.push(seconds);
        if i + 1 < SETUP_STARTS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUP_STARTS > 0");
    let setup_s = median(&setup_times).expect("SETUP_STARTS > 0");
    stage("daemon started");

    let mut conns = (0..CONNECTIONS)
        .map(|c| Conn::connect(daemon.addr, Proto::of_connection(c)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cursors = vec![0usize; CONNECTIONS];
    let origin = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let wraps = w.wraps();
    let new_phase = |length: Duration, record: bool, trace: bool, capture: usize| Phase {
        origin,
        until: Instant::now() + length,
        record,
        trace,
        capture,
    };

    let probe = drive(
        &mut conns,
        &plan.ops,
        &plan.frames,
        &mut cursors,
        wraps,
        new_phase(PROBE, false, false, 0),
        &reply_check(w, &plan, &expected),
    );
    tally.add_runs(&probe);
    ran_out(&probe, &plan, "the warm-up's probe")?;
    if !wraps {
        // Size each stream from the fastest connection's rate in the
        // probe, before the rest of the warm-up and outside every clock.
        let rest = (WARMUP - PROBE + window * windows as u32).as_secs_f64();
        let rate = cursors.iter().max().copied().unwrap_or(0) as f64 / PROBE.as_secs_f64();
        for (c, &sent) in cursors.iter().enumerate() {
            let need = sent + (HEADROOM * rate * rest).ceil() as usize;
            let have = plan.streams[c].len();
            plan.extend(&corpus, c, need.saturating_sub(have));
        }
        stage("streams extended");
    }
    let check = reply_check(w, &plan, &expected);
    let warm = drive(
        &mut conns,
        &plan.ops,
        &plan.frames,
        &mut cursors,
        wraps,
        new_phase(WARMUP - PROBE, false, false, 0),
        &check,
    );
    tally.add_runs(&warm);
    ran_out(&warm, &plan, "the warm-up")?;
    let stats0 = conns[0].call(&Request::Stats)?;
    let warm_cursors = cursors.clone();
    let plain_runs = drive(
        &mut conns,
        &plan.ops,
        &plan.frames,
        &mut cursors,
        wraps,
        new_phase(window, true, false, 0),
        &check,
    );
    tally.add_runs(&plain_runs);
    ran_out(&plain_runs, &plan, "the measured window")?;
    let stats1 = conns[0].call(&Request::Stats)?;
    check_counters(w, &stats0, &stats1, &mut tally)?;
    let plain = summarize(&samples_of(&plain_runs), &plain_runs[0].marks)?;
    let plain_cursors = cursors.clone();
    let mut traced_parts = None;
    if args.trace {
        let sent_before = plain_cursors.clone();
        let runs = drive(
            &mut conns,
            &plan.ops,
            &plan.frames,
            &mut cursors,
            wraps,
            new_phase(window, true, true, CAPTURE),
            &check,
        );
        tally.add_runs(&runs);
        ran_out(&runs, &plan, "the traced window")?;
        let stats2 = conns[0].call(&Request::Stats)?;
        check_counters(w, &stats1, &stats2, &mut tally)?;
        let mut tracer = Tracer::new(origin);
        for r in &runs {
            tracer.absorb(r.spans.clone());
        }
        let health = circlekit_perfbench::workload::encode(&Request::Health, Proto::Ckp1);
        for i in 0..HEALTH_PROBES {
            let start = Instant::now();
            conns[0].send(&health)?;
            tracer.record(
                OpKind::Health.client_span(),
                start,
                Instant::now(),
                None,
                i as u64,
            );
        }
        traced_parts = Some((runs, sent_before, stats1.clone(), stats2, tracer));
    }

    stage("load done");
    let rss_mb = daemon.peak_rss_mb()?;
    if w == Workload::WriteMix {
        check_final_table(&corpus, &plan, &cursors, &mut conns[0], &mut tally)?;
        let sent = mutation_count(&plan, &cursors);
        let applied = conns[0]
            .call(&Request::Stats)
            .and_then(|s| wire::get_u64(&s, "mutations_applied").map_err(|(_, m)| m))?;
        tally.check(if applied == sent as u64 {
            Ok(())
        } else {
            Err(format!(
                "daemon applied {applied} mutations, {sent} were sent"
            ))
        });
    }
    drop(conns);
    let report = daemon.stop()?;
    eprintln!("perfbench: daemon said: {report}");
    check_deferred(&corpus, &plan, &plain_runs, &mut tally);
    check_deferred(&corpus, &plan, &probe, &mut tally);
    check_deferred(&corpus, &plan, &warm, &mut tally);
    stage("answers checked");

    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("ops_per_s", plain.reported.ops_per_s);
    metrics.set("lat_p50_us", plain.reported.p50_us);
    metrics.set("lat_p99_us", plain.reported.p99_us);
    metrics.set("peak_rss_mb", rss_mb);
    let mut reported = plain.clone();
    let mut window_stats = (stats0, stats1);
    let mut window_sent =
        mutation_count(&plan, &plain_cursors) - mutation_count(&plan, &warm_cursors);

    if let Some((runs, sent_before, before, after, mut tracer)) = traced_parts {
        check_deferred(&corpus, &plan, &runs, &mut tally);
        let traced = summarize(&samples_of(&runs), &runs[0].marks)?;
        let mut sent: Vec<(u64, usize, usize)> = runs
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| (s.start_ns, s.conn, s.index)))
            .collect();
        sent.sort_unstable();
        let mut replies: HashMap<OpKind, Vec<String>> = HashMap::new();
        for (c, r) in runs.iter().enumerate() {
            for (index, text) in &r.captured {
                replies
                    .entry(plan.ops[c][*index])
                    .or_default()
                    .push(text.clone());
            }
        }
        let dir = work.join("replay");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let inputs = Inputs {
            workload: w,
            corpus: &corpus,
            plan: &plan,
            sent_before,
            traced: sent.iter().map(|&(_, c, i)| (c, i)).collect(),
            replies,
            packed: &packed,
            dir: &dir,
        };
        let mut replay_tracer = Tracer::new(origin);
        let facts = replay::run(&inputs, &mut replay_tracer)?;
        stage("replayed");
        tracer.absorb(replay_tracer.into_spans());
        let trace_path = work.join("trace.jsonl");
        tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        metrics = per_layer(&Traced {
            workload: w,
            plain: plain.reported,
            traced: traced.reported,
            stats: (&before, &after),
            spans: tracer.spans(),
            facts: &facts,
            arcs: corpus.graph.edge_count() as u64,
        })?;
        reported = traced;
        window_stats = (before, after);
        window_sent = mutation_count(&plan, &cursors) - mutation_count(&plan, &plain_cursors);
    }

    print_provenance(
        args,
        &corpus,
        packed_bytes,
        &plan,
        &cursors,
        &reported,
        &window_stats,
        setup_s,
        &setup_times,
        window_sent,
    );
    eprint!("{}", metrics.table());
    let correct = tally.failed == 0;
    println!(
        "{}",
        metrics.result_line(correct, tally.attempted, tally.failed)?
    );
    Ok(correct)
}

#[allow(clippy::too_many_arguments)]
fn print_provenance(
    args: &Args,
    corpus: &Corpus,
    packed_bytes: u64,
    plan: &Plan,
    cursors: &[usize],
    window: &WindowSummary,
    stats: &(Value, Value),
    setup_s: f64,
    setup_times: &[f64],
    window_mutations_sent: usize,
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let w = args.workload;
    let d = |k: &str| delta(&stats.0, &stats.1, k).unwrap_or(0);
    let line = Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("git_rev".into(), Value::Str(args.rev.clone())),
        (
            "source_digest".into(),
            Value::Str(args.source_digest.clone()),
        ),
        (
            "corpus".into(),
            Value::Map(vec![
                ("preset".into(), Value::Str(PRESET.into())),
                ("scale".into(), Value::Float(corpus.scale)),
                ("seed".into(), Value::UInt(corpus.seed)),
                (
                    "nodes".into(),
                    Value::UInt(corpus.graph.node_count() as u64),
                ),
                ("arcs".into(), Value::UInt(corpus.graph.edge_count() as u64)),
                ("circles".into(), Value::UInt(corpus.groups.len() as u64)),
                ("format".into(), Value::Str(w.format().name().into())),
                ("file_bytes".into(), Value::UInt(packed_bytes)),
            ]),
        ),
        ("flush_policy".into(), Value::Str(FLUSH_POLICY.into())),
        ("filesystem".into(), Value::Str(filesystem_of(&args.work))),
        (
            "connections".into(),
            Value::Map(vec![
                ("ckp1".into(), Value::UInt(1)),
                ("json".into(), Value::UInt(1)),
            ]),
        ),
        ("loop".into(), Value::Str("closed".into())),
        (
            "daemon_flags".into(),
            Value::Str("defaults (--listen 127.0.0.1:0)".into()),
        ),
        ("warmup_s".into(), Value::UInt(WARMUP.as_secs())),
        ("window_s".into(), Value::UInt(args.seconds)),
        (
            "stream_lengths".into(),
            Value::Seq(
                plan.streams
                    .iter()
                    .map(|s| Value::UInt(s.len() as u64))
                    .collect(),
            ),
        ),
        (
            "requests_sent".into(),
            Value::Seq(cursors.iter().map(|&n| Value::UInt(n as u64)).collect()),
        ),
        (
            "window_samples".into(),
            Value::UInt(window.reported.samples as u64),
        ),
        (
            "p99_quantile".into(),
            Value::Float(window.reported.p99_quantile),
        ),
        (
            "setup_starts".into(),
            Value::Seq(setup_times.iter().map(|&s| Value::Float(s)).collect()),
        ),
        ("setup_s".into(), Value::Float(setup_s)),
        (
            "reported_seconds".into(),
            Value::Float(window.reported.seconds),
        ),
        ("window_parts".into(), Value::UInt(window.parts as u64)),
        ("kept_parts".into(), Value::UInt(window.kept as u64)),
        ("window_cpu_steal".into(), Value::Float(window.steal.0)),
        ("kept_cpu_steal".into(), Value::Float(window.steal.1)),
        (
            "parts".into(),
            Value::Seq(
                window
                    .each
                    .iter()
                    .map(|(steal, f)| {
                        Value::Seq(
                            [*steal, f.ops_per_s, f.p50_us, f.p99_us]
                                .map(Value::Float)
                                .to_vec(),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "whole_window".into(),
            Value::Map(vec![
                ("ops_per_s".into(), Value::Float(window.whole.ops_per_s)),
                ("lat_p50_us".into(), Value::Float(window.whole.p50_us)),
                ("lat_p99_us".into(), Value::Float(window.whole.p99_us)),
            ]),
        ),
        ("window_cache_hits".into(), Value::UInt(d("cache_hits"))),
        ("window_cache_misses".into(), Value::UInt(d("cache_misses"))),
        (
            "window_mutations_applied".into(),
            Value::UInt(d("mutations_applied")),
        ),
        (
            "window_mutations_sent".into(),
            Value::UInt(window_mutations_sent as u64),
        ),
    ]);
    println!("# provenance {line}");
}
