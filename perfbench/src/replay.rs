//! The traced replay: a run's own inputs pushed again through each
//! crate's public functions, one span per call, so the per-layer numbers
//! come from the same requests, sets and mutations the daemon served.
//!
//! Request replay follows the daemon's path for each request: CKP1
//! request decode, the op's work (cache model, `SetStats`, live apply,
//! re-materialize, ego view, discovery), response render, CKP1 response
//! encode and the client's response decode. Kernel replay runs
//! `SetStats::compute` and `PagedScorer::stats` over the workload's sets.
//! Set-up replay times snapshot loads, the median-degree pass and live
//! opens.

use crate::corpus::{Corpus, Format};
use crate::load::request_id;
use crate::trace::Tracer;
use crate::workload::{OpKind, Plan, Workload};
use circlekit_discover::{affected_egos, discover, DiscoverConfig, EgoView};
use circlekit_graph::{Graph, NodeId, VertexSet};
use circlekit_live::{LiveSnapshot, Mutation};
use circlekit_scoring::{default_threads, PagedScorer, Scorer, ScoringFunction, SetStats};
use circlekit_serve::{binary, ok_payload, set_digest, Request};
use circlekit_store::MappedSnapshot;
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Most requests of the traced window that are replayed.
pub const MAX_REQUESTS: usize = 1_000;

/// Most distinct sets the kernel replay scores per pass.
const MAX_KERNEL_SETS: usize = 256;

/// The kernel replay repeats its passes until it has run this long.
const KERNEL_MIN_TIME: Duration = Duration::from_millis(300);

/// Repetitions of each set-up call.
const SETUP_REPEATS: usize = 5;

/// What the replay needs from the run.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// The workload.
    pub workload: Workload,
    /// The corpus as generated.
    pub corpus: &'a Corpus,
    /// The run's request streams.
    pub plan: &'a Plan,
    /// Requests sent before the traced window, per connection (stream
    /// positions `0..n`).
    pub sent_before: Vec<usize>,
    /// Requests sent in the traced window, in send order, as
    /// `(connection, stream index)`.
    pub traced: Vec<(usize, usize)>,
    /// Raw JSON replies captured in the traced window, per op.
    pub replies: HashMap<OpKind, Vec<String>>,
    /// The served snapshot, as packed (never mutated).
    pub packed: &'a Path,
    /// Scratch directory for replay files.
    pub dir: &'a Path,
}

/// Counts the replay measures alongside its spans.
#[derive(Debug, Default)]
pub struct Facts {
    /// Adjacency entries visited by the kernel replay's `SetStats` calls.
    pub kernel_arcs: u64,
    /// Time of those calls, in nanoseconds.
    pub kernel_ns: u64,
    /// Time of the same sets through `PagedScorer`, in nanoseconds.
    pub paged_ns: u64,
    /// Mutations replayed through `LiveSnapshot::apply`.
    pub mutations: u64,
    /// WAL bytes those mutations appended.
    pub wal_bytes: u64,
    /// Size of the served snapshot in bytes.
    pub snapshot_bytes: u64,
}

/// The replay's model of the daemon's state for one request stream.
struct Model<'a> {
    corpus: &'a Corpus,
    /// Live state (write_mix only).
    live: Option<LiveSnapshot>,
    /// Committed mutation batches.
    version: u64,
    /// The materialized graph and its median, with the version it shows.
    materialized: Option<(u64, Graph, f64)>,
    /// Result-cache model: (set digest, function count) scored at `version`.
    scored: HashSet<(u64, usize)>,
    /// Suggestion-cache model: egos with a current suggestion.
    suggested: HashSet<NodeId>,
}

impl Model<'_> {
    /// The graph a read sees, and its members for `group`.
    fn group_set(&self, group: usize) -> VertexSet {
        match &self.live {
            Some(live) => live.groups()[group].clone(),
            None => self.corpus.groups[group].clone(),
        }
    }

    /// Applies a batch untimed (history before the traced window).
    fn apply_quietly(&mut self, mutations: &[Mutation]) -> Result<(), String> {
        let live = self.live.as_mut().expect("writes only in write_mix");
        let outcome = live
            .apply(mutations)
            .map_err(|e| format!("replay apply: {e}"))?;
        if outcome.applied != mutations.len() {
            return Err(format!("replay apply rejected {:?}", outcome.rejected));
        }
        self.version += 1;
        Ok(())
    }
}

/// Runs every replay for `inputs`, recording spans into `tracer`.
///
/// # Errors
///
/// A message when a replayed call fails (a replay mismatch is a
/// benchmark failure, not a measurement).
pub fn run(inputs: &Inputs<'_>, tracer: &mut Tracer) -> Result<Facts, String> {
    let mut facts = Facts {
        snapshot_bytes: std::fs::metadata(inputs.packed)
            .map_err(|e| format!("{}: {e}", inputs.packed.display()))?
            .len(),
        ..Facts::default()
    };
    let files = pack_both(inputs)?;
    replay_setup(inputs, &files, tracer)?;
    replay_kernel(inputs, &files, tracer, &mut facts)?;
    replay_requests(inputs, tracer, &mut facts)?;
    Ok(facts)
}

/// CKS1 and CKS2 files of the corpus: the served one plus the other
/// format packed into the scratch directory.
struct Files {
    cks1: PathBuf,
    cks2: PathBuf,
}

fn pack_both(inputs: &Inputs<'_>) -> Result<Files, String> {
    let other = inputs.dir.join("other.cks");
    Ok(match inputs.workload.format() {
        Format::Cks1 => {
            inputs.corpus.pack(Format::Cks2, &other)?;
            Files {
                cks1: inputs.packed.to_path_buf(),
                cks2: other,
            }
        }
        Format::Cks2 => {
            inputs.corpus.pack(Format::Cks1, &other)?;
            Files {
                cks1: other,
                cks2: inputs.packed.to_path_buf(),
            }
        }
    })
}

fn load(path: &Path) -> Result<(), String> {
    let snapshot = MappedSnapshot::open(path)
        .and_then(|m| m.load())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    black_box(snapshot);
    Ok(())
}

/// A fresh copy of the packed snapshot with no WAL next to it.
fn fresh_copy(inputs: &Inputs<'_>, name: &str) -> Result<PathBuf, String> {
    let path = inputs.dir.join(name);
    let _ = std::fs::remove_file(circlekit_live::wal_path_for(&path));
    std::fs::copy(inputs.packed, &path).map_err(|e| format!("copying snapshot: {e}"))?;
    Ok(path)
}

fn replay_setup(inputs: &Inputs<'_>, files: &Files, tracer: &mut Tracer) -> Result<(), String> {
    let live_copy = match inputs.workload {
        Workload::WriteMix => Some(fresh_copy(inputs, "open.cks")?),
        _ => None,
    };
    for i in 0..SETUP_REPEATS {
        let root = tracer.open("replay.setup", None, i as u64);
        tracer.time("store.cks1_load", root, || load(&files.cks1))?;
        tracer.time("store.cks2_load", root, || load(&files.cks2))?;
        let graph = &inputs.corpus.graph;
        tracer.time("scoring.median_degree", root, || {
            black_box(Scorer::new(graph).median_degree())
        });
        if let Some(path) = &live_copy {
            let live = tracer.time("live.open", root, || LiveSnapshot::open(path));
            black_box(live.map_err(|e| format!("live open: {e}"))?);
        }
        tracer.close(root);
    }
    Ok(())
}

/// The workload's sets: the circles its reads ask about, or the sets its
/// `score_set` requests carried.
fn workload_sets(inputs: &Inputs<'_>) -> Vec<VertexSet> {
    let mut sets: Vec<VertexSet> = match inputs.workload {
        Workload::ColdSets => inputs
            .traced
            .iter()
            .filter_map(|&(c, i)| match &inputs.plan.streams[c][i] {
                Request::ScoreSet { members, .. } => Some(VertexSet::from_vec(members.clone())),
                _ => None,
            })
            .collect(),
        _ => inputs
            .plan
            .circles
            .iter()
            .map(|&g| inputs.corpus.groups[g].clone())
            .collect(),
    };
    sets.truncate(MAX_KERNEL_SETS);
    sets
}

fn replay_kernel(
    inputs: &Inputs<'_>,
    files: &Files,
    tracer: &mut Tracer,
    facts: &mut Facts,
) -> Result<(), String> {
    let corpus = inputs.corpus;
    let sets = workload_sets(inputs);
    if sets.is_empty() {
        return Err("kernel replay has no sets".to_string());
    }
    let mapped = MappedSnapshot::open(&files.cks2).map_err(|e| format!("cks2 open: {e}"))?;
    let view = mapped.view2().map_err(|e| format!("cks2 view: {e}"))?;
    let paged = view.paged().map_err(|e| format!("cks2 paged: {e}"))?;
    let paged_scorer = PagedScorer::with_median_degree(&paged, corpus.median_degree);
    let started = Instant::now();
    let mut pass = 0u64;
    while started.elapsed() < KERNEL_MIN_TIME {
        for (i, set) in sets.iter().enumerate() {
            let root = tracer.open("replay.kernel", None, pass << 32 | i as u64);
            let t0 = Instant::now();
            let csr = tracer.time("scoring.stats", root, || {
                SetStats::compute(&corpus.graph, black_box(set), corpus.median_degree)
            });
            let t1 = Instant::now();
            let mapped_stats = tracer.time("scoring.paged_stats", root, || {
                paged_scorer.stats(black_box(set))
            });
            let t2 = Instant::now();
            tracer.close(root);
            let mapped_stats = mapped_stats.map_err(|e| format!("paged stats: {e}"))?;
            if mapped_stats != csr {
                return Err(format!("paged and in-memory SetStats differ on set {i}"));
            }
            facts.kernel_arcs += corpus.arcs_visited(set);
            facts.kernel_ns += (t1 - t0).as_nanos() as u64;
            facts.paged_ns += (t2 - t1).as_nanos() as u64;
        }
        pass += 1;
    }
    Ok(())
}

/// Splits a rendered `{"ok":true,...}` reply into the field list the
/// daemon rendered it from.
fn reply_fields(text: &str) -> Result<Vec<(String, Value)>, String> {
    match serde_json::from_str::<Value>(text) {
        Ok(Value::Map(mut entries)) if entries.first().is_some_and(|(k, _)| k == "ok") => {
            entries.remove(0);
            Ok(entries)
        }
        _ => Err(format!("captured reply is not an ok envelope: {text}")),
    }
}

fn replay_requests(
    inputs: &Inputs<'_>,
    tracer: &mut Tracer,
    facts: &mut Facts,
) -> Result<(), String> {
    let corpus = inputs.corpus;
    let plan = inputs.plan;
    let mut model = Model {
        corpus,
        live: None,
        version: 0,
        materialized: None,
        scored: HashSet::new(),
        suggested: HashSet::new(),
    };
    if inputs.workload == Workload::WriteMix {
        let path = fresh_copy(inputs, "replay.cks")?;
        model.live = Some(LiveSnapshot::open(&path).map_err(|e| format!("live open: {e}"))?);
    }

    // History before the traced window, untimed: the daemon's state when
    // the window began. Writes commute across connections, so replaying
    // each connection's history in turn reaches the same state.
    for (c, &n) in inputs.sent_before.iter().enumerate() {
        let mut history: Vec<Mutation> = Vec::new();
        // A wrapping stream repeats itself past its end.
        let stream = &plan.streams[c];
        for request in &stream[..n.min(stream.len())] {
            match request {
                Request::ApplyMutations { mutations, .. } => history.extend(mutations),
                Request::ScoreGroup {
                    group, functions, ..
                } => {
                    let digest = set_digest(model.group_set(*group).as_slice());
                    model.scored.insert((digest, functions.len()));
                }
                Request::ScoreSet {
                    members, functions, ..
                } => {
                    model.scored.insert((set_digest(members), functions.len()));
                }
                _ => {}
            }
        }
        if !history.is_empty() {
            model.apply_quietly(&history)?;
        }
    }
    if model.version > 0 {
        // Reads after the last write of the history see a fresh version.
        model.scored.clear();
        model.suggested.clear();
    }

    let mut reply_cursor: HashMap<OpKind, usize> = HashMap::new();
    let discover_config = |seed, min_size, top| DiscoverConfig {
        seed,
        threads: default_threads(),
        min_size,
        max_size: 0,
        top,
    };
    for &(c, index) in inputs.traced.iter().take(MAX_REQUESTS) {
        let request = &plan.streams[c][index];
        let op = OpKind::of(request);
        let replies = inputs
            .replies
            .get(&op)
            .filter(|r| !r.is_empty())
            .ok_or_else(|| format!("no captured {} reply to replay", op.name()))?;
        let k = reply_cursor.entry(op).or_insert(0);
        let fields = reply_fields(&replies[*k % replies.len()])?;
        *k += 1;
        let (op_id, payload) = binary::encode_request(request);

        let root = tracer.open(op.replay_span(), None, request_id(c, index));
        let decoded = tracer.time("serve.ckp1_request_decode", root, || {
            binary::decode_request(op_id, black_box(&payload))
        });
        if decoded.as_ref() != Ok(request) {
            return Err(format!("CKP1 request {index} did not round-trip"));
        }
        match request {
            Request::ScoreSet {
                members, functions, ..
            } => {
                let set = VertexSet::from_vec(members.clone());
                score(&mut model, tracer, root, &set, functions);
            }
            Request::ScoreGroup {
                group, functions, ..
            } => {
                let stale = model.materialized.as_ref().map(|m| m.0) != Some(model.version);
                if let Some(live) = model.live.as_ref().filter(|_| stale) {
                    let graph = tracer.time("live.materialize", root, || live.materialize());
                    let median = tracer.time("scoring.median_degree", root, || {
                        Scorer::new(&graph).median_degree()
                    });
                    model.materialized = Some((model.version, graph, median));
                }
                let set = model.group_set(*group);
                score(&mut model, tracer, root, &set, functions);
            }
            Request::ApplyMutations { mutations, .. } => {
                let live = model.live.as_mut().ok_or("apply outside write_mix")?;
                let before = live.wal_offset();
                let outcome = tracer.time("live.apply", root, || live.apply(black_box(mutations)));
                let outcome = outcome.map_err(|e| format!("replay apply: {e}"))?;
                if outcome.applied != mutations.len() {
                    return Err(format!("replay apply rejected {:?}", outcome.rejected));
                }
                facts.mutations += mutations.len() as u64;
                facts.wal_bytes += live.wal_offset() - before;
                model.version += 1;
                model.scored.clear();
                for m in mutations {
                    if let Mutation::AddEdge { u, v } | Mutation::RemoveEdge { u, v } = *m {
                        for ego in affected_egos(live.base(), live.overlay(), u, v) {
                            model.suggested.remove(&ego);
                        }
                    }
                }
            }
            Request::SuggestCircles {
                ego,
                seed,
                min_size,
                top,
                ..
            } => {
                if model.suggested.insert(*ego) {
                    let view = match &model.live {
                        Some(live) => tracer.time("discover.ego_view", root, || {
                            EgoView::from_overlay(live.base(), live.overlay(), *ego)
                        }),
                        None => tracer.time("discover.ego_view", root, || {
                            EgoView::from_graph(&corpus.graph, *ego)
                        }),
                    };
                    let config = discover_config(*seed, *min_size, *top);
                    let suggestion =
                        tracer.time("discover.suggest", root, || discover(&view, &config));
                    black_box(suggestion);
                }
            }
            _ => return Err(format!("unexpected {} in a workload stream", op.name())),
        }
        let rendered = tracer.time("serve.response_render", root, || ok_payload(fields));
        let encoded = tracer.time("serve.ckp1_response_encode", root, || {
            binary::encode_response_payload(black_box(&rendered))
        })?;
        let back = tracer.time("serve.ckp1_response_decode", root, || {
            binary::decode_response_payload(black_box(&encoded))
        })?;
        tracer.close(root);
        black_box(back);
    }
    Ok(())
}

/// The scoring step of a read: a result-cache probe, then on a miss the
/// `SetStats` kernel and the requested functions.
fn score(
    model: &mut Model<'_>,
    tracer: &mut Tracer,
    root: usize,
    set: &VertexSet,
    functions: &[ScoringFunction],
) {
    if !model
        .scored
        .insert((set_digest(set.as_slice()), functions.len()))
    {
        return;
    }
    let (graph, median) = match &model.materialized {
        Some((_, graph, median)) => (graph, *median),
        None => (&model.corpus.graph, model.corpus.median_degree),
    };
    tracer.time("scoring.stats", root, || {
        let stats = SetStats::compute(graph, black_box(set), median);
        black_box(
            functions
                .iter()
                .map(|f| f.score(&stats))
                .collect::<Vec<f64>>(),
        )
    });
}
