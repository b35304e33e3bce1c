//! The three served workloads and their seeded request streams.
//!
//! Every stream is generated from the workload seed before any clock
//! starts. Connection 0 speaks CKP1 and connection 1 speaks JSON; each
//! has its own stream, drawn from its own seeded generator.

use crate::corpus::{Corpus, Format};
use circlekit_graph::{Graph, NodeId, VertexSet};
use circlekit_live::Mutation;
use circlekit_scoring::ScoringFunction;
use circlekit_serve::binary;
use circlekit_serve::{set_digest, Request};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Snapshot id the daemon derives from the packed file's stem.
pub const SNAPSHOT_ID: &str = "corpus";

/// Connections the load generator opens: one per wire protocol.
pub const CONNECTIONS: usize = 2;

/// Circles `hot_groups` keeps asking about.
pub const HOT_CIRCLES: usize = 4;

/// Circles and egos each `write_mix` connection touches.
pub const TOUCHED: usize = 6;

/// Seed of every `suggest_circles` request (the discover default).
pub const SUGGEST_SEED: u64 = circlekit_discover::DEFAULT_SEED;

/// Pairs a `write_mix` connection toggles around each ego and each
/// touched circle: this many present at the start and this many absent.
const POOL: usize = 8;

/// Out-degree the `write_mix` egos are chosen around: large enough to
/// hold circles, small enough that one discovery stays in milliseconds.
const EGO_TARGET_DEGREE: usize = 40;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `score_group` on a few hot circles: the result cache answers.
    HotGroups,
    /// `score_set` on never-repeating random-walk sets: every request
    /// runs the `SetStats` kernel.
    ColdSets,
    /// About 10% `apply_mutations` among reads of what they touched.
    WriteMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::HotGroups, Workload::ColdSets, Workload::WriteMix];

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotGroups => "hot_groups",
            Workload::ColdSets => "cold_sets",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Corpus scale factor.
    pub fn scale(self) -> f64 {
        match self {
            Workload::HotGroups | Workload::ColdSets => 0.2,
            // Every first read after a write re-materializes the graph,
            // so a smaller corpus lets one run commit hundreds of versions.
            Workload::WriteMix => 0.05,
        }
    }

    /// Format of the served snapshot.
    pub fn format(self) -> Format {
        match self {
            Workload::HotGroups | Workload::WriteMix => Format::Cks1,
            Workload::ColdSets => Format::Cks2,
        }
    }

    /// Whether a stream may be replayed from its start when it runs out
    /// (only when repeating requests is the point of the workload).
    pub fn wraps(self) -> bool {
        self == Workload::HotGroups
    }
}

/// The ops the load generator sends and times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// `score_group`.
    ScoreGroup,
    /// `score_set`.
    ScoreSet,
    /// `suggest_circles`.
    SuggestCircles,
    /// `apply_mutations`.
    ApplyMutations,
    /// `health`.
    Health,
}

impl OpKind {
    /// The ops that carry workload traffic.
    pub const MEASURED: [OpKind; 4] = [
        OpKind::ScoreGroup,
        OpKind::ScoreSet,
        OpKind::SuggestCircles,
        OpKind::ApplyMutations,
    ];

    /// Wire name of the op.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::ScoreGroup => "score_group",
            OpKind::ScoreSet => "score_set",
            OpKind::SuggestCircles => "suggest_circles",
            OpKind::ApplyMutations => "apply_mutations",
            OpKind::Health => "health",
        }
    }

    /// Name of the client span around one call of this op.
    pub fn client_span(self) -> &'static str {
        match self {
            OpKind::ScoreGroup => "client.score_group",
            OpKind::ScoreSet => "client.score_set",
            OpKind::SuggestCircles => "client.suggest_circles",
            OpKind::ApplyMutations => "client.apply_mutations",
            OpKind::Health => "client.health",
        }
    }

    /// Name of the replay span that re-runs one request of this op.
    pub fn replay_span(self) -> &'static str {
        match self {
            OpKind::ScoreGroup => "replay.score_group",
            OpKind::ScoreSet => "replay.score_set",
            OpKind::SuggestCircles => "replay.suggest_circles",
            OpKind::ApplyMutations => "replay.apply_mutations",
            OpKind::Health => "replay.health",
        }
    }

    /// The op of a request.
    pub fn of(request: &Request) -> OpKind {
        match request {
            Request::ScoreGroup { .. } => OpKind::ScoreGroup,
            Request::ScoreSet { .. } => OpKind::ScoreSet,
            Request::SuggestCircles { .. } => OpKind::SuggestCircles,
            Request::ApplyMutations { .. } => OpKind::ApplyMutations,
            _ => OpKind::Health,
        }
    }
}

/// Wire protocol of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// CKP1 binary frames.
    Ckp1,
    /// Length-prefixed JSON.
    Json,
}

impl Proto {
    /// The protocol of connection `conn`.
    pub fn of_connection(conn: usize) -> Proto {
        if conn == 0 {
            Proto::Ckp1
        } else {
            Proto::Json
        }
    }

    /// Short name.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Ckp1 => "ckp1",
            Proto::Json => "json",
        }
    }
}

/// Encodes a request as one complete frame of `proto`.
pub fn encode(request: &Request, proto: Proto) -> Vec<u8> {
    match proto {
        Proto::Ckp1 => {
            let (op, payload) = binary::encode_request(request);
            binary::encode_frame(binary::KIND_REQUEST, op, &payload)
        }
        Proto::Json => {
            let text = binary::encode_request_json(request);
            let mut frame = (text.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(text.as_bytes());
            frame
        }
    }
}

/// The generated requests of one run. Streams grow on demand
/// ([`Plan::extend`]): each connection's generator keeps its state, so a
/// stream is a fixed sequence for a given seed, however far it is drawn.
#[derive(Debug)]
pub struct Plan {
    /// One request stream per connection.
    pub streams: Vec<Vec<Request>>,
    /// The same streams encoded in their connection's protocol.
    pub frames: Vec<Vec<Vec<u8>>>,
    /// The op of every request.
    pub ops: Vec<Vec<OpKind>>,
    /// The circles the reads ask about (hot circles, or the circles the
    /// writes touch).
    pub circles: Vec<usize>,
    generators: Vec<Generator>,
}

impl Plan {
    /// Appends `n` requests to connection `conn`'s stream.
    pub fn extend(&mut self, corpus: &Corpus, conn: usize, n: usize) {
        let proto = Proto::of_connection(conn);
        for _ in 0..n {
            let request = self.generators[conn].next(corpus, &self.circles);
            self.frames[conn].push(encode(&request, proto));
            self.ops[conn].push(OpKind::of(&request));
            self.streams[conn].push(request);
        }
    }
}

/// Per-connection generator seed.
fn connection_seed(seed: u64, conn: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Generates the first `per_connection` requests of each connection.
pub fn plan(workload: Workload, corpus: &Corpus, seed: u64, per_connection: usize) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut circles: Vec<usize> = (0..corpus.groups.len()).collect();
    let circles = match workload {
        Workload::HotGroups => {
            circles.shuffle(&mut rng);
            circles.truncate(HOT_CIRCLES);
            circles
        }
        Workload::ColdSets => Vec::new(),
        Workload::WriteMix => {
            // One circle from each sixth of the circles ordered by size,
            // so every seed reads and writes circles of every size and
            // the seed moves the figures little.
            circles.sort_by_key(|&g| (corpus.groups[g].len(), g));
            (0..TOUCHED)
                .map(|k| {
                    let stratum = k * circles.len() / TOUCHED..(k + 1) * circles.len() / TOUCHED;
                    circles[rng.gen_range(stratum)]
                })
                .collect()
        }
    };
    let generators: Vec<Generator> = (0..CONNECTIONS)
        .map(|conn| {
            let mut rng = SmallRng::seed_from_u64(connection_seed(seed, conn));
            let kind = match workload {
                Workload::HotGroups => Kind::Hot,
                Workload::ColdSets => Kind::Cold {
                    sizes: corpus.groups.iter().map(VertexSet::len).collect(),
                    seen: HashSet::new(),
                },
                Workload::WriteMix => {
                    let egos = write_mix_egos(corpus, conn, &mut rng);
                    Kind::Mix(Mix {
                        edges: edge_pool(&corpus.graph, &egos, &mut rng),
                        members: member_pool(corpus, &circles, conn, &mut rng),
                        egos,
                        toggles: Toggles::default(),
                        block: MIX_BLOCK,
                    })
                }
            };
            Generator {
                conn,
                rng,
                made: 0,
                kind,
            }
        })
        .collect();
    let mut plan = Plan {
        streams: vec![Vec::new(); CONNECTIONS],
        frames: vec![Vec::new(); CONNECTIONS],
        ops: vec![Vec::new(); CONNECTIONS],
        circles,
        generators,
    };
    for conn in 0..CONNECTIONS {
        plan.extend(corpus, conn, per_connection);
    }
    plan
}

/// One connection's request generator.
#[derive(Debug)]
struct Generator {
    conn: usize,
    rng: SmallRng,
    /// Requests generated so far.
    made: usize,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    /// `hot_groups`: `score_group` on the hot circles, alternating the
    /// default function spec and `all`.
    Hot,
    /// `cold_sets`: `score_set` with all functions on random-walk sets
    /// whose sizes are drawn from the circle sizes.
    Cold {
        sizes: Vec<usize>,
        /// Digests of the sets already sent on this connection.
        seen: HashSet<u64>,
    },
    /// `write_mix`, see [`Mix::next`].
    Mix(Mix),
}

/// One `write_mix` connection's generator state.
#[derive(Debug)]
struct Mix {
    egos: Vec<NodeId>,
    /// The edges this connection toggles, see [`edge_pool`].
    edges: Vec<(NodeId, NodeId)>,
    /// The memberships this connection toggles, see [`member_pool`].
    members: Vec<(usize, NodeId)>,
    toggles: Toggles,
    /// The ops of the current block of ten, in shuffled order.
    block: [MixOp; 10],
}

impl Generator {
    fn next(&mut self, corpus: &Corpus, circles: &[usize]) -> Request {
        let i = self.made;
        self.made += 1;
        let rng = &mut self.rng;
        let snapshot = SNAPSHOT_ID.to_string();
        match &mut self.kind {
            Kind::Hot => Request::ScoreGroup {
                snapshot,
                group: circles[rng.gen_range(0..circles.len())],
                functions: if i.is_multiple_of(2) {
                    ScoringFunction::PAPER.to_vec()
                } else {
                    ScoringFunction::ALL.to_vec()
                },
                deadline_ms: None,
            },
            Kind::Cold { sizes, seen } => loop {
                let size = sizes[rng.gen_range(0..sizes.len())];
                let set = walk_set(&corpus.graph, size, rng);
                let digest = set_digest(set.as_slice());
                // Never repeat a set, so the result cache never answers:
                // a connection only sends the sets whose digest falls to
                // it, and each set once.
                if digest % CONNECTIONS as u64 == self.conn as u64 && seen.insert(digest) {
                    break Request::ScoreSet {
                        snapshot,
                        members: set.as_slice().to_vec(),
                        functions: ScoringFunction::ALL.to_vec(),
                        deadline_ms: None,
                    };
                }
            },
            Kind::Mix(mix) => mix.next(corpus, circles, i, rng),
        }
    }
}

impl Mix {
    /// Request `i` of the stream: in every ten requests, one
    /// `apply_mutations` batch (two edge toggles on the connection's
    /// egos, two membership toggles on the touched circles, each pair
    /// drawn from the connection's pools), six `score_group` on the
    /// touched circles and three `suggest_circles` on the touched egos,
    /// in an order drawn afresh for each block. (In a fixed order, the
    /// two connections' cycles fall into step with each other in ways
    /// that last a whole run, and which reads pay for the other
    /// connection's writes changed from run to run.)
    ///
    /// Connection `c` only toggles edges leaving its own egos and
    /// memberships of nodes `≡ c (mod 2)`, so the two connections' writes
    /// commute: the final graph does not depend on how they interleave.
    fn next(
        &mut self,
        corpus: &Corpus,
        circles: &[usize],
        i: usize,
        rng: &mut SmallRng,
    ) -> Request {
        if i.is_multiple_of(MIX_BLOCK.len()) {
            self.block = MIX_BLOCK;
            self.block.shuffle(rng);
        }
        let snapshot = SNAPSHOT_ID.to_string();
        match self.block[i % MIX_BLOCK.len()] {
            MixOp::Write => {
                let mut batch = Vec::with_capacity(4);
                for &(u, v) in self.edges.choose_multiple(rng, 2) {
                    batch.push(self.toggles.edge(&corpus.graph, u, v));
                }
                for &(group, node) in self.members.choose_multiple(rng, 2) {
                    batch.push(self.toggles.member(&corpus.groups, group, node));
                }
                Request::ApplyMutations {
                    snapshot,
                    mutations: batch,
                }
            }
            MixOp::Score => Request::ScoreGroup {
                snapshot,
                group: circles[rng.gen_range(0..circles.len())],
                functions: ScoringFunction::PAPER.to_vec(),
                deadline_ms: None,
            },
            MixOp::Suggest => Request::SuggestCircles {
                snapshot,
                ego: self.egos[rng.gen_range(0..self.egos.len())],
                seed: SUGGEST_SEED,
                min_size: circlekit_discover::DEFAULT_MIN_SIZE,
                top: circlekit_discover::DEFAULT_TOP,
            },
        }
    }
}

/// The kinds of `write_mix` request.
#[derive(Clone, Copy, Debug)]
enum MixOp {
    Write,
    Score,
    Suggest,
}

/// One block of ten `write_mix` requests, before shuffling.
const MIX_BLOCK: [MixOp; 10] = [
    MixOp::Write,
    MixOp::Score,
    MixOp::Score,
    MixOp::Score,
    MixOp::Score,
    MixOp::Score,
    MixOp::Score,
    MixOp::Suggest,
    MixOp::Suggest,
    MixOp::Suggest,
];

/// The egos `write_mix` connection `conn` writes around and asks about:
/// nodes of its parity whose out-degree is near [`EGO_TARGET_DEGREE`].
fn write_mix_egos(corpus: &Corpus, conn: usize, rng: &mut SmallRng) -> Vec<NodeId> {
    let graph = &corpus.graph;
    let mut candidates: Vec<NodeId> = (0..graph.node_count() as NodeId)
        .filter(|&v| v as usize % CONNECTIONS == conn && graph.out_degree(v) >= 8)
        .collect();
    candidates.sort_by_key(|&v| (graph.out_degree(v).abs_diff(EGO_TARGET_DEGREE), v));
    candidates.truncate(4 * TOUCHED);
    candidates.shuffle(rng);
    candidates.truncate(TOUCHED);
    candidates
}

/// The edges `write_mix` connection toggles: for each of its `egos`, up
/// to [`POOL`] of its out-edges and [`POOL`] absent edges to other nodes.
/// Pairs drawn afresh for every toggle would mostly be absent edges, so
/// the egos' degrees, and with them the cost of every read, would grow
/// through a run and grow faster on a faster daemon. Toggling a fixed
/// pool, half present at the start, keeps each degree fluctuating
/// around where it started.
fn edge_pool(graph: &Graph, egos: &[NodeId], rng: &mut SmallRng) -> Vec<(NodeId, NodeId)> {
    let n = graph.node_count() as NodeId;
    let mut pool = Vec::with_capacity(2 * POOL * egos.len());
    for &u in egos {
        let out = graph.out_neighbors(u);
        pool.extend(out.choose_multiple(rng, POOL).map(|&v| (u, v)));
        let mut absent: Vec<NodeId> = Vec::with_capacity(POOL);
        while absent.len() < POOL {
            let v = rng.gen_range(0..n);
            if v != u && !graph.has_edge(u, v) && !absent.contains(&v) {
                absent.push(v);
            }
        }
        pool.extend(absent.into_iter().map(|v| (u, v)));
    }
    pool
}

/// The memberships `write_mix` connection `conn` toggles: for each
/// touched circle, up to [`POOL`] of its members and [`POOL`] other
/// nodes, all `≡ conn (mod 2)`. A fixed pool keeps the circles' sizes
/// fluctuating around where they started, as in [`edge_pool`].
fn member_pool(
    corpus: &Corpus,
    circles: &[usize],
    conn: usize,
    rng: &mut SmallRng,
) -> Vec<(usize, NodeId)> {
    let n = corpus.graph.node_count() as NodeId;
    let mut pool = Vec::with_capacity(2 * POOL * circles.len());
    for &group in circles {
        let circle = &corpus.groups[group];
        let ours: Vec<NodeId> = circle
            .as_slice()
            .iter()
            .copied()
            .filter(|&v| v as usize % CONNECTIONS == conn)
            .collect();
        pool.extend(ours.choose_multiple(rng, POOL).map(|&v| (group, v)));
        let mut absent: Vec<NodeId> = Vec::with_capacity(POOL);
        while absent.len() < POOL {
            let v = rng.gen_range(0..n);
            if v as usize % CONNECTIONS == conn && !circle.contains(v) && !absent.contains(&v) {
                absent.push(v);
            }
        }
        pool.extend(absent.into_iter().map(|v| (group, v)));
    }
    pool
}

/// Tries at drawing a fresh neighbour by rejection before
/// [`walk_set`] lists the fresh neighbours instead.
const REJECTION_TRIES: usize = 16;

/// A random-walk set of `size` vertices by the paper's baseline procedure
/// (the one `circlekit_sampling::random_walk_set` implements): step to a
/// neighbour of either orientation, chosen uniformly among those not yet
/// in the set, and restart at a uniformly random vertex outside the set
/// when there is none.
///
/// The sets follow the same distribution as `random_walk_set`'s, drawn
/// differently: the next step is first drawn by rejection, and the fresh
/// neighbours are listed only when [`REJECTION_TRIES`] draws fail; a
/// restart is drawn by rejection instead of from a shuffled order of
/// every vertex. On google+ at scale 0.2 that takes about 10 µs a set
/// against about 850 µs, which is what lets tens of thousands of sets be
/// generated before the clock starts.
pub fn walk_set(graph: &Graph, size: usize, rng: &mut SmallRng) -> VertexSet {
    let n = graph.node_count() as NodeId;
    let size = size.min(n as usize);
    let mut members: Vec<NodeId> = Vec::with_capacity(size);
    if size == 0 {
        return VertexSet::new();
    }
    let fresh_vertex = |members: &[NodeId], rng: &mut SmallRng| loop {
        let v = rng.gen_range(0..n);
        if !members.contains(&v) {
            break v;
        }
    };
    let mut current = fresh_vertex(&members, rng);
    members.push(current);
    while members.len() < size {
        let out = graph.out_neighbors(current);
        // In-neighbours of a directed graph that are not also
        // out-neighbours, so each neighbour has exactly one slot.
        let inn = if graph.is_directed() {
            graph.in_neighbors(current)
        } else {
            &[]
        };
        let slot = |i: usize| {
            if i < out.len() {
                Some(out[i])
            } else {
                let v = inn[i - out.len()];
                out.binary_search(&v).is_err().then_some(v)
            }
        };
        let slots = out.len() + inn.len();
        let next = if slots == 0 {
            None
        } else {
            (0..REJECTION_TRIES)
                .find_map(|_| slot(rng.gen_range(0..slots)).filter(|v| !members.contains(v)))
                .or_else(|| {
                    let fresh: Vec<NodeId> = (0..slots)
                        .filter_map(slot)
                        .filter(|v| !members.contains(v))
                        .collect();
                    fresh.choose(rng).copied()
                })
        };
        current = match next {
            Some(v) => v,
            None => fresh_vertex(&members, rng),
        };
        members.push(current);
    }
    VertexSet::from_vec(members)
}

/// Toggle state of the edges and memberships one connection has touched.
#[derive(Debug, Default)]
struct Toggles {
    edges: HashMap<(NodeId, NodeId), bool>,
    members: HashMap<(usize, NodeId), bool>,
}

impl Toggles {
    fn edge(&mut self, graph: &Graph, u: NodeId, v: NodeId) -> Mutation {
        let present = self
            .edges
            .entry((u, v))
            .or_insert_with(|| graph.has_edge(u, v));
        *present = !*present;
        if *present {
            Mutation::AddEdge { u, v }
        } else {
            Mutation::RemoveEdge { u, v }
        }
    }

    fn member(&mut self, groups: &[VertexSet], group: usize, node: NodeId) -> Mutation {
        let present = self
            .members
            .entry((group, node))
            .or_insert_with(|| groups[group].contains(node));
        *present = !*present;
        let group = group as u32;
        if *present {
            Mutation::AddMember { group, node }
        } else {
            Mutation::RemoveMember { group, node }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(plan: &Plan) -> Vec<u8> {
        plan.frames.concat().concat()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let corpus = Corpus::synthesize(0.01, 7);
        for workload in Workload::ALL {
            let a = stream_bytes(&plan(workload, &corpus, 11, 60));
            let b = stream_bytes(&plan(workload, &corpus, 11, 60));
            let c = stream_bytes(&plan(workload, &corpus, 12, 60));
            assert_eq!(
                a,
                b,
                "{}: same seed must give the same stream",
                workload.name()
            );
            assert_ne!(
                a,
                c,
                "{}: another seed must give another stream",
                workload.name()
            );
        }
    }

    #[test]
    fn a_stream_drawn_in_parts_is_the_stream_drawn_at_once() {
        let corpus = Corpus::synthesize(0.01, 7);
        for workload in Workload::ALL {
            let whole = plan(workload, &corpus, 5, 90);
            let mut parts = plan(workload, &corpus, 5, 20);
            for conn in 0..CONNECTIONS {
                parts.extend(&corpus, conn, 30);
                parts.extend(&corpus, conn, 40);
            }
            assert_eq!(
                stream_bytes(&whole),
                stream_bytes(&parts),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn a_walk_restarts_only_when_no_fresh_neighbour_is_left() {
        // Two disjoint 40-cliques: a walk that starts in one takes the
        // whole of it before it has to restart, so a 40-vertex set is one
        // clique exactly. Near the end most neighbours are taken, so the
        // rejection draws fail and the listing of fresh neighbours decides.
        let k = 40u32;
        let edges = (0..2 * k).flat_map(|u| {
            let base = u / k * k;
            (base..base + k)
                .filter(move |&v| v != u)
                .map(move |v| (u, v))
        });
        let graph = Graph::from_edges(true, edges);
        for seed in 0..50 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let set = walk_set(&graph, k as usize, &mut rng);
            let first = set.as_slice()[0];
            let clique: Vec<NodeId> = (first..first + k).collect();
            assert_eq!(set.as_slice(), &clique[..], "seed {seed}");
        }
    }

    #[test]
    fn cold_sets_never_repeat_and_write_mix_applies_cleanly() {
        let corpus = Corpus::synthesize(0.01, 7);
        let cold = plan(Workload::ColdSets, &corpus, 3, 200);
        let mut digests = HashSet::new();
        // Across connections too: the cache is shared.
        for request in cold.streams.concat() {
            let Request::ScoreSet { members, .. } = request else {
                panic!("score_set only")
            };
            assert!(digests.insert(set_digest(&members)));
        }

        // Whatever order the connections' batches land in, every
        // mutation applies.
        let mix = plan(Workload::WriteMix, &corpus, 3, 400);
        let batches = |c: usize| -> Vec<Vec<Mutation>> {
            mix.streams[c]
                .iter()
                .filter_map(|r| match r {
                    Request::ApplyMutations { mutations, .. } => Some(mutations.clone()),
                    _ => None,
                })
                .collect()
        };
        let (a, b) = (batches(0), batches(1));
        assert_eq!(a.len(), 40);
        let mut live =
            circlekit_live::LiveSnapshot::in_memory(corpus.graph.clone(), corpus.groups.clone());
        for (x, y) in a.iter().zip(&b) {
            for batch in [y, x] {
                let outcome = live.apply(batch).expect("in-memory apply");
                assert_eq!(outcome.applied, batch.len(), "{:?}", outcome.rejected);
            }
        }
    }

    #[test]
    fn write_mix_keeps_degrees_and_circle_sizes_near_their_start() {
        let corpus = Corpus::synthesize(0.01, 7);
        let mix = plan(Workload::WriteMix, &corpus, 5, 4_000);
        let mut degree: HashMap<NodeId, i64> = HashMap::new();
        let mut size: HashMap<u32, i64> = HashMap::new();
        let mut writes = 0;
        for request in &mix.streams[0] {
            let Request::ApplyMutations { mutations, .. } = request else {
                continue;
            };
            writes += 1;
            for m in mutations {
                match *m {
                    Mutation::AddEdge { u, .. } => *degree.entry(u).or_default() += 1,
                    Mutation::RemoveEdge { u, .. } => *degree.entry(u).or_default() -= 1,
                    Mutation::AddMember { group, .. } => *size.entry(group).or_default() += 1,
                    Mutation::RemoveMember { group, .. } => *size.entry(group).or_default() -= 1,
                    ref other => panic!("write_mix does not send {other:?}"),
                }
            }
        }
        // 400 batches of two edge and two membership toggles over six
        // egos and six circles: without the pools the drift would be in
        // the tens.
        assert_eq!(writes, 400);
        for change in degree.values().chain(size.values()) {
            assert!(
                change.unsigned_abs() as usize <= POOL,
                "drifted by {change}"
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("paged_scan"), None);
    }
}
