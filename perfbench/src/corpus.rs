//! The benchmark corpus: a synthetic Google+ ego/circle graph, packed
//! into a snapshot file before any clock starts.

use circlekit_graph::{Graph, VertexSet};
use circlekit_scoring::Scorer;
use circlekit_store::{save_cks2_snapshot, save_snapshot, Cks2PackOptions};
use circlekit_synth::presets;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

/// The synthetic preset every workload uses.
pub const PRESET: &str = "google+";

/// Seed of the corpus generator. The corpus is fixed so that runs with
/// different workload seeds measure the same graph; the workload seed
/// drives the request streams.
pub const CORPUS_SEED: u64 = 2014;

/// On-disk snapshot format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Flat CSR sections, loaded zero-copy.
    Cks1,
    /// Delta + varint compressed adjacency.
    Cks2,
}

impl Format {
    /// The `pack --format` name.
    pub fn name(self) -> &'static str {
        match self {
            Format::Cks1 => "cks1",
            Format::Cks2 => "cks2",
        }
    }
}

/// A generated graph with its circles.
#[derive(Debug)]
pub struct Corpus {
    /// Scale factor applied to the preset.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// The directed follower graph.
    pub graph: Graph,
    /// The circles.
    pub groups: Vec<VertexSet>,
    /// Graph-wide median total degree (FOMD's threshold).
    pub median_degree: f64,
}

impl Corpus {
    /// Generates the preset at `scale` from `seed`, exactly as
    /// `circlekit generate google+ --scale S --seed N` does.
    pub fn synthesize(scale: f64, seed: u64) -> Corpus {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = presets::google_plus().scaled(scale).generate(&mut rng);
        let median_degree = Scorer::new(&data.graph).median_degree();
        Corpus {
            scale,
            seed,
            graph: data.graph,
            groups: data.groups,
            median_degree,
        }
    }

    /// Writes the corpus to `path` in `format`; returns the file size.
    ///
    /// # Errors
    ///
    /// A message naming the file when packing fails.
    pub fn pack(&self, format: Format, path: &Path) -> Result<u64, String> {
        match format {
            Format::Cks1 => save_snapshot(path, &self.graph, &self.groups),
            Format::Cks2 => {
                save_cks2_snapshot(path, &self.graph, &self.groups, &Cks2PackOptions::default())
            }
        }
        .map_err(|e| format!("packing {}: {e}", path.display()))
    }

    /// Adjacency entries `SetStats` visits for `set`: each member's out-
    /// and in-arcs.
    pub fn arcs_visited(&self, set: &VertexSet) -> u64 {
        set.iter()
            .map(|v| (self.graph.out_degree(v) + self.graph.in_degree(v)) as u64)
            .sum()
    }
}
