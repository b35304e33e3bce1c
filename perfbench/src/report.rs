//! Metric names, units and the arithmetic that turns a run's samples,
//! counters and spans into them; the result line.

use crate::load::{CpuTicks, Sample};
use crate::percentile::{median, percentile, sorted, supported_tail};
use crate::replay::Facts;
use crate::trace::{self_time_by_layer, Span};
use crate::workload::{OpKind, Workload};
use circlekit_serve::protocol::wire;
use serde_json::Value;

/// End-to-end metrics, reported by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("net.health_rtt_us", "us"),
    ("serve.ckp1_request_decode_ns", "ns"),
    ("serve.response_render_ns", "ns"),
    ("serve.ckp1_response_encode_ns", "ns"),
    ("serve.ckp1_response_decode_ns", "ns"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_invalidations", "count"),
    ("serve.batches", "count"),
    ("serve.batch_mean", "jobs"),
    ("serve.queue_depth_max", "count"),
    ("serve.overloaded", "count"),
    ("serve.mutations_applied", "count"),
    ("serve.ckp1.p50_us", "us"),
    ("serve.json.p50_us", "us"),
    ("serve.score_group.p50_us", "us"),
    ("serve.score_group.p99_us", "us"),
    ("serve.score_set.p50_us", "us"),
    ("serve.score_set.p99_us", "us"),
    ("serve.suggest_circles.p50_us", "us"),
    ("serve.suggest_circles.p99_us", "us"),
    ("serve.apply_mutations.p50_us", "us"),
    ("serve.apply_mutations.p99_us", "us"),
    ("serve.residual_us", "us"),
    ("scoring.stats_us", "us"),
    ("scoring.stats_ns_per_arc", "ns"),
    ("scoring.paged_stats_ns_per_arc", "ns"),
    ("scoring.paged_over_csr", "ratio"),
    ("scoring.median_degree_ms", "ms"),
    ("store.cks1_load_ms", "ms"),
    ("store.cks2_load_ms", "ms"),
    ("store.bytes_per_arc", "bytes"),
    ("live.open_ms", "ms"),
    ("live.apply_us", "us"),
    ("live.wal_bytes_per_mutation", "bytes"),
    ("live.materialize_ms", "ms"),
    ("discover.ego_view_us", "us"),
    ("discover.suggest_us", "us"),
    ("trace.serve.self_us", "us"),
    ("trace.scoring.self_us", "us"),
    ("trace.live.self_us", "us"),
    ("trace.discover.self_us", "us"),
    ("trace.replay.self_us", "us"),
    ("trace.replayed_requests", "count"),
    ("trace.client_spans", "count"),
    ("trace.overhead_ops_per_s_pct", "%"),
    ("trace.overhead_lat_p50_pct", "%"),
    ("trace.overhead_lat_p99_pct", "%"),
    ("trace.window_samples", "count"),
];

/// Named values in table order.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets `name`, which must be in the table.
    ///
    /// # Panics
    ///
    /// On a name outside the table (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = Some(value);
    }

    /// Renders the result line. Unset metrics read 0; a non-finite value
    /// is an error.
    ///
    /// # Errors
    ///
    /// The name of a metric that is not a finite number.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.table.len());
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            let value = value.unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self) -> String {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| format!("  {name:<34} {:>14.3} {unit}\n", v.unwrap_or(0.0)))
            .collect()
    }
}

/// Throughput and latency over a stretch of a window.
#[derive(Clone, Copy, Debug)]
pub struct Figures {
    /// Successful replies per second.
    pub ops_per_s: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// The quantile `p99_us` reports (0.99 unless the sample is too small).
    pub p99_quantile: f64,
    /// Latency samples.
    pub samples: usize,
    /// Seconds covered.
    pub seconds: f64,
}

/// Least number of samples in one part of a window: enough for a p99
/// with ten samples beyond it.
pub const MIN_SAMPLES: usize = 1_000;

/// Most parts a window is cut into.
pub const MAX_PARTS: usize = 10;

/// Steal share by which a kept part may exceed the least-stolen part:
/// two ticks of `/proc/stat` in a two-second part on two CPUs.
pub const STEAL_TOLERANCE: f64 = 0.005;

/// Throughput and latency of one measured window.
///
/// The whole window is cut into consecutive parts of equal length, as
/// many as hold [`MIN_SAMPLES`] samples each on average, at most
/// [`MAX_PARTS`] and at least one. At the ends of each part the load
/// generator has read the machine's CPU steal from `/proc/stat` (time
/// the hypervisor kept this machine's vCPUs waiting for a host CPU).
/// The parts whose steal share exceeds the least-stolen part's by more
/// than [`STEAL_TOLERANCE`] are left out; the rest, all of them when no
/// steal was measured, are kept whatever they measured. Each figure
/// reported is the median of that figure over the kept parts, so a
/// slowdown of the program's own, which recurs in every part, moves it
/// fully.
#[derive(Clone, Debug)]
pub struct WindowSummary {
    /// What the metrics report: medians over the kept parts of ops, p50
    /// and p99; the kept parts' samples and seconds; the least
    /// `p99_quantile` of any kept part.
    pub reported: Figures,
    /// The whole window pooled, for the provenance line.
    pub whole: Figures,
    /// Parts the window was cut into.
    pub parts: usize,
    /// Parts kept.
    pub kept: usize,
    /// Every part as `(steal share, figures)`, for the provenance line.
    pub each: Vec<(f64, Figures)>,
    /// Steal share of the whole window and of the kept parts, for the
    /// provenance line.
    pub steal: (f64, f64),
}

/// One slice of a window.
#[derive(Debug, Default)]
struct Slice {
    start_ns: u64,
    end_ns: u64,
    latencies_us: Vec<f64>,
}

fn figures(slices: &[Slice]) -> Option<Figures> {
    let lat = sorted(
        slices
            .iter()
            .flat_map(|s| s.latencies_us.iter().copied())
            .collect(),
    );
    let p50_us = percentile(&lat, 0.5)?;
    let (p99_quantile, p99_us) = supported_tail(&lat, 0.99)?;
    let seconds = slices
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum::<f64>();
    Some(Figures {
        ops_per_s: lat.len() as f64 / seconds,
        p50_us,
        p99_us,
        p99_quantile,
        samples: lat.len(),
        seconds,
    })
}

/// Steal share between two readings of the CPU ticks.
fn steal_share(from: CpuTicks, to: CpuTicks) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        0.0
    } else {
        to.steal.saturating_sub(from.steal) as f64 / total as f64
    }
}

/// Summarizes a window from its `samples` and the slice boundaries
/// `marks` recorded during it (see [`crate::load::ConnRun::marks`]).
///
/// # Errors
///
/// When the window has no slice or a part has too few samples for a
/// median and a tail.
pub fn summarize(samples: &[Sample], marks: &[(u64, CpuTicks)]) -> Result<WindowSummary, String> {
    let mut slices: Vec<Slice> = marks
        .windows(2)
        .map(|w| Slice {
            start_ns: w[0].0,
            end_ns: w[1].0,
            latencies_us: Vec::new(),
        })
        .collect();
    if slices.is_empty() {
        return Err("window has no slice".to_string());
    }
    for s in samples {
        let i = slices
            .partition_point(|slice| slice.end_ns <= s.start_ns)
            .min(slices.len() - 1);
        slices[i].latencies_us.push(s.latency_ns as f64 / 1e3);
    }
    let too_few = || format!("window has only {} samples", samples.len());
    let whole = figures(&slices).ok_or_else(too_few)?;
    let parts = (whole.samples / MIN_SAMPLES).clamp(1, MAX_PARTS.min(slices.len()));
    let cuts: Vec<usize> = (0..=parts).map(|k| k * slices.len() / parts).collect();
    let each = cuts
        .windows(2)
        .map(|c| {
            let f = figures(&slices[c[0]..c[1]])?;
            Some((steal_share(marks[c[0]].1, marks[c[1]].1), f))
        })
        .collect::<Option<Vec<(f64, Figures)>>>()
        .ok_or_else(too_few)?;
    let limit = each.iter().map(|p| p.0).fold(1.0, f64::min) + STEAL_TOLERANCE;
    let kept: Vec<&(f64, Figures)> = each.iter().filter(|p| p.0 <= limit).collect();
    let mid = |f: fn(&Figures) -> f64| {
        median(&kept.iter().map(|p| f(&p.1)).collect::<Vec<_>>()).expect("a part is kept")
    };
    let sum = |f: fn(&Figures) -> f64| kept.iter().map(|p| f(&p.1)).sum::<f64>();
    let reported = Figures {
        ops_per_s: mid(|f| f.ops_per_s),
        p50_us: mid(|f| f.p50_us),
        p99_us: mid(|f| f.p99_us),
        p99_quantile: kept.iter().map(|p| p.1.p99_quantile).fold(1.0, f64::min),
        samples: sum(|f| f.samples as f64) as usize,
        seconds: sum(|f| f.seconds),
    };
    let steal = (
        steal_share(marks[0].1, marks[marks.len() - 1].1),
        kept.iter().map(|p| p.0 * p.1.seconds).sum::<f64>() / reported.seconds,
    );
    Ok(WindowSummary {
        reported,
        whole,
        parts,
        kept: kept.len(),
        steal,
        each,
    })
}

/// A counter's growth between two `stats` replies.
pub fn delta(before: &Value, after: &Value, key: &str) -> Result<u64, String> {
    let get = |v: &Value| wire::get_u64(v, key).map_err(|(_, m)| m);
    Ok(get(after)?.saturating_sub(get(before)?))
}

/// Median duration of the spans named `name` whose parent is named
/// `parent`, in nanoseconds.
fn median_ns(spans: &[Span], name: &str, parent: Option<&str>) -> Option<f64> {
    let d = sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| parent.is_none_or(|p| s.parent.is_some_and(|i| spans[i].name == p)))
            .map(|s| s.duration_ns() as f64)
            .collect(),
    );
    crate::percentile::median(&d)
}

fn p50_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Option<f64> {
    let d = sorted(spans.map(|s| s.duration_ns() as f64 / 1e3).collect());
    percentile(&d, 0.5)
}

fn tail_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Option<f64> {
    let d = sorted(spans.map(|s| s.duration_ns() as f64 / 1e3).collect());
    supported_tail(&d, 0.99).map(|(_, v)| v)
}

/// The op whose latency `serve.residual_us` explains.
fn primary_op(workload: Workload) -> OpKind {
    match workload {
        Workload::ColdSets => OpKind::ScoreSet,
        Workload::HotGroups | Workload::WriteMix => OpKind::ScoreGroup,
    }
}

/// Everything the traced run measured.
#[derive(Debug)]
pub struct Traced<'a> {
    /// The workload.
    pub workload: Workload,
    /// Reported figures of the untraced window of the same run.
    pub plain: Figures,
    /// Reported figures of the traced window.
    pub traced: Figures,
    /// `stats` replies before and after the traced window.
    pub stats: (&'a Value, &'a Value),
    /// Client spans of the traced window and of the health probes, then
    /// the replay's spans.
    pub spans: &'a [Span],
    /// Counts the replay measured.
    pub facts: &'a Facts,
    /// Directed arcs of the corpus.
    pub arcs: u64,
}

/// Computes every per-layer metric.
///
/// # Errors
///
/// A message when a `stats` counter is missing.
pub fn per_layer(t: &Traced<'_>) -> Result<Metrics, String> {
    let mut m = Metrics::new(&PER_LAYER);
    let spans = t.spans;
    let client = |op: OpKind| spans.iter().filter(move |s| s.name == op.client_span());
    let on_conn = |conn: u64| {
        spans.iter().filter(move |s| {
            s.layer() == "client" && s.name != "client.health" && s.request >> 40 == conn
        })
    };

    if let Some(v) = p50_us(client(OpKind::Health)) {
        m.set("net.health_rtt_us", v);
    }
    for (metric, span) in [
        ("serve.ckp1_request_decode_ns", "serve.ckp1_request_decode"),
        ("serve.response_render_ns", "serve.response_render"),
        (
            "serve.ckp1_response_encode_ns",
            "serve.ckp1_response_encode",
        ),
        (
            "serve.ckp1_response_decode_ns",
            "serve.ckp1_response_decode",
        ),
    ] {
        if let Some(v) = median_ns(spans, span, None) {
            m.set(metric, v);
        }
    }

    let (before, after) = t.stats;
    let d = |key: &str| delta(before, after, key);
    let (hits, misses) = (d("cache_hits")?, d("cache_misses")?);
    if hits + misses > 0 {
        m.set(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    m.set("serve.cache_hits", hits as f64);
    m.set("serve.cache_misses", misses as f64);
    m.set(
        "serve.cache_invalidations",
        d("cache_invalidations")? as f64,
    );
    let batches = d("batches")?;
    m.set("serve.batches", batches as f64);
    if batches > 0 {
        m.set(
            "serve.batch_mean",
            d("batched_jobs")? as f64 / batches as f64,
        );
    }
    let high_water = wire::get_u64(after, "queue_depth_max").map_err(|(_, e)| e)?;
    m.set("serve.queue_depth_max", high_water as f64);
    m.set("serve.overloaded", d("overloaded")? as f64);
    m.set("serve.mutations_applied", d("mutations_applied")? as f64);

    for (metric, conn) in [("serve.ckp1.p50_us", 0), ("serve.json.p50_us", 1)] {
        if let Some(v) = p50_us(on_conn(conn)) {
            m.set(metric, v);
        }
    }
    for op in OpKind::MEASURED {
        if let Some(v) = p50_us(client(op)) {
            m.set(&format!("serve.{}.p50_us", op.name()), v);
        }
        if let Some(v) = tail_us(client(op)) {
            m.set(&format!("serve.{}.p99_us", op.name()), v);
        }
    }

    // What the replayed layers do not explain of the primary op's CKP1
    // latency: queueing, dispatch and socket time.
    let op = primary_op(t.workload);
    let ckp1_p50 = p50_us(client(op).filter(|s| s.request >> 40 == 0));
    let mut work = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            work[p] += s.duration_ns();
        }
    }
    let replay_work = sorted(
        spans
            .iter()
            .zip(&work)
            .filter(|(s, _)| s.name == op.replay_span())
            .map(|(_, &w)| w as f64 / 1e3)
            .collect(),
    );
    if let (Some(client_p50), Some(layers)) = (ckp1_p50, crate::percentile::median(&replay_work)) {
        m.set("serve.residual_us", client_p50 - layers);
    }

    let kernel = Some("replay.kernel");
    if let Some(v) = median_ns(spans, "scoring.stats", kernel) {
        m.set("scoring.stats_us", v / 1e3);
    }
    let f = t.facts;
    if f.kernel_arcs > 0 {
        m.set(
            "scoring.stats_ns_per_arc",
            f.kernel_ns as f64 / f.kernel_arcs as f64,
        );
        m.set(
            "scoring.paged_stats_ns_per_arc",
            f.paged_ns as f64 / f.kernel_arcs as f64,
        );
    }
    if f.kernel_ns > 0 {
        m.set(
            "scoring.paged_over_csr",
            f.paged_ns as f64 / f.kernel_ns as f64,
        );
    }
    let setup = Some("replay.setup");
    for (metric, span, scale) in [
        ("scoring.median_degree_ms", "scoring.median_degree", 1e6),
        ("store.cks1_load_ms", "store.cks1_load", 1e6),
        ("store.cks2_load_ms", "store.cks2_load", 1e6),
        ("live.open_ms", "live.open", 1e6),
    ] {
        if let Some(v) = median_ns(spans, span, setup) {
            m.set(metric, v / scale);
        }
    }
    if t.arcs > 0 {
        m.set(
            "store.bytes_per_arc",
            f.snapshot_bytes as f64 / t.arcs as f64,
        );
    }
    for (metric, span, scale) in [
        ("live.apply_us", "live.apply", 1e3),
        ("live.materialize_ms", "live.materialize", 1e6),
        ("discover.ego_view_us", "discover.ego_view", 1e3),
        ("discover.suggest_us", "discover.suggest", 1e3),
    ] {
        if let Some(v) = median_ns(spans, span, None) {
            m.set(metric, v / scale);
        }
    }
    if f.mutations > 0 {
        m.set(
            "live.wal_bytes_per_mutation",
            f.wal_bytes as f64 / f.mutations as f64,
        );
    }

    // Self time per layer, per replayed request.
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none() && is_request_root(s))
        .count();
    let in_request = request_replay_membership(spans);
    let by_layer = self_time_by_layer(spans, |i| in_request[i]);
    if roots > 0 {
        for layer in ["serve", "scoring", "live", "discover", "replay"] {
            let total = by_layer.get(layer).copied().unwrap_or(0);
            m.set(
                &format!("trace.{layer}.self_us"),
                total as f64 / 1e3 / roots as f64,
            );
        }
    }
    m.set("trace.replayed_requests", roots as f64);
    m.set(
        "trace.client_spans",
        spans.iter().filter(|s| s.layer() == "client").count() as f64,
    );
    // Positive when tracing costs: fewer ops, higher latency.
    let pct = |base: f64, traced: f64| 100.0 * (traced - base) / base;
    m.set(
        "trace.overhead_ops_per_s_pct",
        -pct(t.plain.ops_per_s, t.traced.ops_per_s),
    );
    m.set(
        "trace.overhead_lat_p50_pct",
        pct(t.plain.p50_us, t.traced.p50_us),
    );
    m.set(
        "trace.overhead_lat_p99_pct",
        pct(t.plain.p99_us, t.traced.p99_us),
    );
    m.set("trace.window_samples", t.traced.samples as f64);
    Ok(m)
}

/// Whether `s` is the root span of one replayed request.
fn is_request_root(s: &Span) -> bool {
    OpKind::MEASURED.iter().any(|op| op.replay_span() == s.name)
}

/// Whether each span belongs to a request replay (its root is a
/// `replay.<op>` span).
fn request_replay_membership(spans: &[Span]) -> Vec<bool> {
    let mut member = vec![false; spans.len()];
    for i in 0..spans.len() {
        // Parents precede children, so a parent's answer is already known.
        member[i] = match spans[i].parent {
            None => is_request_root(&spans[i]),
            Some(p) => member[p],
        };
    }
    member
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ns: u64, latency_us: u64) -> Sample {
        Sample {
            op: OpKind::ScoreGroup,
            conn: 0,
            index: 0,
            start_ns,
            latency_ns: latency_us * 1_000,
        }
    }

    /// One-second slices, each given as the steal ticks (of 200) it saw
    /// and the `(count, latency_us)` samples it holds.
    fn window(load: &[(u64, &[(u64, u64)])]) -> (Vec<Sample>, Vec<(u64, CpuTicks)>) {
        let sec = 1_000_000_000u64;
        let mut marks = vec![(0, CpuTicks::default())];
        let mut ticks = CpuTicks::default();
        let mut samples = Vec::new();
        for (slice, (stolen, groups)) in load.iter().enumerate() {
            let start = slice as u64 * sec;
            for &(count, latency) in groups.iter() {
                for i in 0..count {
                    samples.push(sample(start + i * 1_000, latency));
                }
            }
            ticks.steal += stolen;
            ticks.total += 200;
            marks.push((start + sec, ticks));
        }
        (samples, marks)
    }

    const QUICK: &[(u64, u64)] = &[(1000, 100)];

    #[test]
    fn a_hiccup_in_one_part_moves_the_medians_little() {
        // Five parts of about 1,000 samples, no steal; the third second
        // is slow throughout.
        let slow: &[(u64, u64)] = &[(250, 4_000)];
        let (samples, marks) = window(&[(0, QUICK), (0, QUICK), (0, slow), (0, QUICK), (0, QUICK)]);
        let w = summarize(&samples, &marks).expect("enough samples");
        assert_eq!((w.parts, w.kept), (4, 4));
        assert_eq!(w.whole.samples, 4_250);
        assert!((w.whole.ops_per_s - 850.0).abs() < 1e-9);
        assert_eq!(w.whole.p99_us, 4_000.0);
        assert_eq!(w.steal, (0.0, 0.0));
        // Parts are seconds 1, 2, 3 (the slow one) and 4-5.
        assert_eq!(w.reported.samples, 4_250);
        assert!((w.reported.seconds - 5.0).abs() < 1e-9);
        assert!((w.reported.ops_per_s - 1000.0).abs() < 1e-9);
        assert_eq!(w.reported.p50_us, 100.0);
        assert_eq!(w.reported.p99_us, 100.0);
        assert!(summarize(&samples, &marks[..1]).is_err());
    }

    #[test]
    fn a_stall_in_every_part_is_reported() {
        // 2% of each second stalls: every part's p99 is the stall.
        let stalling: &[(u64, u64)] = &[(980, 100), (20, 90_000)];
        let (samples, marks) = window(&[(0, stalling); 6]);
        let w = summarize(&samples, &marks).expect("enough samples");
        assert_eq!((w.parts, w.kept), (6, 6));
        assert_eq!(w.reported.p99_us, 90_000.0);
        assert_eq!(w.reported.p99_quantile, 0.99);
        assert!((w.reported.ops_per_s - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn parts_with_more_steal_than_the_quietest_part_are_left_out() {
        // Steal shares 0, 30%, 0 and 15%: the first and third parts are
        // kept, the third although it is slow.
        let slow: &[(u64, u64)] = &[(1000, 900)];
        let (samples, marks) = window(&[(0, QUICK), (60, QUICK), (0, slow), (30, QUICK)]);
        let w = summarize(&samples, &marks).expect("enough samples");
        assert_eq!((w.parts, w.kept), (4, 2));
        assert!((w.steal.0 - 90.0 / 800.0).abs() < 1e-12);
        assert_eq!(w.steal.1, 0.0);
        assert_eq!(w.reported.samples, 2_000);
        assert!((w.reported.seconds - 2.0).abs() < 1e-9);
        assert_eq!(w.reported.p50_us, 500.0);
        assert_eq!(w.reported.p99_us, 500.0);
    }

    #[test]
    fn a_small_window_is_one_part() {
        let (samples, marks) =
            window(&[(0, &[(300, 100)]), (9, &[(300, 100)]), (0, &[(50, 90_000)])]);
        let w = summarize(&samples, &marks).expect("enough samples");
        assert_eq!((w.parts, w.kept), (1, 1));
        assert_eq!(w.reported.p99_us, w.whole.p99_us);
        assert_eq!(w.reported.p99_us, 90_000.0);
        assert!((w.reported.ops_per_s - 650.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark's directory alone, outside a checkout
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "BENCHMARK.json lacks {name} in {unit}"
            );
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
