//! Spans around the benchmark's own calls into `gen`, `graph`, `core`,
//! `algos` and `par`, shared by every workload that has a graph.

use std::collections::BTreeMap;
use std::time::Instant;

use lotus_core::count::{count_hnn_phase, count_hub_phase, count_nnn_phase};
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::tiling::make_tiles;
use lotus_core::{LotusConfig, LotusGraph};
use lotus_graph::UndirectedCsr;
use lotus_telemetry::counters::{self, Counter};

use crate::measure::{median, sorted};
use crate::trace::{SpanId, Tracer};

/// Generates an R-MAT graph as the registry does, one span per layer.
pub fn rmat(tracer: &mut Tracer, scale: u32, edge_factor: u32, seed: u64) -> UndirectedCsr {
    let edges = tracer.time("gen.rmat", SpanId::ROOT, || {
        lotus_gen::Rmat::new(scale, edge_factor).generate_edges(seed)
    });
    tracer.time("graph.build", SpanId::ROOT, || {
        UndirectedCsr::from_canonical_edges(&edges)
    })
}

/// Runs `f` with the shared pool limited to `threads` executors.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builder never fails")
        .install(f)
}

/// The work counters a traced op reads, in the order they are reported.
pub const COUNTERS: [(Counter, &str); 7] = [
    (Counter::MergeSteps, "algos.merge_steps"),
    (Counter::FruitlessIntersections, "algos.fruitless"),
    (Counter::H2hProbes, "core.h2h_probes"),
    (Counter::H2hHits, "core.h2h_hits"),
    (Counter::PoolTasks, "par.pool_tasks"),
    (Counter::PoolSteals, "par.pool_steals"),
    (Counter::PoolParks, "par.pool_parks"),
];

pub fn counter_values() -> [u64; 7] {
    COUNTERS.map(|(c, _)| counters::get(c))
}

/// A full LOTUS count (preprocess + the three phases) through the public
/// phase entry points, each inside its own span under an op span.
/// Returns the triangle total and the prepared structure.
pub fn traced_count(
    tracer: &mut Tracer,
    graph: &UndirectedCsr,
    config: &LotusConfig,
    names: &OpNames,
) -> (u64, LotusGraph) {
    let op = tracer.begin(names.op, SpanId::ROOT, 0);
    let span = tracer.begin(names.preprocess, op, 0);
    let lg = build_lotus_graph(graph, config);
    tracer.end(span);
    let span = tracer.begin(names.hub, op, 0);
    let tiles = make_tiles(
        &lg.he,
        config.tiling_threshold,
        config.partitions_per_vertex,
    );
    let (hhh, hhn) = count_hub_phase(&lg, &tiles);
    tracer.end(span);
    let span = tracer.begin(names.hnn, op, 0);
    let hnn = count_hnn_phase(&lg);
    tracer.end(span);
    let span = tracer.begin(names.nnn, op, 0);
    let nnn = count_nnn_phase(&lg);
    tracer.end(span);
    tracer.end(op);
    (hhh + hhn + hnn + nnn, lg)
}

/// Span names of one op, kept apart per thread count.
pub struct OpNames {
    pub op: &'static str,
    pub preprocess: &'static str,
    pub hub: &'static str,
    pub hnn: &'static str,
    pub nnn: &'static str,
}

pub const NPROC_OP: OpNames = OpNames {
    op: "tc.op",
    preprocess: "core.preprocess",
    hub: "core.hub",
    hnn: "core.hnn",
    nnn: "core.nnn",
};

pub const SINGLE_OP: OpNames = OpNames {
    op: "tc.op_1t",
    preprocess: "core.preprocess@1t",
    hub: "core.hub@1t",
    hnn: "core.hnn@1t",
    nnn: "core.nnn@1t",
};

/// Runs traced counts of `graph` at `nproc` threads `reps` times and
/// fills the `core`, `algos` and `par` layer metrics: median phase self
/// times, exact work counts of one op, and the kernel rates.
pub fn core_metrics(
    tracer: &mut Tracer,
    graph: &UndirectedCsr,
    reps: usize,
    nproc: usize,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let config = LotusConfig::default();
    let mut one_op = None;
    for _ in 0..reps.max(1) {
        let before = counter_values();
        let (_, lg) = with_threads(nproc, || traced_count(tracer, graph, &config, &NPROC_OP));
        let after = counter_values();
        one_op.get_or_insert(std::array::from_fn::<u64, 7, _>(|i| after[i] - before[i]));
        structure_metrics(&lg, metrics);
    }
    fill_phase_metrics(tracer, &one_op.unwrap_or_default(), metrics);
}

pub fn structure_metrics(lg: &LotusGraph, metrics: &mut BTreeMap<&'static str, f64>) {
    metrics.insert("core.hubs", f64::from(lg.hub_count));
    metrics.insert("core.he_edges", lg.he_edges() as f64);
    metrics.insert("core.nhe_edges", lg.nhe_edges() as f64);
    metrics.insert("core.topology_bytes", lg.topology_bytes() as f64);
}

/// Phase self times (ms, median over the nproc ops traced so far), the
/// counters of one op, and the rates derived from both.
pub fn fill_phase_metrics(
    tracer: &Tracer,
    one_op: &[u64; 7],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let self_times = tracer.self_times();
    let ms = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |v| median(&sorted(v.clone())) / 1e6)
    };
    let (pre, hub, hnn, nnn) = (
        ms("core.preprocess"),
        ms("core.hub"),
        ms("core.hnn"),
        ms("core.nnn"),
    );
    metrics.insert("core.preprocess_ms", pre);
    metrics.insert("core.hub_ms", hub);
    metrics.insert("core.hnn_ms", hnn);
    metrics.insert("core.nnn_ms", nnn);
    for ((_, name), value) in COUNTERS.iter().zip(one_op) {
        metrics.insert(name, *value as f64);
    }
    let rate = |ms: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            ms * 1e6 / count as f64
        }
    };
    metrics.insert("algos.ns_per_merge_step", rate(hnn + nnn, one_op[0]));
    metrics.insert("core.ns_per_h2h_probe", rate(hub, one_op[2]));
}

/// Wall times in ms of `reps` full LOTUS counts (`LotusCounter::count`,
/// the user-facing entry point) at `threads`, each total checked against
/// `want`. Returns the samples and how many answers were wrong.
pub fn timed_counts(
    graph: &UndirectedCsr,
    threads: usize,
    reps: usize,
    want: u64,
) -> (Vec<f64>, u64) {
    let counter = lotus_core::LotusCounter::default();
    with_threads(threads, || {
        let mut samples = Vec::with_capacity(reps);
        let mut wrong = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let total = counter.count(std::hint::black_box(graph)).total();
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            wrong += u64::from(total != want);
        }
        (samples, wrong)
    })
}
