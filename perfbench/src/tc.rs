//! `tc-skewed`: the paper's case. In-process LOTUS counts of a skewed
//! R-MAT social graph, at `nproc` threads and at one thread.

use std::collections::BTreeMap;
use std::time::Instant;

use lotus_core::LotusConfig;
use lotus_graph::GraphStats;
use lotus_telemetry::json::Json;

use crate::layers::{self, NPROC_OP, SINGLE_OP};
use crate::measure::{median, nproc, rss_peak_mb, sorted, tail, ProcSnap};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// R-MAT scale 18, edge factor 16: ≈262k vertices, ≈3.8M edges. The
/// 30 MB CSR is far beyond a 2 MiB L2 while the hub-pair bit array fits
/// in it, which is the locality regime LOTUS targets.
const SCALE: u32 = 18;
const EDGE_FACTOR: u32 = 16;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.trace);
    let mut setup = Vec::new();
    let mut graph = None;
    for _ in 0..ctx.setup_reps {
        // Free the previous graph before building the next one.
        drop(graph.take());
        let t = Instant::now();
        let g = layers::rmat(&mut tracer, SCALE, EDGE_FACTOR, ctx.seed);
        setup.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let graph = graph.ok_or("no set-up ran")?;

    // Independent oracle: Forward, a different algorithm over a different
    // orientation of the same graph.
    let mut want = lotus_algos::forward::forward_count(&graph);
    if ctx.plant_wrong {
        want += 1;
    }
    let stats = GraphStats::of(&graph);
    let config = LotusConfig::default();
    let np = nproc();

    let counter = lotus_core::LotusCounter::new(config);
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut attempted, mut wrong) = (0u64, 0u64);
    let mut one_op = None;
    let mut hubs = 0;
    let before = ProcSnap::now();
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < ctx.seconds || walls[1].is_empty() {
        // Two nproc ops, then one single-thread op.
        let single = attempted % 3 == 2;
        let threads = if single { 1 } else { np };
        let t = Instant::now();
        let total = if ctx.trace {
            let names = if single { &SINGLE_OP } else { &NPROC_OP };
            let c0 = layers::counter_values();
            let (total, lg) = layers::with_threads(threads, || {
                layers::traced_count(&mut tracer, &graph, &config, names)
            });
            let c1 = layers::counter_values();
            if !single && one_op.is_none() {
                one_op = Some(std::array::from_fn::<u64, 7, _>(|i| c1[i] - c0[i]));
            }
            hubs = lg.hub_count;
            total
        } else {
            layers::with_threads(threads, || counter.count(&graph).total())
        };
        walls[usize::from(single)].push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        wrong += u64::from(total != want);
    }
    let after = ProcSnap::now();
    let (cpu_ms, faults, ctx_sw) = after.since(&before);
    let ok = attempted - wrong;
    let nproc_ms = sorted(walls[0].clone());
    let single_ms = sorted(walls[1].clone());
    let tc_tail = tail(&nproc_ms);
    let p50 = median(&nproc_ms);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if ctx.trace {
        let gen = tracer.median_self_ns("gen.rmat") / 1e6;
        let build = tracer.median_self_ns("graph.build") / 1e6;
        m.insert("gen.rmat_ms", gen);
        m.insert("graph.build_ms", build);
        layers::fill_phase_metrics(&tracer, &one_op.unwrap_or_default(), &mut m);
        let lg = lotus_core::preprocess::build_lotus_graph(&graph, &config);
        layers::structure_metrics(&lg, &mut m);
        m.insert("par.speedup", median(&single_ms) / p50);
        m.insert("proc.ctx_switches_per_op", ctx_sw as f64 / attempted as f64);
        m.insert("proc.minor_faults_per_op", faults as f64 / attempted as f64);
    } else {
        m.insert("setup_s", median(&sorted(setup.clone())));
        m.insert("tc_ms_p50", p50);
        m.insert("tc_ms_tail", tc_tail.value);
        m.insert("tc_1t_ms_p50", median(&single_ms));
        // Offline, the requests are the nproc counts themselves.
        m.insert("ok_p50_ms", p50);
        m.insert(
            "max_ok_rps",
            nproc_ms.len() as f64 / (nproc_ms.iter().sum::<f64>() / 1e3),
        );
        m.insert("ok_ratio", ok as f64 / attempted as f64);
        m.insert("cpu_ms_per_op", cpu_ms / ok.max(1) as f64);
        m.insert("rss_peak_mb", rss_peak_mb());
    }

    let mut properties = vec![
        (
            "graph".into(),
            Json::Str(format!("rmat:{SCALE}:{EDGE_FACTOR}:{}", ctx.seed)),
        ),
        ("vertices".into(), Json::Int(i64::from(stats.num_vertices))),
        ("edges".into(), Json::Int(stats.num_edges as i64)),
        ("skew".into(), Json::Float(stats.skew_ratio)),
        ("max_degree".into(), Json::Int(i64::from(stats.max_degree))),
        ("triangles".into(), Json::Int(want as i64)),
        (
            "hubs".into(),
            Json::Int(i64::from(if hubs > 0 {
                hubs
            } else {
                config.resolved_hub_count(stats.num_vertices)
            })),
        ),
        ("threads".into(), Json::Int(np as i64)),
        ("nproc_ops".into(), Json::Int(nproc_ms.len() as i64)),
        (
            "single_thread_ops".into(),
            Json::Int(single_ms.len() as i64),
        ),
        ("tail_percentile".into(), Json::Float(tc_tail.pct)),
        (
            "tail_samples_beyond".into(),
            Json::Int(tc_tail.beyond as i64),
        ),
        ("setup_reps".into(), Json::Int(setup.len() as i64)),
        ("nproc_ms_samples".into(), samples(&walls[0])),
        ("single_ms_samples".into(), samples(&walls[1])),
        ("wrong_answers".into(), Json::Int(wrong as i64)),
    ];
    if ctx.trace {
        let phases: f64 = [
            "core.preprocess_ms",
            "core.hub_ms",
            "core.hnn_ms",
            "core.nnn_ms",
        ]
        .iter()
        .map(|k| m.get(k).copied().unwrap_or(0.0))
        .sum();
        properties.push(("phase_sum_ms".into(), Json::Float(phases)));
        properties.push(("traced_tc_ms_p50".into(), Json::Float(p50)));
    }
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed: wrong,
        metrics: m,
        properties,
        headline: p50,
        tracer,
    })
}

/// Every op's wall time in run order, so a result shows how the host
/// moved during the run.
fn samples(ms: &[f64]) -> Json {
    Json::Arr(ms.iter().map(|&v| Json::Float(v)).collect())
}
