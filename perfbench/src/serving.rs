//! `serve-hot` and `serve-churn`: an in-process `lotus-serve` daemon
//! driven by the open-loop generator, plus the load phases both serving
//! workloads and `cluster-fanout` share.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use lotus_core::kclique::count_kcliques;
use lotus_core::per_vertex::count_per_vertex;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::{LotusConfig, LotusCounter};
use lotus_graph::{GraphStats, UndirectedCsr};
use lotus_resilience::MemoryBudget;
use lotus_serve::proto::{Request, StatsReply, NO_DEADLINE};
use lotus_serve::{DurableStore, Registry, ServeConfig, ServerHandle};
use lotus_telemetry::json::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{Oracle, Reference};
use crate::layers;
use crate::measure::{median, nearest_rank, nproc, rss_peak_mb, sorted, tail, ProcSnap};
use crate::openloop::{poisson, Arrivals, Client, Phase, Repeats};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Offered load and latency limit of one serving workload, fixed from
/// runs on the commit that introduced the benchmark (see README.md).
pub struct Load {
    pub nominal_rps: f64,
    pub limit_ms: f64,
}

/// `serve-hot`: one small immutable graph, every answer a registry hit,
/// compute under a millisecond, so the frontend dominates.
pub const HOT: Load = Load {
    nominal_rps: 1000.0,
    limit_ms: 20.0,
};

/// `serve-churn`: durable loads and misses on a pool twice the budget.
pub const CHURN: Load = Load {
    nominal_rps: 150.0,
    limit_ms: 100.0,
};

/// The graph every earlier serve and cluster BENCH section used. The
/// served graphs are fixed so that the seed varies the request stream,
/// not the work one request costs.
pub const SMALL_SEED: u64 = 7;

/// Graphs in the churn pool (`rmat:9:16:1` ... `rmat:9:16:8`) and the
/// Zipf exponent their names are drawn with.
const CHURN_POOL: u64 = 8;
const CHURN_SCALE: u32 = 9;
const ZIPF_S: f64 = 2.0;

/// Connections the generator opens: at most one per core.
pub fn connections() -> usize {
    nproc().min(2)
}

/// Requests the generator keeps outstanding at most: four per
/// connection, which is at most the default daemon's admission queue
/// (four per worker, one worker per core), so no request is refused.
pub fn window() -> usize {
    4 * connections()
}

/// Daemon-side counters, summed over every daemon of a workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub served: u64,
    pub overloaded: u64,
    pub hits: u64,
    pub misses: u64,
    pub resident_bytes: u64,
    pub snapshot_writes: u64,
    pub journal_appends: u64,
    pub wakeups: u64,
    pub events: u64,
}

impl Counters {
    pub fn add(&mut self, s: &StatsReply) {
        self.served += s.requests_served;
        self.overloaded += s.overloaded;
        self.hits += s.cache_hits;
        self.misses += s.cache_misses;
        self.resident_bytes += s.resident_bytes;
        self.snapshot_writes += s.snapshot_writes;
        self.journal_appends += s.journal_appends;
        self.wakeups += s.loop_stats.iter().map(|l| l.loop_wakeups).sum::<u64>();
        self.events += s.loop_stats.iter().map(|l| l.readiness_events).sum::<u64>();
    }

    fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            served: self.served - earlier.served,
            overloaded: self.overloaded - earlier.overloaded,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            // A level, not a count: what is resident now.
            resident_bytes: self.resident_bytes,
            snapshot_writes: self.snapshot_writes - earlier.snapshot_writes,
            journal_appends: self.journal_appends - earlier.journal_appends,
            wakeups: self.wakeups - earlier.wakeups,
            events: self.events - earlier.events,
        }
    }
}

/// One saturation segment, summarised as it ends: no per-request sample
/// of this phase is kept.
pub struct Segment {
    pub goodput: f64,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub wrong: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub counts: u64,
    pub count_repeats: u64,
}

impl Segment {
    fn of(p: &Phase) -> Segment {
        Segment {
            goodput: p.goodput(),
            attempted: p.attempted,
            ok: p.ok,
            failed: p.failed,
            wrong: p.wrong,
            p50_ms: p.ok_p(50.0),
            p99_ms: p.ok_p(99.0),
            counts: p.counts,
            count_repeats: p.count_repeats,
        }
    }
}

/// What `drive` measured against one target.
pub struct Driven {
    pub nominal: Phase,
    /// The closed-loop phase, one second at a time.
    pub saturation: Vec<Segment>,
    /// `VmHWM` in MiB at the end of the nominal phase.
    pub rss_mb: f64,
    pub nominal_cpu_ms: f64,
    pub nominal_faults: u64,
    pub nominal_ctx: u64,
    pub nominal_work: [u64; 7],
    /// Daemon counters over the nominal and saturation phases.
    pub daemon: Counters,
}

impl Driven {
    /// `field` summed over both load phases.
    pub fn total(&self, field: impl Fn(&Segment) -> u64) -> u64 {
        field(&Segment::of(&self.nominal)) + self.saturation.iter().map(field).sum::<u64>()
    }

    /// The median over the saturation segments of `field`.
    pub fn saturated(&self, field: impl Fn(&Segment) -> f64) -> f64 {
        median(&sorted(self.saturation.iter().map(field).collect()))
    }
}

/// Shares of `--seconds` the nominal and saturation phases take; the
/// direct counts between their segments take most of the rest.
const NOMINAL_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.4;

/// One-second segments a phase taking `share` of the run has.
fn segments(ctx: &Ctx, share: f64) -> usize {
    ((share * ctx.seconds) as usize).max(1)
}

/// Runs the nominal phase, open loop at the fixed rate, then the
/// saturation phase, closed loop with the window always full, both in
/// one-second segments, calling `between` before the first segment and
/// after each one.
///
/// `max_ok_rps` is the median goodput of the saturation segments. With
/// the window full the daemon is never idle and never refuses, so this is
/// the highest rate it answers without a growing backlog; an offered rate
/// above it only queues in the generator.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    ctx: &Ctx,
    client: &mut Client,
    load: &Load,
    oracle: &Oracle,
    mix: &mut dyn FnMut(&mut SmallRng) -> Request,
    counters: &dyn Fn() -> Counters,
    between: &mut dyn FnMut(),
    tracer: &mut Tracer,
) -> Result<Driven, String> {
    let io = |e: std::io::Error| format!("load generator: {e}");
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5EED_F10A_D000);
    let mut repeats = Repeats::default();
    let drain = Duration::from_secs_f64((load.limit_ms * 20.0 / 1e3).max(1.0));
    let second = Duration::from_secs(1);
    between();
    let daemon0 = counters();
    let mut nominal = Phase {
        offered_rps: load.nominal_rps,
        ..Phase::default()
    };
    let (mut cpu_ms, mut faults, mut ctx_sw) = (0.0, 0, 0);
    let mut work = [0u64; 7];
    for _ in 0..segments(ctx, NOMINAL_SHARE) {
        let plan = poisson(&mut rng, load.nominal_rps, second, mix);
        let work0 = layers::counter_values();
        let before = ProcSnap::now();
        let phase = client
            .run(
                Arrivals::Scheduled(&plan),
                load.nominal_rps,
                second,
                drain,
                oracle,
                &mut repeats,
                tracer,
            )
            .map_err(io)?;
        let (cpu, f, c) = ProcSnap::now().since(&before);
        let work1 = layers::counter_values();
        (cpu_ms, faults, ctx_sw) = (cpu_ms + cpu, faults + f, ctx_sw + c);
        for (w, (a, b)) in work.iter_mut().zip(work0.iter().zip(work1)) {
            *w += b - a;
        }
        nominal.absorb(phase);
        between();
    }
    // Peak memory before the saturation phase, whose allocations grow
    // with the daemon's throughput and so with the host's speed.
    let rss_mb = rss_peak_mb();
    let mut saturation = Vec::new();
    for _ in 0..segments(ctx, SATURATION_SHARE) {
        let mut source = || mix(&mut rng);
        let phase = client
            .run(
                Arrivals::Saturating(&mut source),
                0.0,
                second,
                drain,
                oracle,
                &mut repeats,
                tracer,
            )
            .map_err(io)?;
        saturation.push(Segment::of(&phase));
        between();
    }
    let daemon = counters().delta(&daemon0);
    Ok(Driven {
        nominal,
        saturation,
        rss_mb,
        nominal_cpu_ms: cpu_ms,
        nominal_faults: faults,
        nominal_ctx: ctx_sw,
        nominal_work: work,
        daemon,
    })
}

/// A graph served by name, with its answers and what it costs to hold.
pub struct Served {
    pub name: String,
    pub spec: String,
    pub graph: UndirectedCsr,
    pub bytes: u64,
}

/// Builds `spec` the way the registry does and computes every answer
/// the workloads ask about by direct library calls. The total is also
/// checked against Forward, an independent algorithm.
pub fn reference(
    tracer: &mut Tracer,
    name: &str,
    scale: u32,
    edge_factor: u32,
    seed: u64,
    kcliques: &[u32],
) -> Result<(Served, Reference), String> {
    let spec = format!("rmat:{scale}:{edge_factor}:{seed}");
    let graph = layers::rmat(tracer, scale, edge_factor, seed);
    let config = LotusConfig::auto(&graph);
    let lotus = build_lotus_graph(&graph, &config);
    let triangles = LotusCounter::new(config).count_prepared(&lotus).total();
    let forward = lotus_algos::forward::forward_count(&graph);
    if forward != triangles {
        return Err(format!(
            "{spec}: LOTUS counts {triangles} but Forward counts {forward}"
        ));
    }
    let per_vertex = count_per_vertex(&lotus);
    if per_vertex.iter().sum::<u64>() != 3 * triangles {
        return Err(format!(
            "{spec}: per-vertex counts do not sum to 3 × {triangles}"
        ));
    }
    let reference = Reference {
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        triangles,
        per_vertex,
        kcliques: kcliques
            .iter()
            .map(|&k| (k, count_kcliques(&graph, k as usize)))
            .collect(),
    };
    let bytes = graph.topology_bytes() + lotus.topology_bytes();
    Ok((
        Served {
            name: name.to_string(),
            spec,
            graph,
            bytes,
        },
        reference,
    ))
}

/// Sets up `reps` times and keeps the last set-up: the median of the
/// set-up times is the metric, so work moved into set-up shows.
pub fn set_up<T>(
    reps: usize,
    mut once: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        // Tear the previous set-up down before timing the next one.
        drop(last.take());
        let t = Instant::now();
        last = Some(once(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// Connects the generator and sends a short warm-up, 5 ms apart, whose
/// answers are checked like any other: wrong ones are added to `wrong`.
/// A refusal during the warm-up is not measured and does not stop the run.
pub fn connect_and_warm(
    addr: SocketAddr,
    oracle: &Oracle,
    warm: &[Request],
    limit_ms: f64,
    wrong: &mut u64,
) -> Result<Client, String> {
    let mut client = Client::connect(addr, connections(), window())
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let plan: Vec<_> = warm
        .iter()
        .enumerate()
        .map(|(i, r)| crate::openloop::Planned {
            due: Duration::from_millis(5 * i as u64),
            request: r.clone(),
        })
        .collect();
    let window = Duration::from_millis(5 * warm.len() as u64);
    let drain = Duration::from_secs_f64((limit_ms * 40.0 / 1e3).max(5.0));
    let phase = client
        .run(
            Arrivals::Scheduled(&plan),
            200.0,
            window,
            drain,
            oracle,
            &mut Repeats::default(),
            &mut Tracer::new(false),
        )
        .map_err(|e| format!("warm-up: {e}"))?;
    *wrong += phase.wrong;
    Ok(client)
}

/// The end-to-end metrics every serving workload reports.
pub fn end_to_end(m: &mut BTreeMap<&'static str, f64>, setup: &[f64], d: &Driven, kernel: &Kernel) {
    m.insert("setup_s", median(&sorted(setup.to_vec())));
    m.insert("tc_ms_p50", median(&kernel.nproc_ms));
    m.insert("tc_ms_tail", tail(&kernel.nproc_ms).value);
    m.insert("tc_1t_ms_p50", median(&kernel.single_ms));
    // Latency at capacity, not at the nominal rate: a fixed offered rate
    // turns a change in host speed into a change in utilization, which
    // moved the nominal p99 tenfold between runs of the same code. Tail
    // latencies, nominal and at capacity, are in the properties: on a
    // shared two-vCPU host they follow how often its vCPUs stall (see
    // README.md).
    m.insert("ok_p50_ms", d.saturated(|s| s.p50_ms));
    m.insert("max_ok_rps", d.saturated(|s| s.goodput));
    m.insert(
        "ok_ratio",
        d.nominal.ok as f64 / d.nominal.attempted.max(1) as f64,
    );
    m.insert(
        "cpu_ms_per_op",
        d.nominal_cpu_ms / d.nominal.ok.max(1) as f64,
    );
    m.insert("rss_peak_mb", d.rss_mb);
}

/// Direct LOTUS counts of a served graph: the compute one `Count` costs.
/// Timings of sub-millisecond counts drift with the host over about a
/// second, so they are taken in small chunks spread across the run: one
/// before the first load segment and one after each. One sample is the
/// mean count time of a chunk, since a single 0.2 ms count is within
/// reach of one preemption of the VM's vCPU.
pub struct Kernel {
    pub nproc_ms: Vec<f64>,
    pub single_ms: Vec<f64>,
    pub attempted: u64,
    pub wrong: u64,
    /// Counts per thread setting in one chunk.
    chunk: usize,
}

/// Direct counts per thread setting over a whole run, however long.
const KERNEL_COUNTS: usize = 200;

impl Kernel {
    /// Spreads `KERNEL_COUNTS` over the chunks `drive` will take.
    pub fn new(ctx: &Ctx) -> Kernel {
        let chunks = 1 + segments(ctx, NOMINAL_SHARE) + segments(ctx, SATURATION_SHARE);
        Kernel {
            nproc_ms: Vec::new(),
            single_ms: Vec::new(),
            attempted: 0,
            wrong: 0,
            chunk: KERNEL_COUNTS.div_ceil(chunks),
        }
    }

    pub fn sample(&mut self, graph: &UndirectedCsr, want: u64) {
        let (a, w1) = layers::timed_counts(graph, nproc(), self.chunk, want);
        let (b, w2) = layers::timed_counts(graph, 1, self.chunk, want);
        self.attempted += (a.len() + b.len()) as u64;
        self.wrong += w1 + w2;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        self.nproc_ms.push(mean(&a));
        self.single_ms.push(mean(&b));
    }

    pub fn sorted(mut self) -> Kernel {
        self.nproc_ms = sorted(self.nproc_ms);
        self.single_ms = sorted(self.single_ms);
        self
    }
}

/// Per-layer metrics every driven workload reports: the served graph's
/// build and count layers, client-side proto spans, generator lag, daemon
/// counter deltas and process deltas.
pub fn shared_layers(
    m: &mut BTreeMap<&'static str, f64>,
    tracer: &mut Tracer,
    graph: &UndirectedCsr,
    d: &Driven,
    k: &Kernel,
) {
    layers::core_metrics(tracer, graph, 5, nproc(), m);
    m.insert("gen.rmat_ms", tracer.median_self_ns("gen.rmat") / 1e6);
    m.insert("graph.build_ms", tracer.median_self_ns("graph.build") / 1e6);
    m.insert("par.speedup", median(&k.single_ms) / median(&k.nproc_ms));
    let ok = d.nominal.ok.max(1) as f64;
    m.insert(
        "serve.proto.encode_us",
        tracer.median_self_ns("serve.proto.encode") / 1e3,
    );
    m.insert(
        "serve.proto.decode_us",
        tracer.median_self_ns("serve.proto.decode") / 1e3,
    );
    let ping = d
        .nominal
        .ok_us_by_kind
        .get("ping")
        .map_or(0.0, |v| median(v));
    m.insert("serve.ping_us_p50", ping);
    m.insert("loadgen.lag_p99_ms", nearest_rank(&d.nominal.lag_ms, 99.0));
    m.insert("proc.ctx_switches_per_op", d.nominal_ctx as f64 / ok);
    m.insert("proc.minor_faults_per_op", d.nominal_faults as f64 / ok);
    // The pool counters, per OK request; the kernel counters come from
    // the direct counts in `core_metrics`.
    for ((_, name), value) in layers::COUNTERS.iter().zip(d.nominal_work).skip(4) {
        m.insert(name, value as f64 / ok);
    }
    let c = &d.daemon;
    let answered_ok = d.total(|s| s.ok);
    m.insert(
        "serve.admit_ratio",
        c.served as f64 / (c.served + c.overloaded).max(1) as f64,
    );
    m.insert("serve.overloaded", c.overloaded as f64);
    m.insert(
        "serve.loop.wakeups_per_ok",
        c.wakeups as f64 / answered_ok.max(1) as f64,
    );
    m.insert(
        "serve.loop.events_per_ok",
        c.events as f64 / answered_ok.max(1) as f64,
    );
}

/// Properties of a driven run: offered rate, lag, outcomes per phase.
pub fn driven_properties(p: &mut Vec<(String, Json)>, load: &Load, d: &Driven) {
    let step = |s: &Phase| {
        Json::Obj(vec![
            ("offered_rps".into(), Json::Float(s.offered_rps)),
            ("attempted".into(), Json::Int(s.attempted as i64)),
            ("ok".into(), Json::Int(s.ok as i64)),
            ("failed".into(), Json::Int(s.failed as i64)),
            ("ok_p50_ms".into(), Json::Float(s.ok_p(50.0))),
            ("ok_p99_ms".into(), Json::Float(s.ok_p(99.0))),
            ("ok_samples".into(), Json::Int(s.ok_ms.len() as i64)),
            ("backlog".into(), Json::Int(s.backlog as i64)),
            (
                "failures".into(),
                Json::Obj(
                    s.failures
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
        ])
    };
    let n = &d.nominal;
    let counts = d.total(|s| s.counts);
    let repeats = d.total(|s| s.count_repeats);
    p.extend([
        (
            "nominal_window_p50_ms".into(),
            Json::Float(n.window_p(50.0)),
        ),
        (
            "nominal_window_p99_ms".into(),
            Json::Float(n.window_p(99.0)),
        ),
        ("nominal_rps".into(), Json::Float(load.nominal_rps)),
        ("latency_limit_ms".into(), Json::Float(load.limit_ms)),
        ("connections".into(), Json::Int(connections() as i64)),
        ("window".into(), Json::Int(window() as i64)),
        (
            "arrivals".into(),
            Json::Str(
                "nominal: open loop, seeded Poisson, no retries; saturation: closed loop, window full"
                    .into(),
            ),
        ),
        ("nominal".into(), step(n)),
        (
            "nominal_windows_p50_ms".into(),
            Json::Arr(n.per_window_p(50.0).into_iter().map(Json::Float).collect()),
        ),
        (
            "nominal_windows_p99_ms".into(),
            Json::Arr(n.per_window_p(99.0).into_iter().map(Json::Float).collect()),
        ),
        (
            "lag_p99_ms".into(),
            Json::Float(nearest_rank(&n.lag_ms, 99.0)),
        ),
        (
            "saturation_p99_ms".into(),
            Json::Float(d.saturated(|s| s.p99_ms)),
        ),
        (
            "saturation".into(),
            Json::Arr(
                d.saturation
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("goodput_rps".into(), Json::Float(s.goodput)),
                            ("attempted".into(), Json::Int(s.attempted as i64)),
                            ("failed".into(), Json::Int(s.failed as i64)),
                            ("ok_p50_ms".into(), Json::Float(s.p50_ms)),
                            ("ok_p99_ms".into(), Json::Float(s.p99_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "count_repeat_share".into(),
            Json::Float(repeats as f64 / counts.max(1) as f64),
        ),
    ]);
}

/// Direct calls on the daemon's own layers, for the traced run.
fn serve_layer_calls(
    ctx: &Ctx,
    m: &mut BTreeMap<&'static str, f64>,
    served: &Served,
    prepared: &lotus_serve::PreparedGraph,
    kclique: bool,
) -> Result<(), String> {
    let reps = 5;
    let time_us = |f: &mut dyn FnMut()| {
        let mut v = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            f();
            v.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&sorted(v))
    };
    let counter = LotusCounter::new(prepared.config);
    m.insert(
        "serve.compute_us.count",
        time_us(&mut || {
            std::hint::black_box(counter.count_prepared(&prepared.lotus).total());
        }),
    );
    m.insert(
        "serve.compute_us.per_vertex",
        time_us(&mut || {
            std::hint::black_box(count_per_vertex(&prepared.lotus));
        }),
    );
    if kclique {
        m.insert(
            "serve.compute_us.kclique",
            time_us(&mut || {
                std::hint::black_box(count_kcliques(&prepared.graph, 4));
            }),
        );
    }
    let registry = Registry::new(MemoryBudget::from_bytes(1 << 30));
    let load_ms = time_us(&mut || {
        registry
            .load(&served.name, &served.spec)
            .expect("the spec loaded at set-up loads again");
    }) / 1e3;
    m.insert("serve.registry.load_ms", load_ms);

    let dir = ctx.scratch.join("store-probe");
    let (store, _) =
        DurableStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let mut i = 0;
    let register_ms = time_us(&mut || {
        i += 1;
        store
            .record_register(&format!("probe-{i}"), &served.spec, &served.graph)
            .expect("registering on a scratch dir succeeds");
    }) / 1e3;
    m.insert("serve.store.register_ms", register_ms);
    let bytes = std::fs::metadata(store.snapshot_path("probe-1")).map_or(0, |f| f.len());
    m.insert("serve.store.snapshot_bytes", bytes as f64);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

pub fn graph_properties(
    p: &mut Vec<(String, Json)>,
    served: &[&Served],
    refs: &Oracle,
    budget: u64,
) {
    let first = served[0];
    let stats = GraphStats::of(&first.graph);
    let total: u64 = served.iter().map(|s| s.bytes).sum();
    p.extend([
        (
            "graphs".into(),
            Json::Arr(served.iter().map(|s| Json::Str(s.spec.clone())).collect()),
        ),
        ("vertices".into(), Json::Int(i64::from(stats.num_vertices))),
        ("edges".into(), Json::Int(stats.num_edges as i64)),
        ("skew".into(), Json::Float(stats.skew_ratio)),
        (
            "triangles".into(),
            Json::Int(refs.graphs.get(&first.name).map_or(0, |r| r.triangles) as i64),
        ),
        (
            "hubs".into(),
            Json::Int(i64::from(
                LotusConfig::auto(&first.graph).resolved_hub_count(stats.num_vertices),
            )),
        ),
        ("working_set_bytes".into(), Json::Int(total as i64)),
    ]);
    if budget > 0 {
        p.push(("registry_budget_bytes".into(), Json::Int(budget as i64)));
        p.push((
            "working_set_over_budget".into(),
            Json::Float(total as f64 / budget as f64),
        ));
    }
}

fn served_counters(handle: &ServerHandle) -> Counters {
    let mut c = Counters::default();
    c.add(&handle.state().stats_reply());
    c
}

/// The `lotus loadgen` read mix: counts, per-vertex windows, k-cliques,
/// two-element batches, stats and pings.
fn hot_mix(name: &str, vertices: u32) -> impl FnMut(&mut SmallRng) -> Request + '_ {
    move |rng| {
        let count = || Request::Count {
            name: name.to_string(),
            deadline_ms: NO_DEADLINE,
        };
        match rng.gen_range(0..100u32) {
            0..=59 => count(),
            60..=74 => {
                let start = rng.gen_range(0..vertices);
                Request::PerVertex {
                    name: name.to_string(),
                    start,
                    end: start.saturating_add(64).min(vertices),
                    deadline_ms: NO_DEADLINE,
                }
            }
            75..=84 => Request::KClique {
                name: name.to_string(),
                k: rng.gen_range(3..5u32),
                deadline_ms: NO_DEADLINE,
            },
            85..=91 => Request::Batch(vec![
                count(),
                Request::KClique {
                    name: name.to_string(),
                    k: 3,
                    deadline_ms: NO_DEADLINE,
                },
            ]),
            92..=95 => Request::Stats,
            _ => Request::Ping,
        }
    }
}

pub fn hot(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.trace);
    let (served, reference) = reference(&mut tracer, "hot", 9, 8, SMALL_SEED, &[3, 4])?;
    let mut oracle = Oracle::default();
    oracle.graphs.insert(served.name.clone(), reference);
    if ctx.plant_wrong {
        oracle.plant_wrong();
    }
    let vertices = served.graph.num_vertices();
    let mut mix = hot_mix(&served.name, vertices);
    let mut warm_rng = SmallRng::seed_from_u64(ctx.seed);
    let warm: Vec<Request> = (0..32).map(|_| mix(&mut warm_rng)).collect();

    let mut setup_wrong = 0;
    let ((mut client, handle), setup) = set_up(ctx.setup_reps, |_| {
        let handle = lotus_serve::spawn(ServeConfig {
            preload: vec![(served.name.clone(), served.spec.clone())],
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let client = connect_and_warm(
            handle.addr(),
            &oracle,
            &warm,
            HOT.limit_ms,
            &mut setup_wrong,
        )?;
        Ok((client, handle))
    })?;
    let budget = handle.state().registry().budget_bytes();
    let want = oracle.graphs[&served.name].triangles;
    let mut k = Kernel::new(ctx);
    let d = drive(
        ctx,
        &mut client,
        &HOT,
        &oracle,
        &mut mix,
        &|| served_counters(&handle),
        &mut || k.sample(&served.graph, want),
        &mut tracer,
    )?;
    let k = k.sorted();

    let mut m = BTreeMap::new();
    if ctx.trace {
        shared_layers(&mut m, &mut tracer, &served.graph, &d, &k);
        daemon_layers(ctx, &mut m, &handle, &served, &d, true)?;
        setup_wrong += crate::cluster::probe(ctx, &mut m)?;
    } else {
        end_to_end(&mut m, &setup, &d, &k);
    }
    let mut p = Vec::new();
    graph_properties(&mut p, &[&served], &oracle, budget);
    driven_properties(&mut p, &HOT, &d);
    drop(client);
    drop(handle);
    finish(m, p, &d, &k, setup_wrong, tracer)
}

/// Per-layer metrics of a single daemon: direct calls on its registry's
/// graph, its registry and store counters, and the frontend's share of a
/// Count's latency.
fn daemon_layers(
    ctx: &Ctx,
    m: &mut BTreeMap<&'static str, f64>,
    handle: &ServerHandle,
    served: &Served,
    d: &Driven,
    kclique: bool,
) -> Result<(), String> {
    let (prepared, _) = handle
        .state()
        .registry()
        .get_or_load(&served.name)
        .map_err(|e| e.to_string())?;
    serve_layer_calls(ctx, m, served, &prepared, kclique)?;
    registry_layers(m, &d.daemon);
    let count_us = d
        .nominal
        .ok_us_by_kind
        .get("count")
        .map_or(0.0, |v| median(v));
    m.insert(
        "serve.frontend_us_p50",
        count_us - m["serve.compute_us.count"],
    );
    Ok(())
}

fn registry_layers(m: &mut BTreeMap<&'static str, f64>, c: &Counters) {
    m.insert(
        "serve.registry.hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    m.insert("serve.registry.misses", c.misses as f64);
    m.insert(
        "serve.registry.resident_mb",
        c.resident_bytes as f64 / (1 << 20) as f64,
    );
    m.insert("serve.snapshot_writes", c.snapshot_writes as f64);
    m.insert("serve.journal_appends", c.journal_appends as f64);
}

/// Assembles the outcome: attempted and failed cover every load phase
/// and the direct kernel counts, none of which should fail; a wrong
/// answer anywhere, the warm-up included, fails the run and is counted.
pub fn finish(
    metrics: BTreeMap<&'static str, f64>,
    mut properties: Vec<(String, Json)>,
    d: &Driven,
    k: &Kernel,
    setup_wrong: u64,
    tracer: Tracer,
) -> Result<Outcome, String> {
    let wrong = d.total(|s| s.wrong) + k.wrong + setup_wrong;
    properties.push(("wrong_answers".into(), Json::Int(wrong as i64)));
    properties.push(("kernel_ops".into(), Json::Int(k.attempted as i64)));
    Ok(Outcome {
        correct: wrong == 0,
        attempted: d.total(|s| s.attempted) + k.attempted + setup_wrong,
        failed: d.total(|s| s.failed) + k.wrong + setup_wrong,
        metrics,
        properties,
        headline: d.saturated(|s| s.p50_ms),
        tracer,
    })
}

/// Zipf-distributed index in `0..n`.
fn zipf(rng: &mut SmallRng, cdf: &[f64]) -> usize {
    let u: f64 = rng.gen();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

pub fn churn(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.trace);
    let mut oracle = Oracle::default();
    let mut pool = Vec::new();
    for i in 0..CHURN_POOL {
        let (mut served, reference) = reference(&mut tracer, "", CHURN_SCALE, 16, i + 1, &[])?;
        // Names are the specs, so an evicted name rebuilds on demand.
        served.name = served.spec.clone();
        oracle.graphs.insert(served.name.clone(), reference);
        pool.push(served);
    }
    if ctx.plant_wrong {
        oracle.plant_wrong();
    }
    let total_bytes: u64 = pool.iter().map(|s| s.bytes).sum();
    let budget = total_bytes / 2;
    let weights: Vec<f64> = (1..=pool.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let sum: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / sum;
            Some(*acc)
        })
        .collect();
    let names: Vec<String> = pool.iter().map(|s| s.name.clone()).collect();
    let vertices = pool[0].graph.num_vertices();
    let mut mix = |rng: &mut SmallRng| {
        let name = names[zipf(rng, &cdf)].clone();
        match rng.gen_range(0..100u32) {
            0..=4 => Request::LoadGraph {
                spec: name.clone(),
                name,
            },
            5..=84 => Request::Count {
                name,
                deadline_ms: NO_DEADLINE,
            },
            _ => {
                let start = rng.gen_range(0..vertices);
                Request::PerVertex {
                    name,
                    start,
                    end: start.saturating_add(64).min(vertices),
                    deadline_ms: NO_DEADLINE,
                }
            }
        }
    };
    // Warm-up touches every pool graph once, so the nominal phase starts
    // from the LRU's steady state rather than from an empty registry.
    let warm: Vec<Request> = names
        .iter()
        .rev()
        .map(|name| Request::Count {
            name: name.clone(),
            deadline_ms: NO_DEADLINE,
        })
        .collect();
    let data = |rep: usize| ctx.scratch.join(format!("churn-data-{rep}"));
    let mut setup_wrong = 0;
    let ((mut client, handle), setup) = set_up(ctx.setup_reps, |rep| {
        if rep > 0 {
            let _ = std::fs::remove_dir_all(data(rep - 1));
        }
        let handle = lotus_serve::spawn(ServeConfig {
            budget: MemoryBudget::from_bytes(budget),
            data_dir: Some(data(rep)),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the durable daemon: {e}"))?;
        let client = connect_and_warm(
            handle.addr(),
            &oracle,
            &warm,
            CHURN.limit_ms,
            &mut setup_wrong,
        )?;
        Ok((client, handle))
    })?;
    let top = &pool[0];
    let want = oracle.graphs[&top.name].triangles;
    let mut k = Kernel::new(ctx);
    let d = drive(
        ctx,
        &mut client,
        &CHURN,
        &oracle,
        &mut mix,
        &|| served_counters(&handle),
        &mut || k.sample(&top.graph, want),
        &mut tracer,
    )?;
    let k = k.sorted();

    let mut m = BTreeMap::new();
    if ctx.trace {
        shared_layers(&mut m, &mut tracer, &top.graph, &d, &k);
        daemon_layers(ctx, &mut m, &handle, top, &d, false)?;
    } else {
        end_to_end(&mut m, &setup, &d, &k);
    }
    let mut p = Vec::new();
    let refs: Vec<&Served> = pool.iter().collect();
    graph_properties(&mut p, &refs, &oracle, budget);
    p.push(("zipf_s".into(), Json::Float(ZIPF_S)));
    driven_properties(&mut p, &CHURN, &d);
    drop(client);
    drop(handle);
    remove_scratch(&ctx.scratch);
    finish(m, p, &d, &k, setup_wrong, tracer)
}

fn remove_scratch(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}
