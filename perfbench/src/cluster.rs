//! `cluster-fanout`: three in-process shard daemons behind a
//! coordinator, all holding one small graph, driven with the
//! cluster-mode read mix. Coordinator dispatch and the fleet broadcast
//! dominate; the per-shard compute is tiny.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lotus_cluster::{ClusterConfig, CoordinatorHandle, Fleet};
use lotus_graph::partition::edge_balanced;
use lotus_graph::ShardSubgraph;
use lotus_resilience::{Deadline, RetryPolicy};
use lotus_serve::proto::{Request, Response, NO_DEADLINE};
use lotus_serve::{ServeConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::Oracle;
use crate::measure::{median, sorted};
use crate::openloop::{poisson, Arrivals, Client, Phase, Repeats};
use crate::serving::{self, Counters, Load, Served};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const SHARDS: usize = 3;

pub const FANOUT: Load = Load {
    nominal_rps: 700.0,
    limit_ms: 50.0,
};

/// Field order is drop order: the coordinator goes before its shards.
struct Fleetside {
    coordinator: CoordinatorHandle,
    shards: Vec<ServerHandle>,
}

fn start(name: &str, spec: &str, vertices: u32) -> Result<Fleetside, String> {
    let mut shards = Vec::new();
    for _ in 0..SHARDS {
        shards.push(
            lotus_serve::spawn(ServeConfig::default())
                .map_err(|e| format!("starting a shard: {e}"))?,
        );
    }
    let coordinator = lotus_cluster::spawn(ClusterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("starting the coordinator: {e}"))?;
    let mut admin = lotus_serve::Client::connect(coordinator.addr())
        .map_err(|e| format!("admin connection: {e}"))?;
    let loaded = admin
        .call(&Request::LoadGraph {
            name: name.to_string(),
            spec: spec.to_string(),
        })
        .map_err(|e| format!("placing {spec}: {e}"))?;
    match loaded {
        // Shards report owned vertices (which sum to |V|) and stored
        // entries, ghost columns included, so only the vertices add up.
        Response::Loaded { vertices: v, .. } if v == vertices => {}
        other => return Err(format!("placing {spec} answered {other:?}")),
    }
    Ok(Fleetside {
        coordinator,
        shards,
    })
}

fn counters(f: &Fleetside) -> Counters {
    let mut c = Counters::default();
    for shard in &f.shards {
        c.add(&shard.state().stats_reply());
    }
    c
}

/// The loadgen cluster mix: the k-clique slice becomes counts (cluster
/// mode rejects k-cliques) and batches pair a count with a ping.
fn mix(name: &str, vertices: u32) -> impl FnMut(&mut SmallRng) -> Request + '_ {
    move |rng| {
        let count = || Request::Count {
            name: name.to_string(),
            deadline_ms: NO_DEADLINE,
        };
        match rng.gen_range(0..100u32) {
            0..=59 | 75..=84 => count(),
            60..=74 => {
                let start = rng.gen_range(0..vertices);
                Request::PerVertex {
                    name: name.to_string(),
                    start,
                    end: start.saturating_add(64).min(vertices),
                    deadline_ms: NO_DEADLINE,
                }
            }
            85..=91 => Request::Batch(vec![count(), Request::Ping]),
            92..=95 => Request::Stats,
            _ => Request::Ping,
        }
    }
}

/// Fan-out calls, shard failures and partial answers so far.
fn coordinator_counts(f: &Fleetside) -> [u64; 3] {
    let stats = f.coordinator.state().stats();
    [
        stats.fanout_calls(),
        stats.shard_failures(),
        stats.partial_answers(),
    ]
}

/// The `cluster` layer metrics: coordinator counter deltas since
/// `before`, direct `Fleet::broadcast` and shard-count timings, and the
/// coordinator's share of an OK Count's latency.
#[allow(clippy::too_many_arguments)]
fn cluster_layers(
    ctx: &Ctx,
    m: &mut BTreeMap<&'static str, f64>,
    fleet: &Fleetside,
    served: &Served,
    nominal: &Phase,
    answered_ok: u64,
    before: [u64; 3],
    want: u64,
) -> Result<(), String> {
    let after = coordinator_counts(fleet);
    m.insert(
        "cluster.fanouts_per_ok",
        (after[0] - before[0]) as f64 / answered_ok.max(1) as f64,
    );
    m.insert("cluster.shard_failures", (after[1] - before[1]) as f64);
    m.insert("cluster.partial_answers", (after[2] - before[2]) as f64);

    let addrs: Vec<String> = fleet.shards.iter().map(|s| s.addr().to_string()).collect();
    let mut direct = Fleet::new(&addrs, RetryPolicy::serve_default(ctx.seed));
    let calls: Vec<_> = (0..SHARDS)
        .map(|i| {
            (
                i,
                Request::ShardCount {
                    name: served.name.clone(),
                    deadline_ms: NO_DEADLINE,
                },
            )
        })
        .collect();
    let mut broadcast_us = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let replies = direct.broadcast(&calls, Deadline::after(Duration::from_secs(10)));
        broadcast_us.push(t.elapsed().as_secs_f64() * 1e6);
        let mut sum = 0;
        for reply in &replies {
            match reply {
                Ok(Response::Count { triangles, .. }) => sum += triangles,
                other => return Err(format!("direct fleet broadcast answered {other:?}")),
            }
        }
        if sum != want {
            return Err(format!("direct fleet broadcast summed {sum}, want {want}"));
        }
    }
    let broadcast = median(&sorted(broadcast_us));
    m.insert("cluster.fleet.broadcast_us", broadcast);

    let forward = served.graph.forward_graph();
    let ranges = edge_balanced(&forward, SHARDS);
    let mut slowest: f64 = 0.0;
    for range in ranges {
        let shard = ShardSubgraph::extract(&forward, range);
        let mut v = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            std::hint::black_box(shard.count_owned_triangles());
            v.push(t.elapsed().as_secs_f64() * 1e6);
        }
        slowest = slowest.max(median(&sorted(v)));
    }
    m.insert("cluster.shard.compute_us", slowest);
    let count_us = nominal
        .ok_us_by_kind
        .get("count")
        .map_or(0.0, |v| median(v));
    m.insert("cluster.coord_us_p50", count_us - broadcast);
    Ok(())
}

/// The `cluster` layer probed from another workload's traced run
/// (`cluster-fanout` itself is not in `BENCHMARK.json`): the same fleet
/// and graph, driven at the nominal rate for a tenth of the run. Returns
/// the wrong answers it saw.
pub fn probe(ctx: &Ctx, m: &mut BTreeMap<&'static str, f64>) -> Result<u64, String> {
    let mut tracer = Tracer::new(false);
    let (served, reference) =
        serving::reference(&mut tracer, "fan", 9, 8, serving::SMALL_SEED, &[])?;
    let vertices = reference.vertices;
    let mut oracle = Oracle::default();
    oracle.graphs.insert(served.name.clone(), reference);
    let want = oracle.graphs[&served.name].triangles;
    let fleet = start(&served.name, &served.spec, vertices)?;
    let mut client = Client::connect(
        fleet.coordinator.addr(),
        serving::connections(),
        serving::window(),
    )
    .map_err(|e| format!("connecting to the coordinator: {e}"))?;
    let before = coordinator_counts(&fleet);
    let window = Duration::from_secs_f64(0.1 * ctx.seconds);
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let plan = poisson(
        &mut rng,
        FANOUT.nominal_rps,
        window,
        &mut mix(&served.name, vertices),
    );
    let phase = client
        .run(
            Arrivals::Scheduled(&plan),
            FANOUT.nominal_rps,
            window,
            Duration::from_secs(1),
            &oracle,
            &mut Repeats::default(),
            &mut tracer,
        )
        .map_err(|e| format!("cluster probe: {e}"))?;
    cluster_layers(ctx, m, &fleet, &served, &phase, phase.ok, before, want)?;
    drop(client);
    drop(fleet);
    Ok(phase.wrong)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.trace);
    let (served, reference) =
        serving::reference(&mut tracer, "fan", 9, 8, serving::SMALL_SEED, &[])?;
    let vertices = reference.vertices;
    let mut oracle = Oracle::default();
    oracle.graphs.insert(served.name.clone(), reference);
    if ctx.plant_wrong {
        oracle.plant_wrong();
    }
    let mut mix = mix(&served.name, vertices);
    let mut warm_rng = SmallRng::seed_from_u64(ctx.seed);
    let warm: Vec<Request> = (0..32).map(|_| mix(&mut warm_rng)).collect();

    let mut setup_wrong = 0;
    let ((mut client, fleet), setup) = serving::set_up(ctx.setup_reps, |_| {
        let fleet = start(&served.name, &served.spec, vertices)?;
        let client = serving::connect_and_warm(
            fleet.coordinator.addr(),
            &oracle,
            &warm,
            FANOUT.limit_ms,
            &mut setup_wrong,
        )?;
        Ok((client, fleet))
    })?;
    let before = coordinator_counts(&fleet);
    let want = oracle.graphs[&served.name].triangles;
    let mut k = serving::Kernel::new(ctx);
    let d = serving::drive(
        ctx,
        &mut client,
        &FANOUT,
        &oracle,
        &mut mix,
        &|| counters(&fleet),
        &mut || k.sample(&served.graph, want),
        &mut tracer,
    )?;
    let k = k.sorted();

    let mut m = BTreeMap::new();
    if ctx.trace {
        serving::shared_layers(&mut m, &mut tracer, &served.graph, &d, &k);

        let answered_ok = d.total(|s| s.ok);
        cluster_layers(
            ctx,
            &mut m,
            &fleet,
            &served,
            &d.nominal,
            answered_ok,
            before,
            want,
        )?;
    } else {
        serving::end_to_end(&mut m, &setup, &d, &k);
    }
    let mut p = Vec::new();
    p.push((
        "shards".into(),
        lotus_telemetry::json::Json::Int(SHARDS as i64),
    ));
    serving::graph_properties(&mut p, &[&served], &oracle, 0);
    serving::driven_properties(&mut p, &FANOUT, &d);
    drop(client);
    drop(fleet);
    serving::finish(m, p, &d, &k, setup_wrong, tracer)
}
