//! The repository benchmark: one workload per run, every answer checked,
//! every metric printed by name and unit.
//!
//! ```text
//! lotus-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--setup-reps <n>] [--plant-wrong] --scratch <dir> --out-dir <dir>
//! ```
//!
//! Prints one JSON line on stdout: `correct`, `attempted`, `failed`,
//! `metrics` (name → value: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones the workload exercises), the workload's
//! `properties`, and the `headline` latency the traced run's overhead is
//! measured on. Exits 1 on a wrong answer and 2 when the workload cannot
//! run. `perfbench/run.py` builds it, runs it, and gives every metric its
//! unit from `BENCHMARK.json`.

mod check;
mod cluster;
mod layers;
mod measure;
mod openloop;
mod serving;
mod tc;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use lotus_telemetry::json::Json;

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
    pub plant_wrong: bool,
    pub scratch: PathBuf,
    pub out_dir: PathBuf,
}

/// What a workload reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub properties: Vec<(String, Json)>,
    pub headline: f64,
    pub tracer: trace::Tracer,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        if key == "plant-wrong" {
            args.insert(key, "1".into());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        args.insert(key, value);
    }
    let get = |k: &str| args.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str, v: String| {
        v.parse::<f64>()
            .map_err(|_| format!("--{k}: not a number: {v}"))
    };
    let seconds = num("seconds", get("seconds")?)?;
    let workload = get("workload")?;
    // Serving set-ups take tens of milliseconds, the offline graph seconds.
    let default_reps = if workload == "tc-skewed" { 3 } else { 5 };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Ctx {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds,
        trace: get("trace")? == "1",
        setup_reps: args.get("setup-reps").map_or(Ok(default_reps), |v| {
            v.parse().map_err(|_| "bad --setup-reps".to_string())
        })?,
        plant_wrong: args.contains_key("plant-wrong"),
        scratch: PathBuf::from(get("scratch")?),
        out_dir: PathBuf::from(get("out-dir")?),
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("lotus-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for dir in [&ctx.scratch, &ctx.out_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("lotus-perfbench: creating {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let outcome = match ctx.workload.as_str() {
        "tc-skewed" => tc::run(&ctx),
        "serve-hot" => serving::hot(&ctx),
        "serve-churn" => serving::churn(&ctx),
        "cluster-fanout" => cluster::run(&ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lotus-perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(2);
        }
    };
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value)| ((*name).to_string(), Json::Float(*value)))
        .collect();
    let mut properties = vec![
        ("workload".to_string(), Json::Str(ctx.workload.clone())),
        ("seed".to_string(), Json::Int(ctx.seed as i64)),
        ("seconds".to_string(), Json::Float(ctx.seconds)),
    ];
    properties.extend(
        measure::machine()
            .into_iter()
            .map(|(k, v)| (k, Json::Str(v))),
    );
    properties.extend(outcome.properties);
    if ctx.trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = outcome.tracer.write(&path) {
            eprintln!("lotus-perfbench: writing {}: {e}", path.display());
        }
        properties.push(("spans".into(), Json::Str(path.display().to_string())));
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Int(outcome.attempted as i64)),
        ("failed".into(), Json::Int(outcome.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
        ("properties".into(), Json::Obj(properties)),
        ("headline".into(), Json::Float(outcome.headline)),
    ]);
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
