//! The Veri-HVAC benchmark: one command for both paths of the system.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tick-audited|decide --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Nothing is reported unless every output passed its
//! correctness gate. See `perfbench/README.md` for the workloads and the
//! definition of every metric.

mod inputs;
mod pipeline;
mod serve;
mod trace;
mod util;

use crate::inputs::{Building, POLICY_SPECS};
use crate::trace::Summary;
use crate::util::{hwm_mib, json_number, json_string, median, median_ns, rss_mib, Metrics};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use veri_hvac::control::DtPolicy;

/// Fleet set-ups per serve run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests sent before timing starts.
const TICK_WARMUP: usize = 50;
const DECIDE_WARMUP: usize = 500;
/// Periods of each building's served decisions the decide workload
/// records and audits.
const DECIDE_AUDIT_PERIODS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TickAudited,
    Decide,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "tick-audited" => Ok(Self::TickAudited),
            "decide" => Ok(Self::Decide),
            other => Err(format!("unknown workload {other:?} (tick-audited, decide)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::TickAudited => "tick-audited",
            Self::Decide => "decide",
        }
    }
}

struct Args {
    workload: Option<Workload>,
    generate: Option<PathBuf>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        generate: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value()?)?),
            "--generate" => args.generate = Some(PathBuf::from(value()?)),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && args.generate.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// What a run reports, once its gate has passed.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    meta: Vec<(&'static str, String)>,
    traces: Vec<(&'static str, String)>,
}

impl Outcome {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            meta: Vec::new(),
            traces: Vec::new(),
        }
    }

    fn meta(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.meta.push((key, value.to_string()));
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<Self, String> {
        let path = Path::new("perfbench")
            .join(".work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.generate {
        if let Err(e) = inputs::generate(dir, args.seed, args.trace) {
            eprintln!("perfbench --generate: {e}");
            std::process::exit(1);
        }
        return;
    }
    let workload = args.workload.expect("checked by parse_args");
    let started = Instant::now();
    let result =
        WorkDir::new(workload.name()).and_then(|work| run_serve_workload(workload, &args, &work.0));
    match result {
        Ok(mut outcome) => {
            outcome.meta("wall_s", json_number(started.elapsed().as_secs_f64()));
            report(workload, &args, &outcome);
        }
        Err(e) => {
            eprintln!("perfbench: {} failed its gate: {e}", workload.name());
            std::process::exit(1);
        }
    }
}

/// Prints the metadata line, writes the run record under
/// `perfbench/out/`, and prints the result line last.
fn report(workload: Workload, args: &Args, outcome: &Outcome) {
    let mut meta = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"rustc\":{},\"commit\":{}",
        json_string(workload.name()),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(&commit()),
    );
    for (key, value) in &outcome.meta {
        let _ = write!(meta, ",\"{key}\":{value}");
    }
    meta.push('}');
    for m in &outcome.metrics.0 {
        eprintln!("{:>32} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    let mut record = format!("{{\"meta\":{meta},\"result\":{result},\"traces\":{{");
    for (i, (name, json)) in outcome.traces.iter().enumerate() {
        if i > 0 {
            record.push(',');
        }
        let _ = write!(record, "\"{name}\":{json}");
    }
    record.push_str("}}\n");
    let out = Path::new("perfbench").join("out");
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{{\"meta\": {meta}}}");
    println!("{result}");
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn parse_policies(texts: &[String]) -> Result<Vec<DtPolicy>, String> {
    texts
        .iter()
        .map(|t| DtPolicy::from_compact_string(t).map_err(|e| format!("policy: {e}")))
        .collect()
}

fn fault_share(buildings: &[Building], faulty: usize) -> f64 {
    faulty as f64 / buildings.iter().map(|b| b.stream.len()).sum::<usize>() as f64
}

fn run_serve_workload(workload: Workload, args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let generated = inputs::generate_in_child(work, args.seed, args.trace)?;
    let (buildings, faulty) =
        inputs::buildings(&generated.rows, inputs::BUILDINGS_PER_POLICY, args.seed);
    let period = buildings[0].stream.len();
    out.meta("tenants", buildings.len());
    out.meta("policies", POLICY_SPECS.len());
    out.meta("tree_nodes", format!("{:?}", generated.nodes));
    out.meta("period_steps", period);
    out.meta("fault_share", json_number(fault_share(&buildings, faulty)));
    out.meta("pipelines", generated.pipeline_ns.len());
    out.meta("planner_decisions", generated.plans.iter().sum::<u64>());

    if args.trace {
        let policies = parse_policies(&generated.policy_texts)?;
        let (tick, decide) = traced_serve(&buildings, &policies, work, period, &mut out)?;
        let mine = if workload == Workload::TickAudited {
            &tick
        } else {
            &decide
        };
        out.attempted = tick.units + decide.units;
        out.metrics.add(
            "pipeline.run_s",
            median_ns(&generated.pipeline_ns) / 1e9,
            "s",
        );
        out.metrics.0.extend(generated.layer_metrics.0);
        accounting(&mine.summary, &mine.untraced_ns, &mut out.metrics);
        out.traces.push(("tick", tick.summary.to_json()));
        out.traces.push(("decide", decide.summary.to_json()));
        if let Some(json) = generated.trace_json {
            out.traces.push(("pipeline", json));
        }
        out.meta("replay_units", mine.units);
        return Ok(out);
    }

    let audited = workload == Workload::TickAudited;
    let policy_files: Vec<PathBuf> = (0..POLICY_SPECS.len())
        .map(|i| inputs::policy_path(work, i))
        .collect();
    let tick_bodies: Vec<String> = if audited {
        (0..period)
            .map(|k| inputs::tick_body(&buildings, k, 1))
            .collect()
    } else {
        Vec::new()
    };
    let decide_bodies = if audited {
        Vec::new()
    } else {
        serve::decide_bodies(&buildings)
    };
    let body_bytes: Vec<usize> = if audited {
        tick_bodies.iter().map(String::len).collect()
    } else {
        decide_bodies.iter().flatten().map(String::len).collect()
    };
    out.meta(
        "mean_body_bytes",
        json_number(body_bytes.iter().sum::<usize>() as f64 / body_bytes.len() as f64),
    );
    let policies = parse_policies(&generated.policy_texts)?;
    let per_request = if audited { buildings.len() } else { 1 };
    let mut load = serve::Load::new(per_request, &buildings, &policies);
    let rss_before = rss_mib();

    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let audit_dir = audited.then(|| work.join(format!("chains-{i}")));
        let s = serve::set_up(&buildings, &policy_files, audit_dir)?;
        setups.push(s.setup_ns as f64 / 1e9);
        if i + 1 < SETUPS {
            s.server.shutdown();
        } else {
            served = Some(s);
        }
    }
    let mut served = served.expect("at least one set-up");
    if audited {
        serve::load_tick(
            &mut load,
            &mut served.client,
            &buildings,
            &tick_bodies,
            TICK_WARMUP,
            args.seconds,
        );
    } else {
        serve::load_decide(
            &mut load,
            &mut served.client,
            &buildings,
            &decide_bodies,
            DECIDE_WARMUP,
            args.seconds,
        );
    }
    // Graceful shutdown drains the workers, then seals every chain.
    served.server.shutdown();
    let rss_mb = hwm_mib() - rss_before;
    out.attempted = load.attempted;
    out.failed = load.failed;
    if let Some(why) = &load.failure {
        return Err(format!(
            "{} of {} requests failed; first: {why}",
            load.failed, load.attempted
        ));
    }

    // The decide fleet keeps no chain: record the decisions it served
    // (all checked against the replay) as its tenants would have.
    let chain_dir = if audited {
        work.join(format!("chains-{}", SETUPS - 1))
    } else {
        let dir = work.join("decide-chains");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (b, &steps) in buildings.iter().zip(load.served()) {
            let path = dir.join(format!("{}.jsonl", b.id));
            // Four periods per building bound the auditor's work.
            let steps = steps.min(DECIDE_AUDIT_PERIODS * b.stream.len());
            serve::record_chain(&path, &policies[b.policy], &b.stream, steps)?;
        }
        dir
    };
    let chains: Vec<(PathBuf, &DtPolicy)> = buildings
        .iter()
        .map(|b| {
            (
                chain_dir.join(format!("{}.jsonl", b.id)),
                &policies[b.policy],
            )
        })
        .collect();
    let audited_chains = serve::audit_chains(&chains)?;

    let m = &mut out.metrics;
    m.add("setup_s", median(&setups), "s");
    serve::load_metrics(&load, m);
    m.add(
        "audit_verify_us_per_record",
        serve::audit_rate_us(&audited_chains),
        "us",
    );
    m.add("rss_mb", rss_mb, "MiB");
    out.meta("timed_requests", load.rtt.count());
    out.meta(
        "audited_records",
        audited_chains.iter().map(|c| c.0).sum::<u64>(),
    );
    out.meta("setups", SETUPS);
    Ok(out)
}

/// The traced in-process replays every workload runs over its policies
/// and observation streams, plus the isolated probes (HTTP round trip,
/// JSON scaling). Returns the tick and decide replays.
fn traced_serve(
    buildings: &[Building],
    policies: &[DtPolicy],
    work: &Path,
    steps: usize,
    out: &mut Outcome,
) -> Result<(serve::Replay, serve::Replay), String> {
    let tick = serve::replay_tick(buildings, policies, work, steps)?;
    let decide = serve::replay_decide(buildings, policies, steps)?;
    let m = &mut out.metrics;
    m.add(
        "http.rtt_us",
        serve::http_rtt_us(buildings, policies)?,
        "us",
    );
    m.0.extend(tick.metrics.0.iter().cloned());
    m.0.extend(decide.metrics.0.iter().cloned());
    let (base, four, ratio) = serve::json_scaling(buildings)?;
    m.add("json.parse_ns_per_byte", base, "ns/B");
    m.add("json.parse_ns_per_byte_4x", four, "ns/B");
    m.add("json.parse_scaling", ratio, "ratio");
    Ok((tick, decide))
}

/// Layer accounting of the workload's own unit of work: the traced
/// end-to-end median, the sum of the layers' median self times, the
/// residual between them, and the tracing overhead against the
/// untraced median of the same replay.
fn accounting(summary: &Summary, untraced_ns: &[u64], m: &mut Metrics) {
    let traced = summary.unit_median();
    let untraced = median_ns(untraced_ns);
    let sum = summary.self_sum();
    m.add("layers.e2e_traced_us", traced / 1e3, "us");
    m.add("layers.e2e_untraced_us", untraced / 1e3, "us");
    m.add("layers.self_sum_us", sum / 1e3, "us");
    m.add("layers.residual_us", (traced - sum) / 1e3, "us");
    m.add(
        "layers.tracing_overhead_pct",
        100.0 * (traced / untraced - 1.0),
        "%",
    );
    for name in summary.self_ns.keys() {
        eprintln!(
            "{:>32} {:>16.1} us self (median per unit)",
            name,
            summary.self_median(name) / 1e3
        );
    }
}
