//! Inputs of the serve workloads, all made from the workload seed:
//! extracted policies, per-building observation streams drawn from the
//! pipelines' historical rows, seeded sensor faults, and request bodies.
//!
//! The policies come from a child process (`--generate`), so the
//! pipelines' transient memory stays out of the serving process's
//! resident-set figures.

use crate::pipeline::{self, PipelineLayers};
use crate::trace::Tracer;
use crate::util::{derive_seed, json_number, Metrics, Rng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use veri_hvac::env::{POLICY_INPUT_DIM, VALID_RANGES};

/// One observation, in the policy's feature order.
pub type Row = [f64; POLICY_INPUT_DIM];

/// Field names of a request observation, in feature order (the short
/// aliases the serve path accepts).
pub const FIELDS: [&str; POLICY_INPUT_DIM] = [
    "zone_temperature",
    "outdoor_temperature",
    "relative_humidity",
    "wind_speed",
    "solar_radiation",
    "occupant_count",
    "hour_of_day",
];

/// Policies the serve fleet runs: Pittsburgh and Tucson, two seeds each,
/// made as two Pittsburgh/Tucson pairs.
pub const POLICY_SPECS: [(&str, u64); 4] = [
    ("pittsburgh", 0),
    ("tucson", 0),
    ("pittsburgh", 1),
    ("tucson", 1),
];

/// Buildings served per policy.
pub const BUILDINGS_PER_POLICY: usize = 8;

/// Chance per building and step that a sensor fault burst starts. With
/// bursts of 1–8 steps this puts about 1% of observations out of range,
/// and bursts longer than the guard's staleness budget (4) reach its
/// fallback and fail-safe rungs.
const FAULT_BURST_START: f64 = 0.0022;
const FAULT_BURST_MAX: usize = 8;

pub fn policy_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("policy-{i}.dtree"))
}

fn rows_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("rows-{i}.txt"))
}

fn report_path(dir: &Path) -> PathBuf {
    dir.join("generate.txt")
}

/// The `--generate` child: runs the serve fleet's pipelines and writes
/// their policies, historical rows and timings into `dir`. With
/// `trace`, each pipeline also runs traced and must match.
pub fn generate(dir: &Path, seed: u64, trace: bool) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let mut layers = PipelineLayers::default();
    let mut report = String::new();
    for (i, (city, k)) in POLICY_SPECS.iter().enumerate() {
        let config = pipeline::config_for(city, derive_seed(seed, "policy", *k + 10 * i as u64));
        let run = if trace {
            pipeline::run_pair(&config, &mut tracer, &mut layers)?
        } else {
            pipeline::run_untraced(&config)?
        };
        let policy = &run.artifacts.policy;
        write(&policy_path(dir, i), &policy.to_compact_string())?;
        let mut rows = String::new();
        for row in run.artifacts.historical.policy_inputs() {
            let bits: Vec<String> = row.iter().map(|v| format!("{:x}", v.to_bits())).collect();
            rows.push_str(&bits.join(" "));
            rows.push('\n');
        }
        write(&rows_path(dir, i), &rows)?;
        let _ = writeln!(report, "pipeline_ns {}", run.wall_ns);
        let _ = writeln!(report, "plans {}", run.plans);
        let _ = writeln!(report, "nodes {}", policy.tree().node_count());
    }
    if trace {
        layers.summary = tracer.summarize();
        for m in pipeline::layer_metrics(&layers).0 {
            let _ = writeln!(
                report,
                "metric {} {} {}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        let _ = writeln!(report, "trace {}", layers.summary.to_json());
    }
    write(&report_path(dir), &report)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// What the `--generate` child left behind.
pub struct Generated {
    pub policy_texts: Vec<String>,
    pub rows: Vec<Vec<Row>>,
    pub pipeline_ns: Vec<u64>,
    pub plans: Vec<u64>,
    pub nodes: Vec<usize>,
    /// Pipeline layer metrics (traced runs only).
    pub layer_metrics: Metrics,
    /// The pipelines' span summary (traced runs only).
    pub trace_json: Option<String>,
}

/// Runs this program as the `--generate` child and reads its output.
pub fn generate_in_child(dir: &Path, seed: u64, trace: bool) -> Result<Generated, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--generate")
        .arg(dir)
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the policy generator: {e}"))?;
    if !status.success() {
        return Err(format!("policy generator failed: {status}"));
    }
    let mut generated = Generated {
        policy_texts: Vec::new(),
        rows: Vec::new(),
        pipeline_ns: Vec::new(),
        plans: Vec::new(),
        nodes: Vec::new(),
        layer_metrics: Metrics::default(),
        trace_json: None,
    };
    for i in 0..POLICY_SPECS.len() {
        generated.policy_texts.push(read(&policy_path(dir, i))?);
        let rows = read(&rows_path(dir, i))?
            .lines()
            .map(parse_row)
            .collect::<Result<Vec<Row>, String>>()?;
        generated.rows.push(rows);
    }
    for line in read(&report_path(dir))?.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let number = || {
            rest.parse::<u64>()
                .map_err(|_| format!("bad line {line:?}"))
        };
        match key {
            "pipeline_ns" => generated.pipeline_ns.push(number()?),
            "plans" => generated.plans.push(number()?),
            "nodes" => generated.nodes.push(number()? as usize),
            "metric" => {
                let parts: Vec<&str> = rest.split(' ').collect();
                let value = parts
                    .get(1)
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| format!("bad line {line:?}"))?;
                generated
                    .layer_metrics
                    .add(parts[0], value, parts.get(2).copied().unwrap_or(""));
            }
            "trace" => generated.trace_json = Some(rest.to_string()),
            _ => return Err(format!("unexpected line {line:?}")),
        }
    }
    Ok(generated)
}

fn parse_row(line: &str) -> Result<Row, String> {
    let mut row = [0.0; POLICY_INPUT_DIM];
    let mut fields = line.split(' ');
    for slot in &mut row {
        let bits = fields
            .next()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad row {line:?}"))?;
        *slot = f64::from_bits(bits);
    }
    Ok(row)
}

/// One served building: its id, the policy it runs, and its
/// observation stream (one period, replayed cyclically).
pub struct Building {
    pub id: String,
    pub policy: usize,
    pub stream: Vec<Row>,
}

/// Buildings over `rows` (one row set per policy), `per_policy` each.
/// Each stream starts at a seeded offset into its policy's historical
/// rows; seeded fault bursts push readings outside `VALID_RANGES`.
/// Returns the buildings and the number of faulty observations.
pub fn buildings(rows: &[Vec<Row>], per_policy: usize, seed: u64) -> (Vec<Building>, usize) {
    let period = rows
        .iter()
        .map(Vec::len)
        .min()
        .expect("at least one policy");
    let mut rng = Rng::new(derive_seed(seed, "streams", 0));
    let mut faulty = 0;
    let mut out = Vec::new();
    for (p, policy_rows) in rows.iter().enumerate() {
        for _ in 0..per_policy {
            let b = out.len();
            let offset = rng.below(policy_rows.len());
            let mut stream: Vec<Row> = (0..period)
                .map(|k| policy_rows[(offset + k) % policy_rows.len()])
                .collect();
            let mut k = 0;
            while k < period {
                if rng.unit() >= FAULT_BURST_START {
                    k += 1;
                    continue;
                }
                let field = rng.below(POLICY_INPUT_DIM);
                let len = 1 + rng.below(FAULT_BURST_MAX);
                let (lo, hi) = VALID_RANGES[field];
                for row in stream.iter_mut().skip(k).take(len) {
                    let excess = 1.0 + 10.0 * rng.unit();
                    row[field] = if rng.unit() < 0.5 {
                        hi + excess
                    } else {
                        lo - excess
                    };
                    faulty += 1;
                }
                k += len;
            }
            out.push(Building {
                id: format!("bldg-{b:02}"),
                policy: p,
                stream,
            });
        }
    }
    (out, faulty)
}

/// A flat observation object at full `f64` precision (Rust's shortest
/// round-trip formatting, so the server parses back the same bits).
pub fn observation_json(out: &mut String, row: &Row) {
    out.push('{');
    for (i, (name, v)) in FIELDS.iter().zip(row).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push('}');
}

/// The `POST /tick` body for step `k`: every building's observation.
pub fn tick_body(buildings: &[Building], k: usize, copies: usize) -> String {
    let mut out = String::from("{\"requests\":[");
    for copy in 0..copies {
        for (i, b) in buildings.iter().enumerate() {
            if copy > 0 || i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":\"");
            out.push_str(&b.id);
            if copy > 0 {
                let _ = write!(out, "-r{copy}");
            }
            out.push_str("\",\"observation\":");
            observation_json(&mut out, &b.stream[k % b.stream.len()]);
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}

/// The `POST /decide/{tenant}` body for building `b` at step `k`.
pub fn decide_body(b: &Building, k: usize) -> String {
    let mut out = String::with_capacity(256);
    observation_json(&mut out, &b.stream[k % b.stream.len()]);
    out
}
