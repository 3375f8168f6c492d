//! Serve-path latency with the tamper-evident audit chain off vs. on,
//! across flush policies.
//!
//! Every audited decision pays one hash-chained JSONL append
//! (`AuditChain::append_decision`); how often that append reaches the
//! OS is the `--audit-flush` policy. This bench serves the same toy
//! policy (a one-tenant fleet, as `serve --policy` does) once per
//! variant over loopback HTTP — plain, then audited
//! under `always` (the durable default), `every-n=64` (batched), and
//! `interval-ms=25` (clock-driven) — fires the same request mix at
//! each, and reports client-observed p50/p99 per decision plus the
//! chain's own `audit.append.ns` histogram. The acceptance target is
//! p99 overhead under 10% for the default policy.
//!
//! Results land in `BENCH_serve_audit.json`.
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin serve_audit [--paper] [--csv]
//! ```

use hvac_bench::{fmt, parse_options, Scale, Table};
use hvac_telemetry::http::blocking_request;
use hvac_telemetry::json::ObjectWriter;
use std::path::PathBuf;
use std::time::Instant;
use veri_hvac::audit::FlushPolicy;
use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{ActionSpace, SetpointAction, POLICY_INPUT_DIM};
use veri_hvac::{serve_fleet, Fleet, FleetOptions};

/// The serve tests' toy tree: cold zones heat hard, warm zones idle.
fn toy_policy() -> DtPolicy {
    let space = ActionSpace::new();
    let heat = space.index_of(SetpointAction::new(23, 30).unwrap());
    let off = space.index_of(SetpointAction::off());
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..20 {
        let temp = 14.0 + f64::from(i) * 0.5;
        let mut row = vec![0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = temp;
        inputs.push(row);
        labels.push(if temp < 20.0 { heat } else { off });
    }
    let tree = DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap();
    DtPolicy::new(tree).unwrap()
}

/// Fires `n` decisions at a freshly served policy (audited into
/// `audit_dir` under `flush` when a directory is given) and returns the
/// client-observed per-request latencies in microseconds, sorted
/// ascending.
fn time_requests(audit_dir: Option<PathBuf>, flush: FlushPolicy, n: usize) -> Vec<f64> {
    let fleet = Fleet::new(FleetOptions {
        audit_dir,
        audit_flush: flush,
        ..FleetOptions::default()
    });
    fleet
        .add_tenant("default", toy_policy(), None)
        .expect("tenant");
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    // Warm up the accept loop and the policy path off the clock.
    for _ in 0..20 {
        let (status, _) =
            blocking_request(addr, "POST", "/decide", r#"{"zone_temperature":18.0}"#).unwrap();
        assert_eq!(status, 200);
    }
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let body = format!(r#"{{"zone_temperature":{}}}"#, 14 + i % 12);
        let started = Instant::now();
        let (status, _) = blocking_request(addr, "POST", "/decide", &body).unwrap();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        assert_eq!(status, 200);
    }
    server.shutdown();
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile of an ascending sample vector.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the request mix through a fresh audited server under `flush`
/// and returns sorted latencies.
fn time_audited(flush: FlushPolicy, label: &str, decisions: usize) -> Vec<f64> {
    let dir = std::env::temp_dir().join(format!(
        "hvac-bench-serve-audit-{label}-{}",
        std::process::id()
    ));
    // A fresh directory: the fleet would resume a leftover chain.
    let _ = std::fs::remove_dir_all(&dir);
    let samples = time_requests(Some(dir.clone()), flush, decisions);
    let _ = std::fs::remove_dir_all(&dir);
    samples
}

fn main() {
    let options = parse_options();
    let decisions = match options.scale {
        Scale::Reduced => 400,
        Scale::Paper => 2000,
    };

    let plain = time_requests(None, FlushPolicy::Always, decisions);
    let (p50_off, p99_off) = (percentile(&plain, 0.50), percentile(&plain, 0.99));

    // Audited variants, one per flush policy. The in-process append
    // histogram is deltaed across the `always` run only (the default
    // configuration the overhead target applies to).
    let before = hvac_telemetry::snapshot();
    let always = time_audited(FlushPolicy::Always, "always", decisions);
    let append = hvac_telemetry::snapshot().histograms["audit.append.ns"].delta(
        &before
            .histograms
            .get("audit.append.ns")
            .cloned()
            .unwrap_or_default(),
    );
    let every_n = time_audited(FlushPolicy::EveryN(64), "every-n", decisions);
    let interval = time_audited(FlushPolicy::IntervalMs(25), "interval-ms", decisions);

    let mut table = Table::new(
        "Serve latency per decision by audit flush policy (client-observed, loopback HTTP)",
        &["audit", "p50_us", "p99_us", "max_us", "p99_vs_off_pct"],
    );
    table.push_row(vec![
        "off".to_string(),
        fmt(p50_off, 1),
        fmt(p99_off, 1),
        fmt(*plain.last().unwrap(), 1),
        "-".to_string(),
    ]);
    let mut json = ObjectWriter::new();
    json.str_field("bench", "serve_audit");
    json.str_field("scale", options.scale.label());
    json.u64_field("decisions", decisions as u64);
    json.f64_field("p50_off_us", p50_off);
    json.f64_field("p99_off_us", p99_off);
    let mut default_overheads = (0.0, 0.0);
    for (label, key, samples) in [
        ("always", "always", &always),
        ("every-n=64", "every_n_64", &every_n),
        ("interval-ms=25", "interval_ms_25", &interval),
    ] {
        let (p50_on, p99_on) = (percentile(samples, 0.50), percentile(samples, 0.99));
        let p50_overhead = 100.0 * (p50_on - p50_off) / p50_off;
        let p99_overhead = 100.0 * (p99_on - p99_off) / p99_off;
        if label == "always" {
            default_overheads = (p50_overhead, p99_overhead);
        }
        table.push_row(vec![
            label.to_string(),
            fmt(p50_on, 1),
            fmt(p99_on, 1),
            fmt(*samples.last().unwrap(), 1),
            fmt(p99_overhead, 1),
        ]);
        json.f64_field(&format!("p50_{key}_us"), p50_on);
        json.f64_field(&format!("p99_{key}_us"), p99_on);
        json.f64_field(&format!("p50_{key}_overhead_pct"), p50_overhead);
        json.f64_field(&format!("p99_{key}_overhead_pct"), p99_overhead);
    }
    table.emit("serve_audit", &options);
    println!(
        "\naudit overhead (always): p50 {:+.1}%, p99 {:+.1}% over {decisions} decisions",
        default_overheads.0, default_overheads.1
    );
    println!(
        "chain append (in-process, always): {} records, p50 {} ns, p99 {} ns",
        append.count,
        append.quantile(0.50),
        append.quantile(0.99)
    );

    // Keep the legacy field names so existing dashboards read the
    // default-policy numbers unchanged.
    json.f64_field("p50_on_us", percentile(&always, 0.50));
    json.f64_field("p99_on_us", percentile(&always, 0.99));
    json.f64_field("p50_overhead_pct", default_overheads.0);
    json.f64_field("p99_overhead_pct", default_overheads.1);
    json.u64_field("append_count", append.count);
    json.u64_field("append_p50_ns", append.quantile(0.50));
    json.u64_field("append_p99_ns", append.quantile(0.99));
    let body = json.finish();
    let path = "BENCH_serve_audit.json";
    std::fs::write(path, format!("{body}\n")).expect("write bench json");
    println!("wrote {path}");
}
