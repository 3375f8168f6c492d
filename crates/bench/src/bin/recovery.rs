//! Crash-recovery and hot-reload cost: how long a torn chain takes to
//! recover as it grows, and how much a manifest swap pauses a loaded
//! fleet.
//!
//! Part 1 tears the final record of sealed chains of 1 k / 10 k /
//! 100 k decisions and times `AuditChain::recover` over each
//! (best-of-reps, file rebuilt between reps). Recovery re-verifies
//! every record exactly once, so wall time must grow linearly: the
//! acceptance gate is per-record cost at 100 k within 3× of per-record
//! cost at 1 k (a quadratic scan would blow this by orders of
//! magnitude).
//!
//! Part 2 hammers an 8-tenant in-process fleet with lockstep `tick`
//! batches from worker threads while the main thread reloads the
//! manifest (one tenant's policy flipping each time). The roster swap
//! holds the write lock ticks ride on, so any pause shows up directly
//! in tick latency: the gate is tick p99 under 50 ms across the
//! reload storm.
//!
//! Results land in `BENCH_recovery.json`.
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin recovery [--paper]
//! ```

use hvac_bench::{parse_options, Scale};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use veri_hvac::audit::{AuditChain, ChainConfig, FlushPolicy};
use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{ActionSpace, Disturbances, Observation, SetpointAction, POLICY_INPUT_DIM};
use veri_hvac::{Fleet, FleetOptions, TenantSpec};

/// The serve benches' toy tree with a tunable split.
fn toy_policy(split: f64) -> DtPolicy {
    let space = ActionSpace::new();
    let heat = space.index_of(SetpointAction::new(23, 30).unwrap());
    let off = space.index_of(SetpointAction::off());
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        let temp = 12.0 + f64::from(i) * 0.5;
        let mut row = vec![0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = temp;
        inputs.push(row);
        labels.push(if temp < split { heat } else { off });
    }
    let tree = DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap();
    DtPolicy::new(tree).unwrap()
}

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hvac-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bytes of a sealed `records`-decision chain with its final record
/// torn mid-write — the crash fixture recovery is timed over.
fn torn_chain_bytes(dir: &std::path::Path, records: usize) -> Vec<u8> {
    let path = dir.join(format!("fixture-{records}.jsonl"));
    let chain = AuditChain::create(
        &path,
        "abababababababababababababababababababababababababababababababab",
        "cert-0",
        ChainConfig {
            checkpoint_every: 256,
            // Buffered: fixture construction is off the clock and the
            // seal flushes everything.
            flush: FlushPolicy::OnSeal,
        },
    )
    .unwrap();
    for i in 0..records {
        let mut x = [0.0f64; POLICY_INPUT_DIM];
        x[feature::ZONE_TEMPERATURE] = 14.0 + (i % 160) as f64 * 0.063;
        chain
            .append_decision(x, 23, 30, 3, "normal", Some(&format!("req-{i:08x}")))
            .unwrap();
    }
    chain.seal().unwrap();
    drop(chain);
    let mut bytes = std::fs::read(&path).unwrap();
    // Tear the seal record roughly in half: a torn tail recovery must
    // truncate and replace with a recovery record.
    let last_line = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    bytes.truncate(last_line + (bytes.len() - last_line) / 2);
    let _ = std::fs::remove_file(&path);
    bytes
}

struct RecoveryPoint {
    records: usize,
    bytes: usize,
    best_ms: f64,
    per_record_us: f64,
}

fn time_recovery(dir: &std::path::Path, records: usize, reps: usize) -> RecoveryPoint {
    let fixture = torn_chain_bytes(dir, records);
    let path = dir.join(format!("recover-{records}.jsonl"));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        // recover() mutates the file, so each rep starts from the
        // pristine torn bytes.
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&fixture).unwrap();
        f.sync_all().unwrap();
        drop(f);
        let start = Instant::now();
        let (chain, report) = AuditChain::recover(
            &path,
            ChainConfig {
                checkpoint_every: 256,
                flush: FlushPolicy::Always,
            },
        )
        .expect("fixture must recover");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert!(report.truncated_bytes > 0, "fixture must be torn");
        assert_eq!(report.decisions, records as u64);
        std::mem::forget(chain); // keep the timed region recovery-only
        best = best.min(elapsed);
    }
    let _ = std::fs::remove_file(&path);
    RecoveryPoint {
        records,
        bytes: fixture.len(),
        best_ms: best,
        per_record_us: best * 1e3 / records as f64,
    }
}

struct ReloadPoint {
    reloads: usize,
    ticks: usize,
    tick_p50_ms: f64,
    tick_p99_ms: f64,
    reload_p99_ms: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn reload_swap_pause(dir: &std::path::Path, reloads: usize) -> ReloadPoint {
    const TENANTS: usize = 8;
    let fleet = Arc::new(Fleet::new(FleetOptions {
        audit_dir: Some(dir.join("reload-chains")),
        audit_flush: FlushPolicy::OnSeal,
        ..FleetOptions::default()
    }));
    for i in 0..TENANTS {
        fleet
            .add_tenant(&format!("zone-{i}"), toy_policy(20.0), None)
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            let latencies = Arc::clone(&latencies);
            std::thread::spawn(move || {
                let mut local = Vec::new();
                let mut step = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<(String, Observation)> = (0..TENANTS)
                        .map(|i| {
                            let temp = 14.0 + ((step + w + i as u64 * 3) % 12) as f64 * 0.5;
                            (
                                format!("zone-{i}"),
                                Observation::new(temp, Disturbances::default()),
                            )
                        })
                        .collect();
                    let start = Instant::now();
                    fleet.tick(&batch).expect("tick over a stable roster");
                    local.push(start.elapsed().as_secs_f64() * 1e3);
                    step += 1;
                }
                latencies.lock().unwrap().extend(local);
            })
        })
        .collect();

    // The reload storm: zone-0 flips policy every round, the other
    // seven tenants ride through unchanged.
    let mut reload_ms = Vec::with_capacity(reloads);
    for round in 0..reloads {
        let split = if round.is_multiple_of(2) { 18.0 } else { 19.0 };
        let mut specs = vec![TenantSpec {
            id: "zone-0".to_string(),
            policy: toy_policy(split),
            certificate: None,
        }];
        for i in 1..TENANTS {
            specs.push(TenantSpec {
                id: format!("zone-{i}"),
                policy: toy_policy(20.0),
                certificate: None,
            });
        }
        let start = Instant::now();
        let report = fleet.reload(specs).expect("reload");
        reload_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(report.changed, vec!["zone-0".to_string()], "round {round}");
        std::thread::sleep(Duration::from_millis(25));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    let mut ticks = Arc::try_unwrap(latencies)
        .expect("workers joined")
        .into_inner()
        .unwrap();
    ticks.sort_by(f64::total_cmp);
    reload_ms.sort_by(f64::total_cmp);
    ReloadPoint {
        reloads,
        ticks: ticks.len(),
        tick_p50_ms: percentile(&ticks, 0.50),
        tick_p99_ms: percentile(&ticks, 0.99),
        reload_p99_ms: percentile(&reload_ms, 0.99),
    }
}

fn main() {
    let options = parse_options();
    let dir = scratch_dir();

    let (lengths, reps): (&[usize], usize) = match options.scale {
        Scale::Reduced => (&[1_000, 10_000, 100_000], 3),
        Scale::Paper => (&[1_000, 10_000, 100_000], 5),
    };
    let points: Vec<RecoveryPoint> = lengths
        .iter()
        .map(|&n| {
            let p = time_recovery(&dir, n, reps);
            println!(
                "recover {:>7} records ({:>9} bytes): {:>8.2} ms ({:.2} µs/record)",
                p.records, p.bytes, p.best_ms, p.per_record_us
            );
            p
        })
        .collect();
    // O(n) gate: per-record cost must not grow with chain length. A
    // second pass over the prefix per torn byte (quadratic) would push
    // this ratio into the hundreds.
    let linear_ratio = points.last().unwrap().per_record_us / points[0].per_record_us;
    let single_pass = linear_ratio < 3.0;
    println!("per-record cost ratio 100k/1k: {linear_ratio:.2} (gate < 3.0)");

    let reload = reload_swap_pause(
        &dir,
        if options.scale == Scale::Paper {
            40
        } else {
            20
        },
    );
    println!(
        "{} reloads under load: {} ticks, tick p50 {:.2} ms p99 {:.2} ms, reload p99 {:.2} ms",
        reload.reloads, reload.ticks, reload.tick_p50_ms, reload.tick_p99_ms, reload.reload_p99_ms
    );
    let swap_ok = reload.tick_p99_ms < 50.0;

    let mut recovery_json = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            recovery_json.push(',');
        }
        recovery_json.push_str(&format!(
            r#"{{"records":{},"bytes":{},"wall_ms":{:.3},"per_record_us":{:.4}}}"#,
            p.records, p.bytes, p.best_ms, p.per_record_us
        ));
    }
    recovery_json.push(']');
    let body = format!(
        concat!(
            "{{\"bench\":\"recovery\",\"scale\":\"{}\",",
            "\"recovery\":{},\"linear_ratio\":{:.3},",
            "\"reload\":{{\"reloads\":{},\"ticks\":{},\"tick_p50_ms\":{:.3},",
            "\"tick_p99_ms\":{:.3},\"reload_p99_ms\":{:.3}}},",
            "\"asserts\":{{\"single_pass_linear\":{},\"swap_pause_under_50ms\":{}}}}}"
        ),
        options.scale.label(),
        recovery_json,
        linear_ratio,
        reload.reloads,
        reload.ticks,
        reload.tick_p50_ms,
        reload.tick_p99_ms,
        reload.reload_p99_ms,
        single_pass,
        swap_ok,
    );
    std::fs::write("BENCH_recovery.json", format!("{body}\n")).expect("write bench json");
    println!("wrote BENCH_recovery.json");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        single_pass,
        "recovery is not single-pass linear: per-record ratio {linear_ratio:.2}"
    );
    assert!(
        swap_ok,
        "reload swap pause too long: tick p99 {:.2} ms (gate 50 ms)",
        reload.tick_p99_ms
    );
}
