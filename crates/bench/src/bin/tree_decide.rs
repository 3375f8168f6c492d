//! Decision latency of the tree kernels: reference enum walk vs the
//! flat compiled kernel, single-decision and batched, plus the
//! end-to-end fleet `/tick` p99 delta the compiled path buys.
//!
//! Every timed path is first checked bit-identical against the enum
//! walk over every input row — a fast kernel that disagrees with
//! the verified tree is not a result, it's a bug. The CI gate
//! (`tree-kernel-smoke`) reads `BENCH_tree_decide.json` and requires
//! `compiled_single_ns < 100`, `compiled_batch_ns < 100`, and
//! `speedup_batch >= 1.25` (a regression tripwire; see EXPERIMENTS.md
//! for why the measured ratio sits well below the aspirational 5× on
//! shared single-vCPU runners).
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin tree_decide [--paper] [--csv]
//! ```

use hvac_bench::{fmt, parse_options, Table};
use hvac_telemetry::json::ObjectWriter;
use std::hint::black_box;
use std::time::Instant;
use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::{prove_equivalence, CompiledTree, DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{ActionSpace, Observation, POLICY_INPUT_DIM};
use veri_hvac::fleet::{Fleet, FleetOptions};
use veri_hvac::stats::Quantiles;

/// splitmix64 — deterministic input generation, no rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fits a policy-shaped tree (7 features, the 90-action class space)
/// on `samples` synthetic rows whose label depends on several
/// interacting features, so the tree grows to a size representative of
/// shipped extraction output (hundreds of nodes, depth ≳ 10) rather
/// than a toy that fits in a couple of cache lines either way.
fn fitted_tree(seed: u64, samples: usize) -> DecisionTree {
    let space = ActionSpace::new();
    let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..samples {
        let mut row = vec![0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = rng.f64_in(10.0, 30.0);
        row[feature::OUTDOOR_TEMPERATURE] = rng.f64_in(-10.0, 35.0);
        row[feature::HOUR_OF_DAY] = rng.f64_in(0.0, 24.0);
        row[feature::OCCUPANT_COUNT] = (rng.next() % 2) as f64;
        let temp_band = ((row[feature::ZONE_TEMPERATURE] - 10.0) / 1.25) as usize;
        let hour_band = row[feature::HOUR_OF_DAY] as usize;
        let cold_out = usize::from(row[feature::OUTDOOR_TEMPERATURE] < 5.0);
        let workday = usize::from((6.0..18.0).contains(&row[feature::HOUR_OF_DAY]));
        inputs.push(row);
        labels.push((temp_band * 97 + hour_band * 13 + cold_out * 7 + workday) % space.len());
    }
    DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).expect("synthetic fit")
}

/// `n` plausible observation rows, flattened for the batch kernel.
fn input_rows(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut rows = Vec::with_capacity(n * POLICY_INPUT_DIM);
    for _ in 0..n {
        let mut row = [0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = rng.f64_in(10.0, 30.0);
        row[feature::OUTDOOR_TEMPERATURE] = rng.f64_in(-10.0, 35.0);
        row[feature::HOUR_OF_DAY] = rng.f64_in(0.0, 24.0);
        row[feature::OCCUPANT_COUNT] = (rng.next() % 2) as f64;
        rows.extend_from_slice(&row);
    }
    rows
}

/// Times `f` over `iters` passes of `count` decisions; ns/decision.
fn time_ns(iters: usize, count: usize, mut f: impl FnMut()) -> f64 {
    // One warm pass primes caches and the branch predictor.
    f();
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / (iters * count) as f64
}

/// p99 per-tick latency (µs) of an in-process fleet over `ticks`
/// lockstep batches, plus the decisions for the identity check.
fn tick_p99_us(
    fleet: &Fleet,
    requests: &[(String, Observation)],
    ticks: usize,
) -> (f64, Vec<(String, u64)>) {
    let mut latencies = Vec::with_capacity(ticks);
    let mut last = Vec::new();
    for _ in 0..ticks {
        let started = Instant::now();
        let decisions = fleet.tick(black_box(requests)).expect("tick");
        latencies.push(started.elapsed().as_nanos() as f64 / 1e3);
        last = decisions
            .iter()
            .map(|d| (d.tenant.clone(), d.action.heating() as u64))
            .collect();
    }
    let q = Quantiles::from_samples(&latencies).expect("latencies");
    (q.quantile(0.99), last)
}

fn main() {
    let options = parse_options();
    let (iters, rows_n, ticks) = match options.scale {
        hvac_bench::Scale::Reduced => (2_000, 1024, 200),
        hvac_bench::Scale::Paper => (20_000, 4096, 1_000),
    };

    let tree = fitted_tree(7, 8_000);
    let kernel = CompiledTree::compile(&tree).expect("compile");
    prove_equivalence(&tree, &kernel).expect("equivalence");
    println!(
        "tree: {} nodes ({} splits, {} leaves, depth {}); equivalence proven",
        tree.node_count(),
        kernel.split_count(),
        kernel.leaf_count(),
        kernel.depth()
    );

    let mut rng = Rng(42);
    let rows = input_rows(&mut rng, rows_n);
    let singles: Vec<&[f64]> = rows.chunks(POLICY_INPUT_DIM).collect();

    // Bit-identity across every timed path before any timing.
    let mut batch_out = Vec::new();
    kernel
        .predict_batch_into(&rows, &mut batch_out)
        .expect("batch");
    for (i, x) in singles.iter().enumerate() {
        let reference = tree.predict(x).expect("walk");
        assert_eq!(reference, kernel.predict(x).expect("compiled"), "row {i}");
        assert_eq!(reference, batch_out[i], "row {i} (batch)");
    }

    let walk_single = time_ns(iters, singles.len(), || {
        for x in &singles {
            black_box(tree.predict(black_box(x)).expect("walk"));
        }
    });
    let compiled_single = time_ns(iters, singles.len(), || {
        for x in &singles {
            black_box(kernel.predict(black_box(x)).expect("compiled"));
        }
    });
    let compiled_batch = time_ns(iters, singles.len(), || {
        kernel
            .predict_batch_into(black_box(&rows), &mut batch_out)
            .expect("batch");
        black_box(&batch_out);
    });

    let speedup_single = walk_single / compiled_single;
    let speedup_batch = walk_single / compiled_batch;

    // End-to-end: a 32-tenant fleet (8 distinct trees × 4 buildings)
    // ticking in lockstep, compiled kernels vs pinned enum walks.
    let compiled_fleet = Fleet::new(FleetOptions::default());
    let walk_fleet = Fleet::new(FleetOptions::default());
    for t in 0..8u64 {
        let tree = fitted_tree(100 + t, 2_000);
        for b in 0..4 {
            let id = format!("b{t}-{b}");
            compiled_fleet
                .add_tenant(&id, DtPolicy::new(tree.clone()).expect("policy"), None)
                .expect("tenant");
            walk_fleet
                .add_tenant(
                    &id,
                    DtPolicy::new_uncompiled(tree.clone()).expect("policy"),
                    None,
                )
                .expect("tenant");
        }
    }
    let mut requests = Vec::new();
    for t in 0..8 {
        for b in 0..4 {
            let mut x = [0.0; POLICY_INPUT_DIM];
            x[feature::ZONE_TEMPERATURE] = rng.f64_in(10.0, 30.0);
            x[feature::HOUR_OF_DAY] = rng.f64_in(0.0, 24.0);
            requests.push((format!("b{t}-{b}"), Observation::from_vector(&x)));
        }
    }
    let (tick_p99_walk, walk_decisions) = tick_p99_us(&walk_fleet, &requests, ticks);
    let (tick_p99_compiled, compiled_decisions) = tick_p99_us(&compiled_fleet, &requests, ticks);
    assert_eq!(
        walk_decisions, compiled_decisions,
        "compiled fleet must tick bit-identically"
    );

    let mut table = Table::new(
        "Tree decision latency: enum walk vs compiled flat kernel",
        &["path", "ns/decide", "speedup"],
    );
    table.push_row(vec!["enum walk".into(), fmt(walk_single, 2), "1.00".into()]);
    table.push_row(vec![
        "compiled".into(),
        fmt(compiled_single, 2),
        fmt(speedup_single, 2),
    ]);
    table.push_row(vec![
        format!("compiled batch ({rows_n})"),
        fmt(compiled_batch, 2),
        fmt(speedup_batch, 2),
    ]);
    table.emit("tree_decide", &options);
    println!(
        "\nfleet /tick p99 (32 tenants): walk {tick_p99_walk:.1} µs → compiled \
         {tick_p99_compiled:.1} µs over {ticks} ticks"
    );

    let mut json = ObjectWriter::new();
    json.str_field("bench", "tree_decide");
    json.str_field("scale", options.scale.label());
    json.u64_field("tree_nodes", tree.node_count() as u64);
    json.u64_field("rows", rows_n as u64);
    json.f64_field("walk_single_ns", walk_single);
    json.f64_field("compiled_single_ns", compiled_single);
    json.f64_field("compiled_batch_ns", compiled_batch);
    json.f64_field("speedup_single", speedup_single);
    json.f64_field("speedup_batch", speedup_batch);
    json.u64_field("tick_tenants", requests.len() as u64);
    json.f64_field("tick_p99_walk_us", tick_p99_walk);
    json.f64_field("tick_p99_compiled_us", tick_p99_compiled);
    let body = json.finish();
    let path = "BENCH_tree_decide.json";
    std::fs::write(path, format!("{body}\n")).expect("write bench json");
    println!("wrote {path}");
}
