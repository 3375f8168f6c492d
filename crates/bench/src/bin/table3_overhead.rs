//! Table 3 — online computation overhead: per-decision latency of each
//! deployed controller.
//!
//! Times every setpoint selection over a deployment episode, exactly as
//! the paper does ("for every method, we record the computation time of
//! each setpoint selection"). Absolute numbers depend on hardware; the
//! claim being reproduced is the *ratio* — the decision tree is about
//! three orders of magnitude cheaper than the stochastic-optimizer
//! controllers.
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin table3_overhead [--paper] [--csv]
//! ```

use hvac_bench::{build_artifacts, build_ensemble, fmt, parse_options, City, Scale, Table};
use hvac_telemetry::http::blocking_request;
use std::time::Instant;
use veri_hvac::control::{
    ClueConfig, ClueController, PlanningConfig, RandomShootingConfig, RandomShootingController,
    RuleBasedController,
};
use veri_hvac::env::{ComfortRange, HvacEnv, Policy};
use veri_hvac::pipeline::PipelineArtifacts;
use veri_hvac::stats::{OnlineStats, Quantiles};
use veri_hvac::{serve_fleet, Fleet, FleetOptions};

/// Times `policy` over one deployment episode, returning per-decision
/// latency stats in milliseconds.
fn time_policy<P: Policy>(city: City, steps: usize, policy: &mut P) -> OnlineStats {
    let mut env =
        HvacEnv::new(city.env_config().with_episode_steps(steps)).expect("env construction");
    let mut obs = env.reset();
    let mut stats = OnlineStats::new();
    loop {
        let started = Instant::now();
        let action = policy.decide(&obs);
        stats.push(started.elapsed().as_secs_f64() * 1e3);
        let out = env.step(action).expect("step");
        obs = out.observation;
        if out.done {
            break;
        }
    }
    stats
}

fn main() {
    let options = parse_options();
    let city = City::Pittsburgh;
    // Latency measurement doesn't need a month: limit the episode so the
    // expensive controllers finish promptly, but keep enough samples.
    let steps = match options.scale {
        Scale::Reduced => 2 * 96,
        Scale::Paper => 7 * 96,
    };

    let artifacts = build_artifacts(city, options.scale);
    let env_config = city.env_config();
    let rs_config = RandomShootingConfig {
        samples: options.scale.rs_samples(),
        planning: PlanningConfig::paper_with_schedule(
            env_config.schedule,
            env_config.controlled_zone,
        ),
        ..RandomShootingConfig::paper()
    };

    let mut results: Vec<(&str, OnlineStats)> = Vec::new();

    let mut default_ctl = RuleBasedController::new(ComfortRange::winter());
    results.push(("default", time_policy(city, steps, &mut default_ctl)));

    let mut mbrl =
        RandomShootingController::new(artifacts.model.clone(), rs_config, 1).expect("rs");
    results.push(("mbrl", time_policy(city, steps, &mut mbrl)));

    let ensemble = build_ensemble(&artifacts, options.scale);
    let mut clue = ClueController::new(
        ensemble,
        ClueConfig {
            planner: rs_config,
            ..ClueConfig::paper()
        },
        RuleBasedController::new(ComfortRange::winter()),
        2,
    )
    .expect("clue");
    results.push(("clue", time_policy(city, steps, &mut clue)));

    let mut dt = artifacts.policy.clone();
    results.push(("dt (ours)", time_policy(city, steps, &mut dt)));

    let mut table = Table::new(
        "Table 3: online computation overhead (per setpoint selection)",
        &["controller", "average_ms", "std_ms", "max_ms", "decisions"],
    );
    for (name, stats) in &results {
        table.push_row(vec![
            (*name).to_string(),
            fmt(stats.mean(), 4),
            fmt(stats.sample_std(), 4),
            fmt(stats.max(), 4),
            stats.count().to_string(),
        ]);
    }
    table.emit("table3_overhead", &options);

    let mean_of = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.mean())
            .expect("present")
    };
    let dt_ms = mean_of("dt (ours)");
    println!("\n-- speedups of the DT policy --");
    println!("vs mbrl: {:.0}x", mean_of("mbrl") / dt_ms);
    println!("vs clue: {:.0}x", mean_of("clue") / dt_ms);
    println!("\npaper (for reference, i9-11900KF + RTX 3080Ti): default 0.0 ms, mbrl 212.87 ms, clue 326.30 ms, dt 0.1888 ms → 1127–1728x");
    println!("expected shape: dt within a few hundred microseconds; stochastic planners hundreds-to-thousands of times slower.");

    serve_latency_section(&artifacts, &options);
}

/// Serves the extracted policy over `POST /decide` on a loopback port
/// (as a one-tenant fleet, the way `serve --policy` does) and reports the end-to-end request latency — the paper's Table 3
/// argument carried one step further: the tree is cheap enough that
/// even a full HTTP round-trip stays in the sub-millisecond range.
fn serve_latency_section(artifacts: &PipelineArtifacts, options: &hvac_bench::HarnessOptions) {
    const REQUESTS: usize = 200;
    let fleet = Fleet::new(FleetOptions::default());
    fleet
        .add_tenant("default", artifacts.policy.clone(), None)
        .expect("tenant");
    let server = match serve_fleet(fleet, "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            println!("\n(serve-path latency skipped: cannot bind loopback server: {e})");
            return;
        }
    };
    let before = hvac_telemetry::snapshot();
    let mut wire_ms = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let temp = 15.0 + 10.0 * (i as f64) / (REQUESTS as f64);
        let body = format!(
            r#"{{"zone_temperature":{temp:.3},"hour_of_day":{}}}"#,
            i % 24
        );
        let started = Instant::now();
        let (status, _) =
            blocking_request(server.addr(), "POST", "/decide", &body).expect("loopback request");
        wire_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "decide request failed");
    }
    let after = hvac_telemetry::snapshot();
    let handler = match before.histograms.get("serve.decide.ns") {
        Some(b) => after.histograms["serve.decide.ns"].delta(b),
        None => after.histograms["serve.decide.ns"].clone(),
    };
    server.shutdown();

    let wire = Quantiles::from_samples(&wire_ms).expect("wire samples");
    let mut table = Table::new(
        "Serve path: POST /decide latency over loopback HTTP",
        &["segment", "p50_ms", "p99_ms", "max_ms", "requests"],
    );
    table.push_row(vec![
        "handler (decide only)".to_string(),
        fmt(handler.quantile(0.50) as f64 / 1e6, 4),
        fmt(handler.quantile(0.99) as f64 / 1e6, 4),
        fmt(handler.max as f64 / 1e6, 4),
        handler.count.to_string(),
    ]);
    table.push_row(vec![
        "wire (client round-trip)".to_string(),
        fmt(wire.quantile(0.50), 4),
        fmt(wire.quantile(0.99), 4),
        fmt(wire.quantile(1.0), 4),
        wire.len().to_string(),
    ]);
    table.emit("table3_serve_latency", options);
    println!("(handler quantiles come from the serve.decide.ns histogram; wire time adds loopback TCP + HTTP parsing.)");
}
