//! The serve workloads: fleet set-up, closed-loop HTTP load against an
//! in-process `serve_fleet`, the correctness gate, and the traced
//! in-process replays that split a request into its layers.

use crate::inputs::{tick_body, Building, Row};
use crate::trace::{Summary, Tracer};
use crate::util::{median_ns, ns_since, Histogram, Metrics};
use hvac_telemetry::http::{BlockingClient, HttpServer};
use hvac_telemetry::json::{parse, JsonValue, ObjectWriter};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use veri_hvac::audit::{policy_hash, sha256, AuditChain, Auditor, ChainConfig, FlushPolicy};
use veri_hvac::control::{DtPolicy, GuardConfig, GuardRoute, GuardState, GuardedPolicy};
use veri_hvac::env::{Observation, Policy, SetpointAction};
use veri_hvac::fleet::{serve_fleet, Fleet, FleetOptions, TickDecision};
use veri_hvac::serve::{decide_json_traced, observation_from_value};

/// One decision as the gate compares it: heating, cooling, guard rung.
pub type Decision = [u8; 3];

fn decision(action: SetpointAction, state: GuardState) -> Decision {
    [
        action.heating() as u8,
        action.cooling() as u8,
        state.as_gauge() as u8,
    ]
}

fn policy_of<'a>(policies: &'a [DtPolicy], b: &Building) -> &'a DtPolicy {
    &policies[b.policy]
}

/// The guard a fleet tenant runs, built the way `Fleet::add_tenant`
/// builds it: the reference every served decision is replayed against.
fn reference_guard(policy: &DtPolicy) -> GuardedPolicy<DtPolicy> {
    GuardedPolicy::new(
        policy.clone(),
        GuardConfig::new(FleetOptions::default().comfort),
    )
}

/// A serving fleet and the load generator's first keep-alive connection.
pub struct Served {
    pub server: HttpServer,
    pub client: BlockingClient,
    /// From the first policy-file parse to the first `200` on
    /// `GET /healthz`.
    pub setup_ns: u64,
}

/// Loads every tenant's policy file (`DtPolicy::from_compact_string`:
/// kernel compile plus equivalence proof), opens its chain when
/// `audit_dir` is set, binds `serve_fleet`, and waits for `/healthz`.
pub fn set_up(
    buildings: &[Building],
    policy_files: &[PathBuf],
    audit_dir: Option<PathBuf>,
) -> Result<Served, String> {
    let started = Instant::now();
    let fleet = Fleet::new(FleetOptions {
        audit_dir,
        ..FleetOptions::default()
    });
    for b in buildings {
        let path = &policy_files[b.policy];
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let policy = DtPolicy::from_compact_string(&text)
            .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        fleet.add_tenant(&b.id, policy, None)?;
    }
    let server = serve_fleet(fleet, "127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let mut client =
        BlockingClient::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    for attempt in 0.. {
        match client.request("GET", "/healthz", &[], "") {
            Ok((200, _, _)) => break,
            _ if attempt < 200 => {
                std::thread::sleep(Duration::from_millis(5));
                client = BlockingClient::connect(server.addr())
                    .map_err(|e| format!("cannot connect: {e}"))?;
            }
            other => return Err(format!("/healthz never answered 200: {other:?}")),
        }
    }
    Ok(Served {
        server,
        client,
        setup_ns: ns_since(started),
    })
}

/// What a load phase measured. Everything it needs is allocated
/// before the run's resident-set baseline is read, so the load adds no
/// memory of its own to `rss_mb`.
pub struct Load {
    /// Round trips of the timed phase.
    pub rtt: Histogram,
    /// Decisions completed per second of the timed phase.
    pub decisions_per_s: f64,
    /// Decisions each request carries.
    pub decisions_per_request: usize,
    /// Decision requests sent, warm-up included.
    pub attempted: u64,
    /// Non-200 answers, transport failures, unreadable bodies, and
    /// decisions that disagree with the reference replay.
    pub failed: u64,
    /// The first failure, for the report.
    pub failure: Option<String>,
    /// The per-building `GuardedPolicy` replay every decision is
    /// checked against.
    reference: Reference,
}

impl Load {
    pub fn new(
        decisions_per_request: usize,
        buildings: &[Building],
        policies: &[DtPolicy],
    ) -> Self {
        Self {
            rtt: Histogram::default(),
            decisions_per_s: 0.0,
            decisions_per_request,
            attempted: 0,
            failed: 0,
            failure: None,
            reference: Reference {
                guards: buildings
                    .iter()
                    .map(|b| reference_guard(policy_of(policies, b)))
                    .collect(),
                served: vec![0; buildings.len()],
            },
        }
    }

    /// Requests each building was served, warm-up included.
    pub fn served(&self) -> &[usize] {
        &self.reference.served
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failure.get_or_insert(why);
    }

    /// Closes the timed phase that began at `started`.
    fn finish(&mut self, started: Instant) {
        self.decisions_per_s = (self.rtt.count() * self.decisions_per_request as u64) as f64
            / started.elapsed().as_secs_f64();
    }
}

/// Replays each building's observation stream through its own guard,
/// in the order the building is served.
struct Reference {
    guards: Vec<GuardedPolicy<DtPolicy>>,
    served: Vec<usize>,
}

impl Reference {
    /// Steps building `b` one observation and checks the served decision.
    fn check(&mut self, buildings: &[Building], b: usize, got: Decision) -> Result<(), String> {
        let stream = &buildings[b].stream;
        let k = self.served[b];
        self.served[b] += 1;
        let guard = &mut self.guards[b];
        let action = guard.decide(&Observation::from_vector(&stream[k % stream.len()]));
        guard.take_transitions();
        let want = decision(action, guard.state());
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "step {k} of {}: served {got:?}, the replay says {want:?}",
                buildings[b].id
            ))
        }
    }
}

/// Reads `"key":` followed by an unsigned integer or a string.
fn scan_field<'a>(body: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let start = body.find(key)? + key.len();
    let rest = &body[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        let end = quoted.find('"')?;
        Some((&quoted[..end], &quoted[end..]))
    } else {
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        Some((&rest[..end], &rest[end..]))
    }
}

/// Calls `each` on the decisions of a `/decide` or `/tick` response
/// body, in order; returns how many it read.
fn scan_decisions(
    mut body: &str,
    mut each: impl FnMut(usize, Decision) -> Result<(), String>,
) -> Result<usize, String> {
    let mut n = 0;
    while let Some((heating, rest)) = scan_field(body, "\"heating_setpoint\":") {
        let parsed = (|| {
            let (cooling, rest) = scan_field(rest, "\"cooling_setpoint\":")?;
            let (state, rest) = scan_field(rest, "\"guard_state\":")?;
            let d = [
                heating.parse().ok()?,
                cooling.parse().ok()?,
                GuardState::from_name(state)?.as_gauge() as u8,
            ];
            Some((d, rest))
        })();
        let (d, rest) = parsed.ok_or("unreadable decision in the response")?;
        each(n, d)?;
        n += 1;
        body = rest;
    }
    Ok(n)
}

/// One request of a closed loop: sends it, times the round trip, and
/// checks every decision in the answer against the reference replay.
fn exchange(
    load: &mut Load,
    client: &mut BlockingClient,
    path: &str,
    body: &str,
    buildings: &[Building],
    tenants: &[usize],
    timed: bool,
) -> bool {
    load.attempted += 1;
    let started = Instant::now();
    let answer = client.request("POST", path, &[], body);
    let rtt = ns_since(started);
    let checked = match answer {
        Ok((200, _, text)) => {
            let reference = &mut load.reference;
            scan_decisions(&text, |i, d| {
                let b = *tenants.get(i).ok_or("more decisions than requested")?;
                reference.check(buildings, b, d)
            })
            .and_then(|n| {
                (n == tenants.len())
                    .then_some(())
                    .ok_or(format!("{n} decisions for {} requested", tenants.len()))
            })
        }
        Ok((status, _, text)) => Err(format!("{path} answered {status}: {text}")),
        Err(e) => Err(format!("{path} failed: {e}")),
    };
    match checked {
        Ok(()) => {
            if timed {
                load.rtt.record(rtt);
            }
            true
        }
        Err(why) => {
            load.fail(why);
            false
        }
    }
}

/// One keep-alive client sending lockstep `POST /tick` bodies in order.
pub fn load_tick(
    load: &mut Load,
    client: &mut BlockingClient,
    buildings: &[Building],
    bodies: &[String],
    warmup: usize,
    seconds: f64,
) {
    let tenants: Vec<usize> = (0..buildings.len()).collect();
    let mut k = 0;
    let mut send = |load: &mut Load, timed| {
        k += 1;
        exchange(
            load,
            client,
            "/tick",
            &bodies[(k - 1) % bodies.len()],
            buildings,
            &tenants,
            timed,
        )
    };
    if !(0..warmup).all(|_| send(load, false)) {
        return;
    }
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        if !send(load, true) {
            return;
        }
    }
    load.finish(started);
}

/// One keep-alive client cycling closed-loop through every building with
/// `POST /decide/{tenant}`, one step of each building's stream per
/// round.
pub fn load_decide(
    load: &mut Load,
    client: &mut BlockingClient,
    buildings: &[Building],
    bodies: &[Vec<String>],
    warmup: usize,
    seconds: f64,
) {
    let paths: Vec<String> = buildings
        .iter()
        .map(|b| format!("/decide/{}", b.id))
        .collect();
    let mut j = 0;
    let mut send = |load: &mut Load, timed| {
        let b = j % buildings.len();
        let body = &bodies[b][(j / buildings.len()) % bodies[b].len()];
        j += 1;
        exchange(load, client, &paths[b], body, buildings, &[b], timed)
    };
    if !(0..warmup).all(|_| send(load, false)) {
        return;
    }
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        if !send(load, true) {
            return;
        }
    }
    load.finish(started);
}

/// Bodies of `POST /decide/{tenant}`, per building per step.
pub fn decide_bodies(buildings: &[Building]) -> Vec<Vec<String>> {
    buildings
        .iter()
        .map(|b| {
            (0..b.stream.len())
                .map(|k| crate::inputs::decide_body(b, k))
                .collect()
        })
        .collect()
}

/// Appends a decision (after the ladder moves that led to it) the way
/// the fleet does.
fn append(
    chain: &AuditChain,
    guard: &mut GuardedPolicy<DtPolicy>,
    row: &Row,
    action: SetpointAction,
    state: GuardState,
) -> std::io::Result<()> {
    for t in guard.take_transitions() {
        chain.append_transition(t.from.name(), t.to.name())?;
    }
    let index = guard.inner().action_space().index_of(action);
    chain.append_decision(
        *row,
        action.heating() as u64,
        action.cooling() as u64,
        index as u64,
        state.name(),
        None,
    )
}

/// Records `policy`'s guarded decisions over the first `steps`
/// observations of `rows` (replayed cyclically) into a sealed chain at
/// `path`, as a fleet tenant serving that stream would.
pub fn record_chain(
    path: &Path,
    policy: &DtPolicy,
    rows: &[Row],
    steps: usize,
) -> Result<(), String> {
    let chain = AuditChain::create(path, &policy_hash(policy), "", ChainConfig::default())
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut guard = reference_guard(policy);
    for row in rows.iter().cycle().take(steps) {
        let action = guard.decide(&Observation::from_vector(row));
        let state = guard.state();
        append(&chain, &mut guard, row, action, state).map_err(|e| format!("chain append: {e}"))?;
    }
    chain.seal().map_err(|e| format!("chain seal: {e}"))
}

/// Audits each chain with replay against its policy, as an auditor
/// would (`Auditor::new(text).with_policy(p).run()`); every chain must
/// pass, sealed. Returns (records, auditor ns) per chain.
pub fn audit_chains(chains: &[(PathBuf, &DtPolicy)]) -> Result<Vec<(u64, u64)>, String> {
    let mut out = Vec::new();
    for (path, policy) in chains {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let started = Instant::now();
        let report = Auditor::new(&text).with_policy(policy).run();
        let ns = ns_since(started);
        if !report.passed() {
            return Err(format!(
                "chain {} fails its audit: {:?}",
                path.display(),
                report.first_failure()
            ));
        }
        out.push((text.lines().count() as u64, ns));
    }
    Ok(out)
}

/// Auditor µs per record over all the chains.
pub fn audit_rate_us(per_chain: &[(u64, u64)]) -> f64 {
    let (records, ns) = per_chain
        .iter()
        .fold((0, 0), |(r, n), &(cr, cn)| (r + cr, n + cn));
    ns as f64 / 1e3 / records as f64
}

/// A fleet built directly (no HTTP) for in-process replay.
fn replay_fleet(
    buildings: &[Building],
    policies: &[DtPolicy],
    audit_dir: Option<PathBuf>,
) -> Result<Fleet, String> {
    let fleet = Fleet::new(FleetOptions {
        audit_dir,
        ..FleetOptions::default()
    });
    for b in buildings {
        fleet.add_tenant(&b.id, policy_of(policies, b).clone(), None)?;
    }
    Ok(fleet)
}

/// The `POST /tick` handler's body validation: tenant names and
/// observations out of the parsed body.
fn tick_requests(value: &JsonValue) -> Result<Vec<(String, Observation)>, String> {
    let requests = value
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or("body has no requests array")?;
    requests
        .iter()
        .map(|r| {
            let tenant = r
                .get("tenant")
                .and_then(JsonValue::as_str)
                .ok_or("no tenant")?;
            let obs = observation_from_value(r.get("observation").ok_or("no observation")?)?;
            Ok((tenant.to_string(), obs))
        })
        .collect()
}

/// The `POST /tick` response, built with `ObjectWriter` as the handler
/// builds it.
fn render_tick(decisions: &[TickDecision], latency_ns: u64) -> String {
    let mut out = String::with_capacity(64 + decisions.len() * 160);
    out.push_str(&format!(
        "{{\"count\":{},\"latency_ns\":{latency_ns},\"decisions\":[",
        decisions.len()
    ));
    for (i, d) in decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = ObjectWriter::new();
        o.str_field("tenant", &d.tenant);
        o.u64_field("heating_setpoint", d.action.heating() as u64);
        o.u64_field("cooling_setpoint", d.action.cooling() as u64);
        o.u64_field("action_index", d.action_index as u64);
        o.str_field("action", &d.action.to_string());
        o.str_field("guard_state", d.state.name());
        out.push_str(&o.finish());
    }
    out.push_str("]}");
    out
}

/// Times of the sub-calls of one lockstep tick, measured in isolation
/// on the same observations.
#[derive(Default)]
struct TickParts {
    guard_ns: u64,
    kernel_ns: u64,
    append_ns: u64,
}

/// Replays one tick on replica guards the way `Fleet::tick` does
/// (route all, batch the policy-arm evaluations per policy, commit all),
/// timing each part, then appends the decisions to two scratch chains.
#[allow(clippy::too_many_arguments)]
fn tick_parts(
    buildings: &[Building],
    policies: &[DtPolicy],
    guards: &mut [GuardedPolicy<DtPolicy>],
    k: usize,
    always: &AuditChain,
    buffered: &AuditChain,
    samples: &mut LayerSamples,
    expected: &mut Vec<Decision>,
) -> Result<TickParts, String> {
    let mut parts = TickParts::default();
    let rows: Vec<&Row> = buildings
        .iter()
        .map(|b| &b.stream[k % b.stream.len()])
        .collect();
    let mut route_ns = vec![0u64; buildings.len()];
    let mut routes = Vec::with_capacity(buildings.len());
    for (b, guard) in guards.iter_mut().enumerate() {
        let obs = Observation::from_vector(rows[b]);
        let started = Instant::now();
        routes.push(guard.route(&obs));
        route_ns[b] = ns_since(started);
    }
    let mut actions: Vec<Option<SetpointAction>> = vec![None; buildings.len()];
    let mut batch = Vec::new();
    for (p, policy) in policies.iter().enumerate() {
        let (slots, observations): (Vec<usize>, Vec<Observation>) = routes
            .iter()
            .enumerate()
            .filter_map(|(b, r)| match r {
                GuardRoute::Policy { observation, .. } if buildings[b].policy == p => {
                    Some((b, *observation))
                }
                _ => None,
            })
            .unzip();
        if slots.is_empty() {
            continue;
        }
        batch.clear();
        let started = Instant::now();
        policy.decide_batch_into(&observations, &mut batch);
        parts.kernel_ns += ns_since(started);
        for (slot, action) in slots.iter().zip(&batch) {
            actions[*slot] = Some(*action);
        }
    }
    for (b, guard) in guards.iter_mut().enumerate() {
        let (state, action) = match routes[b] {
            GuardRoute::Policy { state, .. } => (state, actions[b].expect("batched")),
            GuardRoute::Resolved { state, action } => (state, action),
        };
        let started = Instant::now();
        let action = guard.commit(state, action);
        let ns = route_ns[b] + ns_since(started);
        samples.guard_ns.push(ns);
        parts.guard_ns += ns;
        expected.push(decision(action, state));

        let transitions = guard.take_transitions();
        samples.transitions += transitions.len() as u64;
        let index = guard.inner().action_space().index_of(action) as u64;
        for (chain, per_call, total) in [
            (always, &mut samples.append_ns, Some(&mut parts.append_ns)),
            (buffered, &mut samples.append_buffered_ns, None),
        ] {
            let started = Instant::now();
            for t in &transitions {
                chain
                    .append_transition(t.from.name(), t.to.name())
                    .map_err(|e| format!("scratch chain: {e}"))?;
            }
            let decision_started = Instant::now();
            chain
                .append_decision(
                    *rows[b],
                    action.heating() as u64,
                    action.cooling() as u64,
                    index,
                    state.name(),
                    None,
                )
                .map_err(|e| format!("scratch chain: {e}"))?;
            per_call.push(ns_since(decision_started));
            if let Some(total) = total {
                *total += ns_since(started);
            }
        }
    }
    Ok(parts)
}

/// Per-call samples of the layers timed in isolation.
#[derive(Default)]
struct LayerSamples {
    guard_ns: Vec<u64>,
    kernel_batch_ns: Vec<u64>,
    kernel_single_ns: Vec<u64>,
    append_ns: Vec<u64>,
    append_buffered_ns: Vec<u64>,
    transitions: u64,
}

/// A traced replay's result: its span summary, the untraced end-to-end
/// samples of the same replay, and the layer metrics only it measures.
pub struct Replay {
    pub summary: Summary,
    pub untraced_ns: Vec<u64>,
    pub metrics: Metrics,
    pub units: u64,
}

/// Replays `ticks` lockstep ticks in-process through `json::parse`,
/// body validation, `Fleet::tick` on an audited fleet and response
/// rendering: once untraced, once traced on an identically built fleet.
/// Both must decide exactly as per-building `GuardedPolicy` replicas.
pub fn replay_tick(
    buildings: &[Building],
    policies: &[DtPolicy],
    work: &Path,
    ticks: usize,
) -> Result<Replay, String> {
    let bodies: Vec<String> = (0..ticks).map(|k| tick_body(buildings, k, 1)).collect();
    let tick_once = |fleet: &Fleet, body: &str| -> Result<(Vec<TickDecision>, String), String> {
        let started = Instant::now();
        let value = parse(body).map_err(|e| format!("parse: {e}"))?;
        let requests = tick_requests(&value)?;
        drop(value);
        let decisions = fleet.tick(&requests)?;
        let rendered = render_tick(&decisions, ns_since(started));
        Ok((decisions, rendered))
    };

    let untraced_fleet = replay_fleet(buildings, policies, Some(work.join("replay-untraced")))?;
    let mut untraced_ns = Vec::with_capacity(ticks);
    let mut untraced = Vec::with_capacity(ticks * buildings.len());
    for body in &bodies {
        let started = Instant::now();
        let (decisions, rendered) = tick_once(&untraced_fleet, body)?;
        untraced_ns.push(ns_since(started));
        std::hint::black_box(rendered);
        untraced.extend(decisions.iter().map(|d| decision(d.action, d.state)));
    }
    untraced_fleet.seal_all();

    let dir = work.join("replay-traced");
    let fleet = replay_fleet(buildings, policies, Some(dir.clone()))?;
    let mut guards: Vec<_> = buildings
        .iter()
        .map(|b| reference_guard(policy_of(policies, b)))
        .collect();
    let scratch = |name: &str, flush| {
        let path = work.join(name);
        AuditChain::create(
            &path,
            "scratch",
            "",
            ChainConfig {
                flush,
                ..ChainConfig::default()
            },
        )
        .map(|c| (c, path))
        .map_err(|e| format!("scratch chain: {e}"))
    };
    let (always, always_path) = scratch("scratch-always.jsonl", FlushPolicy::Always)?;
    let (buffered, _) = scratch("scratch-buffered.jsonl", FlushPolicy::OnSeal)?;
    let mut tracer = Tracer::default();
    let mut samples = LayerSamples::default();
    let mut expected = Vec::with_capacity(untraced.len());
    let mut traced = Vec::with_capacity(untraced.len());
    let mut json_bytes = 0usize;
    for (k, body) in bodies.iter().enumerate() {
        json_bytes += body.len();
        let root = tracer.open("request", None);
        let started = Instant::now();
        let (value, _) = tracer.span("json.parse", Some(root), || parse(body));
        let value = value.map_err(|e| format!("parse: {e}"))?;
        let (requests, _) = tracer.span("serve.validate", Some(root), move || {
            let requests = tick_requests(&value);
            drop(value);
            requests
        });
        let requests = requests?;
        let (decisions, tick_span) =
            tracer.span("fleet.tick", Some(root), || fleet.tick(&requests));
        let decisions = decisions?;
        let (rendered, _) = tracer.span("json.render", Some(root), || {
            render_tick(&decisions, ns_since(started))
        });
        tracer.close(root);
        std::hint::black_box(rendered);
        traced.extend(decisions.iter().map(|d| decision(d.action, d.state)));

        let parts = tick_parts(
            buildings,
            policies,
            &mut guards,
            k,
            &always,
            &buffered,
            &mut samples,
            &mut expected,
        )?;
        tracer.estimated("guard.route_commit", tick_span, parts.guard_ns);
        tracer.estimated("dtree.kernel_batch", tick_span, parts.kernel_ns);
        tracer.estimated("audit.append", tick_span, parts.append_ns);
        samples.kernel_batch_ns.push(parts.kernel_ns);
    }
    if traced != expected || untraced != expected {
        return Err("in-process /tick replay disagrees with the GuardedPolicy replay".to_string());
    }
    fleet.seal_all();
    always.seal().map_err(|e| format!("scratch chain: {e}"))?;
    buffered.seal().map_err(|e| format!("scratch chain: {e}"))?;
    let chains: Vec<(PathBuf, &DtPolicy)> = buildings
        .iter()
        .map(|b| (dir.join(format!("{}.jsonl", b.id)), policy_of(policies, b)))
        .collect();
    let records: u64 = audit_chains(&chains)?.iter().map(|c| c.0).sum();
    let chain_bytes: u64 = chains
        .iter()
        .map(|(p, _)| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();

    // SHA-256 over the record lines the scratch chain produced.
    let text = std::fs::read_to_string(&always_path).map_err(|e| format!("scratch chain: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let mut sha_ns = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        for line in &lines {
            std::hint::black_box(sha256(line.as_bytes()));
        }
        sha_ns.push(ns_since(started));
    }

    let summary = tracer.summarize();
    let us = |ns: f64| ns / 1e3;
    let mut m = Metrics::default();
    m.add("json.parse_us", us(summary.dur_median("json.parse")), "us");
    m.add("json.bytes", json_bytes as f64 / ticks as f64, "B");
    m.add(
        "json.render_us",
        us(summary.dur_median("json.render")),
        "us",
    );
    m.add(
        "serve.validate_us",
        us(summary.dur_median("serve.validate")),
        "us",
    );
    m.add("fleet.tick_us", us(summary.dur_median("fleet.tick")), "us");
    m.add(
        "fleet.tick_self_us",
        us(summary.self_median("fleet.tick")),
        "us",
    );
    m.add(
        "dtree.kernel_batch_ns",
        median_ns(&samples.kernel_batch_ns),
        "ns",
    );
    m.add("guard.transitions", samples.transitions as f64, "count");
    m.add("audit.append_us", us(median_ns(&samples.append_ns)), "us");
    m.add(
        "audit.append_buffered_us",
        us(median_ns(&samples.append_buffered_ns)),
        "us",
    );
    m.add("audit.records", records as f64, "count");
    m.add("audit.bytes", chain_bytes as f64, "B");
    m.add(
        "audit.sha256_ns_per_byte",
        median_ns(&sha_ns) / bytes as f64,
        "ns/B",
    );
    Ok(Replay {
        summary,
        untraced_ns,
        metrics: m,
        units: ticks as u64,
    })
}

/// Replays `steps` rounds of one `/decide` per building in-process
/// through `decide_json_traced` (parse, validate, guard, single-row
/// kernel, render), once untraced and once traced on fresh guards. The
/// parse, validation, guard and kernel inside the handler are timed in
/// isolation on the same body against replica guards, which must
/// decide exactly as the handler did.
pub fn replay_decide(
    buildings: &[Building],
    policies: &[DtPolicy],
    steps: usize,
) -> Result<Replay, String> {
    let bodies = decide_bodies(buildings);
    let fresh = || -> Vec<Mutex<GuardedPolicy<DtPolicy>>> {
        buildings
            .iter()
            .map(|b| Mutex::new(reference_guard(policy_of(policies, b))))
            .collect()
    };
    let order: Vec<(usize, usize, String)> = (0..steps)
        .flat_map(|k| (0..buildings.len()).map(move |b| (k, b)))
        .map(|(k, b)| (k, b, format!("{k:012x}{b:04x}")))
        .collect();
    let handle = |guard: &Mutex<GuardedPolicy<DtPolicy>>, b: usize, k: usize, trace_id: &str| {
        let body = &bodies[b][k % bodies[b].len()];
        decide_json_traced(guard, None, body, Some(trace_id)).map(|outcome| {
            let tagged = format!(
                "{{\"tenant\":\"{}\",{}",
                buildings[b].id,
                &outcome.body[1..]
            );
            (outcome, tagged)
        })
    };
    let outcome_decision = |o: &veri_hvac::serve::DecideOutcome| -> Decision {
        [o.heating as u8, o.cooling as u8, o.guard_gauge as u8]
    };

    let guards = fresh();
    let mut untraced_ns = Vec::with_capacity(order.len());
    let mut untraced = Vec::with_capacity(order.len());
    for (k, b, id) in &order {
        let started = Instant::now();
        let (outcome, tagged) = handle(&guards[*b], *b, *k, id)?;
        untraced_ns.push(ns_since(started));
        std::hint::black_box(tagged);
        untraced.push(outcome_decision(&outcome));
    }

    let guards = fresh();
    let mut replicas: Vec<_> = buildings
        .iter()
        .map(|b| reference_guard(policy_of(policies, b)))
        .collect();
    let mut tracer = Tracer::default();
    let mut samples = LayerSamples::default();
    let mut traced = Vec::with_capacity(order.len());
    let mut expected = Vec::with_capacity(order.len());
    for (k, b, id) in &order {
        let root = tracer.open("request", None);
        let (answer, handler) = tracer.span("serve.handler", Some(root), || {
            handle(&guards[*b], *b, *k, id)
        });
        tracer.close(root);
        let (outcome, tagged) = answer?;
        std::hint::black_box(tagged);
        traced.push(outcome_decision(&outcome));

        let body = &bodies[*b][k % bodies[*b].len()];
        let started = Instant::now();
        let value = parse(body).map_err(|e| format!("parse: {e}"))?;
        tracer.estimated("json.parse", handler, ns_since(started));
        let started = Instant::now();
        let obs = observation_from_value(&value)?;
        tracer.estimated("serve.validate", handler, ns_since(started));
        let guard = &mut replicas[*b];
        let started = Instant::now();
        let route = guard.route(&obs);
        let route_ns = ns_since(started);
        let (state, action) = match route {
            GuardRoute::Resolved { state, action } => (state, action),
            GuardRoute::Policy { observation, state } => {
                let started = Instant::now();
                let action = policy_of(policies, &buildings[*b]).decide_shared(&observation);
                let ns = ns_since(started);
                samples.kernel_single_ns.push(ns);
                tracer.estimated("dtree.kernel_single", handler, ns);
                (state, action)
            }
        };
        let started = Instant::now();
        let action = guard.commit(state, action);
        let ns = route_ns + ns_since(started);
        samples.guard_ns.push(ns);
        tracer.estimated("guard.route_commit", handler, ns);
        expected.push(decision(action, state));
    }
    if traced != expected || untraced != expected {
        return Err(
            "in-process /decide replay disagrees with the GuardedPolicy replay".to_string(),
        );
    }
    let summary = tracer.summarize();
    let mut m = Metrics::default();
    m.add(
        "serve.handler_us",
        summary.dur_median("serve.handler") / 1e3,
        "us",
    );
    m.add("guard.route_commit_ns", median_ns(&samples.guard_ns), "ns");
    m.add(
        "dtree.kernel_single_ns",
        median_ns(&samples.kernel_single_ns),
        "ns",
    );
    Ok(Replay {
        summary,
        untraced_ns,
        metrics: m,
        units: order.len() as u64,
    })
}

/// Round trips of `GET /healthz` on one keep-alive connection to a
/// one-tenant fleet, µs (median).
pub fn http_rtt_us(buildings: &[Building], policies: &[DtPolicy]) -> Result<f64, String> {
    let fleet = replay_fleet(&buildings[..1], policies, None)?;
    let server = serve_fleet(fleet, "127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let result = (|| {
        let mut client =
            BlockingClient::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
        let mut rtt = Vec::new();
        for i in 0..2200 {
            let started = Instant::now();
            match client.request("GET", "/healthz", &[], "") {
                Ok((200, _, _)) => {}
                other => return Err(format!("/healthz failed: {other:?}")),
            }
            if i >= 200 {
                rtt.push(ns_since(started));
            }
        }
        Ok(median_ns(&rtt) / 1e3)
    })();
    server.shutdown();
    result
}

/// `json::parse` cost per byte at the `/tick` body size of `buildings`
/// and at four times it, and their ratio (1.0 is linear).
pub fn json_scaling(buildings: &[Building]) -> Result<(f64, f64, f64), String> {
    let per_byte = |copies: usize| -> Result<f64, String> {
        let body = tick_body(buildings, 0, copies);
        let mut ns = Vec::new();
        for _ in 0..15 {
            let started = Instant::now();
            let value = parse(&body).map_err(|e| format!("parse: {e}"))?;
            ns.push(ns_since(started));
            drop(value);
        }
        Ok(median_ns(&ns) / body.len() as f64)
    };
    let base = per_byte(1)?;
    let four = per_byte(4)?;
    Ok((base, four, four / base))
}

/// End-to-end metrics of an HTTP load: the median and 90th percentile
/// round trip of the timed phase, and its decision throughput.
pub fn load_metrics(load: &Load, m: &mut Metrics) {
    m.add("p50_us", load.rtt.quantile(0.5) / 1e3, "us");
    m.add("p90_us", load.rtt.quantile(0.9) / 1e3, "us");
    m.add("decisions_per_s", load.decisions_per_s, "1/s");
}
