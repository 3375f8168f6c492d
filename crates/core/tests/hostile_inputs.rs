//! Seeded randomized hostile-input tests for the serving surface and
//! the policy stack.
//!
//! Ten thousand mutated JSON bodies per seed go through
//! [`veri_hvac::serve::observation_from_json`] and
//! [`veri_hvac::serve::decide_json_traced`]; ten thousand hostile observations
//! (NaN, ±∞, subnormals, absurd magnitudes) go through
//! [`DtPolicy::decide`] raw and wrapped in a [`GuardedPolicy`]. The
//! contract under attack is the same everywhere: **no panic**, and
//! every outcome is either a valid decision or a structured error.
//!
//! The generator is a hand-rolled xorshift64* so the suite stays
//! std-only and every failure replays from its printed seed.

use std::sync::Mutex;

use veri_hvac::control::{DtPolicy, GuardConfig, GuardedPolicy};
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{
    ActionSpace, ComfortRange, Disturbances, Observation, Policy, SetpointAction, COOLING_RANGE,
    HEATING_RANGE, POLICY_INPUT_DIM,
};
use veri_hvac::serve::{decide_json_traced, observation_from_json};

const BODIES_PER_SEED: usize = 10_000;
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

/// xorshift64* — deterministic, seed-replayable, no dependencies.
struct XorShift64Star(u64);

impl XorShift64Star {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value drawn from a hostile distribution: plausible readings,
    /// absurd magnitudes, NaN, infinities, subnormals and exact zeros.
    fn hostile_f64(&mut self) -> f64 {
        match self.below(8) {
            0 => self.f64_unit() * 50.0 - 10.0,
            1 => self.f64_unit() * 2e9 - 1e9,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::MIN_POSITIVE / 2.0,
            6 => 0.0,
            _ => f64::from_bits(self.next_u64()),
        }
    }
}

/// A well-formed decide body, the starting point for mutation.
fn valid_body(rng: &mut XorShift64Star) -> String {
    let fields: Vec<String> = feature::NAMES
        .iter()
        .map(|name| format!("\"{name}\":{:.3}", rng.f64_unit() * 40.0 - 5.0))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Mutates a valid body into something hostile. Every branch is a
/// shape real clients actually send when broken.
fn mutate_body(rng: &mut XorShift64Star, base: &str) -> String {
    const TOKENS: [&str; 10] = [
        "NaN",
        "Infinity",
        "-Infinity",
        "1e999",
        "-1e999",
        "null",
        "\"21\"",
        "[]",
        "{}",
        "1e",
    ];
    match rng.below(6) {
        // Truncate mid-token.
        0 => base[..rng.below(base.len() + 1)].to_string(),
        // Flip a few bytes to arbitrary values.
        1 => {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..=rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] = (rng.next_u64() & 0xFF) as u8;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Splice a hostile token at a random position.
        2 => {
            let i = rng.below(base.len() + 1);
            let mut s = base.to_string();
            s.insert_str(i, TOKENS[rng.below(TOKENS.len())]);
            s
        }
        // Replace one field's value with a hostile literal.
        3 => {
            let name = feature::NAMES[rng.below(POLICY_INPUT_DIM)];
            let token = TOKENS[rng.below(TOKENS.len())];
            let fields: Vec<String> = feature::NAMES
                .iter()
                .map(|n| {
                    if *n == name {
                        format!("\"{n}\":{token}")
                    } else {
                        format!("\"{n}\":21.0")
                    }
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        // Pure garbage bytes.
        4 => {
            let len = rng.below(64);
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Drop a random number of fields.
        _ => {
            let keep = rng.below(POLICY_INPUT_DIM + 1);
            let fields: Vec<String> = feature::NAMES
                .iter()
                .take(keep)
                .map(|n| format!("\"{n}\":21.0"))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// Cold zones → heat, warm zones → off: enough structure for the tree
/// to exercise real split paths under attack.
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
    let tree =
        DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).expect("fit");
    DtPolicy::new(tree).expect("policy")
}

fn assert_legal(action: SetpointAction, context: &str) {
    assert!(
        HEATING_RANGE.contains(&action.heating()) && COOLING_RANGE.contains(&action.cooling()),
        "{context}: illegal action {action:?}"
    );
}

#[test]
fn mutated_bodies_never_panic_the_observation_parser() {
    for seed in SEEDS {
        let mut rng = XorShift64Star::new(seed);
        for i in 0..BODIES_PER_SEED {
            let base = valid_body(&mut rng);
            let body = mutate_body(&mut rng, &base);
            match observation_from_json(&body) {
                Ok(obs) => {
                    // Anything accepted must be fully finite: the
                    // parser is the first line of the NaN defense.
                    assert!(
                        obs.to_vector().iter().all(|v| v.is_finite()),
                        "seed {seed:#x} body {i}: non-finite observation accepted: {body:?}"
                    );
                }
                Err(message) => {
                    assert!(
                        !message.is_empty(),
                        "seed {seed:#x} body {i}: empty error for {body:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn mutated_decide_bodies_yield_a_decision_or_a_structured_error() {
    let policy = Mutex::new(GuardedPolicy::new(
        toy_policy(),
        GuardConfig::new(ComfortRange::winter()),
    ));
    for seed in SEEDS {
        let mut rng = XorShift64Star::new(seed);
        for i in 0..BODIES_PER_SEED {
            let base = valid_body(&mut rng);
            let body = mutate_body(&mut rng, &base);
            match decide_json_traced(&policy, None, &body, None).map(|outcome| outcome.body) {
                Ok(response) => {
                    for key in ["heating_setpoint", "cooling_setpoint", "guard_state"] {
                        assert!(
                            response.contains(key),
                            "seed {seed:#x} body {i}: decision missing {key}: {response}"
                        );
                    }
                }
                Err(message) => {
                    assert!(
                        !message.is_empty(),
                        "seed {seed:#x} body {i}: empty error for {body:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn hostile_observations_never_panic_raw_or_guarded_policies() {
    let mut raw = toy_policy();
    let mut guarded = GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
    for seed in SEEDS {
        let mut rng = XorShift64Star::new(seed);
        for i in 0..BODIES_PER_SEED {
            let obs = Observation::new(
                rng.hostile_f64(),
                Disturbances {
                    outdoor_temperature: rng.hostile_f64(),
                    relative_humidity: rng.hostile_f64(),
                    wind_speed: rng.hostile_f64(),
                    solar_radiation: rng.hostile_f64(),
                    occupant_count: rng.hostile_f64(),
                    hour_of_day: rng.hostile_f64(),
                },
            );
            // The bare tree must stay panic-free even on NaN paths
            // (comparisons send NaN down a deterministic branch)...
            assert_legal(raw.decide(&obs), &format!("raw, seed {seed:#x} obs {i}"));
            // ...and the guard must both survive and stay legal.
            assert_legal(
                guarded.decide(&obs),
                &format!("guarded, seed {seed:#x} obs {i}"),
            );
        }
    }
}

/// The malformed-tree corpus: every shape of broken policy file the
/// loaders must reject with a typed error — cycles, dangling child
/// indices, non-finite thresholds, truncations — plus seeded random
/// mutations of a valid artifact (`dtree v1`). The contract is the
/// hostile-input contract everywhere: **no panic**, **no loop**, every
/// outcome a parsed tree or a structured error.
#[test]
fn malformed_tree_corpus_is_rejected_not_served() {
    let dtree_corpus: &[(&str, &str)] = &[
        (
            "cycle (self-referencing split)",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 1\nS 0 20.0 0 0\n",
        ),
        (
            "cycle (two-node loop)",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 2\nS 0 20.0 1 1\nS 1 5.0 0 0\n",
        ),
        (
            "bad child index",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nS 0 20.0 9 2\nL 0 10\nL 1 10\n",
        ),
        (
            "NaN threshold",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nS 0 NaN 1 2\nL 0 10\nL 1 10\n",
        ),
        (
            "infinite threshold",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nS 0 inf 1 2\nL 0 10\nL 1 10\n",
        ),
        ("truncated (header only)", "dtree v1\n"),
        (
            "truncated (missing node)",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nS 0 20.0 1 2\nL 0 10\n",
        ),
        (
            "truncated mid-line",
            "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nS 0 20.0\n",
        ),
    ];
    for (what, text) in dtree_corpus {
        let err = DecisionTree::from_compact_string(text)
            .expect_err(&format!("corpus entry must be rejected: {what}"));
        assert!(!err.to_string().is_empty(), "{what}: empty error message");
    }

    // Seeded random mutations of a *valid* artifact: flip, drop or
    // duplicate one line, or corrupt one numeric field. Either the
    // parse fails with a typed error, or it succeeds and the parsed
    // tree still serves hostile observations without panicking.
    let valid = toy_policy().tree().to_compact_string();
    let lines: Vec<&str> = valid.lines().collect();
    for seed in SEEDS {
        let mut rng = XorShift64Star::new(seed);
        for i in 0..500 {
            let mut mutated: Vec<String> = lines.iter().map(ToString::to_string).collect();
            match rng.below(4) {
                0 => {
                    let k = rng.below(mutated.len());
                    mutated.remove(k);
                }
                1 => {
                    let k = rng.below(mutated.len());
                    let line = mutated[k].clone();
                    mutated.insert(k, line);
                }
                2 => {
                    let k = rng.below(mutated.len());
                    mutated[k] = mutated[k].replace(['0', '1', '2'], "999999");
                }
                _ => {
                    let k = rng.below(mutated.len());
                    mutated.truncate(k);
                }
            }
            let text = format!("{}\n", mutated.join("\n"));
            if let Ok(tree) = DecisionTree::from_compact_string(&text) {
                let x = [rng.hostile_f64(); POLICY_INPUT_DIM];
                // A mutation that survives parsing must still be safe
                // to walk (the typed-error paths, never a panic).
                let _ = tree.predict(&x);
            } else {
                // Rejected: that is the point of the corpus.
            }
            let _ = i;
        }
    }
}
