//! Graceful degradation around any policy: input validation, last-good
//! holds and a three-rung fallback ladder.
//!
//! The paper's three safety criteria are proved over *clean*
//! observations. [`GuardedPolicy`] is the runtime companion to that
//! offline proof: it checks every incoming reading against the
//! observation-space box ([`hvac_env::VALID_RANGES`]), rejects NaN/∞,
//! holds briefly-missing fields at their last good value, and walks a
//! degradation ladder when the sensor stream stays bad:
//!
//! 1. **Normal / Hold** — the wrapped policy decides (on the original
//!    observation, bit-identically, when nothing was repaired; on the
//!    repaired one while holds are within the staleness budget);
//! 2. **Fallback** — a rule-based controller takes over, holding a
//!    setpoint pair one degree inside each comfort bound so the zone
//!    stays in range regardless of what the sensors claim;
//! 3. **Fail-safe** — when even the occupancy feed is untrustworthy,
//!    that same margin setpoint pair is emitted without consulting the
//!    observation at all.
//!
//! Every guard action is recorded in telemetry: `guard.rejections`,
//! `guard.holds`, `guard.fallbacks`, `guard.failsafes` counters and the
//! `guard.state` gauge (0 = normal, 1 = hold, 2 = fallback,
//! 3 = fail-safe).
//!
//! **Observation NaNs are the guard's job.** A decision tree routes NaN
//! right at every split (`x <= t` is false for NaN) — silently. That
//! accidental asymmetry is not a decision anyone designed, so the
//! contract here is stronger: every observation the guard hands to the
//! wrapped policy is fully finite (rejected fields are held, or the
//! ladder resolves the action without consulting the tree), meaning
//! `Tree::apply` never sees a NaN in production. The `no_nan_ever_reaches_the_wrapped_tree` test pins
//! this down.

use crate::rule_based::RuleBasedController;
use hvac_env::space::feature;
use hvac_env::{ComfortRange, Observation, Policy, SetpointAction, POLICY_INPUT_DIM, VALID_RANGES};
use hvac_telemetry::json::{parse, JsonValue, ObjectWriter};

/// Where the guard currently sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardState {
    /// Every field valid — the wrapped policy decided on the original
    /// observation.
    Normal,
    /// Some fields were repaired from last-good values (all within the
    /// staleness budget) — the wrapped policy decided on the repaired
    /// observation.
    Hold,
    /// At least one field stayed invalid beyond the staleness budget —
    /// the rule-based fallback decided.
    Fallback,
    /// The occupancy feed itself is untrustworthy — the fail-safe
    /// setpoints were emitted.
    FailSafe,
}

impl GuardState {
    /// Gauge encoding (0 = normal … 3 = fail-safe).
    pub fn as_gauge(self) -> u64 {
        match self {
            GuardState::Normal => 0,
            GuardState::Hold => 1,
            GuardState::Fallback => 2,
            GuardState::FailSafe => 3,
        }
    }

    /// Snake-case rung name, for logs and serving responses.
    pub fn name(self) -> &'static str {
        match self {
            GuardState::Normal => "normal",
            GuardState::Hold => "hold",
            GuardState::Fallback => "fallback",
            GuardState::FailSafe => "fail_safe",
        }
    }

    /// Parses a rung back from its [`GuardState::name`] spelling (used
    /// by the offline audit verifier when re-reading chain records).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "normal" => Some(GuardState::Normal),
            "hold" => Some(GuardState::Hold),
            "fallback" => Some(GuardState::Fallback),
            "fail_safe" => Some(GuardState::FailSafe),
            _ => None,
        }
    }
}

/// One recorded movement on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardTransition {
    /// Rung before the decision.
    pub from: GuardState,
    /// Rung after the decision.
    pub to: GuardState,
    /// Zero-based index of the decision that moved the ladder.
    pub decision_index: u64,
}

/// Pending-transition buffer cap: transitions are rare (the ladder has
/// four rungs) and callers drain per decision, but an undrained guard
/// must not grow without bound.
const MAX_PENDING_TRANSITIONS: usize = 1024;

/// Where one observation was routed by the guard's validation pass —
/// the first half of the two-phase [`GuardedPolicy::route`] /
/// [`GuardedPolicy::commit`] API that lets a fleet controller coalesce
/// many tenants' tree evaluations into one batched call between the
/// two phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardRoute {
    /// The wrapped policy must decide on `observation`: the caller
    /// evaluates it (alone or batched across tenants) and passes the
    /// action to [`GuardedPolicy::commit`]. On the `Normal` rung the
    /// observation is the caller's original one, untouched; on `Hold`
    /// it carries the repaired fields.
    Policy {
        /// The observation the wrapped policy must see.
        observation: Observation,
        /// `Normal` or `Hold`.
        state: GuardState,
    },
    /// The guard resolved the decision itself on a degraded rung
    /// (`Fallback` or `FailSafe`); pass `action` straight to
    /// [`GuardedPolicy::commit`].
    Resolved {
        /// The rule-based or fail-safe action.
        action: SetpointAction,
        /// `Fallback` or `FailSafe`.
        state: GuardState,
    },
}

/// Configuration of the input validator and degradation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Per-feature `[lo, hi]` validity box (defaults to
    /// [`hvac_env::VALID_RANGES`]).
    pub bounds: [(f64, f64); POLICY_INPUT_DIM],
    /// How many *consecutive* invalid steps a field may be held at its
    /// last good value before the guard escalates to the fallback rung.
    pub staleness_budget: usize,
    /// Treat the zone-temperature sensor as stuck after this many
    /// consecutive *bit-identical* readings (0 disables the check —
    /// the right setting when serving independent requests, where
    /// repeats are legitimate).
    pub stuck_after: usize,
    /// Dead-reckon the hour-of-day field against its own 15-minute
    /// cadence and reject readings that disagree (off by default; only
    /// sound when `decide` is called once per simulation step).
    pub clock_check: bool,
    /// Tolerated |reported − dead-reckoned| hour gap (wrapping).
    pub clock_tolerance_hours: f64,
    /// Comfort range the fallback rungs defend.
    pub comfort: ComfortRange,
}

impl GuardConfig {
    /// Serve-safe defaults: box + NaN/∞ validation and last-good holds
    /// only. The stuck-sensor and clock checks stay off because
    /// repeated or out-of-cadence requests are legitimate on the wire.
    pub fn new(comfort: ComfortRange) -> Self {
        Self {
            bounds: VALID_RANGES,
            staleness_budget: 4,
            stuck_after: 0,
            clock_check: false,
            clock_tolerance_hours: 1.0,
            comfort,
        }
    }

    /// Episode-monitoring preset: additionally treats 8 consecutive
    /// bit-identical zone readings (2 h) as a stuck sensor and
    /// dead-reckons the clock — sound when `decide` is called once per
    /// 15-minute step.
    pub fn strict(comfort: ComfortRange) -> Self {
        Self {
            stuck_after: 8,
            clock_check: true,
            ..Self::new(comfort)
        }
    }
}

/// Per-instance guard counters (the telemetry counters aggregate across
/// instances; these are exact for one policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Individual field readings rejected by the validator.
    pub rejections: u64,
    /// Field repairs from last-good values.
    pub holds: u64,
    /// Decisions delegated to the rule-based fallback.
    pub fallbacks: u64,
    /// Decisions resolved by the fail-safe setpoints.
    pub failsafes: u64,
}

/// A point-in-time serialization of a guard's mutable state: the
/// ladder rung, the last-good observation fields and their staleness
/// runs, the stuck-sensor and dead-reckoned-clock trackers, the
/// per-instance counters, and the decision count.
///
/// Snapshots make a guard survivable across process restarts: a fleet
/// controller persists one per tenant and rehydrates it with
/// [`GuardedPolicy::restore`] on startup. The *pending transition
/// buffer is deliberately excluded* — transitions are drained into the
/// audit chain per decision, so any still buffered at a crash were
/// never durable evidence to begin with.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardSnapshot {
    /// Rung on the degradation ladder.
    pub state: GuardState,
    /// Last valid reading per feature (the "last-good observation").
    pub last_good: [Option<f64>; POLICY_INPUT_DIM],
    /// Consecutive invalid steps per feature.
    pub invalid_run: [usize; POLICY_INPUT_DIM],
    /// Raw bits of the previous zone reading (stuck-sensor tracker).
    pub last_zone_bits: Option<u64>,
    /// Consecutive bit-identical zone readings.
    pub zone_repeat_run: usize,
    /// Last committed `(heating, cooling)` setpoints.
    pub last_action: Option<(i32, i32)>,
    /// Dead-reckoned hour-of-day expectation.
    pub expected_hour: Option<f64>,
    /// Per-instance counters.
    pub stats: GuardStats,
    /// Total decisions taken through the guard.
    pub decisions: u64,
}

impl GuardSnapshot {
    /// One-line JSON encoding (atomic-write friendly). Absent options
    /// encode as `null` (finite values are the only valid readings, so
    /// `null` is unambiguous); zone bits encode as hex so no `u64`
    /// precision is lost through the JSON float path.
    pub fn to_json_string(&self) -> String {
        let mut o = ObjectWriter::new();
        o.str_field("state", self.state.name());
        let last_good: Vec<f64> = self
            .last_good
            .iter()
            .map(|v| v.unwrap_or(f64::NAN))
            .collect();
        o.f64_array_field("last_good", &last_good);
        let invalid_run: Vec<f64> = self.invalid_run.iter().map(|&v| v as f64).collect();
        o.f64_array_field("invalid_run", &invalid_run);
        let bits = self
            .last_zone_bits
            .map_or_else(String::new, |b| format!("{b:016x}"));
        o.str_field("last_zone_bits", &bits);
        o.u64_field("zone_repeat_run", self.zone_repeat_run as u64);
        let (heating, cooling) = self
            .last_action
            .map_or((f64::NAN, f64::NAN), |(h, c)| (f64::from(h), f64::from(c)));
        o.f64_field("heating", heating);
        o.f64_field("cooling", cooling);
        o.f64_field("expected_hour", self.expected_hour.unwrap_or(f64::NAN));
        o.u64_field("rejections", self.stats.rejections);
        o.u64_field("holds", self.stats.holds);
        o.u64_field("fallbacks", self.stats.fallbacks);
        o.u64_field("failsafes", self.stats.failsafes);
        o.u64_field("decisions", self.decisions);
        o.finish()
    }

    /// Parses a snapshot back from [`GuardSnapshot::to_json_string`]
    /// output.
    ///
    /// # Errors
    ///
    /// Malformed JSON, missing fields, or out-of-domain values.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = parse(text).map_err(|e| format!("bad snapshot JSON: {e:?}"))?;
        let opt_f64 = |key: &str| -> Result<Option<f64>, String> {
            match v.get(key) {
                Some(JsonValue::Null) => Ok(None),
                Some(JsonValue::Number(n)) => Ok(Some(*n)),
                _ => Err(format!("snapshot field {key:?} missing or non-numeric")),
            }
        };
        let u64_of = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("snapshot field {key:?} missing or non-numeric"))
        };
        let opt_array = |key: &str| -> Result<[Option<f64>; POLICY_INPUT_DIM], String> {
            let items = v
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("snapshot field {key:?} missing or not an array"))?;
            if items.len() != POLICY_INPUT_DIM {
                return Err(format!(
                    "snapshot field {key:?} has {} entries, expected {POLICY_INPUT_DIM}",
                    items.len()
                ));
            }
            let mut out = [None; POLICY_INPUT_DIM];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = match item {
                    JsonValue::Null => None,
                    JsonValue::Number(n) => Some(*n),
                    _ => return Err(format!("snapshot field {key:?} has a non-numeric entry")),
                };
            }
            Ok(out)
        };

        let state_name = v
            .get("state")
            .and_then(JsonValue::as_str)
            .ok_or("snapshot field \"state\" missing")?;
        let state = GuardState::from_name(state_name)
            .ok_or_else(|| format!("unknown guard state {state_name:?}"))?;
        let mut invalid_run = [0usize; POLICY_INPUT_DIM];
        for (slot, value) in invalid_run.iter_mut().zip(opt_array("invalid_run")?) {
            let n = value.ok_or("snapshot field \"invalid_run\" has a null entry")?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err("snapshot field \"invalid_run\" has a non-integer entry".to_string());
            }
            *slot = n as usize;
        }
        let bits_text = v
            .get("last_zone_bits")
            .and_then(JsonValue::as_str)
            .ok_or("snapshot field \"last_zone_bits\" missing")?;
        let last_zone_bits = if bits_text.is_empty() {
            None
        } else {
            Some(
                u64::from_str_radix(bits_text, 16)
                    .map_err(|_| format!("bad zone bits {bits_text:?}"))?,
            )
        };
        let last_action = match (opt_f64("heating")?, opt_f64("cooling")?) {
            (Some(h), Some(c)) => Some((h as i32, c as i32)),
            (None, None) => None,
            _ => return Err("snapshot heating/cooling must be both set or both null".to_string()),
        };
        Ok(Self {
            state,
            last_good: opt_array("last_good")?,
            invalid_run,
            last_zone_bits,
            zone_repeat_run: u64_of("zone_repeat_run")? as usize,
            last_action,
            expected_hour: opt_f64("expected_hour")?,
            stats: GuardStats {
                rejections: u64_of("rejections")?,
                holds: u64_of("holds")?,
                fallbacks: u64_of("fallbacks")?,
                failsafes: u64_of("failsafes")?,
            },
            decisions: u64_of("decisions")?,
        })
    }
}

/// Wraps any [`Policy`] with input validation and the degradation
/// ladder described in the module docs.
///
/// On a clean observation stream the wrapper is bit-identical to the
/// wrapped policy: no field is touched, and the inner policy receives
/// the original observation reference.
#[derive(Debug, Clone)]
pub struct GuardedPolicy<P> {
    inner: P,
    config: GuardConfig,
    fallback: RuleBasedController,
    failsafe: SetpointAction,
    name: String,
    last_good: [Option<f64>; POLICY_INPUT_DIM],
    invalid_run: [usize; POLICY_INPUT_DIM],
    last_zone_bits: Option<u64>,
    zone_repeat_run: usize,
    last_action: Option<SetpointAction>,
    expected_hour: Option<f64>,
    state: GuardState,
    stats: GuardStats,
    decisions: u64,
    transitions: Vec<GuardTransition>,
}

/// How close (°C) a bit-repeating zone reading may sit to the last
/// commanded setpoint and still be read as the plant *holding* the
/// zone there rather than a stuck sensor. An ideal-loads plant pins
/// the zone exactly on the active setpoint (bit-identical readings
/// for hours are normal at equilibrium); a sensor frozen anywhere
/// else has no such excuse.
const SETPOINT_PIN_TOLERANCE: f64 = 0.75;

impl<P: Policy> GuardedPolicy<P> {
    /// Wraps `inner` with `config`. The fallback and fail-safe rungs
    /// both hold a setpoint pair one degree *inside* each comfort
    /// bound: the plant's thermostat deadband lets the zone sag a
    /// fraction of a degree below a heating setpoint (and ride above a
    /// cooling one), so holding the exact bounds would park the zone
    /// marginally outside the range it is supposed to defend.
    pub fn new(inner: P, config: GuardConfig) -> Self {
        let hold = SetpointAction::from_clamped(
            config.comfort.lo().ceil() + 1.0,
            config.comfort.hi().floor() - 1.0,
        );
        let fallback = RuleBasedController::with_actions(hold, hold);
        let failsafe = hold;
        let name = format!("guarded({})", inner.name());
        Self {
            inner,
            config,
            fallback,
            failsafe,
            name,
            last_good: [None; POLICY_INPUT_DIM],
            invalid_run: [0; POLICY_INPUT_DIM],
            last_zone_bits: None,
            zone_repeat_run: 0,
            last_action: None,
            expected_hour: None,
            state: GuardState::Normal,
            stats: GuardStats::default(),
            decisions: 0,
            transitions: Vec::new(),
        }
    }

    /// Replaces the fallback rung (e.g. with the setback variant).
    #[must_use]
    pub fn with_fallback(mut self, fallback: RuleBasedController) -> Self {
        self.fallback = fallback;
        self
    }

    /// Current rung on the degradation ladder.
    pub fn state(&self) -> GuardState {
        self.state
    }

    /// Per-instance counters.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Total decisions taken through the guard — the denominator for
    /// [`GuardStats`] and the per-tenant activity readout of a fleet's
    /// `GET /tenants` listing.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Drains the degradation-ladder transitions recorded since the
    /// last call, in decision order, so callers (the serve audit chain)
    /// can turn rung movements into auditable events.
    pub fn take_transitions(&mut self) -> Vec<GuardTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// The configuration in force.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped policy, mutably.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwraps the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Captures the guard's mutable state for crash-safe persistence
    /// (see [`GuardSnapshot`]).
    pub fn snapshot(&self) -> GuardSnapshot {
        GuardSnapshot {
            state: self.state,
            last_good: self.last_good,
            invalid_run: self.invalid_run,
            last_zone_bits: self.last_zone_bits,
            zone_repeat_run: self.zone_repeat_run,
            last_action: self.last_action.map(|a| (a.heating(), a.cooling())),
            expected_hour: self.expected_hour,
            stats: self.stats,
            decisions: self.decisions,
        }
    }

    /// Rehydrates the guard from a [`GuardSnapshot`], discarding any
    /// pending transitions (they were never durable — see the snapshot
    /// docs). After a restore, the guard continues bit-identically to
    /// one that was never serialized.
    ///
    /// # Errors
    ///
    /// A snapshot carrying setpoints outside the action grid.
    pub fn restore(&mut self, snapshot: &GuardSnapshot) -> Result<(), String> {
        let last_action = match snapshot.last_action {
            Some((h, c)) => Some(
                SetpointAction::new(h, c)
                    .map_err(|e| format!("snapshot last_action ({h}, {c}) invalid: {e:?}"))?,
            ),
            None => None,
        };
        self.state = snapshot.state;
        self.last_good = snapshot.last_good;
        self.invalid_run = snapshot.invalid_run;
        self.last_zone_bits = snapshot.last_zone_bits;
        self.zone_repeat_run = snapshot.zone_repeat_run;
        self.last_action = last_action;
        self.expected_hour = snapshot.expected_hour;
        self.stats = snapshot.stats;
        self.decisions = snapshot.decisions;
        self.transitions.clear();
        Ok(())
    }

    /// Wrapping |a − b| distance on the 24-hour circle.
    fn hour_gap(a: f64, b: f64) -> f64 {
        let d = (a - b).rem_euclid(24.0);
        d.min(24.0 - d)
    }

    fn in_bounds(&self, index: usize, value: f64) -> bool {
        let (lo, hi) = self.config.bounds[index];
        value.is_finite() && value >= lo && value <= hi
    }

    /// Validates and (where possible) repairs `x` in place; returns
    /// `(any_repaired, any_exceeded_budget)`.
    fn validate(&mut self, x: &mut [f64; POLICY_INPUT_DIM]) -> (bool, bool) {
        // Stuck-sensor detection runs on the *raw* zone reading so a
        // frozen (or coarsely quantized) sensor is caught even when the
        // frozen value is plausible. Readings pinned at the last
        // commanded setpoint are exempt: an ideal plant at equilibrium
        // legitimately reports the same bits for hours.
        let zone_stuck = if self.config.stuck_after > 0 {
            let reading = x[feature::ZONE_TEMPERATURE];
            let bits = reading.to_bits();
            if self.last_zone_bits == Some(bits) {
                self.zone_repeat_run += 1;
            } else {
                self.zone_repeat_run = 0;
            }
            self.last_zone_bits = Some(bits);
            let pinned = self.last_action.is_some_and(|a| {
                let (heat, cool) = a.as_f64_pair();
                (reading - heat).abs() <= SETPOINT_PIN_TOLERANCE
                    || (reading - cool).abs() <= SETPOINT_PIN_TOLERANCE
            });
            self.zone_repeat_run >= self.config.stuck_after && !pinned
        } else {
            false
        };

        let dead_reckoned = self.expected_hour;
        let mut repaired = false;
        let mut exceeded = false;
        for (i, slot) in x.iter_mut().enumerate() {
            let mut valid = self.in_bounds(i, *slot);
            if valid && i == feature::ZONE_TEMPERATURE && zone_stuck {
                valid = false;
            }
            if valid && i == feature::HOUR_OF_DAY && self.config.clock_check {
                if let Some(expected) = dead_reckoned {
                    if Self::hour_gap(*slot, expected) > self.config.clock_tolerance_hours {
                        valid = false;
                    }
                }
            }

            if valid {
                self.last_good[i] = Some(*slot);
                self.invalid_run[i] = 0;
                continue;
            }

            self.stats.rejections += 1;
            hvac_telemetry::counter("guard.rejections").incr();
            self.invalid_run[i] += 1;
            // The dead-reckoned hour beats a stale one when the clock
            // check is on; every other field holds its last good value.
            let substitute = if i == feature::HOUR_OF_DAY && self.config.clock_check {
                dead_reckoned.or(self.last_good[i])
            } else {
                self.last_good[i]
            };
            match substitute {
                Some(value) if self.invalid_run[i] <= self.config.staleness_budget => {
                    *slot = value;
                    repaired = true;
                    self.stats.holds += 1;
                    hvac_telemetry::counter("guard.holds").incr();
                }
                _ => exceeded = true,
            }
        }

        // Advance the clock expectation: re-anchor on a trusted reading,
        // otherwise dead-reckon forward one 15-minute step.
        if self.config.clock_check {
            let h = feature::HOUR_OF_DAY;
            self.expected_hour = if self.invalid_run[h] == 0 {
                Some((x[h] + 0.25).rem_euclid(24.0))
            } else {
                dead_reckoned.map(|e| (e + 0.25).rem_euclid(24.0))
            };
        }

        (repaired, exceeded)
    }
}

impl<P: Policy> GuardedPolicy<P> {
    /// Phase one of a decision: validates `obs`, walks the ladder, and
    /// either hands back the observation the wrapped policy must
    /// evaluate ([`GuardRoute::Policy`]) or resolves the action on a
    /// degraded rung ([`GuardRoute::Resolved`]). The decision is not
    /// recorded until the matching [`GuardedPolicy::commit`]; exactly
    /// one commit must follow each route.
    ///
    /// [`Policy::decide`] is `route` + inner evaluation + `commit`, so
    /// a caller that batches the inner evaluations across many guards
    /// between the phases stays bit-identical to per-guard `decide`.
    pub fn route(&mut self, obs: &Observation) -> GuardRoute {
        let mut x = obs.to_vector();
        let (repaired, exceeded) = self.validate(&mut x);

        if exceeded {
            // Ladder rung 2 or 3: the stream is broken beyond repair.
            if self.invalid_run[feature::OCCUPANT_COUNT] > self.config.staleness_budget {
                self.stats.failsafes += 1;
                hvac_telemetry::counter("guard.failsafes").incr();
                GuardRoute::Resolved {
                    action: self.failsafe,
                    state: GuardState::FailSafe,
                }
            } else {
                self.stats.fallbacks += 1;
                hvac_telemetry::counter("guard.fallbacks").incr();
                let repaired_obs = Observation::from_vector(&x);
                GuardRoute::Resolved {
                    action: self.fallback.decide(&repaired_obs),
                    state: GuardState::Fallback,
                }
            }
        } else if repaired {
            GuardRoute::Policy {
                observation: Observation::from_vector(&x),
                state: GuardState::Hold,
            }
        } else {
            // Clean path: the wrapped policy sees the caller's
            // observation untouched — bit-identical behavior.
            GuardRoute::Policy {
                observation: *obs,
                state: GuardState::Normal,
            }
        }
    }

    /// Phase two of a decision: records the rung movement, advances the
    /// decision counter, updates the state gauge, and returns `action`.
    /// `state` and `action` come from the matching
    /// [`GuardedPolicy::route`] (with the wrapped policy's action
    /// substituted on the `Policy` arm).
    pub fn commit(&mut self, state: GuardState, action: SetpointAction) -> SetpointAction {
        if state != self.state && self.transitions.len() < MAX_PENDING_TRANSITIONS {
            self.transitions.push(GuardTransition {
                from: self.state,
                to: state,
                decision_index: self.decisions,
            });
        }
        self.decisions += 1;
        self.state = state;
        self.last_action = Some(action);
        hvac_telemetry::gauge("guard.state").set(state.as_gauge());
        action
    }
}

impl<P: Policy> Policy for GuardedPolicy<P> {
    fn decide(&mut self, obs: &Observation) -> SetpointAction {
        match self.route(obs) {
            GuardRoute::Resolved { action, state } => self.commit(state, action),
            GuardRoute::Policy { observation, state } => {
                let action = if state == GuardState::Normal {
                    // Pass the caller's own reference through so the
                    // clean path stays bit-for-bit what the wrapped
                    // policy would have done unwrapped.
                    self.inner.decide(obs)
                } else {
                    self.inner.decide(&observation)
                };
                self.commit(state, action)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }
}

impl<P: Policy> GuardedPolicy<P> {
    /// [`Policy::decide`] with the serving request's trace id threaded
    /// through: identical decision semantics, plus a trace-level
    /// telemetry message stamping the id, the rung that served the
    /// decision, and the chosen setpoints — so a JSONL trace joins
    /// against the flight recorder and the audit chain by id.
    pub fn decide_traced(&mut self, obs: &Observation, trace_id: &str) -> SetpointAction {
        let action = self.decide(obs);
        hvac_telemetry::trace!(
            "guard.decide trace_id={} rung={} heating={} cooling={}",
            trace_id,
            self.state.name(),
            action.heating(),
            action.cooling()
        );
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dt_policy::DtPolicy;
    use hvac_dtree::{DecisionTree, TreeConfig};
    use hvac_env::{ActionSpace, Disturbances};

    /// Cold zones → heat hard, warm zones → off.
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
            DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap();
        DtPolicy::new(tree).unwrap()
    }

    fn obs(zone: f64, step: usize) -> Observation {
        Observation::new(
            zone,
            Disturbances {
                outdoor_temperature: -3.0,
                relative_humidity: 65.0,
                wind_speed: 4.0,
                solar_radiation: 90.0,
                occupant_count: 5.0,
                hour_of_day: (step as f64 * 0.25).rem_euclid(24.0),
            },
        )
    }

    /// The guard's degraded-rung pair: one degree inside each winter
    /// comfort bound ([20, 23.5] → heating 21, cooling 22).
    fn comfort_hold() -> SetpointAction {
        SetpointAction::new(21, 22).unwrap()
    }

    #[test]
    fn clean_inputs_are_bit_identical_to_the_wrapped_policy() {
        let mut raw = toy_policy();
        let mut guarded =
            GuardedPolicy::new(toy_policy(), GuardConfig::strict(ComfortRange::winter()));
        for step in 0..200 {
            // A drifting but plausible zone trace, never bit-repeating.
            let zone = 18.0 + 4.0 * ((step as f64) * 0.37).sin() + step as f64 * 1e-6;
            let o = obs(zone, step);
            assert_eq!(guarded.decide(&o), raw.decide(&o), "step {step}");
            assert_eq!(guarded.state(), GuardState::Normal, "step {step}");
        }
        assert_eq!(guarded.stats(), GuardStats::default());
        assert_eq!(guarded.name(), "guarded(dt)");
        assert!(guarded.is_deterministic());
    }

    #[test]
    fn traced_decide_matches_untraced_decide() {
        let mut plain =
            GuardedPolicy::new(toy_policy(), GuardConfig::strict(ComfortRange::winter()));
        let mut traced =
            GuardedPolicy::new(toy_policy(), GuardConfig::strict(ComfortRange::winter()));
        for step in 0..50 {
            let zone = 17.0 + 3.0 * ((step as f64) * 0.41).sin();
            let o = obs(zone, step);
            assert_eq!(
                traced.decide_traced(&o, "req-trace-eq"),
                plain.decide(&o),
                "step {step}"
            );
            assert_eq!(traced.state(), plain.state(), "step {step}");
        }
    }

    #[test]
    fn nan_reading_is_held_at_last_good_value() {
        let mut guarded =
            GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        // Establish a last-good cold reading → tree heats.
        let warm_up = guarded.decide(&obs(16.0, 0));
        let held = guarded.decide(&obs(f64::NAN, 1));
        assert_eq!(held, warm_up, "held value must reproduce the decision");
        assert_eq!(guarded.state(), GuardState::Hold);
        assert_eq!(guarded.stats().rejections, 1);
        assert_eq!(guarded.stats().holds, 1);
    }

    #[test]
    fn no_nan_ever_reaches_the_wrapped_tree() {
        // The tree walk routes NaN right at every split by IEEE accident,
        // not by design; the *contract* is that observation NaNs are the
        // guard's job. Under a hostile barrage of NaN/∞ in every field,
        // every observation the guard hands to the Policy arm must be
        // fully finite — `Tree::apply` never sees a NaN in production.
        let mut guarded =
            GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        guarded.decide(&obs(19.0, 0)); // seed last-good values
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for step in 1..60 {
            let mut o = obs(19.0 + (step % 3) as f64, step);
            let field = step % (POLICY_INPUT_DIM + 1);
            let value = hostile[step % hostile.len()];
            match field {
                0 => o.zone_temperature = value,
                1 => o.disturbances.outdoor_temperature = value,
                2 => o.disturbances.relative_humidity = value,
                3 => o.disturbances.wind_speed = value,
                4 => o.disturbances.solar_radiation = value,
                5 => o.disturbances.occupant_count = value,
                _ => o.disturbances.hour_of_day = value,
            }
            match guarded.route(&o) {
                GuardRoute::Policy { observation, state } => {
                    assert!(
                        observation.to_vector().iter().all(|v| v.is_finite()),
                        "guard leaked a non-finite field to the policy at step {step}"
                    );
                    let action = guarded.inner_mut().decide(&observation);
                    guarded.commit(state, action);
                }
                GuardRoute::Resolved { action, state } => {
                    // Degraded rung: the wrapped tree is not consulted.
                    guarded.commit(state, action);
                }
            }
        }
        assert!(guarded.stats().rejections > 0, "barrage must be noticed");
    }

    #[test]
    fn out_of_range_reading_is_rejected_like_nan() {
        let mut guarded =
            GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        guarded.decide(&obs(16.0, 0));
        guarded.decide(&obs(51.0, 1)); // spiked: outside the zone box
        assert_eq!(guarded.state(), GuardState::Hold);
        assert_eq!(guarded.stats().rejections, 1);
    }

    #[test]
    fn staleness_budget_escalates_to_the_rule_based_fallback() {
        let config = GuardConfig::new(ComfortRange::winter());
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config);
        guarded.decide(&obs(16.0, 0));
        for k in 1..=budget {
            guarded.decide(&obs(f64::NAN, k));
            assert_eq!(guarded.state(), GuardState::Hold, "within budget, step {k}");
        }
        let degraded = guarded.decide(&obs(f64::NAN, budget + 1));
        assert_eq!(guarded.state(), GuardState::Fallback);
        assert_eq!(degraded, comfort_hold());
        assert!(guarded.stats().fallbacks >= 1);
    }

    #[test]
    fn dead_occupancy_feed_escalates_to_fail_safe() {
        let config = GuardConfig::new(ComfortRange::winter());
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config);
        guarded.decide(&obs(21.0, 0));
        for k in 1..=(budget + 1) {
            let mut o = obs(f64::NAN, k);
            o.disturbances.occupant_count = f64::NAN;
            guarded.decide(&o);
        }
        assert_eq!(guarded.state(), GuardState::FailSafe);
        assert!(guarded.stats().failsafes >= 1);
        // The fail-safe pair is the comfort hold: trivially inside the
        // comfort range, so criteria 2 and 3 hold whatever the sensors
        // claim.
        let mut o = obs(f64::NAN, budget + 2);
        o.disturbances.occupant_count = f64::NAN;
        assert_eq!(guarded.decide(&o), comfort_hold());
    }

    #[test]
    fn guard_recovers_when_the_stream_heals() {
        let config = GuardConfig::new(ComfortRange::winter());
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config);
        let mut raw = toy_policy();
        guarded.decide(&obs(16.0, 0));
        for k in 1..=(budget + 3) {
            guarded.decide(&obs(f64::NAN, k));
        }
        assert_eq!(guarded.state(), GuardState::Fallback);
        let healed = obs(22.0, budget + 4);
        assert_eq!(guarded.decide(&healed), raw.decide(&healed));
        assert_eq!(guarded.state(), GuardState::Normal);
    }

    #[test]
    fn stuck_sensor_is_detected_by_bit_repeats() {
        let mut config = GuardConfig::strict(ComfortRange::winter());
        config.stuck_after = 3;
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config);
        // The same bits forever: plausible value, frozen sensor.
        let mut saw_fallback = false;
        for step in 0..(3 + budget + 2) {
            guarded.decide(&obs(21.5, step));
            saw_fallback |= guarded.state() == GuardState::Fallback;
        }
        assert!(saw_fallback, "stuck sensor must escalate to fallback");
        assert!(guarded.stats().rejections > 0);
    }

    #[test]
    fn clock_skew_is_dead_reckoned_then_escalated() {
        let config = GuardConfig::strict(ComfortRange::winter());
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config);
        // Anchor the clock with two clean steps.
        guarded.decide(&obs(21.0, 0));
        guarded.decide(&obs(21.1, 1));
        // Hour jumps 12 h: rejected, substituted, eventually fallback.
        for k in 2..=(2 + budget + 1) {
            let mut o = obs(21.0 + k as f64 * 0.01, k);
            o.disturbances.hour_of_day = (o.disturbances.hour_of_day + 12.0).rem_euclid(24.0);
            guarded.decide(&o);
        }
        assert_eq!(guarded.state(), GuardState::Fallback);
        assert!(guarded.stats().rejections >= 1);
    }

    #[test]
    fn gauge_and_counters_are_recorded() {
        let before = hvac_telemetry::snapshot();
        let mut guarded =
            GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        guarded.decide(&obs(20.0, 0));
        guarded.decide(&obs(f64::INFINITY, 1));
        let after = hvac_telemetry::snapshot();
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        assert!(delta("guard.rejections") >= 1);
        assert!(delta("guard.holds") >= 1);
        assert!(after.gauges.contains_key("guard.state"));
    }

    #[test]
    fn state_gauge_encoding_is_stable() {
        assert_eq!(GuardState::Normal.as_gauge(), 0);
        assert_eq!(GuardState::Hold.as_gauge(), 1);
        assert_eq!(GuardState::Fallback.as_gauge(), 2);
        assert_eq!(GuardState::FailSafe.as_gauge(), 3);
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for state in [
            GuardState::Normal,
            GuardState::Hold,
            GuardState::Fallback,
            GuardState::FailSafe,
        ] {
            assert_eq!(GuardState::from_name(state.name()), Some(state));
        }
        assert_eq!(GuardState::from_name("panic"), None);
    }

    #[test]
    fn ladder_movements_are_recorded_as_transitions() {
        let config = GuardConfig::new(ComfortRange::winter());
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config);
        guarded.decide(&obs(16.0, 0));
        for k in 1..=(budget + 1) {
            guarded.decide(&obs(f64::NAN, k));
        }
        guarded.decide(&obs(21.0, budget + 2));
        let transitions = guarded.take_transitions();
        // normal → hold (decision 1), hold → fallback, fallback → normal.
        assert_eq!(transitions.len(), 3);
        assert_eq!(
            (
                transitions[0].from,
                transitions[0].to,
                transitions[0].decision_index
            ),
            (GuardState::Normal, GuardState::Hold, 1)
        );
        assert_eq!(
            (transitions[1].from, transitions[1].to),
            (GuardState::Hold, GuardState::Fallback)
        );
        assert_eq!(
            (transitions[2].from, transitions[2].to),
            (GuardState::Fallback, GuardState::Normal)
        );
        // Drained: a second take returns nothing.
        assert!(guarded.take_transitions().is_empty());
    }

    #[test]
    fn route_commit_is_bit_identical_to_decide_across_the_ladder() {
        // Drive two identical guards through a stream that touches
        // every rung: one via `decide`, one via the two-phase
        // route/commit API a fleet batcher uses.
        let mut whole = GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        let mut phased = GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        let budget = whole.config().staleness_budget;
        let mut stream = Vec::new();
        stream.push(obs(16.0, 0));
        stream.push(obs(f64::NAN, 1)); // hold
        stream.push(obs(21.5, 2)); // recover
        for k in 3..(4 + budget + 2) {
            let mut o = obs(f64::NAN, k); // ride past the budget…
            if k > 4 + budget {
                o.disturbances.occupant_count = f64::NAN; // …into fail-safe
            }
            stream.push(o);
        }
        stream.push(obs(19.0, 20)); // recover again
        for (step, o) in stream.iter().enumerate() {
            let expected = whole.decide(o);
            let got = match phased.route(o) {
                GuardRoute::Resolved { action, state } => phased.commit(state, action),
                GuardRoute::Policy { observation, state } => {
                    let action = phased.inner_mut().decide(&observation);
                    phased.commit(state, action)
                }
            };
            assert_eq!(got, expected, "step {step}");
            assert_eq!(phased.state(), whole.state(), "step {step}");
        }
        assert_eq!(phased.stats(), whole.stats());
        assert_eq!(phased.take_transitions(), whole.take_transitions());
    }

    #[test]
    fn snapshot_restore_round_trips_and_continues_bit_identically() {
        // Drive one guard mid-ladder (held fields, live staleness runs,
        // a dead-reckoned clock), snapshot it through JSON, rehydrate a
        // fresh guard, and require identical decisions thereafter.
        let config = GuardConfig::strict(ComfortRange::winter());
        let mut original = GuardedPolicy::new(toy_policy(), config.clone());
        original.decide(&obs(16.0, 0));
        original.decide(&obs(21.3, 1));
        original.decide(&obs(f64::NAN, 2)); // hold: live staleness run
        original.take_transitions();

        let snapshot = original.snapshot();
        let text = snapshot.to_json_string();
        let parsed = GuardSnapshot::from_json_str(&text).unwrap();
        assert_eq!(parsed, snapshot);

        let mut restored = GuardedPolicy::new(toy_policy(), config);
        restored.restore(&parsed).unwrap();
        assert_eq!(restored.state(), original.state());
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.decisions(), original.decisions());

        // Continue both through a stream that exercises the restored
        // staleness runs and clock expectation.
        for step in 3..40 {
            let o = if step < 6 {
                obs(f64::NAN, step) // ride the restored invalid_run
            } else {
                obs(17.0 + (step as f64) * 0.2, step)
            };
            assert_eq!(restored.decide(&o), original.decide(&o), "step {step}");
            assert_eq!(restored.state(), original.state(), "step {step}");
        }
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.take_transitions(), original.take_transitions());
    }

    #[test]
    fn snapshot_of_a_fresh_guard_has_empty_state() {
        let guarded = GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()));
        let snapshot = guarded.snapshot();
        assert_eq!(snapshot.state, GuardState::Normal);
        assert_eq!(snapshot.last_good, [None; POLICY_INPUT_DIM]);
        assert_eq!(snapshot.last_action, None);
        assert_eq!(snapshot.decisions, 0);
        let round = GuardSnapshot::from_json_str(&snapshot.to_json_string()).unwrap();
        assert_eq!(round, snapshot);
    }

    #[test]
    fn snapshot_rejects_malformed_input() {
        assert!(GuardSnapshot::from_json_str("not json").is_err());
        assert!(GuardSnapshot::from_json_str("{}").is_err());
        let good = GuardedPolicy::new(toy_policy(), GuardConfig::new(ComfortRange::winter()))
            .snapshot()
            .to_json_string();
        let bad_state = good.replace("\"normal\"", "\"panic\"");
        assert!(GuardSnapshot::from_json_str(&bad_state).is_err());
    }

    #[test]
    fn custom_fallback_is_respected() {
        let config = GuardConfig::new(ComfortRange::winter());
        let budget = config.staleness_budget;
        let mut guarded = GuardedPolicy::new(toy_policy(), config)
            .with_fallback(RuleBasedController::with_setback(ComfortRange::winter()));
        guarded.decide(&obs(21.0, 0));
        for k in 1..=(budget + 1) {
            let mut o = obs(f64::NAN, k);
            o.disturbances.occupant_count = 0.0; // building empty
            guarded.decide(&o);
        }
        assert_eq!(guarded.state(), GuardState::Fallback);
        // The setback fallback released the setpoints while empty.
        let mut o = obs(f64::NAN, budget + 2);
        o.disturbances.occupant_count = 0.0;
        assert_eq!(guarded.decide(&o), SetpointAction::off());
    }
}
