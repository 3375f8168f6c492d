//! HVAC controllers: the paper's baselines and its decision-tree policy.
//!
//! Four controller families appear in the paper's evaluation (Fig. 4,
//! Table 3):
//!
//! | Paper name      | Type                                   | Here |
//! |-----------------|----------------------------------------|------|
//! | default \[12\]    | rule-based occupancy schedule          | [`RuleBasedController`] |
//! | MBRL \[9\]        | random-shooting MPC over a learned MLP | [`RandomShootingController`] |
//! | CLUE \[1\]        | uncertainty-gated MBRL with fallback   | [`ClueController`] |
//! | DT (ours)       | extracted decision-tree policy         | [`DtPolicy`] |
//!
//! All controllers implement [`hvac_env::Policy`], so any of them can be
//! dropped into [`hvac_env::run_episode`] or the benchmark harnesses.
//!
//! For deployment, [`GuardedPolicy`] wraps any of the above with input
//! validation and a degradation ladder (tree → rule-based fallback →
//! fail-safe setpoints) so faulty sensor streams degrade gracefully
//! instead of feeding garbage to a verified policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clue;
pub mod dt_policy;
pub mod error;
pub mod guard;
pub mod planner;
pub mod random_shooting;
pub mod rule_based;

pub use clue::{ClueConfig, ClueController};
pub use dt_policy::DtPolicy;
pub use error::ControlError;
pub use guard::{
    GuardConfig, GuardRoute, GuardSnapshot, GuardState, GuardStats, GuardTransition, GuardedPolicy,
};
pub use planner::{
    evaluate_sequence, evaluate_sequences_lockstep, forecast_rollout, persistence_rollout,
    ForecastMode, LockstepWorkspace, PlanningConfig, Predictor,
};
pub use random_shooting::{RandomShootingConfig, RandomShootingController};
pub use rule_based::RuleBasedController;
