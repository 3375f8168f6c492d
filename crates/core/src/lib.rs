//! **Veri-HVAC** — interpretable and verifiable decision-tree HVAC
//! control.
//!
//! A from-scratch Rust reproduction of *"Go Beyond Black-box Policies:
//! Rethinking the Design of Learning Agent for Interpretable and
//! Verifiable HVAC Control"* (An, Ding, Du — DAC 2024). The paper
//! replaces stochastic black-box model-based-RL HVAC controllers with
//! decision trees that are
//!
//! * **deterministic** — every input maps to exactly one setpoint,
//! * **interpretable** — each decision node compares one named physical
//!   quantity against a threshold,
//! * **verifiable** — Algorithm 1 formally checks (and corrects) the
//!   tree against domain safety criteria, and a one-step Monte-Carlo
//!   method bounds the probability of comfort violations, and
//! * **cheap** — a tree descent costs ~µs where stochastic-optimizer
//!   MPC costs hundreds of ms (the paper's 1127× Table 3).
//!
//! This crate re-exports the whole workspace and adds [`pipeline`]: the
//! end-to-end procedure of the paper's Fig. 2 — historical data →
//! dynamics model → importance-sampled decision dataset → CART →
//! verification → deployable policy.
//!
//! # End-to-end example
//!
//! ```no_run
//! use veri_hvac::pipeline::{run_pipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), veri_hvac::pipeline::PipelineError> {
//! let config = PipelineConfig::paper_pittsburgh();
//! let artifacts = run_pipeline(&config)?;
//! println!("{}", artifacts.report); // the paper's Table 2 rows
//! println!("{}", artifacts.policy.to_text()); // interpretable rules
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | five-zone RC building simulator, weather, occupancy |
//! | [`mod@env`] | MDP spaces, Eq. 2 reward, episode driver |
//! | [`nn`] | from-scratch MLP + Adam (the black-box regressor) |
//! | [`dynamics`] | transition datasets, dynamics models, ensembles |
//! | [`control`] | default/MBRL/MPPI/CLUE controllers + DT policy |
//! | [`dtree`] | CART with boxes, paths and leaf editing |
//! | [`extract`] | Eq. 5 augmentation, noise study, distillation |
//! | [`verify`] | Algorithm 1 + probabilistic criterion #1 |
//! | [`mod@audit`] | tamper-evident decision chains + offline verifier |
//! | [`faults`] | deterministic sensor/weather fault injection |
//! | [`stats`] | histograms, entropy, JSD, summaries |
//! | [`serve`] | the per-request decide path (observation decoding, guarded decide, audit append) |
//! | [`fleet`] | the HTTP endpoint: a fleet of one or many buildings (registry, sharded guards, lockstep `/tick`) |
//! | [`artifacts`] | content-addressed pipeline artifact store |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hvac_audit as audit;
pub use hvac_control as control;
pub use hvac_dtree as dtree;
pub use hvac_dynamics as dynamics;
pub use hvac_env as env;
pub use hvac_extract as extract;
pub use hvac_faults as faults;
pub use hvac_nn as nn;
pub use hvac_sim as sim;
pub use hvac_stats as stats;
pub use hvac_verify as verify;

pub mod artifacts;
pub mod fleet;
pub mod pipeline;
pub mod serve;

pub use artifacts::{ArtifactError, ArtifactStore, PipelineKeys, StageKey};
pub use fleet::{
    serve_fleet, serve_fleet_with_reload, valid_tenant_id, Fleet, FleetOptions, PolicyRegistry,
    RegisteredPolicy, ReloadReport, ReloadSource, Tenant, TenantSpec, TickDecision,
};
pub use pipeline::{
    run_pipeline, run_pipeline_cached, PipelineArtifacts, PipelineConfig, PipelineError,
};
pub use serve::{decide_json_traced, DecideOutcome, OpsOptions};
