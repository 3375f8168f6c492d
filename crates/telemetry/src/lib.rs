//! **hvac-telemetry** — zero-dependency observability for the
//! Veri-HVAC pipeline.
//!
//! The paper's procedure is dominated by opaque offline cost (16.8 s
//! per decision point for importance-sampled distillation); this crate
//! makes that cost visible without adding a single external
//! dependency. Three layers:
//!
//! * **Registry** ([`counter`], [`gauge`], [`histogram`]) — global,
//!   lock-cheap metrics keyed by dotted `&str` names. Updates are one
//!   relaxed atomic op; handles are `Copy` and belong in hot loops.
//! * **Spans** ([`Span::enter`]) — RAII wall-time timers with
//!   per-thread nesting (parent/child is tracked per worker thread, so
//!   the crossbeam fan-outs in `hvac-extract`/`hvac-control` just
//!   work). Closing a span feeds `span.<name>.ns`/`.count` counters
//!   and emits open/close events.
//! * **Sinks** ([`set_sink`]) — where events go. [`NullSink`]
//!   (default) costs one relaxed atomic load per event site;
//!   [`StderrSink`] pretty-prints leveled messages for operators;
//!   [`JsonlSink`] appends one JSON object per event for machines;
//!   [`MultiSink`] combines sinks. `HVAC_TELEMETRY=<path>` (see
//!   [`init_from_env`]) switches the JSONL sink on from the
//!   environment.
//!
//! Per-run rollups are captured with a [`RunScope`] (per-run
//! attribution that stays correct under concurrent runs; snapshot
//! diffs via [`registry::snapshot`] remain available for whole-process
//! accounting) and packaged as [`TelemetrySummary`] — the type
//! `PipelineArtifacts` embeds so callers get stage wall times, rollout
//! counts, tree-fit and verification work programmatically.
//!
//! On top of the substrate sits a **live layer**, still std-only:
//!
//! * [`expose`] — Prometheus text-format 0.0.4 and JSON renderers over
//!   the registry;
//! * [`http`] — a minimal HTTP/1.1 server exposing `/metrics`,
//!   `/healthz`, and `/summary.json` (plus caller routes such as the
//!   serving path's `POST /decide`);
//! * [`trace`] — post-hoc JSONL trace analysis (span trees, folded
//!   flamegraph stacks, critical paths, two-run diffs), driven by the
//!   `hvac-trace` binary;
//! * [`ring`] — a lock-free fixed-capacity flight recorder holding the
//!   last N serve decisions for `GET /debug/flight`;
//! * [`window`] — sliding-window histograms/counters (epoch rings) so
//!   `/metrics` and `/summary.json` report recent p50/p95/p99
//!   alongside the cumulative series;
//! * [`slo`] — declarative serve objectives with fast/slow-window
//!   burn rates behind `GET /debug/slo`.
//!
//! # Overhead guarantee
//!
//! With the default [`NullSink`], an instrumented call site pays at
//! most a few relaxed atomic operations (no locks, no allocation, no
//! formatting); perfbench's `layers.tracing_overhead_pct` reports the
//! end-to-end cost. Level checks short-circuit before any message
//! formatting.
//!
//! # Example
//!
//! ```
//! use hvac_telemetry as telemetry;
//!
//! let rollouts = telemetry::counter("extract.rollouts");
//! let before = telemetry::registry::snapshot();
//! {
//!     let _span = telemetry::Span::enter("extraction");
//!     rollouts.add(10);
//! }
//! let after = telemetry::registry::snapshot();
//! assert!(after.counter_delta(&before, "extract.rollouts") >= 10);
//! assert!(after.counter_delta(&before, "span.extraction.count") >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod http;
pub mod json;
pub mod registry;
pub mod ring;
pub mod scope;
mod sink;
pub mod slo;
mod span;
mod summary;
pub mod trace;
pub mod window;

pub use registry::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    RegistrySnapshot, LATENCY_BOUNDS_NS,
};
pub use ring::{FlightRecord, FlightRecorder};
pub use scope::{current_scope, RunScope, ScopeGuard, ScopeHandle};
pub use sink::{
    emit, emit_counter_deltas, flush, init_from_env, install_panic_flush_hook, message,
    message_enabled, process_elapsed_ns, set_sink, sink_active, thread_id, Event, JsonlSink, Level,
    MultiSink, NullSink, Sink, StderrSink,
};
pub use slo::{ObjectiveStatus, SloConfig, SloTracker};
pub use span::Span;
pub use summary::{HistogramStats, StageTiming, TelemetrySummary};
pub use window::{
    window_snapshots, windowed_histogram, WindowSnapshot, WindowedCounter, WindowedHistogram,
};
