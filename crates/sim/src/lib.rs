//! Deterministic discrete-event simulation substrate for Murakkab.
//!
//! Everything in the Murakkab reproduction runs on simulated time: the
//! cluster manager, the LLM serving engine, the agents and the runtime all
//! consume [`SimTime`] and schedule work through an [`EventQueue`]. The
//! substrate guarantees *determinism*: two runs with the same seed produce
//! bit-identical traces, which the benchmark harness and the integration
//! tests rely on.
//!
//! The crate provides:
//!
//! - [`time`]: [`SimTime`] and [`SimDuration`], fixed-point microsecond
//!   time arithmetic (no floating point drift in the event loop);
//! - [`queue`]: a deterministic [`EventQueue`] (ties broken by insertion
//!   sequence number);
//! - [`rng`]: [`SimRng`], a seeded, splittable random source;
//! - [`metrics`]: step-function [`TimeSeries`], counters and histograms for
//!   recording utilization and queueing behaviour;
//! - [`trace`]: span-oriented [`TraceLog`] with an ASCII timeline renderer
//!   used to regenerate the paper's Figure 3;
//! - [`ids`]: the [`define_id!`] macro for cheap typed identifiers.
//!
//! # Examples
//!
//! ```
//! use murakkab_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs_f64(1.0), "late");
//! q.schedule(SimTime::ZERO, "early");
//! assert_eq!(q.pop().unwrap().payload, "early");
//! assert_eq!(q.pop().unwrap().payload, "late");
//! ```

pub mod error;
pub mod ids;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use error::SimError;
pub use metrics::{Counter, Histogram, SeriesCursor, TimeSeries, UtilizationTracker};
pub use queue::{Event, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Span, TraceLog};

/// Convenience result alias for simulation-layer fallible operations.
pub type Result<T> = std::result::Result<T, SimError>;
