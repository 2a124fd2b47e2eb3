//! Discrete-event simulation kernel used by every simulator in the DiAS reproduction.
//!
//! The crate provides four small building blocks:
//!
//! * [`SimTime`] — a totally-ordered simulation timestamp in seconds.
//! * [`EventQueue`] — a cancellable priority queue of timed events with FIFO
//!   tie-breaking, the heart of every event loop in the workspace.
//! * [`SeedSequence`] — deterministic derivation of independent RNG streams from a
//!   single experiment seed, so every component of a simulation draws from its own
//!   stream and results are reproducible and insensitive to event interleaving.
//! * [`stats`] — statistics collectors: running moments, sample sets with exact
//!   percentiles, streaming quantile sketches and time-weighted integrals.
//!
//! # Examples
//!
//! A tiny M/D/1 queue simulated with the kernel:
//!
//! ```
//! use dias_des::{EventQueue, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_secs(0.0), Ev::Arrival);
//! q.push(SimTime::from_secs(1.0), Ev::Departure);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO);
//! assert!(matches!(ev, Ev::Arrival));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod queue;
mod rng;
pub mod stats;
mod time;

pub use queue::{EventHandle, EventQueue};
pub use rng::SeedSequence;
pub use time::SimTime;
