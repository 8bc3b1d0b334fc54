//! The online half of the Scouts system: an incident-routing server.
//!
//! The paper splits each Scout into an offline component (training, the
//! `scout` crate) and an **online component** that serves routing
//! decisions to the incident-management pipeline. This crate is that
//! online component, built from three pieces:
//!
//! * [`registry::ModelRegistry`] — versioned `Arc`-swapped models, so a
//!   retrain (the paper retrains Scouts on a schedule, §6) can be rolled
//!   out with `POST /v1/models/reload` while predictions are in flight;
//! * [`batcher::Batcher`] — micro-batched inference: concurrent predict
//!   requests coalesce into one pooled `Scout::predict_many` pass,
//!   preserving the determinism contract (batched results are
//!   bit-identical to sequential ones);
//! * [`admission::Admission`] — a hard cap on outstanding work with
//!   load-shedding (`503` + `Retry-After`) and per-request deadlines
//!   (`X-Deadline-Ms` → `504`), because a late routing decision is a
//!   useless one;
//! * [`fleet`] — the sharded routing plane behind `POST /v1/route`:
//!   registered teams are rendezvous-hashed across bounded worker
//!   groups, each incident fans out shard-parallel with per-team fault
//!   isolation, and the string-keyed Scout Master aggregates the
//!   outcomes deterministically (byte-identical across shard counts).
//!
//! Everything — including the HTTP/1.1 implementation in [`http`] — is
//! dependency-free, like the rest of the workspace.

pub mod admission;
pub mod batcher;
pub mod client;
mod coalesce;
pub mod durability;
pub mod feedback;
pub mod fleet;
pub mod http;
pub mod registry;
pub mod server;
mod stormroute;

pub use admission::{Admission, Permit};
pub use batcher::{Answer, BatchConfig, Batcher, Job, PredictError};
pub use client::{Client, ClientError, ClientResponse};
pub use durability::WalJournal;
pub use feedback::{FeedbackEvent, FeedbackHook, ResolveError, ServedLog, ServedRecord};
pub use fleet::{FleetConfig, ScoutError, TeamOutcome};
pub use http::{HttpError, Request, Response};
pub use registry::{ModelEntry, ModelRegistry, RegistryChange, RegistryError, RegistryJournal};
pub use server::{Engine, ServeConfig, Server};
