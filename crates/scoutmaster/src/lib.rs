//! `scoutmaster` — what happens *around* a Scout: the §7 gain/overhead
//! accounting that turns predictions into saved (or wasted) investigation
//! time, and the Appendix C/D Scout Master that composes many Scouts over
//! the baseline routing traces.
//!
//! * [`gain`] — per-incident gain-in / gain-out / overhead-in / error-out,
//!   measured against a baseline [`incident::RoutingTrace`] exactly as §7
//!   defines them, including the paper's estimation trick for overhead-in
//!   (sampling from the baseline distribution of mis-routings into the
//!   team, Fig. 6).
//! * [`master`] — the strawman Scout Master of Appendix C: one "yes" →
//!   send it there; several "yes" → prefer the deeper dependency, then
//!   confidence; all "no" → fall back to the legacy process.
//! * [`fleet`] — the same policy over dynamic, string-keyed team fleets
//!   (a [`cloudsim::DependencyGraph`] instead of the closed enum), plus
//!   DeepTriage-style top-k suggestions. The serving plane routes with
//!   it, and [`master`] is an enum-keyed adapter over it.
//! * [`sim`] — the Appendix D trace-driven simulations: N perfect Scouts
//!   (Fig. 15) and imperfect Scouts over an (α, β) accuracy/confidence
//!   sweep (Fig. 16).

pub mod fleet;
pub mod gain;
pub mod master;
pub mod mle;
pub mod sim;

pub use fleet::{FleetAnswer, FleetDecision, FleetMaster, Suggestion};
pub use gain::{GainAccountant, GainReport, IncidentOutcome};
pub use master::{MasterDecision, ScoutAnswer, ScoutMaster};
pub use mle::{MleMaster, ScoutStats};
pub use sim::{ImperfectParams, ImperfectResult, PerfectScoutSim};
