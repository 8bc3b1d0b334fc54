//! The storm layer's severity-aware route coalescer.
//!
//! Stage 3 of storm control: low-severity (`Sev3`) routing requests
//! queue in a [`Coalescer`] instead of paying a full fan-out each, and
//! each batch is one [`fleet::dispatch_gated`] call — one
//! `MonitoringSystem` build, one featurization per Scout config and one
//! classification per Scout, one breaker sample and one breaker report
//! per team for the whole batch, the same economics as the predict
//! micro-batcher. The handler thread parks on a rendezvous channel
//! exactly like `/v1/scouts/*/predict` does, then renders the decision
//! itself; this module only produces the per-team outcome set.
//!
//! Batching never changes bytes: `predict_many` over a batch is
//! bit-identical to the same incidents predicted one at a time (the
//! workspace's determinism contract), and outcome sets leave
//! `dispatch_batch` sorted by team — so a Sev3 incident routed through
//! here renders exactly the response it would have gotten from a
//! direct fan-out.

use crate::batcher::PredictError;
use crate::coalesce::{Coalesced, Coalescer, Names};
use crate::fleet::{self, FleetConfig, TeamOutcome};
use crate::registry::ModelRegistry;
use cloudsim::SimTime;
use incident::Workload;
use monitoring::MonitoringConfig;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use storm::StormControl;

/// One queued low-severity routing job.
pub(crate) struct RouteJob {
    /// Incident text.
    pub text: String,
    /// Incident creation time (simulated).
    pub time: SimTime,
    /// Wall-clock deadline; jobs expired at batch start are answered
    /// with [`PredictError::DeadlineExpired`] instead of running.
    pub deadline: Option<Instant>,
    /// Where the outcome set goes. `sync_channel(1)` so the send never
    /// blocks.
    pub reply: SyncSender<Result<Vec<TeamOutcome>, PredictError>>,
    /// The originating request's trace context.
    pub ctx: obs::TraceContext,
}

impl Coalesced for RouteJob {
    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
    fn ctx(&self) -> obs::TraceContext {
        self.ctx
    }
    fn fail(self, error: PredictError) {
        let _ = self.reply.try_send(Err(error));
    }
}

/// The route coalescer.
pub(crate) type RouteBatcher = Coalescer<RouteJob>;

/// Everything the worker needs to execute a coalesced fan-out.
pub(crate) struct RouteBatcherContext {
    pub registry: Arc<ModelRegistry>,
    pub workload: Arc<Workload>,
    pub monitoring: Arc<RwLock<MonitoringConfig>>,
    pub fleet: FleetConfig,
    pub storm: Arc<StormControl>,
}

/// Start the route coalescer. Batch size and window come from the
/// storm config's [`storm::BatchPolicy`].
pub(crate) fn start(ctx: RouteBatcherContext) -> RouteBatcher {
    let policy = ctx.storm.batch_policy().clone();
    let names = Names {
        thread: "serve-stormroute",
        batch: "storm.route.batch",
        drain: "storm.route.batch.drain",
        occupancy: "storm.batch.occupancy",
    };
    let window = Duration::from_millis(policy.max_wait_ms);
    Coalescer::start(names, policy.max_batch, window, move |jobs| {
        run_route_batch(jobs, &ctx)
    })
}

fn run_route_batch(live: Vec<RouteJob>, ctx: &RouteBatcherContext) {
    if live.len() > 1 {
        obs::counter("storm.batch.coalesced").add(live.len() as u64 - 1);
    }
    let entries = ctx.registry.snapshot();
    let mon = ctx.monitoring.read().unwrap().clone();
    let inputs: Vec<(&str, SimTime)> = live.iter().map(|j| (j.text.as_str(), j.time)).collect();
    // Per-job deadlines were checked at batch start; the batch itself
    // runs undeadlined (Sev3 is the severity class that tolerates
    // queueing).
    let outcome_sets = fleet::dispatch_gated(
        &entries,
        &ctx.workload,
        &mon,
        &inputs,
        None,
        &ctx.fleet,
        Some(&ctx.storm),
    );
    debug_assert_eq!(outcome_sets.len(), live.len());
    for (job, outcomes) in live.into_iter().zip(outcome_sets) {
        let _ = job.reply.try_send(Ok(outcomes));
    }
}
