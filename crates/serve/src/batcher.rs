//! Micro-batched inference.
//!
//! Predict requests from all connections land in the serving plane's
//! coalescing queue (`coalesce`), which collects jobs until either the
//! batch is full or a short window lapses (default 32 requests / 2 ms —
//! a full batch is a quarter of the flattened forest's 128-row scoring
//! tile). Each batch is grouped by team, resolves **one** model version
//! per team-group, and runs one pooled [`Scout::predict_many`] pass per
//! group. Because `prepare` is a pure per-example function (the
//! workspace's determinism contract), the batched answers are
//! bit-identical to what N sequential `predict` calls would have
//! produced — batching changes throughput, never verdicts.
//!
//! Metrics: `serve.batch.occupancy` (histogram of jobs per batch),
//! `serve.deadline.expired` (requests that timed out in the queue).

use crate::admission::Permit;
use crate::coalesce::{Coalesced, Coalescer, Names};
use crate::registry::{ModelEntry, ModelRegistry};
use cloudsim::SimTime;
use incident::Workload;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::Prediction;
use std::collections::BTreeMap;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One queued predict job.
pub struct Job {
    /// Team whose Scout should answer.
    pub team: String,
    /// Incident text.
    pub text: String,
    /// Incident creation time (simulated).
    pub time: SimTime,
    /// Wall-clock deadline; expired jobs are answered with
    /// [`PredictError::DeadlineExpired`] instead of running.
    pub deadline: Option<Instant>,
    /// Admission slot, held until the reply is sent. `None` when the
    /// caller holds one permit for a fan-out of jobs (the `/v1/route`
    /// path).
    pub permit: Option<Permit>,
    /// Where the answer goes. `sync_channel(1)` so the send never blocks.
    pub reply: SyncSender<Result<Answer, PredictError>>,
    /// The originating request's trace context (span id = the request's
    /// root span). The batch span links it, and the per-item predict work
    /// runs under it so its spans land in the request's trace.
    pub ctx: obs::TraceContext,
}

/// A completed prediction, attributable to exactly one model version.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Canonical team name (registry key; may differ in case from the
    /// request).
    pub team: String,
    /// Version of the model that produced this answer.
    pub model_version: u64,
    /// The Scout's prediction.
    pub prediction: Prediction,
}

/// Why a job did not produce an [`Answer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// No Scout registered under that team name.
    UnknownTeam(String),
    /// The job's deadline lapsed before it ran.
    DeadlineExpired,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::UnknownTeam(t) => write!(f, "no Scout registered for team {t:?}"),
            PredictError::DeadlineExpired => write!(f, "request deadline expired in queue"),
            PredictError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl Coalesced for Job {
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

/// Batcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum jobs per batch.
    pub batch_size: usize,
    /// How long to hold an open batch waiting for more jobs.
    pub batch_deadline: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            batch_size: 32,
            batch_deadline: Duration::from_millis(2),
        }
    }
}

/// The batcher: the coalescing queue plus the per-team predict runner.
pub struct Batcher {
    queue: Coalescer<Job>,
}

impl Batcher {
    /// Start the worker thread. `workload` supplies the monitoring plane
    /// Scouts consult at predict time; `registry` supplies the models;
    /// `monitoring` is the live shared config (a data set deprecated
    /// mid-stream takes effect on the next batch).
    pub fn start(
        registry: Arc<ModelRegistry>,
        workload: Arc<Workload>,
        monitoring: Arc<RwLock<MonitoringConfig>>,
        config: BatchConfig,
    ) -> Batcher {
        let names = Names {
            thread: "serve-batcher",
            batch: "serve.batch",
            drain: "serve.batch.drain",
            occupancy: "serve.batch.occupancy",
        };
        let queue = Coalescer::start(
            names,
            config.batch_size,
            config.batch_deadline,
            move |jobs| run_batch(jobs, &registry, &workload, &monitoring),
        );
        Batcher { queue }
    }

    /// Enqueue a job. Returns the job back if the batcher has shut down
    /// (the caller still holds the permit and reply channel).
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        self.queue.submit(job)
    }

    /// Signal shutdown without waiting for the worker: new submits are
    /// refused, an open batch window closes immediately, and everything
    /// already queued is shed with [`PredictError::ShuttingDown`] —
    /// never silently dropped. The worker thread is joined on drop.
    pub fn begin_shutdown(&self) {
        self.queue.begin_shutdown();
    }
}

fn run_batch(
    live: Vec<Job>,
    registry: &ModelRegistry,
    workload: &Workload,
    monitoring: &RwLock<MonitoringConfig>,
) {
    // Group by requested team so each group runs one pooled predict pass
    // against exactly one pinned model version.
    let mut groups: BTreeMap<String, Vec<Job>> = BTreeMap::new();
    for job in live {
        groups.entry(job.team.clone()).or_default().push(job);
    }

    let mon_config = monitoring.read().unwrap().clone();
    let monitoring = MonitoringSystem::new(&workload.topology, &workload.faults, mon_config);

    for (team, group) in groups {
        let Some(entry) = registry.get(&team) else {
            for job in group {
                job.fail(PredictError::UnknownTeam(team.clone()));
            }
            continue;
        };
        run_group(group, &entry, &monitoring);
    }
}

fn run_group(group: Vec<Job>, entry: &Arc<ModelEntry>, monitoring: &MonitoringSystem<'_>) {
    let inputs: Vec<(&str, SimTime)> = group.iter().map(|j| (j.text.as_str(), j.time)).collect();
    let ctxs: Vec<obs::TraceContext> = group.iter().map(|j| j.ctx).collect();
    // The registry's shared chunk cache makes repeated predicts over
    // overlapping look-back windows skip telemetry generation; the
    // monitoring epoch in the chunk key keeps it exact across batches.
    let predictions =
        entry
            .scout
            .predict_many_traced(&inputs, monitoring, Some(&entry.feat_cache), Some(&ctxs));
    for (job, prediction) in group.into_iter().zip(predictions) {
        let _ = job.reply.try_send(Ok(Answer {
            team: entry.team.clone(),
            model_version: entry.version,
            prediction,
        }));
        // `job.permit` drops here, freeing the admission slot.
    }
}
