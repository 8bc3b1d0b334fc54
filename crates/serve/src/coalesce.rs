//! The serving plane's one coalescing queue.
//!
//! Both micro-batched paths — predict ([`crate::batcher::Batcher`]) and
//! the storm layer's Sev3 `/v1/route` coalescer
//! ([`crate::stormroute`]) — are this queue plus a batch runner:
//!
//! * requests from every connection land in one job queue (admission
//!   bounds it);
//! * a single worker thread waits for the first job, then holds a
//!   window open from that pickup until the batch is full, the window
//!   closes, or shutdown starts;
//! * each batch runs under one batch span that *links* every coalesced
//!   request, records its size in an occupancy histogram, and answers
//!   jobs whose deadline already lapsed with
//!   [`PredictError::DeadlineExpired`] (`serve.deadline.expired`)
//!   before the runner sees the rest;
//! * shutdown is a drain, not a drop: once it starts, submits are
//!   refused and everything still queued — including an open window's
//!   jobs — is answered [`PredictError::ShuttingDown`] under a drain
//!   span that links each of them (`serve.batch.drained`).

use crate::batcher::PredictError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the coalescer needs from a queued job.
pub(crate) trait Coalesced: Send + 'static {
    /// Wall-clock deadline, if any.
    fn deadline(&self) -> Option<Instant>;
    /// The originating request's trace context.
    fn ctx(&self) -> obs::TraceContext;
    /// Answer the job with an error instead of running it.
    fn fail(self, error: PredictError);
}

/// Span and metric names for one coalescer instance.
pub(crate) struct Names {
    /// Worker thread name.
    pub thread: &'static str,
    /// Span that links every request of a batch.
    pub batch: &'static str,
    /// Span that links every request answered by the shutdown drain.
    pub drain: &'static str,
    /// Histogram of jobs per batch.
    pub occupancy: &'static str,
}

struct State<J> {
    jobs: VecDeque<J>,
    shutdown: bool,
}

struct Queue<J> {
    state: Mutex<State<J>>,
    wake: Condvar,
}

/// A job queue plus the worker thread that runs it in batches.
pub(crate) struct Coalescer<J> {
    queue: Arc<Queue<J>>,
    worker: Option<JoinHandle<()>>,
}

impl<J: Coalesced> Coalescer<J> {
    /// Start the worker. `run` receives each batch's live (unexpired)
    /// jobs, never an empty batch, inside the batch span.
    pub fn start(
        names: Names,
        batch_size: usize,
        window: Duration,
        mut run: impl FnMut(Vec<J>) + Send + 'static,
    ) -> Coalescer<J> {
        let queue = Arc::new(Queue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let worker_queue = Arc::clone(&queue);
        let batch_size = batch_size.max(1);
        let worker = std::thread::Builder::new()
            .name(names.thread.into())
            .spawn(move || loop {
                match worker_queue.next_batch(batch_size, window) {
                    Ok(jobs) => run_batch(&names, jobs, &mut run),
                    Err(drained) => return drain(&names, drained),
                }
            })
            .expect("spawn coalescer thread");
        Coalescer {
            queue,
            worker: Some(worker),
        }
    }
}

impl<J> Coalescer<J> {
    /// Enqueue a job. Returns the job back if shutdown has started (the
    /// caller still holds its reply channel).
    pub fn submit(&self, job: J) -> Result<(), J> {
        let mut state = self.queue.state.lock().unwrap();
        if state.shutdown {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.queue.wake.notify_one();
        Ok(())
    }

    /// Signal shutdown without waiting for the worker: new submits are
    /// refused, an open window closes immediately, and every queued job
    /// is answered [`PredictError::ShuttingDown`]. [`Drop`] joins the
    /// worker.
    pub fn begin_shutdown(&self) {
        self.queue.state.lock().unwrap().shutdown = true;
        self.queue.wake.notify_all();
    }
}

impl<J> Drop for Coalescer<J> {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            worker.join().ok();
        }
    }
}

impl<J> Queue<J> {
    /// Block until a job arrives, then hold the window open until
    /// `batch_size` jobs are queued or `window` has passed since that
    /// first pickup. `Err` carries every queued job once shutdown has
    /// started.
    fn next_batch(&self, batch_size: usize, window: Duration) -> Result<Vec<J>, Vec<J>> {
        let mut state = self.state.lock().unwrap();
        while state.jobs.is_empty() && !state.shutdown {
            state = self.wake.wait(state).unwrap();
        }
        let window_end = Instant::now() + window;
        while state.jobs.len() < batch_size && !state.shutdown {
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            state = self.wake.wait_timeout(state, window_end - now).unwrap().0;
        }
        if state.shutdown {
            return Err(state.jobs.drain(..).collect());
        }
        let n = state.jobs.len().min(batch_size);
        Ok(state.jobs.drain(..n).collect())
    }
}

/// A span linking every traced job in `jobs`.
fn linked_span<J: Coalesced>(name: &'static str, jobs: &[J]) -> obs::span::SpanGuard {
    let mut span = obs::span!(name);
    for job in jobs {
        let ctx = job.ctx();
        if ctx.trace_id != 0 {
            span.add_link(ctx);
        }
    }
    span
}

fn run_batch<J: Coalesced>(names: &Names, jobs: Vec<J>, run: &mut impl FnMut(Vec<J>)) {
    // The batch span is the fan-in point: it runs outside any single
    // request's context but links every request it coalesced.
    let _span = linked_span(names.batch, &jobs);
    obs::observe(names.occupancy, jobs.len() as f64);

    // Answer expired jobs before doing any work on them.
    let now = Instant::now();
    let (expired, live): (Vec<J>, Vec<J>) = jobs
        .into_iter()
        .partition(|job| job.deadline().is_some_and(|d| now >= d));
    if !expired.is_empty() {
        obs::counter("serve.deadline.expired").add(expired.len() as u64);
        obs::flight().alert(
            "deadline-miss",
            &format!("{} job(s) expired in queue", expired.len()),
        );
        for job in expired {
            job.fail(PredictError::DeadlineExpired);
        }
    }
    if !live.is_empty() {
        run(live);
    }
}

/// Shutdown: fail whatever is still queued. The drain span links every
/// abandoned request so no trace dead-ends without a recorded cause.
fn drain<J: Coalesced>(names: &Names, drained: Vec<J>) {
    if drained.is_empty() {
        return;
    }
    let _span = linked_span(names.drain, &drained);
    obs::counter("serve.batch.drained").add(drained.len() as u64);
    for job in drained {
        job.fail(PredictError::ShuttingDown);
    }
}
