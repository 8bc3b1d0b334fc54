//! Ground-truth feedback: the served-prediction log and the ingestion
//! hook the lifecycle controller subscribes to.
//!
//! Every `POST /v1/scouts/<team>/predict` answer is assigned a
//! process-unique incident id and remembered in a bounded [`ServedLog`].
//! When the incident is eventually resolved, `POST /v1/feedback`
//! reports the ground-truth resolving team; the server joins it back to
//! the served prediction (and, when available, the versioned audit
//! record) and hands the labeled [`FeedbackEvent`] to the registered
//! [`FeedbackHook`]. Each incident accepts feedback once — a second
//! report is a `409`, so downstream labeled streams see each example
//! exactly once.

use cloudsim::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default bound on remembered served predictions.
pub const DEFAULT_SERVED_CAP: usize = 8192;

/// One served prediction, awaiting (or past) its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRecord {
    /// Server-assigned incident id (process-unique, starts at 1).
    pub incident: u64,
    /// Team whose Scout answered (registry key as served).
    pub team: String,
    /// The incident text that was classified (retained so resolved
    /// incidents become training examples downstream).
    pub text: String,
    /// Registry version of the model that answered.
    pub model_version: u64,
    /// Did the Scout say "responsible"?
    pub predicted_responsible: bool,
    /// Prediction confidence.
    pub confidence: f64,
    /// Simulation time the prediction was made for.
    pub time: SimTime,
    /// Has ground truth already been recorded?
    pub resolved: bool,
}

/// Why a feedback report was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No served prediction with that incident id (never existed, or
    /// evicted from the bounded log).
    Unknown(u64),
    /// Ground truth was already recorded for this incident.
    AlreadyResolved(u64),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Unknown(id) => write!(f, "unknown incident {id}"),
            ResolveError::AlreadyResolved(id) => {
                write!(f, "feedback already recorded for incident {id}")
            }
        }
    }
}

/// Bounded FIFO of served predictions, keyed by assigned incident id.
#[derive(Debug)]
pub struct ServedLog {
    records: Mutex<VecDeque<ServedRecord>>,
    next_id: AtomicU64,
    cap: usize,
}

impl ServedLog {
    /// A log remembering at most `cap` served predictions (oldest
    /// evicted first). `cap` is clamped to at least 1.
    pub fn new(cap: usize) -> ServedLog {
        ServedLog {
            records: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(1),
            cap: cap.max(1),
        }
    }

    /// Rebuild a log from recovered state: `next_id` continues the
    /// pre-crash id sequence, `records` arrive oldest-first and are
    /// re-capped (so a recovered log obeys the *current* `cap` even if
    /// the process was restarted with a smaller one).
    pub fn restore(cap: usize, next_id: u64, records: Vec<ServedRecord>) -> ServedLog {
        let cap = cap.max(1);
        let mut queue: VecDeque<ServedRecord> = records.into();
        while queue.len() > cap {
            queue.pop_front();
        }
        ServedLog {
            records: Mutex::new(queue),
            next_id: AtomicU64::new(next_id.max(1)),
            cap,
        }
    }

    /// Remember one served prediction, returning its assigned incident
    /// id.
    pub fn record(
        &self,
        team: &str,
        text: &str,
        model_version: u64,
        predicted_responsible: bool,
        confidence: f64,
        time: SimTime,
    ) -> u64 {
        self.record_logged(
            team,
            text,
            model_version,
            predicted_responsible,
            confidence,
            time,
            |_| {},
        )
    }

    /// [`ServedLog::record`], invoking `log` with the new record while
    /// the log's lock is still held — the WAL producer hook, guaranteeing
    /// the durable event order matches the in-memory insertion order.
    #[allow(clippy::too_many_arguments)]
    pub fn record_logged(
        &self,
        team: &str,
        text: &str,
        model_version: u64,
        predicted_responsible: bool,
        confidence: f64,
        time: SimTime,
        log: impl FnOnce(&ServedRecord),
    ) -> u64 {
        let incident = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut records = self.records.lock().unwrap();
        if records.len() >= self.cap {
            records.pop_front();
        }
        records.push_back(ServedRecord {
            incident,
            team: team.to_string(),
            text: text.to_string(),
            model_version,
            predicted_responsible,
            confidence,
            time,
            resolved: false,
        });
        log(records.back().unwrap());
        incident
    }

    /// Mark `incident` resolved, returning its served record (as it was
    /// before resolution). Errs when unknown/evicted or already
    /// resolved.
    pub fn resolve(&self, incident: u64) -> Result<ServedRecord, ResolveError> {
        self.resolve_logged(incident, |_| {})
    }

    /// [`ServedLog::resolve`], invoking `log` with the pre-resolution
    /// record while the lock is held (WAL producer hook; see
    /// [`ServedLog::record_logged`]).
    pub fn resolve_logged(
        &self,
        incident: u64,
        log: impl FnOnce(&ServedRecord),
    ) -> Result<ServedRecord, ResolveError> {
        let mut records = self.records.lock().unwrap();
        // Newest first: feedback usually follows its prediction closely,
        // and the log holds up to `cap` older records. Ids are assigned
        // before the lock, so the deque is only roughly id-ordered and a
        // binary search would be wrong.
        let rec = records
            .iter_mut()
            .rev()
            .find(|r| r.incident == incident)
            .ok_or(ResolveError::Unknown(incident))?;
        if rec.resolved {
            return Err(ResolveError::AlreadyResolved(incident));
        }
        let snapshot = rec.clone();
        rec.resolved = true;
        log(&snapshot);
        Ok(snapshot)
    }

    /// Number of remembered predictions (resolved or not).
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One labeled example: a served prediction joined with its ground
/// truth.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackEvent {
    /// Server-assigned incident id.
    pub incident: u64,
    /// Team whose Scout answered.
    pub team: String,
    /// The incident text that was classified.
    pub text: String,
    /// Model version that answered.
    pub model_version: u64,
    /// What the Scout said.
    pub predicted: bool,
    /// Ground truth: was the Scout's team actually responsible?
    pub label: bool,
    /// Simulation time of the prediction (orders the labeled stream).
    pub time: SimTime,
    /// Trace id of the feedback request (0 = untraced), so the lifecycle
    /// worker's ingestion spans join the reporting request's trace.
    pub trace_id: u64,
}

/// Receiver for labeled feedback (the lifecycle controller). Called on
/// the HTTP handler thread — implementations must hand off quickly.
pub trait FeedbackHook: Send + Sync {
    /// One incident's ground truth arrived.
    fn on_feedback(&self, event: FeedbackEvent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_start_at_one() {
        let log = ServedLog::new(16);
        let a = log.record("PhyNet", "text a", 1, true, 0.9, SimTime(5));
        let b = log.record("PhyNet", "text b", 1, false, 0.6, SimTime(6));
        assert_eq!(a, 1);
        assert_eq!(b, 2);
    }

    #[test]
    fn resolve_is_exactly_once() {
        let log = ServedLog::new(16);
        let id = log.record("Storage", "disk latency", 3, true, 0.8, SimTime(9));
        let rec = log.resolve(id).unwrap();
        assert_eq!(rec.team, "Storage");
        assert_eq!(rec.model_version, 3);
        assert!(!rec.resolved, "returned snapshot is pre-resolution");
        assert_eq!(log.resolve(id), Err(ResolveError::AlreadyResolved(id)));
        assert_eq!(log.resolve(999), Err(ResolveError::Unknown(999)));
    }

    #[test]
    fn restore_continues_id_sequence_and_recaps() {
        let mk = |incident: u64| ServedRecord {
            incident,
            team: "PhyNet".into(),
            text: format!("t{incident}"),
            model_version: 1,
            predicted_responsible: true,
            confidence: 0.9,
            time: SimTime(incident),
            resolved: false,
        };
        let log = ServedLog::restore(2, 5, vec![mk(2), mk(3), mk(4)]);
        assert_eq!(log.len(), 2, "restore re-caps, evicting oldest");
        assert_eq!(log.resolve(2), Err(ResolveError::Unknown(2)));
        assert!(log.resolve(3).is_ok());
        let next = log.record("PhyNet", "t5", 1, true, 0.9, SimTime(5));
        assert_eq!(next, 5, "ids continue the pre-crash sequence");
    }

    #[test]
    fn out_of_order_ids_resolve_exactly_once() {
        let mk = |incident: u64| ServedRecord {
            incident,
            team: "PhyNet".into(),
            text: format!("t{incident}"),
            model_version: 1,
            predicted_responsible: true,
            confidence: 0.9,
            time: SimTime(incident),
            resolved: false,
        };
        // Racing `record` calls can insert ids out of order; restore
        // keeps whatever order it is given. The oldest record (id 9) is
        // evicted by the cap.
        let log = ServedLog::restore(4, 10, vec![mk(9), mk(4), mk(7), mk(5), mk(6)]);
        for id in [4, 7, 5, 6] {
            assert_eq!(log.resolve(id).unwrap().incident, id);
            assert_eq!(log.resolve(id), Err(ResolveError::AlreadyResolved(id)));
        }
        assert_eq!(log.resolve(9), Err(ResolveError::Unknown(9)));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let log = ServedLog::new(2);
        let a = log.record("PhyNet", "t1", 1, true, 0.9, SimTime(1));
        let _b = log.record("PhyNet", "t2", 1, true, 0.9, SimTime(2));
        let _c = log.record("PhyNet", "t3", 1, true, 0.9, SimTime(3));
        assert_eq!(log.len(), 2);
        assert_eq!(log.resolve(a), Err(ResolveError::Unknown(a)));
    }
}
