//! The HTTP load generator: two keep-alive connections ("lanes"), one
//! thread each, so the generator never uses more than the host's two
//! cores.
//!
//! A run alternates between two kinds of slice, about a second each,
//! starting with an open-loop one. In an open-loop slice requests go out
//! on a fixed schedule and every latency is timed from the request's
//! scheduled send, so a stall also charges the requests queued behind
//! it. In a closed-loop slice the lanes send back to back; correct
//! answers per second there are the goodput. Alternating spreads each
//! kind over the whole run, so a stall of a few seconds on the shared
//! host reaches only a few slices of either.

use crate::plan::{Alert, Kind, Plan};
use obs::json::{Obj, Value};
use serve::Client;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop rate of the primary class (requests per second), fixed per
/// workload at about a third of what a 2-core host sustains (about 15
/// routes/s or 240 predict → feedback pairs/s closed loop), so the
/// open-loop queue stays short even when the hypervisor takes a share of
/// the CPU: near saturation, a 15% steal doubled route p50.
pub fn primary_rate(kind: Kind) -> f64 {
    match kind {
        // Both lanes share one schedule of fresh 32-team routes.
        Kind::RouteFresh => 5.0,
        // Background routes, on one lane beside the storm.
        Kind::RouteStorm => 6.0,
        // Both lanes share one schedule of predicts; each predict's
        // feedback follows as soon as it is answered.
        Kind::PredictFeedback => 60.0,
    }
}

/// Storm firings per second on route-storm, rotating over the plan's four
/// sources (10/s each, under the default 50/s token bucket).
pub const STORM_RATE: f64 = 40.0;

/// Target length of one slice, in milliseconds.
const SLICE_MS: f64 = 1000.0;

/// One slice of a run: `[start_ms, end_ms)` since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub start_ms: f64,
    pub end_ms: f64,
    pub open: bool,
}

/// A run of `seconds` cut into equal slices of about [`SLICE_MS`],
/// alternately open and closed loop, starting open; always at least one
/// of each.
pub fn slices(seconds: f64) -> Vec<Slice> {
    let total_ms = seconds * 1e3;
    let cycles = (total_ms / (2.0 * SLICE_MS)).round().max(1.0) as usize;
    let width = total_ms / (2 * cycles) as f64;
    (0..2 * cycles)
        .map(|k| Slice {
            start_ms: k as f64 * width,
            end_ms: (k + 1) as f64 * width,
            open: k % 2 == 0,
        })
        .collect()
}

/// What one shot asked for. Items index the plan's lists, modulo length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Route { item: usize },
    Storm { item: usize },
    Predict { item: usize },
    Feedback { item: usize, incident: u64 },
}

impl Req {
    /// Primary-class requests: the ones `p50_ms`/`p99_ms`/`goodput_rps`
    /// and `accuracy` are about.
    pub fn primary(self) -> bool {
        matches!(self, Req::Route { .. } | Req::Predict { .. })
    }
}

/// One request as sent and answered. Times are milliseconds since the
/// run's epoch.
#[derive(Debug, Clone)]
pub struct Shot {
    pub req: Req,
    /// Scheduled send time; `None` in the closed-loop phase.
    pub due_ms: Option<f64>,
    pub sent_ms: f64,
    pub done_ms: f64,
    /// HTTP status, 0 on a transport error.
    pub status: u16,
    pub body: String,
}

impl Shot {
    /// Latency as the caller sees it: from the scheduled send when there
    /// is one.
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms.unwrap_or(self.sent_ms)
    }

    /// Time the server held the request.
    pub fn service_ms(&self) -> f64 {
        self.done_ms - self.sent_ms
    }

    pub fn open_loop(&self) -> bool {
        self.due_ms.is_some()
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

pub fn alert(plan_list: &[Alert], item: usize) -> &Alert {
    &plan_list[item % plan_list.len()]
}

/// One keep-alive connection and the shots it sent.
struct Lane<'a> {
    addr: &'a str,
    plan: &'a Plan,
    epoch: Instant,
    client: Option<Client>,
    shots: Vec<Shot>,
}

impl<'a> Lane<'a> {
    fn new(addr: &'a str, plan: &'a Plan, epoch: Instant) -> Lane<'a> {
        Lane {
            addr,
            plan,
            epoch,
            client: None,
            shots: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    fn sleep_until(&self, ms: f64) {
        let wait = ms - self.now_ms();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
        }
    }

    /// Send `req` once its due time has come, record the shot, and
    /// return it.
    fn send(&mut self, req: Req, due_ms: Option<f64>) -> &Shot {
        if let Some(due) = due_ms {
            self.sleep_until(due);
        }
        let (path, body) = match req {
            Req::Route { item } => ("/v1/route", alert(&self.plan.primary, item).route_body()),
            Req::Storm { item } => ("/v1/route", alert(&self.plan.storm, item).route_body()),
            Req::Predict { item } => (
                "/v1/scouts/PhyNet/predict",
                alert(&self.plan.primary, item).predict_body(),
            ),
            Req::Feedback { item, incident } => (
                "/v1/feedback",
                Obj::new()
                    .uint("incident", incident)
                    .str("team", alert(&self.plan.primary, item).owner.name())
                    .finish(),
            ),
        };
        let sent_ms = self.now_ms();
        let result = match self.client.take() {
            Some(c) => Ok(c),
            None => Client::connect(self.addr),
        }
        .and_then(|mut c| {
            let resp = c.post_json(path, &body)?;
            Ok((c, resp))
        });
        let done_ms = self.now_ms();
        let (status, body) = match result {
            Ok((client, resp)) => {
                self.client = Some(client);
                (resp.status, resp.body_text())
            }
            Err(e) => (0, e.to_string()),
        };
        self.shots.push(Shot {
            req,
            due_ms,
            sent_ms,
            done_ms,
            status,
            body,
        });
        self.shots.last().expect("just pushed")
    }

    /// A predict of `item`, then (once answered) its feedback post.
    fn pair(&mut self, item: usize, due_ms: Option<f64>) {
        let shot = self.send(Req::Predict { item }, due_ms);
        if let Some(incident) = served_incident(shot) {
            let answered = shot.done_ms;
            self.send(Req::Feedback { item, incident }, due_ms.map(|_| answered));
        }
    }

    /// Fixed-rate slots `k = 0, 1, …` due from `start_ms` until
    /// `end_ms`, each handed to `each(lane, k, due)`. Lanes sharing
    /// `schedule` share one schedule: whichever is free takes the next
    /// slot.
    fn open_loop(
        &mut self,
        rate: f64,
        (start_ms, end_ms): (f64, f64),
        schedule: &AtomicUsize,
        mut each: impl FnMut(&mut Self, usize, f64),
    ) {
        loop {
            let k = schedule.fetch_add(1, Ordering::Relaxed);
            let due = start_ms + k as f64 * 1e3 / rate;
            if due >= end_ms {
                break;
            }
            each(self, k, due);
        }
    }

    /// Run the primary class through every slice: `open(lane, due)` for
    /// each slot of an open-loop slice (one schedule per slice, shared by
    /// the lanes), `closed(lane)` back to back through a closed-loop one.
    fn slices(
        &mut self,
        rate: f64,
        slices: &[Slice],
        schedules: &[AtomicUsize],
        mut open: impl FnMut(&mut Self, f64),
        mut closed: impl FnMut(&mut Self),
    ) {
        for (slice, schedule) in slices.iter().zip(schedules) {
            if slice.open {
                self.open_loop(
                    rate,
                    (slice.start_ms, slice.end_ms),
                    schedule,
                    |l, _, due| open(l, due),
                );
                self.sleep_until(slice.end_ms);
            } else {
                while self.now_ms() < slice.end_ms {
                    closed(self);
                }
            }
        }
    }
}

/// Drive one run against the server at `addr` for `seconds`; returns
/// every shot of both lanes, in send order.
pub fn drive(kind: Kind, plan: &Plan, addr: &str, seconds: f64) -> Vec<Shot> {
    let rate = primary_rate(kind);
    let end_ms = seconds * 1e3;
    let slices = slices(seconds);
    let cursor = AtomicUsize::new(0);
    let next = || cursor.fetch_add(1, Ordering::Relaxed);
    let schedules: Vec<AtomicUsize> = slices.iter().map(|_| AtomicUsize::new(0)).collect();
    let epoch = Instant::now();
    let lane = |storm_lane: bool| {
        let mut lane = Lane::new(addr, plan, epoch);
        match (kind, storm_lane) {
            (Kind::RouteStorm, true) => {
                let own = AtomicUsize::new(0);
                lane.open_loop(STORM_RATE, (0.0, end_ms), &own, |l, k, due| {
                    l.send(Req::Storm { item: k }, Some(due));
                });
            }
            (Kind::RouteFresh | Kind::RouteStorm, _) => lane.slices(
                rate,
                &slices,
                &schedules,
                |l, due| {
                    l.send(Req::Route { item: next() }, Some(due));
                },
                |l| {
                    l.send(Req::Route { item: next() }, None);
                },
            ),
            (Kind::PredictFeedback, _) => lane.slices(
                rate,
                &slices,
                &schedules,
                |l, due| l.pair(next(), Some(due)),
                |l| l.pair(next(), None),
            ),
        }
        lane.shots
    };
    let (mut shots, other) = std::thread::scope(|scope| {
        let other = scope.spawn(|| lane(kind == Kind::RouteStorm));
        (lane(false), other.join().expect("lane thread panicked"))
    });
    shots.extend(other);
    shots.sort_by(|x, y| x.sent_ms.total_cmp(&y.sent_ms));
    shots
}

/// The incident id a successful predict response assigned.
fn served_incident(shot: &Shot) -> Option<u64> {
    if !shot.ok() {
        return None;
    }
    Value::parse(&shot.body)?
        .get("incident")?
        .as_f64()
        .map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_alternate_and_tile_the_run() {
        let s = slices(14.0);
        assert_eq!(s.len(), 14);
        assert!(s[0].open && !s[1].open && s[12].open && !s[13].open);
        assert_eq!(s[0].start_ms, 0.0);
        assert_eq!(s[13].end_ms, 14_000.0);
        assert!(s.windows(2).all(|w| w[0].end_ms == w[1].start_ms));
        assert_eq!(slices(0.5).len(), 2);
    }
}
