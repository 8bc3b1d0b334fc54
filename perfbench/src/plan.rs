//! Workload inputs, generated from the world seed and the run's seed.
//!
//! The world is the one `scoutctl serve --seed <world seed>` builds for
//! itself, so every incident the benchmark sends carries its
//! ground-truth owner. The run's seed picks which of the world's
//! incidents go first and generates the storm.

use cloudsim::{FaultCatalog, Severity, StormScenario, StormScheduleConfig, Team};
use incident::{Incident, IncidentSource, Workload, WorkloadConfig};
use obs::json::Obj;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every incident once to `/v1/route`, in creation order.
    RouteFresh,
    /// Background incidents to `/v1/route` under a duplicate-burst storm.
    RouteStorm,
    /// PhyNet predicts, each followed by its ground-truth feedback.
    PredictFeedback,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "route-fresh" => Some(Kind::RouteFresh),
            "route-storm" => Some(Kind::RouteStorm),
            "predict-feedback" => Some(Kind::PredictFeedback),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::RouteFresh => "route-fresh",
            Kind::RouteStorm => "route-storm",
            Kind::PredictFeedback => "predict-feedback",
        }
    }

    /// Registered Scouts on the server: the synthetic fleet for the route
    /// workloads, the single trained PhyNet Scout otherwise.
    pub fn teams(self) -> usize {
        match self {
            Kind::RouteFresh | Kind::RouteStorm => ROUTE_TEAMS,
            Kind::PredictFeedback => 1,
        }
    }

    pub fn routes(self) -> bool {
        self != Kind::PredictFeedback
    }
}

/// Fleet width of the route workloads (`scoutctl serve --synthetic-teams`).
const ROUTE_TEAMS: usize = 32;

/// Storm roots generated per run; each is re-fired [`STORM_FIRINGS`]
/// times. Enough firings for a 60-second run at the storm rate.
const STORM_ROOTS: usize = 30;
/// Firings per storm root (the "100x" of a duplicate burst).
const STORM_FIRINGS: usize = 100;
/// Noisy sources the storm firings rotate over.
const STORM_SOURCES: usize = 4;

/// The world `scoutctl serve --seed N` generates (its `load_world` with
/// the default 4 faults per day).
pub fn world(seed: u64) -> Workload {
    let mut config = WorkloadConfig {
        seed,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 4.0;
    Workload::generate(config)
}

/// One incident as the benchmark sends it, with its true owner.
#[derive(Debug, Clone)]
pub struct Alert {
    pub text: String,
    pub time_minutes: u64,
    pub source: String,
    pub severity: u8,
    pub owner: Team,
}

impl Alert {
    fn from_incident(incident: &Incident, source: String) -> Alert {
        Alert {
            text: incident.text(),
            time_minutes: incident.created_at.0,
            source,
            severity: wire_severity(incident.severity),
            owner: incident.owner,
        }
    }

    /// `POST /v1/route` body.
    pub fn route_body(&self) -> String {
        Obj::new()
            .str("text", &self.text)
            .uint("time_minutes", self.time_minutes)
            .str("source", &self.source)
            .uint("severity", self.severity as u64)
            .finish()
    }

    /// `POST /v1/scouts/<team>/predict` body.
    pub fn predict_body(&self) -> String {
        Obj::new()
            .str("text", &self.text)
            .uint("time_minutes", self.time_minutes)
            .finish()
    }
}

/// The alert source an incident reports from: customer tickets share
/// one source, each team's watchdog is its own.
fn incident_source(incident: &Incident) -> String {
    match incident.source {
        IncidentSource::Cri => "cri".to_string(),
        IncidentSource::Monitor(team) => format!("monitor-{}", team.name().to_ascii_lowercase()),
    }
}

fn wire_severity(severity: Severity) -> u8 {
    match severity {
        Severity::Sev1 => 1,
        Severity::Sev2 => 2,
        Severity::Sev3 => 3,
    }
}

/// Everything a run may send, in send order per list. The load phases
/// take as many as their schedule reaches and wrap around if a run
/// outlasts the list.
pub struct Plan {
    /// The class whose latency is `p50_ms`/`p99_ms`: routes on
    /// route-fresh, background incidents on route-storm, predicts on
    /// predict-feedback.
    pub primary: Vec<Alert>,
    /// Storm firings on route-storm; empty otherwise.
    pub storm: Vec<Alert>,
}

pub fn plan(kind: Kind, world: &Workload, seed: u64) -> Plan {
    let incidents = stride_order(world.incidents.len(), seed).map(|i| &world.incidents[i]);
    match kind {
        Kind::RouteFresh | Kind::PredictFeedback => Plan {
            primary: incidents
                .map(|i| Alert::from_incident(i, incident_source(i)))
                .collect(),
            storm: Vec::new(),
        },
        Kind::RouteStorm => Plan {
            primary: incidents
                .enumerate()
                .map(|(k, i)| Alert::from_incident(i, format!("background-{k}")))
                .collect(),
            storm: storm_firings(world, seed),
        },
    }
}

/// Incidents a run reaches: the world's incidents split into [`STRIDE`]
/// classes by creation index modulo `STRIDE`, each class in creation
/// order, the classes in an order the seed shuffles. A run sends a few
/// hundred routes, so its first class alone spans the world's whole
/// timeline, not just its first weeks, and each seed starts from
/// another part of the world.
const STRIDE: usize = 10;

fn stride_order(n: usize, seed: u64) -> impl Iterator<Item = usize> {
    let mut offsets: Vec<usize> = (0..STRIDE).collect();
    offsets.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x0FF5_E700));
    offsets
        .into_iter()
        .flat_map(move |offset| (offset..n).step_by(STRIDE))
}

/// Duplicate-burst firings: each root re-fires [`STORM_FIRINGS`] times as
/// near-duplicates of a real incident of the root's fault kind, rotating
/// over [`STORM_SOURCES`] sources, ordered by simulated time.
fn storm_firings(world: &Workload, seed: u64) -> Vec<Alert> {
    let catalog = FaultCatalog::new(&world.topology);
    let config = StormScheduleConfig {
        scenario: StormScenario::DuplicateBurst,
        roots: STORM_ROOTS,
        ..StormScheduleConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5702_FA17);
    let faults = catalog.generate_storm(&config, || rng.gen::<f64>());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5702);
    let mut firings = Vec::with_capacity(faults.len() * STORM_FIRINGS);
    for (root, fault) in faults.iter().enumerate() {
        let same_kind: Vec<&Incident> = world
            .incidents
            .iter()
            .filter(|i| world.faults[i.fault_id as usize].kind == fault.kind)
            .collect();
        let template = match same_kind.len() {
            0 => &world.incidents[root % world.incidents.len()],
            n => same_kind[rng.gen_range(0..n)],
        };
        let text = template.text();
        for k in 0..STORM_FIRINGS {
            firings.push(Alert {
                text: perturb(&text, &mut rng),
                time_minutes: fault.start.0 + k as u64 / 10,
                source: format!("watchdog-{}", (root + k) % STORM_SOURCES),
                severity: wire_severity(fault.severity),
                owner: template.owner,
            });
        }
    }
    firings.sort_by_key(|a| a.time_minutes);
    firings
}

/// A near-duplicate rendering of `text` using only what the storm
/// fingerprint normalizes away: case flips, punctuation churn and
/// appended digit runs.
fn perturb(text: &str, rng: &mut SmallRng) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() && rng.gen_bool(0.3) {
            out.push(if ch.is_ascii_lowercase() {
                ch.to_ascii_uppercase()
            } else {
                ch.to_ascii_lowercase()
            });
        } else if (ch == ' ' || ch == ',') && rng.gen_bool(0.2) {
            out.push_str(" - ");
        } else {
            out.push(ch);
        }
    }
    out.push_str(&format!(
        " {} {}",
        rng.gen_range(0u32..1_000_000),
        rng.gen_range(0u32..86_400)
    ));
    out
}

/// The properties of the world's incidents in creation order.
pub fn world_properties(world: &Workload) -> Properties {
    let alerts: Vec<Alert> = world
        .incidents
        .iter()
        .map(|i| Alert::from_incident(i, incident_source(i)))
        .collect();
    Properties::of(&alerts)
}

/// Input properties the serving layers' behaviour depends on.
#[derive(Debug, Default)]
pub struct Properties {
    pub requests: usize,
    pub distinct_texts: usize,
    /// Requests whose `storm::fingerprint` an earlier request already had.
    pub fingerprint_repeats: usize,
    /// ... of which the earlier request had another owner.
    pub repeats_other_owner: usize,
    pub sev3: usize,
}

impl Properties {
    pub fn of<'a>(alerts: impl IntoIterator<Item = &'a Alert>) -> Properties {
        let mut p = Properties::default();
        let mut texts = BTreeSet::new();
        let mut first_owner: BTreeMap<u64, Team> = BTreeMap::new();
        for a in alerts {
            p.requests += 1;
            texts.insert(a.text.as_str());
            p.sev3 += usize::from(a.severity == 3);
            let fp = storm::fingerprint(&a.text, &a.source);
            match first_owner.get(&fp) {
                Some(&owner) => {
                    p.fingerprint_repeats += 1;
                    p.repeats_other_owner += usize::from(owner != a.owner);
                }
                None => {
                    first_owner.insert(fp, a.owner);
                }
            }
        }
        p.distinct_texts = texts.len();
        p
    }

    pub fn render(&self) -> String {
        format!(
            "{} requests, {} distinct texts ({:.3}), {} fingerprint repeats ({:.3}; {} with another owner), {} Sev3 ({:.3})",
            self.requests,
            self.distinct_texts,
            share(self.distinct_texts, self.requests),
            self.fingerprint_repeats,
            share(self.fingerprint_repeats, self.requests),
            self.repeats_other_owner,
            self.sev3,
            share(self.sev3, self.requests),
        )
    }
}

fn share(part: usize, whole: usize) -> f64 {
    crate::stats::ratio(part as f64, whole as f64)
}
