//! The benchmark's own models, the reference answer for every request,
//! and the traced in-process replay that attributes time to layers.
//!
//! Models are trained by the same public calls `scoutctl serve` makes at
//! startup, with the same world, config and seed, so every reference is
//! what the server must answer.

use crate::load::{alert, Req, Shot};
use crate::plan::{Alert, Plan};
use cloudsim::{SimTime, Team};
use incident::Workload;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::Value;
use scout::{Example, ModelUsed, Prediction, Scout, ScoutBuildConfig, ScoutConfig, Verdict};
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster};
use serve::{FleetConfig, ModelRegistry, TeamOutcome};
use std::collections::BTreeSet;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, RwLock};
use std::time::Instant;
use storm::{Clock, DedupOutcome, StormConfig, StormControl};

/// Per-team chunk-cache budget: `scoutctl serve`'s `--feat-cache-mb` default.
const FEAT_CACHE_BYTES: usize = 64 * 1024 * 1024;
/// Training uses incidents created before this day (as `scoutctl` does).
const TRAIN_CUTOFF_DAYS: u64 = 180;
/// Inputs per reference `dispatch_batch` / `predict_many` call.
const REFERENCE_BATCH: usize = 16;
/// Replayed fan-outs that also get the per-team breakdown (it costs as
/// much as the fan-out itself, so it is sampled from the run's start).
const PER_TEAM_SAMPLES: usize = 48;

/// A `/v1/route` decision: the team it sends to (`None` = fallback) and
/// the top-k suggestions.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteAnswer {
    pub team: Option<String>,
    pub suggestions: Vec<(String, f64)>,
}

impl RouteAnswer {
    /// Parse a route response body; the flag says whether storm control
    /// answered it from an earlier incident's cached decision.
    pub fn parse(body: &str) -> Option<(RouteAnswer, bool)> {
        let v = Value::parse(body)?;
        let team = match v.get("decision")?.as_str()? {
            "send_to" => Some(v.get("team")?.as_str()?.to_string()),
            "fallback" => None,
            _ => return None,
        };
        let suggestions = v
            .get("suggestions")?
            .as_arr()?
            .iter()
            .map(|s| {
                Some((
                    s.get("team")?.as_str()?.to_string(),
                    s.get("confidence")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let suppressed = matches!(
            v.get("storm").and_then(|s| s.get("suppressed")),
            Some(Value::Bool(true))
        );
        Some((RouteAnswer { team, suggestions }, suppressed))
    }

    /// The Scout Master's decision over one outcome set, as the server's
    /// route handler takes it.
    fn decide(outcomes: &[TeamOutcome], master: &FleetMaster, k: usize) -> RouteAnswer {
        let answers: Vec<FleetAnswer> = outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|a| {
                FleetAnswer::new(
                    a.team.clone(),
                    a.prediction.says_responsible(),
                    a.prediction.confidence,
                )
            })
            .collect();
        let team = match master.route(&answers) {
            FleetDecision::SendTo(team) => Some(team),
            FleetDecision::Fallback => None,
        };
        let suggestions = master
            .suggestions(&answers, k)
            .into_iter()
            .map(|s| (s.team, s.confidence))
            .collect();
        RouteAnswer { team, suggestions }
    }

    /// `scoutctl fleetgen`'s accuracy rule: a hit names the owner's base
    /// team, or falls back when the owner has no Scout.
    pub fn hit(&self, owner: Team, scouted: &BTreeSet<&str>) -> bool {
        if scouted.contains(owner.name()) {
            self.team
                .as_deref()
                .is_some_and(|t| cloudsim::base_team_name(t) == owner.name())
        } else {
            self.team.is_none()
        }
    }
}

/// A predict verdict as the server renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictAnswer {
    pub verdict: String,
    pub model: String,
    pub confidence: f64,
}

impl PredictAnswer {
    pub fn parse(body: &str) -> Option<PredictAnswer> {
        let v = Value::parse(body)?;
        Some(PredictAnswer {
            verdict: v.get("verdict")?.as_str()?.to_string(),
            model: v.get("model")?.as_str()?.to_string(),
            confidence: v.get("confidence")?.as_f64()?,
        })
    }

    fn of(p: &Prediction) -> PredictAnswer {
        let verdict = match p.verdict {
            Verdict::Responsible => "responsible",
            Verdict::NotResponsible => "not_responsible",
            Verdict::Fallback => "fallback",
        };
        let model = match p.model {
            ModelUsed::RandomForest => "random_forest",
            ModelUsed::CpdConservative => "cpd_conservative",
            ModelUsed::CpdCluster => "cpd_cluster",
            ModelUsed::Exclusion => "exclusion",
            ModelUsed::Fallback => "fallback",
        };
        PredictAnswer {
            verdict: verdict.to_string(),
            model: model.to_string(),
            confidence: p.confidence,
        }
    }

    /// Right when the verdict matches whether PhyNet owns the incident.
    pub fn hit(&self, owner: Team) -> bool {
        (self.verdict == "responsible") == (owner == Team::PhyNet)
    }
}

/// The reference answer for one shot.
#[derive(Debug, Clone)]
pub enum Reference {
    Route(RouteAnswer),
    Predict(PredictAnswer),
}

/// Trained Scouts, kept as their text form so every registry built from
/// them is independent (its own chunk caches), as in `scoutctl serve`.
pub struct Models {
    /// `(team, model text)` in registration order.
    teams: Vec<(String, String)>,
    /// The route workloads' Scout Master over the synthetic fleet graph.
    pub master: FleetMaster,
    pub fleet: FleetConfig,
}

impl Models {
    /// `scoutctl serve --synthetic-teams n`: nine base Scouts trained from
    /// one shared featurization pass, replicas named by
    /// `cloudsim::synthetic_team_name`.
    pub fn synthetic_fleet(world: &Workload, n: usize) -> Models {
        let bases: Vec<Team> = cloudsim::TeamRegistry::new().internal_teams().collect();
        let mon = monitoring(world);
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .map(|i| Example::new(i.text(), i.created_at, false))
            .collect();
        let owners: Vec<Team> = world.incidents.iter().map(|i| i.owner).collect();
        let config = ScoutConfig::phynet();
        let build = ScoutBuildConfig::default();
        let cache = featcache::FeatCache::new(FEAT_CACHE_BYTES);
        let corpus = Scout::prepare_cached(&config, &build, &examples, &mon, Some(&cache));
        let cutoff = SimTime::from_days(TRAIN_CUTOFF_DAYS);
        let base_models: Vec<String> = bases
            .iter()
            .take(bases.len().min(n))
            .map(|base| {
                let relabeled = corpus.relabeled(|i, _| owners[i] == *base);
                let train: Vec<usize> = relabeled
                    .trainable_indices()
                    .into_iter()
                    .filter(|&i| relabeled.items[i].example.time < cutoff)
                    .collect();
                Scout::train_prepared(config.clone(), build.clone(), &relabeled, &train, &mon)
                    .to_text()
            })
            .collect();
        let teams = (0..n)
            .map(|i| {
                let name = cloudsim::synthetic_team_name(bases[i % bases.len()], i / bases.len());
                (name, base_models[i % bases.len()].clone())
            })
            .collect();
        Models {
            teams,
            master: FleetMaster::with_graph(cloudsim::DependencyGraph::synthetic_fleet(n)),
            fleet: serve_fleet_config(),
        }
    }

    /// `scoutctl serve` without a fleet: one PhyNet Scout trained on the
    /// incidents before the cutoff.
    pub fn phynet(world: &Workload) -> Models {
        let mon = monitoring(world);
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
            .collect();
        let build = ScoutBuildConfig::default();
        let cache = featcache::FeatCache::new(FEAT_CACHE_BYTES);
        let config = ScoutConfig::phynet();
        let corpus = Scout::prepare_cached(&config, &build, &examples, &mon, Some(&cache));
        let cutoff = SimTime::from_days(TRAIN_CUTOFF_DAYS);
        let train: Vec<usize> = corpus
            .trainable_indices()
            .into_iter()
            .filter(|&i| corpus.items[i].example.time < cutoff)
            .collect();
        let scout = Scout::train_prepared(config, build, &corpus, &train, &mon);
        Models {
            teams: vec![(Team::PhyNet.name().to_string(), scout.to_text())],
            master: FleetMaster::default(),
            fleet: serve_fleet_config(),
        }
    }

    /// A fresh registry holding every Scout, each with a cold chunk cache.
    pub fn registry(&self) -> Result<Arc<ModelRegistry>, String> {
        let registry = Arc::new(ModelRegistry::with_feat_cache_bytes(FEAT_CACHE_BYTES));
        for (team, text) in &self.teams {
            let scout = Scout::from_text(text).map_err(|e| format!("model round trip: {e}"))?;
            registry
                .register(team, scout, "perfbench")
                .map_err(|e| format!("registering {team}: {e}"))?;
        }
        Ok(registry)
    }

    /// Team names with a Scout, reduced to their base team.
    pub fn scouted(&self) -> BTreeSet<&str> {
        self.teams
            .iter()
            .map(|(t, _)| cloudsim::base_team_name(t))
            .collect()
    }
}

/// The fleet plane as `scoutctl serve` configures it by default.
fn serve_fleet_config() -> FleetConfig {
    FleetConfig {
        shards: serve::fleet::DEFAULT_SHARDS,
        suggestions: serve::fleet::DEFAULT_SUGGESTIONS,
        fail_teams: Vec::new(),
    }
}

fn monitoring(world: &Workload) -> MonitoringSystem<'_> {
    MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default())
}

/// The alert a route shot sent.
pub fn route_alert(plan: &Plan, req: Req) -> Option<&Alert> {
    match req {
        Req::Route { item } => Some(alert(&plan.primary, item)),
        Req::Storm { item } => Some(alert(&plan.storm, item)),
        _ => None,
    }
}

/// Reference answers for the shots at `indices`: routes through
/// `fleet::dispatch_batch` + the Scout Master, predicts through
/// `Scout::predict_many`. Returns `(shot index, reference)` pairs.
pub fn references(
    models: &Models,
    registry: &ModelRegistry,
    world: &Workload,
    plan: &Plan,
    shots: &[Shot],
    indices: &[usize],
) -> Vec<(usize, Reference)> {
    let entries = registry.snapshot();
    let mut out = Vec::with_capacity(indices.len());
    for chunk in indices.chunks(REFERENCE_BATCH) {
        let alerts: Vec<&Alert> = chunk
            .iter()
            .map(|&i| match shots[i].req {
                Req::Predict { item } => alert(&plan.primary, item),
                req => route_alert(plan, req).expect("references are for routes and predicts"),
            })
            .collect();
        let inputs: Vec<(&str, SimTime)> = alerts
            .iter()
            .map(|a| (a.text.as_str(), SimTime(a.time_minutes)))
            .collect();
        if matches!(shots[chunk[0]].req, Req::Predict { .. }) {
            let mon = monitoring(world);
            let predictions = entries[0].scout.predict_many(&inputs, &mon);
            out.extend(
                chunk
                    .iter()
                    .zip(&predictions)
                    .map(|(&i, p)| (i, Reference::Predict(PredictAnswer::of(p)))),
            );
        } else {
            let outcomes = serve::fleet::dispatch_batch(
                &entries,
                world,
                &MonitoringConfig::default(),
                &inputs,
                None,
                &models.fleet,
                &[],
            );
            out.extend(chunk.iter().zip(&outcomes).map(|(&i, o)| {
                let answer = RouteAnswer::decide(o, &models.master, models.fleet.suggestions);
                (i, Reference::Route(answer))
            }));
        }
    }
    out
}

/// Per-request self times and counts from the traced replay.
#[derive(Debug, Default)]
pub struct Layers {
    /// Requests replayed (routes and predicts).
    pub requests: usize,
    /// Replayed requests that paid a fan-out (or a predict).
    pub fanouts: usize,
    pub storm_front_us: Vec<f64>,
    pub monitoring_build_ms: Vec<f64>,
    pub dispatch_ms: Vec<f64>,
    /// Per sampled fan-out: summed per-team prepare + classify time, and
    /// the same fan-out's `dispatch_batch` wall time.
    pub team_busy_ms: Vec<f64>,
    pub dispatch_sampled_ms: Vec<f64>,
    /// Per team-incident call.
    pub prepare_ms: Vec<f64>,
    pub classify_ms: Vec<f64>,
    /// Per fan-out: summed forest scoring of the forest-routed rows.
    pub score_ms: Vec<f64>,
    pub master_us: Vec<f64>,
    /// Per fan-out: distinct feature vectors among its teams.
    pub distinct_rows: Vec<f64>,
    /// Per sampled predict: `Batcher::submit` to reply, minus the
    /// predict's own prepare + classify.
    pub batcher_wait_ms: Vec<f64>,
    /// Per replayed primary request: the summed blocking layers (for a
    /// predict, `Batcher::submit` to reply).
    pub traced_ms: Vec<f64>,
    /// Replayed decisions compared with the HTTP run's, and how many differed.
    pub compared: usize,
    pub mismatched: usize,
    /// Route shots the replay's storm stage suppressed and the server
    /// did not, or the reverse.
    pub dedup_disagreed: usize,
}

/// Per-team prepare → classify → forest scoring of one incident on a
/// registry of its own, accumulated into `layers`.
fn per_team(
    registry: &ModelRegistry,
    mon: &MonitoringSystem<'_>,
    alert: &Alert,
    layers: &mut Layers,
) -> f64 {
    let config = ScoutConfig::phynet();
    let build = ScoutBuildConfig::default();
    let example = [Example::new(
        alert.text.as_str(),
        SimTime(alert.time_minutes),
        false,
    )];
    let (mut busy, mut score) = (0.0, 0.0);
    let mut rows: BTreeSet<Vec<u64>> = BTreeSet::new();
    for entry in registry.snapshot() {
        let t = Instant::now();
        let corpus = Scout::prepare_cached(&config, &build, &example, mon, Some(&entry.feat_cache));
        let prepare = ms_since(t);
        let t = Instant::now();
        let prediction = entry.scout.predict_prepared(&corpus.items[0], mon);
        let classify = ms_since(t);
        let item = &corpus.items[0];
        if let Some(features) = &item.features {
            rows.insert(features.iter().map(|x| x.to_bits()).collect());
            if prediction.model == ModelUsed::RandomForest {
                let mut matrix = ml::FeatureMatrix::zeros(1, features.len());
                matrix.row_mut(0).copy_from_slice(features);
                let t = Instant::now();
                std::hint::black_box(entry.scout.forest().predict_proba_matrix(&matrix));
                score += ms_since(t);
            }
        }
        layers.prepare_ms.push(prepare);
        layers.classify_ms.push(classify);
        busy += prepare + classify;
    }
    layers.score_ms.push(score);
    layers.distinct_rows.push(rows.len() as f64);
    busy
}

/// Replay the route shots at `indices` (in send order) through the
/// layers' public functions in the server's order: storm admit/observe,
/// monitoring build, `dispatch_batch`, Scout Master. The storm stage runs
/// on a manual clock set to each shot's send time and sees every route
/// shot, traced or not, and an original's decision is stored when its
/// HTTP answer arrived, so dedup sees what the server saw. Returns the
/// layers and the fan-out shots' references.
pub fn replay_routes(
    models: &Models,
    world: &Workload,
    plan: &Plan,
    shots: &[Shot],
    indices: &[usize],
) -> Result<(Layers, Vec<(usize, Reference)>), String> {
    let dispatch_registry = models.registry()?;
    let team_registry = models.registry()?;
    let entries = dispatch_registry.snapshot();
    let (clock, hand) = Clock::manual();
    let storm = StormControl::with_clock(StormConfig::default(), clock);
    let mut pending: Vec<(f64, u64)> = Vec::new();
    let mut layers = Layers::default();
    let mut refs = Vec::new();
    let traced: BTreeSet<usize> = indices.iter().copied().collect();
    for (i, shot) in shots.iter().enumerate() {
        let Some(a) = route_alert(plan, shot.req) else {
            continue;
        };
        // Originals answered before this shot was sent are in the table.
        pending.retain(|&(done, fp)| {
            let answered = done <= shot.sent_ms;
            if answered {
                storm.store_decision(fp, String::new());
            }
            !answered
        });
        hand.set(shot.sent_ms as u64);
        let t = Instant::now();
        let admitted = storm.admit(&a.source, storm.now_ms()).is_ok();
        let (fp, outcome) = storm.observe(&a.text, &a.source, storm.now_ms());
        let front_us = ms_since(t) * 1e3;
        if !traced.contains(&i) {
            // Untraced routes (the closed-loop ones) only keep the storm
            // stage's buckets and dedup table as the server's were.
            if admitted && matches!(outcome, DedupOutcome::Fresh) {
                pending.push((shot.done_ms, fp));
            }
            continue;
        }
        layers.requests += 1;
        layers.storm_front_us.push(front_us);
        if !admitted {
            continue;
        }
        let http = RouteAnswer::parse(&shot.body);
        let fresh = match outcome {
            DedupOutcome::Duplicate {
                decision: Some(_), ..
            } => {
                layers.dedup_disagreed += usize::from(matches!(http, Some((_, false))));
                continue;
            }
            DedupOutcome::Duplicate { .. } => false,
            DedupOutcome::Fresh => true,
        };
        layers.dedup_disagreed += usize::from(matches!(http, Some((_, true))));
        layers.fanouts += 1;
        let t = Instant::now();
        let mon = monitoring(world);
        layers.monitoring_build_ms.push(ms_since(t));
        let t = Instant::now();
        let outcomes = serve::fleet::dispatch_batch(
            &entries,
            world,
            &MonitoringConfig::default(),
            &[(a.text.as_str(), SimTime(a.time_minutes))],
            None,
            &models.fleet,
            &[],
        );
        let dispatch = ms_since(t);
        let t = Instant::now();
        let answer = RouteAnswer::decide(&outcomes[0], &models.master, models.fleet.suggestions);
        let master_us = ms_since(t) * 1e3;
        layers.dispatch_ms.push(dispatch);
        layers.master_us.push(master_us);
        if shot.req.primary() {
            layers
                .traced_ms
                .push(front_us / 1e3 + dispatch + master_us / 1e3);
        }
        if layers.team_busy_ms.len() < PER_TEAM_SAMPLES {
            let busy = per_team(&team_registry, &mon, a, &mut layers);
            layers.team_busy_ms.push(busy);
            layers.dispatch_sampled_ms.push(dispatch);
        }
        if let Some((http, false)) = http {
            layers.compared += 1;
            layers.mismatched += usize::from(http != answer);
        }
        if fresh {
            pending.push((shot.done_ms, fp));
        }
        refs.push((i, Reference::Route(answer)));
    }
    Ok((layers, refs))
}

/// Replay the predict shots at `indices` through an in-process
/// `serve::Batcher` (the server's micro-batcher) and, on a registry of
/// its own, the per-stage calls behind it.
pub fn replay_predicts(
    models: &Models,
    world: &Arc<Workload>,
    plan: &Plan,
    shots: &[Shot],
    indices: &[usize],
) -> Result<Layers, String> {
    let batch_registry = models.registry()?;
    let team_registry = models.registry()?;
    let batcher = serve::Batcher::start(
        Arc::clone(&batch_registry),
        Arc::clone(world),
        Arc::new(RwLock::new(MonitoringConfig::default())),
        serve::BatchConfig::default(),
    );
    let mut layers = Layers::default();
    for &i in indices {
        let shot = &shots[i];
        let Req::Predict { item } = shot.req else {
            continue;
        };
        let a = alert(&plan.primary, item);
        layers.requests += 1;
        layers.fanouts += 1;
        let (tx, rx) = sync_channel(1);
        let t = Instant::now();
        batcher
            .submit(serve::Job {
                team: Team::PhyNet.name().to_string(),
                text: a.text.clone(),
                time: SimTime(a.time_minutes),
                deadline: None,
                permit: None,
                reply: tx,
                ctx: obs::TraceContext::NONE,
            })
            .map_err(|_| "the in-process batcher refused a job".to_string())?;
        let answer = rx
            .recv()
            .map_err(|_| "the in-process batcher dropped a job".to_string())?
            .map_err(|e| format!("in-process predict failed: {e}"))?;
        let total = ms_since(t);
        let t = Instant::now();
        let mon = monitoring(world);
        layers.monitoring_build_ms.push(ms_since(t));
        if layers.team_busy_ms.len() < PER_TEAM_SAMPLES {
            let busy = per_team(&team_registry, &mon, a, &mut layers);
            layers.team_busy_ms.push(busy);
            layers.batcher_wait_ms.push(total - busy);
        }
        layers.traced_ms.push(total);
        if let Some(http) = PredictAnswer::parse(&shot.body) {
            layers.compared += 1;
            layers.mismatched += usize::from(http != PredictAnswer::of(&answer.prediction));
        }
    }
    Ok(layers)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
