//! Fleet routing-plane benchmark, emitted as `BENCH_fleet.json` at the
//! workspace root.
//!
//! Each row is a fleet of synthetic teams. Replica rows (8 / 32 / 128
//! teams) train every base team under one build config, so the whole
//! fleet shares one featurization key; the mixed row cycles each base
//! team's replicas through three build configs (the base, one with a
//! data set disabled, one with a shorter look-back), so the fan-out
//! featurizes each incident once per key. For each row this measures:
//!
//! * **throughput + latency** of `POST /v1/route` under a concurrent
//!   client fleet — every request fans the incident out to all N
//!   registered Scouts across the rendezvous shards;
//! * **fleet accuracy** against an independent per-Scout baseline: each
//!   Scout's own `predict_many` on the incident, one Scout after
//!   another, never touching `dispatch_batch`. Both outcome sets go
//!   through the same string-keyed Scout Master. The dispatch outcomes
//!   are asserted bit-identical to the baseline (verdict, model,
//!   confidence bits), so the sharded accuracy can never trail it.
//!
//! `BENCH_SMOKE=1` shrinks the world, fleet sizes, and request counts —
//! used by `scripts/check.sh --bench-smoke` and CI.

use cloudsim::{DependencyGraph, SimDuration, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{Dataset, MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster};
use serve::{
    Answer, Client, Engine, FleetConfig, ModelEntry, ModelRegistry, ServeConfig, Server,
    TeamOutcome,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;
const CONCURRENCY: usize = 4;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn bench_workload(smoke: bool) -> Arc<Workload> {
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(if smoke { 20 } else { 40 });
    Arc::new(Workload::generate(config))
}

/// The build configs of the mixed fleet; the replica fleets use the
/// first. Each one changes what featurization reads.
fn build_variants() -> Vec<ScoutBuildConfig> {
    let base = ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    };
    vec![
        base.clone(),
        ScoutBuildConfig {
            disabled_datasets: vec![Dataset::PingStats],
            ..base.clone()
        },
        ScoutBuildConfig {
            lookback: SimDuration::hours(1),
            ..base
        },
    ]
}

/// One trained model text per internal base team under `build`, from a
/// single shared featurization pass (the labels are the only per-team
/// difference).
fn base_models(world: &Workload, build: &ScoutBuildConfig) -> Vec<(Team, String)> {
    let bases: Vec<Team> = cloudsim::TeamRegistry::new().internal_teams().collect();
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, false))
        .collect();
    let owners: Vec<Team> = world.incidents.iter().map(|i| i.owner).collect();
    let config = ScoutConfig::phynet();
    let corpus = Scout::prepare(&config, build, &examples, &mon);
    bases
        .into_iter()
        .map(|base| {
            let relabeled = corpus.relabeled(|i, _| owners[i] == base);
            let train = relabeled.trainable_indices();
            let scout =
                Scout::train_prepared(config.clone(), build.clone(), &relabeled, &train, &mon);
            (base, scout.to_text())
        })
        .collect()
}

/// One bench fleet: `(team name, model text)` per team, registered in
/// this order.
struct Fleet {
    teams: Vec<(String, String)>,
    /// The base teams with a Scout.
    scouted: Vec<Team>,
}

/// `n` teams: replica `r` of base `b` is `{b}-{r}` (as
/// `scoutctl serve --synthetic-teams` names them) and runs the base's
/// model under variant `r % variants.len()`.
fn fleet(variants: &[Vec<(Team, String)>], n: usize) -> Fleet {
    let bases = &variants[0];
    let teams = (0..n)
        .map(|i| {
            let (base, replica) = (i % bases.len(), i / bases.len());
            let (team, text) = &variants[replica % variants.len()][base];
            (cloudsim::synthetic_team_name(*team, replica), text.clone())
        })
        .collect();
    Fleet {
        teams,
        scouted: bases.iter().take(n).map(|(t, _)| *t).collect(),
    }
}

fn fleet_entries(fleet: &Fleet) -> Vec<Arc<ModelEntry>> {
    let cache = Arc::new(FeatCache::new(16 * 1024 * 1024));
    fleet
        .teams
        .iter()
        .enumerate()
        .map(|(i, (team, text))| {
            Arc::new(ModelEntry {
                team: team.clone(),
                version: i as u64 + 1,
                source: "bench".into(),
                scout: Scout::from_text(text).expect("model round-trip"),
                feat_cache: Arc::clone(&cache),
            })
        })
        .collect()
}

fn fleet_registry(fleet: &Fleet) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for (team, text) in &fleet.teams {
        let scout = Scout::from_text(text).expect("model round-trip");
        registry
            .register(team, scout, "bench")
            .expect("register bench model");
    }
    registry
}

/// Evenly-strided sample of incident route bodies across the workload.
fn sample_bodies(world: &Workload, count: usize) -> Vec<String> {
    let total = world.incidents.len();
    (0..count.min(total))
        .map(|k| {
            let incident = &world.incidents[k * total / count.min(total)];
            obs::json::Obj::new()
                .str("text", &incident.text())
                .uint("time_minutes", incident.created_at.0)
                .finish()
        })
        .collect()
}

struct HttpStats {
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    requests: usize,
}

fn run_http(fleet: &Fleet, world: &Arc<Workload>, requests: usize) -> HttpStats {
    let n = fleet.teams.len();
    let engine = Engine::new(fleet_registry(fleet), Arc::clone(world))
        .with_master(FleetMaster::with_graph(DependencyGraph::synthetic_fleet(n)))
        .with_fleet(FleetConfig {
            shards: SHARDS,
            suggestions: 5,
            fail_teams: Vec::new(),
        });
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 64,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let bodies = Arc::new(sample_bodies(world, requests));

    // Warm up the thread pool and connection paths (the chunk cache only
    // holds the warm-up incident, so the measured pass still pays
    // featurization once per distinct incident text and config).
    let mut warm = Client::connect(&addr).expect("warmup connect");
    assert!(warm
        .post_json("/v1/route", &bodies[0])
        .expect("warmup request")
        .is_success());

    let started = Instant::now();
    let handles: Vec<_> = (0..CONCURRENCY)
        .map(|w| {
            let addr = addr.clone();
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut latencies = Vec::new();
                for body in bodies.iter().skip(w).step_by(CONCURRENCY) {
                    let t0 = Instant::now();
                    let resp = client.post_json("/v1/route", body).expect("route");
                    assert!(
                        resp.is_success(),
                        "status {}: {}",
                        resp.status,
                        resp.body_text()
                    );
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    HttpStats {
        throughput_rps: latencies.len() as f64 / wall,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        requests: latencies.len(),
    }
}

struct AccuracyStats {
    fleet_accuracy: f64,
    sequential_accuracy: f64,
    sample: usize,
    bit_identical: bool,
}

fn outcome_key(outcomes: &[TeamOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| match &o.result {
            Ok(a) => format!(
                "{} {:?} {:?} {:016x}\n",
                a.team,
                a.prediction.verdict,
                a.prediction.model,
                a.prediction.confidence.to_bits()
            ),
            Err(e) => format!("{} ERR {e}\n", o.team),
        })
        .collect()
}

/// The baseline: every Scout's own `predict_many` on the incident, one
/// after another, sorted by team like `dispatch_batch` output.
fn per_scout_outcomes(
    entries: &[Arc<ModelEntry>],
    mon: &MonitoringSystem<'_>,
    input: (&str, cloudsim::SimTime),
) -> Vec<TeamOutcome> {
    let mut outcomes: Vec<TeamOutcome> = entries
        .iter()
        .map(|entry| {
            let prediction = entry
                .scout
                .predict_many(&[input], mon)
                .pop()
                .expect("one input yields one prediction");
            TeamOutcome {
                team: entry.team.clone(),
                result: Ok(Answer {
                    team: entry.team.clone(),
                    model_version: entry.version,
                    prediction,
                }),
            }
        })
        .collect();
    outcomes.sort_by(|a, b| a.team.cmp(&b.team));
    outcomes
}

fn decision_hits(
    master: &FleetMaster,
    outcomes: &[TeamOutcome],
    owner: Team,
    scouted: &[Team],
) -> bool {
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
    match master.route(&answers) {
        FleetDecision::SendTo(team) => cloudsim::base_team_name(&team) == owner.name(),
        FleetDecision::Fallback => !scouted.contains(&owner),
    }
}

fn run_accuracy(fleet: &Fleet, world: &Arc<Workload>, sample: usize) -> AccuracyStats {
    let entries = fleet_entries(fleet);
    let master = FleetMaster::with_graph(DependencyGraph::synthetic_fleet(entries.len()));
    let config = FleetConfig {
        shards: SHARDS,
        suggestions: 5,
        fail_teams: Vec::new(),
    };
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());

    let total = world.incidents.len();
    let sample = sample.min(total);
    let mut fleet_hits = 0usize;
    let mut sequential_hits = 0usize;
    let mut bit_identical = true;
    for k in 0..sample {
        let incident = &world.incidents[k * total / sample];
        let text = incident.text();
        let input = (text.as_str(), incident.created_at);
        let sharded = serve::fleet::dispatch_batch(
            &entries,
            world,
            &MonitoringConfig::default(),
            &[input],
            None,
            &config,
            &[],
        )
        .pop()
        .expect("one input yields one outcome set");
        let sequential = per_scout_outcomes(&entries, &mon, input);
        bit_identical &= outcome_key(&sharded) == outcome_key(&sequential);
        fleet_hits += decision_hits(&master, &sharded, incident.owner, &fleet.scouted) as usize;
        sequential_hits +=
            decision_hits(&master, &sequential, incident.owner, &fleet.scouted) as usize;
    }
    AccuracyStats {
        fleet_accuracy: fleet_hits as f64 / sample as f64,
        sequential_accuracy: sequential_hits as f64 / sample as f64,
        sample,
        bit_identical,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    // (kind, teams, http requests, accuracy sample) per row.
    let rows_spec: &[(&str, usize, usize, usize)] = if smoke {
        &[("replica", 8, 12, 12), ("mixed", 27, 12, 6)]
    } else {
        &[
            ("replica", 8, 128, 32),
            ("replica", 32, 96, 32),
            ("replica", 128, 64, 24),
            ("mixed", 32, 96, 32),
        ]
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let world = bench_workload(smoke);
    let builds = build_variants();
    eprintln!(
        "training {} base models × {} build configs on {} incidents…",
        cloudsim::TeamRegistry::new().internal_teams().count(),
        builds.len(),
        world.incidents.len()
    );
    let variants: Vec<Vec<(Team, String)>> =
        builds.iter().map(|b| base_models(&world, b)).collect();

    let mut rows = String::new();
    for (i, &(kind, n, requests, sample)) in rows_spec.iter().enumerate() {
        let fleet = match kind {
            "replica" => fleet(&variants[..1], n),
            _ => fleet(&variants, n),
        };
        let keys = fleet_entries(&fleet)
            .iter()
            .map(|e| e.scout.featurization_key().to_string())
            .collect::<BTreeSet<_>>()
            .len();
        eprintln!(
            "{kind} fleet of {n} ({keys} featurization keys): HTTP run ({requests} requests)…"
        );
        let http = run_http(&fleet, &world, requests);
        eprintln!("{kind} fleet of {n}: accuracy run ({sample} incidents)…");
        let acc = run_accuracy(&fleet, &world, sample);
        assert!(
            acc.bit_identical,
            "dispatch diverged from the per-Scout baseline ({kind}, {n} teams)"
        );
        assert!(
            acc.fleet_accuracy >= acc.sequential_accuracy,
            "fleet accuracy fell below the per-Scout baseline ({kind}, {n} teams)"
        );
        println!(
            "{kind:<8} teams {n:>4} keys {keys}   {:>7.2} req/s   p50 {:>8.1} ms   p99 {:>8.1} ms   accuracy {:.3} (per-Scout {:.3})",
            http.throughput_rps, http.p50_ms, http.p99_ms, acc.fleet_accuracy, acc.sequential_accuracy
        );
        rows.push_str(&format!(
            "    {{\"fleet\": \"{kind}\", \"teams\": {n}, \"featurization_keys\": {keys}, \"requests\": {}, \"throughput_rps\": {:.2}, \"p50_ms\": {:.1}, \"p99_ms\": {:.1}, \"accuracy_sample\": {}, \"fleet_accuracy\": {:.4}, \"sequential_accuracy\": {:.4}, \"bit_identical\": {}}}{}\n",
            http.requests,
            http.throughput_rps,
            http.p50_ms,
            http.p99_ms,
            acc.sample,
            acc.fleet_accuracy,
            acc.sequential_accuracy,
            acc.bit_identical,
            if i + 1 < rows_spec.len() { "," } else { "" }
        ));
    }

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"nproc\": {nproc},\n  \"shards\": {SHARDS},\n  \"concurrency\": {CONCURRENCY},\n  \"sequential_baseline\": \"per-Scout predict_many\",\n  \"sizes\": [\n{rows}  ]\n}}\n"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_fleet.json");
    std::fs::write(&out, json).expect("write BENCH_fleet.json");
    println!("wrote {}", out.display());
}
