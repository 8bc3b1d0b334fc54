//! Fleet routing-plane tests: graceful degradation under partial Scout
//! failure, unmapped-team answers participating in the decision, the
//! bit-identity of sharded dispatch against the sequential fan-out and
//! against each Scout predicting on its own, and featurize-once.

use cloudsim::{SimDuration, Team};
use featcache::FeatCache;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{Dataset, MonitoringConfig, MonitoringSystem};
use obs::json::Value;
use proptest::prelude::*;
use scout::{Example, Prediction, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{
    Client, Engine, FleetConfig, ModelEntry, ModelRegistry, ScoutError, ServeConfig, Server,
    TeamOutcome,
};
use std::sync::{Arc, OnceLock};

/// A small world: enough incidents to train on, fast enough for tests.
fn small_workload() -> Arc<Workload> {
    static WORLD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORLD
        .get_or_init(|| {
            let mut config = WorkloadConfig {
                seed: 7,
                ..WorkloadConfig::default()
            };
            config.faults.faults_per_day = 2.0;
            config.faults.horizon = SimDuration::days(20);
            Arc::new(Workload::generate(config))
        })
        .clone()
}

/// Build settings of the test Scouts. Variant 0 is the base; the
/// others change what featurization reads (a disabled data set, a
/// shorter look-back), so a fleet mixing variants has several
/// featurization keys.
fn build_variant(variant: usize) -> ScoutBuildConfig {
    let base = ScoutBuildConfig {
        forest: ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        },
        cluster_train_cap: 10,
        ..ScoutBuildConfig::default()
    };
    match variant {
        0 => base,
        1 => ScoutBuildConfig {
            disabled_datasets: vec![Dataset::PingStats],
            ..base
        },
        _ => ScoutBuildConfig {
            lookback: SimDuration::hours(1),
            ..base
        },
    }
}

const VARIANTS: usize = 3;

/// One PhyNet Scout per build variant trained on the small world, kept
/// as `(featurization key at training time, model text)` so every test
/// can cheaply mint `Scout` instances under any team name.
fn trained_models() -> &'static [(String, String)] {
    static MODELS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let world = small_workload();
        let mon =
            MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
            .collect();
        (0..VARIANTS)
            .map(|variant| {
                let config = ScoutConfig::phynet();
                let build = build_variant(variant);
                let corpus = Scout::prepare(&config, &build, &examples, &mon);
                let train = corpus.trainable_indices();
                let scout = Scout::train_prepared(config, build, &corpus, &train, &mon);
                (scout.featurization_key().to_string(), scout.to_text())
            })
            .collect()
    })
}

fn variant_scout(variant: usize) -> Scout {
    Scout::from_text(&trained_models()[variant].1).expect("cached model text round-trips")
}

fn test_scout() -> Scout {
    variant_scout(0)
}

/// A server with one test Scout per `teams` entry (registered in order,
/// so versions line up across servers) and the given fleet config.
fn start_fleet_server(teams: &[&str], fleet: FleetConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    for team in teams {
        registry
            .register(team, test_scout(), "test")
            .expect("register test model");
    }
    let engine = Engine::new(registry, small_workload()).with_fleet(fleet);
    Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

const INCIDENT: &str = r#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}"#;

fn fleet_config(shards: usize, fail_teams: &[&str]) -> FleetConfig {
    FleetConfig {
        shards,
        suggestions: 3,
        fail_teams: fail_teams.iter().map(|t| t.to_string()).collect(),
    }
}

#[test]
fn partial_scout_failure_degrades_gracefully() {
    // One Scout fails (injected); the request must still answer 200 with
    // the surviving Scouts' answers, the failed team itemized in
    // `errors`, and a decision over what answered.
    let server = start_fleet_server(
        &["PhyNet", "Storage", "Database"],
        fleet_config(2, &["Storage"]),
    );
    let mut client = connect(&server);
    let resp = client.post_json("/v1/route", INCIDENT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).expect("JSON body");

    let decision = value.get("decision").and_then(Value::as_str).unwrap();
    assert!(decision == "send_to" || decision == "fallback");

    let answers = value.get("answers").and_then(Value::as_arr).unwrap();
    let answered: Vec<&str> = answers
        .iter()
        .filter_map(|a| a.get("team").and_then(Value::as_str))
        .collect();
    assert_eq!(answered, ["Database", "PhyNet"], "sorted, Storage absent");

    let errors = value.get("errors").and_then(Value::as_arr).unwrap();
    assert_eq!(errors.len(), 1);
    assert_eq!(
        errors[0].get("team").and_then(Value::as_str),
        Some("Storage")
    );
    assert!(errors[0]
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("injected"));

    // Top-k suggestions rank only the teams that answered.
    let suggestions = value.get("suggestions").and_then(Value::as_arr).unwrap();
    assert!(!suggestions.is_empty() && suggestions.len() <= 3);
    for s in suggestions {
        let team = s.get("team").and_then(Value::as_str).unwrap();
        assert!(team == "Database" || team == "PhyNet", "{team}");
        let confidence = s.get("confidence").and_then(Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&confidence));
    }
}

#[test]
fn route_fails_only_when_every_scout_does() {
    let server = start_fleet_server(
        &["PhyNet", "Storage"],
        fleet_config(2, &["PhyNet", "Storage"]),
    );
    let mut client = connect(&server);
    // Every Scout injected to fail: 500, not a partial answer.
    let resp = client.post_json("/v1/route", INCIDENT).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_text());

    // An already-lapsed deadline fails every Scout with DeadlineExpired:
    // that is the 504 shape.
    let resp = client
        .request(
            "POST",
            "/v1/route",
            &[("X-Deadline-Ms", "0")],
            INCIDENT.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_text());
}

#[test]
fn unmapped_team_answers_reach_the_decision() {
    // "Atlantis" has no Team::ALL variant and no dependency-graph node.
    // Its answers must still drive the decision (the silent-drop bug had
    // the master never seeing them, so /v1/route always fell back).
    let world = small_workload();
    let server = start_fleet_server(&["Atlantis"], fleet_config(2, &[]));
    let mut client = connect(&server);

    let mut confident_yes = None;
    let mut checked = 0;
    for incident in &world.incidents {
        let body = obs::json::Obj::new()
            .str("text", &incident.text())
            .uint("time_minutes", incident.created_at.0)
            .finish();
        let resp = client
            .post_json("/v1/scouts/Atlantis/predict", &body)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let value = Value::parse(&resp.body_text()).unwrap();
        let responsible = value.get("verdict").and_then(Value::as_str) == Some("responsible");
        let confidence = value.get("confidence").and_then(Value::as_f64).unwrap();
        checked += 1;
        if responsible && confidence >= 0.8 {
            confident_yes = Some(body);
            break;
        }
    }
    let body = confident_yes
        .unwrap_or_else(|| panic!("no confident-yes incident among {checked} in the workload"));

    let resp = client.post_json("/v1/route", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).unwrap();
    assert_eq!(
        value.get("decision").and_then(Value::as_str),
        Some("send_to"),
        "unmapped team's confident yes must win: {}",
        resp.body_text()
    );
    assert_eq!(value.get("team").and_then(Value::as_str), Some("Atlantis"));
    let answers = value.get("answers").and_then(Value::as_arr).unwrap();
    assert_eq!(
        answers[0].get("team").and_then(Value::as_str),
        Some("Atlantis")
    );
}

#[test]
fn route_bytes_identical_across_shard_counts() {
    // Same registry contents registered in the same order (so versions
    // align), different shard counts: /v1/route bodies must match byte
    // for byte — shard topology is an implementation detail.
    let teams = ["PhyNet", "Storage", "Database", "Atlantis", "DNS"];
    let bodies: Vec<String> = [1usize, 2, 7]
        .iter()
        .map(|&shards| {
            let server = start_fleet_server(&teams, fleet_config(shards, &[]));
            let resp = connect(&server).post_json("/v1/route", INCIDENT).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_text());
            resp.body_text()
        })
        .collect();
    assert_eq!(bodies[0], bodies[1], "shards=1 vs shards=2");
    assert_eq!(bodies[0], bodies[2], "shards=1 vs shards=7");
}

/// Entries for the in-process dispatch tests: one shared trained Scout
/// under several team names. Reused across proptest cases so the
/// per-entry feature caches stay warm.
fn dispatch_entries() -> &'static Vec<Arc<ModelEntry>> {
    static ENTRIES: OnceLock<Vec<Arc<ModelEntry>>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        ["PhyNet", "Storage", "Database", "Atlantis", "DNS", "SLB"]
            .iter()
            .enumerate()
            .map(|(i, team)| {
                Arc::new(ModelEntry {
                    team: team.to_string(),
                    version: i as u64 + 1,
                    source: "test".into(),
                    scout: test_scout(),
                    feat_cache: Arc::new(FeatCache::new(16 * 1024 * 1024)),
                })
            })
            .collect()
    })
}

/// A canonical, comparison-friendly rendering of dispatch outcomes.
fn render_outcomes(outcomes: &[TeamOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| match &o.result {
            Ok(a) => format!(
                "{} v{} {:?} {:.17}\n",
                a.team, a.model_version, a.prediction.verdict, a.prediction.confidence
            ),
            Err(e) => format!("{} ERR {e}\n", o.team),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded dispatch is bit-identical to the sequential (shards=1)
    /// fan-out, for any shard count, team subset, and injected-failure
    /// set.
    #[test]
    fn sharded_dispatch_matches_sequential(
        shards in 2usize..9,
        mask in 1u32..(1 << 6),
        fail_mask in 0u32..(1 << 6),
    ) {
        let world = small_workload();
        let all = dispatch_entries();
        let entries: Vec<Arc<ModelEntry>> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, e)| Arc::clone(e))
            .collect();
        let fail_teams: Vec<String> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| fail_mask & (1 << i) != 0)
            .map(|(_, e)| e.team.clone())
            .collect();
        let text = "Switch agg-3 in c1.dc1 reporting CRC errors and packet loss";
        let time = cloudsim::SimTime::from_days(10);

        let mon = MonitoringConfig::default();
        let sequential = serve::fleet::dispatch_batch(
            &entries, &world, &mon, &[(text, time)], None,
            &FleetConfig { shards: 1, suggestions: 3, fail_teams: fail_teams.clone() }, &[],
        ).pop().unwrap();
        let sharded = serve::fleet::dispatch_batch(
            &entries, &world, &mon, &[(text, time)], None,
            &FleetConfig { shards, suggestions: 3, fail_teams }, &[],
        ).pop().unwrap();
        prop_assert_eq!(render_outcomes(&sequential), render_outcomes(&sharded));

        // Outcomes are sorted by team and cover exactly the entry set.
        let teams: Vec<&str> = sharded.iter().map(|o| o.team.as_str()).collect();
        let mut expected: Vec<&str> = entries.iter().map(|e| e.team.as_str()).collect();
        expected.sort_unstable();
        prop_assert_eq!(teams, expected);
    }
}

/// A heterogeneous fleet for the oracle tests: eight teams cycling
/// through the build variants (so every featurization key has several
/// members), all sharing one chunk cache as a registry's entries do.
fn mixed_entries() -> &'static Vec<Arc<ModelEntry>> {
    static ENTRIES: OnceLock<Vec<Arc<ModelEntry>>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let cache = Arc::new(FeatCache::new(16 * 1024 * 1024));
        [
            "PhyNet", "Storage", "Database", "Atlantis", "DNS", "SLB", "Compute", "HostNet",
        ]
        .iter()
        .enumerate()
        .map(|(i, team)| {
            Arc::new(ModelEntry {
                team: team.to_string(),
                version: i as u64 + 1,
                source: "test".into(),
                scout: variant_scout(i % VARIANTS),
                feat_cache: Arc::clone(&cache),
            })
        })
        .collect()
    })
}

/// One team's answer or error, with every byte a route response can
/// depend on: verdict, model, the confidence's bits and the explanation.
fn render_result(team: &str, result: Result<(u64, &Prediction), &ScoutError>) -> String {
    match result {
        Ok((version, p)) => format!(
            "{team} v{version} {:?} {:?} {:016x} {:?}\n",
            p.verdict,
            p.model,
            p.confidence.to_bits(),
            p.explanation
        ),
        Err(e) => format!("{team} ERR {e}\n"),
    }
}

/// `dispatch_batch` outcome sets, one rendering per input.
fn render_dispatch(outcome_sets: &[Vec<TeamOutcome>]) -> Vec<String> {
    outcome_sets
        .iter()
        .map(|outcomes| {
            outcomes
                .iter()
                .map(|o| {
                    render_result(
                        &o.team,
                        o.result.as_ref().map(|a| (a.model_version, &a.prediction)),
                    )
                })
                .collect()
        })
        .collect()
}

/// The fan-out's meaning, computed without `dispatch_batch`: each team
/// on its own, breaker skips first, then injected failures, else its
/// Scout's own `predict_many`. Rendered like [`render_dispatch`].
fn oracle(
    entries: &[Arc<ModelEntry>],
    world: &Workload,
    inputs: &[(&str, cloudsim::SimTime)],
    fail_teams: &[String],
    skip: &[String],
) -> Vec<String> {
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    let mut teams: Vec<&Arc<ModelEntry>> = entries.iter().collect();
    teams.sort_by(|a, b| a.team.cmp(&b.team));
    let per_team: Vec<Vec<String>> = teams
        .iter()
        .map(|entry| {
            let error = if skip.contains(&entry.team) {
                Some(ScoutError::BreakerOpen)
            } else if fail_teams
                .iter()
                .any(|t| t.eq_ignore_ascii_case(&entry.team))
            {
                Some(ScoutError::Injected)
            } else {
                None
            };
            match error {
                Some(e) => vec![render_result(&entry.team, Err(&e)); inputs.len()],
                None => entry
                    .scout
                    .predict_many(inputs, &mon)
                    .iter()
                    .map(|p| render_result(&entry.team, Ok((entry.version, p))))
                    .collect(),
            }
        })
        .collect();
    (0..inputs.len())
        .map(|i| per_team.iter().map(|team| team[i].as_str()).collect())
        .collect()
}

/// The teams of `all` whose bit is set in `mask`.
fn masked(all: &[Arc<ModelEntry>], mask: u32) -> Vec<String> {
    all.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, e)| e.team.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared featurization is invisible: over a fleet with several
    /// featurization keys, `dispatch_batch` answers exactly what each
    /// Scout answers on its own, for any team subset, injected-failure
    /// and breaker-skip sets, batch of 1–4 incidents and shard count.
    #[test]
    fn dispatch_matches_independent_per_scout_predicts(
        shards in 1usize..9,
        mask in 1u32..(1 << 8),
        fail_mask in 0u32..(1 << 8),
        skip_mask in 0u32..(1 << 8),
        picks in proptest::collection::vec(0usize..10_000, 1..5),
    ) {
        let world = small_workload();
        let all = mixed_entries();
        let entries: Vec<Arc<ModelEntry>> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, e)| Arc::clone(e))
            .collect();
        let fail_teams = masked(all, fail_mask);
        let skip = masked(all, skip_mask);
        let texts: Vec<(String, cloudsim::SimTime)> = picks
            .iter()
            .map(|&k| {
                let incident = &world.incidents[k % world.incidents.len()];
                (incident.text(), incident.created_at)
            })
            .collect();
        let inputs: Vec<(&str, cloudsim::SimTime)> =
            texts.iter().map(|(t, at)| (t.as_str(), *at)).collect();

        let config = FleetConfig { shards, suggestions: 3, fail_teams: fail_teams.clone() };
        let dispatched = serve::fleet::dispatch_batch(
            &entries, &world, &MonitoringConfig::default(), &inputs, None, &config, &skip,
        );
        prop_assert_eq!(
            render_dispatch(&dispatched),
            oracle(&entries, &world, &inputs, &fail_teams, &skip)
        );
    }
}

#[test]
fn the_mixed_fleet_has_several_featurization_keys() {
    let keys: std::collections::BTreeSet<&str> = mixed_entries()
        .iter()
        .map(|e| e.scout.featurization_key())
        .collect();
    assert_eq!(keys.len(), VARIANTS);
}

#[test]
fn taking_a_group_leader_out_leaves_its_group_unchanged() {
    // The first entry of each key leads its featurization. Failing it,
    // or tripping its breaker, must not change any other member's bytes.
    let world = small_workload();
    let entries = mixed_entries();
    let incident = &world.incidents[world.incidents.len() / 3];
    let text = incident.text();
    let inputs = [(text.as_str(), incident.created_at)];
    let dispatch = |fail_teams: Vec<String>, skip: Vec<String>| {
        let config = FleetConfig {
            shards: 3,
            suggestions: 3,
            fail_teams,
        };
        serve::fleet::dispatch_batch(
            entries,
            &world,
            &MonitoringConfig::default(),
            &inputs,
            None,
            &config,
            &skip,
        )
        .pop()
        .unwrap()
    };
    let baseline = dispatch(Vec::new(), Vec::new());
    for leader in &entries[..VARIANTS] {
        let others = |outcomes: &[TeamOutcome]| -> String {
            let rest: Vec<TeamOutcome> = outcomes
                .iter()
                .filter(|o| o.team != leader.team)
                .cloned()
                .collect();
            render_dispatch(&[rest]).concat()
        };
        let failed = dispatch(vec![leader.team.clone()], Vec::new());
        let skipped = dispatch(Vec::new(), vec![leader.team.clone()]);
        assert_eq!(others(&failed), others(&baseline), "{} failed", leader.team);
        assert_eq!(
            others(&skipped),
            others(&baseline),
            "{} skipped",
            leader.team
        );
        let err = |outcomes: &[TeamOutcome]| {
            outcomes
                .iter()
                .find(|o| o.team == leader.team)
                .unwrap()
                .result
                .clone()
                .unwrap_err()
        };
        assert_eq!(err(&failed), ScoutError::Injected);
        assert_eq!(err(&skipped), ScoutError::BreakerOpen);
    }
}

#[test]
fn a_replica_fleet_featurizes_each_incident_once() {
    // Eight replicas of one Scout on one fresh cache: a dispatch does the
    // chunk lookups of a single `predict_many_cached` call, not eight.
    let world = small_workload();
    let incident = &world.incidents[world.incidents.len() / 2];
    let text = incident.text();
    let inputs = [(text.as_str(), incident.created_at)];
    let fleet_cache = Arc::new(FeatCache::new(16 * 1024 * 1024));
    let entries: Vec<Arc<ModelEntry>> = (0..8)
        .map(|i| {
            Arc::new(ModelEntry {
                team: format!("PhyNet-{i}"),
                version: i + 1,
                source: "test".into(),
                scout: test_scout(),
                feat_cache: Arc::clone(&fleet_cache),
            })
        })
        .collect();
    serve::fleet::dispatch_batch(
        &entries,
        &world,
        &MonitoringConfig::default(),
        &inputs,
        None,
        &fleet_config(4, &[]),
        &[],
    );

    let single_cache = FeatCache::new(16 * 1024 * 1024);
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
    test_scout().predict_many_cached(&inputs, &mon, Some(&single_cache));

    let (fleet, single) = (fleet_cache.stats(), single_cache.stats());
    assert!(single.misses > 0, "the incident reads telemetry");
    assert_eq!(fleet.misses, single.misses);
    assert_eq!(fleet.hits, single.hits);
}

#[test]
fn featurization_key_survives_a_model_round_trip() {
    for (key, text) in trained_models() {
        let loaded = Scout::from_text(text).expect("model text round-trips");
        assert_eq!(loaded.featurization_key(), key);
    }
}
