//! The sharded fleet routing plane behind `POST /v1/route`.
//!
//! A routing request fans one incident out to *every* registered Scout.
//! At paper scale (a handful of teams) a flat loop through the batcher
//! works; at fleet scale (hundreds of teams) the fan-out itself becomes
//! the bottleneck and a single slow or broken Scout must not take the
//! whole decision down. This module is the scalable middle layer:
//!
//! * teams are partitioned into `shards` bounded worker groups by
//!   **rendezvous (highest-random-weight) hashing** — each team's shard
//!   is a pure function of `(team name, shard count)`, so adding or
//!   removing a team never reshuffles any other team, and every process
//!   in a fleet agrees on the assignment with zero coordination;
//! * the incident is featurized once per distinct Scout featurization
//!   key, before the shards start (a fleet of replicas featurizes it
//!   once, not once per team), under a `fleet.prepare` span;
//! * shards run in parallel on the workspace [`pool`] (the caller's
//!   thread participates; nested parallelism degrades to inline
//!   execution), each under a `fleet.shard` span linked to the request
//!   trace, with per-shard team counts and latency metrics;
//! * each Scout classifies with the request deadline re-checked at
//!   dispatch and is individually isolated: a panic or injected fault
//!   becomes a per-team [`ScoutError`] (a featurization panic, one for
//!   each team of that key), never a request-wide failure.
//!
//! **Determinism:** outcomes are collected per team and sorted by team
//! name before they leave this module, and each prediction is a pure
//! function of `(scout, incident)` (the workspace-wide contract), so the
//! aggregate is byte-identical across shard counts — `shards=1` and
//! `shards=64` produce the same bytes. The integration proptests pin
//! this.

use crate::batcher::Answer;
use crate::registry::ModelEntry;
use cloudsim::SimTime;
use incident::Workload;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::PreparedCorpus;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storm::{fnv1a, splitmix64, Gate, StormControl};

/// Environment variable consulted for the default shard count.
pub const SHARDS_ENV: &str = "SCOUTS_FLEET_SHARDS";

/// Default shard count when neither `--fleet-shards` nor
/// [`SHARDS_ENV`] is set.
pub const DEFAULT_SHARDS: usize = 4;

/// Default number of top-k routing suggestions in a `/v1/route`
/// response.
pub const DEFAULT_SUGGESTIONS: usize = 3;

/// Fleet routing-plane tunables.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker groups the registered teams are hashed across (`0` is
    /// treated as `1`).
    pub shards: usize,
    /// How many top-k suggestions `/v1/route` returns.
    pub suggestions: usize,
    /// Teams whose Scouts fail on purpose (case-insensitive). Fault
    /// injection for tests and the smoke script — a listed team's
    /// dispatch returns [`ScoutError::Injected`] instead of running.
    pub fail_teams: Vec<String>,
}

impl Default for FleetConfig {
    /// Shard count from [`SHARDS_ENV`] (else [`DEFAULT_SHARDS`]), three
    /// suggestions, no injected faults.
    fn default() -> FleetConfig {
        let shards = std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_SHARDS);
        FleetConfig {
            shards,
            suggestions: DEFAULT_SUGGESTIONS,
            fail_teams: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// The effective shard count (`>= 1`).
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    /// Is `team` marked for injected failure?
    pub fn fails(&self, team: &str) -> bool {
        self.fail_teams.iter().any(|t| t.eq_ignore_ascii_case(team))
    }
}

/// Why one team's Scout produced no answer. Unlike
/// [`PredictError`](crate::batcher::PredictError), these are *per-team*
/// conditions: the routing decision proceeds over the Scouts that did
/// answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoutError {
    /// The request deadline lapsed before this Scout ran.
    DeadlineExpired,
    /// The Scout panicked; the panic was contained to its team.
    Panicked,
    /// The team is listed in [`FleetConfig::fail_teams`].
    Injected,
    /// The team's storm-control circuit breaker is open: the Scout was
    /// tripped out of the fan-out without running.
    BreakerOpen,
}

impl std::fmt::Display for ScoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoutError::DeadlineExpired => write!(f, "deadline expired before the Scout ran"),
            ScoutError::Panicked => write!(f, "the Scout panicked"),
            ScoutError::Injected => write!(f, "injected failure (fleet fail_teams)"),
            ScoutError::BreakerOpen => write!(f, "circuit breaker open for this team"),
        }
    }
}

/// One team's per-input results within a shard, before the outcomes are
/// regrouped input-major.
type TeamBatchResults = Vec<(String, Vec<Result<Answer, ScoutError>>)>;

/// One team's dispatch outcome.
#[derive(Debug, Clone)]
pub struct TeamOutcome {
    /// Registered team name (registry key).
    pub team: String,
    /// The Scout's answer, or why there is none.
    pub result: Result<Answer, ScoutError>,
}

/// The shard `team` lives on, out of `shards`, by rendezvous hashing:
/// the shard whose mixed `(team, shard)` weight is highest wins, ties to
/// the lower shard index. Pure function of its arguments — stable across
/// processes, runs, and unrelated team add/remove.
pub fn shard_of(team: &str, shards: usize) -> usize {
    let shards = shards.max(1);
    if shards == 1 {
        return 0;
    }
    let team_hash = fnv1a(team.as_bytes());
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for shard in 0..shards {
        let weight = splitmix64(team_hash ^ splitmix64(shard as u64 + 1));
        if shard == 0 || weight > best_weight {
            best = shard;
            best_weight = weight;
        }
    }
    best
}

/// Fan a *batch* of incidents out to every entry in one pass: one
/// `MonitoringSystem` build shared by every shard and every incident
/// (the severity-batching economics — same as one predict micro-batch),
/// one featurization of the batch per [`Scout::featurization_key`]
/// among the runnable entries, then one classification of that corpus
/// per Scout inside its shard. Returns one outcome set per input, each
/// **sorted by team name**.
///
/// `mon` is the monitoring plane configuration (the server threads its
/// live config through here so mid-stream data-set deprecation takes
/// effect on the very next dispatch). `skip` lists teams tripped out by
/// an open circuit breaker: they answer [`ScoutError::BreakerOpen`]
/// without running. Breaker-skipped, injected-failure and
/// deadline-expired entries take no part in featurization. A panic while
/// featurizing for one key answers [`ScoutError::Panicked`] for that
/// key's members only.
///
/// **Determinism:** featurization reads nothing of a Scout beyond its
/// key, so classifying a shared corpus is bit-identical to each Scout
/// running `predict_many` on its own; and batched predictions are
/// bit-identical to the same incidents dispatched one at a time (the
/// `predict_many` contract), so coalescing changes
/// throughput, never verdicts — the fleet and storm integration tests
/// pin both.
///
/// [`Scout::featurization_key`]: scout::Scout::featurization_key
pub fn dispatch_batch(
    entries: &[Arc<ModelEntry>],
    workload: &Workload,
    mon: &MonitoringConfig,
    inputs: &[(&str, SimTime)],
    deadline: Option<Instant>,
    config: &FleetConfig,
    skip: &[String],
) -> Vec<Vec<TeamOutcome>> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let shards = config.effective_shards();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (i, entry) in entries.iter().enumerate() {
        groups[shard_of(&entry.team, shards)].push(i);
    }
    let groups: Vec<(usize, Vec<usize>)> = groups
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .collect();
    obs::counter("fleet.dispatch.calls").inc();
    obs::counter("fleet.dispatch.fanouts").add(inputs.len() as u64);
    obs::observe("fleet.dispatch.shards", groups.len() as f64);
    obs::observe("fleet.dispatch.teams", entries.len() as f64);
    obs::observe("fleet.dispatch.batch", inputs.len() as f64);

    // One monitoring plane for the whole fan-out, exactly like one
    // batcher batch: it is read-only at predict time and shared by every
    // shard.
    let monitoring = MonitoringSystem::new(&workload.topology, &workload.faults, mon.clone());
    let ctx = obs::trace::capture();

    // Decide each entry's fate before any Scout work, then featurize
    // once per key among the entries that will run. `leaders[c]` is the
    // first entry with corpus `c`'s key.
    let mut leaders: Vec<usize> = Vec::new();
    let plans: Vec<Plan> = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            if skip.iter().any(|t| t == &entry.team) {
                obs::counter("fleet.scout.breaker_open").inc();
                return Plan::Fail(ScoutError::BreakerOpen);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                obs::counter("fleet.scout.deadline_expired").inc();
                return Plan::Fail(ScoutError::DeadlineExpired);
            }
            if config.fails(&entry.team) {
                obs::counter("fleet.scout.injected_failure").inc();
                return Plan::Fail(ScoutError::Injected);
            }
            let key = entry.scout.featurization_key();
            let c = leaders
                .iter()
                .position(|&l| entries[l].scout.featurization_key() == key)
                .unwrap_or_else(|| {
                    leaders.push(i);
                    leaders.len() - 1
                });
            Plan::Run(c)
        })
        .collect();
    obs::observe("fleet.dispatch.prepare_groups", leaders.len() as f64);
    // One key (the replica fleet) runs inline here, so the prepare
    // still fans its inputs out over the pool; several keys run side by
    // side, each prepare then inline on its worker.
    let corpora: Vec<Option<PreparedCorpus>> =
        pool::Pool::global().parallel_map(&leaders, |_, &leader| {
            let _span = obs::span!("fleet.prepare");
            let entry = &entries[leader];
            let cache = Some(entry.feat_cache.as_ref());
            catch_unwind(AssertUnwindSafe(|| {
                entry.scout.prepare_many(inputs, &monitoring, cache, None)
            }))
            .ok()
        });

    let per_shard: Vec<TeamBatchResults> =
        pool::Pool::global().parallel_map(&groups, |_, (shard, group)| {
            let started = Instant::now();
            let mut span = obs::span!("fleet.shard");
            // The pool re-enters the caller's trace context, but link the
            // request explicitly too: shard spans must stay attributable
            // even when dispatch is driven outside a request (benches).
            if let Some(ctx) = ctx.filter(|c| c.trace_id != 0) {
                span.add_link(ctx);
            }
            obs::observe("fleet.shard.teams", group.len() as f64);
            let results: TeamBatchResults = group
                .iter()
                .map(|&i| {
                    let entry = &entries[i];
                    let results = match &plans[i] {
                        Plan::Fail(error) => vec![Err(error.clone()); inputs.len()],
                        Plan::Run(c) => run_scout_batch(
                            entry,
                            corpora[*c].as_ref(),
                            inputs.len(),
                            &monitoring,
                            deadline,
                        ),
                    };
                    (entry.team.clone(), results)
                })
                .collect();
            obs::observe(
                &format!("fleet.shard.latency.{shard}"),
                started.elapsed().as_secs_f64() * 1e3,
            );
            results
        });

    let mut out: Vec<Vec<TeamOutcome>> = inputs
        .iter()
        .map(|_| Vec::with_capacity(entries.len()))
        .collect();
    for shard_results in per_shard {
        for (team, results) in shard_results {
            debug_assert_eq!(results.len(), inputs.len());
            for (i, result) in results.into_iter().enumerate() {
                out[i].push(TeamOutcome {
                    team: team.clone(),
                    result,
                });
            }
        }
    }
    for outcomes in &mut out {
        outcomes.sort_by(|a, b| a.team.cmp(&b.team));
    }
    out
}

/// One entry's part in a fan-out, decided before featurization.
enum Plan {
    /// Answer this error for every input without running the Scout.
    Fail(ScoutError),
    /// Classify the corpus at this index (of the per-key corpora).
    Run(usize),
}

/// [`dispatch_batch`] behind the storm layer's circuit breakers — the
/// one place the serving plane gates and reports a fan-out. With
/// `storm`, the breakers are sampled **once** (open teams answer
/// [`ScoutError::BreakerOpen`] without running) and each team's
/// outcome is reported back once: a batch is one fan-out, so a Scout
/// that panics on it is one breaker event, not one per incident.
/// Deadline and breaker-skip results say nothing about the Scout itself
/// and are not reported. Without `storm` this is `dispatch_batch`.
pub(crate) fn dispatch_gated(
    entries: &[Arc<ModelEntry>],
    workload: &Workload,
    mon: &MonitoringConfig,
    inputs: &[(&str, SimTime)],
    deadline: Option<Instant>,
    config: &FleetConfig,
    storm: Option<&StormControl>,
) -> Vec<Vec<TeamOutcome>> {
    let skip: Vec<String> = storm.map_or_else(Vec::new, |storm| {
        let gate_ms = storm.now_ms();
        entries
            .iter()
            .filter(|e| storm.gate(&e.team, gate_ms) == Gate::Reject)
            .map(|e| e.team.clone())
            .collect()
    });
    let outcome_sets = dispatch_batch(entries, workload, mon, inputs, deadline, config, &skip);
    if let (Some(storm), Some(first)) = (storm, outcome_sets.first()) {
        let report_ms = storm.now_ms();
        for outcome in first {
            match &outcome.result {
                Ok(_) => storm.record_outcome(&outcome.team, true, report_ms),
                Err(ScoutError::Panicked) | Err(ScoutError::Injected) => {
                    storm.record_outcome(&outcome.team, false, report_ms)
                }
                Err(ScoutError::DeadlineExpired) | Err(ScoutError::BreakerOpen) => {}
            }
        }
    }
    outcome_sets
}

/// Classify a shared corpus with one team's Scout, with isolation: the
/// deadline is re-checked (featurization may have used it up), and a
/// panic — here, or in the featurization that left `corpus` empty —
/// stays with this team. Always returns exactly `n` results.
fn run_scout_batch(
    entry: &ModelEntry,
    corpus: Option<&PreparedCorpus>,
    n: usize,
    monitoring: &MonitoringSystem<'_>,
    deadline: Option<Instant>,
) -> Vec<Result<Answer, ScoutError>> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        obs::counter("fleet.scout.deadline_expired").inc();
        return vec![Err(ScoutError::DeadlineExpired); n];
    }
    let result = corpus.and_then(|corpus| {
        catch_unwind(AssertUnwindSafe(|| {
            entry.scout.predict_many_prepared(corpus, monitoring, None)
        }))
        .ok()
    });
    match result {
        Some(predictions) => {
            debug_assert_eq!(predictions.len(), n);
            predictions
                .into_iter()
                .map(|prediction| {
                    Ok(Answer {
                        team: entry.team.clone(),
                        model_version: entry.version,
                        prediction,
                    })
                })
                .collect()
        }
        None => {
            obs::counter("fleet.scout.panicked").inc();
            vec![Err(ScoutError::Panicked); n]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1, 2, 4, 7, 64] {
            for team in ["PhyNet", "Storage", "DNS", "PhyNet-13", "x"] {
                let s = shard_of(team, shards);
                assert!(s < shards, "{team}@{shards} -> {s}");
                assert_eq!(s, shard_of(team, shards), "unstable for {team}@{shards}");
            }
        }
        assert_eq!(shard_of("anything", 0), 0);
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn shard_assignment_and_fingerprints_are_pinned() {
        // Shard assignment must agree across processes and releases: a
        // moved team loses its warm caches. Pin today's outputs.
        let names = [
            "PhyNet",
            "Storage",
            "SLB",
            "HostNet",
            "Compute",
            "Database",
            "DNS",
            "Firewall",
            "Support",
            "PhyNet-1",
            "Storage-13",
            "x",
            "",
        ];
        let at = |shards| -> Vec<usize> { names.iter().map(|n| shard_of(n, shards)).collect() };
        assert_eq!(at(4), [1, 3, 1, 0, 2, 1, 0, 2, 3, 1, 0, 1, 3]);
        assert_eq!(at(7), [4, 5, 6, 0, 5, 1, 6, 5, 5, 4, 0, 1, 3]);
        assert_eq!(
            storm::fingerprint("Switch agg-3 in c1.dc1 CRC errors, retry 17", "netmon"),
            0x391d_8489_1c0f_987c
        );
    }

    #[test]
    fn shard_of_spreads_a_fleet() {
        // 128 synthetic team names over 8 shards: every shard gets work
        // and no shard hoards the fleet.
        let shards = 8;
        let mut counts = vec![0usize; shards];
        let graph = cloudsim::DependencyGraph::synthetic_fleet(128);
        for team in graph.team_names() {
            counts[shard_of(team, shards)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "empty shard: {counts:?}");
        assert!(
            counts.iter().all(|&c| c < 128 / 2),
            "hoarding shard: {counts:?}"
        );
    }

    #[test]
    fn rendezvous_is_monotone_under_shard_growth() {
        // Growing the shard count only ever moves teams to the *new*
        // shards — the rendezvous property that keeps warm caches warm.
        let graph = cloudsim::DependencyGraph::synthetic_fleet(64);
        for team in graph.team_names() {
            let before = shard_of(team, 4);
            let after = shard_of(team, 6);
            assert!(
                after == before || after >= 4,
                "{team}: moved {before} -> {after} among surviving shards"
            );
        }
    }

    #[test]
    fn config_fail_list_is_case_insensitive() {
        let config = FleetConfig {
            shards: 2,
            suggestions: 3,
            fail_teams: vec!["phynet".into()],
        };
        assert!(config.fails("PhyNet"));
        assert!(!config.fails("Storage"));
    }
}
