//! The baseline routing process: how incidents move between teams *today*,
//! without Scouts (§2, §3).
//!
//! A behavioural model of the humans and run-books:
//!
//! * the incident first lands where the symptom was detected (the watchdog's
//!   team, or the 24×7 support team for customer reports);
//! * a wrong team spends time proving its innocence, then transfers the
//!   incident to the most plausible suspect along the dependency graph —
//!   PhyNet being everyone's favourite suspect (§1: "1 in every 10
//!   mis-routed incidents");
//! * every transfer costs queueing time before the next on-call engineer
//!   acknowledges;
//! * externally-caused incidents (ISP, customer) bounce through internal
//!   teams until everyone has been ruled out (§3.2: "when no teams are
//!   responsible, more teams get involved");
//! * the highest-severity incidents engage all plausible teams in parallel,
//!   so routing accuracy barely matters for them (§3.1: 0.15% improvement).
//!
//! Each hop leaves a note appended to the incident record — for CRIs these
//! notes are what later reveals the implicated components (§7.4).

use crate::model::{Incident, IncidentSource};
use cloudsim::{DependencyGraph, Fault, Severity, SimDuration, Team, TeamRegistry, Topology};
use rand::Rng;

/// One team's engagement with an incident.
#[derive(Debug, Clone)]
pub struct RoutingHop {
    /// The engaged team.
    pub team: Team,
    /// Waiting time before the team acknowledged.
    pub queue_delay: SimDuration,
    /// Active investigation time.
    pub investigation: SimDuration,
    /// Note appended to the incident record when the hop ended.
    pub note: String,
}

impl RoutingHop {
    /// Queue plus investigation.
    pub fn total(&self) -> SimDuration {
        self.queue_delay + self.investigation
    }
}

/// The complete routing history of one incident under the baseline process.
#[derive(Debug, Clone)]
pub struct RoutingTrace {
    /// Hops in order; the last hop resolved the incident.
    pub hops: Vec<RoutingHop>,
    /// True when severity forced an all-hands parallel engagement.
    pub all_hands: bool,
}

impl RoutingTrace {
    /// Wall-clock time to mitigation.
    pub fn total_time(&self) -> SimDuration {
        if self.all_hands {
            // Parallel engagement: the slowest engaged team bounds the time.
            self.hops
                .iter()
                .map(RoutingHop::total)
                .max()
                .unwrap_or(SimDuration::ZERO)
        } else {
            self.hops
                .iter()
                .map(|h| h.total())
                .fold(SimDuration::ZERO, |a, b| a + b)
        }
    }

    /// Teams engaged, in order.
    pub fn teams(&self) -> Vec<Team> {
        self.hops.iter().map(|h| h.team).collect()
    }

    /// Did `team` appear anywhere in the trace?
    pub fn visited(&self, team: Team) -> bool {
        self.hops.iter().any(|h| h.team == team)
    }

    /// More than one team engaged (sequentially): the incident was
    /// mis-routed at least once.
    pub fn misrouted(&self) -> bool {
        !self.all_hands && self.hops.len() > 1
    }

    /// The resolving team (last hop).
    pub fn resolver(&self) -> Team {
        self.hops.last().expect("trace has at least one hop").team
    }

    /// Time spent before `team` first engaged (queueing included);
    /// `None` if the team never engaged. Only meaningful for sequential
    /// traces — all-hands engagements are parallel.
    pub fn time_before(&self, team: Team) -> Option<SimDuration> {
        let mut acc = SimDuration::ZERO;
        for h in &self.hops {
            if h.team == team {
                return Some(acc);
            }
            acc = acc + h.total();
        }
        None
    }

    /// Time `team` itself spent engaged (zero if never engaged).
    pub fn time_in(&self, team: Team) -> SimDuration {
        self.hops
            .iter()
            .filter(|h| h.team == team)
            .map(RoutingHop::total)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Incident text as visible after the first `n` hops completed: the
    /// original description plus `n` investigation notes (Fig. 12's
    /// mechanism for CRIs).
    pub fn text_after_hops(&self, incident: &Incident, n: usize) -> String {
        let mut text = incident.text();
        for h in self.hops.iter().take(n) {
            text.push('\n');
            text.push_str(&h.note);
        }
        text
    }
}

/// Timing knobs for the behavioural router.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Median minutes an incident waits in a team's queue per transfer.
    pub queue_median: f64,
    /// Median minutes a wrong team spends proving innocence.
    pub innocence_median: f64,
    /// Median minutes the owning team needs to mitigate once engaged.
    pub resolution_median: f64,
    /// Hard cap on sequential hops (§3.1 observed up to 11 teams).
    pub max_hops: usize,
    /// Log-normal σ for all sampled durations.
    pub sigma: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            queue_median: 120.0,
            innocence_median: 240.0,
            resolution_median: 120.0,
            max_hops: 11,
            sigma: 0.8,
        }
    }
}

/// The baseline router.
#[derive(Debug)]
pub struct Router<'a> {
    topo: &'a Topology,
    registry: TeamRegistry,
    graph: DependencyGraph,
    config: RouterConfig,
}

impl<'a> Router<'a> {
    /// Build a router over the fleet.
    pub fn new(topo: &'a Topology, config: RouterConfig) -> Router<'a> {
        Router {
            topo,
            registry: TeamRegistry::new(),
            graph: DependencyGraph::builtin(),
            config,
        }
    }

    /// Produce the baseline routing trace for `incident`.
    pub fn route<R: Rng>(&self, incident: &Incident, fault: &Fault, rng: &mut R) -> RoutingTrace {
        let owner = incident.owner;
        // Highest severity: everyone plausible engages in parallel.
        if incident.severity == Severity::Sev1 {
            return self.all_hands_trace(incident, fault, rng);
        }

        let first = match incident.source {
            IncidentSource::Monitor(t) => t,
            IncidentSource::Cri => Team::Support,
        };
        let mut hops: Vec<RoutingHop> = Vec::new();
        let mut visited: Vec<Team> = Vec::new();
        let mut current = first;
        loop {
            visited.push(current);
            let queue_delay = if hops.is_empty() {
                // First responder: paged immediately.
                SimDuration::minutes(self.lognormal(10.0, rng) as u64)
            } else {
                SimDuration::minutes(self.lognormal(self.config.queue_median, rng) as u64)
            };
            let owner_engaged = current == owner;
            let external_closure =
                owner.is_external() && current == Team::Support && visited.len() > 1;
            if owner_engaged || external_closure || hops.len() + 1 >= self.config.max_hops {
                let investigation = SimDuration::minutes(
                    self.lognormal(self.resolution_scale(incident), rng) as u64,
                );
                let note = self.resolution_note(current, owner, fault);
                hops.push(RoutingHop {
                    team: current,
                    queue_delay,
                    investigation,
                    note,
                });
                break;
            }
            // Wrong team: prove innocence, hand over.
            let investigation =
                SimDuration::minutes(self.lognormal(self.config.innocence_median, rng) as u64);
            let note = self.innocence_note(current, incident, fault, rng);
            hops.push(RoutingHop {
                team: current,
                queue_delay,
                investigation,
                note,
            });
            current = self.next_suspect(first, owner, &visited, rng);
        }
        RoutingTrace {
            hops,
            all_hands: false,
        }
    }

    fn all_hands_trace<R: Rng>(
        &self,
        incident: &Incident,
        fault: &Fault,
        rng: &mut R,
    ) -> RoutingTrace {
        let owner = incident.owner;
        let mut hops = Vec::new();
        for team in self.registry.internal_teams() {
            // Owner last so `resolver()` stays meaningful for all-hands
            // traces too.
            let engaged = team != owner
                && (self
                    .graph
                    .is_transitive_dependency(owner.name(), team.name())
                    || team == Team::Support);
            if !engaged {
                continue;
            }
            let investigation =
                SimDuration::minutes(self.lognormal(self.config.innocence_median, rng) as u64);
            hops.push(RoutingHop {
                team,
                queue_delay: SimDuration::minutes(5),
                investigation,
                note: self.resolution_note(team, owner, fault),
            });
        }
        if !owner.is_external() {
            hops.push(RoutingHop {
                team: owner,
                queue_delay: SimDuration::minutes(5),
                investigation: SimDuration::minutes(
                    self.lognormal(self.resolution_scale(incident), rng) as u64,
                ),
                note: self.resolution_note(owner, owner, fault),
            });
        }
        if hops.is_empty() {
            hops.push(RoutingHop {
                team: owner,
                queue_delay: SimDuration::minutes(5),
                investigation: SimDuration::minutes(
                    self.lognormal(self.resolution_scale(incident), rng) as u64,
                ),
                note: self.resolution_note(owner, owner, fault),
            });
        }
        RoutingTrace {
            hops,
            all_hands: true,
        }
    }

    /// Pick the next team to blame. Dependency structure plus a strong
    /// PhyNet prior, converging on the owner as frustration grows.
    fn next_suspect<R: Rng>(
        &self,
        origin: Team,
        owner: Team,
        visited: &[Team],
        rng: &mut R,
    ) -> Team {
        let mut candidates: Vec<(Team, f64)> = Vec::new();
        for team in self.registry.internal_teams() {
            if visited.contains(&team) || team == Team::Support {
                continue;
            }
            let mut w = 0.2; // any team can be dragged in (§3.2)
            if origin.depends_on().contains(&team) {
                w += 1.5; // direct dependency: legitimate suspect
            } else if self
                .graph
                .is_transitive_dependency(origin.name(), team.name())
            {
                w += 0.8;
            }
            if team == Team::PhyNet {
                w += 1.2; // the universal suspect
            }
            if team == owner {
                // Humans converge: evidence accumulates each hop, but the
                // first transfers are often still guesses (§3.2).
                w += 0.5 + 0.9 * visited.len() as f64;
            }
            candidates.push((team, w));
        }
        if candidates.is_empty() {
            return if owner.is_external() {
                Team::Support
            } else {
                owner
            };
        }
        let total: f64 = candidates.iter().map(|c| c.1).sum();
        let mut r = rng.gen::<f64>() * total;
        for (team, w) in &candidates {
            r -= w;
            if r <= 0.0 {
                return *team;
            }
        }
        candidates.last().unwrap().0
    }

    fn resolution_scale(&self, incident: &Incident) -> f64 {
        let sev = match incident.severity {
            Severity::Sev1 => 0.6, // all hands on deck resolve faster
            Severity::Sev2 => 1.0,
            // Low-severity work lingers in the owning team's queue, so
            // routing is a smaller share of its life (§3.1: 32% vs 47.4%).
            Severity::Sev3 => 2.6,
        };
        self.config.resolution_median * sev
    }

    /// Log-normal sample with the configured σ around `median` minutes.
    fn lognormal<R: Rng>(&self, median: f64, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (median * (self.config.sigma * z).exp()).clamp(1.0, 60.0 * 24.0 * 7.0)
    }

    fn innocence_note<R: Rng>(
        &self,
        team: Team,
        incident: &Incident,
        fault: &Fault,
        rng: &mut R,
    ) -> String {
        let mut note = format!(
            "Update: {team} investigated and found its components healthy; \
             transferring."
        );
        // Investigating teams surface context a vague CRI lacked — the very
        // information the Scout benefits from when re-triggered (§7.4).
        if incident.source.is_cri() && rng.gen_bool(0.75) {
            let cluster = self.topo.component(fault.scope.cluster());
            note.push_str(&format!(
                " Impact appears scoped to cluster {}.",
                cluster.name
            ));
            if rng.gen_bool(0.4) {
                if let Some(&d) = fault.scope.devices().first() {
                    note.push_str(&format!(
                        " Suspicious telemetry near {}.",
                        self.topo.component(d).name
                    ));
                }
            }
        }
        note
    }

    fn resolution_note(&self, team: Team, owner: Team, fault: &Fault) -> String {
        if team == owner {
            format!("Resolved by {team}: root cause {}.", fault.kind.slug())
        } else if owner.is_external() {
            format!("Closed by {team}: cause external to the provider ({owner}).")
        } else {
            format!("Closed by {team} after reaching the transfer limit.")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IncidentId;
    use cloudsim::{ComponentId, FaultKind, FaultScope, SimTime, TopologyConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn topo() -> Topology {
        Topology::build(TopologyConfig::default())
    }

    fn fault(topo: &Topology, kind: FaultKind, owner: Team) -> Fault {
        Fault {
            id: 0,
            kind,
            owner,
            scope: FaultScope::Cluster(topo.by_name("c0.dc0").unwrap().id),
            start: SimTime::from_hours(10),
            duration: SimDuration::hours(4),
            severity: Severity::Sev2,
            upgrade_related: false,
        }
    }

    fn incident(source: IncidentSource, owner: Team, severity: Severity) -> Incident {
        Incident {
            id: IncidentId(0),
            source,
            severity,
            created_at: SimTime::from_hours(10),
            title: "t".into(),
            body: "b".into(),
            fault_id: 0,
            owner,
            true_components: vec![ComponentId(0)],
        }
    }

    #[test]
    fn own_monitor_routes_directly() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::TorFailure, Team::PhyNet);
        let inc = incident(
            IncidentSource::Monitor(Team::PhyNet),
            Team::PhyNet,
            Severity::Sev2,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let trace = router.route(&inc, &f, &mut rng);
        assert_eq!(trace.teams(), vec![Team::PhyNet]);
        assert!(!trace.misrouted());
        assert_eq!(trace.resolver(), Team::PhyNet);
    }

    #[test]
    fn cross_team_incident_reaches_owner_eventually() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::TorFailure, Team::PhyNet);
        let inc = incident(
            IncidentSource::Monitor(Team::Storage),
            Team::PhyNet,
            Severity::Sev2,
        );
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let trace = router.route(&inc, &f, &mut rng);
            assert_eq!(trace.teams()[0], Team::Storage);
            assert!(trace.hops.len() <= 11);
            // Either PhyNet resolved it or the hop cap was hit.
            if trace.hops.len() < 11 {
                assert_eq!(trace.resolver(), Team::PhyNet);
            }
        }
    }

    #[test]
    fn misrouted_incidents_are_much_slower() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::TorFailure, Team::PhyNet);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut direct = Vec::new();
        let mut misrouted = Vec::new();
        for _ in 0..400 {
            let d = router.route(
                &incident(
                    IncidentSource::Monitor(Team::PhyNet),
                    Team::PhyNet,
                    Severity::Sev2,
                ),
                &f,
                &mut rng,
            );
            direct.push(d.total_time().as_minutes());
            let m = router.route(
                &incident(
                    IncidentSource::Monitor(Team::Database),
                    Team::PhyNet,
                    Severity::Sev2,
                ),
                &f,
                &mut rng,
            );
            if m.misrouted() {
                misrouted.push(m.total_time().as_minutes());
            }
        }
        let med = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let dm = med(&mut direct);
        let mm = med(&mut misrouted);
        let ratio = mm as f64 / dm as f64;
        assert!(ratio > 2.0, "mis-routed slowdown ratio {ratio}");
    }

    #[test]
    fn external_owner_is_closed_by_support() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::CustomerMisconfig, Team::Customer);
        let inc = incident(IncidentSource::Cri, Team::Customer, Severity::Sev2);
        let mut rng = SmallRng::seed_from_u64(4);
        let trace = router.route(&inc, &f, &mut rng);
        assert_eq!(trace.teams()[0], Team::Support);
        assert!(trace.hops.len() >= 2, "internal teams get ruled out first");
    }

    #[test]
    fn sev1_engages_teams_in_parallel() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::StorageOutage, Team::Storage);
        let inc = incident(
            IncidentSource::Monitor(Team::Database),
            Team::Storage,
            Severity::Sev1,
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let trace = router.route(&inc, &f, &mut rng);
        assert!(trace.all_hands);
        assert!(trace.visited(Team::Storage));
        assert!(trace.hops.len() > 1);
        // Parallel time is the max, not the sum.
        let max = trace.hops.iter().map(|h| h.total()).max().unwrap();
        assert_eq!(trace.total_time(), max);
    }

    #[test]
    fn notes_accumulate_in_text() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::TorFailure, Team::PhyNet);
        let inc = incident(IncidentSource::Cri, Team::PhyNet, Severity::Sev2);
        let mut rng = SmallRng::seed_from_u64(6);
        let trace = router.route(&inc, &f, &mut rng);
        let t0 = trace.text_after_hops(&inc, 0);
        let t2 = trace.text_after_hops(&inc, 2.min(trace.hops.len()));
        assert!(t2.len() >= t0.len());
        assert_eq!(t0, inc.text());
    }

    #[test]
    fn time_accounting_is_consistent() {
        let topo = topo();
        let router = Router::new(&topo, RouterConfig::default());
        let f = fault(&topo, FaultKind::TorFailure, Team::PhyNet);
        let inc = incident(
            IncidentSource::Monitor(Team::Slb),
            Team::PhyNet,
            Severity::Sev3,
        );
        let mut rng = SmallRng::seed_from_u64(7);
        let trace = router.route(&inc, &f, &mut rng);
        let per_team: u64 = trace
            .teams()
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .map(|&&t| trace.time_in(t).as_minutes())
            .sum();
        assert_eq!(per_team, trace.total_time().as_minutes());
        if let Some(before) = trace.time_before(trace.resolver()) {
            assert!(before <= trace.total_time());
        }
    }
}
