//! String-keyed team dependency graph — the fleet routing plane's DAG.
//!
//! [`Team`]'s enum cast is closed: exactly the eleven teams of the
//! paper's narrative. The online routing plane cannot live with that —
//! teams register Scouts under arbitrary names, get added and removed at
//! runtime, and (at fleet scale) number in the hundreds. This module
//! exports the same dependency knowledge as a dynamic, string-keyed
//! graph the Scout Master can query for *any* registered team name:
//!
//! * [`DependencyGraph::builtin`] mirrors [`Team::depends_on`] exactly,
//!   keyed by [`Team::name`];
//! * [`DependencyGraph::synthetic_fleet`] replicates the built-in
//!   internal teams into `n` synthetic teams (`PhyNet`, `Storage`, …,
//!   `PhyNet-1`, `Storage-1`, …) whose dependency edges mirror the base
//!   graph within each replica — the deterministic fleet the benches and
//!   smoke tests route against;
//! * [`DependencyGraph::add_team`] / [`DependencyGraph::add_dependency`]
//!   grow the graph at runtime. Unlike the enum graph, cycles are
//!   allowed (real org charts have them); [`is_transitive_dependency`]
//!   terminates on them, and the Scout Master's tie-break order stays
//!   total regardless.
//!
//! Lookups are exact-match on the team name. A team that is *not* in the
//! graph is still routable — it just has no dependency edges; the
//! serving plane counts such answers (`serve.route.unmapped`) instead of
//! dropping them.
//!
//! [`is_transitive_dependency`]: DependencyGraph::is_transitive_dependency

use crate::team::{Team, TeamRegistry};
use std::collections::BTreeMap;

/// A dynamic, string-keyed team dependency graph.
///
/// Edges point from a team to the teams it *depends on* — the legitimate
/// suspects when its components misbehave (same direction as
/// [`Team::depends_on`]).
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    /// Team name → index into `depends`.
    index: BTreeMap<String, usize>,
    /// Index → team name (insertion order).
    names: Vec<String>,
    /// Index → direct dependency indices.
    depends: Vec<Vec<usize>>,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> DependencyGraph {
        DependencyGraph::default()
    }

    /// The enum cast's graph, keyed by [`Team::name`].
    pub fn builtin() -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for team in Team::ALL {
            g.add_team(team.name());
        }
        for team in Team::ALL {
            for dep in team.depends_on() {
                g.add_dependency(team.name(), dep.name());
            }
        }
        g
    }

    /// A deterministic synthetic fleet of `n` teams for load tests and
    /// benches: the built-in *internal* teams (external orgs host no
    /// Scouts) replicated round-robin. Replica 0 keeps the bare base
    /// names (`PhyNet`), replica `r > 0` appends `-r` (`PhyNet-1`);
    /// dependency edges mirror the base graph within each replica, so
    /// every replica is an independent copy of the paper's DAG.
    pub fn synthetic_fleet(n: usize) -> DependencyGraph {
        let bases: Vec<Team> = TeamRegistry::new().internal_teams().collect();
        let mut g = DependencyGraph::new();
        for i in 0..n {
            g.add_team(&synthetic_team_name(
                bases[i % bases.len()],
                i / bases.len(),
            ));
        }
        for i in 0..n {
            let base = bases[i % bases.len()];
            let replica = i / bases.len();
            for dep in base.depends_on() {
                let dep_name = synthetic_team_name(*dep, replica);
                if g.contains(&dep_name) {
                    g.add_dependency(&synthetic_team_name(base, replica), &dep_name);
                }
            }
        }
        g
    }

    /// Ensure `team` exists; returns its index.
    pub fn add_team(&mut self, team: &str) -> usize {
        if let Some(&i) = self.index.get(team) {
            return i;
        }
        let i = self.names.len();
        self.names.push(team.to_string());
        self.depends.push(Vec::new());
        self.index.insert(team.to_string(), i);
        i
    }

    /// Add a "`team` depends on `on`" edge, creating either team as
    /// needed. Self-edges and duplicates are ignored.
    pub fn add_dependency(&mut self, team: &str, on: &str) {
        let t = self.add_team(team);
        let d = self.add_team(on);
        if t != d && !self.depends[t].contains(&d) {
            self.depends[t].push(d);
        }
    }

    /// Is `team` in the graph?
    pub fn contains(&self, team: &str) -> bool {
        self.index.contains_key(team)
    }

    /// Number of teams.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Team names in sorted order.
    pub fn team_names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Teams `team` directly depends on. Empty for unknown teams.
    pub fn depends_on<'a>(&'a self, team: &str) -> Vec<&'a str> {
        match self.index.get(team) {
            Some(&i) => self.depends[i]
                .iter()
                .map(|&d| self.names[d].as_str())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Is `suspect` a (transitive) dependency of `complainant`?
    ///
    /// Either name may be absent from the graph (answer: `false`), and
    /// cycles terminate: each team is visited at most once.
    pub fn is_transitive_dependency(&self, complainant: &str, suspect: &str) -> bool {
        let (Some(&from), Some(&to)) = (self.index.get(complainant), self.index.get(suspect))
        else {
            return false;
        };
        if from == to {
            return false;
        }
        let mut seen = vec![false; self.names.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(t) = stack.pop() {
            for &d in &self.depends[t] {
                if d == to {
                    return true;
                }
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        false
    }
}

/// The synthetic-fleet name for `base` at `replica` (see
/// [`DependencyGraph::synthetic_fleet`]).
pub fn synthetic_team_name(base: Team, replica: usize) -> String {
    if replica == 0 {
        base.name().to_string()
    } else {
        format!("{}-{replica}", base.name())
    }
}

/// Strip a synthetic replica suffix: `PhyNet-3` → `PhyNet`, `PhyNet` →
/// `PhyNet`. Only a trailing `-<digits>` is a replica suffix; any other
/// name comes back unchanged.
pub fn base_team_name(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((base, suffix))
            if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) =>
        {
            base
        }
        _ => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_teams_are_unrelated_but_addable() {
        let mut g = DependencyGraph::builtin();
        assert!(!g.contains("Atlantis"));
        assert!(!g.is_transitive_dependency("Atlantis", "PhyNet"));
        assert!(!g.is_transitive_dependency("PhyNet", "Atlantis"));
        g.add_dependency("Atlantis", "PhyNet");
        assert!(g.is_transitive_dependency("Atlantis", "PhyNet"));
        // Transitively through the builtin edges too.
        g.add_dependency("Mu", "Database");
        assert!(g.is_transitive_dependency("Mu", "PhyNet"));
    }

    #[test]
    fn cycles_terminate() {
        let mut g = DependencyGraph::new();
        g.add_dependency("A", "B");
        g.add_dependency("B", "C");
        g.add_dependency("C", "A");
        assert!(g.is_transitive_dependency("A", "C"));
        assert!(g.is_transitive_dependency("C", "B"));
        assert!(!g.is_transitive_dependency("A", "A"));
        // Mutual dependency both ways — the Scout Master's tie-break
        // must handle this, the graph just reports it.
        assert!(g.is_transitive_dependency("A", "B"));
        assert!(g.is_transitive_dependency("B", "A"));
    }

    #[test]
    fn synthetic_fleet_replicates_the_base_graph() {
        let g = DependencyGraph::synthetic_fleet(32);
        assert_eq!(g.len(), 32);
        // Replica 0 keeps bare names with the base edges.
        assert!(g.contains("PhyNet"));
        assert!(g.is_transitive_dependency("Database", "PhyNet"));
        // Replica 1 exists with mirrored edges, isolated from replica 0.
        assert!(g.contains("PhyNet-1"));
        assert!(g.is_transitive_dependency("Database-1", "PhyNet-1"));
        assert!(!g.is_transitive_dependency("Database-1", "PhyNet"));
        assert!(!g.is_transitive_dependency("Database", "PhyNet-1"));
    }

    #[test]
    fn synthetic_fleet_is_stable_under_growth() {
        // Growing the fleet never renames or rewires existing teams —
        // the prefix property that makes team add/remove safe.
        let small = DependencyGraph::synthetic_fleet(16);
        let large = DependencyGraph::synthetic_fleet(64);
        for name in small.team_names() {
            assert!(large.contains(name));
            assert_eq!(small.depends_on(name), large.depends_on(name));
        }
    }

    #[test]
    fn base_name_round_trips() {
        let bases: Vec<Team> = TeamRegistry::new().internal_teams().collect();
        for (i, base) in bases.iter().enumerate() {
            for replica in [0, 1, 7] {
                let name = synthetic_team_name(*base, replica);
                assert_eq!(base_team_name(&name), base.name(), "replica {replica} #{i}");
            }
        }
        assert_eq!(base_team_name("DNS"), "DNS");
        assert_eq!(base_team_name("PhyNet-x3"), "PhyNet-x3");
        assert_eq!(base_team_name("PhyNet-"), "PhyNet-");
    }
}
