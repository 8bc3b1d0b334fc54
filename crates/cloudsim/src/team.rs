//! Engineering teams and the dependency graph between them.
//!
//! The paper's world has hundreds of teams; the incidents it studies flow
//! through a handful of infrastructure teams with deep dependency chains
//! (§3.2: "team-level dependencies are deep, subtle, and can be hard to
//! reason about"). We model the cast that appears in the paper's narrative:
//! PhyNet (the deployed Scout's team), Storage, the software load balancer
//! (SLB), host networking, compute, database, DNS, firewall, the 24×7
//! support team, and two external parties (ISP, customer).
//!
//! The *dependency graph* encodes "whose component is a legitimate suspect
//! when mine misbehaves" — the single most common cause of mis-routing in
//! the paper's 200-incident study (122/200).

use std::fmt;

/// Identifier of a team. Index into [`TeamRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TeamId(pub u16);

/// The built-in cast of teams.
///
/// `Team::ALL` enumerates them; `TeamRegistry` holds metadata and the
/// dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Team {
    /// Physical networking — every switch, router and physical link (the
    /// paper's deployed Scout).
    PhyNet,
    /// Remote storage service.
    Storage,
    /// Software load balancing (VIP → DIP mappings).
    Slb,
    /// Host / virtual networking (vswitches, host agents).
    HostNet,
    /// Compute: servers, hypervisors, VM lifecycle.
    Compute,
    /// Database service.
    Database,
    /// DNS service.
    Dns,
    /// Edge firewalls.
    Firewall,
    /// 24×7 customer support (first stop for customer-reported incidents).
    Support,
    /// An external ISP (outside the provider).
    Isp,
    /// The customer's own environment (outside the provider).
    Customer,
}

impl Team {
    /// All teams, in `TeamId` order.
    pub const ALL: [Team; 11] = [
        Team::PhyNet,
        Team::Storage,
        Team::Slb,
        Team::HostNet,
        Team::Compute,
        Team::Database,
        Team::Dns,
        Team::Firewall,
        Team::Support,
        Team::Isp,
        Team::Customer,
    ];

    /// The team's id.
    pub fn id(self) -> TeamId {
        TeamId(Team::ALL.iter().position(|&t| t == self).unwrap() as u16)
    }

    /// Resolve an id back to the team.
    pub fn from_id(id: TeamId) -> Option<Team> {
        Team::ALL.get(id.0 as usize).copied()
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Team::PhyNet => "PhyNet",
            Team::Storage => "Storage",
            Team::Slb => "SLB",
            Team::HostNet => "HostNet",
            Team::Compute => "Compute",
            Team::Database => "Database",
            Team::Dns => "DNS",
            Team::Firewall => "Firewall",
            Team::Support => "Support",
            Team::Isp => "ISP",
            Team::Customer => "Customer",
        }
    }

    /// External organizations: the provider has no visibility into them
    /// (§3.2 "a fundamental challenge … lack of visibility into other ISPs
    /// and customer systems").
    pub fn is_external(self) -> bool {
        matches!(self, Team::Isp | Team::Customer)
    }

    /// Teams this team *depends on*: when this team's components misbehave,
    /// these teams are legitimate suspects. Drives the baseline router's
    /// hop choices and the fault catalog.
    pub fn depends_on(self) -> &'static [Team] {
        match self {
            // PhyNet is the root dependency of nearly everything.
            Team::PhyNet => &[],
            Team::Storage => &[Team::PhyNet, Team::Compute],
            Team::Slb => &[Team::PhyNet, Team::HostNet],
            Team::HostNet => &[Team::PhyNet, Team::Compute],
            Team::Compute => &[Team::PhyNet, Team::Storage],
            Team::Database => &[Team::Storage, Team::PhyNet, Team::Slb, Team::Compute],
            Team::Dns => &[Team::PhyNet],
            Team::Firewall => &[Team::PhyNet],
            Team::Support => &[],
            Team::Isp => &[],
            Team::Customer => &[],
        }
    }
}

impl fmt::Display for Team {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Team metadata plus dependency queries.
///
/// Exists so downstream crates can iterate teams uniformly and ask the
/// reverse question ("who depends on me?") without hard-coding the cast.
#[derive(Debug, Clone, Default)]
pub struct TeamRegistry;

impl TeamRegistry {
    /// Construct the registry (the cast is static).
    pub fn new() -> TeamRegistry {
        TeamRegistry
    }

    /// Number of teams.
    pub fn len(&self) -> usize {
        Team::ALL.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate all teams.
    pub fn teams(&self) -> impl Iterator<Item = Team> {
        Team::ALL.into_iter()
    }

    /// Internal (provider-side) teams only.
    pub fn internal_teams(&self) -> impl Iterator<Item = Team> {
        Team::ALL.into_iter().filter(|t| !t.is_external())
    }

    /// Teams that depend on `team` (reverse edges).
    pub fn dependents_of(&self, team: Team) -> Vec<Team> {
        Team::ALL
            .into_iter()
            .filter(|t| t.depends_on().contains(&team))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for t in Team::ALL {
            assert_eq!(Team::from_id(t.id()), Some(t));
        }
        assert_eq!(Team::from_id(TeamId(999)), None);
    }

    #[test]
    fn phynet_is_the_most_depended_on_team() {
        // §1: PhyNet receives 1 in 10 mis-routed incidents because nearly
        // everything depends on it.
        let reg = TeamRegistry::new();
        let phynet_dependents = reg.dependents_of(Team::PhyNet).len();
        for t in Team::ALL {
            if t != Team::PhyNet {
                assert!(reg.dependents_of(t).len() <= phynet_dependents);
            }
        }
        assert!(phynet_dependents >= 5);
    }

    #[test]
    fn external_teams() {
        assert!(Team::Isp.is_external());
        assert!(Team::Customer.is_external());
        assert!(!Team::PhyNet.is_external());
        let reg = TeamRegistry::new();
        assert_eq!(reg.internal_teams().count(), reg.len() - 2);
    }

    #[test]
    fn transitive_dependencies() {
        let g = crate::DependencyGraph::builtin();
        // Database → Storage → PhyNet.
        assert!(g.is_transitive_dependency("Database", "PhyNet"));
        assert!(g.is_transitive_dependency("Database", "Storage"));
        // PhyNet depends on nothing.
        for t in Team::ALL {
            assert!(!g.is_transitive_dependency("PhyNet", t.name()));
        }
        // No self-dependency in the direct graph.
        for t in Team::ALL {
            assert!(!t.depends_on().contains(&t));
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Team::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Team::ALL.len());
    }
}
