//! Multi-server PDM (the paper's §7 outlook): "multi-server environments in
//! conjunction with distributed data management ... have to be taken into
//! consideration".
//!
//! A federation spreads the product structure over several database sites;
//! links live with their parent's site, so a cross-site edge is a **mount
//! point** where any server-side traversal necessarily stops. The client
//! keeps the placement directory and the mount metadata (realistic: PDM
//! "distributed vault" catalogs are client/middleware metadata) and
//! continues the expansion at the owning site.
//!
// lint:allow-file(unchecked-index): `self.sites[site]` throughout — a
// site id is a handle validated at federation construction; panicking on
// a forged id is the intended contract, as with slice indexing.
//
//! The interesting measured consequence: the recursive strategy degrades
//! from 1 round trip to *one round trip per visited site* — still orders of
//! magnitude below navigational access, but no longer constant. The
//! `federation` bench binary quantifies this.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use pdm_net::{FaultPlan, LinkProfile, TrafficStats};
use pdm_obs::MetricsRegistry;
use pdm_sql::functions::FunctionRegistry;
use pdm_sql::{Database, ResultSet, Value};

use crate::client::{self, Strategy};
use crate::product::{ObjectId, ProductTree};
use crate::query::prepared::Shape;
use crate::resilience::RetryPolicy;
use crate::rules::table::RuleTable;
use crate::rules::ActionKind;
use crate::session::{Session, SessionConfig, SessionError, SessionResult};

/// A cross-site edge as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MountPoint {
    pub parent: ObjectId,
    pub child: ObjectId,
    pub child_site: usize,
    /// The connecting link carries the user's structure option.
    pub visible: bool,
}

/// One database site of the federation: a session on that site's server
/// over its own link. The federation drives the session's retrieval steps
/// directly rather than as whole actions, so a site's metering accumulates
/// across one federated expand and is folded into the site server's
/// registry once, when the expand ends.
pub struct FederatedSite {
    pub name: String,
    session: Session,
}

impl FederatedSite {
    pub fn stats(&self) -> &TrafficStats {
        self.session.stats()
    }

    pub fn elapsed(&self) -> f64 {
        self.session.elapsed()
    }

    /// The site server's metrics registry, into which each federated
    /// expand folds this site's traffic (`net.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.session.metrics()
    }
}

/// Result of a federated expand.
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    pub tree: ProductTree,
    /// Traffic per site, in site order.
    pub per_site: Vec<TrafficStats>,
    /// Number of distinct sites the traversal touched.
    pub sites_visited: usize,
    /// `true` when at least one site could not be reached and its subtrees
    /// are missing from `tree` — the result is explicitly partial, never
    /// silently truncated.
    pub partial: bool,
    /// Names of the sites that stayed unreachable after retries.
    pub unreachable_sites: Vec<String>,
}

impl FederatedOutcome {
    /// Total response time of the (sequential) client: the sum of all
    /// per-site delays.
    pub fn response_time(&self) -> f64 {
        self.per_site.iter().map(TrafficStats::response_time).sum()
    }

    pub fn total_queries(&self) -> usize {
        self.per_site.iter().map(|s| s.queries).sum()
    }
}

/// A PDM client connected to several database sites.
pub struct Federation {
    sites: Vec<FederatedSite>,
    directory: HashMap<ObjectId, usize>,
    mounts_by_parent: HashMap<ObjectId, Vec<MountPoint>>,
    rules: RuleTable,
    user: String,
    strategy: Strategy,
    funcs: FunctionRegistry,
}

impl Federation {
    /// Assemble a federation. `databases` and `links` are parallel: one
    /// populated database and one WAN profile per site. `directory` maps
    /// every object to its site.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        databases: Vec<Database>,
        links: Vec<LinkProfile>,
        site_names: Vec<String>,
        directory: HashMap<ObjectId, usize>,
        mounts: Vec<MountPoint>,
        user: impl Into<String>,
        strategy: Strategy,
        rules: RuleTable,
    ) -> Self {
        assert_eq!(databases.len(), links.len());
        assert_eq!(databases.len(), site_names.len());
        let user = user.into();
        let sites = databases
            .into_iter()
            .zip(links)
            .zip(site_names)
            .map(|((db, link), name)| FederatedSite {
                name,
                session: Session::new(
                    db,
                    SessionConfig::new(user.clone(), strategy, link),
                    rules.clone(),
                ),
            })
            .collect();
        let mut mounts_by_parent: HashMap<ObjectId, Vec<MountPoint>> = HashMap::new();
        for m in mounts {
            mounts_by_parent.entry(m.parent).or_default().push(m);
        }
        Federation {
            sites,
            directory,
            mounts_by_parent,
            rules,
            user,
            strategy,
            funcs: crate::functions::client_registry(),
        }
    }

    pub fn sites(&self) -> &[FederatedSite] {
        &self.sites
    }

    /// Install a fault plan on one site's link
    /// ([`crate::Session::set_fault_plan`]: a first install upgrades that
    /// site's no-retry policy to [`RetryPolicy::default_wan`]).
    pub fn set_site_fault_plan(&mut self, site: usize, plan: FaultPlan) {
        self.sites[site].session.set_fault_plan(plan);
    }

    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        for s in &mut self.sites {
            s.session.set_retry_policy(policy.clone());
        }
    }

    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
        for s in &mut self.sites {
            s.session.set_strategy(strategy);
        }
    }

    pub fn reset_metering(&mut self) {
        for s in &mut self.sites {
            s.session.reset_metering();
        }
    }

    fn site_of(&self, obid: ObjectId) -> SessionResult<usize> {
        self.directory
            .get(&obid)
            .copied()
            .ok_or(SessionError::RootNotFound(obid))
    }

    /// Does the mount's connecting link pass the relation rules? Evaluated
    /// client-side from the mount metadata — no site holds both ends.
    fn mount_permitted(&self, mount: &MountPoint) -> bool {
        let attrs: HashMap<String, Value> = [(
            "strc_opt".to_string(),
            Value::from(if mount.visible {
                pdm_workload_user_option()
            } else {
                "NONE"
            }),
        )]
        .into_iter()
        .collect();
        let groups = client::permission_groups(
            &self.rules,
            &self.user,
            ActionKind::MultiLevelExpand,
            &[crate::query::T_LINK],
        );
        client::permitted(&attrs, &groups, &self.funcs)
    }

    /// Federated multi-level expand of the subtree rooted at `root`.
    ///
    /// On faulty links, a site that stays unreachable after retries is
    /// skipped: its subtrees are missing from the result, which comes back
    /// explicitly marked `partial` with the site names listed — degraded
    /// but honest service instead of failing the whole action. Failing the
    /// *root's* site still fails the action (there is nothing to return).
    pub fn multi_level_expand(&mut self, root: ObjectId) -> SessionResult<FederatedOutcome> {
        self.reset_metering();
        let result = self.expand(root);
        // One metering segment per site, folded once whether or not the
        // expand succeeded, as `Session::action` does.
        for s in &self.sites {
            s.session.fold_traffic();
        }
        result
    }

    fn expand(&mut self, root: ObjectId) -> SessionResult<FederatedOutcome> {
        let root_site = self.site_of(root)?;
        let mut unreachable: BTreeSet<usize> = BTreeSet::new();

        // Root is client-cached (footnote 4): fetch unmetered.
        let mut tree = self.sites[root_site].session.rooted_tree(root)?;

        match self.strategy {
            Strategy::Recursive => {
                // One recursive query per visited partition.
                let mut visited_sites: HashSet<usize> = HashSet::new();
                // (subtree root, its site, parent to attach it to — None for
                // the federation root which is already in the tree)
                let mut queue: VecDeque<(ObjectId, usize, Option<ObjectId>)> = VecDeque::new();
                queue.push_back((root, root_site, None));
                while let Some((r, site, attach_to)) = queue.pop_front() {
                    if unreachable.contains(&site) {
                        continue;
                    }
                    visited_sites.insert(site);
                    let shape = Shape::Mle {
                        include_root: attach_to.is_some(),
                    };
                    let session = &mut self.sites[site].session;
                    let sql = session.statement(shape, ActionKind::MultiLevelExpand, &[r])?;
                    let rs = match session.metered_query(&sql) {
                        Ok(rs) => rs,
                        Err(e) if e.is_link_failure() && site != root_site => {
                            unreachable.insert(site);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    let shape = Arc::clone(session.node_shape(&rs.schema));
                    for (at, row) in rs.rows.iter().enumerate() {
                        let Some(obid) = shape.obid(row) else {
                            continue;
                        };
                        let parent = if obid == r { attach_to } else { None };
                        tree.insert_row(&rs, &shape, at, parent);
                    }
                    // Continue at mounts whose parent made it into the tree.
                    self.enqueue_mounts(r, &tree, &rs, &mut queue)?;
                }
                Ok(self.outcome(tree, visited_sites.len(), &unreachable))
            }
            Strategy::LateEval | Strategy::EarlyEval => {
                // Navigational: every expand query routed to the owning
                // site; mount children fetched from theirs.
                let mut visited_sites: HashSet<usize> = HashSet::new();
                let mut queue: VecDeque<ObjectId> = VecDeque::new();
                queue.push_back(root);
                while let Some(parent) = queue.pop_front() {
                    let site = self.site_of(parent)?;
                    if unreachable.contains(&site) {
                        continue;
                    }
                    visited_sites.insert(site);
                    let nodes = match self.sites[site].session.retrieve(
                        Shape::Expand,
                        &[parent],
                        ActionKind::MultiLevelExpand,
                        &[
                            crate::query::T_LINK,
                            crate::query::T_ASSY,
                            crate::query::T_COMP,
                        ],
                        "expand",
                        Some(parent),
                    ) {
                        Ok(nodes) => nodes,
                        Err(e) if e.is_link_failure() && site != root_site => {
                            unreachable.insert(site);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    tree.insert_rows(&nodes);
                    queue.extend(nodes.obids());
                    // Mount children: fetch their row from the remote site,
                    // apply node rules client-side, continue expanding.
                    if let Some(mounts) = self.mounts_by_parent.get(&parent).cloned() {
                        for mount in mounts {
                            if !self.mount_permitted(&mount)
                                || unreachable.contains(&mount.child_site)
                            {
                                continue;
                            }
                            let session = &mut self.sites[mount.child_site].session;
                            let sql = session.statement(
                                Shape::FetchNode,
                                ActionKind::Access,
                                &[mount.child],
                            )?;
                            let rs = match session.metered_query(&sql) {
                                Ok(rs) => rs,
                                Err(e) if e.is_link_failure() => {
                                    unreachable.insert(mount.child_site);
                                    continue;
                                }
                                Err(e) => return Err(e),
                            };
                            visited_sites.insert(mount.child_site);
                            let Some(row) = rs.rows.first() else { continue };
                            let node = session.node_shape(&rs.schema).node(row, Some(parent));
                            let node_groups = client::permission_groups(
                                &self.rules,
                                &self.user,
                                ActionKind::MultiLevelExpand,
                                &[crate::query::T_ASSY, crate::query::T_COMP],
                            );
                            if !client::permitted(&node.attrs, &node_groups, &self.funcs) {
                                continue;
                            }
                            queue.push_back(node.obid);
                            tree.insert(node);
                        }
                    }
                }
                Ok(self.outcome(tree, visited_sites.len(), &unreachable))
            }
        }
    }

    fn outcome(
        &self,
        tree: ProductTree,
        sites_visited: usize,
        unreachable: &BTreeSet<usize>,
    ) -> FederatedOutcome {
        let per_site = self.sites.iter().map(|s| s.stats().clone()).collect();
        FederatedOutcome {
            tree,
            per_site,
            sites_visited,
            partial: !unreachable.is_empty(),
            unreachable_sites: unreachable
                .iter()
                .map(|&i| self.sites[i].name.clone())
                .collect(),
        }
    }

    /// After a partition's recursive result landed in `tree`, queue remote
    /// subtrees for every permitted mount whose parent was retrieved —
    /// including mounts owned by the traversal root itself, whose row may
    /// not appear in the partition result.
    fn enqueue_mounts(
        &self,
        traversal_root: ObjectId,
        tree: &ProductTree,
        partition_result: &ResultSet,
        queue: &mut VecDeque<(ObjectId, usize, Option<ObjectId>)>,
    ) -> SessionResult<()> {
        let obid_idx = partition_result.schema.require("obid")?;
        let mut parents: Vec<ObjectId> = vec![traversal_root];
        for row in &partition_result.rows {
            if let Value::Int(obid) = row.get(obid_idx) {
                parents.push(*obid);
            }
        }
        for parent in parents {
            let Some(mounts) = self.mounts_by_parent.get(&parent) else {
                continue;
            };
            for mount in mounts {
                if tree.contains(mount.parent)
                    && self.mount_permitted(mount)
                    && !tree.contains(mount.child)
                    && !queue.iter().any(|(c, _, _)| *c == mount.child)
                {
                    queue.push_back((mount.child, mount.child_site, Some(mount.parent)));
                }
            }
        }
        Ok(())
    }
}

/// The user's structure option literal (kept in sync with the workload
/// generator's marking without a crate dependency).
fn pdm_workload_user_option() -> &'static str {
    "OPTA"
}
