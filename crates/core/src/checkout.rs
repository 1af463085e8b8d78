//! Check-out / check-in (§6).
//!
//! The paper's point: a check-out "cannot be represented in one single
//! query" — the retrieval can be one recursive query, but setting the
//! checked-out flags is an UPDATE that costs a *separate* WAN communication.
//! The remedy it sketches is function shipping: install the whole action at
//! the server. Both variants are implemented here so the benches can
//! measure the difference.

use pdm_net::TrafficStats;
use pdm_sql::{DmlOutcome, ExecOutcome, ResultSet};

use crate::product::{ObjectId, ProductTree};
use crate::query::prepared::Shape;
use crate::rules::classify::ConditionClass;
use crate::rules::condition::Condition;
use crate::rules::ActionKind;
use crate::server::id_list;
use crate::session::{Session, SessionResult};

/// Result of a check-out attempt.
#[derive(Debug, Clone)]
pub struct CheckoutOutcome {
    /// The checked-out subtree, or `None` if the ∀rows condition failed
    /// (some object was already checked out).
    pub tree: Option<ProductTree>,
    pub stats: TrafficStats,
    /// Round trips spent on the UPDATE phase (0 for function shipping).
    pub update_round_trips: usize,
}

impl Session {
    /// Check out the subtree rooted at `root`: retrieve it (per the
    /// session's strategy), verify that no object in it is already checked
    /// out (the paper's example-2 ∀rows condition), then flag every
    /// retrieved object in separate UPDATE round trips.
    pub fn check_out(&mut self, root: ObjectId) -> SessionResult<CheckoutOutcome> {
        // Phase 1: retrieval (meters its own traffic, resets metering, and
        // folds its own traffic into the registry as its own action).
        let expand = self.multi_level_expand(root)?;
        let mut stats = expand.stats.clone();
        let tree = expand.tree;

        // Phase 2: the ∀rows condition. Under the recursive strategy a
        // checked-out node inside the subtree would have emptied the result
        // via the injected NOT EXISTS — here we also re-check client-side
        // (covers the navigational strategies, which cannot evaluate tree
        // conditions in their queries, §4.1).
        let violated = self.checkout_forall_violated(&tree);
        if violated {
            return Ok(CheckoutOutcome {
                tree: None,
                stats,
                update_round_trips: 0,
            });
        }

        // Phase 3: separate UPDATE communications (§6).
        let mut assy_ids: Vec<ObjectId> = Vec::new();
        let mut comp_ids: Vec<ObjectId> = Vec::new();
        for node in tree.nodes() {
            match node.type_name.as_str() {
                "assy" => assy_ids.push(node.obid),
                "comp" => comp_ids.push(node.obid),
                _ => {}
            }
        }
        self.reset_metering();
        let mut update_round_trips = 0;
        for (table, ids) in [("assy", &assy_ids), ("comp", &comp_ids)] {
            if ids.is_empty() {
                continue;
            }
            let sql = format!(
                "UPDATE {table} SET checkedout = TRUE WHERE obid IN ({})",
                id_list(ids)
            );
            self.metered_update(&sql)?;
            update_round_trips += 1;
        }
        // Fold ONLY the post-reset UPDATE-phase traffic: phase 1 already
        // folded itself inside multi_level_expand, and the absorbed total
        // below is for the caller's outcome, not the registry.
        self.fold_traffic();
        stats.absorb(self.stats());

        Ok(CheckoutOutcome {
            tree: Some(tree),
            stats,
            update_round_trips,
        })
    }

    /// Function-shipping check-out (§6's remedy): ship ONE procedure call;
    /// the server runs the (rule-modified) recursive query, verifies the
    /// condition, and flips the flags locally. One round trip total.
    ///
    /// The call carries an idempotency token, which makes it failure-atomic
    /// on a faulty link: if the confirmation is lost *after* the server
    /// flipped the flags, the retry replays the same token and the server
    /// returns the recorded outcome instead of refusing its own check-out —
    /// the flags are never left half-flipped behind the client's back.
    pub fn check_out_function_shipping(
        &mut self,
        root: ObjectId,
    ) -> SessionResult<CheckoutOutcome> {
        self.action("check_out_function_shipping", |s| {
            s.check_out_function_shipping_inner(root)
        })
    }

    fn check_out_function_shipping_inner(
        &mut self,
        root: ObjectId,
    ) -> SessionResult<CheckoutOutcome> {
        // Admission control: a check-out holds a lock-table slot and a WAL
        // append, so it rides the Checkout priority class (sheds before
        // interactive queries as the token bucket drains).
        let _permit = self.admit(crate::overload::Priority::Checkout)?;
        let sql = self.statement(Shape::MlePhysical, ActionKind::CheckOut, &[root])?;
        // Drawn from the shared server's counter so tokens never collide
        // across sessions; retries of this action reuse it.
        let token = self.server().next_token();
        let request_bytes = sql.len() + 32; // procedure-call framing

        // A conflicting check-out that is mid-procedure on another session's
        // thread makes the server-side call WAIT; the session's per-action
        // deadline bounds that wait and surfaces as a Timeout. If the
        // confirmation is lost after the server committed, the retry
        // replays the SAME token and gets the recorded outcome back
        // without re-flipping.
        let result = self.exchange(request_bytes, |server, deadline, obs| {
            let result =
                server.checkout_procedure_with_deadline_obs(root, &sql, token, deadline, obs)?;
            // Wire size: real rows, or a small refusal message.
            let bytes = result.rows.as_deref().map_or(32, ResultSet::wire_size);
            Ok((result, bytes))
        })?;

        match result.rows {
            None => Ok(CheckoutOutcome {
                tree: None,
                stats: self.stats().clone(),
                update_round_trips: 0,
            }),
            Some(rows) => {
                let mut tree = self.rooted_tree(root)?;
                crate::session::insert_rows(&mut tree, &rows);
                Ok(CheckoutOutcome {
                    tree: Some(tree),
                    stats: self.stats().clone(),
                    update_round_trips: 0,
                })
            }
        }
    }

    /// Check a previously retrieved subtree back in (one UPDATE round trip
    /// per affected table).
    pub fn check_in(&mut self, tree: &ProductTree) -> SessionResult<usize> {
        self.action("check_in", |s| s.check_in_inner(tree))
    }

    fn check_in_inner(&mut self, tree: &ProductTree) -> SessionResult<usize> {
        let mut assy_ids = Vec::new();
        let mut comp_ids = Vec::new();
        for node in tree.nodes() {
            match node.type_name.as_str() {
                "assy" => assy_ids.push(node.obid),
                "comp" => comp_ids.push(node.obid),
                _ => {}
            }
        }
        let mut n = 0;
        for (table, ids) in [("assy", &assy_ids), ("comp", &comp_ids)] {
            if ids.is_empty() {
                continue;
            }
            let sql = format!(
                "UPDATE {table} SET checkedout = FALSE WHERE obid IN ({})",
                id_list(ids)
            );
            n += self.metered_update(&sql)?;
        }
        // Retire what a function-shipping check-out of this tree registered
        // at the server: its lock-table entries and its durable grant.
        let mut all_ids = assy_ids;
        all_ids.extend(comp_ids);
        self.server().release_checkout(&all_ids, self.recorder())?;
        Ok(n)
    }

    /// Does the retrieved tree violate a relevant ∀rows check-out rule?
    /// Evaluated client-side over the transferred attributes (the
    /// homogenized result carries the `checkedout` flag); under the
    /// recursive strategy the injected NOT EXISTS has already enforced this
    /// at the server, so this re-check is a no-op there.
    fn checkout_forall_violated(&mut self, tree: &ProductTree) -> bool {
        let funcs = crate::functions::client_registry();
        let forall_rules = self.rules().relevant_of_class(
            &self.config().user,
            ActionKind::CheckOut,
            ConditionClass::ForAllRows,
        );
        for rule in forall_rules {
            let Condition::ForAllRows {
                object_type,
                predicate,
            } = &rule.condition
            else {
                continue;
            };
            for node in tree.nodes() {
                if let Some(t) = object_type {
                    if &node.type_name != t {
                        continue;
                    }
                }
                if !predicate.eval(&node.attrs, &funcs) {
                    return true;
                }
            }
        }
        false
    }
}

impl Session {
    /// One metered UPDATE exchange. The check-out/check-in flag updates are
    /// idempotent (`SET checkedout = <const>` over a fixed id set), so on a
    /// faulty link every failure mode — including a lost confirmation after
    /// the server applied the update — is safe to replay.
    pub(crate) fn metered_update(&mut self, sql: &str) -> SessionResult<usize> {
        let _permit = self.admit(crate::overload::Priority::Checkout)?;
        self.exchange(sql.len(), |server, deadline, obs| {
            let updated = match server.execute_deadline_obs(sql, deadline, obs)? {
                ExecOutcome::Dml(DmlOutcome::Updated(n)) => n,
                _ => 0,
            };
            Ok((updated, 16))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::condition::{CmpOp, RowPredicate};
    use crate::rules::Rule;
    use crate::session::SessionConfig;
    use crate::Strategy;
    use pdm_net::LinkProfile;
    use pdm_workload::{build_database, TreeSpec};

    fn rules_with_checkout() -> crate::rules::table::RuleTable {
        let mut t = crate::rules::visibility_rules();
        t.add(Rule::for_all_users(
            ActionKind::CheckOut,
            "assy",
            Condition::ForAllRows {
                object_type: None,
                predicate: RowPredicate::compare("checkedout", CmpOp::Eq, false),
            },
        ));
        t
    }

    fn session(strategy: Strategy) -> Session {
        let spec = TreeSpec::new(2, 3, 1.0).with_node_size(256);
        let (db, _) = build_database(&spec).unwrap();
        Session::new(
            db,
            SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
            rules_with_checkout(),
        )
    }

    #[test]
    fn checkout_retrieves_flags_and_blocks_second_attempt() {
        let mut s = session(Strategy::Recursive);
        let out = s.check_out(1).unwrap();
        let tree = out.tree.expect("first check-out succeeds");
        assert_eq!(tree.len(), 1 + 3 + 9);
        assert!(out.update_round_trips >= 1);

        // second attempt must fail the ∀rows condition
        let out2 = s.check_out(1).unwrap();
        assert!(out2.tree.is_none());
    }

    #[test]
    fn checkin_releases() {
        let mut s = session(Strategy::Recursive);
        let out = s.check_out(1).unwrap();
        let tree = out.tree.unwrap();
        let n = s.check_in(&tree).unwrap();
        assert_eq!(n, tree.len());
        // and a fresh check-out succeeds again
        assert!(s.check_out(1).unwrap().tree.is_some());
    }

    #[test]
    fn function_shipping_uses_single_round_trip() {
        let mut s = session(Strategy::Recursive);
        let out = s.check_out_function_shipping(1).unwrap();
        assert!(out.tree.is_some());
        assert_eq!(out.stats.queries, 1);
        assert_eq!(out.update_round_trips, 0);

        // classic check-out needs strictly more communications
        let mut s2 = session(Strategy::Recursive);
        let classic = s2.check_out(1).unwrap();
        assert!(classic.stats.communications > out.stats.communications);
    }

    #[test]
    fn function_shipping_refusal_is_cheap() {
        let mut s = session(Strategy::Recursive);
        s.check_out_function_shipping(1).unwrap();
        let denied = s.check_out_function_shipping(1).unwrap();
        assert!(denied.tree.is_none());
        // refusal response is tiny
        assert!(denied.stats.response_payload_bytes < 100);
    }

    #[test]
    fn navigational_checkout_works_too() {
        let mut s = session(Strategy::EarlyEval);
        let out = s.check_out(1).unwrap();
        assert!(out.tree.is_some());
        assert!(out.stats.queries > 2); // per-node queries + checks + updates
    }
}
