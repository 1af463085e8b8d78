#![allow(clippy::unwrap_used)]

//! Golden rendering of every causal tree of one routed plan that reaches
//! every cluster-side instrument: ship ok, ship link failure, a watermark
//! wait with ships nested in it, a lag timeout and the stale read after it,
//! a laggard re-seed, an outage wait, a lease wait with the promotion it
//! ends in, and the heal of the deposed primary.
//!
//! `golden/routed_trace.txt` was recorded at the commit BEFORE routed trees
//! were assembled from one recorder (cluster contributions then travelled
//! in a side buffer and entered the assembler through segment-pushing
//! methods of their own); a change to how a tree is recorded or assembled
//! must reproduce it. (Re-recorded once since, for an intended change to
//! the plan's ship rounds, not to how trees are built: a round now decides
//! the rebase after its last ship, so the write that re-seeds site 3 ships
//! site 2 its record instead of re-seeding that healthy site too, tries
//! site 3's batch before it sends the snapshot, and site 3's scripted
//! outage is one attempt longer — every other line is the parent's.)
//! Pinned per span: site, kind, label, `v_start` /
//! `v_end` / `v_excl` as bit patterns, attributes, detail and the parent
//! shape. Not pinned: gid numbering (spans are renumbered in pre-order),
//! advisory wall time, and the `v_s` attribute — it repeats `v_excl`, which
//! is rendered as bits, and the recording commit carried it on client
//! segments only.
//!
//! Every fault is scripted (outage windows on a ship link's own clock, on
//! the primary's site), none is drawn: the plan's one re-seed and its heal
//! run over links that are up at that moment, so whether a seed exchange
//! can fail does not move the file. Re-record (only for an intended change
//! to the trees) with
//! `cargo test -p pdm-core --test routed_trace_golden -- --ignored record`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use pdm_bench::harness::{cluster, connect, roots};
use pdm_core::{
    attribution, Cluster, ClusterConfig, DurabilityConfig, ProductTree, RetryPolicy, RoutedSession,
    SessionError, TraceTree,
};
use pdm_net::fault::DEFAULT_TIMEOUT;
use pdm_net::OutageWindow;
use pdm_obs::SpanRecord;
use pdm_workload::TreeSpec;

const INTERVAL: u64 = 4;
/// Ship attempts on site 3's link from the start of its outage through the
/// round that re-seeds the site — which ships to every site, site 3
/// included, before it judges the rebase; the window ends with the last of
/// them, so the snapshot travels over a link that is up.
const LAGGARD_ATTEMPTS: u32 = 18;

fn bits(v: f64) -> String {
    format!("{:016x}({v:?})", v.to_bits())
}

/// Render `span` as number `n + 1` under `parent`, then the spans whose
/// `parent` field reads `children` (`None` under the root).
fn render_span(
    out: &mut String,
    tree: &TraceTree,
    (span, children): (&SpanRecord, Option<usize>),
    parent: usize,
    n: &mut usize,
) {
    *n += 1;
    let me = *n;
    let attrs: Vec<String> = span
        .attrs
        .iter()
        .filter(|(k, _)| *k != "v_s")
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    writeln!(
        out,
        "  #{me} ^{parent} {} {} {:?} start={} end={} excl={} [{}] {:?}",
        tree.site_of(span),
        span.kind.full_name(),
        span.label,
        bits(span.v_start),
        bits(span.v_end),
        bits(span.v_excl()),
        attrs.join(", "),
        span.detail,
    )
    .unwrap();
    for child in tree.spans.iter().filter(|s| s.parent == children) {
        render_span(out, tree, (child, Some(child.id)), me, n);
    }
}

fn render(out: &mut String, step: &str, result: &str, tree: &TraceTree) {
    tree.validate().unwrap();
    writeln!(
        out,
        "== {step} -> {result}\n  trace {:#x} action {:?} outcome {:?} total={} sites {:?}",
        tree.trace_id,
        tree.action,
        tree.outcome,
        bits(tree.total_v),
        tree.sites(),
    )
    .unwrap();
    let mut n = 0;
    render_span(out, tree, (&tree.root(), None), 0, &mut n);
    assert_eq!(
        n,
        tree.span_count(),
        "{step}: spans unreachable from the root"
    );
    let a = attribution(tree);
    writeln!(out, "  attribution total={}", bits(a.total_v)).unwrap();
    for c in &a.classes {
        writeln!(out, "    {} v_s={} count={}", c.class, bits(c.v_s), c.count).unwrap();
    }
}

struct Plan {
    cluster: Cluster,
    sessions: BTreeMap<usize, RoutedSession>,
    root: i64,
    writes: u32,
    out: String,
}

impl Plan {
    fn new() -> Plan {
        let cfg = ClusterConfig::default()
            .with_replicas(3)
            .with_lease(30.0)
            .with_durability(DurabilityConfig::default().with_interval(INTERVAL));
        let cluster = cluster(&TreeSpec::new(2, 2, 1.0).with_node_size(64), cfg);
        let root = roots(cluster.primary())[0];
        let mut sessions = BTreeMap::new();
        for site in cluster.replica_sites() {
            let mut s = connect(&cluster, site);
            s.enable_tracing(0x601D_0000 + site as u64);
            sessions.insert(site, s);
        }
        Plan {
            cluster,
            sessions,
            root,
            writes: 0,
            out: String::new(),
        }
    }

    /// Run one action of `site`'s session and render the tree it left.
    fn step<T>(
        &mut self,
        site: usize,
        step: &str,
        action: impl FnOnce(&mut RoutedSession, &mut Cluster) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        let session = self.sessions.get_mut(&site).unwrap();
        let result = action(session, &mut self.cluster);
        let tree = session.last_trace().expect("traced action left no tree");
        let outcome = match &result {
            Ok(_) => "ok",
            Err(e) => e.kind_name(),
        };
        render(&mut self.out, &format!("site{site} {step}"), outcome, tree);
        result
    }

    fn update(&mut self, site: usize) {
        self.writes += 1;
        let sql = format!(
            "UPDATE assy SET payload = 'w{}' WHERE obid = {}",
            self.writes, self.root
        );
        self.step(site, "update", |s, c| s.execute_dml(c, &sql))
            .unwrap();
    }

    fn expand(&mut self, site: usize) -> Result<bool, SessionError> {
        let root = self.root;
        self.step(site, "expand", |s, c| s.multi_level_expand(c, root))
            .map(|read| read.staleness.is_some())
    }

    /// Take `site`'s ship link down for the next `seconds` of its own clock.
    fn ship_outage(&mut self, site: usize, seconds: f64) {
        let now = self.cluster.replica(site).unwrap().elapsed();
        self.cluster
            .schedule_ship_outage(site, OutageWindow::new(now, now + seconds));
    }

    fn primary_outage(&mut self, seconds: f64) {
        let now = self.cluster.clock();
        self.cluster
            .schedule_outage(OutageWindow::new(now, now + seconds));
    }
}

fn record() -> String {
    let mut p = Plan::new();
    let root = p.root;

    // Every replica up: acknowledged ships with their replica-side applies,
    // an empty watermark wait, the check-out cycle, a read elsewhere.
    p.update(1);
    assert!(!p.expand(1).unwrap());
    let held: ProductTree = p
        .step(1, "check_out", |s, c| s.check_out(c, root))
        .unwrap()
        .0
        .tree
        .expect("nobody else holds the root");
    p.step(1, "check_in", |s, c| s.check_in(c, &held)).unwrap();
    p.step(2, "query_all", |s, c| s.query_all(c, root)).unwrap();

    // Site 2's link down for one and a half timeouts: the write is
    // acknowledged by the others past a failed ship, the read's watermark
    // wait holds the rest of the outage and the ship that ends it.
    p.ship_outage(2, 1.5 * DEFAULT_TIMEOUT);
    p.update(2);
    assert!(!p.expand(2).unwrap());

    // Site 3's link down, its session out of patience: a lag timeout, then
    // the stale read the staleness rung turns the next one into.
    p.ship_outage(3, f64::from(LAGGARD_ATTEMPTS) * DEFAULT_TIMEOUT);
    p.sessions
        .get_mut(&3)
        .unwrap()
        .set_retry_policy(RetryPolicy::none().with_deadline(0.05));
    p.update(3);
    match p.expand(3) {
        Err(SessionError::ReplicaLagTimeout { .. }) => {}
        other => panic!("expected a lag timeout, got {other:?}"),
    }
    assert!(p.expand(3).unwrap(), "the second lag failure reads stale");

    // The feed fills to its retention bound behind site 3: the base moves
    // and the laggard is re-seeded inside a write's acknowledgement.
    let generation = p.cluster.generation();
    while p.cluster.generation() == generation {
        p.update(1);
        assert!(p.writes < 64, "site 3 was never re-seeded");
    }
    assert_eq!(p.cluster.lag(3), 0);

    // A primary outage shorter than the lease is waited out; one that
    // outlives it is waited to lease expiry and promoted over.
    p.primary_outage(5.0);
    p.update(1);
    p.primary_outage(200.0);
    p.update(2);
    assert_eq!(p.cluster.epoch(), 2);
    assert!(!p.expand(2).unwrap());

    // Past the outage's end the deposed primary heals back in, inside the
    // next write's availability gate.
    p.cluster.advance(200.0);
    p.update(2);
    assert!(p.cluster.replica_sites().contains(&0));
    assert!(!p.expand(3).unwrap());
    p.step(1, "query_all", |s, c| s.query_all(c, root)).unwrap();

    // The plan reached every instrument.
    for needle in [
        "repl.ship \"site1\"",
        "repl.apply",
        "link outage",
        "repl.wait_watermark",
        "outcome \"ReplicaLagTimeout\"",
        "repl.ship \"reseed site3\"",
        "net.backoff \"outage wait\"",
        "net.backoff \"lease wait\"",
        "repl.promote \"epoch2\"",
        "repl.ship \"heal site0\"",
    ] {
        assert!(p.out.contains(needle), "no {needle} in any tree");
    }
    p.out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/routed_trace.txt")
}

#[test]
fn routed_trees_match_the_recorded_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file missing");
    let now = record();
    if now != golden {
        let (line, (got, want)) = now
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map_or((0, ("<length differs>", "")), |(i, ab)| (i + 1, ab));
        panic!(
            "routed trees moved ({} vs {} lines); first difference at line {line}:\n  now:    {got}\n  golden: {want}",
            now.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
#[ignore = "re-records the golden file"]
fn record_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, record()).unwrap();
}
