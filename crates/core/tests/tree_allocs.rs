#![allow(clippy::unwrap_used)]
#![allow(unsafe_code)]

//! Allocation pin of tree assembly: an expanded tree keeps the server's
//! rows, so a returned node costs its tree slot and its share of the
//! statement that shipped it, not an attribute map. The map is built when
//! a node is first read, and a reader of ids and types (check-in) builds
//! none.
//!
//! The counts repeat exactly (every statement is a result-cache hit on a
//! warm session; nothing here depends on time or threads), so this is a
//! test, not a benchmark. One `#[test]` only: the allocator is
//! process-wide and counts the thread that asked. `-- --nocapture` prints
//! allocations per node for each case.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pdm_core::rules::visibility_rules;
use pdm_core::{ProductTree, Session, SessionConfig, Strategy};
use pdm_net::LinkProfile;
use pdm_workload::{build_database, TreeSpec};

thread_local! {
    /// `Some(n)` while the calling thread is counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a thread-local counter, which does not
// allocate (a `const`-initialised `Cell` of a `Copy` value).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (growth in place included) the calling thread makes in `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap();
    (out, n)
}

fn session(strategy: Strategy) -> Session {
    let (db, _) = build_database(&TreeSpec::new(7, 4, 0.9)).unwrap();
    Session::new(
        db,
        SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
        visibility_rules(),
    )
}

/// A visible sub-assembly of level 3, the roots a navigational workload
/// expands: the first child of the first child of the root's first child.
fn level_3_root(s: &mut Session) -> i64 {
    (0..3).fold(1, |parent, _| {
        let tree = s.single_level_expand(parent).unwrap().tree;
        tree.children(parent)[0]
    })
}

/// Allocations per returned node of a warm `expand`, and the tree.
fn warm_expand(
    label: &str,
    s: &mut Session,
    expand: impl Fn(&mut Session) -> ProductTree,
) -> (ProductTree, f64) {
    expand(s);
    let (tree, n) = allocations(|| expand(s));
    let returned = tree.len() - 1;
    assert!(returned > 100, "{label}: {returned} nodes");
    let per_node = n as f64 / returned as f64;
    println!("{label}: {n} allocations for {returned} nodes = {per_node:.2} per node");
    (tree, per_node)
}

/// Allocations per node of reading every node of `tree` once.
fn read_all(label: &str, tree: &ProductTree) -> f64 {
    let (names, n) = allocations(|| tree.nodes().map(|node| node.name.len()).sum::<usize>());
    assert!(names > 0);
    let per_node = n as f64 / tree.len() as f64;
    println!("{label}: reading every node: {n} allocations = {per_node:.2} per node");
    per_node
}

#[test]
fn an_expanded_tree_builds_a_node_only_when_it_is_read() {
    let mut early = session(Strategy::EarlyEval);
    let root = level_3_root(&mut early);
    let (tree, per_node) = warm_expand("early eval expand", &mut early, |s| {
        s.multi_level_expand(root).unwrap().tree
    });
    assert!(per_node <= 6.0, "early eval expand: {per_node:.2} per node");
    let read = read_all("early eval", &tree);
    assert!(read >= 11.0, "early eval read: {read:.2} per node");

    let mut recursive = session(Strategy::Recursive);
    let (tree, per_node) = warm_expand("recursive expand", &mut recursive, |s| {
        s.multi_level_expand(root).unwrap().tree
    });
    assert!(per_node <= 1.0, "recursive expand: {per_node:.2} per node");
    let read = read_all("recursive", &tree);
    assert!(read >= 11.0, "recursive read: {read:.2} per node");

    // Check-in splits the tree by type from its rows: the first non-root
    // node is still unbuilt afterwards, so reading it builds its map.
    let tree = recursive
        .check_out_function_shipping(root)
        .unwrap()
        .tree
        .unwrap();
    assert_eq!(recursive.check_in(&tree).unwrap(), tree.len());
    let first = tree.node_ids().find(|&id| id != root).unwrap();
    let (node, n) = allocations(|| tree.node(first).map(|node| node.attrs.len()));
    println!("first non-root node read after check-in: {n} allocations");
    assert!(node.is_some_and(|keys| keys > 0));
    assert!(n >= 11, "reading node {first} after check-in allocated {n}");
}
