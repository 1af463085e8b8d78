#![allow(clippy::unwrap_used)]
#![allow(unsafe_code)]

//! Allocation pin of the SQL front end: parsing a statement a session ships
//! allocates what the AST it returns is made of and nothing per token; a
//! server's cache miss on a known template allocates no AST at all, and its
//! run through the template's plan no plan node — only its result and a
//! constant.
//!
//! The counts repeat exactly (nothing here depends on time, hashing or
//! threads), so this is a test, not a benchmark. One `#[test]` only: the
//! allocator is process-wide and counts the thread that asked.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pdm_core::query::prepared::Shape;
use pdm_core::rules::{visibility_rules, ActionKind};
use pdm_obs::Recorder;
use pdm_sql::lexer::Lexer;
use pdm_sql::parser::parse_query;
use pdm_sql::template::Templates;
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

#[test]
fn a_parse_allocates_what_its_ast_holds() {
    let ids: Vec<i64> = (1..=24).collect();
    let mut table = String::new();
    for (rules_name, rules) in [
        ("visibility", visibility_rules()),
        ("paper", common::paper_rules()),
    ] {
        for (label, text) in common::nine_shape_texts(&rules, &ids) {
            // Lexing alone: nothing.
            let (tokens, lexing) = allocations(|| {
                let mut lexer = Lexer::new(&text);
                let mut n = 0;
                while lexer.next_token().unwrap().is_some() {
                    n += 1;
                }
                n
            });
            assert!(tokens > 10, "{label}: {tokens} tokens");
            assert_eq!(lexing, 0, "lexing {label} allocated");

            let (query, parsing) = allocations(|| parse_query(&text).unwrap());
            let (copy, copying) = allocations(|| query.clone());
            assert_eq!(query, copy);
            table += &format!(
                "{rules_name:>10} {label:<14} {:>5} bytes  parse {parsing:>4}  clone {copying:>4}\n",
                text.len()
            );
            assert!(
                parsing <= copying + 2,
                "parsing {label} under the {rules_name} rules made {parsing} allocations, \
                 a deep copy of its AST {copying}:\n{text}"
            );
        }
    }
    // `-- --nocapture` prints the table EXPERIMENTS.md quotes.
    println!("{table}");

    // A result-cache miss on the navigational expand whose template the
    // table already holds reads its text through the template instead of
    // a parse: it allocates the split's template text and its values, and
    // the result key (spliced into the template text's buffer, then shared)
    // — no AST node.
    // The id stands in both branches of the UNION: two values.
    let expand = |id| {
        let rules = visibility_rules();
        common::shape_text(Shape::Expand, ActionKind::Expand, &[id], "link", &rules)
    };
    let templates = Templates::default();
    templates.resolve(&expand(17)).unwrap();
    for id in [18, 4_242, 1] {
        let text = expand(id);
        let (resolved, missing) = allocations(|| templates.resolve(&text).unwrap());
        assert_eq!(*resolved.key, text);
        assert_eq!(resolved.values.len(), 2, "{text}");
        assert_eq!(
            missing, 3,
            "a miss on the expand of {id} made {missing} allocations"
        );
    }
    assert_eq!(templates.len(), 1);

    // The miss then runs the template's plan, compiled once, with the
    // values bound: it allocates what its result holds — the row vector,
    // each row's values, each non-empty text — and a constant for the
    // operators' scratch: the run's table slots, one frame per SELECT, per
    // SELECT the scanned link rows and the joined pairs, the rows one of
    // them projects, and the UNION's dedup set. No plan node.
    let spec = TreeSpec::new(3, 3, 0.8).with_node_size(64);
    let (db, _) = build_database(&spec).unwrap();
    let disabled = Recorder::disabled();
    let first = templates.resolve(&expand(2)).unwrap();
    first
        .template
        .run(&db.catalog, &db.config, &first.values, &disabled)
        .unwrap();
    // Three assemblies: three sub-assemblies, two components, three.
    for (id, rows, total) in [(4, 3, 25), (8, 2, 20), (9, 3, 25)] {
        let resolved = templates.resolve(&expand(id)).unwrap();
        let run = || {
            let (rs, _) = (resolved.template)
                .run(&db.catalog, &db.config, &resolved.values, &disabled)
                .unwrap();
            rs
        };
        let (rs, running) = allocations(run);
        let (_, held) = allocations(|| rs.rows.clone());
        assert_eq!(rs.len(), rows, "expand of {id}");
        assert_eq!(
            (running, running - held),
            (total, 9),
            "the expand of {id} allocated {running}, its result holds {held}"
        );
        assert_eq!(allocations(run).1, running, "a second run of {id}");
    }
}
