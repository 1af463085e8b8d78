//! Post-generation query audit hook.
//!
//! Static analysis of generated SQL lives in the `pdm-analyze` crate, which
//! depends on this one — so the generators here cannot call the analyzer
//! directly. Instead every query builder and the query modificator pass
//! their finished AST through [`audit`], which forwards to any hooks
//! registered at runtime. `pdm-analyze` installs a hook that runs its
//! generation-time checks (name resolution, recursive-CTE safety) and
//! panics on an error diagnostic, so in debug builds every query built by
//! tests and benches is analyzed the moment it exists.
//!
//! In release builds [`audit`] compiles to a no-op branch; without an
//! installed hook it is a single atomic load.

use std::sync::{OnceLock, RwLock};

use pdm_sql::ast::Query;

type Hook = Box<dyn Fn(&Query) + Send + Sync>;

static HOOKS: OnceLock<RwLock<Vec<Hook>>> = OnceLock::new();

/// Register a hook to run over every generated (or modified) query in
/// debug builds. Hooks stay installed for the lifetime of the process.
pub fn install_audit_hook(hook: impl Fn(&Query) + Send + Sync + 'static) {
    HOOKS
        .get_or_init(|| RwLock::new(Vec::new()))
        .write()
        .expect("query audit hook registry poisoned")
        .push(Box::new(hook));
}

/// Run every installed audit hook over `query` (debug builds only).
pub fn audit(query: &Query) {
    if cfg!(debug_assertions) {
        if let Some(hooks) = HOOKS.get() {
            for hook in hooks
                .read()
                .expect("query audit hook registry poisoned")
                .iter()
            {
                hook(query);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CALLS: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn installed_hook_sees_generated_queries() {
        install_audit_hook(|_| {
            CALLS.fetch_add(1, Ordering::SeqCst);
        });
        let before = CALLS.load(Ordering::SeqCst);
        let _q = crate::query::navigational::expand_query(1);
        // The hook observes the build in debug builds, and only there.
        assert_eq!(
            CALLS.load(Ordering::SeqCst) > before,
            cfg!(debug_assertions)
        );
    }
}
