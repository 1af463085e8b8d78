//! `stray-recorder`, retired from pdm-lint: an enabled recorder is one
//! action's observation context and is made only by the action's owner
//! (DESIGN.md §11). `pdm_obs::Recorder::new` is banned everywhere but that
//! one `#[expect]`ed site; a function's name no longer exempts it.

use pdm_obs::Recorder;

pub struct Cluster {
    pub obs: Recorder,
}

pub fn assemble() -> Cluster {
    Cluster {
        obs: Recorder::new(), //~ disallowed_methods
    }
}

impl Cluster {
    pub fn enable_profiling(&mut self) {
        self.obs = Recorder::new(); //~ disallowed_methods
    }
}
