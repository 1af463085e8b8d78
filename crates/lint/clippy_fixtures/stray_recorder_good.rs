//! Twin of `stray_recorder_bad.rs`: the cluster is handed the owner's
//! recorder, or a disabled one.

use pdm_obs::Recorder;

pub struct Cluster {
    pub obs: Recorder,
}

pub fn assemble(obs: &Recorder) -> Cluster {
    Cluster { obs: obs.clone() }
}

pub fn quiet() -> Cluster {
    Cluster {
        obs: Recorder::disabled(),
    }
}
