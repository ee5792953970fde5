//! A simulation scene: particle systems, their action lists, and external
//! objects.

use std::sync::Arc;

use psa_core::actions::ActionList;
use psa_core::objects::ExternalObject;
use psa_core::{Emitter, SystemId, SystemSpec};
use psa_math::Vec3;

/// One particle system plus the per-frame action list run on it
/// (the body of the paper's Algorithm 1).
#[derive(Clone)]
pub struct SystemSetup {
    pub spec: SystemSpec,
    /// Shared by every calculator; actions are stateless.
    pub actions: Arc<ActionList>,
}

impl SystemSetup {
    pub fn new(spec: SystemSpec, actions: ActionList) -> Self {
        actions.validate().expect("action list violates the model's structural rules");
        SystemSetup { spec, actions: Arc::new(actions) }
    }
}

/// The full scene: systems in creation order (their vector index is the
/// system identifier, paper §3.1.3) plus external objects replicated on
/// every process.
#[derive(Clone, Default)]
pub struct Scene {
    pub systems: Vec<SystemSetup>,
    /// External objects with display colors (rendered by the image
    /// generator, collided against by calculators via actions).
    pub objects: Vec<(ExternalObject, Vec3)>,
}

impl Scene {
    pub fn new() -> Self {
        Scene::default()
    }

    /// Add a system; its [`SystemId`] is its creation index, which must
    /// match `spec.id` — the paper relies on identical creation order on
    /// every process.
    pub fn add_system(&mut self, setup: SystemSetup) -> SystemId {
        let id = SystemId(self.systems.len() as u16);
        assert_eq!(setup.spec.id, id, "system id must equal its creation-order index");
        self.systems.push(setup);
        id
    }

    /// Every system's emitter, in creation order: what an executor builds
    /// once per run and draws each frame's cohorts through.
    pub fn emitters(&self) -> Vec<Emitter> {
        self.systems.iter().map(|s| s.spec.emitter()).collect()
    }

    pub fn add_object(&mut self, obj: ExternalObject, color: Vec3) {
        self.objects.push((obj, color));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_core::actions::{Gravity, MoveParticles};

    fn setup(id: u16) -> SystemSetup {
        SystemSetup::new(
            SystemSpec::test_spec(id),
            ActionList::new().then(Gravity::earth()).then(MoveParticles),
        )
    }

    #[test]
    fn creation_order_assigns_ids() {
        let mut s = Scene::new();
        assert_eq!(s.add_system(setup(0)), SystemId(0));
        assert_eq!(s.add_system(setup(1)), SystemId(1));
        assert_eq!(s.systems.len(), 2);
    }

    #[test]
    #[should_panic(expected = "creation-order")]
    fn wrong_id_panics() {
        let mut s = Scene::new();
        s.add_system(setup(5));
    }

    #[test]
    #[should_panic(expected = "structural rules")]
    fn invalid_action_list_rejected() {
        let _ = SystemSetup::new(
            SystemSpec::test_spec(0),
            ActionList::new().then(MoveParticles).then(MoveParticles),
        );
    }
}
