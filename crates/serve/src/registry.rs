//! The model registry: named, versioned models behind `Arc` swaps.
//!
//! Keys are free-form strings; by convention the zoo's `ZooSpec::key()`
//! (or a quantization scheme's `QuantScheme::key()` suffix) so serving,
//! caching, and sweep plans all agree on what a model is called.
//! [`ModelRegistry::publish`] replaces the `Arc` for a key and bumps that
//! key's version — in-flight requests keep the [`ServedModel`] they
//! resolved at submit time, which is what makes a publish under live
//! traffic a zero-downtime hot-swap.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use bitrobust_nn::Model;

/// One published model: its registry key, a per-key monotonically
/// increasing version, and the model itself. Shared immutably (`Arc`)
/// between the registry, queued requests, and the engine.
#[derive(Debug)]
pub struct ServedModel {
    key: String,
    version: u64,
    model: Model,
}

impl ServedModel {
    /// The registry key this model was published under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The per-key publish version (1 for the first publish of a key).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The model itself.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

/// A concurrent map of key → current [`ServedModel`].
///
/// Reads ([`ModelRegistry::get`]) take a shared lock and clone an `Arc`;
/// writes ([`ModelRegistry::publish`]) swap the `Arc`. Neither blocks
/// in-flight inference, which holds its own `Arc` clones.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ServedModel>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `model` under `key`, replacing any previous version, and
    /// returns the new version number (the previous version plus one, or
    /// 1 for a fresh key). Requests that already resolved the old version
    /// are served by it; subsequent submissions resolve the new one.
    pub fn publish(&self, key: impl Into<String>, model: Model) -> u64 {
        let key = key.into();
        let mut models = self.models.write().expect("registry lock poisoned");
        let version = models.get(&key).map_or(1, |m| m.version + 1);
        models.insert(key.clone(), Arc::new(ServedModel { key, version, model }));
        version
    }

    /// The current model for `key`, if one has been published.
    pub fn get(&self, key: &str) -> Option<Arc<ServedModel>> {
        self.models.read().expect("registry lock poisoned").get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitrobust_nn::Sequential;

    fn empty_model(name: &str) -> Model {
        Model::new(name, Sequential::new())
    }

    #[test]
    fn publish_bumps_version_per_key() {
        let registry = ModelRegistry::new();
        assert!(registry.get("a").is_none());
        assert_eq!(registry.publish("a", empty_model("a1")), 1);
        assert_eq!(registry.publish("b", empty_model("b1")), 1);
        assert_eq!(registry.publish("a", empty_model("a2")), 2);

        let a = registry.get("a").expect("a is published");
        assert_eq!((a.key(), a.version()), ("a", 2));
        assert_eq!(a.model().name(), "a2");
        let b = registry.get("b").expect("b is published");
        assert_eq!((b.key(), b.version()), ("b", 1));
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn old_version_survives_swap_through_held_arcs() {
        let registry = ModelRegistry::new();
        registry.publish("m", empty_model("v1"));
        let v1 = registry.get("m").unwrap();
        registry.publish("m", empty_model("v2"));
        assert_eq!(v1.model().name(), "v1", "held Arc must keep serving the old version");
        assert_eq!(registry.get("m").unwrap().model().name(), "v2");
    }
}
