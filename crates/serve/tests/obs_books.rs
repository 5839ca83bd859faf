//! The serve obs counters keep the same books as [`ServeStats`].
//!
//! A test binary of its own, so nothing else in the process records
//! `serve.*` counters: it turns obs on at `trace`, sends one burst that is
//! partly served and partly shed, and checks that `serve.submitted`,
//! `serve.completed` and `serve.shed` equal the service's own counts and
//! reconcile (`completed + shed == submitted`).
//!
//! [`ServeStats`]: bitrobust_serve::ServeStats

use std::sync::Arc;
use std::time::Duration;

use bitrobust_core::{build, ArchKind, NormKind};
use bitrobust_data::SynthDataset;
use bitrobust_obs::{ObsConfig, ObsLevel};
use bitrobust_serve::{InferenceService, ModelRegistry, ServeConfig, SubmitError};
use rand::SeedableRng;

#[test]
fn obs_counters_reconcile_with_serve_stats() {
    bitrobust_obs::init(&ObsConfig { level: ObsLevel::Trace, ..ObsConfig::off() });
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("mlp", build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model);
    let (_, test) = SynthDataset::Mnist.generate(0);

    // No wave can leave before shutdown (max_batch > capacity, a 30 s
    // window), so a burst of 10 admits exactly 4 and sheds 6.
    let config =
        ServeConfig { queue_capacity: 4, max_batch: 64, max_delay: Duration::from_secs(30) };
    let service = InferenceService::start(registry, config);
    let mut tickets = Vec::new();
    for i in 0..10 {
        match service.submit("mlp", test.batch(&[i]).0) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded) => {}
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    let stats = service.shutdown();
    for ticket in tickets {
        ticket.wait();
    }
    assert_eq!((stats.submitted, stats.completed, stats.shed), (10, 4, 6));

    let counters = bitrobust_obs::snapshot();
    let books = ["serve.submitted", "serve.completed", "serve.shed"].map(|n| counters.counter(n));
    assert_eq!(books, [stats.submitted, stats.completed, stats.shed]);
    assert_eq!(books[1] + books[2], books[0], "serve counters must reconcile");
}
