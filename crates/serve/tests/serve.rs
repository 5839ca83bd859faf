//! Integration suite for the inference service.
//!
//! The contract under test, end to end: every response is **byte-identical**
//! to the single-threaded [`reference_response`] of the (model, version) it
//! reports — under concurrent clients, micro-batching, a mid-traffic
//! hot-swap, and backpressure shedding — and no request is silently
//! dropped: once the service shuts down, `completed + shed == submitted`
//! and every issued ticket resolves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use bitrobust_core::{build, ArchKind, NormKind};
use bitrobust_data::{Dataset, SynthDataset};
use bitrobust_serve::{
    reference_response, InferenceService, ModelRegistry, ServeConfig, ServeResponse, ServedModel,
    SubmitError, Ticket,
};
use bitrobust_tensor::Tensor;
use rand::SeedableRng;

fn tiny_model(seed: u64) -> bitrobust_nn::Model {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model
}

fn test_images(n: usize) -> Vec<Tensor> {
    let (_, test): (_, Dataset) = SynthDataset::Mnist.generate(0);
    (0..n).map(|i| test.batch(&[i % test.len()]).0).collect()
}

fn assert_response_bits(actual: &ServeResponse, expected: &ServeResponse) {
    assert_eq!(actual.prediction, expected.prediction);
    assert_eq!(
        actual.confidence.to_bits(),
        expected.confidence.to_bits(),
        "confidence must be bit-identical to the serial reference"
    );
    assert_eq!(actual.model_key, expected.model_key);
    assert_eq!(actual.model_version, expected.model_version);
}

/// N concurrent clients, coalescing encouraged by a generous delay
/// window: every response must match the serial single-image reference
/// bit for bit.
#[test]
fn concurrent_clients_match_serial_reference() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("mlp", tiny_model(0));
    let reference_model = registry.get("mlp").unwrap();

    let config =
        ServeConfig { queue_capacity: 256, max_batch: 8, max_delay: Duration::from_millis(20) };
    let service = InferenceService::start(Arc::clone(&registry), config);
    let images = test_images(24);

    let responses: Vec<Vec<(usize, ServeResponse)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|client| {
                let service = &service;
                let images = &images;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for i in (client..images.len()).step_by(3) {
                        let response =
                            service.infer_blocking("mlp", images[i].clone()).expect("submit");
                        got.push((i, response));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut served = 0usize;
    for (i, response) in responses.into_iter().flatten() {
        let expected = reference_response(&reference_model, &images[i]);
        assert_response_bits(&response, &expected);
        served += 1;
    }
    assert_eq!(served, 24);

    let stats = service.shutdown();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.shed, 0);
}

/// Requests for different models coalesce in the same waves but must
/// never share a micro-batch — each response matches its own model's
/// reference.
#[test]
fn interleaved_models_never_cross_batches() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("a", tiny_model(0));
    registry.publish("b", tiny_model(1));
    let model_a = registry.get("a").unwrap();
    let model_b = registry.get("b").unwrap();

    let config =
        ServeConfig { queue_capacity: 64, max_batch: 8, max_delay: Duration::from_millis(20) };
    let service = InferenceService::start(Arc::clone(&registry), config);
    let images = test_images(10);

    let tickets: Vec<(usize, &Arc<ServedModel>, Ticket)> = images
        .iter()
        .enumerate()
        .map(|(i, image)| {
            let (key, model) = if i % 2 == 0 { ("a", &model_a) } else { ("b", &model_b) };
            (i, model, service.submit(key, image.clone()).expect("submit"))
        })
        .collect();
    for (i, model, ticket) in tickets {
        assert_response_bits(&ticket.wait(), &reference_response(model, &images[i]));
    }
    service.shutdown();
}

/// A hot-swap under live traffic: responses before the publish report v1,
/// after it v2, and during it either — but always byte-identical to the
/// reference of the version they report, and none lost.
#[test]
fn hot_swap_mid_traffic_serves_both_versions_consistently() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", tiny_model(0));
    let v1 = registry.get("m").unwrap();

    let config =
        ServeConfig { queue_capacity: 256, max_batch: 4, max_delay: Duration::from_millis(5) };
    let service = InferenceService::start(Arc::clone(&registry), config);
    let images = test_images(12);

    // Phase 1: pre-swap traffic must all be v1.
    for image in &images[..4] {
        let response = service.infer_blocking("m", image.clone()).expect("submit");
        assert_eq!(response.model_version, 1);
        assert_response_bits(&response, &reference_response(&v1, image));
    }

    // Phase 2: swap while clients are submitting. Each response must match
    // the reference of whichever version served it.
    let v2 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|client| {
                let service = &service;
                let images = &images;
                scope.spawn(move || {
                    (client..images.len())
                        .step_by(2)
                        .map(|i| {
                            (i, service.infer_blocking("m", images[i].clone()).expect("submit"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        registry.publish("m", tiny_model(7));
        let v2 = registry.get("m").unwrap();
        for (i, response) in clients.into_iter().flat_map(|h| h.join().expect("client")) {
            let version = match response.model_version {
                1 => &v1,
                2 => &v2,
                other => panic!("impossible version {other}"),
            };
            assert_response_bits(&response, &reference_response(version, &images[i]));
        }
        v2
    });

    // Phase 3: post-swap traffic must all be v2 — and v2 must actually
    // differ from v1 somewhere, or the swap test is vacuous.
    let mut any_differs = false;
    for image in &images[..4] {
        let response = service.infer_blocking("m", image.clone()).expect("submit");
        assert_eq!(response.model_version, 2);
        let expected = reference_response(&v2, image);
        assert_response_bits(&response, &expected);
        any_differs |=
            expected.confidence.to_bits() != reference_response(&v1, image).confidence.to_bits();
    }
    assert!(any_differs, "v2 must be observably different from v1");

    let stats = service.shutdown();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.shed, 0);
}

/// Deterministic backpressure: with a tiny queue and a wave window far
/// longer than the burst, a burst of `capacity + k` submissions sheds
/// exactly `k` — and the admitted requests are still served correctly.
#[test]
fn backpressure_sheds_exactly_beyond_capacity() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", tiny_model(0));
    let model = registry.get("m").unwrap();

    // max_batch > capacity, so the engine cannot release the wave before
    // the 1 s window — the whole burst races only the queue bound.
    let config =
        ServeConfig { queue_capacity: 4, max_batch: 64, max_delay: Duration::from_secs(1) };
    let service = InferenceService::start(Arc::clone(&registry), config);
    let images = test_images(7);

    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for image in &images {
        match service.submit("m", image.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded) => shed += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert_eq!(tickets.len(), 4, "exactly `capacity` admitted");
    assert_eq!(shed, 3, "exactly the overflow shed");

    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_response_bits(&ticket.wait(), &reference_response(&model, &images[i]));
    }
    let stats = service.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.shed), (7, 4, 3));
}

/// Shutdown with a backlog still inside its delay window: the backlog is
/// served (drained), not discarded — every ticket resolves.
#[test]
fn shutdown_drains_pending_requests() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", tiny_model(0));
    let model = registry.get("m").unwrap();

    let config =
        ServeConfig { queue_capacity: 64, max_batch: 64, max_delay: Duration::from_secs(30) };
    let service = InferenceService::start(Arc::clone(&registry), config);
    let images = test_images(5);
    let tickets: Vec<Ticket> =
        images.iter().map(|img| service.submit("m", img.clone()).expect("submit")).collect();

    let stats = service.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.shed), (5, 5, 0));
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_response_bits(&ticket.wait(), &reference_response(&model, &images[i]));
    }
}

/// Unknown keys are rejected before admission and never counted.
#[test]
fn unknown_model_is_rejected_at_submit() {
    let registry = Arc::new(ModelRegistry::new());
    let service = InferenceService::start(Arc::clone(&registry), ServeConfig::default());
    let image = test_images(1).pop().unwrap();
    assert_eq!(
        service.submit("nope", image).unwrap_err(),
        SubmitError::UnknownModel("nope".to_string())
    );
    let stats = service.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.shed), (0, 0, 0));
}

/// An image of the wrong shape kills the engine thread. The service must
/// then stop admitting work: a later request is refused, or its ticket
/// panics, and no `wait` blocks.
#[test]
fn dead_engine_stops_admitting_work() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("mlp", tiny_model(0));
    let service = InferenceService::start(registry, ServeConfig::default());
    let bad = service.submit("mlp", Tensor::zeros(&[1, 1, 10, 10])).expect("admitted");
    assert!(catch_unwind(AssertUnwindSafe(|| bad.wait())).is_err(), "the engine must die");

    // A request admitted before the dying engine has abandoned its queue
    // must see its ticket panic. Submit from a helper thread, so a ticket
    // that blocks fails this test on a deadline instead of hanging it.
    let image = test_images(1).pop().unwrap();
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let refused = loop {
            match service.submit("mlp", image.clone()) {
                Ok(ticket) => assert!(catch_unwind(AssertUnwindSafe(|| ticket.wait())).is_err()),
                Err(refused) => break refused,
            }
        };
        let _ = done.send((refused, service));
    });
    let (refused, service) = outcome
        .recv_timeout(Duration::from_secs(30))
        .expect("a request blocked on the dead engine");
    assert_eq!(refused, SubmitError::ShuttingDown);
    assert!(
        catch_unwind(AssertUnwindSafe(|| service.shutdown())).is_err(),
        "shutdown must report the engine's death"
    );
}
