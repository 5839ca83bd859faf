//! The inference service: submit → queue → micro-batch → scheduler →
//! respond.
//!
//! [`InferenceService::start`] spawns one engine thread. Clients
//! [`submit`](InferenceService::submit) single-image requests and get a
//! [`Ticket`] to [`wait`](Ticket::wait) on; the engine collects request
//! waves from the bounded queue, coalesces them into per-(model, shape)
//! micro-batches, fans the batches out through the shared campaign
//! [`scheduler`], and delivers responses in wave order. Each response is
//! byte-identical to [`reference_response`]
//! on the same image and model — batching and scheduling never change
//! bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bitrobust_core::scheduler;
use bitrobust_nn::{Mode, Model};
use bitrobust_tensor::{softmax_rows, Tensor};

use crate::batcher::coalesce;
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{ModelRegistry, ServedModel};

/// Tunables for one [`InferenceService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission limit: pending requests beyond this are shed with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Micro-batch size cap, and the pending count that releases a wave
    /// before its delay window closes.
    pub max_batch: usize,
    /// How long the engine holds a wave open past its oldest pending
    /// request, waiting for traffic to coalesce. The latency floor under
    /// light load; irrelevant under saturation.
    pub max_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_capacity: 1024, max_batch: 32, max_delay: Duration::from_millis(2) }
    }
}

/// One served prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Argmax class index.
    pub prediction: usize,
    /// Softmax probability of the predicted class.
    pub confidence: f32,
    /// Registry key of the model that served the request.
    pub model_key: String,
    /// Version of that model at submit time — under a hot-swap, the
    /// version the response's bytes are accountable to.
    pub model_version: u64,
}

/// Why a submission was rejected. Rejected requests never enter the
/// queue; [`Overloaded`](SubmitError::Overloaded) and
/// [`ShuttingDown`](SubmitError::ShuttingDown) count as shed in
/// [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No model is published under the requested key.
    UnknownModel(String),
    /// The queue is at capacity (backpressure).
    Overloaded,
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel(key) => write!(f, "no model published under key {key:?}"),
            Self::Overloaded => write!(f, "request queue is full"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Cumulative counters plus live gauges. `completed + shed == submitted`
/// once the service has shut down: every admitted request is served,
/// every rejected one is counted — none vanish. The gauges
/// (`queue_depth`, `in_flight`, `versions`) are instantaneous reads — by
/// the time the caller looks, the live service may have moved on; after
/// shutdown they are final (`queue_depth == 0`, `in_flight == 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that passed model resolution (admitted + shed).
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Requests rejected by admission control or shutdown.
    pub shed: u64,
    /// Requests currently queued, awaiting a wave.
    pub queue_depth: u64,
    /// Requests drained into the engine's current wave and not yet
    /// responded to.
    pub in_flight: u64,
    /// `(key, version)` per published model, sorted by key.
    pub versions: Vec<(String, u64)>,
}

/// A pending response; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<ServeResponse>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Panics
    ///
    /// Panics if the engine thread died without responding: it panicked
    /// (e.g. on an image whose shape doesn't fit the model) while this
    /// request was in its wave or still queued. The service otherwise
    /// always responds, even to requests drained at shutdown.
    pub fn wait(self) -> ServeResponse {
        self.rx.recv().expect("serve engine dropped a request without responding")
    }
}

/// One queued request: the model resolved at submit time (hot-swap
/// boundary), the single-sample image, the response channel, and the
/// admission timestamp (obs latency breakdown only — never read into the
/// response bytes).
struct PendingRequest {
    model: Arc<ServedModel>,
    image: Tensor,
    tx: mpsc::Sender<ServeResponse>,
    submitted: Instant,
}

/// The running service. Dropping it (or calling
/// [`shutdown`](InferenceService::shutdown)) closes the queue, drains and
/// serves the backlog, and joins the engine thread.
pub struct InferenceService {
    registry: Arc<ModelRegistry>,
    queue: Arc<BoundedQueue<PendingRequest>>,
    submitted: AtomicU64,
    completed: Arc<AtomicU64>,
    in_flight: Arc<AtomicU64>,
    engine: Option<std::thread::JoinHandle<()>>,
}

impl InferenceService {
    /// Starts the engine thread over `registry` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if the config's capacity or batch size is 0, or the engine
    /// thread cannot be spawned.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let completed = Arc::new(AtomicU64::new(0));
        let in_flight = Arc::new(AtomicU64::new(0));
        let engine = {
            let queue = Arc::clone(&queue);
            let completed = Arc::clone(&completed);
            let in_flight = Arc::clone(&in_flight);
            std::thread::Builder::new()
                .name("bitrobust-serve-engine".into())
                .spawn(move || {
                    let _abandon = AbandonOnExit(&queue);
                    while let Some(wave) = queue.wait_wave(config.max_batch, config.max_delay) {
                        bitrobust_obs::gauge_set("serve.queue_depth", queue.len() as u64);
                        serve_wave(wave, config.max_batch, &completed, &in_flight);
                    }
                })
                .expect("spawn serve engine thread")
        };
        Self {
            registry,
            queue,
            submitted: AtomicU64::new(0),
            completed,
            in_flight,
            engine: Some(engine),
        }
    }

    /// The registry this service resolves models from. Publishing to it
    /// while the service runs is the hot-swap path.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Submits one single-sample image (`[1, ...]`) for classification by
    /// the current version of `key`'s model. Returns a [`Ticket`] for the
    /// response, or the rejection ([`SubmitError`]).
    ///
    /// # Panics
    ///
    /// Panics if `image` is not a single-sample batch (leading dim 1).
    pub fn submit(&self, key: &str, image: Tensor) -> Result<Ticket, SubmitError> {
        let model =
            self.registry.get(key).ok_or_else(|| SubmitError::UnknownModel(key.to_string()))?;
        assert!(
            image.ndim() >= 2 && image.dim(0) == 1,
            "image must be a single-sample batch [1, ...], got {:?}",
            image.shape()
        );
        self.submitted.fetch_add(1, Ordering::Relaxed);
        bitrobust_obs::counter_add("serve.submitted", 1);
        let (tx, rx) = mpsc::channel();
        let request = PendingRequest { model, image, tx, submitted: Instant::now() };
        match self.queue.push(request) {
            Ok(()) => Ok(Ticket { rx }),
            Err(PushError::Full) => {
                bitrobust_obs::counter_add("serve.shed", 1);
                Err(SubmitError::Overloaded)
            }
            Err(PushError::Closed) => {
                bitrobust_obs::counter_add("serve.shed", 1);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// [`submit`](InferenceService::submit) and wait for the response.
    pub fn infer_blocking(&self, key: &str, image: Tensor) -> Result<ServeResponse, SubmitError> {
        self.submit(key, image).map(Ticket::wait)
    }

    /// Current counters and live gauges; see [`ServeStats`].
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.queue.shed_count(),
            queue_depth: self.queue.len() as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            versions: self.registry.versions(),
        }
    }

    /// Stops admission, serves every still-queued request, joins the
    /// engine, and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.queue.close();
        if let Some(engine) = self.engine.take() {
            engine.join().expect("serve engine thread panicked");
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Owned by the engine thread. When the engine exits, including by a
/// panic, it [abandons](BoundedQueue::abandon) the queue: later
/// submissions are refused with [`SubmitError::ShuttingDown`], and the
/// queued requests are dropped, so their [`Ticket::wait`] panics instead
/// of blocking on an engine that is gone. After a normal exit the queue is
/// already closed and empty.
struct AbandonOnExit<'a>(&'a BoundedQueue<PendingRequest>);

impl Drop for AbandonOnExit<'_> {
    fn drop(&mut self) {
        self.0.abandon();
    }
}

/// Serves one drained wave: coalesce, execute every micro-batch through
/// the shared scheduler, then deliver responses serially in wave order —
/// the same per-slot-write / serial-delivery discipline as the campaign
/// engine.
fn serve_wave(
    wave: Vec<PendingRequest>,
    max_batch: usize,
    completed: &AtomicU64,
    in_flight: &AtomicU64,
) {
    bitrobust_obs::span!("serve.wave");
    bitrobust_obs::record("serve.wave_size", wave.len() as u64);
    in_flight.fetch_add(wave.len() as u64, Ordering::Relaxed);
    // Enqueue→dispatch latency: how long each request sat in the queue
    // before its wave was drained.
    if bitrobust_obs::enabled() {
        let dispatched = Instant::now();
        for request in &wave {
            let wait = dispatched.saturating_duration_since(request.submitted);
            bitrobust_obs::record("serve.queue_wait_ns", wait.as_nanos() as u64);
        }
    }
    let batches = coalesce(
        wave.len(),
        |i| {
            let request = &wave[i];
            (
                request.model.key().to_string(),
                request.model.version(),
                request.image.shape().to_vec(),
            )
        },
        max_batch,
    );
    for batch in &batches {
        bitrobust_obs::record("serve.batch_size", batch.len() as u64);
    }
    // Execution inputs only — `Sync` model/tensor data. The response
    // channels stay outside the scheduler closure and are drained serially
    // below, in wave order.
    let inputs: Vec<(&Model, Tensor)> = batches
        .iter()
        .map(|batch| {
            let first = &wave[batch[0]].image;
            let mut shape = first.shape().to_vec();
            shape[0] = batch.len();
            let mut data = Vec::with_capacity(first.numel() * batch.len());
            for &i in batch {
                data.extend_from_slice(wave[i].image.data());
            }
            (wave[batch[0]].model.model(), Tensor::from_vec(shape, data))
        })
        .collect();
    let outputs = scheduler::execute(inputs.len(), 1, |b, _| {
        let (model, x) = &inputs[b];
        classify(model, x)
    });

    let mut responses: Vec<Option<(usize, f32)>> = vec![None; wave.len()];
    for (batch, rows) in batches.iter().zip(&outputs) {
        for (&i, &row) in batch.iter().zip(rows) {
            responses[i] = Some(row);
        }
    }
    for (request, response) in wave.iter().zip(responses) {
        let (prediction, confidence) = response.expect("every wave slot served exactly once");
        // A send error means the client dropped its ticket; the request
        // was still served, so it counts as completed.
        let _ = request.tx.send(ServeResponse {
            prediction,
            confidence,
            model_key: request.model.key().to_string(),
            model_version: request.model.version(),
        });
        completed.fetch_add(1, Ordering::Relaxed);
        in_flight.fetch_sub(1, Ordering::Relaxed);
        bitrobust_obs::counter_add("serve.completed", 1);
        if bitrobust_obs::enabled() {
            bitrobust_obs::record("serve.total_ns", request.submitted.elapsed().as_nanos() as u64);
        }
    }
}

/// Classifies a batch: per-row argmax class and its softmax probability.
fn classify(model: &Model, x: &Tensor) -> Vec<(usize, f32)> {
    let probs = softmax_rows(&model.infer(x, Mode::Eval));
    let preds = probs.argmax_rows();
    preds.iter().enumerate().map(|(row, &pred)| (pred, probs.row(row)[pred])).collect()
}

/// The single-request reference the service is pinned against: classify
/// `image` alone, no queueing, no batching. Every [`ServeResponse`] must
/// be byte-identical to this for the (model, version) it reports.
pub fn reference_response(model: &ServedModel, image: &Tensor) -> ServeResponse {
    assert!(
        image.ndim() >= 2 && image.dim(0) == 1,
        "image must be a single-sample batch [1, ...], got {:?}",
        image.shape()
    );
    let rows = classify(model.model(), image);
    let (prediction, confidence) = rows[0];
    ServeResponse {
        prediction,
        confidence,
        model_key: model.key().to_string(),
        model_version: model.version(),
    }
}
