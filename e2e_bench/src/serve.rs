//! `serve_open_loop`: `InferenceService` under a fixed ladder of offered
//! rates.
//!
//! One generator thread submits single test images on a fixed schedule
//! (open loop: a slow service does not slow the generator). One collector
//! thread redeems tickets in submission order and times each request from
//! when it was *due*, so a stall also charges the requests queued behind
//! it. Each stage drains before the next starts.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use bitrobust_data::Dataset;
use bitrobust_obs::snapshot;
use bitrobust_serve::{
    reference_response, InferenceService, ModelRegistry, ServeConfig, ServeResponse, ServeStats,
    ServedModel, Ticket,
};
use bitrobust_tensor::Tensor;

use crate::obsdelta::Delta;
use crate::procfs::CpuMeter;
use crate::train::{datasets, simplenet};
use crate::{layers, stats, timed_setup, Checks, E2e, Metric, Opts, Traced};

/// Registry key of the served model.
pub const KEY: &str = "simplenet-gn";

/// The service configuration under test.
pub const CONFIG: ServeConfig =
    ServeConfig { queue_capacity: 1024, max_batch: 32, max_delay: Duration::from_millis(2) };

/// Open-loop rate ladder: `(stage, requests/s, share of the run's
/// seconds)`. `low`, `mid`, and `high` sit below the knee and report
/// latency; the rungs above it only decide `serve_max_rate_rps`.
pub const LADDER: [(&str, f64, f64); 5] = [
    ("low", 500.0, 0.2),
    ("mid", 1500.0, 0.2),
    ("high", 2000.0, 0.15),
    ("r2500", 2500.0, 0.075),
    ("r3000", 3000.0, 0.075),
];

/// The closed-loop `capacity` stage keeps this many requests outstanding
/// (four full batches), so the engine always has a full batch waiting.
pub const CAPACITY_WINDOW: usize = 4 * CONFIG.max_batch;

/// Share of the run's seconds the capacity stage lasts.
pub const CAPACITY_SHARE: f64 = 0.2;

/// Stages whose latency is reported and whose shed requests count as
/// failures.
pub const MEASURED: [&str; 3] = ["low", "mid", "high"];

/// The p99 latency a rung must meet to count toward
/// `serve_max_rate_rps`.
pub const P99_LIMIT_MS: f64 = 25.0;

/// A latency quantile of a stage is invalid when the generator's lateness
/// at the same quantile exceeds this: that share of the requests went out
/// so late that their latency would describe the generator. On a shared
/// 2-vCPU host the generator's p99 lateness often exceeds it while its
/// p50 stays far below.
pub const GEN_LATE_LIMIT_MS: f64 = 2.0;

/// A rung has a growing backlog when more than this many requests are
/// still queued when its last request is sent.
pub const BACKLOG_LIMIT: u64 = CONFIG.max_batch as u64;

/// Every this-many-th request's response is checked against
/// `reference_response`.
pub const SAMPLE_EVERY: usize = 97;

/// Runs per measured stage while its p50 is invalid; the last attempt is
/// kept.
pub const STAGE_ATTEMPTS: usize = 3;

/// How long the books check waits for the engine to catch up with the
/// responses the collector already holds.
pub const SETTLE_DEADLINE: Duration = Duration::from_secs(2);

/// The running service and its request images.
pub struct Setup {
    test: Dataset,
    images: Vec<Tensor>,
    service: InferenceService,
    served: Arc<ServedModel>,
}

impl Setup {
    /// Builds the model and request images, starts the service, and warms
    /// it with one full batch.
    pub fn new(opts: &Opts) -> Self {
        let (_, test) = datasets(opts.seed, 0, opts.size().test_examples);
        let images = (0..test.len()).map(|i| test.batch_range(i, i + 1).0).collect::<Vec<_>>();
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(KEY, simplenet(opts.seed ^ 0x05E7_7E00));
        let served = registry.get(KEY).expect("the model was just published");
        let service = InferenceService::start(registry, CONFIG);
        let warm: Vec<Ticket> = images
            .iter()
            .take(CONFIG.max_batch)
            .map(|x| service.submit(KEY, x.clone()).expect("warm-up request admitted"))
            .collect();
        for ticket in warm {
            ticket.wait();
        }
        Self { test, images, service, served }
    }
}

/// What one stage measured.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    /// Stage name.
    pub name: &'static str,
    /// Offered rate.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests shed at submit.
    pub shed: usize,
    /// Per-request latency from due time to response, ms.
    pub latency_ms: Vec<f64>,
    /// Generator lateness per request, ms.
    pub late_ms: Vec<f64>,
    /// Time inside `submit` per request, µs.
    pub submit_us: Vec<f64>,
    /// Queue depth when the last request was sent.
    pub queue_depth: u64,
    /// Responses per second delivered while the stage was sending.
    pub delivered_per_s: f64,
    /// Responses whose prediction missed the image's label.
    pub wrong: usize,
    /// Sampled `(image index, response)` pairs for the reference check.
    pub samples: Vec<(usize, ServeResponse)>,
}

impl Stage {
    /// Whether the latency quantile `q` is valid: the generator's
    /// lateness at `q` is within [`GEN_LATE_LIMIT_MS`].
    pub fn valid_at(&self, q: f64) -> bool {
        stats::quantile(&self.late_ms, q) <= GEN_LATE_LIMIT_MS
    }

    /// Latency quantile in ms.
    pub fn latency(&self, q: f64) -> f64 {
        stats::quantile(&self.latency_ms, q)
    }

    /// Whether the stage meets the max-rate criteria: a valid p99 within
    /// the limit, nothing shed, and no growing backlog.
    pub fn sustained(&self) -> bool {
        self.valid_at(0.99)
            && self.shed == 0
            && self.latency(0.99) <= P99_LIMIT_MS
            && self.queue_depth <= BACKLOG_LIMIT
    }
}

/// How a stage offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop: one request every `1 / rate` seconds, whatever the
    /// service does.
    Open(f64),
    /// Closed loop: keep this many requests outstanding.
    Closed(usize),
}

/// Offers `load` for `seconds`, then waits for every response.
pub fn run_stage(s: &Setup, name: &'static str, load: Load, seconds: f64) -> Stage {
    let rate = match load {
        Load::Open(rate) => rate,
        Load::Closed(_) => 0.0,
    };
    let mut stage = Stage { name, rate, ..Stage::default() };
    let (tx, rx) = mpsc::channel::<(usize, Instant, Option<Ticket>)>();
    // Closed loop: the generator takes a slot before each submit and the
    // collector frees it after each response.
    let window = match load {
        Load::Open(_) => 0,
        Load::Closed(window) => window,
    };
    let (slot_tx, slot_rx) = mpsc::sync_channel::<()>(window);
    let labels = s.test.labels();
    thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latency_ms = Vec::new();
            let mut delivered = Vec::new();
            let mut samples = Vec::new();
            let (mut wrong, mut shed) = (0, 0);
            for (i, due, ticket) in rx {
                if let Some(ticket) = ticket {
                    let response = ticket.wait();
                    let now = Instant::now();
                    latency_ms.push(1e3 * now.saturating_duration_since(due).as_secs_f64());
                    delivered.push(now);
                    let image = i % labels.len();
                    wrong += usize::from(response.prediction != labels[image]);
                    if i % SAMPLE_EVERY == 0 {
                        samples.push((image, response));
                    }
                } else {
                    shed += 1;
                }
                if window > 0 {
                    slot_rx.recv().expect("the generator took a slot for every request");
                }
            }
            (latency_ms, delivered, samples, wrong, shed)
        });

        let start = Instant::now() + Duration::from_millis(1);
        let n = match load {
            Load::Open(rate) => ((rate * seconds).round() as usize).max(1),
            Load::Closed(_) => usize::MAX,
        };
        let mut i = 0;
        while i < n {
            let due = match load {
                Load::Open(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                Load::Closed(_) => {
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    slot_tx.send(()).expect("the collector frees slots until the end");
                    Instant::now()
                }
            };
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let sent_at = Instant::now();
            stage.late_ms.push(1e3 * sent_at.saturating_duration_since(due).as_secs_f64());
            let ticket = s.service.submit(KEY, s.images[i % s.images.len()].clone()).ok();
            stage.submit_us.push(1e6 * sent_at.elapsed().as_secs_f64());
            tx.send((i, due, ticket)).expect("the collector runs until the sender drops");
            i += 1;
        }
        let end = Instant::now();
        stage.sent = i;
        stage.queue_depth = s.service.stats().queue_depth;
        drop(tx);
        let (latency_ms, delivered, samples, wrong, shed) =
            collector.join().expect("collector thread panicked");
        let in_window = delivered.iter().filter(|&&t| t >= start && t <= end).count();
        stage.delivered_per_s = in_window as f64 / end.duration_since(start).as_secs_f64();
        stage.latency_ms = latency_ms;
        stage.samples = samples;
        stage.wrong = wrong;
        stage.shed = shed;
    });
    stage
}

/// Runs the whole ladder, then the capacity stage. A measured stage whose
/// p50 is invalid is run again, up to [`STAGE_ATTEMPTS`] times.
/// `on_stage` sees each kept stage right after it drained.
pub fn run_ladder(s: &Setup, opts: &Opts, mut on_stage: impl FnMut(&Stage)) -> Vec<Stage> {
    let scale = opts.size().rate_scale;
    let mut stages = Vec::new();
    for (name, rate, share) in LADDER {
        let mut stage = run_stage(s, name, Load::Open(rate * scale), share * opts.seconds);
        for _ in 1..STAGE_ATTEMPTS {
            if stage.valid_at(0.5) || !MEASURED.contains(&name) {
                break;
            }
            stage = run_stage(s, name, Load::Open(rate * scale), share * opts.seconds);
        }
        on_stage(&stage);
        stages.push(stage);
    }
    let capacity =
        run_stage(s, "capacity", Load::Closed(CAPACITY_WINDOW), CAPACITY_SHARE * opts.seconds);
    on_stage(&capacity);
    stages.push(capacity);
    stages
}

fn stage<'a>(stages: &'a [Stage], name: &str) -> &'a Stage {
    stages.iter().find(|st| st.name == name).expect("every ladder stage runs")
}

/// The highest open-loop rung that sustained its offered rate.
pub fn max_rate(stages: &[Stage]) -> f64 {
    stages.iter().filter(|st| st.rate > 0.0 && st.sustained()).map(|st| st.rate).fold(0.0, f64::max)
}

fn balanced(books: &ServeStats) -> bool {
    books.completed + books.shed == books.submitted
        && books.queue_depth == 0
        && books.in_flight == 0
}

/// The service's books once they balance, or the last read after
/// [`SETTLE_DEADLINE`]. The engine sends each response before it counts
/// it completed, so a read right after the last response arrived can be
/// a count behind.
fn settled_stats(service: &InferenceService) -> ServeStats {
    let deadline = Instant::now() + SETTLE_DEADLINE;
    loop {
        let books = service.stats();
        if balanced(&books) || Instant::now() >= deadline {
            return books;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Output checks: nothing shed in the measured stages, sampled responses
/// equal to the single-request reference, and the service's books
/// balanced once the engine has settled. A late generator is not a failed
/// output; [`run_e2e`] leaves the invalid latencies out.
fn check(s: &Setup, stages: &[Stage], checks: &mut Checks) {
    for name in MEASURED {
        let st = stage(stages, name);
        checks.count(st.sent as u64, st.shed as u64, || {
            format!("serve {name}: {} of {} requests shed", st.shed, st.sent)
        });
    }
    for st in stages {
        for (image, response) in &st.samples {
            let reference = reference_response(&s.served, &s.images[*image]);
            checks.check(
                reference.prediction == response.prediction
                    && reference.confidence.to_bits() == response.confidence.to_bits()
                    && reference.model_key == response.model_key
                    && reference.model_version == response.model_version,
                || format!("serve {}: response {response:?} != reference {reference:?}", st.name),
            );
        }
    }
    let books = settled_stats(&s.service);
    checks.check(balanced(&books), || format!("serve: books do not balance: {books:?}"));
}

fn print_stages(stages: &[Stage]) {
    for st in stages {
        let latency = |q: f64| {
            if st.valid_at(q) {
                format!("{:.3} ms", st.latency(q))
            } else {
                "invalid".to_string()
            }
        };
        println!(
            "serve stage {:<10} {:>6.0} rps  p50 {}  p90 {}  p99 {}  (n={})  shed {}  depth {}  \
             late p50 {:.3} p99 {:.3} max {:.3} ms  delivered {:.1}/s",
            st.name,
            st.rate,
            latency(0.5),
            latency(0.9),
            latency(0.99),
            st.latency_ms.len(),
            st.shed,
            st.queue_depth,
            stats::quantile(&st.late_ms, 0.5),
            stats::quantile(&st.late_ms, 0.99),
            stats::max(&st.late_ms),
            st.delivered_per_s
        );
    }
}

/// The untraced run: the whole ladder once. Invalid latency quantiles are
/// left out: their named lines read `invalid`, and an invalid p50 at
/// `mid` (after [`STAGE_ATTEMPTS`] attempts) fails the run, since the
/// result object cannot mark `latency_p50_ms` invalid.
pub fn run_e2e(opts: &Opts) -> E2e {
    let (s, setup_s) = timed_setup(|| Setup::new(opts));
    let stages = run_ladder(&s, opts, |_| {});
    print_stages(&stages);
    let mut checks = Checks::default();
    check(&s, &stages, &mut checks);

    let (low, mid, high) = (stage(&stages, "low"), stage(&stages, "mid"), stage(&stages, "high"));
    checks.check(mid.valid_at(0.5), || {
        "serve mid: the generator's p50 lateness exceeded its limit on every attempt, \
         so the run has no valid latency_p50_ms"
            .to_string()
    });
    let mut named = Vec::new();
    for (name, st, q) in [
        ("serve_p50_ms.low", low, 0.5),
        ("serve_p99_ms.low", low, 0.99),
        ("serve_p50_ms.mid", mid, 0.5),
        ("serve_p99_ms.mid", mid, 0.99),
        ("serve_p99_ms.high", high, 0.99),
    ] {
        if st.valid_at(q) {
            named.push(Metric::new(name, st.latency(q), "ms"));
        } else {
            println!("metric {name} invalid ms");
        }
    }
    let served: usize = MEASURED.iter().map(|n| stage(&stages, n).latency_ms.len()).sum();
    let wrong: usize = MEASURED.iter().map(|n| stage(&stages, n).wrong).sum();
    let capacity = stage(&stages, "capacity").delivered_per_s;
    E2e {
        setup_s,
        throughput: capacity,
        latency_p50_ms: mid.latency(0.5),
        error_pct: 100.0 * wrong as f64 / served.max(1) as f64,
        named: named
            .into_iter()
            .chain([
                Metric::new("serve_max_rate_rps", max_rate(&stages), "rps"),
                Metric::new("serve_capacity_rps", capacity, "rps"),
            ])
            .collect(),
        checks,
    }
}

/// The traced run: the ladder untraced, then traced with per-stage obs
/// deltas for the measured stages (a rerun stage's deltas include its
/// discarded attempt).
pub fn run_traced(opts: &Opts) -> Traced {
    let s = Setup::new(opts);
    let mut checks = Checks::default();
    let meter = CpuMeter::start();
    let untraced = run_ladder(&s, opts, |_| {});
    let cpu_util = meter.utilization(crate::threads());
    check(&s, &untraced, &mut checks);

    crate::obs_trace_on();
    let mut m = Vec::new();
    let first = snapshot();
    let mut before = first.clone();
    let traced = {
        let _span = bitrobust_obs::span("bench.serve_open_loop");
        run_ladder(&s, opts, |st| {
            let after = snapshot();
            if MEASURED.contains(&st.name) {
                let d = Delta::new(&before, &after);
                let wait = d.hist("serve.queue_wait_ns");
                let name = st.name;
                m.extend([
                    Metric::new(
                        format!("serve.queue_wait_ms.p50.{name}"),
                        wait.quantile(0.5) / 1e6,
                        "ms",
                    ),
                    Metric::new(
                        format!("serve.queue_wait_ms.p99.{name}"),
                        wait.quantile(0.99) / 1e6,
                        "ms",
                    ),
                    Metric::new(
                        format!("serve.batch_size.mean.{name}"),
                        d.hist("serve.batch_size").mean(),
                        "count",
                    ),
                    Metric::new(
                        format!("serve.wave_ms.p50.{name}"),
                        d.hist("serve.wave").quantile(0.5) / 1e6,
                        "ms",
                    ),
                    Metric::new(
                        format!("serve.submit_us.p99.{name}"),
                        stats::quantile(&st.submit_us, 0.99),
                        "us",
                    ),
                    Metric::new(
                        format!("serve.gen_late_ms.max.{name}"),
                        stats::max(&st.late_ms),
                        "ms",
                    ),
                    Metric::new(
                        format!("serve.queue_depth.{name}"),
                        st.queue_depth as f64,
                        "count",
                    ),
                ]);
            }
            before = after;
        })
    };
    let last = snapshot();
    print_stages(&traced);
    check(&s, &traced, &mut checks);

    let d = Delta::new(&first, &last);
    let completed: usize = traced.iter().map(|st| st.latency_ms.len()).sum();
    let flops = layers::forward_gemm_flops() * completed as f64;
    m.extend(crate::obsdelta::common_metrics(&d, flops));
    m.push(Metric::new("proc.cpu_util", cpu_util, "ratio"));
    m.push(crate::overhead_pct(
        stage(&untraced, "capacity").delivered_per_s,
        stage(&traced, "capacity").delivered_per_s,
    ));
    Traced { metrics: m, checks }
}
