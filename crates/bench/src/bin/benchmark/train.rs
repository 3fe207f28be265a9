//! Training workloads: `bfly_nn::train::fit` on cifar10-like data with the
//! paper's Table 3 settings (batch 50, lr 0.001, momentum 0.9), every trial
//! from the same model init, so test accuracy must repeat exactly.
//!
//! Step times come from a thin wrapper around the model that notes when
//! each training-mode forward starts: a step runs from one forward to the
//! next (or to the epoch's first evaluation). A traced run instead builds
//! the SHL's three layers from the same public constructors and seed as
//! `build_shl`, checks that they compute bit-identical logits, and wraps
//! each one, so every step splits into per-layer forward and backward, loss,
//! and optimizer spans.

use crate::alloc;
use crate::replay;
use crate::report::{Metric, Outcome};
use crate::spec::{Scale, TrainSpec, CLASSES, DIM};
use crate::stats::{group_medians, median, quantile_sorted, sorted};
use crate::trace::{self, Span};
use bfly_core::{build_shl, build_shl_inference, ButterflyLayer, Method, PixelflyLayer};
use bfly_data::{generate, split, Split, SynthSpec};
use bfly_nn::{fit, Dense, Layer, Param, Relu, Sequential, TrainConfig};
use bfly_tensor::{derived_rng, seeded_rng, LinOp, Matrix};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How much of the workload one run does.
struct Plan {
    samples: usize,
    epochs: usize,
    setups: usize,
    /// `setup_s` reports one median per interleaved group of set-ups.
    setup_groups: usize,
    min_trials: usize,
    max_trials: usize,
    /// Trials keep starting, up to `max_trials`, until this much has run.
    budget: Duration,
    replay_budget: Duration,
}

impl Plan {
    fn new(spec: &TrainSpec, scale: &Scale) -> Self {
        if scale.smoke {
            return Self {
                samples: 100,
                epochs: 1,
                setups: 1,
                setup_groups: 1,
                min_trials: 2,
                max_trials: 2,
                budget: Duration::ZERO,
                replay_budget: Duration::from_millis(5),
            };
        }
        Self {
            samples: spec.samples,
            epochs: spec.epochs,
            setups: 9,
            setup_groups: 3,
            min_trials: 3,
            max_trials: spec.max_trials,
            budget: Duration::from_secs_f64(scale.seconds),
            replay_budget: Duration::from_millis(100),
        }
    }
}

/// Set-up: dataset generation, split and the first `build_shl`.
struct Setup {
    split: Split,
    total_s: f64,
    gen_s: f64,
    build_s: f64,
}

fn setup(spec: &TrainSpec, plan: &Plan, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let data = generate(&SynthSpec::cifar10_like(plan.samples, seed));
    let t1 = Instant::now();
    let split = split(data, 0.2, 0.15, &mut derived_rng(seed, 1));
    let t2 = Instant::now();
    let model = build_shl(spec.method, DIM, CLASSES, &mut seeded_rng(spec.init_seed))
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    black_box(model);
    Ok(Setup {
        split,
        total_s: (t3 - t0).as_secs_f64(),
        gen_s: (t1 - t0).as_secs_f64(),
        build_s: (t3 - t2).as_secs_f64(),
    })
}

/// Notes when each forward of the wrapped model starts and ends.
struct StepClock<'a> {
    inner: &'a mut dyn Layer,
    /// `(start, end, training)` per forward call.
    calls: Vec<(Instant, Instant, bool)>,
    /// Training steps whose logits held a NaN or infinity.
    bad_steps: u64,
}

impl Layer for StepClock<'_> {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let start = Instant::now();
        let out = self.inner.forward(input, train);
        self.calls.push((start, Instant::now(), train));
        if train && !out.as_slice().iter().all(|v| v.is_finite()) {
            self.bad_steps += 1;
        }
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.inner.backward(grad_output)
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.inner.params()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        self.inner.trace(batch)
    }
}

/// One `fit` call's results.
struct Trial {
    step_ms: Vec<f64>,
    train_s: f64,
    samples: f64,
    steps: u64,
    bad_steps: u64,
    test_acc: f64,
    eval_s: f64,
}

fn fit_timed(model: &mut dyn Layer, split: &Split, plan: &Plan, seed: u64) -> Trial {
    let mut clock = StepClock { inner: model, calls: Vec::new(), bad_steps: 0 };
    let config = TrainConfig { epochs: plan.epochs, seed, ..TrainConfig::default() };
    let report = fit(&mut clock, split, &config);
    let calls = &clock.calls;
    let step_ms = calls
        .windows(2)
        .filter(|w| w[0].2)
        .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
        .collect();
    Trial {
        step_ms,
        train_s: report.train_seconds,
        samples: (split.train.len() * plan.epochs) as f64,
        steps: report.steps as u64,
        bad_steps: clock.bad_steps,
        test_acc: report.test_accuracy,
        eval_s: calls.iter().filter(|c| !c.2).map(|c| (c.1 - c.0).as_secs_f64()).sum(),
    }
}

fn trial(spec: &TrainSpec, split: &Split, plan: &Plan, seed: u64) -> Result<Trial, String> {
    let mut model = build_shl(spec.method, DIM, CLASSES, &mut seeded_rng(spec.init_seed))
        .map_err(|e| e.to_string())?;
    Ok(fit_timed(&mut model, split, plan, seed))
}

pub fn run(
    name: &'static str,
    spec: &TrainSpec,
    seed: u64,
    scale: &Scale,
    traced: bool,
) -> Result<Outcome, String> {
    let plan = Plan::new(spec, scale);
    let (mut setup_s, mut gen_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..plan.setups {
        // Each set-up starts from nothing, as a user's would: the previous
        // one's data is freed first.
        drop(kept.take());
        let s = setup(spec, &plan, seed)?;
        setup_s.push(s.total_s);
        gen_s.push(s.gen_s);
        build_s.push(s.build_s);
        kept = Some(s.split);
    }
    let split = &kept.ok_or("no set-up ran")?;

    let mut outcome = if traced {
        let mut o = traced_run(name, spec, split, &plan, seed)?;
        o.push(Metric::trials("data.gen_s", "s", gen_s));
        o.push(Metric::trials("nn.build_s", "s", build_s));
        o.zero_bypassed(&["loadgen.", "ingress.", "server.", "cache.", "replica."]);
        o
    } else {
        let start = Instant::now();
        let mut trials = Vec::new();
        while trials.len() < plan.min_trials
            || (trials.len() < plan.max_trials && start.elapsed() < plan.budget)
        {
            trials.push(trial(spec, split, &plan, seed)?);
        }
        let mut o = Outcome::new(name, false);
        let per_trial = |f: &dyn Fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
        let step_q = |q: f64| move |t: &Trial| quantile_sorted(&sorted(&t.step_ms), q);
        o.push(Metric::trials("setup_s", "s", group_medians(&setup_s, plan.setup_groups)));
        o.push(Metric::trials("p50_ms", "ms", per_trial(&step_q(0.5))));
        o.push(Metric::trials("p90_ms", "ms", per_trial(&step_q(0.9))));
        o.push(Metric::trials("throughput_per_s", "1/s", per_trial(&|t| t.samples / t.train_s)));
        o.push(Metric::trials("step_ms", "ms", per_trial(&|t| 1e3 * t.train_s / t.steps as f64)));
        o.push(Metric::trials("test_acc", "fraction", per_trial(&|t| t.test_acc)));
        o.push(Metric::trials("nn.eval_s", "s", per_trial(&|t| t.eval_s)));
        o.push(Metric::one("nn.trials", "count", trials.len() as f64));
        o.push(Metric::trials("data.gen_s", "s", gen_s));
        o.push(Metric::trials("nn.build_s", "s", build_s));
        let accs = per_trial(&|t| t.test_acc);
        if accs.iter().any(|a| a.to_bits() != accs[0].to_bits()) {
            o.errors.push(format!("{name}: test_acc differs across trials: {accs:?}"));
        }
        o.attempted = trials.iter().map(|t| t.steps).sum();
        o.failed = trials.iter().map(|t| t.bad_steps).sum();
        o
    };
    // Training does the same work whatever the host's speed, so its heap
    // peak over the whole run repeats.
    outcome.push(Metric::one("peak_heap_mib", "MiB", alloc::peak_heap_mib()));
    if traced {
        let model = build_shl_inference(spec.method, DIM, CLASSES, &mut seeded_rng(spec.init_seed))
            .map_err(|e| e.to_string())?;
        for m in replay::layers(&model, seed, plan.replay_budget)? {
            outcome.push(m);
        }
    }
    Ok(outcome)
}

/// Which pass of a layer an event times.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Forward,
    Backward,
    Eval,
}

struct Event {
    layer: &'static str,
    pass: Pass,
    start: Instant,
    end: Instant,
}

type Log = Arc<Mutex<Vec<Event>>>;

/// Times every forward and backward call of the layer it wraps.
struct Timed {
    layer: &'static str,
    inner: Box<dyn Layer>,
    log: Log,
}

impl Timed {
    fn record(&self, pass: Pass, start: Instant) {
        let event = Event { layer: self.layer, pass, start, end: Instant::now() };
        self.log.lock().expect("event log poisoned").push(event);
    }
}

impl Layer for Timed {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let start = Instant::now();
        let out = self.inner.forward(input, train);
        self.record(if train { Pass::Forward } else { Pass::Eval }, start);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let start = Instant::now();
        let out = self.inner.backward(grad_output);
        self.record(Pass::Backward, start);
        out
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.inner.params()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn name(&self) -> &str {
        self.layer
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        self.inner.trace(batch)
    }
}

/// The SHL's layers from the constructors `build_shl` calls, in its order.
fn shl_layers(method: Method, seed: u64) -> Result<Vec<Box<dyn Layer>>, String> {
    let rng = &mut seeded_rng(seed);
    let hidden: Box<dyn Layer> = match method {
        Method::Baseline => Box::new(Dense::new(DIM, DIM, rng)),
        Method::Butterfly => Box::new(ButterflyLayer::new(DIM, DIM, rng)),
        Method::Pixelfly(c) => {
            Box::new(PixelflyLayer::new(DIM, DIM, c, rng).map_err(|e| e.to_string())?)
        }
        other => return Err(format!("no traced build for {other}")),
    };
    Ok(vec![hidden, Box::new(Relu::new()), Box::new(Dense::new(DIM, CLASSES, rng))])
}

fn span_name(layer: &str, pass: Pass) -> &'static str {
    match (layer, pass) {
        ("hidden", Pass::Forward) => "hidden.fwd",
        ("hidden", _) => "hidden.bwd",
        ("relu", Pass::Forward) => "relu.fwd",
        ("relu", _) => "relu.bwd",
        ("classifier", Pass::Forward) => "classifier.fwd",
        _ => "classifier.bwd",
    }
}

/// Turns the event log into per-step spans. A step runs from the model's
/// forward to its next forward or evaluation; `loss` is the gap between
/// forward and backward, `sgd` the rest after backward (optimizer step and
/// the next `zero_grad`).
///
/// Events are logged when a call returns, so a step's layer events sit
/// between the previous model event and the step's model backward.
fn step_spans(events: &[Event]) -> Vec<Span> {
    let model_at: Vec<usize> = (0..events.len()).filter(|&i| events[i].layer == "model").collect();
    let mut spans = Vec::new();
    let (mut step, mut evals) = (0u64, 0u64);
    for (k, &i) in model_at.iter().enumerate() {
        let e = &events[i];
        match e.pass {
            Pass::Eval => {
                spans.push(Span::new("eval", evals, None, e.start, e.end));
                evals += 1;
            }
            Pass::Backward => {}
            Pass::Forward => {
                let (Some(&bwd), Some(&next)) = (model_at.get(k + 1), model_at.get(k + 2)) else {
                    continue;
                };
                let end = events[next].start;
                let first = if k == 0 { 0 } else { model_at[k - 1] + 1 };
                let parent = Some("step");
                spans.push(Span::new("step", step, None, e.start, end));
                spans.push(Span::new("loss", step, parent, e.end, events[bwd].start));
                spans.push(Span::new("sgd", step, parent, events[bwd].end, end));
                for inner in events[first..bwd].iter().filter(|x| x.layer != "model") {
                    let name = span_name(inner.layer, inner.pass);
                    spans.push(Span::new(name, step, parent, inner.start, inner.end));
                }
                step += 1;
            }
        }
    }
    spans
}

fn traced_run(
    name: &'static str,
    spec: &TrainSpec,
    split: &Split,
    plan: &Plan,
    seed: u64,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(name, true);
    let untraced = trial(spec, split, plan, seed)?;

    let log: Log = Arc::default();
    let names = ["hidden", "relu", "classifier"];
    let mut timed = Sequential::new();
    for (layer, inner) in names.into_iter().zip(shl_layers(spec.method, spec.init_seed)?) {
        timed = timed.push(Box::new(Timed { layer, inner, log: log.clone() }));
    }
    let mut model = Timed { layer: "model", inner: Box::new(timed), log: log.clone() };

    // The timed layers must compute what `build_shl` computes.
    let mut reference = build_shl(spec.method, DIM, CLASSES, &mut seeded_rng(spec.init_seed))
        .map_err(|e| e.to_string())?;
    let x = split.train.features.submatrix(0, 0, split.train.len().min(50), DIM);
    if !crate::bits_equal(
        model.forward(&x, false).as_slice(),
        reference.forward(&x, false).as_slice(),
    ) {
        outcome.errors.push(format!("{name}: traced layers diverge from build_shl's logits"));
    }
    log.lock().expect("event log poisoned").clear();

    let epoch = Instant::now();
    let traced = fit_timed(&mut model, split, plan, seed);
    if traced.test_acc.to_bits() != untraced.test_acc.to_bits() {
        outcome.errors.push(format!(
            "{name}: traced test_acc {} differs from untraced {}",
            traced.test_acc, untraced.test_acc
        ));
    }
    let events = std::mem::take(&mut *log.lock().expect("event log poisoned"));
    let spans = step_spans(&events);

    let self_ms = trace::self_times_us(&spans);
    let ms = |span: &str| self_ms.get(span).copied().unwrap_or(0.0) / 1e3;
    let relu: Vec<f64> = {
        let fwd = trace::durations_us(&spans, "relu.fwd");
        let bwd = trace::durations_us(&spans, "relu.bwd");
        fwd.iter().zip(&bwd).map(|(f, b)| (f + b) / 1e3).collect()
    };
    let metrics = [
        ("nn.hidden.fwd_ms", "ms", ms("hidden.fwd")),
        ("nn.hidden.bwd_ms", "ms", ms("hidden.bwd")),
        ("nn.classifier.fwd_ms", "ms", ms("classifier.fwd")),
        ("nn.classifier.bwd_ms", "ms", ms("classifier.bwd")),
        ("nn.relu_ms", "ms", if relu.is_empty() { 0.0 } else { median(&relu) }),
        ("nn.loss_ms", "ms", ms("loss")),
        ("nn.sgd_ms", "ms", ms("sgd")),
        ("nn.step_self_ms", "ms", ms("step")),
        ("nn.eval_s", "s", traced.eval_s),
        ("nn.steps", "count", traced.steps as f64),
        (
            "trace.overhead_frac",
            "fraction",
            median(&traced.step_ms) / median(&untraced.step_ms) - 1.0,
        ),
    ];
    for (metric, unit, value) in metrics {
        outcome.push(Metric::one(metric, unit, value));
    }
    for m in trace::self_time_metrics(&spans) {
        outcome.push(m);
    }
    outcome.attempted = untraced.steps + traced.steps;
    outcome.failed = untraced.bad_steps + traced.bad_steps;
    outcome.trace = Some((epoch, spans));
    Ok(outcome)
}
