//! `train_products`: the threaded single-machine `Trainer` on the
//! products stand-in (SAGE 50→256→256→16, fanouts 15/10/5, batch 1024).
//! Compute-bound: no partitioning, cache or communication.

use crate::checks::{above_chance, loss_decreases, Verdict};
use crate::common::{kernel_gflops, layer_shapes, products, repeat_for, secs};
use crate::replay::{overhead_pct, Replay, Stage, UnitClock};
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::stats::median;
use crate::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_gnn::{Arch, GnnModel, TrainConfig, Trainer, MODEL_STREAM_SALT};
use spp_graph::Dataset;
use spp_sampler::{batch_stream_seed, Fanouts, Mfg, MinibatchIter, NodeWiseSampler};
use spp_tensor::{Adam, Optimizer};
use std::sync::Arc;
use std::time::Instant;

const SETUP_REPEATS: usize = 3;

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        arch: Arch::Sage,
        hidden_dim: 256,
        fanouts: Fanouts::new(vec![15, 10, 5]),
        eval_fanouts: Fanouts::new(vec![15, 10, 5]),
        batch_size: 1024,
        lr: 0.003,
        epochs: 1,
        dropout: 0.0,
        seed,
        workers: None,
    }
}

/// Builds a trainer and runs the untimed warm-up epoch (epoch 0).
/// Returns the trainer, its optimizer and the warm-up loss.
fn set_up(ds: &Dataset, seed: u64) -> (Trainer<'_>, Adam, f64) {
    let cfg = config(seed);
    let mut opt = Adam::new(cfg.lr);
    let mut trainer = Trainer::new(ds, cfg);
    let warm = trainer.train_epoch(&mut opt, 0);
    (trainer, opt, warm.loss)
}

pub fn run(args: &Args) -> RunResult {
    let ds = products();
    eprintln!(
        "train_products: {} vertices, {} train, pool workers {}",
        ds.num_vertices(),
        ds.split.train.len(),
        spp_pool::WorkerPool::global().workers()
    );
    if args.trace {
        traced(args, &ds)
    } else {
        untraced(args, &ds)
    }
}

fn untraced(args: &Args, ds: &Dataset) -> RunResult {
    let mut m = Metrics::default();
    let mut setup_s = Vec::new();
    let mut warm_losses = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let (trainer, opt, warm) = set_up(ds, args.seed);
        setup_s.push(secs(t));
        warm_losses.push(warm);
        built = Some((trainer, opt));
    }
    let Some((mut trainer, mut opt)) = built else {
        unreachable!("at least one set-up")
    };
    m.set("setup_s", median(&setup_s));

    let epochs = repeat_for(args.seconds, 2, |i| {
        let t = Instant::now();
        let stats = trainer.train_epoch(&mut opt, 1 + i as u64);
        (secs(t), stats)
    });
    let rss = peak_rss_mb();
    let train = ds.split.train.len() as f64;
    let times: Vec<f64> = epochs.iter().map(|(s, _)| *s).collect();
    let rates: Vec<f64> = times.iter().map(|s| train / s).collect();
    m.set("epoch_s", median(&times));
    m.set("requests_per_s", median(&rates));
    m.set(
        "memory_multiple",
        ds.features.memory_bytes() as f64 / ds.feature_bytes() as f64,
    );
    m.set("peak_rss_mb", rss);

    let attempted: u64 = epochs.iter().map(|(_, e)| e.batches as u64).sum();
    let failed: u64 = epochs
        .iter()
        .filter(|(_, e)| !e.loss.is_finite())
        .map(|(_, e)| e.batches as u64)
        .sum();
    let losses: Vec<f64> = epochs.iter().map(|(_, e)| e.loss).collect();
    eprintln!(
        "train_products: {} epochs {times:.4?} s, losses {:.5} -> {:.5}",
        epochs.len(),
        losses[0],
        losses[losses.len() - 1]
    );
    let mut v = Verdict::default();
    v.check("loss finite and decreasing", loss_decreases(&losses));
    v.expect(
        "every set-up reproduces the same warm-up loss",
        warm_losses
            .iter()
            .all(|l| l.to_bits() == warm_losses[0].to_bits()),
        || format!("{warm_losses:?}"),
    );
    let val = trainer.evaluate(&ds.split.val, 10_007);
    eprintln!("train_products: validation accuracy {val:.4}");
    v.check(
        "validation accuracy far above chance",
        above_chance(val, ds.num_classes, 8.0),
    );
    RunResult {
        correct: v.passed(),
        attempted,
        failed,
        metrics: m,
    }
}

/// Replays epoch 0 of the trainer from fresh model state: the same
/// batches, RNG streams and calls as `Trainer::train_epoch`, one step
/// after another. Returns the epoch's mean loss, its step count, how
/// many steps had a non-finite loss, and the last step's MFG.
fn replay_epoch0(
    ds: &Dataset,
    cfg: &TrainConfig,
    traced: bool,
    replay: &mut Replay,
) -> (f64, u64, u64, Mfg) {
    let mut model = GnnModel::new(cfg.arch, &dims(ds, cfg), cfg.seed).with_dropout(cfg.dropout);
    let mut opt = Adam::new(cfg.lr);
    let sampler = NodeWiseSampler::new(&ds.graph, cfg.fanouts.clone());
    let (mut total, mut steps, mut non_finite) = (0.0f64, 0u64, 0u64);
    let mut last = None;
    for (b, batch) in MinibatchIter::new(&ds.split.train, cfg.batch_size, cfg.seed, 0).enumerate() {
        let mut clock = UnitClock::start(traced);
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(cfg.seed, 0, b as u64));
        let mfg = clock.time(Stage::Sample, || sampler.sample(&batch, &mut rng));
        let x = clock.time(Stage::Gather, || {
            Trainer::gather_features_from(&ds.features, &mfg)
        });
        let labels: Arc<Vec<u32>> =
            Arc::new(mfg.seeds().iter().map(|&v| ds.labels[v as usize]).collect());
        let mut model_rng =
            StdRng::seed_from_u64(batch_stream_seed(cfg.seed ^ MODEL_STREAM_SALT, 0, b as u64));
        let (mut fwd, loss) = clock.time(Stage::Forward, || {
            let mut fwd = model.forward(x, &mfg, true, &mut model_rng);
            let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
            (fwd, loss)
        });
        let value = fwd.tape.value(loss).get(0, 0) as f64;
        clock.time(Stage::Backward, || fwd.tape.backward(loss));
        clock.time(Stage::Optimizer, || {
            model.accumulate_grads(&fwd);
            let mut params = model.params_mut();
            opt.step(&mut params);
        });
        replay.finish(clock, mfg.num_nodes());
        total += value;
        steps += 1;
        non_finite += u64::from(!value.is_finite());
        last = Some(mfg);
    }
    let Some(last) = last else {
        unreachable!("the training split is never empty")
    };
    (total / steps as f64, steps, non_finite, last)
}

fn dims(ds: &Dataset, cfg: &TrainConfig) -> Vec<usize> {
    let mut d = vec![ds.features.dim()];
    d.extend(std::iter::repeat_n(
        cfg.hidden_dim,
        cfg.fanouts.num_hops() - 1,
    ));
    d.push(ds.num_classes);
    d
}

fn traced(args: &Args, ds: &Dataset) -> RunResult {
    let mut m = Metrics::default();
    let cfg = config(args.seed);
    let (_, _, warm_loss) = set_up(ds, args.seed);

    // Epoch 0 from a fresh model is exactly the trainer's warm-up epoch:
    // each replay must reproduce its loss bit for bit.
    let mut replay = Replay::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut mismatched = Vec::new();
    let mut last_mfg = None;
    let overhead = overhead_pct(args.seconds * 0.8, 2, |on| {
        let (loss, steps, bad, mfg) = replay_epoch0(ds, &cfg, on, &mut replay);
        if loss.to_bits() != warm_loss.to_bits() {
            mismatched.push(loss);
        }
        attempted += steps;
        failed += bad;
        last_mfg = Some(mfg);
    });
    replay.emit(&mut m);
    m.set("trace.overhead_pct", overhead);
    if let Some(mfg) = &last_mfg {
        kernel_gflops(&layer_shapes(mfg, &dims(ds, &cfg)), 5, &mut m);
    }
    eprintln!(
        "train_products traced: {} steps, mean step {:.2} ms, overhead {overhead:.2}%",
        replay.units(),
        replay.whole_mean_ms()
    );
    let mut v = Verdict::default();
    v.expect(
        "every replayed epoch reproduces the trainer's loss",
        mismatched.is_empty(),
        || format!("replays {mismatched:?} vs trainer {warm_loss}"),
    );
    v.expect(
        "stages sum to the step",
        replay.sums_to_whole(),
        String::new,
    );
    RunResult {
        correct: v.passed(),
        attempted,
        failed,
        metrics: m,
    }
}
