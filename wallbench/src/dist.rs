//! `dist_papers`: `DistributedSetup::build` and `DistributedTrainer::train`
//! at k=2 on the papers timing stand-in, with a VIP-analytic static
//! cache (α=0.16, β=0.5), batch 64 per machine, fanouts 15/10/5, hidden
//! 32 and an f32 wire.

use crate::checks::{above_chance, vip_bound, Verdict};
use crate::common::{
    kernel_gflops, layer_shapes, papers, repeat_for, secs, setup_split, DATASET_SEED,
};
use crate::replay::{overhead_pct, Replay, Stage, UnitClock};
use crate::report::{peak_rss_mb, Metrics, RunResult, MIB};
use crate::stats::median;
use crate::{Args, Fault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_core::policies::CachePolicy;
use spp_core::VipModel;
use spp_gnn::{Arch, GnnModel, MODEL_STREAM_SALT};
use spp_graph::{Dataset, QuantScheme};
use spp_runtime::{
    DistTrainConfig, DistributedSetup, DistributedTrainReport, DistributedTrainer, SetupConfig,
};
use spp_sampler::{batch_stream_seed, Fanouts, Mfg, MinibatchIter, NodeWiseSampler};
use spp_tensor::{Adam, Optimizer};
use std::sync::Arc;
use std::time::Instant;

const MACHINES: usize = 2;
const SETUP_REPEATS: usize = 3;
/// Epochs per timed `train()` call.
const EPOCHS_PER_CALL: usize = 2;
/// Allowed excess of measured over VIP-predicted remote fetches.
const VIP_SLACK: f64 = 1.1;

fn setup_config() -> SetupConfig {
    SetupConfig {
        num_machines: MACHINES,
        fanouts: Fanouts::new(vec![15, 10, 5]),
        batch_size: 64,
        policy: CachePolicy::VipAnalytic,
        alpha: 0.16,
        beta: 0.5,
        cache_scheme: QuantScheme::F32,
        vip_reorder: true,
        seed: DATASET_SEED,
    }
}

fn train_config(seed: u64, epochs: usize) -> DistTrainConfig {
    DistTrainConfig {
        arch: Arch::Sage,
        hidden_dim: 32,
        lr: 0.005,
        epochs,
        seed,
        wire_scheme: QuantScheme::F32,
    }
}

/// Builds the deployment and runs the untimed warm-up (one epoch).
fn set_up(ds: &Dataset, seed: u64) -> DistributedSetup {
    let setup = DistributedSetup::build(ds, setup_config());
    DistributedTrainer::new(&setup, train_config(seed, 1)).train();
    setup
}

pub fn run(args: &Args) -> RunResult {
    let ds = papers();
    eprintln!(
        "dist_papers: {} vertices, {} train, k={MACHINES}, pool workers {}",
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

/// Batches machine `m` runs per epoch.
fn batches_of(setup: &DistributedSetup, m: usize) -> usize {
    setup.local_train[m].len().div_ceil(setup.config.batch_size)
}

/// Proposition 1's expected remote fetches per epoch for the deployed
/// caches: Σ over machines of batches × Σ of p_m(u) over vertices that
/// are neither local to m nor in m's static cache.
fn predicted_remote_rows(setup: &DistributedSetup) -> f64 {
    let vip = VipModel::new(setup.config.fanouts.clone(), setup.config.batch_size);
    (0..setup.num_machines())
        .map(|m| {
            let p = vip.scores(&setup.dataset.graph, &setup.local_train[m]);
            let store = &setup.stores[m];
            let missing: f64 = p
                .iter()
                .enumerate()
                .filter(|&(u, _)| {
                    let u = u as u32;
                    !setup.layout.is_local(u, m as u32) && !store.cache().contains(u)
                })
                .map(|(_, &pu)| pu)
                .sum();
            batches_of(setup, m) as f64 * missing
        })
        .sum()
}

/// Per-epoch remote rows, measured and predicted, and the byte split of
/// the engine's traffic: feature requests (one u32 id per remote row),
/// feature rows (f32 wire) and gradients (every machine with a batch
/// sends its flat gradient to each peer).
struct CommSplit {
    remote_rows: f64,
    predicted_rows: f64,
    request_b: f64,
    feature_b: f64,
    gradient_b: f64,
}

fn comm_split(
    setup: &DistributedSetup,
    report: &DistributedTrainReport,
    epochs: usize,
    params: usize,
) -> CommSplit {
    let remote_rows = report.remote_fetches as f64 / epochs as f64;
    let predicted_rows = predicted_remote_rows(setup);
    let dim = setup.dataset.features.dim();
    let rounds_with_batch: usize = (0..setup.num_machines())
        .map(|m| batches_of(setup, m))
        .sum();
    CommSplit {
        remote_rows,
        predicted_rows,
        request_b: 4.0 * remote_rows,
        feature_b: remote_rows * QuantScheme::F32.row_bytes(dim) as f64,
        gradient_b: (rounds_with_batch * (setup.num_machines() - 1) * 4 * params) as f64,
    }
}

fn num_params(setup: &DistributedSetup, cfg: &DistTrainConfig) -> usize {
    GnnModel::new(cfg.arch, &dims(setup, cfg), cfg.seed).num_parameters()
}

fn dims(setup: &DistributedSetup, cfg: &DistTrainConfig) -> Vec<usize> {
    let mut d = vec![setup.dataset.features.dim()];
    d.extend(std::iter::repeat_n(
        cfg.hidden_dim,
        setup.config.fanouts.num_hops() - 1,
    ));
    d.push(setup.dataset.num_classes);
    d
}

/// Checks shared by both runs: the distributed gather reproduces the
/// global features, measured fetches respect the VIP prediction, the
/// traffic split accounts for every byte of the comm report, and the
/// trained model beats chance.
fn check_engine(
    v: &mut Verdict,
    setup: &DistributedSetup,
    trainer: &DistributedTrainer<'_>,
    cfg: &DistTrainConfig,
    report: &DistributedTrainReport,
    epochs: usize,
    inject: Option<Fault>,
) -> CommSplit {
    let gathered =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trainer.verify_gather(17)));
    v.check(
        "distributed gather equals the global feature matrix",
        match gathered {
            Ok(n) if n > 0 => Ok(()),
            Ok(_) => Err("no vertex was checked".into()),
            Err(_) => Err("gathered features differ".into()),
        },
    );
    let params = num_params(setup, cfg);
    let split = comm_split(setup, report, epochs, params);
    let predicted = split.predicted_rows;
    let mut measured = split.remote_rows;
    if inject == Some(Fault::FetchCount) {
        measured *= 2.0;
    }
    eprintln!(
        "dist_papers: remote rows per epoch {measured:.0} measured vs {predicted:.0} predicted (ratio {:.3})",
        measured / predicted
    );
    v.check(
        "remote fetches within the VIP prediction",
        vip_bound(measured, predicted, VIP_SLACK),
    );
    let total = report.comm.total_bytes() as f64 / epochs as f64;
    let parts = split.request_b + split.feature_b + split.gradient_b;
    v.expect(
        "request + feature + gradient bytes equal the comm report",
        parts == total,
        || format!("{parts} split vs {total} reported per epoch"),
    );
    v.expect(
        "every epoch loss is finite",
        report.epoch_losses.iter().all(|l| l.is_finite()),
        || format!("{:?}", report.epoch_losses),
    );
    v.check(
        "test accuracy above chance",
        above_chance(report.test_accuracy, setup.dataset.num_classes, 2.0),
    );
    split
}

fn untraced(args: &Args, ds: &Dataset) -> RunResult {
    let mut m = Metrics::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let s = set_up(ds, args.seed);
        setup_s.push(secs(t));
        built = Some(s);
    }
    let Some(setup) = built else {
        unreachable!("at least one set-up")
    };
    m.set("setup_s", median(&setup_s));

    let cfg = train_config(args.seed, EPOCHS_PER_CALL);
    let trainer = DistributedTrainer::new(&setup, cfg.clone());
    let calls = repeat_for(args.seconds, 1, |_| {
        let t = Instant::now();
        let (report, _) = trainer.train();
        (secs(t), report)
    });
    let rss = peak_rss_mb();
    let epoch_s: Vec<f64> = calls
        .iter()
        .map(|(s, _)| s / EPOCHS_PER_CALL as f64)
        .collect();
    let train = ds.split.train.len() as f64;
    m.set("epoch_s", median(&epoch_s));
    m.set(
        "requests_per_s",
        median(&epoch_s.iter().map(|s| train / s).collect::<Vec<_>>()),
    );
    m.set("memory_multiple", setup.memory_multiple());
    m.set("peak_rss_mb", rss);

    let rounds = (setup.rounds_per_epoch() * EPOCHS_PER_CALL) as u64;
    let attempted = rounds * calls.len() as u64;
    let failed = calls
        .iter()
        .flat_map(|(_, r)| &r.epoch_losses)
        .filter(|l| !l.is_finite())
        .count() as u64
        * setup.rounds_per_epoch() as u64;
    eprintln!(
        "dist_papers: {} calls of {EPOCHS_PER_CALL} epochs x {} rounds, epochs {:.4?} s",
        calls.len(),
        setup.rounds_per_epoch(),
        epoch_s
    );
    let mut v = Verdict::default();
    let (_, first) = &calls[0];
    check_engine(
        &mut v,
        &setup,
        &trainer,
        &cfg,
        first,
        EPOCHS_PER_CALL,
        args.inject,
    );
    v.expect(
        "every call reproduces the same training",
        calls.iter().all(|(_, r)| {
            r.epoch_losses == first.epoch_losses && r.remote_fetches == first.remote_fetches
        }),
        || "loss curves or fetch counts differ between identical calls".into(),
    );
    RunResult {
        correct: v.passed(),
        attempted,
        failed,
        metrics: m,
    }
}

/// Replays machine 0's rounds of epoch 0 from fresh model state: sample,
/// plan, the owners' serve, gather, forward, backward and the optimizer
/// step (the gradient exchange is left to the engine). Returns the round
/// count, the static-cache hits and remote rows its plans saw, and the
/// last MFG.
fn replay_machine0(
    setup: &DistributedSetup,
    cfg: &DistTrainConfig,
    traced: bool,
    replay: &mut Replay,
) -> (u64, usize, usize, Mfg) {
    let rank = 0usize;
    let mut model = GnnModel::new(cfg.arch, &dims(setup, cfg), cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let sampler = NodeWiseSampler::new(&setup.dataset.graph, setup.config.fanouts.clone());
    let sample_seed = cfg.seed ^ ((rank as u64) << 32);
    let store = &setup.stores[rank];
    let (mut rounds, mut cached, mut remote) = (0u64, 0usize, 0usize);
    let mut last = None;
    let batches = MinibatchIter::new(
        &setup.local_train[rank],
        setup.config.batch_size,
        setup.config.seed ^ rank as u64,
        0,
    );
    for (b, batch) in batches.enumerate() {
        let mut clock = UnitClock::start(traced);
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(sample_seed, 0, b as u64));
        let mfg = clock.time(Stage::Sample, || sampler.sample(&batch, &mut rng));
        let plan = clock.time(Stage::Plan, || store.plan(&mfg.nodes));
        cached += plan.cached.len();
        remote += plan.num_remote();
        let mut served: Vec<Option<spp_graph::FeatureMatrix>> = plan
            .remote
            .iter()
            .enumerate()
            .map(|(owner, reqs)| {
                let ids: Vec<u32> = reqs.iter().map(|&(_, v)| v).collect();
                (!ids.is_empty())
                    .then(|| clock.time(Stage::Serve, || setup.stores[owner].serve(&ids)))
            })
            .collect();
        let x = clock.time(Stage::Gather, || {
            store.gather(&mfg.nodes, |owner, _| {
                served[owner as usize]
                    .take()
                    .unwrap_or_else(|| unreachable!("the plan requested rows from owner {owner}"))
            })
        });
        let labels: Arc<Vec<u32>> = Arc::new(
            mfg.seeds()
                .iter()
                .map(|&v| setup.dataset.labels[v as usize])
                .collect(),
        );
        let mut model_rng = StdRng::seed_from_u64(batch_stream_seed(
            sample_seed ^ MODEL_STREAM_SALT,
            0,
            b as u64,
        ));
        let (mut fwd, loss) = clock.time(Stage::Forward, || {
            let mut fwd = model.forward(x, &mfg, true, &mut model_rng);
            let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
            (fwd, loss)
        });
        clock.time(Stage::Backward, || fwd.tape.backward(loss));
        clock.time(Stage::Optimizer, || {
            model.accumulate_grads(&fwd);
            let mut params = model.params_mut();
            opt.step(&mut params);
        });
        replay.finish(clock, mfg.num_nodes());
        rounds += 1;
        last = Some(mfg);
    }
    let Some(last) = last else {
        unreachable!("machine 0 always has training vertices")
    };
    (rounds, cached, remote, last)
}

fn traced(args: &Args, ds: &Dataset) -> RunResult {
    let mut m = Metrics::default();
    let setup = setup_split(ds, &setup_config(), 2, &mut m);
    let cfg = train_config(args.seed, EPOCHS_PER_CALL);
    let trainer = DistributedTrainer::new(&setup, cfg.clone());
    DistributedTrainer::new(&setup, train_config(args.seed, 1)).train();
    let start = Instant::now();

    // Engine calls for a quarter of the run; each call's final
    // evaluation is replayed on its model and timed on its own.
    let calls = repeat_for(args.seconds / 4.0, 1, |_| {
        let t = Instant::now();
        let (report, model) = trainer.train();
        let call_s = secs(t);
        let t = Instant::now();
        trainer.evaluate(&model, &setup.dataset.split.val);
        trainer.evaluate(&model, &setup.dataset.split.test);
        (call_s, secs(t), report)
    });
    let rounds = (EPOCHS_PER_CALL * setup.rounds_per_epoch()) as u64;
    let eval_s = median(&calls.iter().map(|c| c.1).collect::<Vec<_>>());
    let round_ms = median(
        &calls
            .iter()
            .map(|c| (c.0 - c.1) * 1e3 / rounds as f64)
            .collect::<Vec<_>>(),
    );
    m.set("engine.eval_s", eval_s);
    let report = &calls[0].2;

    let mut v = Verdict::default();
    let split = check_engine(
        &mut v,
        &setup,
        &trainer,
        &cfg,
        report,
        EPOCHS_PER_CALL,
        args.inject,
    );
    m.set("comm.remote_rows", split.remote_rows);
    m.set("vip.predicted_remote_rows", split.predicted_rows);
    m.set("comm.request_mb", split.request_b / MIB);
    m.set("comm.feature_mb", split.feature_b / MIB);
    m.set("comm.gradient_mb", split.gradient_b / MIB);
    m.set(
        "comm_mb",
        report.comm.total_bytes() as f64 / EPOCHS_PER_CALL as f64 / MIB,
    );

    let mut replay = Replay::default();
    let mut attempted = rounds * calls.len() as u64;
    let (mut cached, mut remote) = (0usize, 0usize);
    let mut last_mfg = None;
    let budget = (args.seconds - secs(start)).max(1.0);
    let overhead = overhead_pct(budget * 0.8, 2, |on| {
        let (rounds, c, r, mfg) = replay_machine0(&setup, &cfg, on, &mut replay);
        attempted += rounds;
        if on {
            cached += c;
            remote += r;
        }
        last_mfg = Some(mfg);
    });
    replay.emit(&mut m);
    m.set("trace.overhead_pct", overhead);
    m.set(
        "cache.static_hit_share",
        cached as f64 / (cached + remote).max(1) as f64,
    );
    m.set("comm.exchange_wait_ms", round_ms - replay.whole_mean_ms());
    if let Some(mfg) = &last_mfg {
        kernel_gflops(&layer_shapes(mfg, &dims(&setup, &cfg)), 5, &mut m);
    }
    eprintln!(
        "dist_papers traced: engine round {round_ms:.2} ms vs replayed {:.2} ms, eval {eval_s:.3} s, \
         overhead {overhead:.2}%",
        replay.whole_mean_ms()
    );
    v.expect(
        "stages sum to the round",
        replay.sums_to_whole(),
        String::new,
    );
    RunResult {
        correct: v.passed(),
        attempted,
        failed: 0,
        metrics: m,
    }
}
