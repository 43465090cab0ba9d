//! The fixed input datasets, and measurements shared by the workloads:
//! the set-up split, kernel throughput at MFG layer shapes, and the run
//! clock.

use crate::report::Metrics;
use crate::stats::median;
use spp_core::{PolicyContext, VipModel};
use spp_graph::dataset::SyntheticSpec;
use spp_graph::{Dataset, VertexId};
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Mfg;
use spp_tensor::Matrix;
use std::time::Instant;

/// Seed of the stand-in datasets and of their preprocessing (the
/// partitioner and the engine's batch order, both drawn from
/// `SetupConfig::seed`). Like a benchmark dataset on disk with its
/// official split, graph, features, labels, split and partitioning are
/// fixed; the workload seed draws the rest: model initialisation,
/// minibatch and sampling streams, and the serving trace. A new
/// heavy-tailed graph per seed moved epoch time by a fifth, and a new
/// split or partitioning moved the engine's rounds per epoch (26 or 27),
/// which would swamp any change under test.
pub const DATASET_SEED: u64 = 0;

/// Scaled stand-in for `ogbn-products`: 24k vertices, average degree 51,
/// 50 features, 16 classes, 8.2% / 1.6% / 90% split.
pub fn products() -> Dataset {
    SyntheticSpec::new("products-sim", 24_000, 51.0, 50, 16)
        .split_fractions(0.082, 0.016, 0.9)
        .homophily(0.9)
        .degree_tail(1.3)
        .seed(DATASET_SEED)
        .build()
}

/// Timing variant of the `ogbn-papers100M` stand-in: 110k vertices,
/// average degree 29, 64 features, 32 classes, 3% / 0.3% / 0.5% split.
pub fn papers() -> Dataset {
    SyntheticSpec::new("papers-sim-timing", 110_000, 29.0, 64, 32)
        .split_fractions(0.03, 0.003, 0.005)
        .homophily(0.93)
        .degree_tail(1.2)
        .seed(DATASET_SEED)
        .build()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `op` until `budget_s` seconds have passed and at least
/// `min_iters` iterations ran; returns each iteration's output.
pub fn repeat_for<T>(budget_s: f64, min_iters: usize, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || secs(start) < budget_s {
        out.push(op(out.len()));
    }
    out
}

/// Times the set-up of a deployment stage by stage: the partitioner, the
/// VIP analysis (reorder scores plus each machine's cache ranking), and
/// the rest of `DistributedSetup::build` (reorder, permute, cache fill).
/// The whole build is timed as one call, then the sub-calls on their own;
/// the rest is the build minus the two, so the three parts sum to it.
/// Returns the last deployment built.
pub fn setup_split(
    ds: &Dataset,
    cfg: &SetupConfig,
    repeats: usize,
    m: &mut Metrics,
) -> DistributedSetup {
    let (mut part_s, mut vip_s, mut rest_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..repeats.max(1) {
        drop(built.take());
        let t = Instant::now();
        built = Some(DistributedSetup::build(ds, cfg.clone()));
        let whole = secs(t);
        let t = Instant::now();
        let (partitioning, train_of_part) = DistributedSetup::partition(ds, cfg);
        let p = secs(t);
        m.set(
            "partition.edge_cut_frac",
            spp_partition::metrics::edge_cut_fraction(&ds.graph, &partitioning),
        );
        let t = Instant::now();
        let scores = VipModel::new(cfg.fanouts.clone(), cfg.batch_size)
            .partition_scores(&ds.graph, &train_of_part);
        let rankings: Vec<Vec<VertexId>> = (0..cfg.num_machines as u32)
            .map(|part| {
                PolicyContext {
                    graph: &ds.graph,
                    partitioning: &partitioning,
                    part,
                    local_train: &train_of_part[part as usize],
                    fanouts: cfg.fanouts.clone(),
                    batch_size: cfg.batch_size,
                    seed: cfg.seed ^ 0x5eed,
                    oracle_counts: &[],
                }
                .rank(cfg.policy)
            })
            .collect();
        let v = secs(t);
        std::hint::black_box((scores, rankings));
        part_s.push(p);
        vip_s.push(v);
        rest_s.push(whole - p - v);
    }
    m.set("partition.s", median(&part_s));
    m.set("vip.s", median(&vip_s));
    m.set("setup.assemble_s", median(&rest_s));
    let Some(setup) = built else {
        unreachable!("at least one build")
    };
    setup
}

/// `(rows, inner, cols)` of each layer's two dense products for a
/// SAGE-shaped model over `mfg`: layer `l` multiplies its target rows
/// (`dims[l-1]` wide) into `dims[l]` columns.
pub fn layer_shapes(mfg: &Mfg, dims: &[usize]) -> Vec<(usize, usize, usize)> {
    (1..=mfg.num_hops())
        .map(|l| (mfg.layer_adj(l).num_targets, dims[l - 1], dims[l]))
        .collect()
}

/// Deterministic pseudo-random matrix in `[-1, 1)`.
fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut s = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect();
    Matrix::from_flat(rows, cols, data)
}

/// Throughput of the three dense kernels a SAGE layer runs, at the
/// workload's own layer shapes: `matmul` (forward, `X·W`), `t_matmul`
/// (weight gradient, `Xᵀ·G`) and `matmul_t` (input gradient, `G·Wᵀ`).
/// Each kernel's GFLOP/s is its total FLOPs over all layers divided by
/// the summed median time per layer.
pub fn kernel_gflops(shapes: &[(usize, usize, usize)], reps: usize, m: &mut Metrics) {
    let mut flops = 0.0;
    let mut secs_by_kernel = [0.0f64; 3];
    for (i, &(rows, inner, cols)) in shapes.iter().enumerate() {
        let x = filled(rows, inner, 3 * i as u64 + 1);
        let w = filled(inner, cols, 3 * i as u64 + 2);
        let g = filled(rows, cols, 3 * i as u64 + 3);
        flops += 2.0 * (rows * inner * cols) as f64;
        let kernels: [&dyn Fn() -> Matrix; 3] =
            [&|| x.matmul(&w), &|| x.t_matmul(&g), &|| g.matmul_t(&w)];
        for (k, run) in kernels.iter().enumerate() {
            let times: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(run());
                    secs(t)
                })
                .collect();
            secs_by_kernel[k] += median(&times);
        }
    }
    for (name, s) in [
        "tensor.matmul_gflops",
        "tensor.t_matmul_gflops",
        "tensor.matmul_t_gflops",
    ]
    .into_iter()
    .zip(secs_by_kernel)
    {
        m.set(name, flops / s / 1e9);
    }
}
