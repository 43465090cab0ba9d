//! `serve_products`: `InferenceServer::run` for machine 0 of a k=2
//! products deployment. SAGE 50→256→256→16 with inference fanouts
//! 10/10/10; a VIP static tier (α=0.08) and an LRU overlay each hold half
//! of an α=0.16 row budget. The trace is an open loop: Poisson arrivals
//! at a fixed virtual rate, Pareto skew and bursty re-references, with a
//! queue bound no trace can reach, so nothing is rejected.

use crate::checks::{logits_checksum, transparent, Answer, Verdict};
use crate::common::{
    kernel_gflops, layer_shapes, products, repeat_for, secs, setup_split, DATASET_SEED,
};
use crate::replay::{overhead_pct, Replay, Stage, UnitClock};
use crate::report::{peak_rss_mb, Metrics, RunResult, MIB};
use crate::stats::{median, nearest_rank, tail_percentile};
use crate::{Args, Fault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_core::policies::CachePolicy;
use spp_core::{CacheBuilder, PartitionedFeatureStore, StaticCache};
use spp_gnn::{Arch, GnnModel};
use spp_graph::{Dataset, QuantScheme, VertexId};
use spp_pool::WorkerPool;
use spp_runtime::{CostModel, DistributedSetup, SetupConfig};
use spp_sampler::{batch_stream_seed, Fanouts, Mfg, NodeWiseSampler};
use spp_serve::{
    generate_open_loop, InferenceRequest, InferenceServer, ServeConfig, ServeReport, TraceConfig,
};
use std::time::Instant;

const MACHINES: usize = 2;
const SETUP_REPEATS: usize = 3;
/// Requests per trace: at least 1,000, so ten samples lie beyond p99.
const TRACE_REQUESTS: usize = 4_000;
/// Total cache budget as a replication factor, split evenly between the
/// static tier and the overlay.
const ALPHA_TOTAL: f64 = 0.16;
const HIDDEN: usize = 256;

fn fanouts() -> Fanouts {
    Fanouts::new(vec![10, 10, 10])
}

fn setup_config() -> SetupConfig {
    SetupConfig {
        num_machines: MACHINES,
        fanouts: fanouts(),
        batch_size: 64,
        policy: CachePolicy::VipAnalytic,
        alpha: ALPHA_TOTAL / 2.0,
        beta: 0.5,
        cache_scheme: QuantScheme::F32,
        vip_reorder: true,
        seed: DATASET_SEED,
    }
}

fn serve_config(seed: u64, overlay_capacity: usize) -> ServeConfig {
    ServeConfig {
        max_batch_size: 64,
        max_delay: 2e-3,
        queue_capacity: TRACE_REQUESTS,
        overlay_capacity,
        overlay_scheme: QuantScheme::F32,
        wire_scheme: QuantScheme::F32,
        fanouts: fanouts(),
        seed,
        pool: WorkerPool::global(),
        cost: CostModel::mini_calibrated(),
    }
}

/// Overlay rows: the α=0.16 budget minus the static tier's α=0.08.
fn overlay_rows(n: usize) -> usize {
    CacheBuilder::new(ALPHA_TOTAL, n, MACHINES).capacity()
        - CacheBuilder::new(ALPHA_TOTAL / 2.0, n, MACHINES).capacity()
}

fn trace(n: usize, seed: u64) -> Vec<InferenceRequest> {
    generate_open_loop(&TraceConfig {
        num_requests: TRACE_REQUESTS,
        num_vertices: n,
        arrival_rate: 12_000.0,
        skew: 2.0,
        burstiness: 0.6,
        seed: seed ^ 0x5eed_f00d,
    })
}

fn model(ds: &Dataset, seed: u64) -> GnnModel {
    GnnModel::new(
        Arch::Sage,
        &[ds.features.dim(), HIDDEN, HIDDEN, ds.num_classes],
        seed ^ 0x6e17,
    )
}

/// Every completion's answer, sorted by request id.
fn answers(report: &ServeReport) -> Vec<Answer> {
    let mut a: Vec<Answer> = report
        .completions
        .iter()
        .map(|c| (c.id, c.label, c.checksum))
        .collect();
    a.sort_unstable();
    a
}

/// The same deployment with no static cache, for the transparency check:
/// identical partitioning, layout and vertex ids.
fn uncached(setup: &DistributedSetup) -> DistributedSetup {
    let mut plain = setup.clone();
    plain.stores = (0..setup.num_machines() as u32)
        .map(|p| {
            PartitionedFeatureStore::build(
                p,
                &setup.layout,
                &setup.dataset.features,
                setup.config.beta,
                StaticCache::empty(),
            )
        })
        .collect();
    plain.config.alpha = 0.0;
    plain.config.policy = CachePolicy::None;
    plain
}

pub fn run(args: &Args) -> RunResult {
    let ds = products();
    eprintln!(
        "serve_products: {} vertices, {TRACE_REQUESTS} requests, k={MACHINES}, overlay {} rows, \
         pool workers {}",
        ds.num_vertices(),
        overlay_rows(ds.num_vertices()),
        WorkerPool::global().workers()
    );
    if args.trace {
        traced(args, &ds)
    } else {
        untraced(args, &ds)
    }
}

/// Checks on one served trace: nothing lost, tiers partition lookups.
fn check_report(v: &mut Verdict, report: &ServeReport) {
    v.expect(
        "completions + rejections == requests",
        report.total_requests() == TRACE_REQUESTS,
        || {
            format!(
                "{} of {TRACE_REQUESTS} accounted for",
                report.total_requests()
            )
        },
    );
    let c = report.cache;
    v.expect(
        "tier hits partition lookups",
        c.static_hits + c.overlay_hits + c.misses == c.lookups,
        || format!("{c:?}"),
    );
}

fn untraced(args: &Args, ds: &Dataset) -> RunResult {
    let n = ds.num_vertices();
    let requests = trace(n, args.seed);
    let cfg = serve_config(args.seed, overlay_rows(n));
    let mut m = Metrics::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let setup = DistributedSetup::build(ds, setup_config());
        let model = model(&setup.dataset, args.seed);
        InferenceServer::new(&setup, &model, 0, cfg.clone()).run(&requests);
        setup_s.push(secs(t));
        built = Some((setup, model));
    }
    let Some((setup, model)) = built else {
        unreachable!("at least one set-up")
    };
    m.set("setup_s", median(&setup_s));

    // Only the first pass's report is kept, so memory does not grow with
    // the number of passes; later passes are compared with it as they end.
    let mut first: Option<(ServeReport, Vec<Answer>)> = None;
    let mut identical = true;
    let passes = repeat_for(args.seconds, 1, |_| {
        let server = InferenceServer::new(&setup, &model, 0, cfg.clone());
        let t = Instant::now();
        let report = server.run(&requests);
        let wall = secs(t);
        let counts = (report.completions.len(), report.rejections.len());
        let a = answers(&report);
        match &first {
            None => first = Some((report, a)),
            Some((f, fa)) => identical &= report.cache == f.cache && a == *fa,
        }
        (wall, counts)
    });
    let rss = peak_rss_mb();
    let walls: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|(s, (done, _))| *done as f64 / s)
        .collect();
    m.set("epoch_s", median(&walls));
    m.set("requests_per_s", median(&rates));
    m.set("memory_multiple", setup.memory_multiple());
    m.set("peak_rss_mb", rss);
    let attempted = (TRACE_REQUESTS * passes.len()) as u64;
    let failed: u64 = passes
        .iter()
        .map(|(_, (_, rejected))| *rejected as u64)
        .sum();
    eprintln!(
        "serve_products: {} passes {:.4?} s, {:.0} req/s",
        passes.len(),
        walls,
        median(&rates)
    );

    let mut v = Verdict::default();
    let Some((first, mut got)) = first else {
        unreachable!("at least one pass")
    };
    check_report(&mut v, &first);
    v.expect(
        "every pass serves identical answers and cache counts",
        identical,
        || "passes over the same trace differ".into(),
    );
    let plain = uncached(&setup);
    let reference =
        InferenceServer::new(&plain, &model, 0, serve_config(args.seed, 0)).run(&requests);
    if args.inject == Some(Fault::Checksum) {
        if let Some(a) = got.first_mut() {
            a.2 ^= 1;
        }
    }
    v.check(
        "caching is transparent (same answers as an uncached deployment)",
        transparent(&got, &answers(&reference)),
    );
    RunResult {
        correct: v.passed(),
        attempted,
        failed,
        metrics: m,
    }
}

/// One served batch rebuilt from the completions: its id, its seeds in
/// first-occurrence order, and each request's `(row, checksum)`.
struct Batch {
    id: u64,
    seeds: Vec<VertexId>,
    rows: Vec<(usize, u64)>,
}

fn batches_of(report: &ServeReport) -> Vec<Batch> {
    let mut out: Vec<Batch> = Vec::new();
    for c in &report.completions {
        if out.last().is_none_or(|b| b.id != c.batch_id) {
            out.push(Batch {
                id: c.batch_id,
                seeds: Vec::new(),
                rows: Vec::new(),
            });
        }
        let Some(b) = out.last_mut() else { continue };
        let row = match b.seeds.iter().position(|&s| s == c.vertex) {
            Some(i) => i,
            None => {
                b.seeds.push(c.vertex);
                b.seeds.len() - 1
            }
        };
        b.rows.push((row, c.checksum));
    }
    out
}

/// Replays every batch through sample, plan, the owners' serve, gather
/// and `GnnModel::infer`; returns the batch count, how many requests got
/// a different checksum than the server gave them, and the last MFG.
fn replay_batches(
    setup: &DistributedSetup,
    model: &GnnModel,
    seed: u64,
    batches: &[Batch],
    traced: bool,
    replay: &mut Replay,
) -> (u64, usize, Option<Mfg>) {
    let sampler = NodeWiseSampler::new(&setup.dataset.graph, fanouts());
    let store = &setup.stores[0];
    let mut mismatches = 0usize;
    let mut last = None;
    for b in batches {
        let mut clock = UnitClock::start(traced);
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(seed, 0, b.id));
        let mfg = clock.time(Stage::Sample, || sampler.sample(&b.seeds, &mut rng));
        let plan = clock.time(Stage::Plan, || store.plan(&mfg.nodes));
        let mut served: Vec<Option<spp_graph::FeatureMatrix>> = plan
            .remote
            .iter()
            .enumerate()
            .map(|(owner, reqs)| {
                let ids: Vec<VertexId> = reqs.iter().map(|&(_, v)| v).collect();
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
        let logits = clock.time(Stage::Forward, || model.infer(x, &mfg));
        mismatches += b
            .rows
            .iter()
            .filter(|&&(row, sum)| logits_checksum(logits.row(row)) != sum)
            .count();
        replay.finish(clock, mfg.num_nodes());
        last = Some(mfg);
    }
    (batches.len() as u64, mismatches, last)
}

fn traced(args: &Args, ds: &Dataset) -> RunResult {
    let n = ds.num_vertices();
    let requests = trace(n, args.seed);
    let mut m = Metrics::default();
    let setup = setup_split(ds, &setup_config(), 2, &mut m);
    let model = model(&setup.dataset, args.seed);
    // The server folds its virtual-time pipeline into per-stage sketches
    // only while telemetry records; it records for this one untimed
    // production run and never while anything is timed.
    spp_telemetry::set_enabled(true);
    let mut report =
        InferenceServer::new(&setup, &model, 0, serve_config(args.seed, overlay_rows(n)))
            .run(&requests);
    spp_telemetry::set_enabled(false);
    eprintln!(
        "serve_products: trace spans {:.4} virtual s, makespan {:.4} s, stages {:?}",
        requests.last().map_or(0.0, |r| r.arrival),
        report.makespan,
        report
            .stage_sketches
            .iter()
            .map(|(s, _)| s.as_str())
            .collect::<Vec<_>>()
    );
    if args.inject == Some(Fault::Checksum) {
        if let Some(c) = report.completions.first_mut() {
            c.checksum ^= 1;
        }
    }
    let mut v = Verdict::default();
    check_report(&mut v, &report);

    let c = report.cache;
    m.set(
        "serve.batch_size_mean",
        report.completions.len() as f64 / report.batches.len().max(1) as f64,
    );
    m.set("serve.static_hit_rate", c.static_hit_rate());
    m.set("serve.overlay_hit_rate", c.overlay_hit_rate());
    m.set("serve.overlay_evictions", c.evictions as f64);
    m.set("comm_mb", c.bytes_fetched as f64 / MIB);
    for (stage, sketch) in &report.stage_sketches {
        let name = match stage.as_str() {
            "serve.sample" => "serve.des_p50_ms.sample",
            "serve.fetch" => "serve.des_p50_ms.fetch",
            "serve.copy" => "serve.des_p50_ms.copy",
            "serve.infer" => "serve.des_p50_ms.infer",
            _ => continue,
        };
        m.set(name, sketch.quantile_secs(0.5) * 1e3);
    }
    let mut latency: Vec<f64> = report.completions.iter().map(|c| c.latency * 1e3).collect();
    latency.sort_by(f64::total_cmp);
    v.expect(
        "trace long enough for a p99",
        tail_percentile(latency.len()).is_some_and(|p| p >= 99.0),
        || format!("{} completions", latency.len()),
    );
    if !latency.is_empty() {
        m.set("latency_p50_ms", nearest_rank(&latency, 50.0));
        m.set("latency_p99_ms", nearest_rank(&latency, 99.0));
    }

    let batches = batches_of(&report);
    let mut replay = Replay::default();
    let (mut attempted, mut mismatches) = (0u64, 0usize);
    let mut last_mfg = None;
    let overhead = overhead_pct(args.seconds * 0.8, 2, |on| {
        let (count, bad, mfg) =
            replay_batches(&setup, &model, args.seed, &batches, on, &mut replay);
        attempted += count;
        mismatches += bad;
        last_mfg = mfg;
    });
    replay.emit(&mut m);
    m.set("trace.overhead_pct", overhead);
    if let Some(mfg) = &last_mfg {
        kernel_gflops(&layer_shapes(mfg, model.dims()), 5, &mut m);
    }
    eprintln!(
        "serve_products traced: {} batches, mean batch {:.2} ms, overhead {overhead:.2}%",
        batches.len(),
        replay.whole_mean_ms()
    );
    v.expect(
        "replayed batches reproduce every served checksum",
        mismatches == 0,
        || format!("{mismatches} requests differ"),
    );
    v.expect(
        "stages sum to the batch",
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
