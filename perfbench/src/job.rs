//! The fit half of a workload: its definition, the set-up a user pays
//! once per job, timed fits, traced fits and the cross-backend checks.

use crate::layers::{wire_ledger, CoreLedger, TimedBackend, TimedSource, WireLedger, WireTaps};
use kmeans_cluster::{loopback_pair, Cluster, ClusterError, FitDistributed, Message, Transport};
use kmeans_cluster::{ClusterBackend, Worker};
use kmeans_core::assign::sum_shard_size_for;
use kmeans_core::driver::{ChunkedBackend, InMemoryBackend};
use kmeans_core::init::KMeansParallelConfig;
use kmeans_core::lloyd::LloydConfig;
use kmeans_core::minibatch::MiniBatchConfig;
use kmeans_core::model::{KMeans, KMeansModel};
use kmeans_core::pipeline::{KMeansParallel, Lloyd, MiniBatch};
use kmeans_data::{
    shard_block_file, write_block_file, BlockFileSource, ChunkedSource, InMemorySource, PointMatrix,
};
use kmeans_par::Parallelism;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Dimensionality of every workload's data.
pub const DIM: usize = 15;

/// Where a workload's timed fits run.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// `KMeans::fit` on a matrix loaded back from its block file.
    InMemory,
    /// `fit_distributed` over loopback `Worker::serve` threads.
    Distributed { workers: usize },
    /// `fit_chunked` on a budgeted `BlockFileSource`.
    Chunked { budget_bytes: u64 },
}

#[derive(Clone, Copy, Debug)]
pub enum Refine {
    Lloyd {
        iterations: usize,
    },
    MiniBatch {
        batch_size: usize,
        iterations: usize,
    },
}

/// One benchmark workload: a fit job, then serving its model.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub k: usize,
    /// Gaussian components of the generated mixture.
    pub components: usize,
    /// Distinct k-means seeds a run fits; the cost metrics are their mean.
    pub seeds: usize,
    pub mode: Mode,
    pub refine: Refine,
    /// Builder shard size (`None`: the executor default).
    pub shard_size: Option<usize>,
    /// Rows per block of the persisted SKMBLK01 file.
    pub block_rows: usize,
    /// Points per served predict (and cost) request.
    pub batch_points: usize,
    /// Whether every other served request is a cost query.
    pub mix_cost: bool,
    /// Hot-swap cadence during serving (`None`: no swaps).
    pub swap_interval: Option<Duration>,
    /// The two fixed open-loop rates, requests per second.
    pub rate_low: f64,
    pub rate_high: f64,
    /// The p99 limit `serve.sustained_qps` must meet, microseconds.
    pub p99_limit_us: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper-fit",
        n: 100_000,
        k: 100,
        components: 100,
        seeds: 8,
        mode: Mode::InMemory,
        refine: Refine::Lloyd { iterations: 10 },
        shard_size: None,
        block_rows: 1024,
        batch_points: 256,
        mix_cost: false,
        swap_interval: None,
        rate_low: 200.0,
        rate_high: 500.0,
        p99_limit_us: 50_000.0,
    },
    Workload {
        name: "dist-rounds",
        n: 4_096,
        k: 8,
        components: 256,
        seeds: 16,
        mode: Mode::Distributed { workers: 2 },
        refine: Refine::Lloyd { iterations: 5 },
        shard_size: Some(256),
        block_rows: 512,
        batch_points: 1,
        mix_cost: false,
        swap_interval: None,
        rate_low: 1000.0,
        rate_high: 4000.0,
        p99_limit_us: 25_000.0,
    },
    Workload {
        name: "ooc-minibatch",
        n: 200_000,
        k: 50,
        components: 50,
        seeds: 8,
        mode: Mode::Chunked {
            budget_bytes: 4 << 20,
        },
        refine: Refine::MiniBatch {
            batch_size: 1024,
            iterations: 100,
        },
        shard_size: None,
        block_rows: 1024,
        batch_points: 64,
        mix_cost: true,
        swap_interval: Some(Duration::from_millis(20)),
        rate_low: 400.0,
        rate_high: 1200.0,
        p99_limit_us: 50_000.0,
    },
];

impl Refine {
    /// The iteration cap, which every fit must reach: a fit that stops
    /// early makes fewer passes (and round trips) and moves `fit_s`.
    pub fn iterations(&self) -> usize {
        match *self {
            Refine::Lloyd { iterations } | Refine::MiniBatch { iterations, .. } => iterations,
        }
    }
}

impl Workload {
    pub fn builder(&self, seed: u64) -> KMeans {
        let b = KMeans::params(self.k)
            .init(KMeansParallel(KMeansParallelConfig::default()))
            .seed(seed)
            .parallelism(Parallelism::Sequential);
        let b = match self.refine {
            Refine::Lloyd { iterations } => b.refine(Lloyd(LloydConfig {
                max_iterations: iterations,
                tol: 0.0,
            })),
            Refine::MiniBatch {
                batch_size,
                iterations,
            } => b.refine(MiniBatch(MiniBatchConfig {
                batch_size,
                iterations,
            })),
        };
        match self.shard_size {
            Some(s) => b.shard_size(s),
            None => b,
        }
    }
}

pub type WorkerHandles = Vec<JoinHandle<Result<(), ClusterError>>>;

/// A connected loopback cluster and its worker threads.
pub struct LiveCluster {
    pub cluster: Cluster,
    handles: WorkerHandles,
    pub taps: Option<WireTaps>,
}

impl LiveCluster {
    /// Spawns one `Worker::serve` thread (Sequential) per part and
    /// connects a cluster to them, optionally tapping both ends of every
    /// connection.
    pub fn spawn(parts: Vec<PointMatrix>, block_rows: usize, tap: bool) -> Result<Self, String> {
        let taps = tap.then(|| WireTaps::new(parts.len()));
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut handles = Vec::new();
        for (w, part) in parts.into_iter().enumerate() {
            let source = InMemorySource::new(part, block_rows).map_err(|e| e.to_string())?;
            let (coordinator_side, worker_side) = loopback_pair::<Message>();
            let worker_taps = taps.clone();
            handles.push(std::thread::spawn(move || {
                let mut worker = Worker::new(source, Parallelism::Sequential);
                match worker_taps {
                    Some(t) => worker.serve(&mut t.worker(w, worker_side)),
                    None => {
                        let mut side = worker_side;
                        worker.serve(&mut side)
                    }
                }
            }));
            transports.push(match &taps {
                Some(t) => Box::new(t.coordinator(w, Box::new(coordinator_side))),
                None => Box::new(coordinator_side),
            });
        }
        let cluster = Cluster::new(transports).map_err(|e| format!("cluster: {e}"))?;
        Ok(LiveCluster {
            cluster,
            handles,
            taps,
        })
    }

    pub fn shutdown(mut self) -> Result<(), String> {
        self.cluster.shutdown();
        for h in self.handles {
            h.join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker session failed: {e}"))?;
        }
        Ok(())
    }
}

/// Splits `points` into `workers` contiguous parts whose boundaries sit
/// on the accumulation grid of `shard_size`, as distributed fits
/// require.
pub fn aligned_parts(points: &PointMatrix, workers: usize, shard_size: usize) -> Vec<PointMatrix> {
    let n = points.len();
    let dim = points.dim();
    let align = sum_shard_size_for(shard_size, n);
    let per = n.div_ceil(workers).div_ceil(align) * align;
    (0..workers)
        .map(|w| {
            let start = (w * per).min(n);
            let end = if w + 1 == workers {
                n
            } else {
                ((w + 1) * per).min(n)
            };
            PointMatrix::from_flat(points.as_slice()[start * dim..end * dim].to_vec(), dim)
                .expect("a row range of a valid matrix")
        })
        .collect()
}

/// Reads every block of `source` into one matrix.
fn load_all(source: &dyn ChunkedSource) -> Result<PointMatrix, String> {
    let mut all = PointMatrix::with_capacity(source.dim(), source.len());
    let mut buf = source.block_buffer();
    for b in 0..source.num_blocks() {
        source.read_block(b, &mut buf).map_err(|e| e.to_string())?;
        for row in buf.rows() {
            all.push(row).map_err(|e| e.to_string())?;
        }
    }
    Ok(all)
}

/// What the timed fits run on.
pub enum Target {
    InMemory(PointMatrix),
    Distributed(Box<LiveCluster>),
    Chunked(Arc<BlockFileSource>),
}

impl Target {
    pub fn shutdown(self) -> Result<(), String> {
        match self {
            Target::Distributed(live) => live.shutdown(),
            _ => Ok(()),
        }
    }
}

/// The data half of a job's set-up: persist the generated points as an
/// SKMBLK01 file and bring them back in the form the fit consumes.
pub fn data_setup(
    w: &Workload,
    points: &PointMatrix,
    dir: &Path,
    tap: bool,
) -> Result<Target, String> {
    let path = dir.join("data.skmb");
    write_block_file(&path, points, w.block_rows).map_err(|e| format!("persist: {e}"))?;
    let block_bytes = (w.block_rows * points.dim() * 8) as u64;
    match w.mode {
        Mode::InMemory => {
            let source = BlockFileSource::open(&path, block_bytes).map_err(|e| e.to_string())?;
            Ok(Target::InMemory(load_all(&source)?))
        }
        Mode::Distributed { workers } => {
            let shard = w
                .shard_size
                .unwrap_or(kmeans_par::ShardSpec::default().shard_size());
            let align = sum_shard_size_for(shard, points.len());
            let prefix = dir.join("shard");
            let manifest = shard_block_file(&path, &prefix.to_string_lossy(), workers, align)
                .map_err(|e| format!("shard: {e}"))?;
            let mut parts = Vec::new();
            for entry in &manifest.shards {
                let source =
                    BlockFileSource::open(&entry.path, block_bytes).map_err(|e| e.to_string())?;
                parts.push(load_all(&source)?);
            }
            let mut live = LiveCluster::spawn(parts, w.block_rows, tap)?;
            live.cluster.plan(shard).map_err(|e| format!("plan: {e}"))?;
            Ok(Target::Distributed(Box::new(live)))
        }
        Mode::Chunked { budget_bytes } => Ok(Target::Chunked(Arc::new(
            BlockFileSource::open(&path, budget_bytes).map_err(|e| e.to_string())?,
        ))),
    }
}

/// Counters one fit moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FitCounters {
    pub round_trips: u64,
    pub bytes_on_wire: u64,
    pub data_passes: u64,
    pub block_loads: u64,
    pub cache_hits: u64,
}

#[derive(Clone)]
pub struct FitOutcome {
    pub model: KMeansModel,
    pub wall: Duration,
    pub counters: FitCounters,
}

/// Per-fit layer ledger of a traced fit.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedLayers {
    pub core: CoreLedger,
    /// Fit start to the refiner's input check, and the rest of the fit.
    pub seed: Duration,
    pub refine: Duration,
    pub wire: Option<WireLedger>,
    pub read_block: Option<(Duration, u64)>,
    pub peak_resident_bytes: u64,
}

fn wire_bytes(cluster: &Cluster) -> u64 {
    cluster.bytes_sent() + cluster.bytes_received()
}

fn residency_counters(target: &Target) -> (u64, u64) {
    match target {
        Target::Chunked(src) => {
            let r = src.residency();
            (r.loads, r.hits)
        }
        _ => (0, 0),
    }
}

/// One untraced fit through the user-facing entry point.
pub fn fit_once(w: &Workload, seed: u64, target: &mut Target) -> Result<FitOutcome, String> {
    let builder = w.builder(seed);
    let (loads0, hits0) = residency_counters(target);
    let bytes0 = match target {
        Target::Distributed(live) => wire_bytes(&live.cluster),
        _ => 0,
    };
    let t = Instant::now();
    let model = match target {
        Target::InMemory(points) => builder.fit(points),
        Target::Distributed(live) => builder.fit_distributed(&mut live.cluster),
        Target::Chunked(src) => builder
            .data_source_shared(Arc::clone(src) as Arc<dyn ChunkedSource>)
            .fit_chunked(),
    }
    .map_err(|e| format!("fit: {e}"))?;
    let wall = t.elapsed();
    let counters = counters_after(target, bytes0, loads0, hits0);
    Ok(FitOutcome {
        model,
        wall,
        counters,
    })
}

fn counters_after(target: &Target, bytes0: u64, loads0: u64, hits0: u64) -> FitCounters {
    let (loads, hits) = residency_counters(target);
    let mut c = FitCounters {
        block_loads: loads - loads0,
        cache_hits: hits - hits0,
        ..FitCounters::default()
    };
    if let Target::Distributed(live) = target {
        c.round_trips = live.cluster.round_trips();
        c.data_passes = live.cluster.data_passes();
        c.bytes_on_wire = wire_bytes(&live.cluster) - bytes0;
    }
    c
}

/// One traced fit: the same job through `KMeans::fit_round_backend`
/// with every layer's public trait wrapped in a timing forwarder.
pub fn fit_traced(
    w: &Workload,
    seed: u64,
    target: &mut Target,
) -> Result<(FitOutcome, TracedLayers), String> {
    let builder = w.builder(seed);
    let exec = builder.executor();
    let (loads0, hits0) = residency_counters(target);
    let mut layers = TracedLayers::default();
    let (model, start, wall, bytes0) = match target {
        Target::InMemory(points) => {
            let mut inner = InMemoryBackend::new(points, &exec);
            let mut timed = TimedBackend::new(&mut inner);
            let start = Instant::now();
            let model = builder.fit_round_backend(&mut timed);
            let wall = start.elapsed();
            layers.core = timed.ledger();
            (model, start, wall, 0)
        }
        Target::Distributed(live) => {
            let bytes0 = wire_bytes(&live.cluster);
            let taps = live
                .taps
                .clone()
                .ok_or("traced fit needs a tapped cluster")?;
            taps.take();
            taps.arm(true);
            let shard = exec.shard_spec().shard_size();
            let mut inner = ClusterBackend::deferred(&mut live.cluster, shard);
            let mut timed = TimedBackend::new(&mut inner);
            let start = Instant::now();
            let model = builder.fit_round_backend(&mut timed);
            let wall = start.elapsed();
            taps.arm(false);
            layers.core = timed.ledger();
            let (log, compute) = taps.take();
            layers.wire = Some(wire_ledger(&log, &compute));
            (model, start, wall, bytes0)
        }
        Target::Chunked(src) => {
            let timed_source = TimedSource::new(Arc::clone(src) as Arc<dyn ChunkedSource>);
            let mut inner = ChunkedBackend::new(&timed_source, &exec);
            let mut timed = TimedBackend::new(&mut inner);
            let start = Instant::now();
            let model = builder.fit_round_backend(&mut timed);
            let wall = start.elapsed();
            layers.core = timed.ledger();
            layers.read_block = Some(timed_source.take());
            layers.peak_resident_bytes = timed_source.residency().peak_bytes;
            (model, start, wall, 0)
        }
    };
    let model = model.map_err(|e| format!("traced fit: {e}"))?;
    layers.refine = layers
        .core
        .refine_start
        .map_or(Duration::ZERO, |r| start + wall - r);
    layers.seed = wall - layers.refine;
    let counters = counters_after(target, bytes0, loads0, hits0);
    Ok((
        FitOutcome {
            model,
            wall,
            counters,
        },
        layers,
    ))
}

/// Whether two models are bit-identical in centers, seed cost and cost.
pub fn same_model(a: &KMeansModel, b: &KMeansModel) -> bool {
    let bits = |m: &PointMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(a.centers()) == bits(b.centers())
        && a.cost().to_bits() == b.cost().to_bits()
        && a.init_stats().seed_cost.to_bits() == b.init_stats().seed_cost.to_bits()
}

/// Fits the same job on the two backends the workload does not time
/// (in-memory, chunked, distributed: whichever two are left) and checks
/// each is bit-identical to `reference`. Returns the failed comparisons.
pub fn cross_backend_check(
    w: &Workload,
    seed: u64,
    points: &PointMatrix,
    reference: &KMeansModel,
) -> Result<Vec<String>, String> {
    let builder = w.builder(seed);
    let mut failures = Vec::new();
    if !matches!(w.mode, Mode::InMemory) {
        let m = builder
            .fit(points)
            .map_err(|e| format!("in-memory fit: {e}"))?;
        if !same_model(&m, reference) {
            failures.push("in-memory fit differs".to_string());
        }
    }
    if !matches!(w.mode, Mode::Chunked { .. }) {
        let source =
            InMemorySource::new(points.clone(), w.block_rows).map_err(|e| e.to_string())?;
        let m = builder
            .clone()
            .data_source(source)
            .fit_chunked()
            .map_err(|e| format!("chunked fit: {e}"))?;
        if !same_model(&m, reference) {
            failures.push("chunked fit differs".to_string());
        }
    }
    if !matches!(w.mode, Mode::Distributed { .. }) {
        let shard = builder.executor().shard_spec().shard_size();
        let mut live = LiveCluster::spawn(aligned_parts(points, 2, shard), w.block_rows, false)?;
        let m = builder
            .fit_distributed(&mut live.cluster)
            .map_err(|e| format!("distributed fit: {e}"));
        live.shutdown()?;
        if !same_model(&m?, reference) {
            failures.push("distributed fit differs".to_string());
        }
    }
    Ok(failures)
}
