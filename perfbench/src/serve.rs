//! The serve half of a workload: model set-up, the open-loop load
//! generator, windowed latency, the sustained-rate search and reply
//! verification.

use crate::stats::{median_of, percentile};
use kmeans_cluster::ClusterError;
use kmeans_core::model::{KMeansModel, PreparedPredictor};
use kmeans_data::{load_model_file, ModelRecord, PointMatrix};
use kmeans_par::Executor;
use kmeans_serve::{spawn_tcp_serve, ServeClient, ServeEngine, ServeStats};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generator connections (and threads): the box's two cores.
pub const CONNECTIONS: usize = 2;

/// Latency windows per fixed rate; the two rates alternate, one window
/// of each per round, between the round's fits.
pub const WINDOWS: usize = 20;

/// Predicts per latency window: its p90 then has ten samples beyond it,
/// and the p99 pooled over [`WINDOWS`] windows has ten too.
const WINDOW_PREDICTS: f64 = 100.0;

/// Sub-windows per sustained-rate probe; a probe passes on a majority.
const VOTES: usize = 3;

/// Length of one sustained-rate probe window: at 10% over capacity the
/// backlog outgrows a 25 ms limit within it.
const PROBE_WINDOW: Duration = Duration::from_millis(300);

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server with its engine handle and client connections.
pub struct Served {
    pub engine: ServeEngine,
    server: JoinHandle<Result<(), ClusterError>>,
    addr: String,
    pub clients: Vec<ServeClient>,
}

/// The model half of a job's set-up: save the model as SKMMDL01, load
/// it into a fresh engine, bind the server and connect the first client.
pub fn model_setup(model: &KMeansModel, dir: &Path) -> Result<Served, String> {
    let path = dir.join("model.skmm");
    model.save(&path).map_err(|e| format!("save model: {e}"))?;
    let record = load_model_file(&path).map_err(|e| format!("load model: {e}"))?;
    let engine = ServeEngine::new(record, Executor::sequential()).map_err(|e| e.to_string())?;
    let (addr, server) =
        spawn_tcp_serve(engine.clone(), Some(IO_TIMEOUT)).map_err(|e| format!("bind: {e}"))?;
    let addr = addr.to_string();
    let client = ServeClient::connect(&addr, Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(Served {
        engine,
        server,
        addr,
        clients: vec![client],
    })
}

impl Served {
    pub fn connect_all(&mut self) -> Result<(), String> {
        while self.clients.len() < CONNECTIONS {
            let c =
                ServeClient::connect(&self.addr, Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
            self.clients.push(c);
        }
        Ok(())
    }

    /// Stops the server and waits for its accept loop to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let first = self.clients.remove(0);
        self.clients.clear();
        first.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// What a local predict of one pool batch gives under one model.
struct Expected {
    labels: Vec<u32>,
    cost_bits: u64,
}

/// The request pool, the two models the swaps alternate between, and
/// each batch's expected reply under each.
pub struct ServeCtx {
    pub pool: Vec<PointMatrix>,
    records: [ModelRecord; 2],
    expected: Vec<[Expected; 2]>,
    mix_cost: bool,
    swap_interval: Option<Duration>,
    /// Swaps performed so far on this server (revision = swaps + 1).
    swaps: u64,
}

impl ServeCtx {
    /// Model A is the fitted model; model B has its centers reversed and
    /// shifted, so a reply checked against the wrong revision fails.
    pub fn new(
        model: &KMeansModel,
        points: &PointMatrix,
        batch_points: usize,
        mix_cost: bool,
        swap_interval: Option<Duration>,
    ) -> Self {
        let a = model.to_record();
        let dim = a.centers.dim();
        let mut flat = Vec::with_capacity(a.centers.as_slice().len());
        for c in (0..a.centers.len()).rev() {
            flat.extend(a.centers.row(c).iter().map(|v| v + 0.25));
        }
        let b = ModelRecord {
            centers: PointMatrix::from_flat(flat, dim).expect("same shape as model A"),
            ..a.clone()
        };
        let batches = (points.len() / batch_points).clamp(1, 64);
        let pool: Vec<PointMatrix> = (0..batches)
            .map(|i| {
                let rows = &points.as_slice()[i * batch_points * dim..(i + 1) * batch_points * dim];
                PointMatrix::from_flat(rows.to_vec(), dim).expect("a row range")
            })
            .collect();
        let local = [
            PreparedPredictor::new(a.centers.clone(), Executor::sequential()),
            PreparedPredictor::new(b.centers.clone(), Executor::sequential()),
        ];
        let expected = pool
            .iter()
            .map(|batch| {
                local.each_ref().map(|p| Expected {
                    labels: p.predict(batch).expect("pool matches the model"),
                    cost_bits: p.cost_of(batch).expect("pool matches the model").to_bits(),
                })
            })
            .collect();
        ServeCtx {
            pool,
            records: [a, b],
            expected,
            mix_cost,
            swap_interval,
            swaps: 0,
        }
    }

    /// A latency window lasts `floor`, or long enough for
    /// [`WINDOW_PREDICTS`] predicts at `rate` (half the requests are
    /// cost queries when they are mixed in).
    pub fn window_length(&self, rate: f64, floor: Duration) -> Duration {
        let predict_rate = if self.mix_cost { rate / 2.0 } else { rate };
        floor.max(Duration::from_secs_f64(WINDOW_PREDICTS / predict_rate))
    }
}

/// Checks a reply against a local predict of the revision it names:
/// revision 1 and every odd revision are model A, even ones model B.
fn check(
    expected: &[[Expected; 2]],
    batch: usize,
    revision: u64,
    labels: Option<&[u32]>,
    cost: f64,
) -> Option<String> {
    let want = &expected[batch][((revision.max(1) - 1) % 2) as usize];
    if labels.is_some_and(|l| l != want.labels) {
        return Some(format!(
            "batch {batch} revision {revision}: served labels differ from a local predict"
        ));
    }
    (cost.to_bits() != want.cost_bits).then(|| {
        format!(
            "batch {batch} revision {revision}: served cost {cost} differs from a local cost_of"
        )
    })
}

/// What one open-loop window observed.
#[derive(Default)]
pub struct Phase {
    /// Latency of successful predicts from their due time, µs.
    pub predict_us: Vec<f64>,
    /// Latency of every read from its due time, µs (failures: infinite).
    read_us: Vec<f64>,
    /// How late each request was sent, µs.
    pub lag_us: Vec<f64>,
    /// The largest lag of a lane's last request, µs.
    end_lag_us: f64,
    pub swap_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Whether a lane fell too far behind and stopped sending.
    overloaded: bool,
    /// Replies that differ from a local predict, and swaps that
    /// installed an unexpected revision.
    pub mismatches: Vec<String>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.predict_us.extend(other.predict_us);
        self.read_us.extend(other.read_us);
        self.lag_us.extend(other.lag_us);
        self.end_lag_us = self.end_lag_us.max(other.end_lag_us);
        self.swap_ms.extend(other.swap_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.overloaded |= other.overloaded;
        self.mismatches.extend(other.mismatches);
    }

    /// Percentiles `ps` of predict latency, µs.
    fn predict_percentiles<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        let mut v = self.predict_us.clone();
        v.sort_by(f64::total_cmp);
        ps.map(|p| percentile(&v, p))
    }

    /// One-line summary for the run log.
    pub fn describe(&self, rate: f64) -> String {
        let [p50, p99] = self.predict_percentiles([50.0, 99.0]);
        let mut lag = self.lag_us.clone();
        lag.sort_by(f64::total_cmp);
        format!(
            "{rate:.1}/s: {} requests, p50 {p50:.1} us, p99 {p99:.1} us, lag p50 {:.1} us, \
             end lag {:.1} us, failed {}{}",
            self.attempted,
            percentile(&lag, 50.0),
            self.end_lag_us,
            self.failed,
            if self.overloaded { ", overloaded" } else { "" }
        )
    }

    /// Whether the window met the p99 limit without a growing backlog;
    /// a failed request counts as a miss.
    fn meets(&self, p99_limit_us: f64) -> bool {
        let mut v = self.read_us.clone();
        v.sort_by(f64::total_cmp);
        !self.overloaded
            && self.failed == 0
            && percentile(&v, 99.0) <= p99_limit_us
            && self.end_lag_us <= p99_limit_us
    }
}

enum Op {
    Predict(usize),
    Cost(usize),
    Swap,
}

fn op_at(j: usize, swap_every: Option<usize>, pool: usize, mix_cost: bool) -> Op {
    if j > 0 && swap_every.is_some_and(|every| j.is_multiple_of(every)) {
        return Op::Swap;
    }
    let batch = (j / CONNECTIONS) % pool;
    if mix_cost && (j / CONNECTIONS) % 2 == 1 {
        Op::Cost(batch)
    } else {
        Op::Predict(batch)
    }
}

/// How far behind schedule a lane may fall before the window counts as
/// overloaded and stops: four times the p99 limit.
pub fn give_up(p99_limit_us: f64) -> Duration {
    Duration::from_secs_f64(4.0 * p99_limit_us / 1e6)
}

/// Asks the kernel to end the calling thread's timed sleeps on time: the
/// default 50 µs timer slack would otherwise show as generator lag.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and changes only
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Runs an open loop at `rate` requests per second for `duration`:
/// request `j` is due at `j / rate`, connection `j mod 2` sends it, and
/// its latency is timed from the due time. Swaps ride connection 0 in
/// schedule order, so revisions are assigned deterministically. Every
/// reply is checked as it arrives. A lane that falls more than `give_up`
/// behind its schedule stops sending: the window is then overloaded,
/// and the rest of its schedule is dropped.
pub fn open_loop(
    ctx: &mut ServeCtx,
    clients: &mut [ServeClient],
    rate: f64,
    duration: Duration,
    give_up: Duration,
) -> Phase {
    let total = (rate * duration.as_secs_f64()).ceil().max(1.0) as usize;
    // An even swap period keeps every swap on connection 0.
    let swap_every = ctx.swap_interval.map(|interval| {
        let per_swap = rate * interval.as_secs_f64() / CONNECTIONS as f64;
        (per_swap.round() as usize).max(1) * CONNECTIONS
    });
    let pool = ctx.pool.len();
    let mix_cost = ctx.mix_cost;
    let start = Instant::now() + Duration::from_millis(2);
    let (records, points, expected) = (&ctx.records, &ctx.pool, &ctx.expected);
    let mut swaps = ctx.swaps;
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut swap_lane = Some(&mut swaps);
        for (lane, client) in clients.iter_mut().enumerate() {
            let mut swaps = swap_lane.take();
            handles.push(scope.spawn(move || {
                tighten_timer_slack();
                let mut out = Phase::default();
                for j in (lane..total).step_by(CONNECTIONS) {
                    let due = start + Duration::from_secs_f64(j as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let lag = due.elapsed();
                    out.end_lag_us = lag.as_secs_f64() * 1e6;
                    if lag > give_up {
                        out.overloaded = true;
                        break;
                    }
                    out.lag_us.push(out.end_lag_us);
                    out.attempted += 1;
                    let op = op_at(j, swap_every, pool, mix_cost);
                    let result = match op {
                        Op::Swap => {
                            let done = swaps.as_deref_mut().expect("swaps ride connection 0");
                            let next = &records[((*done + 1) % 2) as usize];
                            let t = Instant::now();
                            let result = client.swap_model(next);
                            out.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            *done += 1;
                            let want = *done + 1;
                            result.map(|rev| {
                                (rev != want).then(|| {
                                    format!("swap installed revision {rev}, expected {want}")
                                })
                            })
                        }
                        Op::Predict(b) => client
                            .predict(&points[b])
                            .map(|p| check(expected, b, p.revision, Some(&p.labels), p.cost)),
                        Op::Cost(b) => client
                            .cost_of(&points[b])
                            .map(|(revision, cost)| check(expected, b, revision, None, cost)),
                    };
                    let latency = due.elapsed().as_secs_f64() * 1e6;
                    match result {
                        Ok(mismatch) => {
                            out.mismatches.extend(mismatch);
                            match op {
                                Op::Swap => {}
                                Op::Predict(_) => {
                                    out.predict_us.push(latency);
                                    out.read_us.push(latency);
                                }
                                Op::Cost(_) => out.read_us.push(latency),
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.read_us.push(f64::INFINITY);
                            eprintln!("request {j} failed: {e}");
                        }
                    }
                }
                out
            }));
        }
        for h in handles {
            phase.absorb(h.join().expect("generator thread panicked"));
        }
    });
    ctx.swaps = swaps;
    phase
}

/// Percentiles `ps` of predict latency, µs: the lower quartile over
/// windows of each window's percentile. Another tenant taking a vCPU
/// stalls every thread on it for milliseconds; on a shared two-core
/// machine such stalls come in spells that can cover half a run's
/// windows, while the program's own latency is in every window. Through
/// such spells the lower quartile moved far less than the median over
/// windows did (`perfbench/ledger.json`, `steadiness`).
pub fn windowed_percentiles<const N: usize>(windows: &[Phase], ps: [f64; N]) -> [f64; N] {
    let per_window: Vec<[f64; N]> = windows.iter().map(|w| w.predict_percentiles(ps)).collect();
    std::array::from_fn(|i| {
        let mut v: Vec<f64> = per_window.iter().map(|p| p[i]).collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 25.0)
    })
}

/// p99 of predict latency pooled over `windows`, µs.
pub fn pooled_p99(windows: &[Phase]) -> f64 {
    let mut v: Vec<f64> = windows.iter().flat_map(|w| w.predict_us.clone()).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 99.0)
}

/// Bisection for the highest offered rate that meets the p99 limit with
/// no failures and no growing backlog, in log-rate over the fixed
/// bracket `[rate_low, rate_high * 16]`. Each probe is [`VOTES`] windows
/// of [`PROBE_WINDOW`] and passes on a majority; probes are taken one at
/// a time so a run can spread them out.
pub struct RateSearch {
    lo: f64,
    hi: f64,
    p99_limit_us: f64,
    probes: usize,
}

impl RateSearch {
    pub fn new(rate_low: f64, rate_high: f64, p99_limit_us: f64) -> Self {
        RateSearch {
            lo: rate_low,
            hi: rate_high * 16.0,
            p99_limit_us,
            probes: 0,
        }
    }

    /// Probes the bracket's midpoint and halves the bracket. Returns the
    /// probe's windows for accounting.
    pub fn probe(&mut self, ctx: &mut ServeCtx, clients: &mut [ServeClient]) -> Vec<Phase> {
        self.probes += 1;
        let mid = (self.lo * self.hi).sqrt();
        let windows: Vec<Phase> = (0..VOTES)
            .map(|_| {
                let limit = give_up(self.p99_limit_us);
                let w = open_loop(ctx, clients, mid, PROBE_WINDOW, limit);
                eprintln!("probe {}", w.describe(mid));
                w
            })
            .collect();
        let passed = windows
            .iter()
            .filter(|w| w.meets(self.p99_limit_us))
            .count();
        if 2 * passed > VOTES {
            self.lo = mid;
        } else {
            self.hi = mid;
        }
        windows
    }

    /// Probes taken so far.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// The highest rate that passed (the bracket floor if none did).
    pub fn sustained(&self) -> f64 {
        self.lo
    }
}

/// Closed-loop decomposition of one served batch: client round trip,
/// in-process `ServeEngine::assign` on a clone of the served engine, and
/// the kernel (`PreparedPredictor::predict`) alone — medians in µs.
pub struct Decomposition {
    pub client_us: f64,
    pub engine_us: f64,
    pub kernel_us: f64,
}

pub fn decompose(
    ctx: &ServeCtx,
    served: &mut Served,
    duration: Duration,
) -> Result<Decomposition, String> {
    let engine = served.engine.clone();
    let client = &mut served.clients[0];
    let (mut client_us, mut engine_us, mut kernel_us) = (Vec::new(), Vec::new(), Vec::new());
    let end = Instant::now() + duration;
    let mut i = 0;
    while Instant::now() < end || i < 20 {
        let points = &ctx.pool[i % ctx.pool.len()];
        let t = Instant::now();
        client.predict(points).map_err(|e| e.to_string())?;
        client_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        engine
            .assign(points.clone(), true)
            .map_err(|e| format!("{e:?}"))?;
        engine_us.push(t.elapsed().as_secs_f64() * 1e6);
        let version = engine.current();
        let t = Instant::now();
        std::hint::black_box(
            version
                .predictor()
                .predict(points)
                .map_err(|e| e.to_string())?,
        );
        kernel_us.push(t.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    Ok(Decomposition {
        client_us: median_of(client_us),
        engine_us: median_of(engine_us),
        kernel_us: median_of(kernel_us),
    })
}

pub fn fetch_stats(served: &mut Served) -> Result<ServeStats, String> {
    served.clients[0].fetch_stats().map_err(|e| e.to_string())
}
