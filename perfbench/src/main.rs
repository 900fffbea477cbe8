//! The repository benchmark: one fit job followed by serving that job's
//! model, per workload (see `job::WORKLOADS`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-fit --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with no
//! wrapper in the path; with `--trace 1` it prints the per-layer ledger,
//! timed from outside the program through forwarding wrappers around
//! the layers' public traits (`layers`). Every reply, fit and counter is
//! checked; the last line of standard output is one JSON object.

mod job;
mod layers;
mod serve;
mod stats;

use job::{FitOutcome, Mode, Target, TracedLayers, Workload, WORKLOADS};
use kmeans_data::synth::GaussMixture;
use serve::{open_loop, Phase, ServeCtx, Served};
use stats::{median_of, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sustained-rate probes per traced run, spread over the rounds.
const PROBES: usize = 7;
/// k-means seeds a traced run fits (untraced and traced each).
const TRACE_SEEDS: usize = 3;
/// The k-means|| + capped-Lloyd conversation's round-trip budget.
const ROUND_TRIP_BUDGET: u64 = 14;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// A working directory under the current one, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn mkdir(path: &Path) -> Result<(), String> {
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The fits of one run: every timed fit's wall time, plus the first
/// outcome of each k-means seed, which every later fit of that seed must
/// repeat bit for bit. Only walls are kept per fit, so memory does not
/// grow with the number of fits a run makes.
#[derive(Default)]
struct Fits {
    walls: Vec<f64>,
    traced: Vec<(FitOutcome, TracedLayers)>,
    first: Vec<(u64, FitOutcome)>,
}

impl Fits {
    fn check(
        &mut self,
        w: &Workload,
        seed: u64,
        fit: &FitOutcome,
        warm_up: bool,
        report: &mut Report,
    ) {
        report.attempted += 1;
        if matches!(w.mode, Mode::Distributed { .. })
            && fit.counters.round_trips != ROUND_TRIP_BUDGET
        {
            report.problems.push(format!(
                "distributed fit took {} round trips, not {ROUND_TRIP_BUDGET}",
                fit.counters.round_trips
            ));
        }
        if fit.model.iterations() != w.refine.iterations() {
            report.problems.push(format!(
                "fit of seed {seed} stopped after {} of {} refinement iterations",
                fit.model.iterations(),
                w.refine.iterations()
            ));
        }
        match self.first.iter().find(|(s, _)| *s == seed) {
            Some((_, first)) => {
                if !job::same_model(&first.model, &fit.model) {
                    report.problems.push(format!(
                        "a repeated fit of seed {seed} differs from the first"
                    ));
                }
                if fit.counters != first.counters {
                    report.problems.push(format!(
                        "a repeated fit of seed {seed} moved counters {:?}, the first {:?}",
                        fit.counters, first.counters
                    ));
                }
            }
            // The warm-up fit alone starts on a cold block cache, so it
            // is not a reference for the counters.
            None if !warm_up => self.first.push((seed, fit.clone())),
            None => {}
        }
    }

    /// The first fit of `seed`.
    fn of(&self, seed: u64) -> &FitOutcome {
        &self
            .first
            .iter()
            .find(|(s, _)| *s == seed)
            .expect("every seed was fitted")
            .1
    }
}

/// The k-means seeds a run cycles through, derived from `--seed`.
fn fit_seeds(w: &Workload, seed: u64) -> Vec<u64> {
    (0..w.seeds as u64)
        .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
        .collect()
}

impl Fits {
    /// One untimed warm-up fit of the last seed: allocators, page cache
    /// and block cache settle before timing.
    fn warm_up(
        &mut self,
        w: &Workload,
        seeds: &[u64],
        target: &mut Target,
        report: &mut Report,
    ) -> Result<(), String> {
        let last = *seeds.last().expect("at least one seed");
        let warm = job::fit_once(w, last, target)?;
        self.check(w, last, &warm, true, report);
        Ok(())
    }

    /// The next timed fit, cycling through `seeds`; a traced run follows
    /// it with a traced fit of the same seed.
    fn next(
        &mut self,
        w: &Workload,
        seeds: &[u64],
        target: &mut Target,
        trace: bool,
        report: &mut Report,
    ) -> Result<(), String> {
        let i = self.walls.len();
        let seed = seeds[i % seeds.len()];
        let fit = job::fit_once(w, seed, target)?;
        eprintln!("fit {i} (seed {seed}): {:.6} s", secs(fit.wall));
        self.check(w, seed, &fit, false, report);
        self.walls.push(secs(fit.wall));
        if trace {
            let (fit, layers) = job::fit_traced(w, seed, target)?;
            eprintln!("traced fit {i} (seed {seed}): {:.6} s", secs(fit.wall));
            self.check(w, seed, &fit, false, report);
            self.traced.push((fit, layers));
        }
        Ok(())
    }
}

/// Wall and whole-process CPU time of one set-up step.
#[derive(Clone, Copy, Default)]
struct Took {
    wall: Duration,
    cpu: Duration,
}

impl std::ops::Add for Took {
    type Output = Took;
    fn add(self, other: Took) -> Took {
        Took {
            wall: self.wall + other.wall,
            cpu: self.cpu + other.cpu,
        }
    }
}

fn timed<T>(step: impl FnOnce() -> Result<T, String>) -> Result<(T, Took), String> {
    let (cpu, wall) = (stats::process_cpu(), Instant::now());
    let out = step()?;
    let took = Took {
        wall: wall.elapsed(),
        cpu: stats::process_cpu() - cpu,
    };
    Ok((out, took))
}

fn data_setup_checked(
    w: &Workload,
    points: &kmeans_data::PointMatrix,
    dir: &Path,
    tap: bool,
    report: &mut Report,
) -> Result<(Target, Took), String> {
    mkdir(dir)?;
    let (target, took) = timed(|| job::data_setup(w, points, dir, tap))?;
    if let Target::InMemory(loaded) = &target {
        if loaded.as_slice() != points.as_slice() {
            report
                .problems
                .push("dataset loaded back from SKMBLK01 differs".into());
        }
    }
    Ok((target, took))
}

fn model_setup_timed(
    model: &kmeans_core::model::KMeansModel,
    dir: &Path,
) -> Result<(Served, Took), String> {
    mkdir(dir)?;
    timed(|| serve::model_setup(model, dir))
}

/// One more set-up of the whole job, timed and torn down again: data as
/// for the fits, then serving `model`.
fn setup_rep(
    w: &Workload,
    points: &kmeans_data::PointMatrix,
    model: &kmeans_core::model::KMeansModel,
    dir: &Path,
    report: &mut Report,
) -> Result<Took, String> {
    let (target, data) = data_setup_checked(w, points, &dir.join("job"), false, report)?;
    let (served, serving) = model_setup_timed(model, &dir.join("model"))?;
    served.shutdown()?;
    target.shutdown()?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(data + serving)
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let s = args.seconds;
    let mut report = Report::default();
    let synth = GaussMixture::new(w.components)
        .dim(job::DIM)
        .points(w.n)
        .center_variance(50.0)
        .generate(args.seed)
        .map_err(|e| format!("generate: {e}"))?;
    let (_, points, _) = synth.dataset.into_parts();
    // From here the peak resident set covers the job's set-up, fits and
    // serving; the repeated set-ups and the cross-backend check are the
    // benchmark's own work and are left out of it.
    stats::reset_peak_rss()?;

    let (mut target, data_time) =
        data_setup_checked(w, &points, &dir.join("job"), args.trace, &mut report)?;

    // Fits.
    let mut seeds = fit_seeds(w, args.seed);
    if args.trace {
        // The ledger needs a few seeds, not the cost metrics' full set.
        seeds.truncate(TRACE_SEEDS);
    }
    let mut fits = Fits::default();
    fits.warm_up(w, &seeds, &mut target, &mut report)?;
    fits.next(w, &seeds, &mut target, args.trace, &mut report)?;
    let model = fits.of(seeds[0]).model.clone();

    // Serving set-up, then fits, latency windows and repeated set-ups
    // interleaved, so a burst of outside load lands on some of each
    // rather than all of one.
    let (mut served, model_time) = model_setup_timed(&model, &dir.join("model"))?;
    let mut setups = vec![data_time + model_time];
    served.connect_all()?;
    let mut ctx = ServeCtx::new(&model, &points, w.batch_points, w.mix_cost, w.swap_interval);
    let give_up = serve::give_up(w.p99_limit_us);
    // Warm-up: the first pass over fresh connections runs cold.
    let mut windows = vec![open_loop(
        &mut ctx,
        &mut served.clients,
        w.rate_low,
        Duration::from_millis(500),
        give_up,
    )];
    let mut search = serve::RateSearch::new(w.rate_low, w.rate_high, w.p99_limit_us);
    // Fits take 40% of the run and at least one per seed; the fixed-rate
    // windows take 30%.
    let fit_budget = s * 0.4;
    let window_floor = Duration::from_secs_f64(s * 0.3 / (2 * serve::WINDOWS) as f64);
    let mut fit_time = Duration::ZERO;
    let mut peak_rss_mb = 0.0f64;
    let (mut low, mut high) = (Vec::new(), Vec::new());
    for round in 1..=serve::WINDOWS {
        let share = round as f64 / serve::WINDOWS as f64;
        while fits.walls.len() < (seeds.len() as f64 * share).ceil() as usize
            || fit_time.as_secs_f64() < fit_budget * share
        {
            let t = Instant::now();
            fits.next(w, &seeds, &mut target, args.trace, &mut report)?;
            fit_time += t.elapsed();
        }
        for (rate, out) in [(w.rate_low, &mut low), (w.rate_high, &mut high)] {
            let length = ctx.window_length(rate, window_floor);
            let window = open_loop(&mut ctx, &mut served.clients, rate, length, give_up);
            eprintln!("window {}", window.describe(rate));
            out.push(window);
        }
        while args.trace && search.probes() < (PROBES as f64 * share).ceil() as usize {
            windows.extend(search.probe(&mut ctx, &mut served.clients));
        }
        peak_rss_mb = peak_rss_mb.max(stats::peak_rss_mb().unwrap_or(0.0));
        let rep = dir.join(format!("setup{round}"));
        setups.push(setup_rep(w, &points, &model, &rep, &mut report)?);
        stats::reset_peak_rss()?;
    }
    peak_rss_mb = peak_rss_mb.max(stats::peak_rss_mb().unwrap_or(0.0));
    for f in job::cross_backend_check(w, seeds[0], &points, &model)? {
        report.problems.push(f);
    }
    report.attempted += 2;
    let [low_p50, low_p90] = serve::windowed_percentiles(&low, [50.0, 90.0]);
    let [high_p50, high_p90] = serve::windowed_percentiles(&high, [50.0, 90.0]);
    let p99_us = [serve::pooled_p99(&low), serve::pooled_p99(&high)];
    let mut lag: Vec<f64> = low
        .iter()
        .chain(&high)
        .flat_map(|p| p.lag_us.clone())
        .collect();
    lag.sort_by(f64::total_cmp);
    windows.extend(low);
    windows.extend(high);
    let decomposition = if args.trace {
        Some(serve::decompose(
            &ctx,
            &mut served,
            Duration::from_secs_f64((s * 0.05).min(1.0)),
        )?)
    } else {
        None
    };
    let mut swap_ms = Vec::new();
    for window in &windows {
        report.count(window);
        report.problems.extend(window.mismatches.iter().cloned());
        swap_ms.extend(&window.swap_ms);
    }
    let figures = ServeFigures {
        p50_us: [low_p50, high_p50],
        p90_us: [low_p90, high_p90],
        p99_us,
        swap_ms: median_of(swap_ms),
        sustained_qps: search.sustained(),
    };
    let stats = serve::fetch_stats(&mut served)?;
    served.shutdown()?;
    target.shutdown()?;

    if !args.trace {
        // The set-ups' CPU time, not their wall: a set-up is mostly one
        // fsync'd file write, whose wall time follows the host's disk and
        // vCPU contention (`setup.wall_s` in the traced run; numbers in
        // `perfbench/ledger.json`, `setup_s_redefined`).
        report.put(
            "setup_s",
            median_of(setups.iter().map(|t| secs(t.cpu)).collect()),
            "s",
        );
        // The lower decile, not the median: another tenant's vCPU stalls
        // only ever add to a fit, and on dist-rounds' 15 ms fits a spell of
        // them moved a run's median 2.5x while the lower decile moved 1.2x
        // (`perfbench/ledger.json`, `fit_s_estimator`). With 8-10 fits a
        // run, as on paper-fit and ooc-minibatch, it is the fastest fit.
        let mut walls = fits.walls.clone();
        walls.sort_by(f64::total_cmp);
        report.put("fit_s", percentile(&walls, 10.0), "s");
        let mean = |f: fn(&FitOutcome) -> f64| {
            seeds.iter().map(|&s| f(fits.of(s))).sum::<f64>() / seeds.len() as f64
        };
        report.put(
            "seed_cost",
            mean(|f| f.model.init_stats().seed_cost),
            "cost",
        );
        report.put("fit_cost", mean(|f| f.model.cost()), "cost");
        let ok = (report.attempted - report.failed) as f64 / report.attempted as f64;
        report.put("ok_ratio", ok, "ratio");
        report.put("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        let d = decomposition.expect("traced runs decompose");
        per_layer(&mut report, w, &fits, &d, &stats, &lag, &figures);
        report.put(
            "setup.wall_s",
            median_of(setups.iter().map(|t| secs(t.wall)).collect()),
            "s",
        );
    }
    Ok(report)
}

/// Serving figures that another tenant's vCPU stalls move too much to
/// gate on a shared two-core machine (`perfbench/ledger.json`,
/// `diagnostics_not_gated`); the traced run records them.
struct ServeFigures {
    /// Lower quartile over windows of each window's p50 and p90, at the
    /// low and the high rate.
    p50_us: [f64; 2],
    p90_us: [f64; 2],
    /// p99 pooled over each rate's windows.
    p99_us: [f64; 2],
    /// Median `ServeClient::swap_model` time while reads are in flight.
    swap_ms: f64,
    sustained_qps: f64,
}

/// Median over traced fits of one per-fit quantity.
fn med<T>(traced: &[(FitOutcome, TracedLayers)], f: impl Fn(&FitOutcome, &TracedLayers) -> T) -> f64
where
    T: Into<f64>,
{
    median_of(traced.iter().map(|(o, l)| f(o, l).into()).collect())
}

fn per_layer(
    report: &mut Report,
    w: &Workload,
    fits: &Fits,
    d: &serve::Decomposition,
    stats: &kmeans_serve::ServeStats,
    lag: &[f64],
    figures: &ServeFigures,
) {
    let mut walls = fits.walls.clone();
    walls.sort_by(f64::total_cmp);
    let untraced = stats::median(&walls);
    report.put("fit.p50_s", untraced, "s");
    report.put("fit.p90_s", percentile(&walls, 90.0), "s");
    report.put("fit.samples", walls.len() as f64, "count");

    let t = &fits.traced;
    report.put("core.seed_ms", med(t, |_, l| ms(l.seed)), "ms");
    report.put("core.refine_ms", med(t, |_, l| ms(l.refine)), "ms");
    report.put(
        "core.tracker_ms",
        med(t, |_, l| ms(l.core.tracker.time)),
        "ms",
    );
    report.put(
        "core.tracker_calls",
        med(t, |_, l| l.core.tracker.calls as f64),
        "count",
    );
    report.put(
        "core.assign_ms",
        med(t, |_, l| ms(l.core.assign.time)),
        "ms",
    );
    report.put(
        "core.assign_calls",
        med(t, |_, l| l.core.assign.calls as f64),
        "count",
    );
    report.put(
        "core.potential_ms",
        med(t, |_, l| ms(l.core.potential.time)),
        "ms",
    );
    report.put(
        "core.gather_ms",
        med(t, |_, l| ms(l.core.gather.time)),
        "ms",
    );
    report.put(
        "core.gather_rows",
        med(t, |_, l| l.core.gather_rows as f64),
        "count",
    );
    report.put("core.other_ms", med(t, |_, l| ms(l.core.other.time)), "ms");
    report.put(
        "core.driver_self_ms",
        med(t, |o, l| ms(o.wall.saturating_sub(l.core.primitive_time()))),
        "ms",
    );
    report.put(
        "core.lloyd_iterations",
        med(t, |o, _| o.model.iterations() as f64),
        "count",
    );
    let dist = med(t, |o, _| o.model.distance_computations() as f64);
    let pruned = med(t, |o, _| o.model.pruned_by_norm_bound() as f64);
    report.put("core.kernel.distance_computations", dist, "count");
    report.put("core.kernel.pruned", pruned, "count");
    let considered = dist + pruned;
    report.put(
        "core.kernel.prune_ratio",
        if considered > 0.0 {
            pruned / considered
        } else {
            0.0
        },
        "ratio",
    );
    report.put("core.kernel.predict_us", d.kernel_us, "us");

    let wire =
        |f: &dyn Fn(&layers::WireLedger) -> f64| med(t, |_, l| l.wire.as_ref().map_or(0.0, f));
    report.put(
        "cluster.round_trips",
        med(t, |o, _| o.counters.round_trips as f64),
        "count",
    );
    report.put(
        "cluster.bytes_on_wire",
        med(t, |o, _| o.counters.bytes_on_wire as f64),
        "bytes",
    );
    report.put(
        "cluster.data_passes",
        med(t, |o, _| o.counters.data_passes as f64),
        "count",
    );
    report.put("cluster.send_ms", wire(&|x| ms(x.send)), "ms");
    report.put("cluster.wait_ms", wire(&|x| ms(x.wait)), "ms");
    report.put(
        "cluster.worker_compute_ms",
        wire(&|x| ms(x.worker_compute)),
        "ms",
    );
    report.put(
        "cluster.straggler_ratio",
        wire(&|x| x.straggler_ratio),
        "ratio",
    );
    report.put("cluster.wire_queue_ms", wire(&|x| ms(x.wire_queue)), "ms");
    report.put(
        "cluster.encode_us",
        wire(&|x| x.encode.as_secs_f64() * 1e6),
        "us",
    );
    report.put(
        "cluster.decode_us",
        wire(&|x| x.decode.as_secs_f64() * 1e6),
        "us",
    );

    let reads = |f: &dyn Fn((Duration, u64)) -> f64| med(t, |_, l| l.read_block.map_or(0.0, f));
    let loads = med(t, |o, _| o.counters.block_loads as f64);
    let hits = med(t, |o, _| o.counters.cache_hits as f64);
    report.put("data.read_block_ms", reads(&|(d, _)| ms(d)), "ms");
    report.put("data.read_block_calls", reads(&|(_, c)| c as f64), "count");
    report.put("data.block_loads", loads, "count");
    report.put("data.cache_hits", hits, "count");
    report.put(
        "data.cache_hit_ratio",
        if loads + hits > 0.0 {
            hits / (loads + hits)
        } else {
            0.0
        },
        "ratio",
    );
    report.put(
        "data.peak_resident_mb",
        med(t, |_, l| l.peak_resident_bytes as f64 / (1 << 20) as f64),
        "MB",
    );
    // Computed, not measured: loads times the bytes of one full block.
    let block_mb = (w.block_rows * job::DIM * 8) as f64 / (1 << 20) as f64;
    let chunked = matches!(w.mode, Mode::Chunked { .. });
    report.put(
        "data.bytes_read_mb",
        if chunked { loads * block_mb } else { 0.0 },
        "MB",
    );

    report.put("serve.engine_us", d.engine_us, "us");
    report.put("serve.batcher_us", d.engine_us - d.kernel_us, "us");
    report.put("serve.wire_us", d.client_us - d.engine_us, "us");
    report.put(
        "serve.points_per_batch",
        if stats.batches > 0 {
            stats.points as f64 / stats.batches as f64
        } else {
            0.0
        },
        "points",
    );
    report.put("serve.shed_requests", stats.shed_requests as f64, "count");
    report.put(
        "serve.deadline_exceeded",
        stats.deadline_exceeded as f64,
        "count",
    );
    report.put("serve.swaps", stats.swaps as f64, "count");
    report.put("serve.generator_lag_us", stats::median(lag), "us");
    for (rate, i) in [("low", 0), ("high", 1)] {
        for (p, v) in [
            ("p50", figures.p50_us[i]),
            ("p90", figures.p90_us[i]),
            ("p99", figures.p99_us[i]),
        ] {
            report.put(&format!("serve.predict_{p}_us.{rate}"), v, "us");
        }
    }
    report.put("serve.swap_ms", figures.swap_ms, "ms");
    report.put("serve.sustained_qps", figures.sustained_qps, "1/s");

    let traced_wall = med(t, |o, _| secs(o.wall));
    report.put("obs.fit_traced_s", traced_wall, "s");
    report.put(
        "obs.trace_overhead_pct",
        (traced_wall / untraced - 1.0) * 100.0,
        "%",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let dir = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    )));
    let result = run(&args, &dir.0);
    drop(dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        std::process::exit(1);
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.json());
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}
