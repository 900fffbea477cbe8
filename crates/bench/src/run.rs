//! Uniform experiment driver: one [`Method`] = one row family in the
//! paper's tables; one [`RunOutcome`] = every quantity any table reports.

use kmeans_core::init::{KMeansParallelConfig, SamplingMode};
use kmeans_core::lloyd::LloydConfig;
use kmeans_core::model::{KMeans, KMeansModel};
use kmeans_core::pipeline::{Initializer, KMeansParallel, KMeansPlusPlus, Lloyd, Random};
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use kmeans_streaming::pipeline::Partition;
use kmeans_util::stats::median;
use kmeans_util::timing::Stopwatch;

/// An initialization strategy under comparison.
#[derive(Clone, Debug)]
pub enum Method {
    /// Uniform seeding.
    Random,
    /// Algorithm 1.
    KMeansPlusPlus,
    /// Algorithm 2 with the given oversampling factor ℓ/k, round count,
    /// and sampling mode.
    KMeansParallel {
        /// ℓ as a multiple of k.
        factor: f64,
        /// Number of rounds r.
        rounds: usize,
        /// Bernoulli (Algorithm 2) or exact-ℓ (§5.3 / Figure 5.1).
        mode: SamplingMode,
    },
    /// The streaming baseline of §4.2.1.
    Partition,
}

impl Method {
    /// Row label in the paper's style.
    pub fn label(&self) -> String {
        match self {
            Method::Random => "Random".into(),
            Method::KMeansPlusPlus => "k-means++".into(),
            Method::KMeansParallel { factor, rounds, .. } => {
                format!("k-means|| l={factor}k r={rounds}")
            }
            Method::Partition => "Partition".into(),
        }
    }

    /// The paper's k-means|| grid entry `ℓ/k = factor`, `r = 5` (with the
    /// paper's exception: `r = 15` when `ℓ = 0.1k`, so that `r·ℓ ≥ k`).
    pub fn parallel_grid(factor: f64) -> Method {
        let rounds = if factor < 0.5 { 15 } else { 5 };
        Method::KMeansParallel {
            factor,
            rounds,
            mode: SamplingMode::Bernoulli,
        }
    }
}

/// Everything a single (method, k, seed) run produces.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Potential right after seeding (the "seed" columns).
    pub seed_cost: f64,
    /// Potential after Lloyd (the "final" columns).
    pub final_cost: f64,
    /// Lloyd iterations executed (Table 6).
    pub lloyd_iterations: usize,
    /// Intermediate centers before reclustering (Table 5).
    pub candidates: usize,
    /// Seeding wall time in seconds.
    pub init_secs: f64,
    /// Wall time after seeding (seed-cost pass plus Lloyd) in seconds.
    pub lloyd_secs: f64,
}

impl RunOutcome {
    /// Total wall time (Table 4's quantity).
    pub fn total_secs(&self) -> f64 {
        self.init_secs + self.lloyd_secs
    }
}

/// Fits `init` + Lloyd through the [`KMeans`] builder on `exec`'s
/// parallelism and shard size — the one fit path every table and figure
/// measures.
///
/// # Panics
///
/// Panics if the underlying algorithms reject the configuration — the
/// experiment grids are all valid by construction.
pub fn fit_with_lloyd<I: Initializer + 'static>(
    init: I,
    points: &PointMatrix,
    k: usize,
    seed: u64,
    lloyd_config: &LloydConfig,
    exec: &Executor,
) -> KMeansModel {
    KMeans::params(k)
        .init(init)
        .refine(Lloyd(*lloyd_config))
        .seed(seed)
        .parallelism(exec.parallelism())
        .shard_size(exec.shard_spec().shard_size())
        .fit(points)
        .expect("valid experiment configuration")
}

/// Runs `method` end-to-end (seed + Lloyd) once.
///
/// # Panics
///
/// Panics if the underlying algorithms reject the configuration — the
/// experiment grids are all valid by construction.
pub fn run_once(
    method: &Method,
    points: &PointMatrix,
    k: usize,
    seed: u64,
    lloyd_config: &LloydConfig,
    exec: &Executor,
) -> RunOutcome {
    let sw = Stopwatch::start();
    let model = match method {
        Method::Random => fit_with_lloyd(Random, points, k, seed, lloyd_config, exec),
        Method::KMeansPlusPlus => {
            fit_with_lloyd(KMeansPlusPlus, points, k, seed, lloyd_config, exec)
        }
        Method::KMeansParallel {
            factor,
            rounds,
            mode,
        } => {
            let config = KMeansParallelConfig::default()
                .oversampling_factor(*factor)
                .rounds(*rounds)
                .sampling(*mode);
            fit_with_lloyd(KMeansParallel(config), points, k, seed, lloyd_config, exec)
        }
        Method::Partition => {
            fit_with_lloyd(Partition::default(), points, k, seed, lloyd_config, exec)
        }
    };
    let total_secs = sw.elapsed().as_secs_f64();
    let init = model.init_stats();
    let init_secs = init.duration.as_secs_f64();
    RunOutcome {
        seed_cost: init.seed_cost,
        final_cost: model.cost(),
        lloyd_iterations: model.iterations(),
        candidates: init.candidates,
        init_secs,
        // Everything after seeding: the seed-cost pass and Lloyd.
        lloyd_secs: (total_secs - init_secs).max(0.0),
    }
}

/// Aggregate of repeated runs: medians for costs (the paper reports
/// medians over 11 runs), means for iteration counts and times (Table 6
/// averages over 10 runs; times are means).
#[derive(Clone, Copy, Debug)]
pub struct Aggregate {
    /// Median seed cost.
    pub seed_cost: f64,
    /// Median final cost.
    pub final_cost: f64,
    /// Mean Lloyd iterations.
    pub lloyd_iterations: f64,
    /// Median candidate count.
    pub candidates: f64,
    /// Mean total seconds.
    pub total_secs: f64,
    /// Mean init seconds.
    pub init_secs: f64,
}

/// Runs `method` `runs` times with seeds `base_seed..base_seed+runs`.
pub fn run_many(
    method: &Method,
    points: &PointMatrix,
    k: usize,
    runs: usize,
    base_seed: u64,
    lloyd_config: &LloydConfig,
    exec: &Executor,
) -> Aggregate {
    assert!(runs > 0, "need at least one run");
    let outcomes: Vec<RunOutcome> = (0..runs)
        .map(|r| run_once(method, points, k, base_seed + r as u64, lloyd_config, exec))
        .collect();
    let collect = |f: fn(&RunOutcome) -> f64| -> Vec<f64> { outcomes.iter().map(f).collect() };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Aggregate {
        seed_cost: median(&collect(|o| o.seed_cost)).expect("non-empty"),
        final_cost: median(&collect(|o| o.final_cost)).expect("non-empty"),
        lloyd_iterations: mean(&collect(|o| o.lloyd_iterations as f64)),
        candidates: median(&collect(|o| o.candidates as f64)).expect("non-empty"),
        total_secs: mean(&collect(|o| o.total_secs())),
        init_secs: mean(&collect(|o| o.init_secs)),
    }
}

/// Builds the executor every binary uses from `--threads` (0 = auto).
pub fn executor_from_threads(threads: usize) -> Executor {
    if threads == 0 {
        Executor::new(kmeans_par::Parallelism::Auto)
    } else {
        Executor::new(kmeans_par::Parallelism::Threads(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> PointMatrix {
        let mut m = PointMatrix::new(1);
        for c in [0.0, 1e3, 2e3] {
            for i in 0..60 {
                m.push(&[c + i as f64 * 0.01]).unwrap();
            }
        }
        m
    }

    #[test]
    fn run_once_outcome_is_consistent() {
        let points = blobs();
        let exec = Executor::sequential();
        for method in [
            Method::Random,
            Method::KMeansPlusPlus,
            Method::parallel_grid(2.0),
            Method::Partition,
        ] {
            let o = run_once(&method, &points, 3, 1, &LloydConfig::default(), &exec);
            assert!(o.seed_cost > 0.0, "{method:?}");
            assert!(
                o.final_cost <= o.seed_cost + 1e-9,
                "{method:?}: Lloyd made things worse"
            );
            assert!(o.lloyd_iterations >= 1);
            assert!(o.candidates >= 3);
            assert!(o.total_secs() >= o.init_secs);
        }
    }

    #[test]
    fn parallel_grid_matches_paper_rounds_rule() {
        match Method::parallel_grid(0.1) {
            Method::KMeansParallel { rounds, .. } => assert_eq!(rounds, 15),
            _ => unreachable!(),
        }
        match Method::parallel_grid(2.0) {
            Method::KMeansParallel { rounds, .. } => assert_eq!(rounds, 5),
            _ => unreachable!(),
        }
    }

    #[test]
    fn labels_read_like_the_paper() {
        assert_eq!(Method::Random.label(), "Random");
        assert_eq!(Method::KMeansPlusPlus.label(), "k-means++");
        assert_eq!(Method::parallel_grid(0.5).label(), "k-means|| l=0.5k r=5");
        assert_eq!(Method::Partition.label(), "Partition");
    }

    #[test]
    fn run_many_aggregates() {
        let points = blobs();
        let exec = Executor::sequential();
        let agg = run_many(
            &Method::KMeansPlusPlus,
            &points,
            3,
            5,
            0,
            &LloydConfig::default(),
            &exec,
        );
        assert!(agg.final_cost <= agg.seed_cost + 1e-9);
        assert!(agg.lloyd_iterations >= 1.0);
        assert!(agg.total_secs >= agg.init_secs);
    }
}
