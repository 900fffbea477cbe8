//! One driver module per paper artifact. Each exposes
//! `run(&Args) -> Vec<Table>`; the binaries are thin wrappers and
//! `run_all` chains everything (sharing the KDD grid across Tables 3–5).

pub mod fig5_1;
pub mod fig5_2;
pub mod fig5_3;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::format::{experiments_dir, Table};
use crate::run::Method;

/// Prints tables and writes their TSV artifacts under
/// `target/experiments/<stem>[_i].tsv`.
pub fn emit(tables: &[Table], stem: &str) {
    for (i, table) in tables.iter().enumerate() {
        table.print();
        println!();
        let name = if tables.len() == 1 {
            stem.to_string()
        } else {
            format!("{stem}_{}", i + 1)
        };
        match table.write_tsv(experiments_dir(), &name) {
            Ok(path) => eprintln!("[artifact] {}", path.display()),
            Err(e) => eprintln!("warning: could not write artifact: {e}"),
        }
    }
}

/// The method suite of Tables 1, 2, and 6: Random, k-means++, and the two
/// k-means|| configurations the paper tabulates (`ℓ = k/2` and `ℓ = 2k`,
/// both `r = 5`).
pub fn sequential_suite() -> Vec<Method> {
    vec![
        Method::Random,
        Method::KMeansPlusPlus,
        Method::parallel_grid(0.5),
        Method::parallel_grid(2.0),
    ]
}

use crate::run::fit_with_lloyd;
use kmeans_core::init::{KMeansParallelConfig, SamplingMode, TopUp};
use kmeans_core::lloyd::LloydConfig;
use kmeans_core::model::KMeansModel;
use kmeans_core::pipeline::{KMeansParallel, KMeansPlusPlus};
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use kmeans_util::stats::median;

/// Median seed cost and median final cost over `runs` fits, with seeds
/// `base_seed..base_seed+runs`.
fn median_seed_final(runs: usize, base_seed: u64, fit: impl Fn(u64) -> KMeansModel) -> (f64, f64) {
    let (seeds, finals): (Vec<f64>, Vec<f64>) = (0..runs)
        .map(|r| {
            let model = fit(base_seed + r as u64);
            (model.init_stats().seed_cost, model.cost())
        })
        .unzip();
    (
        median(&seeds).expect("runs >= 1"),
        median(&finals).expect("runs >= 1"),
    )
}

/// Runs k-means|| (given ℓ/k factor, rounds, sampling mode, top-up policy)
/// followed by Lloyd, `runs` times; returns `(median seed cost, median
/// final cost)`. Shared by the three figure sweeps.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parallel_seed_final(
    points: &PointMatrix,
    k: usize,
    factor: f64,
    rounds: usize,
    mode: SamplingMode,
    topup: TopUp,
    runs: usize,
    base_seed: u64,
    lloyd_config: &LloydConfig,
    exec: &Executor,
) -> (f64, f64) {
    let init = KMeansParallel(
        KMeansParallelConfig::default()
            .oversampling_factor(factor)
            .rounds(rounds)
            .sampling(mode)
            .topup(topup),
    );
    median_seed_final(runs, base_seed, |seed| {
        fit_with_lloyd(init.clone(), points, k, seed, lloyd_config, exec)
    })
}

/// Median seed/final cost of plain k-means++ (the baseline line drawn in
/// Figures 5.2 and 5.3).
pub(crate) fn kmeanspp_seed_final(
    points: &PointMatrix,
    k: usize,
    runs: usize,
    base_seed: u64,
    lloyd_config: &LloydConfig,
    exec: &Executor,
) -> (f64, f64) {
    median_seed_final(runs, base_seed, |seed| {
        fit_with_lloyd(KMeansPlusPlus, points, k, seed, lloyd_config, exec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_rows() {
        let labels: Vec<String> = sequential_suite().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Random",
                "k-means++",
                "k-means|| l=0.5k r=5",
                "k-means|| l=2k r=5"
            ]
        );
    }
}
