//! End-to-end pipeline tests across all three paper workloads.

use scalable_kmeans::prelude::*;

#[test]
fn gauss_mixture_pipeline_recovers_structure() {
    let synth = GaussMixture::new(20)
        .points(4_000)
        .center_variance(100.0) // well separated
        .generate(11)
        .unwrap();
    let points = synth.dataset.points();
    let model = KMeans::params(20).seed(5).fit(points).unwrap();
    assert_eq!(model.k(), 20);
    assert!(model.converged());
    // Well-separated mixture: the clustering should align with the truth.
    let score = nmi(model.labels(), synth.dataset.labels().unwrap());
    assert!(score > 0.9, "NMI {score}");
    // Final cost ≈ n·d (unit variance clusters), far below the seed cost
    // of a random assignment.
    let nd = (points.len() * points.dim()) as f64;
    assert!(model.cost() < 1.5 * nd, "cost {} vs n·d {nd}", model.cost());
}

#[test]
fn quality_ordering_matches_table_1() {
    // Median final cost over several seeds: Random ≫ {k-means++, k-means||}
    // on a spread-out mixture (the paper's R = 100 column).
    let synth = GaussMixture::new(30)
        .points(3_000)
        .center_variance(100.0)
        .generate(3)
        .unwrap();
    let points = synth.dataset.points();
    let median_cost = |builder: KMeans| {
        let costs: Vec<f64> = (0..5)
            .map(|s| builder.clone().seed(s).fit(points).unwrap().cost())
            .collect();
        kmeans_util::stats::median(&costs).unwrap()
    };
    let random = median_cost(KMeans::params(30).init(Random));
    let pp = median_cost(KMeans::params(30).init(KMeansPlusPlus));
    let par = median_cost(KMeans::params(30));
    assert!(
        random > 2.0 * pp,
        "Random {random:.3e} not clearly worse than k-means++ {pp:.3e}"
    );
    assert!(
        par < 1.5 * pp,
        "k-means|| {par:.3e} much worse than k-means++ {pp:.3e}"
    );
}

#[test]
fn spam_pipeline_handles_heavy_tails() {
    let synth = SpamLike::new().points(1_500).generate(7).unwrap();
    let points = synth.dataset.points();
    let model = KMeans::params(20).seed(2).fit(points).unwrap();
    assert_eq!(model.labels().len(), 1_500);
    // Heavy-tailed features: k-means|| must still beat Random by a lot.
    let random = KMeans::params(20)
        .init(Random)
        .max_iterations(50)
        .seed(2)
        .fit(points)
        .unwrap();
    assert!(
        model.cost() < random.cost(),
        "k-means|| {:.3e} vs Random {:.3e}",
        model.cost(),
        random.cost()
    );
}

#[test]
fn kdd_pipeline_covers_rare_clusters() {
    let synth = KddLike::new(8_000).generate(5).unwrap();
    let points = synth.dataset.points();
    let par = KMeans::params(25)
        .max_iterations(10)
        .seed(1)
        .fit(points)
        .unwrap();
    let random = KMeans::params(25)
        .init(Random)
        .max_iterations(10)
        .seed(1)
        .fit(points)
        .unwrap();
    // The Table 3 headline at miniature scale: orders of magnitude.
    assert!(
        random.cost() > 10.0 * par.cost(),
        "Random {:.3e} vs k-means|| {:.3e}",
        random.cost(),
        par.cost()
    );
}

#[test]
fn predict_is_consistent_with_training_assignment() {
    let synth = GaussMixture::new(5).points(500).generate(1).unwrap();
    let points = synth.dataset.points();
    let model = KMeans::params(5).seed(9).fit(points).unwrap();
    let re_predicted = model.predict(points).unwrap();
    assert_eq!(re_predicted, model.labels());
    let queries = synth.true_centers.clone();
    let labels = model.predict(&queries).unwrap();
    assert_eq!(labels.len(), 5);
}

#[test]
fn minibatch_refinement_composes_with_parallel_seeding() {
    use scalable_kmeans::core::minibatch::MiniBatchConfig;
    let synth = GaussMixture::new(10)
        .points(5_000)
        .center_variance(50.0)
        .generate(2)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::new(Parallelism::Auto);
    let init = KMeansParallel::default()
        .init(points, None, 10, 3, &exec)
        .unwrap();
    let refined = MiniBatch(MiniBatchConfig {
        batch_size: 256,
        iterations: 150,
    })
    .refine(points, None, &init.centers, 4, &exec)
    .unwrap();
    let before = init.stats.seed_cost;
    let after = scalable_kmeans::core::cost::potential(points, &refined.centers, &exec);
    assert!(
        after < before,
        "mini-batch refinement regressed: {before:.3e} -> {after:.3e}"
    );
}
