//! Ablations A1 (sampling mode) and A2 (reclustering method), plus the
//! top-up policy comparison backing Figures 5.2/5.3.

use scalable_kmeans::prelude::*;

fn heavy_mixture() -> kmeans_data::dataset::SyntheticDataset {
    GaussMixture::new(25)
        .points(4_000)
        .center_variance(100.0)
        .generate(13)
        .unwrap()
}

fn median_cost(points: &PointMatrix, k: usize, config: KMeansParallelConfig) -> f64 {
    let costs: Vec<f64> = (0..7)
        .map(|s| {
            KMeans::params(k)
                .init(KMeansParallel(config))
                .seed(s)
                .fit(points)
                .unwrap()
                .cost()
        })
        .collect();
    kmeans_util::stats::median(&costs).unwrap()
}

#[test]
fn a1_bernoulli_and_exact_l_reach_comparable_seed_quality() {
    // §5.3 introduces exact-ℓ sampling "to reduce the variance" of the
    // intermediate set size — the *seeding distribution* is the same, so
    // median seed costs must be comparable. (Final costs after Lloyd are
    // dominated by local-optimum luck and are not the right comparison.)
    let synth = heavy_mixture();
    let points = synth.dataset.points();
    let median_seed = |mode: SamplingMode| {
        let exec = Executor::new(Parallelism::Sequential);
        let costs: Vec<f64> = (0..9)
            .map(|s| {
                KMeansParallel(KMeansParallelConfig::default().sampling(mode))
                    .init(points, None, 25, s, &exec)
                    .unwrap()
                    .stats
                    .seed_cost
            })
            .collect();
        kmeans_util::stats::median(&costs).unwrap()
    };
    let bernoulli = median_seed(SamplingMode::Bernoulli);
    let exact = median_seed(SamplingMode::ExactL);
    let ratio = bernoulli / exact;
    assert!(
        (1.0 / 3.0..3.0).contains(&ratio),
        "sampling modes diverge: bernoulli {bernoulli:.3e} vs exact {exact:.3e}"
    );
}

#[test]
fn a2_weighted_recluster_beats_uniform_recluster() {
    // Imbalanced mixture: most candidates come from far-spread regions, so
    // ignoring the weights when reclustering loses the mass structure.
    let mut points = PointMatrix::new(1);
    let mut rng = Rng::new(3);
    for _ in 0..3_000 {
        points.push(&[rng.normal()]).unwrap();
    }
    for c in 1..=5 {
        for _ in 0..30 {
            points.push(&[c as f64 * 1e4 + rng.normal()]).unwrap();
        }
    }
    let weighted = median_cost(
        &points,
        6,
        KMeansParallelConfig::default()
            .oversampling_factor(5.0)
            .recluster(Recluster::WeightedKMeansPlusPlus),
    );
    let uniform = median_cost(
        &points,
        6,
        KMeansParallelConfig::default()
            .oversampling_factor(5.0)
            .recluster(Recluster::Uniform),
    );
    assert!(
        weighted <= uniform,
        "weighted recluster {weighted:.3e} worse than uniform {uniform:.3e}"
    );
}

#[test]
fn a2_lloyd_refined_recluster_does_not_hurt() {
    let synth = heavy_mixture();
    let points = synth.dataset.points();
    let plain = median_cost(points, 25, KMeansParallelConfig::default());
    let refined = median_cost(
        points,
        25,
        KMeansParallelConfig::default().recluster(Recluster::Refined {
            lloyd_iterations: 10,
        }),
    );
    assert!(
        refined < 1.5 * plain,
        "refined recluster {refined:.3e} much worse than plain {plain:.3e}"
    );
}

#[test]
fn topup_policies_agree_when_sampling_is_sufficient() {
    // With r·ℓ ≫ k the top-up never triggers, so the policies coincide.
    let synth = heavy_mixture();
    let points = synth.dataset.points();
    let d2 = KMeans::params(10)
        .init(KMeansParallel(
            KMeansParallelConfig::default().topup(TopUp::D2Continue),
        ))
        .seed(42)
        .fit(points)
        .unwrap();
    let uni = KMeans::params(10)
        .init(KMeansParallel(
            KMeansParallelConfig::default().topup(TopUp::Uniform),
        ))
        .seed(42)
        .fit(points)
        .unwrap();
    assert_eq!(d2.centers(), uni.centers());
}

#[test]
fn oversampling_grid_improves_single_round_quality() {
    // Figure 5.1's oversampling effect: at r = 1, larger ℓ helps.
    let synth = heavy_mixture();
    let points = synth.dataset.points();
    let small = median_cost(
        points,
        25,
        KMeansParallelConfig::default()
            .oversampling_factor(1.0)
            .rounds(1)
            .topup(TopUp::Uniform),
    );
    let large = median_cost(
        points,
        25,
        KMeansParallelConfig::default()
            .oversampling_factor(8.0)
            .rounds(1)
            .topup(TopUp::Uniform),
    );
    assert!(
        large <= small * 1.2,
        "8x oversampling {large:.3e} not better than 1x {small:.3e} at r=1"
    );
}
