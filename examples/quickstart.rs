//! Quickstart: cluster the paper's GaussMixture benchmark with k-means||
//! seeding and compare against Random and k-means++ — Table 1 in thirty
//! lines.
//!
//! Run with: `cargo run --release --example quickstart`

use scalable_kmeans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // §4.1: 50 unit-variance Gaussians in 15 dimensions, centers drawn
    // from N(0, 10·I), 10 000 points.
    let synth = GaussMixture::new(50).center_variance(10.0).generate(42)?;
    let points = synth.dataset.points();
    println!(
        "dataset: {} points x {} dims, {} true components",
        points.len(),
        points.dim(),
        synth.true_centers.len()
    );

    let base = KMeans::params(50).seed(7);
    for (name, builder) in [
        ("Random    ", base.clone().init(Random)),
        ("k-means++ ", base.clone().init(KMeansPlusPlus)),
        ("k-means|| ", base.clone().init(KMeansParallel::default())), // ℓ=2k, r=5
    ] {
        let model = builder.fit(points)?;
        println!(
            "{name} seed cost {:>10.3e}   final cost {:>10.3e}   lloyd iters {:>3}   nmi {:.3}",
            model.init_stats().seed_cost,
            model.cost(),
            model.iterations(),
            nmi(model.labels(), synth.dataset.labels().expect("labeled")),
        );
    }
    println!("\nk-means|| matches k-means++ quality in 6 passes instead of 50.");
    Ok(())
}
