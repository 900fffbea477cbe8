//! Parameter sweep: §5.3's quality/running-time trade-off in miniature.
//! Sweeps the oversampling factor ℓ/k and round count r of k-means|| on
//! GaussMixture, printing a cost matrix plus the passes each setting pays —
//! the interpolation between Random (r = 0 end) and k-means++ (many tiny
//! rounds).
//!
//! Run with: `cargo run --release --example parameter_sweep`

use scalable_kmeans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 50;
    let synth = GaussMixture::new(k).center_variance(10.0).generate(2)?;
    let points = synth.dataset.points();
    let factors = [0.5, 1.0, 2.0, 4.0];
    let rounds = [1usize, 2, 3, 5, 8];
    let seeds: Vec<u64> = (10..15).collect(); // median of 5

    // Baseline: k-means++ (k passes).
    let pp: Vec<f64> = seeds
        .iter()
        .map(|&s| {
            Ok::<f64, KMeansError>(
                KMeans::params(k)
                    .init(KMeansPlusPlus)
                    .seed(s)
                    .fit(points)?
                    .cost(),
            )
        })
        .collect::<Result<_, _>>()?;
    let pp_median = kmeans_util::stats::median(&pp).expect("non-empty");

    println!("final cost (median of {} seeds), k = {k}:", seeds.len());
    print!("{:>8}", "r\\l/k");
    for f in factors {
        print!("{f:>12}");
    }
    println!("{:>10}", "passes");
    for r in rounds {
        print!("{r:>8}");
        for f in factors {
            let costs: Vec<f64> = seeds
                .iter()
                .map(|&s| {
                    Ok::<f64, KMeansError>(
                        KMeans::params(k)
                            .init(KMeansParallel(
                                KMeansParallelConfig::default()
                                    .oversampling_factor(f)
                                    .rounds(r),
                            ))
                            .seed(s)
                            .fit(points)?
                            .cost(),
                    )
                })
                .collect::<Result<_, _>>()?;
            print!(
                "{:>12.4e}",
                kmeans_util::stats::median(&costs).expect("non-empty")
            );
        }
        println!("{:>10}", 1 + r); // 1 initial pass + r rounds
    }
    println!(
        "{:>8}{:>12.4e}   <- k-means++ ({k} passes)",
        "++", pp_median
    );
    println!(
        "\nreading: r*l >= k reaches k-means++ quality; extra rounds/oversampling buy\n\
         little beyond r = 5 (the paper's recommendation), at 1/{}th the passes.",
        k / 6
    );
    Ok(())
}
