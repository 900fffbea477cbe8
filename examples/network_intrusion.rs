//! Network-intrusion clustering at scale: the paper's KDDCup1999 scenario.
//! Compares Random, Partition (the streaming baseline), and k-means|| on a
//! KDD-shaped workload, then uses the fitted model to flag anomalous
//! connections — the Tables 3–5 story as an application.
//!
//! Run with: `cargo run --release --example network_intrusion [-- n]`

use scalable_kmeans::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(50_000);
    let k = 30;
    println!("generating KDD-shaped traffic: {n} connection records x 42 features");
    let synth = KddLike::new(n).generate(9)?;
    let points = synth.dataset.points();

    // --- seeding comparison -------------------------------------------------
    // The paper caps parallel Lloyd at 20 iterations.
    let base = KMeans::params(k).max_iterations(20).seed(4);
    let mut report = Vec::new();
    for (name, builder) in [
        ("Random", base.clone().init(Random)),
        ("k-means||", base.clone()),
        ("Partition", base.clone().init(Partition::default())),
    ] {
        let start = Instant::now();
        let model = builder.fit(points)?;
        let candidates = model.init_stats().candidates;
        report.push((name, model.cost(), candidates, start.elapsed()));
    }
    println!("\nmethod       final cost     intermediate centers   time");
    for (name, cost, candidates, time) in &report {
        println!("{name:<12} {cost:>11.3e}   {candidates:>18}   {time:.2?}");
    }

    // --- anomaly flagging ---------------------------------------------------
    // Distance to the nearest center is an anomaly score: rare attack
    // classes sit far from every dominant-traffic center.
    let model = KMeans::params(k).max_iterations(20).seed(4).fit(points)?;
    let truth = synth.dataset.labels().expect("generator labels");
    let mut scored: Vec<(f64, bool)> = points
        .rows()
        .enumerate()
        .map(|(i, row)| {
            let d2 = kmeans_core::distance::nearest(row, model.centers()).1;
            // Classes 3.. are the rare attack profiles.
            (d2, truth[i] >= 3)
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let top = n / 100; // flag the top 1 %
    let hits = scored[..top].iter().filter(|(_, rare)| *rare).count();
    let total_rare = scored.iter().filter(|(_, rare)| *rare).count();
    println!(
        "\nanomaly flagging: top 1% by distance-to-center captures {hits}/{top} flagged \
         records as rare-class ({} rare records total, base rate {:.2}%)",
        total_rare,
        100.0 * total_rare as f64 / n as f64
    );
    Ok(())
}
