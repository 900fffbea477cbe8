//! Spam triage: cluster e-mail feature vectors (the paper's Spam workload)
//! to build a triage map — which clusters are spam-dominated? — and show
//! why seeding matters on heavy-tailed features (the Table 2 / Table 6
//! story).
//!
//! Run with: `cargo run --release --example spam_triage`

use scalable_kmeans::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Spambase stand-in: 4601 messages × 58 features; ground-truth
    // labels 0..11 are ham topics, 12..19 spam campaigns.
    let synth = SpamLike::new().generate(1)?;
    let points = synth.dataset.points();
    let truth = synth.dataset.labels().expect("generator labels");
    let k = 20;

    // Heavy-tailed features make Random seeding collapse; show the gap.
    let random = KMeans::params(k).init(Random).seed(3).fit(points)?;
    let parallel = KMeans::params(k).seed(3).fit(points)?; // k-means|| default
    println!("seeding on heavy-tailed features (k = {k}):");
    println!(
        "  Random    final cost {:.3e}  ({} Lloyd iterations)",
        random.cost(),
        random.iterations()
    );
    println!(
        "  k-means|| final cost {:.3e}  ({} Lloyd iterations)",
        parallel.cost(),
        parallel.iterations()
    );
    println!(
        "  cost ratio {:.1}x, purity {:.3} vs {:.3}\n",
        random.cost() / parallel.cost(),
        purity(random.labels(), truth),
        purity(parallel.labels(), truth),
    );

    // Triage map: spam share of each discovered cluster.
    let labels = parallel.labels();
    let mut cluster_total = vec![0usize; k];
    let mut cluster_spam = vec![0usize; k];
    for (i, &c) in labels.iter().enumerate() {
        cluster_total[c as usize] += 1;
        cluster_spam[c as usize] += (truth[i] >= 12) as usize;
    }
    println!("cluster triage map (spam share per cluster):");
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let ra = cluster_spam[a] as f64 / cluster_total[a].max(1) as f64;
        let rb = cluster_spam[b] as f64 / cluster_total[b].max(1) as f64;
        rb.partial_cmp(&ra).unwrap()
    });
    for &c in &order {
        let share = cluster_spam[c] as f64 / cluster_total[c].max(1) as f64;
        let verdict = if share > 0.8 {
            "quarantine"
        } else if share > 0.4 {
            "review"
        } else {
            "deliver"
        };
        println!(
            "  cluster {c:>2}: {:>4} msgs, spam share {share:>5.2} -> {verdict}",
            cluster_total[c]
        );
    }
    Ok(())
}
