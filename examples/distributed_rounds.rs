//! §3.5 as a runnable artifact: k-means|| seeding executed by two workers
//! that each own half of the rows, with the round accounting the paper
//! reasons about measured on the wire.
//!
//! > "Step 4 is very simple in MapReduce: each mapper can sample
//! > independently [...] each mapper working on an input partition X′ ⊆ X
//! > can compute φ_X′(C) and the reducer can simply add these values."
//!
//! Each worker plays the mapper: it keeps its partition's d² state,
//! samples its own candidates and ships per-shard partial sums. The
//! coordinator plays the reducer. The workers run in-process over
//! loopback transports, which move the same encoded frames as TCP, so
//! the data passes, round trips and bytes below are the real counters of
//! `skm fit --distributed`. Sweeping the round count r shows what one
//! more round costs, and every fit is checked bit for bit against the
//! in-memory fit of the same builder.
//!
//! Run with: `cargo run --release --example distributed_rounds`

use scalable_kmeans::cluster::{spawn_loopback_worker, Transport};
use scalable_kmeans::prelude::*;

/// Executor shard size; worker boundaries must sit on this grid.
const SHARD: usize = 1_024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 20;
    let synth = GaussMixture::new(k).center_variance(100.0).generate(31)?;
    let points = synth.dataset.points();
    let n = points.len();
    let cut = (n / 2).div_ceil(SHARD) * SHARD;
    let halves = [(0..cut).collect::<Vec<_>>(), (cut..n).collect()];
    println!(
        "{n} points x {} dims on 2 loopback workers: rows [0, {cut}) and [{cut}, {n})\n",
        points.dim()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "rounds", "data passes", "round trips", "wire bytes", "seed cost"
    );

    for rounds in [1, 2, 3, 5, 8] {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut handles = Vec::new();
        for rows in &halves {
            let source = InMemorySource::new(points.select(rows), 512)?;
            let (transport, handle) = spawn_loopback_worker(source, Parallelism::Sequential);
            transports.push(Box::new(transport));
            handles.push(handle);
        }
        let mut cluster = Cluster::new(transports)?;

        // Seeding only: NoRefine adds one closing labelling pass.
        let builder = KMeans::params(k)
            .init(KMeansParallel(
                KMeansParallelConfig::default().rounds(rounds),
            ))
            .refine(NoRefine)
            .seed(7)
            .shard_size(SHARD);
        let model = builder.fit_distributed(&mut cluster)?;
        let (passes, trips) = (cluster.data_passes(), cluster.round_trips());
        let bytes = cluster.bytes_sent() + cluster.bytes_received();
        cluster.shutdown();
        for handle in handles {
            handle.join().expect("worker thread panicked")?;
        }

        let local = builder.fit(points)?;
        assert_eq!(model.centers(), local.centers(), "distributed != in-memory");
        println!(
            "{rounds:>6} {passes:>12} {trips:>12} {bytes:>12} {:>12.4e}",
            model.init_stats().seed_cost
        );
    }

    println!(
        "\nreading: each extra round costs one data pass and one round trip, and\n\
         only the new candidates and per-shard partial sums cross the wire.\n\
         k-means++ would need k = {k} dependent passes, each one a round trip."
    );
    Ok(())
}
