//! Ablation A4: the determinism guarantee — every public entry point must
//! produce bit-identical results for any worker count (logical shards make
//! the shard layout, not the thread schedule, the source of randomness).

use scalable_kmeans::prelude::*;

fn dataset() -> kmeans_data::dataset::SyntheticDataset {
    GaussMixture::new(12)
        .points(3_000)
        .center_variance(10.0)
        .generate(77)
        .unwrap()
}

#[test]
fn full_pipeline_invariant_to_thread_count() {
    let synth = dataset();
    let points = synth.dataset.points();
    let fit = |par: Parallelism| {
        KMeans::params(12)
            .seed(5)
            .parallelism(par)
            .shard_size(256)
            .fit(points)
            .unwrap()
    };
    let reference = fit(Parallelism::Sequential);
    for threads in [2, 3, 5, 16] {
        let got = fit(Parallelism::Threads(threads));
        assert_eq!(got.labels(), reference.labels(), "threads={threads}");
        assert_eq!(got.centers(), reference.centers(), "threads={threads}");
        assert_eq!(
            got.cost().to_bits(),
            reference.cost().to_bits(),
            "threads={threads}"
        );
        assert_eq!(got.iterations(), reference.iterations());
        assert_eq!(
            got.init_stats().candidates,
            reference.init_stats().candidates
        );
    }
}

#[test]
fn partition_baseline_invariant_to_thread_count() {
    let synth = dataset();
    let points = synth.dataset.points();
    let run = |par: Parallelism| {
        let exec = Executor::new(par).with_shard_size(256);
        partition_init(points, 8, &PartitionConfig::default(), 21, &exec).unwrap()
    };
    let reference = run(Parallelism::Sequential);
    for threads in [2, 7] {
        let got = run(Parallelism::Threads(threads));
        assert_eq!(got.centers, reference.centers);
        assert_eq!(got.intermediate_centers, reference.intermediate_centers);
    }
}

#[test]
fn exact_l_sampling_invariant_to_thread_count() {
    let synth = dataset();
    let points = synth.dataset.points();
    let fit = |par: Parallelism| {
        KMeans::params(12)
            .init(KMeansParallel(
                KMeansParallelConfig::default().sampling(SamplingMode::ExactL),
            ))
            .seed(6)
            .parallelism(par)
            .shard_size(128)
            .fit(points)
            .unwrap()
    };
    let reference = fit(Parallelism::Sequential);
    let got = fit(Parallelism::Threads(4));
    assert_eq!(got.centers(), reference.centers());
    assert_eq!(got.labels(), reference.labels());
}

#[test]
fn shard_size_is_part_of_the_reproducibility_key() {
    // Changing the *shard size* may legitimately change sampling outcomes
    // (per-shard RNG streams); the API documents this. Verify both runs are
    // internally consistent and valid rather than identical.
    let synth = dataset();
    let points = synth.dataset.points();
    let fit = |shard: usize| {
        KMeans::params(12)
            .seed(5)
            .parallelism(Parallelism::Sequential)
            .shard_size(shard)
            .fit(points)
            .unwrap()
    };
    let a = fit(128);
    let b = fit(512);
    assert_eq!(a.k(), b.k());
    assert!(a.cost() > 0.0 && b.cost() > 0.0);
}

#[test]
fn speedup_is_observable_on_multicore() {
    // Soft check: with 2+ cores, the parallel executor should not be
    // dramatically slower than sequential on a chunky job (guards against
    // pathological contention in the shard queue). Uses wall time with a
    // generous factor to stay robust on loaded CI machines.
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    if cores < 2 {
        return;
    }
    let synth = GaussMixture::new(40)
        .points(60_000)
        .center_variance(10.0)
        .generate(5)
        .unwrap();
    let points = synth.dataset.points();
    let time = |par: Parallelism| {
        let exec = Executor::new(par);
        let start = std::time::Instant::now();
        for _ in 0..3 {
            scalable_kmeans::core::cost::potential(points, &synth.true_centers, &exec);
        }
        start.elapsed().as_secs_f64()
    };
    let seq = time(Parallelism::Sequential);
    let par = time(Parallelism::Threads(cores));
    assert!(
        par < seq * 1.5,
        "parallel potential pass pathologically slow: seq {seq:.3}s par {par:.3}s"
    );
}
