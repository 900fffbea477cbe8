//! The distributed algorithm entry points: thin wrappers binding the
//! backend-generic round drivers of `kmeans_core::driver` to a worker
//! [`Cluster`] via [`ClusterBackend`].
//!
//! Before the driver layer existed, this module carried line-for-line
//! mirrors of the single-node chunked algorithm bodies. Those loops now
//! exist **once**, in `kmeans_core::driver` (`drive_kmeans_parallel`,
//! `drive_lloyd`, `drive_minibatch`, `drive_random_init`), and every
//! execution mode — in-memory, chunked, distributed — runs the same
//! function. The order-sensitive pieces (the coordinator-sequential RNG
//! streams of tags 20/30/40, the shard-ordered potential folds, the
//! accumulation-shard assignment folds) run on the driver/coordinator
//! side for every mode, which is why `tests/distributed_parity.rs` and
//! `tests/driver_parity.rs` can pin the results bit for bit for any
//! worker count.

use crate::backend::ClusterBackend;
use crate::coordinator::Cluster;
use crate::error::ClusterError;
use kmeans_core::driver::{
    drive_kmeans_parallel, drive_label_pass, drive_lloyd, drive_minibatch, drive_random_init,
};
use kmeans_core::init::{InitStats, KMeansParallelConfig};
use kmeans_core::kernel::KernelStats;
use kmeans_core::lloyd::{LloydConfig, LloydResult};
use kmeans_core::minibatch::MiniBatchConfig;
use kmeans_data::PointMatrix;

/// Uniform seeding over the cluster (RNG tag 20). The seed cost is
/// stamped by the caller ([`crate::fit::DistInit::run`]).
pub fn dist_random_init(
    cluster: &mut Cluster,
    k: usize,
    seed: u64,
) -> Result<(PointMatrix, InitStats), ClusterError> {
    drive_random_init(&mut ClusterBackend::new(cluster), k, seed).map_err(ClusterError::from)
}

/// Algorithm 2 over the cluster — [`drive_kmeans_parallel`] on a
/// [`ClusterBackend`], bit-identical to the in-memory and chunked
/// entry points on the same data, k, config, seed, and shard size, for
/// any worker count.
pub fn dist_kmeans_parallel(
    cluster: &mut Cluster,
    k: usize,
    config: &KMeansParallelConfig,
    seed: u64,
) -> Result<(PointMatrix, InitStats), ClusterError> {
    drive_kmeans_parallel(&mut ClusterBackend::new(cluster), k, config, seed)
        .map_err(ClusterError::from)
}

/// Lloyd's iteration over the cluster — [`drive_lloyd`] on a
/// [`ClusterBackend`]: workers ship accumulation-shard partials (kernel
/// counters included), the coordinator folds them in shard order,
/// updates centroids, and repairs empty clusters by fetching the
/// farthest point back from its owner. Bit-identical to the single-node
/// paths, `pruned_by_norm_bound` included.
pub fn dist_lloyd(
    cluster: &mut Cluster,
    initial_centers: &PointMatrix,
    config: &LloydConfig,
) -> Result<LloydResult, ClusterError> {
    drive_lloyd(&mut ClusterBackend::new(cluster), initial_centers, config)
        .map_err(ClusterError::from)
}

/// Mini-batch k-means over the cluster — [`drive_minibatch`] on a
/// [`ClusterBackend`]: the rows of every step's uniform batch are
/// gathered from the owning workers in one preload (`O(batch · d)` on
/// the wire per step) and the gradient updates run on the coordinator.
/// Bit-identical to the single-node mini-batch on the same seed — the
/// distributed realization the driver abstraction bought for free.
pub fn dist_minibatch(
    cluster: &mut Cluster,
    initial_centers: &PointMatrix,
    config: &MiniBatchConfig,
    seed: u64,
) -> Result<(PointMatrix, KernelStats), ClusterError> {
    drive_minibatch(
        &mut ClusterBackend::new(cluster),
        initial_centers,
        config,
        seed,
    )
    .map_err(ClusterError::from)
}

/// One labeling pass over the cluster: labels and potential of `centers`
/// without moving them — [`drive_label_pass`] on a [`ClusterBackend`].
pub fn dist_label_and_cost(
    cluster: &mut Cluster,
    centers: &PointMatrix,
) -> Result<(Vec<u32>, f64), ClusterError> {
    let (labels, sums) =
        drive_label_pass(&mut ClusterBackend::new(cluster), centers).map_err(ClusterError::from)?;
    Ok((labels, sums.cost))
}
