//! Forwarding wrappers that time calls into each layer's public traits
//! from outside the program: [`TimedBackend`] around a
//! `kmeans_core::driver::RoundBackend`, [`TimedSource`] around a
//! `kmeans_data::ChunkedSource`, and [`TimedTransport`] /
//! [`WorkerTap`] around the two ends of a `kmeans_cluster::Transport`.
//!
//! Every wrapper forwards every trait method, the provided ones
//! included: relying on a trait default would change what the program
//! does (a fused round would split back into its single primitives), so
//! a traced run would no longer measure the untraced program.

use kmeans_cluster::{ClusterError, Message, Transport};
use kmeans_core::assign::ClusterSums;
use kmeans_core::driver::{BackendKind, LabelFetch, RoundBackend, SampleOut, SampleSpec};
use kmeans_core::KMeansError;
use kmeans_data::{ChunkedSource, DataError, PointMatrix, Residency};
use kmeans_par::Executor;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Time and call count of one group of round primitives.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bucket {
    pub time: Duration,
    pub calls: u64,
}

impl Bucket {
    fn add(&mut self, since: Instant) {
        self.time += since.elapsed();
        self.calls += 1;
    }
}

/// What [`TimedBackend`] saw during one fit.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreLedger {
    /// Tracker builds and updates, fused with sampling and weights.
    pub tracker: Bucket,
    /// Assignment passes and label fetches.
    pub assign: Bucket,
    /// Potential (seed-cost) passes.
    pub potential: Bucket,
    /// Row gathers and preloads.
    pub gather: Bucket,
    pub gather_rows: u64,
    /// Unfused sampling, `d²` gathers and candidate weights.
    pub other: Bucket,
    /// When the refiner validated its input: the seeding/refinement
    /// boundary (seeding never calls `validate_refine`).
    pub refine_start: Option<Instant>,
}

impl CoreLedger {
    pub fn primitive_time(&self) -> Duration {
        self.tracker.time
            + self.assign.time
            + self.potential.time
            + self.gather.time
            + self.other.time
    }
}

/// A [`RoundBackend`] that forwards every call to `inner` and times it.
pub struct TimedBackend<'a> {
    inner: &'a mut dyn RoundBackend,
    ledger: CoreLedger,
    refine_start: Cell<Option<Instant>>,
}

impl<'a> TimedBackend<'a> {
    pub fn new(inner: &'a mut dyn RoundBackend) -> Self {
        TimedBackend {
            inner,
            ledger: CoreLedger::default(),
            refine_start: Cell::new(None),
        }
    }

    pub fn ledger(&self) -> CoreLedger {
        CoreLedger {
            refine_start: self.refine_start.get(),
            ..self.ledger
        }
    }
}

impl RoundBackend for TimedBackend<'_> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn local_source(&self) -> Option<(&dyn ChunkedSource, &Executor)> {
        self.inner.local_source()
    }

    fn validate(&self, k: usize) -> Result<(), KMeansError> {
        self.inner.validate(k)
    }

    fn validate_refine(&self, centers: &PointMatrix) -> Result<(), KMeansError> {
        if self.refine_start.get().is_none() {
            self.refine_start.set(Some(Instant::now()));
        }
        self.inner.validate_refine(centers)
    }

    fn gather_rows(&mut self, indices: &[usize]) -> Result<PointMatrix, KMeansError> {
        let t = Instant::now();
        let out = self.inner.gather_rows(indices);
        self.ledger.gather.add(t);
        self.ledger.gather_rows += indices.len() as u64;
        out
    }

    fn gather_rows_into(
        &mut self,
        indices: &[usize],
        out: &mut PointMatrix,
    ) -> Result<(), KMeansError> {
        let t = Instant::now();
        let result = self.inner.gather_rows_into(indices, out);
        self.ledger.gather.add(t);
        self.ledger.gather_rows += indices.len() as u64;
        result
    }

    fn tracker_init(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let t = Instant::now();
        let out = self.inner.tracker_init(centers);
        self.ledger.tracker.add(t);
        out
    }

    fn tracker_update(&mut self, from: usize, new_rows: &PointMatrix) -> Result<f64, KMeansError> {
        let t = Instant::now();
        let out = self.inner.tracker_update(from, new_rows);
        self.ledger.tracker.add(t);
        out
    }

    fn sample_bernoulli(
        &mut self,
        round: usize,
        seed: u64,
        l: f64,
        phi: f64,
    ) -> Result<(Vec<usize>, PointMatrix), KMeansError> {
        let t = Instant::now();
        let out = self.inner.sample_bernoulli(round, seed, l, phi);
        self.ledger.other.add(t);
        out
    }

    fn sample_exact_keys(
        &mut self,
        round: usize,
        seed: u64,
        m: usize,
    ) -> Result<Vec<(f64, usize)>, KMeansError> {
        let t = Instant::now();
        let out = self.inner.sample_exact_keys(round, seed, m);
        self.ledger.other.add(t);
        out
    }

    fn gather_d2(&mut self) -> Result<Vec<f64>, KMeansError> {
        let t = Instant::now();
        let out = self.inner.gather_d2();
        self.ledger.other.add(t);
        out
    }

    fn candidate_weights(&mut self, m: usize) -> Result<Vec<f64>, KMeansError> {
        let t = Instant::now();
        let out = self.inner.candidate_weights(m);
        self.ledger.other.add(t);
        out
    }

    fn assign(&mut self, centers: &PointMatrix) -> Result<(u64, ClusterSums), KMeansError> {
        let t = Instant::now();
        let out = self.inner.assign(centers);
        self.ledger.assign.add(t);
        out
    }

    fn fetch_labels(&mut self) -> Result<Vec<u32>, KMeansError> {
        let t = Instant::now();
        let out = self.inner.fetch_labels();
        self.ledger.assign.add(t);
        out
    }

    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let t = Instant::now();
        let out = self.inner.potential(centers);
        self.ledger.potential.add(t);
        out
    }

    fn wire_bytes(&self) -> Option<u64> {
        self.inner.wire_bytes()
    }

    fn tracker_init_sampled(
        &mut self,
        centers: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), KMeansError> {
        let t = Instant::now();
        let out = self.inner.tracker_init_sampled(centers, round, seed, spec);
        self.ledger.tracker.add(t);
        out
    }

    fn tracker_update_sampled(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), KMeansError> {
        let t = Instant::now();
        let out = self
            .inner
            .tracker_update_sampled(from, new_rows, round, seed, spec);
        self.ledger.tracker.add(t);
        out
    }

    fn tracker_update_weighted(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        m: usize,
    ) -> Result<Vec<f64>, KMeansError> {
        let t = Instant::now();
        let out = self.inner.tracker_update_weighted(from, new_rows, m);
        self.ledger.tracker.add(t);
        out
    }

    fn assign_fused(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        let t = Instant::now();
        let out = self.inner.assign_fused(centers, fetch);
        self.ledger.assign.add(t);
        out
    }

    fn preload_rows(&mut self, indices: &[usize]) -> Result<(), KMeansError> {
        let t = Instant::now();
        let out = self.inner.preload_rows(indices);
        self.ledger.gather.add(t);
        out
    }
}

/// A [`ChunkedSource`] that forwards every call to `inner` and times
/// block reads.
#[derive(Debug)]
pub struct TimedSource {
    inner: Arc<dyn ChunkedSource>,
    read_ns: AtomicU64,
    reads: AtomicU64,
}

impl TimedSource {
    pub fn new(inner: Arc<dyn ChunkedSource>) -> Self {
        TimedSource {
            inner,
            read_ns: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// `(total read_block time, read_block calls)` since the last take.
    pub fn take(&self) -> (Duration, u64) {
        (
            Duration::from_nanos(self.read_ns.swap(0, Ordering::Relaxed)),
            self.reads.swap(0, Ordering::Relaxed),
        )
    }
}

impl ChunkedSource for TimedSource {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn block_rows(&self) -> usize {
        self.inner.block_rows()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn block_range(&self, block: usize) -> Range<usize> {
        self.inner.block_range(block)
    }

    fn read_block(&self, block: usize, out: &mut PointMatrix) -> Result<(), DataError> {
        let t = Instant::now();
        let result = self.inner.read_block(block, out);
        self.read_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn block_buffer(&self) -> PointMatrix {
        self.inner.block_buffer()
    }

    fn residency(&self) -> Residency {
        self.inner.residency()
    }
}

/// One coordinator-side transport call: (worker index,) start, end.
#[derive(Clone, Copy, Debug)]
pub enum WireEvent {
    Send(Instant, Instant),
    Recv(usize, Instant, Instant),
}

/// What the coordinator-side taps recorded while armed.
#[derive(Default)]
pub struct WireLog {
    pub events: Vec<WireEvent>,
    /// Every message of the conversation, in order, for re-timing the
    /// frame codec outside the fit.
    pub messages: Vec<Message>,
}

/// Per worker: `(request arrived, reply departed)` intervals.
pub type ComputeLog = Vec<Vec<(Instant, Instant)>>;

/// Shared switch and logs for one cluster's taps.
#[derive(Clone, Default)]
pub struct WireTaps {
    armed: Arc<AtomicBool>,
    log: Arc<Mutex<WireLog>>,
    /// Per worker: `(recv returned, next send started)` intervals.
    compute: Arc<Mutex<ComputeLog>>,
}

impl WireTaps {
    pub fn new(workers: usize) -> Self {
        WireTaps {
            armed: Arc::new(AtomicBool::new(false)),
            log: Arc::default(),
            compute: Arc::new(Mutex::new(vec![Vec::new(); workers])),
        }
    }

    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Takes the logs recorded since the last take.
    pub fn take(&self) -> (WireLog, ComputeLog) {
        let log = std::mem::take(&mut *self.log.lock().expect("wire log poisoned"));
        let mut compute = self.compute.lock().expect("compute log poisoned");
        let per_worker = compute.iter_mut().map(std::mem::take).collect();
        (log, per_worker)
    }

    /// Wraps the coordinator's transport to worker `worker`.
    pub fn coordinator(&self, worker: usize, inner: Box<dyn Transport>) -> TimedTransport {
        TimedTransport {
            inner,
            worker,
            taps: self.clone(),
        }
    }

    /// Wraps worker `worker`'s end of its connection.
    pub fn worker<T: Transport>(&self, worker: usize, inner: T) -> WorkerTap<T> {
        WorkerTap {
            inner,
            worker,
            taps: self.clone(),
            received: None,
        }
    }
}

/// Coordinator-side [`Transport`] tap: times `send` and `recv`.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    worker: usize,
    taps: WireTaps,
}

impl Transport for TimedTransport {
    fn send(&mut self, msg: &Message) -> Result<(), ClusterError> {
        if !self.taps.armed.load(Ordering::SeqCst) {
            return self.inner.send(msg);
        }
        let t0 = Instant::now();
        let out = self.inner.send(msg);
        let t1 = Instant::now();
        let mut log = self.taps.log.lock().expect("wire log poisoned");
        log.events.push(WireEvent::Send(t0, t1));
        log.messages.push(msg.clone());
        out
    }

    fn recv(&mut self) -> Result<Message, ClusterError> {
        if !self.taps.armed.load(Ordering::SeqCst) {
            return self.inner.recv();
        }
        let t0 = Instant::now();
        let out = self.inner.recv();
        let t1 = Instant::now();
        let mut log = self.taps.log.lock().expect("wire log poisoned");
        log.events.push(WireEvent::Recv(self.worker, t0, t1));
        if let Ok(msg) = &out {
            log.messages.push(msg.clone());
        }
        out
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

/// Worker-side [`Transport`] tap: records the time from each request's
/// arrival to the reply's departure — the worker's compute.
pub struct WorkerTap<T> {
    inner: T,
    worker: usize,
    taps: WireTaps,
    received: Option<Instant>,
}

impl<T: Transport> Transport for WorkerTap<T> {
    fn send(&mut self, msg: &Message) -> Result<(), ClusterError> {
        if let Some(arrived) = self.received.take() {
            let departs = Instant::now();
            self.taps.compute.lock().expect("compute log poisoned")[self.worker]
                .push((arrived, departs));
        }
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Message, ClusterError> {
        let out = self.inner.recv();
        if self.taps.armed.load(Ordering::SeqCst) {
            self.received = Some(Instant::now());
        }
        out
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

/// Coordinator-side wire ledger of one fit.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireLedger {
    pub send: Duration,
    pub wait: Duration,
    /// Mean over workers of their summed compute.
    pub worker_compute: Duration,
    /// Summed over rounds: coordinator wait minus the slowest worker.
    pub wire_queue: Duration,
    /// Median over rounds of (slowest / median worker compute).
    pub straggler_ratio: f64,
    pub encode: Duration,
    pub decode: Duration,
}

/// Groups the coordinator's calls into rounds (a run of sends followed
/// by the receives that answer them) and pairs each receive with the
/// worker's compute interval for that request.
pub fn wire_ledger(log: &WireLog, compute: &[Vec<(Instant, Instant)>]) -> WireLedger {
    let mut ledger = WireLedger::default();
    let workers = compute.len();
    let mut cursor = vec![0usize; workers];
    let mut ratios = Vec::new();
    let mut round_wait = Duration::ZERO;
    let mut round_compute: Vec<Duration> = Vec::new();
    let mut in_recv = false;
    let mut close_round =
        |wait: Duration, computes: &mut Vec<Duration>, ledger: &mut WireLedger| {
            if computes.is_empty() {
                return;
            }
            computes.sort();
            let max = *computes.last().expect("non-empty");
            ledger.wire_queue += wait.saturating_sub(max);
            if computes.len() >= 2 {
                let med = crate::stats::median_duration(computes);
                if med > Duration::ZERO {
                    ratios.push(max.as_secs_f64() / med.as_secs_f64());
                }
            }
            computes.clear();
        };
    for event in &log.events {
        match *event {
            WireEvent::Send(t0, t1) => {
                if in_recv {
                    close_round(round_wait, &mut round_compute, &mut ledger);
                    round_wait = Duration::ZERO;
                    in_recv = false;
                }
                ledger.send += t1 - t0;
            }
            WireEvent::Recv(w, t0, t1) => {
                in_recv = true;
                ledger.wait += t1 - t0;
                round_wait += t1 - t0;
                if let Some(&(a, b)) = compute.get(w).and_then(|c| c.get(cursor[w])) {
                    round_compute.push(b - a);
                    cursor[w] += 1;
                }
            }
        }
    }
    close_round(round_wait, &mut round_compute, &mut ledger);
    if workers > 0 {
        let total: Duration = compute.iter().flatten().map(|&(a, b)| b - a).sum();
        ledger.worker_compute = total / workers as u32;
    }
    ratios.sort_by(f64::total_cmp);
    ledger.straggler_ratio = crate::stats::median(&ratios);
    // The frame codec, re-timed on the captured conversation.
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = log.messages.iter().map(|m| m.encode_frame()).collect();
    ledger.encode = t.elapsed();
    let t = Instant::now();
    for frame in &frames {
        let decoded = Message::decode_frame(frame, usize::MAX);
        std::hint::black_box(decoded.expect("captured frame decodes"));
    }
    ledger.decode = t.elapsed();
    ledger
}
