//! Sharded multi-core simulation over a shared L2, with load-aware
//! scheduling.
//!
//! VEGETA's evaluation is single-core, but its deployment story — and this
//! repository's north star — is many matrix-engine-equipped cores sharding
//! one GEMM (the scale-out setting SparseZipper and Occamy evaluate).
//! [`MultiCoreSim`] composes `n` independent [`Core`]s (private L1s, private
//! engine timers) over one coherence-free [`SharedL2`]:
//!
//! * every core consumes shard streams (rectangles of a kernel's tile-loop
//!   nest, typically produced by `KernelSpec::shard_set` /
//!   `KernelSpec::shard_streams` in `vegeta-kernels`), assigned by a
//!   [`SchedulerPolicy`];
//! * the simulator interleaves the streams **in core-local time order** —
//!   at each step the core whose pipeline clock is furthest behind consumes
//!   its next instruction — so shared-L2 residency evolves in (approximate)
//!   global cycle order and the interleave is deterministic whatever the
//!   host. The production loop is a cross-core event merge over an
//!   [`crate::EventQueue`] (one wake event per live core, ties by core
//!   index); the original linear-scan loop is retained as
//!   [`MultiCoreSim::run_sharded_stepped`] and differential tests pin the
//!   two to identical results;
//! * the run ends with a sync/barrier: the makespan is the slowest core's
//!   retire time plus a tree-barrier cost
//!   ([`MultiCoreConfig::barrier_latency`] per `⌈log₂ cores⌉` level;
//!   zero for a single core, which keeps `MultiCoreSim` with one core
//!   cycle-identical to [`crate::CoreSim`]);
//! * a K-split shard set carries a **reduction stream** that merges the
//!   shards' partial `C` images; [`MultiCoreSim::run_sharded`] replays it
//!   on core 0 *after* the barrier (deterministically — every partial has
//!   been stored by then) and reports its cost separately
//!   ([`MultiCoreResult::reduction_cycles`]).
//!
//! # Scheduler policies
//!
//! [`SchedulerPolicy::Static`] is the legacy contract: stream `i` runs on
//! core `i`, one stream per core (more streams than cores is refused).
//! [`SchedulerPolicy::Lpt`] is longest-processing-time packing: shards are
//! sorted by their **exact** op counts (shard streams declare exact
//! lengths — no cost model needed) and greedily assigned to the
//! least-loaded core, ties broken by index, so any over-decomposed shard
//! set balances even when accumulator groups are uneven. Cores drain their
//! queues back to back; with [`MultiCoreConfig::work_stealing`] an idle
//! core steals the largest not-yet-started shard from the most loaded
//! queue. Every policy is deterministic: assignment depends only on the
//! declared lengths, and the interleave only on core-local time.
//!
//! The result carries per-core [`SimResult`]s, the merged cache traffic
//! ([`CacheStats::merge`]) and the shared L2's hit/miss/sharing split;
//! cores left without work surface as [`MultiCoreResult::stranded_cores`].
//!
//! ```
//! use vegeta_engine::EngineConfig;
//! use vegeta_isa::trace::{Trace, TraceOp};
//! use vegeta_sim::{MultiCoreConfig, MultiCoreSim, SchedulerPolicy};
//!
//! // Three shards of very different lengths on two cores: LPT pairs the
//! // short ones against the long one instead of overloading core 0.
//! let shard = |n: u32| {
//!     let mut t = Trace::new();
//!     for i in 0..n {
//!         t.push(TraceOp::Scalar { dst: (i % 8) as u8, src: 0 });
//!     }
//!     t
//! };
//! let (long, short) = (shard(4096), shard(2048));
//! let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
//! let res = sim.run_sharded(
//!     vec![short.stream(), long.stream(), short.stream()],
//!     None,
//!     SchedulerPolicy::Lpt,
//! );
//! assert_eq!(res.instructions(), 8192);
//! assert_eq!(res.stranded_cores(), 0);
//! assert!(res.scaling_efficiency() > 0.9, "4096 vs 2048+2048 is balanced");
//! ```

use std::collections::VecDeque;
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use vegeta_engine::EngineConfig;
use vegeta_isa::stream::InstStream;

use crate::cache::{CacheStats, L2LogEntry, SharedL2, SharedL2Stats, OWNER_CORE_BITS};
use crate::core::{Core, CoreModel, SimConfig, SimResult, PROGRESS_STRIDE};
use crate::event::EventQueue;

/// Default shared-L2 capacity in 64 B lines (2 MB, the class of LLC slice
/// the §VI-B MacSim configuration assumes the data is prefetched into).
pub const DEFAULT_L2_LINES: usize = 32_768;

/// Default memory latency in core cycles for a shared-L2 miss when the
/// prefetch assumption is disabled.
pub const DEFAULT_MEM_LATENCY: u64 = 100;

/// Default per-level tree-barrier cost in core cycles (about two shared-L2
/// round trips: one line flush, one flag observation).
pub const DEFAULT_BARRIER_LATENCY: u64 = 32;

/// Environment variable forcing the host-thread count of every multi-core
/// run, overriding [`MultiCoreConfig::exec`] (`VEGETA_HOST_THREADS`). A
/// value of `1` pins the sequential path — the CI leg that keeps the
/// fallback honest; invalid values are ignored rather than guessed at.
pub const HOST_THREADS_ENV: &str = "VEGETA_HOST_THREADS";

/// Entries per log chunk a parallel worker hands the folding thread: at
/// 16 B per [`L2LogEntry`] a chunk is 128 KB, and with the bounded channel
/// depth only a few chunks per worker are ever in flight — the same
/// bounded-residency discipline `vegeta-isa`'s chunked streams apply to
/// traces.
const L2_LOG_CHUNK: usize = 8192;

/// Chunks per worker the shared channel holds before a `send` blocks.
const L2_LOG_CHANNEL_DEPTH: usize = 2;

/// How a multi-core run uses *host* threads (simulated-core timing is
/// never affected — the parallel path is proven bit-identical to the
/// sequential event merge by `sim/tests/parallel_vs_event.rs`).
///
/// The parallel path requires the per-core timelines to be provably
/// independent of the cross-core interleave: `prefetched` on (every
/// shared-L2 lookup costs the same flat latency) and `work_stealing` off
/// (assignment fixed before the run). Outside that envelope every mode
/// falls back to the sequential event merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Use up to `std::thread::available_parallelism()` host threads when
    /// the parallel path is eligible; sequential otherwise. The default.
    #[default]
    Auto,
    /// Always the single-threaded event merge.
    Sequential,
    /// Use up to `n` host threads (clamped to the simulated core count;
    /// `0` and `1` both mean sequential). Callers sharing a host-thread
    /// budget across concurrent runs (sweep grids, serving pools) pass
    /// their per-run slice here so the host is not oversubscribed.
    ParallelHost(usize),
}

/// Configuration of a multi-core run: per-core parameters plus the shared
/// memory level and sync costs.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreConfig {
    /// Per-core configuration (front end, ROB, ports, private L1, clocks).
    pub core: SimConfig,
    /// Number of cores (≥ 1), each with a private L1 and engine.
    pub cores: usize,
    /// Shared-L2 capacity in 64 B lines.
    pub l2_lines: usize,
    /// §VI-B assumption: all data is prefetched into the shared L2, so it
    /// never misses. Disable to charge [`MultiCoreConfig::mem_latency`] on
    /// cold lines.
    pub prefetched: bool,
    /// Core cycles a shared-L2 miss costs when `prefetched` is off.
    pub mem_latency: u64,
    /// Core cycles per tree-barrier level of the end-of-shard sync
    /// (`⌈log₂ cores⌉` levels; a single core pays nothing).
    pub barrier_latency: u64,
    /// Under [`SchedulerPolicy::Lpt`], let a core whose queue drains steal
    /// the largest not-yet-started shard from another core's queue instead
    /// of idling. Off by default (pure LPT packing is already balanced for
    /// over-decomposed shard sets and keeps queues statically auditable).
    pub work_stealing: bool,
    /// Host-thread policy of the run (simulated results are identical in
    /// every mode); see [`ExecMode`].
    pub exec: ExecMode,
}

impl MultiCoreConfig {
    /// A multi-core configuration with `cores` copies of the default §VI-B
    /// core and default shared-L2/barrier parameters.
    pub fn new(cores: usize) -> Self {
        Self::with_core(SimConfig::default(), cores)
    }

    /// A multi-core configuration around an explicit per-core config.
    pub fn with_core(core: SimConfig, cores: usize) -> Self {
        MultiCoreConfig {
            core,
            cores: cores.max(1),
            l2_lines: DEFAULT_L2_LINES,
            prefetched: true,
            mem_latency: DEFAULT_MEM_LATENCY,
            barrier_latency: DEFAULT_BARRIER_LATENCY,
            work_stealing: false,
            exec: ExecMode::Auto,
        }
    }

    /// Sets the host-thread policy (builder form).
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// The host-thread count this configuration resolves to, in `1..=cores`:
    /// a valid positive [`HOST_THREADS_ENV`] overrides everything, else
    /// [`MultiCoreConfig::exec`] decides ([`ExecMode::Auto`] caps at
    /// `std::thread::available_parallelism()`). A result of 1 means the
    /// sequential event merge.
    pub fn resolved_host_threads(&self) -> usize {
        let from_env = std::env::var(HOST_THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let requested = from_env.unwrap_or_else(|| match self.exec {
            ExecMode::Sequential => 1,
            ExecMode::ParallelHost(n) => n.max(1),
            ExecMode::Auto => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
        });
        requested.min(self.cores.max(1)).max(1)
    }

    /// Core cycles the end-of-shard barrier costs at this core count.
    pub fn barrier_cycles(&self) -> u64 {
        if self.cores <= 1 {
            return 0;
        }
        let levels = usize::BITS - (self.cores - 1).leading_zeros(); // ⌈log₂ cores⌉
        self.barrier_latency * levels as u64
    }
}

/// How shard streams are assigned to cores in a multi-core run.
///
/// Both policies are deterministic: assignment depends only on the shards'
/// declared lengths (exact op counts, not estimates) and their order, never
/// on host timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Stream `i` runs on core `i`, at most one stream per core. This is
    /// the legacy 1D contract: supplying more streams than cores panics
    /// rather than silently dropping work.
    Static,
    /// Longest-processing-time packing: shards are sorted by descending
    /// declared length and each is assigned to the currently least-loaded
    /// core (ties broken by lowest index). Any number of shards is
    /// accepted; cores drain their queues back to back. This is the
    /// default — with an over-decomposed shard plan (`ShardPlan` in
    /// `vegeta-kernels`), LPT keeps every core busy even when
    /// accumulator-group rows are uneven.
    #[default]
    Lpt,
}

impl SchedulerPolicy {
    /// The short lowercase label used in reports and sweep axes
    /// (`"static"` / `"lpt"`).
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerPolicy::Static => "static",
            SchedulerPolicy::Lpt => "lpt",
        }
    }

    /// Parses a report/CLI label (the inverse of
    /// [`SchedulerPolicy::label`]).
    pub fn from_label(label: &str) -> Option<SchedulerPolicy> {
        match label {
            "static" => Some(SchedulerPolicy::Static),
            "lpt" => Some(SchedulerPolicy::Lpt),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one sharded multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreResult {
    /// Cores that participated (== number of shards).
    pub cores: usize,
    /// Makespan in core cycles: the slowest core's retire time plus the
    /// end-of-shard barrier.
    pub core_cycles: u64,
    /// Core cycles of the final sync/barrier included in `core_cycles`.
    pub barrier_cycles: u64,
    /// Core cycles of the post-barrier K-split reduction (replayed on
    /// core 0), included in `core_cycles`. Zero when the shard set carried
    /// no reduction stream.
    pub reduction_cycles: u64,
    /// Per-core results, in core order.
    pub per_core: Vec<SimResult>,
    /// The shared L2's hit/miss/sharing statistics.
    pub shared_l2: SharedL2Stats,
}

impl MultiCoreResult {
    /// Total dynamic instructions across all cores.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|r| r.instructions).sum()
    }

    /// Total tile compute instructions across all cores.
    pub fn tile_compute(&self) -> u64 {
        self.per_core.iter().map(|r| r.tile_compute).sum()
    }

    /// Summed engine-busy cycles across all cores (aggregate engine work,
    /// not wall-clock).
    pub fn engine_busy_cycles(&self) -> u64 {
        self.per_core.iter().map(|r| r.engine_busy_cycles).sum()
    }

    /// Summed peak trace residency across all cores (every shard's stream
    /// is live concurrently).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.per_core.iter().map(|r| r.peak_resident_bytes).sum()
    }

    /// Per-core cycle counts, in core order.
    pub fn per_core_cycles(&self) -> Vec<u64> {
        self.per_core.iter().map(|r| r.core_cycles).collect()
    }

    /// Cores that retired nothing (zero cycles) — provisioned silicon the
    /// shard plan and scheduler failed to feed. A healthy scaled-out run
    /// reports zero.
    pub fn stranded_cores(&self) -> usize {
        self.per_core.iter().filter(|r| r.core_cycles == 0).count()
    }

    /// Aggregate cache traffic of every private L1
    /// ([`CacheStats::merge`]d).
    pub fn merged_cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.per_core {
            total += &r.cache;
        }
        total
    }

    /// Parallel efficiency of this run: the mean fraction of the makespan
    /// each core spent busy, `Σ per-core cycles / (cores × makespan)`.
    /// 1.0 means perfect balance with no barrier overhead; 0.0 for a
    /// zero-cycle (empty) run.
    pub fn scaling_efficiency(&self) -> f64 {
        if self.core_cycles == 0 || self.cores == 0 {
            return 0.0;
        }
        let busy: u64 = self.per_core.iter().map(|r| r.core_cycles).sum();
        busy as f64 / (self.cores as f64 * self.core_cycles as f64)
    }
}

/// A sharded multi-core simulator: `cores` pluggable per-core models (the
/// default is the §VI-B [`Core`]) over one [`SharedL2`].
///
/// # Example
///
/// ```
/// use vegeta_engine::EngineConfig;
/// use vegeta_isa::trace::{Trace, TraceOp};
/// use vegeta_sim::{MultiCoreConfig, MultiCoreSim};
///
/// // Two cores each replaying half of a scalar stream.
/// let mut shard = Trace::new();
/// for i in 0..64u32 {
///     shard.push(TraceOp::Scalar { dst: (i % 8) as u8, src: 0 });
/// }
/// let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
/// let res = sim.run_streams(vec![shard.stream(), shard.stream()]);
/// assert_eq!(res.cores, 2);
/// assert_eq!(res.instructions(), 128);
/// assert!(res.scaling_efficiency() > 0.5);
/// ```
#[derive(Debug)]
pub struct MultiCoreSim<C: CoreModel = Core> {
    cfg: MultiCoreConfig,
    cores: Vec<C>,
    shared_l2: SharedL2,
}

impl MultiCoreSim<Core> {
    /// A multi-core simulator whose cores all run the same matrix-engine
    /// design point (each core gets its own engine instance).
    pub fn new(cfg: MultiCoreConfig, engine: EngineConfig) -> Self {
        let cores = (0..cfg.cores)
            .map(|id| Core::new(id, cfg.core.clone(), engine.clone()))
            .collect();
        Self::with_cores(cfg, cores)
    }
}

impl<C: CoreModel> MultiCoreSim<C> {
    /// A multi-core simulator over explicit core models (the pluggable
    /// form; `cores.len()` overrides `cfg.cores`). Core `i` must identify
    /// itself to the shared L2 as `i`.
    ///
    /// # Panics
    ///
    /// Panics with more than 2^16 cores: the shared L2 packs core ids into
    /// 16 bits of its ownership keys.
    pub fn with_cores(mut cfg: MultiCoreConfig, cores: Vec<C>) -> Self {
        assert!(
            cores.len() <= 1 << OWNER_CORE_BITS,
            "{} cores exceed the shared L2's {OWNER_CORE_BITS}-bit core ids",
            cores.len()
        );
        cfg.cores = cores.len().max(1);
        let shared_l2 = SharedL2::new(cfg.l2_lines, cfg.core.l2_latency, cfg.mem_latency)
            .with_prefetched(cfg.prefetched);
        MultiCoreSim {
            cfg,
            cores,
            shared_l2,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MultiCoreConfig {
        &self.cfg
    }

    /// Runs one instruction stream per core to completion (missing streams
    /// leave their cores idle) — [`MultiCoreSim::run_sharded`] under the
    /// legacy [`SchedulerPolicy::Static`] contract, with no reduction.
    ///
    /// # Panics
    ///
    /// Panics when more streams than cores are supplied — silently
    /// dropping shards would report a quietly wrong (partial) result.
    pub fn run_streams<S: InstStream + Send>(&mut self, streams: Vec<S>) -> MultiCoreResult
    where
        C: Send,
    {
        self.run_sharded_with(streams, None, SchedulerPolicy::Static, None)
    }

    /// Runs a sharded workload to completion: `shards` are assigned to
    /// cores by `policy`, and the optional K-split `reduction` stream is
    /// replayed on core 0 after the barrier (every partial `C` image is
    /// globally visible by then, so the merge order is deterministic).
    ///
    /// Streams are interleaved in core-local time order: each step advances
    /// the live core whose clock is furthest behind (ties broken by core
    /// index), so the shared L2 observes accesses in approximate global
    /// cycle order and the result is deterministic. A core with several
    /// queued shards runs them back to back on its own clock.
    ///
    /// The makespan is `slowest main-phase core + barrier + reduction`.
    ///
    /// When [`MultiCoreConfig::exec`] (or [`HOST_THREADS_ENV`]) resolves
    /// to more than one host thread *and* the run is interleave-
    /// independent (`prefetched` on, `work_stealing` off, more than one
    /// core), the main phase executes host-parallel, folding the cores'
    /// shared-L2 access logs into the real L2 in arrival order; the result
    /// is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Under [`SchedulerPolicy::Static`], panics when more shards than
    /// cores are supplied (see [`MultiCoreSim::run_streams`]).
    pub fn run_sharded<S: InstStream + Send>(
        &mut self,
        shards: Vec<S>,
        reduction: Option<S>,
        policy: SchedulerPolicy,
    ) -> MultiCoreResult
    where
        C: Send,
    {
        self.run_sharded_with(shards, reduction, policy, None)
    }

    /// [`MultiCoreSim::run_sharded`] with a progress callback, invoked
    /// every [`PROGRESS_STRIDE`] instructions (summed across cores,
    /// reduction ops included) and once at completion with
    /// `(instructions simulated, exact total)` — the same contract long
    /// single-core replays honour. The callback observes the same
    /// `(done, total)` sequence in every [`ExecMode`].
    pub fn run_sharded_with<S: InstStream + Send>(
        &mut self,
        shards: Vec<S>,
        reduction: Option<S>,
        policy: SchedulerPolicy,
        progress: Option<&mut dyn FnMut(u64, u64)>,
    ) -> MultiCoreResult
    where
        C: Send,
    {
        let queues = assign_queues(policy, &shards, self.cores.len());
        let host_threads = self.cfg.resolved_host_threads();
        // Eligibility for the parallel path: the per-core timelines must
        // be provably independent of the cross-core interleave. Prefetch
        // makes every shared-L2 latency a constant; stealing off makes
        // the shard assignment static. Otherwise: sequential fallback.
        if host_threads > 1
            && self.cfg.prefetched
            && !self.cfg.work_stealing
            && self.cores.len() > 1
        {
            self.run_folded(shards, queues, reduction, progress, host_threads)
        } else {
            self.run_assigned(shards, queues, reduction, progress, MergeLoop::EventDriven)
        }
    }

    /// [`MultiCoreSim::run_sharded`] driven by the retained linear-scan
    /// reference loop instead of the event merge.
    ///
    /// The scan re-derives "which live core is furthest behind" from
    /// scratch every instruction — O(cores) per step — where the event
    /// merge pops it from a [`EventQueue`]. Both must produce identical
    /// [`MultiCoreResult`]s down to the last field; this method exists so
    /// differential tests (and anyone auditing the event merge) can check
    /// that claim against the simpler loop. Use [`MultiCoreSim::run_sharded`]
    /// everywhere else.
    pub fn run_sharded_stepped<S: InstStream>(
        &mut self,
        shards: Vec<S>,
        reduction: Option<S>,
        policy: SchedulerPolicy,
    ) -> MultiCoreResult {
        let queues = assign_queues(policy, &shards, self.cores.len());
        self.run_assigned(shards, queues, reduction, None, MergeLoop::SteppedScan)
    }

    /// Drives pre-assigned per-core shard queues (plus an optional
    /// post-barrier reduction) to completion.
    fn run_assigned<S: InstStream>(
        &mut self,
        mut shards: Vec<S>,
        mut queues: Vec<VecDeque<usize>>,
        reduction: Option<S>,
        mut progress: Option<&mut dyn FnMut(u64, u64)>,
        merge: MergeLoop,
    ) -> MultiCoreResult {
        let n = self.cores.len();
        let total: u64 = shards.iter().map(InstStream::remaining).sum::<u64>()
            + reduction.as_ref().map_or(0, InstStream::remaining);
        let mut done = 0u64;
        // Summed peak residency of the shards each core has finished.
        let mut peaks = vec![0u64; n];
        let mut current: Vec<Option<usize>> = queues.iter_mut().map(VecDeque::pop_front).collect();
        if self.cfg.work_stealing {
            for c in current.iter_mut().filter(|c| c.is_none()) {
                *c = steal_largest(&shards, &mut queues);
            }
        }
        match merge {
            MergeLoop::EventDriven => {
                // One pending event per live core at its local clock; the
                // heap's (time, index) order is exactly the scan's
                // min_by_key — see `run_sharded_stepped`.
                let mut wake: EventQueue<usize> = EventQueue::with_capacity(n);
                for (i, c) in current.iter().enumerate() {
                    if c.is_some() {
                        wake.push(self.cores[i].cycles(), i);
                    }
                }
                while let Some((_, i)) = wake.pop() {
                    let s = current[i].expect("only live cores are queued");
                    match shards[s].next_op() {
                        Some(op) => {
                            self.cores[i].step(op, Some(&mut self.shared_l2));
                            done += 1;
                            if done.is_multiple_of(PROGRESS_STRIDE) {
                                if let Some(cb) = progress.as_deref_mut() {
                                    cb(done, total);
                                }
                            }
                            wake.push(self.cores[i].cycles(), i);
                        }
                        None => {
                            peaks[i] += shards[s].peak_resident_bytes() as u64;
                            current[i] = queues[i].pop_front().or_else(|| {
                                if self.cfg.work_stealing {
                                    steal_largest(&shards, &mut queues)
                                } else {
                                    None
                                }
                            });
                            if current[i].is_some() {
                                // Same clock: the core continues its next
                                // queued shard with no idle gap.
                                wake.push(self.cores[i].cycles(), i);
                            }
                        }
                    }
                }
            }
            MergeLoop::SteppedScan => {
                // The live core furthest behind in local time steps next.
                while let Some(i) = (0..n)
                    .filter(|&i| current[i].is_some())
                    .min_by_key(|&i| (self.cores[i].cycles(), i))
                {
                    let s = current[i].expect("filtered on is_some");
                    match shards[s].next_op() {
                        Some(op) => {
                            self.cores[i].step(op, Some(&mut self.shared_l2));
                            done += 1;
                            if done.is_multiple_of(PROGRESS_STRIDE) {
                                if let Some(cb) = progress.as_deref_mut() {
                                    cb(done, total);
                                }
                            }
                        }
                        None => {
                            peaks[i] += shards[s].peak_resident_bytes() as u64;
                            current[i] = queues[i].pop_front().or_else(|| {
                                if self.cfg.work_stealing {
                                    steal_largest(&shards, &mut queues)
                                } else {
                                    None
                                }
                            });
                        }
                    }
                }
            }
        }
        self.finish(done, total, peaks, reduction, progress)
    }

    /// The host-parallel main phase: scoped workers simulate whole cores
    /// against private log-sink L2s ([`SharedL2::log_sink`]), while this
    /// thread folds their access logs into the real [`SharedL2`]
    /// ([`SharedL2::fold_log`]) in whatever order they arrive —
    /// reproducing the sequential event merge's `SharedL2Stats`, and with
    /// them the whole [`MultiCoreResult`], bit for bit.
    ///
    /// *Soundness.* Under the prefetch assumption every shared-L2 lookup
    /// returns the same flat latency, so no core's timeline depends on any
    /// other core's accesses, and a core can run its queue back to back.
    /// The interleave only decides first-toucher attribution: the
    /// sequential merge delivers accesses in `(clock before the step,
    /// core)` order, so a line's owner is the core of its minimum such
    /// key. Each access is logged with that key, and the fold needs only
    /// each core's own accesses in program order: a core runs entirely on
    /// one worker, whose chunks the channel delivers in send order. This
    /// relies on core `i` handing the shared L2 the id `i`, as
    /// [`MultiCoreSim::new`]'s cores do.
    fn run_folded<S: InstStream + Send>(
        &mut self,
        shards: Vec<S>,
        queues: Vec<VecDeque<usize>>,
        reduction: Option<S>,
        mut progress: Option<&mut dyn FnMut(u64, u64)>,
        host_threads: usize,
    ) -> MultiCoreResult
    where
        C: Send,
    {
        let n = self.cores.len();
        let total: u64 = shards.iter().map(InstStream::remaining).sum::<u64>()
            + reduction.as_ref().map_or(0, InstStream::remaining);
        let hit_latency = self.cfg.core.l2_latency;
        // Move each core's queued streams out of the shared vector
        // (assignment is static: stealing is off).
        let mut slots: Vec<Option<S>> = shards.into_iter().map(Some).collect();
        let per_core: Vec<Vec<S>> = queues
            .iter()
            .map(|q| {
                q.iter()
                    .map(|&s| slots[s].take().expect("each shard is queued exactly once"))
                    .collect()
            })
            .collect();
        // Workers pull whole cores off one shared job list.
        let jobs = Mutex::new(self.cores.iter_mut().zip(per_core).enumerate());
        let resident_before = self.shared_l2.resident_lines();
        let shared_l2 = &mut self.shared_l2;
        let (tx, rx) = sync_channel::<(u64, Vec<L2LogEntry>)>(L2_LOG_CHANNEL_DEPTH * host_threads);
        let mut done = 0u64;
        let mut peaks = vec![0u64; n];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..host_threads)
                .map(|_| {
                    let (jobs, tx) = (&jobs, tx.clone());
                    scope.spawn(move || {
                        let mut l2 = SharedL2::log_sink(hit_latency);
                        let mut ops = 0u64;
                        let mut finished = Vec::new();
                        loop {
                            let job = jobs
                                .lock()
                                .expect("no worker panics holding the job list")
                                .next();
                            let Some((i, (core, streams))) = job else {
                                break;
                            };
                            let mut peak = 0u64;
                            for mut stream in streams {
                                while let Some(op) = stream.next_op() {
                                    l2.set_log_stamp(core.cycles());
                                    core.step(op, Some(&mut l2));
                                    ops += 1;
                                    if l2.log_len() >= L2_LOG_CHUNK
                                        && tx
                                            .send((std::mem::take(&mut ops), l2.take_log()))
                                            .is_err()
                                    {
                                        // The folder is gone (main-thread
                                        // unwind): stop rather than
                                        // simulate into the void.
                                        return finished;
                                    }
                                }
                                peak += stream.peak_resident_bytes() as u64;
                            }
                            finished.push((i, peak));
                        }
                        let _ = tx.send((ops, l2.take_log()));
                        finished
                    })
                })
                .collect();
            drop(tx);
            // Fold every chunk as it arrives, surfacing progress at the
            // sequential stride points (same `(done, total)` values, same
            // order).
            for (ops, log) in rx {
                shared_l2.fold_log(&log, resident_before);
                let before = done;
                done += ops;
                if let Some(cb) = progress.as_deref_mut() {
                    for k in before / PROGRESS_STRIDE + 1..=done / PROGRESS_STRIDE {
                        cb(k * PROGRESS_STRIDE, total);
                    }
                }
            }
            for h in handles {
                for (i, peak) in h.join().expect("simulation worker panicked") {
                    peaks[i] = peak;
                }
            }
        });
        self.finish(done, total, peaks, reduction, progress)
    }

    /// The post-barrier tail every path shares: replays the K-split
    /// reduction on core 0 (every partial `C` image is globally visible by
    /// then), fires the completion report unless the stride loop already
    /// delivered it, and assembles the result. `done` counts the main
    /// phase's instructions and `peaks` its per-core residency.
    fn finish<S: InstStream>(
        &mut self,
        mut done: u64,
        total: u64,
        mut peaks: Vec<u64>,
        reduction: Option<S>,
        mut progress: Option<&mut dyn FnMut(u64, u64)>,
    ) -> MultiCoreResult {
        let slowest = self.cores.iter().map(CoreModel::cycles).max().unwrap_or(0);
        let mut reduction_cycles = 0;
        if let Some(mut red) = reduction {
            let before = self.cores[0].cycles();
            while let Some(op) = red.next_op() {
                self.cores[0].step(op, Some(&mut self.shared_l2));
                done += 1;
                if done.is_multiple_of(PROGRESS_STRIDE) {
                    if let Some(cb) = progress.as_deref_mut() {
                        cb(done, total);
                    }
                }
            }
            reduction_cycles = self.cores[0].cycles() - before;
            peaks[0] += red.peak_resident_bytes() as u64;
        }
        if done == 0 || !done.is_multiple_of(PROGRESS_STRIDE) {
            if let Some(cb) = progress {
                cb(done, total);
            }
        }
        let per_core: Vec<SimResult> = self
            .cores
            .iter()
            .zip(peaks)
            .map(|(core, peak)| core.result(peak))
            .collect();
        let barrier_cycles = self.cfg.barrier_cycles();
        MultiCoreResult {
            cores: self.cores.len(),
            core_cycles: slowest + barrier_cycles + reduction_cycles,
            barrier_cycles,
            reduction_cycles,
            per_core,
            shared_l2: self.shared_l2.stats(),
        }
    }
}

/// Which loop drives the core-local-time interleave in
/// [`MultiCoreSim::run_assigned`]: the production event merge, or the
/// retained linear-scan reference it must match instruction for
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeLoop {
    EventDriven,
    SteppedScan,
}

/// Builds the per-core shard queues `policy` dictates (see
/// [`SchedulerPolicy`]); panics under [`SchedulerPolicy::Static`] when
/// shards outnumber cores.
fn assign_queues<S: InstStream>(
    policy: SchedulerPolicy,
    shards: &[S],
    n: usize,
) -> Vec<VecDeque<usize>> {
    match policy {
        SchedulerPolicy::Static => {
            assert!(
                shards.len() <= n,
                "{} shard streams for {n} cores: excess shards would be silently dropped",
                shards.len()
            );
            (0..n)
                .map(|i| {
                    if i < shards.len() {
                        VecDeque::from([i])
                    } else {
                        VecDeque::new()
                    }
                })
                .collect()
        }
        SchedulerPolicy::Lpt => {
            let lengths: Vec<u64> = shards.iter().map(InstStream::remaining).collect();
            lpt_queues(&lengths, n)
        }
    }
}

/// Longest-processing-time packing of shard indices onto `n` core queues:
/// descending declared length (ties by index) onto the least-loaded core
/// (ties by core index).
fn lpt_queues(lengths: &[u64], n: usize) -> Vec<VecDeque<usize>> {
    let mut order: Vec<usize> = (0..lengths.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(lengths[i]), i));
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); n];
    let mut load = vec![0u64; n];
    for s in order {
        let c = (0..n)
            .min_by_key(|&c| (load[c], c))
            .expect("at least one core");
        load[c] += lengths[s];
        queues[c].push_back(s);
    }
    queues
}

/// Removes and returns the not-yet-started shard with the most remaining
/// ops across every queue (ties by lowest shard index), if any.
fn steal_largest<S: InstStream>(shards: &[S], queues: &mut [VecDeque<usize>]) -> Option<usize> {
    let (qi, pos, _) = queues
        .iter()
        .enumerate()
        .flat_map(|(qi, q)| q.iter().enumerate().map(move |(pos, &s)| (qi, pos, s)))
        .max_by_key(|&(_, _, s)| (shards[s].remaining(), std::cmp::Reverse(s)))?;
    queues[qi].remove(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSim;
    use vegeta_isa::trace::{Trace, TraceOp};
    use vegeta_isa::{Inst, TReg, UReg};

    fn mixed_trace(n: usize, stride: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(TraceOp::VecLoad {
                dst: (i % 16) as u8,
                addr: i as u64 * stride,
            });
            t.push_inst(Inst::TileSpmmU {
                acc: TReg::new((i % 3) as u8).unwrap(),
                a: TReg::T6,
                b: UReg::U2,
            });
            t.push(TraceOp::Scalar { dst: 0, src: 0 });
        }
        t
    }

    #[test]
    fn single_core_multicore_matches_coresim_exactly() {
        // With one core there is no barrier and no sharing: the multi-core
        // harness must collapse to the single-core simulator, cycle for
        // cycle and stat for stat.
        let trace = mixed_trace(200, 64);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let expected = CoreSim::with_engine(engine.clone()).run(&trace);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(1), engine);
        let got = sim.run_streams(vec![trace.stream()]);
        assert_eq!(got.barrier_cycles, 0);
        assert_eq!(got.core_cycles, expected.core_cycles);
        assert_eq!(got.per_core.len(), 1);
        assert_eq!(got.per_core[0], expected);
        assert_eq!(got.instructions(), expected.instructions);
        assert!((got.scaling_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_cores_halve_an_even_split() {
        let whole = mixed_trace(400, 64);
        let half_a = mixed_trace(200, 64);
        // Second half touches different addresses but has identical timing
        // structure.
        let mut half_b = Trace::new();
        for op in half_a.ops() {
            let shifted = match *op {
                TraceOp::VecLoad { dst, addr } => TraceOp::VecLoad {
                    dst,
                    addr: addr + (1 << 20),
                },
                other => other,
            };
            half_b.push(shifted);
        }
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let one = MultiCoreSim::new(MultiCoreConfig::new(1), engine.clone())
            .run_streams(vec![whole.stream()]);
        let two = MultiCoreSim::new(MultiCoreConfig::new(2), engine)
            .run_streams(vec![half_a.stream(), half_b.stream()]);
        assert_eq!(two.instructions(), one.instructions());
        assert!(
            two.core_cycles < one.core_cycles * 3 / 4,
            "2 cores {} vs 1 core {}",
            two.core_cycles,
            one.core_cycles
        );
        assert_eq!(two.per_core_cycles().len(), 2);
        assert!(two.scaling_efficiency() > 0.8, "balanced halves");
    }

    #[test]
    fn shared_lines_are_attributed_across_cores() {
        // Both cores stream the same addresses: every L2 touch after the
        // first core's is a shared hit.
        let t = mixed_trace(64, 64);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        let res = sim.run_streams(vec![t.stream(), t.stream()]);
        assert!(res.shared_l2.shared_hits > 0, "cross-core reuse observed");
        assert_eq!(res.shared_l2.misses, 0, "prefetched L2 never misses");
        let merged = res.merged_cache();
        assert_eq!(
            merged.l1_hits + merged.l2_hits,
            res.per_core
                .iter()
                .map(|r| r.cache.l1_hits + r.cache.l2_hits)
                .sum::<u64>()
        );
    }

    #[test]
    fn barrier_grows_logarithmically_and_is_free_for_one_core() {
        assert_eq!(MultiCoreConfig::new(1).barrier_cycles(), 0);
        let b = DEFAULT_BARRIER_LATENCY;
        assert_eq!(MultiCoreConfig::new(2).barrier_cycles(), b);
        assert_eq!(MultiCoreConfig::new(4).barrier_cycles(), 2 * b);
        assert_eq!(MultiCoreConfig::new(8).barrier_cycles(), 3 * b);
        assert_eq!(MultiCoreConfig::new(16).barrier_cycles(), 4 * b);
        assert_eq!(MultiCoreConfig::new(5).barrier_cycles(), 3 * b);
    }

    #[test]
    fn empty_run_guards_scaling_efficiency() {
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        let res = sim.run_streams(vec![Trace::new().stream(), Trace::new().stream()]);
        // Two idle cores: the barrier still costs, but no division blows up.
        assert_eq!(res.instructions(), 0);
        assert_eq!(res.scaling_efficiency(), 0.0);
        let zero = MultiCoreResult {
            cores: 0,
            core_cycles: 0,
            barrier_cycles: 0,
            reduction_cycles: 0,
            per_core: Vec::new(),
            shared_l2: SharedL2Stats::default(),
        };
        assert_eq!(zero.scaling_efficiency(), 0.0);
    }

    #[test]
    fn lpt_accepts_more_shards_than_cores_and_strands_none() {
        // 7 uneven shards on 3 cores: static would panic; LPT packs them.
        let shards: Vec<Trace> = (1..=7).map(|i| mixed_trace(8 * i, 64)).collect();
        let total_ops: u64 = shards.iter().map(|t| t.len() as u64).sum();
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(3), EngineConfig::rasa_dm());
        let res = sim.run_sharded(
            shards.iter().map(Trace::stream).collect(),
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(res.instructions(), total_ops);
        assert_eq!(res.stranded_cores(), 0);
        assert_eq!(res.reduction_cycles, 0);
        assert!(res.scaling_efficiency() > 0.8, "LPT balances uneven shards");
    }

    #[test]
    fn lpt_beats_static_on_unbalanced_shards() {
        // Two long + two short shards on 2 cores. Static can only take two
        // streams, so compare against the pathological pairing (long+long
        // on core 0 conceptually = run them sequentially via LPT with a
        // deliberately bad... instead: 4 shards, 2 cores). LPT pairs
        // long/short per core; a naive in-order fold pairs long/long.
        let long = mixed_trace(120, 64);
        let short = mixed_trace(30, 64);
        let engine = EngineConfig::rasa_dm();
        let lpt = MultiCoreSim::new(MultiCoreConfig::new(2), engine.clone()).run_sharded(
            vec![long.stream(), long.stream(), short.stream(), short.stream()],
            None,
            SchedulerPolicy::Lpt,
        );
        // In-order static pairing: both long shards land on core 0.
        let mut naive_a = Trace::new();
        for op in long.ops().iter().chain(long.ops()) {
            naive_a.push(*op);
        }
        let mut naive_b = Trace::new();
        for op in short.ops().iter().chain(short.ops()) {
            naive_b.push(*op);
        }
        let naive = MultiCoreSim::new(MultiCoreConfig::new(2), engine)
            .run_streams(vec![naive_a.stream(), naive_b.stream()]);
        assert_eq!(lpt.instructions(), naive.instructions());
        assert!(
            lpt.core_cycles < naive.core_cycles,
            "LPT {} vs naive pairing {}",
            lpt.core_cycles,
            naive.core_cycles
        );
    }

    #[test]
    fn lpt_is_deterministic() {
        let shards: Vec<Trace> = (1..=5).map(|i| mixed_trace(16 * i, 64)).collect();
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let run = || {
            MultiCoreSim::new(MultiCoreConfig::new(4), engine.clone()).run_sharded(
                shards.iter().map(Trace::stream).collect(),
                None,
                SchedulerPolicy::Lpt,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn work_stealing_rescues_a_mispacked_queue() {
        // LPT packs by declared op count, but tile ops run far longer than
        // scalar ops. Counts (100, 90, 50, 45, 40) pack as core 0 ←
        // {100, 45} and core 1 ← {90, 50-tile, 40}: core 1's tile shard
        // dominates the makespan while the trailing 40-op shard sits
        // unstarted behind it. A stealing core 0 takes it off the queue.
        let scalar = |n: usize| {
            let mut t = Trace::new();
            for i in 0..n {
                t.push(TraceOp::Scalar {
                    dst: (i % 8) as u8,
                    src: 0,
                });
            }
            t
        };
        let tiles = {
            let mut t = Trace::new();
            for i in 0..50 {
                t.push_inst(Inst::TileSpmmU {
                    acc: TReg::new((i % 3) as u8).unwrap(),
                    a: TReg::T6,
                    b: UReg::U2,
                });
            }
            t
        };
        let shards = [scalar(100), scalar(90), tiles, scalar(45), scalar(40)];
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let packed = MultiCoreSim::new(MultiCoreConfig::new(2), engine.clone()).run_sharded(
            shards.iter().map(Trace::stream).collect(),
            None,
            SchedulerPolicy::Lpt,
        );
        let mut steal_cfg = MultiCoreConfig::new(2);
        steal_cfg.work_stealing = true;
        let stolen = MultiCoreSim::new(steal_cfg, engine).run_sharded(
            shards.iter().map(Trace::stream).collect(),
            None,
            SchedulerPolicy::Lpt,
        );
        assert_eq!(stolen.instructions(), packed.instructions());
        assert!(
            stolen.core_cycles < packed.core_cycles,
            "stealing {} vs packed {}",
            stolen.core_cycles,
            packed.core_cycles
        );
    }

    #[test]
    fn reduction_runs_after_the_barrier_on_core_zero() {
        let shard = mixed_trace(40, 64);
        let reduction = mixed_trace(16, 128);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        let res = sim.run_sharded(
            vec![shard.stream(), shard.stream()],
            Some(reduction.stream()),
            SchedulerPolicy::Lpt,
        );
        assert!(res.reduction_cycles > 0);
        assert_eq!(
            res.instructions(),
            (2 * shard.len() + reduction.len()) as u64,
            "reduction ops are attributed to core 0"
        );
        // Makespan covers barrier and reduction on top of the main phase.
        let no_red = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm())
            .run_sharded(
                vec![shard.stream(), shard.stream()],
                None,
                SchedulerPolicy::Lpt,
            );
        assert_eq!(res.core_cycles, no_red.core_cycles + res.reduction_cycles);
    }

    #[test]
    fn event_merge_matches_the_stepped_scan_reference() {
        // The event-driven merge and the retained linear scan must agree on
        // every field of the result — policies, stealing, reduction and
        // ragged shard mixes included.
        let shards: Vec<Trace> = (1..=6).map(|i| mixed_trace(12 * i, 64)).collect();
        let reduction = mixed_trace(20, 128);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        for policy in [SchedulerPolicy::Static, SchedulerPolicy::Lpt] {
            for stealing in [false, true] {
                // Static refuses more shards than cores.
                let take = if policy == SchedulerPolicy::Static {
                    3
                } else {
                    6
                };
                let mut cfg = MultiCoreConfig::new(3);
                cfg.work_stealing = stealing;
                let event = MultiCoreSim::new(cfg.clone(), engine.clone()).run_sharded(
                    shards[..take].iter().map(Trace::stream).collect(),
                    Some(reduction.stream()),
                    policy,
                );
                let stepped = MultiCoreSim::new(cfg, engine.clone()).run_sharded_stepped(
                    shards[..take].iter().map(Trace::stream).collect(),
                    Some(reduction.stream()),
                    policy,
                );
                assert_eq!(event, stepped, "policy {policy}, stealing {stealing}");
            }
        }
    }

    #[test]
    fn static_policy_via_run_sharded_matches_run_streams() {
        let a = mixed_trace(50, 64);
        let b = mixed_trace(30, 64);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        let legacy = MultiCoreSim::new(MultiCoreConfig::new(2), engine.clone())
            .run_streams(vec![a.stream(), b.stream()]);
        let sharded = MultiCoreSim::new(MultiCoreConfig::new(2), engine).run_sharded(
            vec![a.stream(), b.stream()],
            None,
            SchedulerPolicy::Static,
        );
        assert_eq!(legacy, sharded);
    }

    #[test]
    fn scheduler_labels_round_trip() {
        for p in [SchedulerPolicy::Static, SchedulerPolicy::Lpt] {
            assert_eq!(SchedulerPolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(SchedulerPolicy::from_label("fifo"), None);
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Lpt);
        assert_eq!(SchedulerPolicy::Lpt.to_string(), "lpt");
    }

    #[test]
    fn idle_cores_are_tolerated() {
        let t = mixed_trace(32, 64);
        // 4 cores, 2 streams: cores 2/3 idle.
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(4), EngineConfig::rasa_dm());
        let res = sim.run_streams(vec![t.stream(), t.stream()]);
        assert_eq!(res.cores, 4);
        assert_eq!(res.per_core[2].instructions, 0);
        assert_eq!(res.per_core[3].core_cycles, 0);
        assert!(res.instructions() > 0);
    }

    #[test]
    #[should_panic(expected = "excess shards")]
    fn excess_streams_are_refused_not_dropped() {
        let t = mixed_trace(8, 64);
        let mut sim = MultiCoreSim::new(MultiCoreConfig::new(2), EngineConfig::rasa_dm());
        sim.run_streams(vec![t.stream(), t.stream(), t.stream()]);
    }

    /// The host-thread count [`HOST_THREADS_ENV`] forces in this process,
    /// if any — tests must stay correct under the CI leg that pins it to 1.
    fn forced_host_threads() -> Option<usize> {
        std::env::var(HOST_THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    }

    #[test]
    fn exec_mode_resolution_clamps_to_the_core_count() {
        let expect = |want: usize, cores: usize| forced_host_threads().unwrap_or(want).min(cores);
        assert_eq!(MultiCoreConfig::new(4).exec, ExecMode::Auto);
        let auto = MultiCoreConfig::new(4).resolved_host_threads();
        assert!((1..=4).contains(&auto), "Auto stays within 1..=cores");
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::Sequential)
                .resolved_host_threads(),
            expect(1, 4)
        );
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::ParallelHost(0))
                .resolved_host_threads(),
            expect(1, 4),
            "0 means sequential, not a panic"
        );
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::ParallelHost(3))
                .resolved_host_threads(),
            expect(3, 4)
        );
        assert_eq!(
            MultiCoreConfig::new(4)
                .with_exec(ExecMode::ParallelHost(64))
                .resolved_host_threads(),
            expect(64, 4),
            "clamped to the simulated core count"
        );
        assert_eq!(
            MultiCoreConfig::new(1)
                .with_exec(ExecMode::ParallelHost(8))
                .resolved_host_threads(),
            1,
            "one simulated core never fans out"
        );
    }

    #[test]
    fn parallel_host_matches_sequential_bit_for_bit() {
        // Ragged shards + a K-split reduction across simulated-core ×
        // host-thread combinations, full MultiCoreResult equality. (Under
        // the CI leg that forces host threads to 1 this degenerates to
        // sequential-vs-sequential — exactly the fallback it pins.)
        let shards: Vec<Trace> = (1..=6).map(|i| mixed_trace(14 * i, 64)).collect();
        let reduction = mixed_trace(20, 128);
        let engine = EngineConfig::vegeta_s(16).unwrap();
        for cores in [2usize, 3, 4] {
            let seq = MultiCoreSim::new(
                MultiCoreConfig::new(cores).with_exec(ExecMode::Sequential),
                engine.clone(),
            )
            .run_sharded(
                shards.iter().map(Trace::stream).collect(),
                Some(reduction.stream()),
                SchedulerPolicy::Lpt,
            );
            for host in [2usize, 3, 8] {
                let par = MultiCoreSim::new(
                    MultiCoreConfig::new(cores).with_exec(ExecMode::ParallelHost(host)),
                    engine.clone(),
                )
                .run_sharded(
                    shards.iter().map(Trace::stream).collect(),
                    Some(reduction.stream()),
                    SchedulerPolicy::Lpt,
                );
                assert_eq!(par, seq, "{cores} cores, {host} host threads");
            }
        }
    }

    #[test]
    fn parallel_host_reproduces_shared_attribution_and_idle_cores() {
        // Identical streams: every touch after the first core's is a
        // shared hit, and first-toucher attribution is exactly what the
        // fold must reconstruct. Cores 3/4 stay idle.
        let t = mixed_trace(64, 64);
        let streams = || vec![t.stream(), t.stream(), t.stream()];
        let seq = MultiCoreSim::new(
            MultiCoreConfig::new(5).with_exec(ExecMode::Sequential),
            EngineConfig::rasa_dm(),
        )
        .run_streams(streams());
        let par = MultiCoreSim::new(
            MultiCoreConfig::new(5).with_exec(ExecMode::ParallelHost(4)),
            EngineConfig::rasa_dm(),
        )
        .run_streams(streams());
        assert!(seq.shared_l2.shared_hits > 0, "cross-core reuse observed");
        assert_eq!(par, seq);
    }

    #[test]
    fn ineligible_configs_fall_back_to_the_sequential_path() {
        // Work stealing or a cold L2 couples the cores, so ParallelHost
        // must quietly run the sequential event merge and still match it.
        let shards: Vec<Trace> = (1..=5).map(|i| mixed_trace(10 * i, 64)).collect();
        let engine = EngineConfig::vegeta_s(16).unwrap();
        for (stealing, prefetched) in [(true, true), (false, false), (true, false)] {
            let mut base = MultiCoreConfig::new(3);
            base.work_stealing = stealing;
            base.prefetched = prefetched;
            let seq =
                MultiCoreSim::new(base.clone().with_exec(ExecMode::Sequential), engine.clone())
                    .run_sharded(
                        shards.iter().map(Trace::stream).collect(),
                        None,
                        SchedulerPolicy::Lpt,
                    );
            let par = MultiCoreSim::new(base.with_exec(ExecMode::ParallelHost(3)), engine.clone())
                .run_sharded(
                    shards.iter().map(Trace::stream).collect(),
                    None,
                    SchedulerPolicy::Lpt,
                );
            assert_eq!(par, seq, "stealing {stealing}, prefetched {prefetched}");
        }
    }

    #[test]
    fn progress_sequence_is_identical_across_exec_modes() {
        // Two ~36k-op shards cross PROGRESS_STRIDE once; the callback must
        // observe the same (done, total) pairs in the same order whether
        // the main phase ran sequential or host-parallel.
        let shard = mixed_trace(12_000, 64);
        let engine = EngineConfig::rasa_dm();
        let collect = |exec: ExecMode| {
            let mut seen: Vec<(u64, u64)> = Vec::new();
            let mut cb = |d: u64, t: u64| seen.push((d, t));
            MultiCoreSim::new(MultiCoreConfig::new(2).with_exec(exec), engine.clone())
                .run_sharded_with(
                    vec![shard.stream(), shard.stream()],
                    None,
                    SchedulerPolicy::Lpt,
                    Some(&mut cb),
                );
            seen
        };
        let seq = collect(ExecMode::Sequential);
        assert!(
            seq.iter().any(|&(d, _)| d == PROGRESS_STRIDE),
            "the stride path fired"
        );
        assert_eq!(collect(ExecMode::ParallelHost(2)), seq);
    }

    #[test]
    fn parallel_host_tolerates_empty_and_idle_work() {
        let res = MultiCoreSim::new(
            MultiCoreConfig::new(3).with_exec(ExecMode::ParallelHost(3)),
            EngineConfig::rasa_dm(),
        )
        .run_streams(vec![Trace::new().stream()]);
        assert_eq!(res.instructions(), 0);
        assert_eq!(res.stranded_cores(), 3);
    }

    #[test]
    fn unprefetched_l2_charges_memory_latency() {
        // A load-dominated stream (an engine-bound one would hide the
        // memory time behind tile latency).
        let mut t = Trace::new();
        for i in 0..512u64 {
            t.push(TraceOp::VecLoad {
                dst: (i % 16) as u8,
                addr: i * 64,
            });
        }
        let mut cold_cfg = MultiCoreConfig::new(1);
        cold_cfg.prefetched = false;
        cold_cfg.mem_latency = 200;
        let cold =
            MultiCoreSim::new(cold_cfg, EngineConfig::rasa_dm()).run_streams(vec![t.stream()]);
        let warm = MultiCoreSim::new(MultiCoreConfig::new(1), EngineConfig::rasa_dm())
            .run_streams(vec![t.stream()]);
        assert!(cold.shared_l2.misses > 0);
        assert!(
            cold.core_cycles > warm.core_cycles,
            "cold misses must cost cycles: {} vs {}",
            cold.core_cycles,
            warm.core_cycles
        );
    }
}
