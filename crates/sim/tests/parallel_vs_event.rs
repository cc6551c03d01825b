//! Differential pin for the host-parallel execution mode: running any
//! shard set with [`ExecMode::ParallelHost`] — worker threads simulating
//! whole cores against log-sink L2s, and the order-independent
//! first-touch fold of their logs into the real shared L2 — must produce
//! a [`MultiCoreResult`] identical **down to the last field** to the
//! sequential event merge ([`ExecMode::Sequential`]): makespan, barrier
//! and reduction cycles, every per-core `SimResult` (cycles, cache stats,
//! peak resident bytes), and the shared-L2 counters including
//! first-toucher `shared_hits` — on a fresh simulator and on a second run
//! of the same one, whose L2 already holds owned lines.
//!
//! The sweep deliberately includes the fallback envelope: with
//! `prefetched` off or `work_stealing` on the parallel mode must silently
//! run the sequential loop (cross-core coupling makes the timelines
//! interleave-dependent), and `Auto` must behave like one of the two —
//! never a third timing.

use proptest::prelude::*;
use vegeta_engine::EngineConfig;
use vegeta_isa::trace::{Trace, TraceOp};
use vegeta_kernels::{GemmShape, KernelOptions, KernelSpec, SparseMode};
use vegeta_sim::{ExecMode, MultiCoreConfig, MultiCoreSim, SchedulerPolicy, SimConfig};
use vegeta_sparse::NmRatio;

/// The kernel family under test, expanded to a [`KernelSpec`] per shape
/// (the row-wise family needs a per-row cover list sized to the shape).
#[derive(Debug, Clone, Copy)]
enum Family {
    TiledDense,
    Tiled2of4,
    Tiled1of4,
    Listing1,
    RowWise,
    Vector,
}

impl Family {
    fn spec(self, shape: GemmShape) -> KernelSpec {
        match self {
            Family::TiledDense => KernelSpec::Tiled {
                mode: SparseMode::Dense,
                opts: KernelOptions::default(),
            },
            Family::Tiled2of4 => KernelSpec::Tiled {
                mode: SparseMode::Nm2of4,
                opts: KernelOptions::default(),
            },
            Family::Tiled1of4 => KernelSpec::Tiled {
                mode: SparseMode::Nm1of4,
                opts: KernelOptions::default(),
            },
            Family::Listing1 => KernelSpec::Listing1 {
                mode: SparseMode::Nm2of4,
            },
            Family::RowWise => KernelSpec::RowWise {
                row_ratios: (0..shape.m.div_ceil(4))
                    .map(|r| match r % 3 {
                        0 => NmRatio::S1_4,
                        1 => NmRatio::S2_4,
                        _ => NmRatio::D4_4,
                    })
                    .collect(),
            },
            Family::Vector => KernelSpec::Vector,
        }
    }
}

fn family() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::TiledDense),
        Just(Family::Tiled2of4),
        Just(Family::Tiled1of4),
        Just(Family::Listing1),
        Just(Family::RowWise),
        Just(Family::Vector),
    ]
}

fn policy() -> impl Strategy<Value = SchedulerPolicy> {
    prop_oneof![Just(SchedulerPolicy::Static), Just(SchedulerPolicy::Lpt)]
}

/// Cuts `spec` at `shape` into the shard streams `policy` runs (the same
/// selection `Session` and `vegeta-serve` make).
fn shards_for(
    spec: &KernelSpec,
    shape: GemmShape,
    cores: usize,
    policy: SchedulerPolicy,
) -> (
    Vec<vegeta_kernels::ShardStream>,
    Option<vegeta_kernels::ShardStream>,
) {
    match policy {
        SchedulerPolicy::Static => (spec.shard_streams(shape, cores), None),
        SchedulerPolicy::Lpt => {
            let set = spec.shard_set(shape, cores);
            (set.shards, set.reduction)
        }
    }
}

proptest! {
    /// ParallelHost == Sequential over ragged shapes × kernel families ×
    /// both policies × prefetch on/off × 1/2/4/8 simulated cores × 1..4
    /// host threads, with the full result structure compared at once.
    /// Prefetch-off cases exercise the automatic sequential fallback.
    #[test]
    fn parallel_host_replay_is_field_identical_to_the_event_merge(
        m in 4usize..=90,
        n in 4usize..=70,
        k in 8usize..=200,
        fam in family(),
        cores_pow in 0u32..=3,
        pol in policy(),
        prefetched in any::<bool>(),
        host_threads in 1usize..=4,
    ) {
        let cores = 1usize << cores_pow; // 1, 2, 4, 8
        let shape = GemmShape::new(m, n, k);
        let spec = fam.spec(shape);
        let mut cfg = MultiCoreConfig::with_core(SimConfig::default(), cores);
        cfg.prefetched = prefetched;
        let engine = EngineConfig::vegeta_s(16).unwrap().with_output_forwarding(true);

        let (shards, reduction) = shards_for(&spec, shape, cores, pol);
        let sequential = MultiCoreSim::new(
            cfg.clone().with_exec(ExecMode::Sequential),
            engine.clone(),
        )
        .run_sharded(shards, reduction, pol);

        let (shards, reduction) = shards_for(&spec, shape, cores, pol);
        let parallel = MultiCoreSim::new(
            cfg.with_exec(ExecMode::ParallelHost(host_threads)),
            engine,
        )
        .run_sharded(shards, reduction, pol);

        // One structural assert covers every field: makespan, barrier and
        // reduction cycles, per-core SimResults (instructions, cache
        // hits/misses, engine-busy cycles, peak resident bytes), and the
        // shared-L2 stats. MultiCoreResult derives PartialEq.
        prop_assert_eq!(parallel, sequential);
    }

    /// Auto never invents a third timing: whatever the host's parallelism,
    /// its result equals the pinned Sequential result (which ParallelHost
    /// is separately proven equal to above) — including when work stealing
    /// forces the fallback.
    #[test]
    fn auto_mode_matches_sequential_including_fallback_cases(
        m in 8usize..=60,
        n in 8usize..=48,
        k in 16usize..=128,
        fam in family(),
        cores in 1usize..=5,
        stealing in any::<bool>(),
    ) {
        let shape = GemmShape::new(m, n, k);
        let spec = fam.spec(shape);
        let mut cfg = MultiCoreConfig::with_core(SimConfig::default(), cores);
        cfg.work_stealing = stealing;
        let engine = EngineConfig::vegeta_s(16).unwrap();

        let (shards, reduction) = shards_for(&spec, shape, cores, SchedulerPolicy::Lpt);
        let sequential = MultiCoreSim::new(
            cfg.clone().with_exec(ExecMode::Sequential),
            engine.clone(),
        )
        .run_sharded(shards, reduction, SchedulerPolicy::Lpt);

        let (shards, reduction) = shards_for(&spec, shape, cores, SchedulerPolicy::Lpt);
        let auto = MultiCoreSim::new(cfg.with_exec(ExecMode::Auto), engine)
            .run_sharded(shards, reduction, SchedulerPolicy::Lpt);

        prop_assert_eq!(auto, sequential);
    }
}

/// The parallel replay also agrees across engine classes (issue widths and
/// latencies shift every timestamp, so this catches an ordering assumption
/// that only holds for one engine's timing).
#[test]
fn parallel_host_agrees_across_engine_classes() {
    let shape = GemmShape::new(96, 64, 256);
    let engines = [
        EngineConfig::rasa_dm(),
        EngineConfig::stc_like(),
        EngineConfig::vegeta_s(16)
            .unwrap()
            .with_output_forwarding(true),
    ];
    let spec = KernelSpec::Tiled {
        mode: SparseMode::Nm2of4,
        opts: KernelOptions::default(),
    };
    for engine in engines {
        for cores in [2usize, 3, 8] {
            for host_threads in [2usize, 3] {
                let (shards, reduction) = shards_for(&spec, shape, cores, SchedulerPolicy::Lpt);
                let sequential = MultiCoreSim::new(
                    MultiCoreConfig::new(cores).with_exec(ExecMode::Sequential),
                    engine.clone(),
                )
                .run_sharded(shards, reduction, SchedulerPolicy::Lpt);
                let (shards, reduction) = shards_for(&spec, shape, cores, SchedulerPolicy::Lpt);
                let parallel = MultiCoreSim::new(
                    MultiCoreConfig::new(cores).with_exec(ExecMode::ParallelHost(host_threads)),
                    engine.clone(),
                )
                .run_sharded(shards, reduction, SchedulerPolicy::Lpt);
                assert_eq!(
                    parallel,
                    sequential,
                    "{} @ {cores} cores, {host_threads} host threads",
                    engine.name()
                );
            }
        }
    }
}

/// A trace of one-line vector loads, `count` lines from `base`.
fn loads(trace: &mut Trace, base: u64, count: u64) {
    for i in 0..count {
        trace.push(TraceOp::VecLoad {
            dst: (i % 16) as u8,
            addr: base + i * 64,
        });
    }
}

/// A second run on the same simulator starts with the first run's lines
/// resident and owned, and with the cores' clocks where they stopped.
/// Run 1 leaves core 1 far ahead in time owning 32 lines it then evicts
/// from its own 768-line L1; in run 2 the early-clocked core 0 loads them
/// too. The sequential merge keeps core 1 as their owner, so the parallel
/// path must not hand them to core 0's smaller stamps.
#[test]
fn parallel_host_matches_sequential_across_runs_on_one_simulator() {
    let shared = 1u64 << 20;
    let mut core0 = Trace::new();
    loads(&mut core0, 0, 4);
    let mut core1 = Trace::new();
    for i in 0..4000u32 {
        core1.push(TraceOp::Scalar {
            dst: (i % 8) as u8,
            src: 0,
        });
    }
    loads(&mut core1, shared, 32);
    loads(&mut core1, 1 << 24, 2048);
    let mut again = Trace::new();
    loads(&mut again, shared, 32);

    let runs = |exec: ExecMode| {
        let mut sim = MultiCoreSim::new(
            MultiCoreConfig::new(2).with_exec(exec),
            EngineConfig::rasa_dm(),
        );
        let first = sim.run_sharded(
            vec![core0.stream(), core1.stream()],
            None,
            SchedulerPolicy::Static,
        );
        let second = sim.run_sharded(
            vec![again.stream(), again.stream()],
            None,
            SchedulerPolicy::Static,
        );
        (first, second)
    };
    let sequential = runs(ExecMode::Sequential);
    assert!(sequential.1.shared_l2.shared_hits > sequential.0.shared_l2.shared_hits);
    assert_eq!(runs(ExecMode::ParallelHost(2)), sequential);
}
