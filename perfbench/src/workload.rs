//! The three workloads, the cells they run, and the ways the benchmark
//! drives them: through the public `Sweep`/`Session` entry points (the
//! timed phase), one cell at a time through the per-cell calls a `Sweep`
//! worker makes (per-cell latency), and as a replay that calls each layer
//! function directly inside spans (the traced run).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use vegeta::isa::stream::InstStream;
use vegeta::kernels::TraceCacheStats;
use vegeta::lint;
use vegeta::prelude::*;
use vegeta::sim::CacheStats;
use vegeta::sparse::prune;
use vegeta_bench::perf_gate::perf_gate_engines;

use crate::stats::{paper_speedup, Record};
use crate::trace::Tracer;

/// Core counts of the `cores_grid` workload.
const GRID_CORES: [usize; 4] = [2, 4, 8, 16];

/// Cores each `shard8_replay` cell is sharded across.
const SHARD8_CORES: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Sweep::figure13()` at full fidelity: 12 layers × 10 engines ×
    /// {4:4, 2:4, 1:4}, single-core.
    Fig13Full,
    /// One `Session::run_layer_cores_at(.., 8)` call at a time over
    /// 12 layers × 3 engine classes × {4:4, 2:4, 1:4}.
    Shard8Replay,
    /// A `Sweep` over 12 layers × 3 engine classes × 2:4 × {2, 4, 8, 16}
    /// cores.
    CoresGrid,
}

/// One grid cell: a layer at full size on one engine at one sparsity,
/// single-core (`cores == None`) or sharded.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Table IV layer.
    pub layer: Layer,
    /// Engine design point.
    pub engine: EngineConfig,
    /// Weight sparsity.
    pub ratio: NmRatio,
    /// Simulated cores; `None` is the classic single-core path.
    pub cores: Option<usize>,
}

impl Cell {
    /// `layer|engine|sparsity|cores`, the key of the pinned records.
    pub fn id(&self) -> String {
        cell_id(
            self.layer.name,
            self.engine.name(),
            &self.ratio.to_string(),
            self.cores.unwrap_or(1),
        )
    }

    fn shape(&self) -> GemmShape {
        Fidelity::Full.shape_of(&self.layer)
    }

    fn spec(&self) -> KernelSpec {
        self.engine
            .kernel_spec(self.ratio, KernelOptions::default())
    }
}

/// The record id of a cell.
pub fn cell_id(layer: &str, engine: &str, sparsity: &str, cores: usize) -> String {
    format!("{layer}|{engine}|{sparsity}|{cores}")
}

/// A deterministic permutation of `items` drawn from `seed` (Fisher–Yates
/// over a splitmix64 sequence).
pub fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The submission-order seed of a run's `pass`-th pass: pass 0 takes the
/// run's seed, later passes derive fresh orders from it, so a run averages
/// over several orders while staying a function of its seed.
pub fn pass_order(seed: u64, pass: u64) -> u64 {
    seed.wrapping_add(pass.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig13Full,
        Workload::Shard8Replay,
        Workload::CoresGrid,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13Full => "fig13_full",
            Workload::Shard8Replay => "shard8_replay",
            Workload::CoresGrid => "cores_grid",
        }
    }

    /// The workload with a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pinned `(id, cycles, instructions)` records of every cell.
    pub fn pins_text(self) -> &'static str {
        match self {
            Workload::Fig13Full => include_str!("../pinned/fig13_full.tsv"),
            Workload::Shard8Replay => include_str!("../pinned/shard8_replay.tsv"),
            Workload::CoresGrid => include_str!("../pinned/cores_grid.tsv"),
        }
    }

    /// `true` when the timed phase is one `Sweep::run` (cells share the
    /// sweep's pool), `false` when it is one `Session` call per cell.
    pub fn uses_sweep(self) -> bool {
        self != Workload::Shard8Replay
    }

    fn engines(self) -> Vec<EngineConfig> {
        match self {
            Workload::Fig13Full => figure13_engines(),
            Workload::Shard8Replay | Workload::CoresGrid => perf_gate_engines(),
        }
    }

    fn ratios(self) -> Vec<NmRatio> {
        match self {
            Workload::Fig13Full | Workload::Shard8Replay => figure13_sparsities(),
            Workload::CoresGrid => vec![NmRatio::S2_4],
        }
    }

    fn core_axis(self) -> Vec<Option<usize>> {
        match self {
            Workload::Fig13Full => vec![None],
            Workload::Shard8Replay => vec![Some(SHARD8_CORES)],
            Workload::CoresGrid => GRID_CORES.iter().map(|&c| Some(c)).collect(),
        }
    }

    /// Whether the workload's own cells take the host-parallel replay
    /// (`shard8_replay`, under `ExecMode::Auto`) rather than the sequential
    /// merge (`cores_grid`, one host thread per pooled cell).
    fn runs_parallel_host(self) -> bool {
        self == Workload::Shard8Replay
    }

    /// Table IV layers in the order the seed submits them (sweeps) or in
    /// table order (`shard8_replay`, whose whole cell order is permuted).
    fn layers(self, seed: u64) -> Vec<Layer> {
        let mut layers = table4();
        if self.uses_sweep() {
            permute(&mut layers, seed);
        }
        layers
    }

    /// Every cell in submission order: layer → sparsity → cores → engine
    /// (a `Sweep`'s own order over the seed-permuted layers), or the whole
    /// list permuted by the seed for `shard8_replay`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut cells = Vec::new();
        for layer in self.layers(seed) {
            for ratio in self.ratios() {
                for cores in self.core_axis() {
                    for engine in self.engines() {
                        cells.push(Cell {
                            layer,
                            engine,
                            ratio,
                            cores,
                        });
                    }
                }
            }
        }
        if !self.uses_sweep() {
            permute(&mut cells, seed);
        }
        cells
    }

    /// The workload's `Sweep`, with the seed-permuted layer order (`None`
    /// for `shard8_replay`). `fig13_full` is `Sweep::figure13()` with its
    /// layers submitted in that order.
    pub fn sweep(self, seed: u64) -> Option<Sweep> {
        let base = Sweep::new()
            .with_engines(self.engines())
            .with_layers(self.layers(seed))
            .with_sparsities(self.ratios());
        match self {
            Workload::Fig13Full => Some(base),
            Workload::Shard8Replay => None,
            Workload::CoresGrid => Some(base.with_cores(GRID_CORES)),
        }
    }
}

/// CPU seconds this process has used so far, over all its threads (user +
/// system, from `/proc/self/stat` in its fixed 100 Hz ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesized command name start at field 3, so
    // utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("numeric tick count"))
        .sum();
    ticks as f64 / 100.0
}

/// The outcome of one pass over a workload's cells.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Host CPU seconds the pass used, over all threads.
    pub cpu_s: f64,
    /// One record per cell attempted (zero counts for a cell that never
    /// simulated).
    pub records: Vec<Record>,
    /// Host milliseconds per cell (empty for a whole-`Sweep` pass).
    pub cell_ms: Vec<f64>,
    /// Cells that failed a per-cell check (lint rejected, or simulated
    /// instructions differing from the stream's declared length).
    pub bad_cells: Vec<String>,
    /// Trace-cache counters at the end of the pass.
    pub cache: TraceCacheStats,
}

fn record_of(r: &RunReport) -> Record {
    Record {
        id: cell_id(&r.workload, &r.engine, &r.sparsity, r.cores),
        cycles: r.cycles,
        instructions: r.instructions,
    }
}

/// One pass through the public entry points: a fresh `Sweep::run`, or one
/// `Session::run_layer_cores_at` call per cell with fresh per-engine
/// sessions sharing one trace cache. Fresh state each pass keeps every
/// pass doing the same lint and trace work.
pub fn run_pass(wl: Workload, seed: u64) -> Pass {
    let mut pass = Pass::default();
    let cpu = process_cpu_s();
    let start = Instant::now();
    if let Some(sweep) = wl.sweep(seed) {
        let report = sweep.run();
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.cpu_s = process_cpu_s() - cpu;
        pass.cache = report.cache;
        for r in &report.cells {
            if r.insts_streamed != r.instructions {
                pass.bad_cells.push(record_of(r).id);
            }
            pass.records.push(record_of(r));
        }
        return pass;
    }
    let cache = Arc::new(TraceCache::new());
    let mut sessions: BTreeMap<String, Session> = BTreeMap::new();
    for engine in wl.engines() {
        let name = engine.name().to_string();
        sessions.insert(name, Session::new(engine).with_cache(Arc::clone(&cache)));
    }
    for cell in wl.cells(seed) {
        let session = &sessions[cell.engine.name()];
        let cores = cell.cores.unwrap_or(1);
        let t = Instant::now();
        let r = session.run_layer_cores_at(&cell.layer, cell.ratio, Fidelity::Full, cores);
        pass.cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if r.insts_streamed != r.instructions {
            pass.bad_cells.push(record_of(&r).id);
        }
        pass.records.push(record_of(&r));
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu;
    pass.cache = cache.stats();
    pass
}

/// Simulates one cell with the calls a `Sweep` worker makes: the memoized
/// lint preflight, then the streamed `CoreSim` replay or the LPT shard set
/// on a `MultiCoreSim` under `exec`.
///
/// # Errors
///
/// The lint report, or a note when simulated instructions differ from the
/// stream's declared length.
fn simulate_cell(
    cell: &Cell,
    preflight: &Preflight,
    cache: &TraceCache,
    exec: ExecMode,
) -> Result<Record, String> {
    let (shape, spec) = (cell.shape(), cell.spec());
    let (cycles, instructions, declared) = match cell.cores {
        None => {
            preflight.verify(shape, &spec, 0, SchedulerPolicy::Static)?;
            let stream = cache.stream(shape, &spec);
            let declared = stream.remaining();
            let res = CoreSim::new(SimConfig::default(), cell.engine.clone()).run_stream(stream);
            (res.core_cycles, res.instructions, declared)
        }
        Some(n) => {
            preflight.verify(shape, &spec, n, SchedulerPolicy::Lpt)?;
            cache.summary(shape, &spec);
            let set = spec.shard_set(shape, n);
            let declared = declared_ops(&set);
            let cfg = MultiCoreConfig::with_core(SimConfig::default(), n).with_exec(exec);
            let res = MultiCoreSim::new(cfg, cell.engine.clone()).run_sharded(
                set.shards,
                set.reduction,
                SchedulerPolicy::Lpt,
            );
            (res.core_cycles, res.instructions(), declared)
        }
    };
    if instructions != declared {
        return Err(format!("{declared} ops declared, {instructions} simulated"));
    }
    Ok(Record {
        id: cell.id(),
        cycles,
        instructions,
    })
}

/// One pass over a sweep workload's cells run one at a time, in submission
/// order, with the calls and host-thread split a `Sweep` worker makes,
/// timing each cell. `Sweep::run` reports no per-cell times, so this is
/// where a sweep workload's per-cell latency is measured. Running each
/// cell alone keeps its latency free of whichever cell shares the pool
/// with it, as a `shard8_replay` cell is.
pub fn run_cell_pass(wl: Workload, seed: u64) -> Pass {
    let cells = wl.cells(seed);
    let pool_threads = nproc().min(cells.len()).max(1);
    let exec = ExecMode::ParallelHost((nproc() / pool_threads).max(1));
    let preflight = Preflight::new();
    let cache = TraceCache::new();
    let mut pass = Pass::default();
    let cpu = process_cpu_s();
    let start = Instant::now();
    for cell in &cells {
        let t = Instant::now();
        let out = simulate_cell(cell, &preflight, &cache, exec);
        pass.cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let record = out.unwrap_or_else(|e| {
            eprintln!("cell {} failed: {e}", cell.id());
            pass.bad_cells.push(cell.id());
            Record {
                id: cell.id(),
                cycles: 0,
                instructions: 0,
            }
        });
        pass.records.push(record);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = process_cpu_s() - cpu;
    pass.cache = cache.stats();
    pass
}

/// The first cell in table order: the one set-up prepares.
fn first_cell(wl: Workload) -> Cell {
    let mut cells = wl.cells(0);
    cells.sort_by_key(|c| {
        table4()
            .iter()
            .position(|l| l.name == c.layer.name)
            .expect("a Table IV layer")
    });
    cells.swap_remove(0)
}

/// One cold set-up, in host seconds: build the seed-ordered cell list and
/// the workload's `Sweep` (or its per-engine sessions over one trace
/// cache), then do everything the first cell does before its first
/// simulated instruction — lint preflight, trace summary and stream, and
/// for sharded cells the shard plan.
pub fn setup_once(wl: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let cells = wl.cells(seed);
    let cache = Arc::new(TraceCache::new());
    let sweep = wl.sweep(seed);
    let sessions: Vec<Session> = if sweep.is_some() {
        Vec::new()
    } else {
        wl.engines()
            .into_iter()
            .map(|e| Session::new(e).with_cache(Arc::clone(&cache)))
            .collect()
    };
    let cell = first_cell(wl);
    let (shape, spec) = (cell.shape(), cell.spec());
    let preflight = Preflight::new();
    let ready = match cell.cores {
        None => {
            let ok = preflight.verify(shape, &spec, 0, SchedulerPolicy::Static);
            let stream = cache.stream(shape, &spec);
            ok.is_ok() && stream.remaining() > 0
        }
        Some(n) => {
            let ok = preflight.verify(shape, &spec, n, SchedulerPolicy::Lpt);
            cache.summary(shape, &spec);
            let set = spec.shard_set(shape, n);
            ok.is_ok() && !set.shards.is_empty()
        }
    };
    std::hint::black_box((&cells, &sweep, &sessions, ready));
    start.elapsed().as_secs_f64()
}

/// The unstructured-95% headline exactly as `headline_speedups` computes
/// it: the mean row-wise speedup over the twelve full-size layers, weights
/// seeded 7000 + layer index.
pub fn unstructured_headline() -> f64 {
    let model = GranularityModel::default();
    let layers = table4();
    let total: f64 = layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let shape = layer.scaled_shape(1);
            let mut rng = vegeta::rand_seed(7000 + i as u64);
            let a = prune::random_unstructured(shape.m, shape.k, 0.95, &mut rng);
            model.speedup(GranularityHw::RowWise, &a)
        })
        .sum();
    total / layers.len() as f64
}

/// One simulated headline beside the paper's figure.
#[derive(Debug)]
pub struct Headline {
    /// What is compared, such as `2:4` or `2:4@16c`.
    pub label: String,
    /// Simulated speedup of VEGETA-S-16-2+OF over RASA-DM.
    pub simulated: f64,
    /// The paper's speedup for the same sparsity.
    pub paper: f64,
}

/// The headline speedups a workload's cells produce — the geomean over the
/// twelve layers of RASA-DM cycles / VEGETA-S-16-2+OF cycles per sparsity
/// (and per core count on `cores_grid`) — plus the unstructured-95%
/// figure, each beside the paper's number.
pub fn headlines(wl: Workload, records: &[Record], unstructured: f64) -> Vec<Headline> {
    let cycles: BTreeMap<&str, u64> = records.iter().map(|r| (r.id.as_str(), r.cycles)).collect();
    let base = EngineConfig::rasa_dm();
    let ours = EngineConfig::vegeta_s(16)
        .expect("alpha 16 is a Table III design")
        .with_output_forwarding(true);
    let mut out = Vec::new();
    for ratio in wl.ratios() {
        for cores in wl.core_axis() {
            let c = cores.unwrap_or(1);
            let label = ratio.to_string();
            let speedups: Vec<f64> = table4()
                .iter()
                .filter_map(|l| {
                    let b = cycles.get(cell_id(l.name, base.name(), &label, c).as_str())?;
                    let o = cycles.get(cell_id(l.name, ours.name(), &label, c).as_str())?;
                    Some(*b as f64 / *o as f64)
                })
                .collect();
            if speedups.len() != table4().len() {
                continue;
            }
            out.push(Headline {
                label: match cores {
                    Some(n) if wl == Workload::CoresGrid => format!("{label}@{n}c"),
                    _ => label.clone(),
                },
                simulated: geomean(&speedups).expect("twelve layers"),
                paper: paper_speedup(&label).expect("a headline sparsity"),
            });
        }
    }
    out.push(Headline {
        label: "unstructured-95%".to_string(),
        simulated: unstructured,
        paper: paper_speedup("unstructured-95%").expect("a headline label"),
    });
    out
}

/// Per-layer totals of one direct-call replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// One record per cell (the sequential result for sharded cells).
    pub records: Vec<Record>,
    /// Cells failing lint, the declared-length check, or the
    /// sequential == parallel check.
    pub bad_cells: Vec<String>,
    /// Host seconds draining streams without simulating.
    pub gen_s: f64,
    /// Ops drained.
    pub gen_ops: u64,
    /// Host seconds in `KernelSpec::shard_set`.
    pub plan_s: f64,
    /// Host seconds in `verify_spec` / `verify_shard_set`.
    pub lint_s: f64,
    /// Ops the verifier checked.
    pub lint_ops: u64,
    /// Host seconds in `CoreSim::run_stream`.
    pub core_s: f64,
    /// Instructions `CoreSim` simulated.
    pub core_insts: u64,
    /// Host seconds in `MultiCoreSim::run_sharded` under `Sequential`.
    pub seq_s: f64,
    /// Host seconds in `MultiCoreSim::run_sharded` under `ParallelHost`.
    pub par_s: f64,
    /// Instructions of the sharded cells (each run once per mode).
    pub mc_insts: u64,
    /// Per-cell sequential / parallel host-time ratios.
    pub par_speedups: Vec<f64>,
    /// Simulated cycles, summed over cells.
    pub cycles: u64,
    /// Private-L1 traffic, summed over cells and cores.
    pub l1: CacheStats,
    /// Shared-L2 traffic, summed over sharded cells.
    pub l2: SharedL2Stats,
    /// Shards simulated.
    pub shards: u64,
    /// Cores left without work.
    pub stranded: u64,
    /// Host seconds in the unstructured-95% headline model.
    pub model_s: f64,
}

/// Ops a shard set declares: every shard plus the reduction pass.
fn declared_ops(set: &ShardSet) -> u64 {
    set.shards.iter().map(InstStream::remaining).sum::<u64>()
        + set.reduction.as_ref().map_or(0, InstStream::remaining)
}

fn drain<S: InstStream>(mut stream: S) -> u64 {
    let mut ops = 0;
    while let Some(op) = stream.next_op() {
        std::hint::black_box(&op);
        ops += 1;
    }
    ops
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Replays the workload's cells one at a time in submission order, calling
/// each layer function directly inside a span: stream generation, lint,
/// shard planning, `CoreSim`, and `MultiCoreSim` sequentially and — on
/// `shard8_replay` — again under `ParallelHost(nproc)`, checking the two
/// results are equal. Lint runs once per distinct cell, as the workload's
/// preflight memoizes it.
pub fn replay(wl: Workload, seed: u64, tracer: &mut Tracer) -> Replay {
    let mut acc = Replay::default();
    // Lint memo keys, scoped the way the workload's preflight memo is: one
    // memo per sweep, one per engine session on `shard8_replay`.
    let mut linted: HashSet<(String, GemmShape, KernelSpec, usize)> = HashSet::new();
    let cache = TraceCache::new();
    tracer.enter("replay");
    let t = Instant::now();
    std::hint::black_box(tracer.span("model.granularity", unstructured_headline));
    acc.model_s = t.elapsed().as_secs_f64();
    for cell in wl.cells(seed) {
        tracer.enter("core.cell");
        let (shape, spec) = (cell.shape(), cell.spec());
        let n = cell.cores.unwrap_or(0);
        let scope = if wl.uses_sweep() {
            String::new()
        } else {
            cell.engine.name().to_string()
        };
        if linted.insert((scope, shape, spec.clone(), n)) {
            let report = timed(&mut acc.lint_s, || {
                tracer.span("lint.verify", || match n {
                    0 => lint::verify_spec(&spec, shape),
                    _ => lint::verify_shard_set(&spec, shape, n),
                })
            });
            acc.lint_ops += report.ops_checked;
            if !report.is_clean() {
                eprintln!("cell {} rejected by lint:\n{report}", cell.id());
                acc.bad_cells.push(cell.id());
            }
        }
        let record = if n == 0 {
            let declared = cache.summary(shape, &spec).ops;
            let ops = timed(&mut acc.gen_s, || {
                tracer.span("kernels.gen", || drain(cache.stream(shape, &spec)))
            });
            acc.gen_ops += ops;
            let res = timed(&mut acc.core_s, || {
                tracer.span("sim.core", || {
                    CoreSim::new(SimConfig::default(), cell.engine.clone())
                        .run_stream(cache.stream(shape, &spec))
                })
            });
            if res.instructions != declared || ops != declared {
                acc.bad_cells.push(cell.id());
            }
            acc.core_insts += res.instructions;
            acc.l1 += &res.cache;
            (res.core_cycles, res.instructions)
        } else {
            let set = timed(&mut acc.plan_s, || {
                tracer.span("kernels.shard_plan", || spec.shard_set(shape, n))
            });
            acc.shards += set.shards.len() as u64;
            let ops = timed(&mut acc.gen_s, || {
                tracer.span("kernels.gen", || {
                    set.shards.iter().cloned().map(drain).sum::<u64>()
                        + set.reduction.clone().map_or(0, drain)
                })
            });
            acc.gen_ops += ops;
            let run = |exec: ExecMode| {
                let cfg = MultiCoreConfig::with_core(SimConfig::default(), n).with_exec(exec);
                MultiCoreSim::new(cfg, cell.engine.clone()).run_sharded(
                    set.shards.clone(),
                    set.reduction.clone(),
                    SchedulerPolicy::Lpt,
                )
            };
            let mut seq_s = 0.0;
            let seq = timed(&mut seq_s, || {
                tracer.span("sim.mc.seq", || run(ExecMode::Sequential))
            });
            acc.seq_s += seq_s;
            if wl.runs_parallel_host() {
                let mut par_s = 0.0;
                let par = timed(&mut par_s, || {
                    tracer.span("sim.mc.par", || run(ExecMode::ParallelHost(nproc())))
                });
                acc.par_s += par_s;
                acc.par_speedups.push(seq_s / par_s);
                if par != seq {
                    eprintln!(
                        "cell {}: parallel result differs from sequential",
                        cell.id()
                    );
                    acc.bad_cells.push(cell.id());
                }
            }
            if seq.instructions() != ops || ops != declared_ops(&set) {
                acc.bad_cells.push(cell.id());
            }
            acc.mc_insts += seq.instructions();
            acc.l1 += &seq.merged_cache();
            acc.l2.accesses += seq.shared_l2.accesses;
            acc.l2.hits += seq.shared_l2.hits;
            acc.l2.misses += seq.shared_l2.misses;
            acc.l2.shared_hits += seq.shared_l2.shared_hits;
            acc.stranded += seq.stranded_cores() as u64;
            (seq.core_cycles, seq.instructions())
        };
        acc.cycles += record.0;
        acc.records.push(Record {
            id: cell.id(),
            cycles: record.0,
            instructions: record.1,
        });
        tracer.exit();
    }
    tracer.exit();
    acc
}
