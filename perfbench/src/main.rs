//! The repository benchmark: how long the simulator takes to produce the
//! paper's numbers, and how far those numbers sit from the paper.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig13_full --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the workload through the public `Sweep`/`Session`
//! entry points and prints the end-to-end metrics; `--trace 1` replays the
//! same cells calling each layer function directly inside spans and prints
//! the per-layer metrics. Both check every cell's simulated cycles and
//! instructions against the records pinned under `perfbench/pinned/`. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--print-pins` prints
//! one pass's records in the pinned format instead.

mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use vegeta::prelude::*;
use vegeta::sim::HOST_THREADS_ENV;

use stats::{
    failed_cells, format_pins, median, paper_err_pct, parse_pins, percentile_with_tail,
    signed_err_pct, summary_line, Record,
};
use trace::{self_times, Tracer};
use workload::{
    headlines, nproc, pass_order, replay, run_cell_pass, run_pass, setup_once, Workload,
};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Span names of the traced replay, each reported with its self time and
/// its share of the traced wall.
const SPAN_NAMES: [&str; 9] = [
    "replay",
    "core.cell",
    "kernels.gen",
    "kernels.shard_plan",
    "lint.verify",
    "sim.core",
    "sim.mc.seq",
    "sim.mc.par",
    "model.granularity",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_pins,
    })
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Checks a pass's records against the pins, printing each failed cell.
fn check(records: &[Record], bad_cells: &[String], pins: &stats::Pins) -> usize {
    let mut failed = failed_cells(records, pins);
    failed.extend(bad_cells.iter().cloned());
    failed.sort();
    failed.dedup();
    for id in &failed {
        eprintln!("failed cell: {id}");
    }
    failed.len()
}

/// The end-to-end run: set-up, then workload passes (and for sweep
/// workloads, one-cell-at-a-time passes for per-cell latency) until
/// `seconds` elapse.
fn run_untraced(args: &Args, pins: &stats::Pins) -> (usize, usize, Metrics) {
    let wl = args.workload;
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(wl, args.seed)).collect();
    let unstructured = workload::unstructured_headline();

    // Timed passes run the workload through its public entry point until
    // a quarter of the budget is spent; sweep workloads then run latency
    // passes, one cell at a time, until the rest is. `shard8_replay`
    // already runs one cell at a time, so its timed passes are its latency
    // passes. A phase stops once another pass would end more than half a
    // pass past its share of the budget.
    let budget = args.seconds;
    let start = Instant::now();
    let more = |done: usize, until: f64| {
        let elapsed = start.elapsed().as_secs_f64();
        done == 0 || elapsed + elapsed / done as f64 / 2.0 < until
    };
    let timed_share = if wl.uses_sweep() {
        budget / 4.0
    } else {
        budget
    };
    let mut passes = Vec::new();
    while more(passes.len(), timed_share) {
        passes.push(run_pass(wl, pass_order(args.seed, passes.len() as u64)));
    }
    let mut cell_passes = Vec::new();
    if wl.uses_sweep() {
        loop {
            let done = passes.len() + cell_passes.len();
            cell_passes.push(run_cell_pass(wl, pass_order(args.seed, done as u64)));
            if !more(done + 1, budget) {
                break;
            }
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    for p in passes.iter().chain(&cell_passes) {
        attempted += p.records.len();
        failed += check(&p.records, &p.bad_cells, pins);
    }
    let insts = |p: &workload::Pass| p.records.iter().map(|r| r.instructions).sum::<u64>() as f64;
    let cpu_rates: Vec<f64> = passes.iter().map(|p| insts(p) / p.cpu_s).collect();
    let wall_rates: Vec<f64> = passes.iter().map(|p| insts(p) / p.wall_s).collect();
    // Each cell's latency is its median over the latency passes, which
    // damps host noise that hits one pass; percentiles are over cells.
    let latency_passes = if wl.uses_sweep() {
        &cell_passes
    } else {
        &passes
    };
    let mut by_cell: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in latency_passes {
        for (r, ms) in p.records.iter().zip(&p.cell_ms) {
            by_cell.entry(&r.id).or_default().push(*ms);
        }
    }
    let cell_ms: Vec<f64> = by_cell.values().filter_map(|v| median(v)).collect();

    println!("{}: {}", wl.name(), summary_line(&passes[0].records));
    println!(
        "timed passes: {}, {:.0} insts per CPU-s, {:.0} insts per wall-s (medians); \
         latency passes: {}",
        passes.len(),
        median(&cpu_rates).unwrap_or(0.0),
        median(&wall_rates).unwrap_or(0.0),
        latency_passes.len()
    );
    let p50 = percentile_with_tail(&cell_ms, 50.0);
    let p90 = percentile_with_tail(&cell_ms, 90.0);
    if p50.is_none() || p90.is_none() {
        eprintln!("too few cell samples for p90: {}", cell_ms.len());
        failed += 1;
    }
    println!(
        "cell latency over {} cells: p50 {:.3} ms, p90 {:.3} ms",
        cell_ms.len(),
        p50.unwrap_or(f64::NAN),
        p90.unwrap_or(f64::NAN)
    );
    let heads = headlines(wl, &passes[0].records, unstructured);
    let pairs: Vec<(f64, f64)> = heads.iter().map(|h| (h.simulated, h.paper)).collect();
    for h in &heads {
        println!(
            "headline {:<18} simulated {:.3}x  paper {:.2}x  error {:+.2}%",
            h.label,
            h.simulated,
            h.paper,
            signed_err_pct(h.simulated, h.paper)
        );
    }
    let metrics = vec![
        ("setup_s".into(), median(&setups).unwrap_or(0.0), "s"),
        (
            "sim_insts_per_s".into(),
            median(&cpu_rates).unwrap_or(0.0),
            "1/s",
        ),
        ("peak_rss_mb".into(), peak_rss_mb().unwrap_or(0.0), "MB"),
        ("cell_ms_p50".into(), p50.unwrap_or(0.0), "ms"),
        ("cell_ms_p90".into(), p90.unwrap_or(0.0), "ms"),
        (
            "paper_err_pct".into(),
            paper_err_pct(&pairs).unwrap_or(0.0),
            "%",
        ),
    ];
    (attempted, failed, metrics)
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ns_per(seconds: f64, count: u64) -> f64 {
    frac(seconds * 1e9, count as f64)
}

/// The traced run: one untraced workload pass (trace-cache hit rate and
/// pool efficiency; sweep workloads add a one-cell-at-a-time pass for
/// per-cell times), then the direct-call replay with tracing off and on.
fn run_traced(args: &Args, pins: &stats::Pins) -> (usize, usize, Metrics) {
    let wl = args.workload;
    let pass = run_pass(wl, args.seed);
    let alone = wl.uses_sweep().then(|| run_cell_pass(wl, args.seed));
    let cell_s: f64 = alone.as_ref().unwrap_or(&pass).cell_ms.iter().sum::<f64>() / 1e3;
    let untraced = {
        let t = Instant::now();
        let r = replay(wl, args.seed, &mut Tracer::new(false));
        (r, t.elapsed().as_secs_f64())
    };
    let mut tracer = Tracer::new(true);
    let r = replay(wl, args.seed, &mut tracer);
    let spans = tracer.spans();
    let traced_wall = spans[0].end - spans[0].start;

    let mut attempted = 0;
    let mut failed = 0;
    let checked = [
        Some((&pass.records, &pass.bad_cells)),
        alone.as_ref().map(|p| (&p.records, &p.bad_cells)),
        Some((&untraced.0.records, &untraced.0.bad_cells)),
        Some((&r.records, &r.bad_cells)),
    ];
    for (records, bad) in checked.into_iter().flatten() {
        attempted += records.len();
        failed += check(records, bad, pins);
    }

    let gen_ns = ns_per(r.gen_s, r.gen_ops);
    let pool_threads = if wl.uses_sweep() { nproc() } else { 1 };
    let accesses = r.l1.l1_hits + r.l1.l2_hits;
    let par_speedup = geomean(&r.par_speedups).unwrap_or(0.0);
    let mut metrics: Metrics = vec![
        ("kernels.gen_ns_per_op".into(), gen_ns, "ns"),
        ("kernels.shard_plan_ms".into(), r.plan_s * 1e3, "ms"),
        (
            "kernels.trace_cache_hit_frac".into(),
            frac(
                pass.cache.hits as f64,
                (pass.cache.hits + pass.cache.misses) as f64,
            ),
            "frac",
        ),
        (
            "lint.verify_ns_per_op".into(),
            ns_per(r.lint_s, r.lint_ops),
            "ns",
        ),
        ("lint.ops_checked".into(), r.lint_ops as f64, "count"),
        (
            "sim.core.step_ns_per_inst".into(),
            if r.core_insts > 0 {
                ns_per(r.core_s, r.core_insts) - gen_ns
            } else {
                0.0
            },
            "ns",
        ),
        (
            "sim.mc.seq_ns_per_inst".into(),
            ns_per(r.seq_s, r.mc_insts),
            "ns",
        ),
        (
            "sim.mc.par_ns_per_inst".into(),
            if r.par_speedups.is_empty() {
                0.0
            } else {
                ns_per(r.par_s, r.mc_insts)
            },
            "ns",
        ),
        ("sim.mc.par_speedup".into(), par_speedup, "x"),
        (
            "sim.insts".into(),
            (r.core_insts + r.mc_insts) as f64,
            "count",
        ),
        ("sim.cycles".into(), r.cycles as f64, "count"),
        ("sim.l1.accesses".into(), accesses as f64, "count"),
        (
            "sim.l1.hit_frac".into(),
            frac(r.l1.l1_hits as f64, accesses as f64),
            "frac",
        ),
        ("sim.l2.accesses".into(), r.l2.accesses as f64, "count"),
        (
            "sim.l2.shared_frac".into(),
            frac(r.l2.shared_hits as f64, r.l2.accesses as f64),
            "frac",
        ),
        ("sim.mc.shards".into(), r.shards as f64, "count"),
        ("sim.mc.stranded_cores".into(), r.stranded as f64, "count"),
        (
            "core.sweep.pool_eff".into(),
            frac(cell_s, pool_threads as f64 * pass.wall_s),
            "frac",
        ),
        ("model.granularity_ms".into(), r.model_s * 1e3, "ms"),
    ];

    let selfs = self_times(spans);
    let accounted: f64 = selfs.values().sum();
    println!(
        "traced replay: wall {traced_wall:.3} s, untraced {:.3} s, overhead {:+.3} s; \
         self times account for {:.6} of the traced wall",
        untraced.1,
        traced_wall - untraced.1,
        frac(accounted, traced_wall)
    );
    println!("{:<20} {:>10} {:>8}", "span", "self s", "share");
    for name in SPAN_NAMES {
        let own = selfs.get(name).copied().unwrap_or(0.0);
        println!("{name:<20} {own:>10.4} {:>8.4}", frac(own, traced_wall));
        metrics.push((format!("trace.{name}.self_s"), own, "s"));
        metrics.push((
            format!("trace.{name}.share"),
            frac(own, traced_wall),
            "frac",
        ));
    }
    metrics.push(("trace.wall_s".into(), traced_wall, "s"));
    metrics.push(("trace.untraced_wall_s".into(), untraced.1, "s"));
    metrics.push(("trace.overhead_s".into(), traced_wall - untraced.1, "s"));
    println!(
        "sim.mc.par_speedup over {} cells: {par_speedup:.3}x",
        r.par_speedups.len()
    );
    (attempted, failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Ok(v) = std::env::var(HOST_THREADS_ENV) {
        eprintln!(
            "perfbench: refusing to run with {HOST_THREADS_ENV}={v}: it moves every \
             multi-core cell onto a fixed host-thread count"
        );
        return ExitCode::from(2);
    }
    let wl = args.workload;
    if args.print_pins {
        print!("{}", format_pins(&run_pass(wl, args.seed).records));
        return ExitCode::SUCCESS;
    }
    let pins = match parse_pins(wl.pins_text()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shard8 = MultiCoreConfig::with_core(SimConfig::default(), 8);
    println!(
        "host: nproc {}, resolved host threads: 8-core Session cell {}, pooled sweep cell {}",
        nproc(),
        shard8.resolved_host_threads(),
        shard8
            .with_exec(ExecMode::ParallelHost(1))
            .resolved_host_threads()
    );
    println!(
        "workload {} seed {} trace {}",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (attempted, failed, metrics) = if args.trace {
        run_traced(&args, &pins)
    } else {
        run_untraced(&args, &pins)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
