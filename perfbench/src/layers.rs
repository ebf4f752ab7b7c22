//! Per-layer metrics of a traced run.
//!
//! Every workload prints every metric. Where a layer does not exist in a
//! workload the value is that of a one-scene, one-device, log-less
//! deployment: a single-scene run merges no launches (ratio 1), keeps one
//! scene live, queues nothing, migrates nothing and writes no WAL; its
//! "fleet tick" is one pipeline step.

use crate::fleet::FleetLayer;
use crate::replay::{Pass, LAYERS};
use crate::scene::SceneRun;
use crate::stats::{mean, median, tail, Metrics};

/// Paper Table III (rockfall, K40) per-module speed-ups, in
/// `ModuleTimes` row order, then the total (EXPERIMENTS.md).
pub const PAPER_TABLE3_K40: [(&str, f64); 7] = [
    ("contact", 93.57),
    ("diag", 32.77),
    ("nondiag", 2.39),
    ("solver", 4.44),
    ("interpenetration", 16.58),
    ("update", 14.81),
    ("total", 6.26),
];

/// Inputs of the per-layer computation.
pub struct LayerInput<'a> {
    /// Scene runs whose steps and replays the physics layers summarize
    /// (the traced run itself for single-scene workloads; the solo
    /// reference runs of the completed scenes for the fleet).
    pub runs: &'a [SceneRun],
    /// Host seconds of the traced `pipeline.step` (or `fleet.tick`) spans.
    pub traced_walls: &'a [f64],
    /// Host seconds of the same unit measured without tracing.
    pub untraced_walls: &'a [f64],
    /// Fleet counters (fleet workload only).
    pub fleet: Option<&'a FleetLayer>,
    /// Host seconds of each fleet tick (fleet workload only).
    pub tick_walls: &'a [f64],
    /// Scene-steps the fleet completed (fleet workload only).
    pub fleet_scene_steps: u64,
    /// Report the paper speed-up ratios (rockfall at paper scale only).
    pub paper_scale: bool,
    /// Failed steps (or scenes) over attempted.
    pub failed_frac: f64,
    /// `pcg.max_iters` of the workload's parameters.
    pub pcg_max_iters: usize,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Computes every per-layer metric.
pub fn per_layer(inp: &LayerInput) -> Metrics {
    let mut m = Metrics::default();
    let steps: Vec<_> = inp.runs.iter().flat_map(|r| r.steps.iter()).collect();
    let reports: Vec<_> = steps.iter().filter_map(|s| s.report).collect();
    let ok_steps: Vec<_> = steps.iter().filter(|s| s.report.is_some()).collect();
    let n = reports.len().max(1) as f64;
    let gpu: Vec<Pass> = inp
        .runs
        .iter()
        .flat_map(|r| r.gpu_passes.iter().copied())
        .collect();
    let ser: Vec<Pass> = inp
        .runs
        .iter()
        .flat_map(|r| r.serial_passes.iter().copied())
        .collect();
    let per_step =
        |f: &dyn Fn(&crate::scene::StepRec) -> f64| ok_steps.iter().map(|s| f(s)).sum::<f64>() / n;
    let pass_mean =
        |v: &[Pass], f: &dyn Fn(&Pass) -> f64| mean(&v.iter().map(f).collect::<Vec<_>>());

    // simt: the real steps' launches (fleet: every device's launches per
    // completed scene-step).
    match inp.fleet {
        None => {
            let mut k = dda_simt::KernelStats::default();
            for s in &ok_steps {
                k.merge(&s.kstats);
            }
            let wall: f64 = ok_steps.iter().map(|s| s.wall).sum();
            let modeled: f64 = ok_steps.iter().map(|s| s.phase.total()).sum();
            simt(&mut m, &k, n, wall, modeled);
        }
        Some(f) => {
            let wall: f64 = inp.tick_walls.iter().sum();
            let ss = inp.fleet_scene_steps.max(1) as f64;
            simt(&mut m, &f.kstats, ss, wall, f.aggregate_modeled);
        }
    }

    // Physics layers: modeled from the real steps' phase times; host
    // times from the replayed passes.
    let modeled_ms = [
        per_step(&|s| s.phase.contact_detection),
        per_step(&|s| s.phase.diag_building + s.phase.nondiag_building),
        per_step(&|s| s.phase.solving),
        per_step(&|s| s.phase.interpenetration),
        per_step(&|s| s.phase.updating),
    ];
    for (l, layer) in LAYERS.iter().enumerate() {
        m.put(
            &format!("{layer}.modeled_ms_per_step"),
            1e3 * modeled_ms[l],
            "ms",
        );
        m.put(
            &format!("{layer}.wall_ms"),
            1e3 * pass_mean(&gpu, &|p| p.wall[l]),
            "ms",
        );
        m.put(
            &format!("{layer}.serial_wall_ms"),
            1e3 * pass_mean(&ser, &|p| p.wall[l]),
            "ms",
        );
        m.put(
            &format!("{layer}.serial_modeled_ms"),
            1e3 * pass_mean(&ser, &|p| p.modeled[l]),
            "ms",
        );
        let (sm, sw): (f64, f64) = (
            ser.iter().map(|p| p.modeled[l]).sum(),
            ser.iter().map(|p| p.wall[l]).sum(),
        );
        m.put(
            &format!("{layer}.serial_model_ratio"),
            ratio(sm, sw),
            "ratio",
        );
    }

    m.put(
        "contact.broad_wall_ms",
        1e3 * pass_mean(&gpu, &|p| p.broad_wall),
        "ms",
    );
    m.put(
        "contact.narrow_wall_ms",
        1e3 * pass_mean(&gpu, &|p| p.narrow_wall),
        "ms",
    );
    m.put(
        "contact.pairs_per_step",
        pass_mean(&gpu, &|p| p.pairs as f64),
        "count",
    );
    m.put(
        "contact.contacts_per_step",
        pass_mean(&gpu, &|p| p.contacts as f64),
        "count",
    );
    let (pairs, contacts): (f64, f64) = (
        gpu.iter().map(|p| p.pairs as f64).sum(),
        gpu.iter().map(|p| p.contacts as f64).sum(),
    );
    m.put("contact.pair_yield", ratio(contacts, pairs), "frac");
    let (hits, rebuilds) = inp.runs.iter().fold((0, 0), |a, r| {
        (a.0 + r.broad_cache.0, a.1 + r.broad_cache.1)
    });
    m.put(
        "contact.broad_cache_hit_frac",
        ratio(hits as f64, (hits + rebuilds) as f64),
        "frac",
    );

    m.put(
        "assembly.passes_per_step",
        per_step(&|s| s.nondiag_launches as f64),
        "count",
    );
    m.put(
        "assembly.upper_blocks",
        reports.iter().map(|r| r.n_upper as f64).sum::<f64>() / n,
        "count",
    );
    let (spliced, recomputed) = inp
        .runs
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.splice.0, a.1 + r.splice.1));
    m.put(
        "assembly.splice_frac",
        ratio(spliced as f64, (spliced + recomputed) as f64),
        "frac",
    );

    let iters: f64 = reports.iter().map(|r| r.pcg_iterations as f64).sum();
    let (refills, rebuilds) = inp.runs.iter().fold((0, 0), |a, r| {
        (a.0 + r.format_cache.0, a.1 + r.format_cache.1)
    });
    let solves = (refills + rebuilds) as f64;
    m.put("solver.pcg_iters_per_step", iters / n, "count");
    m.put("solver.iters_per_solve", ratio(iters, solves), "count");
    let capped = reports
        .iter()
        .filter(|r| r.last_solve_iterations >= inp.pcg_max_iters)
        .count();
    m.put("solver.capped_frac", capped as f64 / n, "frac");
    m.put(
        "solver.format_rebuild_frac",
        ratio(rebuilds as f64, solves),
        "frac",
    );
    m.put(
        "solver.fallback_solves",
        inp.runs.iter().map(|r| r.fallback_solves as f64).sum(),
        "count",
    );

    m.put(
        "openclose.iters_per_step",
        reports.iter().map(|r| r.oc_iterations as f64).sum::<f64>() / n,
        "count",
    );
    m.put(
        "openclose.unconverged_frac",
        reports.iter().filter(|r| !r.oc_converged).count() as f64 / n,
        "frac",
    );
    let pen = reports
        .iter()
        .map(|r| r.max_open_penetration)
        .fold(0.0, f64::max);
    m.put("openclose.max_open_penetration", pen, "m");

    m.put(
        "pipeline.retries_per_step",
        reports.iter().map(|r| r.retries as f64).sum::<f64>() / n,
        "count",
    );
    m.put(
        "pipeline.dt_floor_frac",
        ok_steps.iter().filter(|s| s.at_dt_floor).count() as f64 / n,
        "frac",
    );
    m.put(
        "pipeline.step_wall_ms",
        1e3 * median(inp.traced_walls),
        "ms",
    );
    let overhead = ratio(median(inp.traced_walls), median(inp.untraced_walls)) - 1.0;
    m.put("pipeline.tracing_overhead_frac", overhead, "frac");
    m.put("pipeline.failed_frac", inp.failed_frac, "frac");

    // Serving layers.
    match inp.fleet {
        None => {
            m.put("batch.launch_merge_ratio", 1.0, "ratio");
            m.put("batch.live_scenes_mean", 1.0, "count");
            m.put("ingest.queue_len_max", 0.0, "count");
            m.put("ingest.admission_p50_ticks", 0.0, "ticks");
            m.put("ingest.admission_tail_ticks", 0.0, "ticks");
            let walls: Vec<f64> = ok_steps.iter().map(|s| s.wall).collect();
            m.put("fleet.tick_wall_p50_ms", 1e3 * median(&walls), "ms");
            m.put("fleet.tick_wall_tail_ms", 1e3 * tail(&walls).value, "ms");
            m.put("fleet.migrations", 0.0, "count");
            m.put("fleet.device_load_skew", 1.0, "ratio");
            m.put("wal.syncs_per_tick", 0.0, "count");
            m.put("wal.bytes_per_tick", 0.0, "B");
            m.put("wal.modeled_frac", 0.0, "frac");
        }
        Some(f) => {
            m.put(
                "batch.launch_merge_ratio",
                ratio(f.launches_in as f64, f.launches_out as f64),
                "ratio",
            );
            m.put("batch.live_scenes_mean", mean(&f.live_per_tick), "count");
            m.put("ingest.queue_len_max", f.queue_len_max as f64, "count");
            m.put("ingest.admission_p50_ticks", median(&f.admission), "ticks");
            m.put(
                "ingest.admission_tail_ticks",
                tail(&f.admission).value,
                "ticks",
            );
            m.put("fleet.tick_wall_p50_ms", 1e3 * median(inp.tick_walls), "ms");
            m.put(
                "fleet.tick_wall_tail_ms",
                1e3 * tail(inp.tick_walls).value,
                "ms",
            );
            m.put("fleet.migrations", f.migrations as f64, "count");
            let dm = mean(&f.device_modeled);
            m.put(
                "fleet.device_load_skew",
                ratio(f.device_modeled.iter().copied().fold(0.0, f64::max), dm),
                "ratio",
            );
            let ticks = f.ticks.max(1) as f64;
            m.put("wal.syncs_per_tick", f.wal_syncs as f64 / ticks, "count");
            m.put("wal.bytes_per_tick", f.wal_bytes as f64 / ticks, "B");
            m.put(
                "wal.modeled_frac",
                ratio(f.wal_modeled, f.aggregate_modeled),
                "frac",
            );
        }
    }

    // Model fidelity against the paper: modeled K40-over-E5620 speed-up
    // per module over the run's window, divided by Table III's figure.
    let gpu_rows: Vec<f64> = sum_rows(ok_steps.iter().map(|s| s.phase.rows()));
    let cpu_rows: Vec<f64> = sum_rows(ok_steps.iter().map(|s| s.serial_phase.rows()));
    for (i, (name, paper)) in PAPER_TABLE3_K40.iter().enumerate() {
        let value = if inp.paper_scale {
            let (c, g) = if i < 6 {
                (cpu_rows[i], gpu_rows[i])
            } else {
                (cpu_rows.iter().sum(), gpu_rows.iter().sum())
            };
            ratio(ratio(c, g), *paper)
        } else {
            0.0
        };
        m.put(&format!("model.paper_speedup_ratio.{name}"), value, "ratio");
    }
    m
}

fn sum_rows<I: Iterator<Item = [(&'static str, f64); 6]>>(it: I) -> Vec<f64> {
    it.fold(vec![0.0; 6], |mut acc, rows| {
        for (a, (_, v)) in acc.iter_mut().zip(rows) {
            *a += v;
        }
        acc
    })
}

fn simt(m: &mut Metrics, k: &dda_simt::KernelStats, per: f64, wall: f64, modeled: f64) {
    m.put("simt.launches_per_step", k.launches as f64 / per, "count");
    m.put(
        "simt.host_us_per_launch",
        1e6 * ratio(wall, k.launches as f64),
        "us",
    );
    m.put("simt.host_s_per_modeled_s", ratio(wall, modeled), "s/s");
    m.put("simt.warps_per_step", k.warps as f64 / per, "count");
    // Computed bytes: 128-byte global transactions plus 32-byte texture
    // transactions, from the counters (no cache model).
    let bytes = 128.0 * k.gmem_transactions as f64 + 32.0 * k.tex_transactions as f64;
    m.put("simt.gmem_mb_per_step", bytes / 1e6 / per, "MB");
    m.put("simt.divergent_frac", k.divergence_fraction(), "frac");
}
