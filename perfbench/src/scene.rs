//! Scene generation and the lock-step device/serial scene run with its
//! per-step correctness gates.

use crate::probe::Probe;
use crate::replay::{replay_gpu, replay_serial, Pass};
use crate::trace::Tracer;
use dda_core::pipeline::{system_fingerprint, CpuPipeline, GpuPipeline, ModuleTimes, StepReport};
use dda_core::{BlockSystem, DdaParams};
use dda_geom::Vec2;
use dda_simt::{Device, DeviceProfile, KernelStats};
use dda_workloads::{rockfall_case, slope_case, RockfallConfig, SlopeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Centroid drift allowed between the device and serial trajectories
/// (reduction-order noise; the rule of the repository's batch-runtime
/// parity suite).
pub const DRIFT_TOL: f64 = 1e-6;

/// Host-speed probe samples before every step of a probed run.
const PROBES_PER_STEP: usize = 3;

/// The paper's rockfall scale (case 2, Table III).
pub const PAPER_ROCKS: usize = 1683;

/// `rockfall_case` with `rocks` rocks, its release speed and rock size
/// perturbed from `seed` the way the repository's traffic generator
/// perturbs healthy scenes (±20% speed, ±4% size).
pub fn rockfall_scene(rocks: usize, seed: u64) -> (BlockSystem, DdaParams) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = RockfallConfig::default().with_rocks(rocks);
    let u = (rng.gen_range(0..401) as f64 - 200.0) / 1000.0;
    c.initial_speed *= 1.0 + u;
    c.rock_size *= 1.0 + 0.2 * u;
    rockfall_case(&c)
}

/// `SlopeConfig::default()` (≈421 blocks) with the seed in its joint
/// jitter; `target_blocks` overrides the size for the tiny mode only.
pub fn slope_scene(seed: u64, target_blocks: Option<usize>) -> (BlockSystem, DdaParams) {
    let mut c = SlopeConfig {
        seed,
        ..SlopeConfig::default()
    };
    if let Some(n) = target_blocks {
        c = c.with_target_blocks(n);
    }
    slope_case(&c)
}

/// A fresh K40 — the device every single-scene run and replay uses.
pub fn k40() -> Device {
    Device::new(DeviceProfile::tesla_k40())
}

/// One step of a scene run.
#[derive(Debug, Clone, Default)]
pub struct StepRec {
    /// Host seconds of `GpuPipeline::try_step`.
    pub wall: f64,
    /// Host seconds of the free-running `CpuPipeline::try_step`.
    pub serial_wall: f64,
    /// The device path's report (`None` when the step erred).
    pub report: Option<StepReport>,
    /// Modeled K40 seconds per module this step (the report's
    /// `phase_times`).
    pub phase: ModuleTimes,
    /// Modeled E5620 seconds per module this step (the free-running
    /// `CpuPipeline::times` delta; the serial pipeline leaves
    /// `phase_times` zero).
    pub serial_phase: ModuleTimes,
    /// Merged counters of the step's launches.
    pub kstats: KernelStats,
    /// Launches of `nondiag.` kernels (one per assembly pass).
    pub nondiag_launches: u64,
    /// Whether the accepted Δt sits at `dt_min`.
    pub at_dt_floor: bool,
    /// Failed: erred, open–close unconverged, or a gate mismatched.
    pub failed: bool,
    /// A correctness gate (parity, finiteness, replay fidelity) failed.
    pub gate_failed: bool,
}

/// A finished scene run.
#[derive(Debug, Clone, Default)]
pub struct SceneRun {
    /// Per-step records, in order.
    pub steps: Vec<StepRec>,
    /// Host seconds from pipeline construction to the last step's end
    /// (device path only).
    pub latency: f64,
    /// FNV-1a fingerprint of the device path's final system.
    pub fingerprint: u64,
    /// `(refills, rebuilds)` of the HSBCSR format cache.
    pub format_cache: (usize, usize),
    /// `(hits, rebuilds)` of the broad-phase cache.
    pub broad_cache: (u64, u64),
    /// Solves that left the configured preconditioner rung.
    pub fallback_solves: usize,
    /// Assembly-reuse counters `(spliced, recomputed)`.
    pub splice: (u64, u64),
    /// Replayed passes (traced runs only).
    pub gpu_passes: Vec<Pass>,
    /// Replayed serial passes (traced runs only).
    pub serial_passes: Vec<Pass>,
    /// Host seconds of the traced `pipeline.step` spans.
    pub traced_walls: Vec<f64>,
    /// Mean host-speed probe time just before each step (when probed).
    pub probes: Vec<f64>,
}

fn finite(sys: &BlockSystem) -> bool {
    sys.blocks.iter().all(|b| {
        b.velocity.iter().all(|v| v.is_finite())
            && b.poly
                .vertices()
                .iter()
                .all(|v| v.x.is_finite() && v.y.is_finite())
    })
}

/// Why a step's device and serial results disagree, if they do.
fn parity(
    rg: &StepReport,
    rc: &StepReport,
    gpu: &GpuPipeline,
    cpu: &CpuPipeline,
) -> Option<String> {
    if rg.n_contacts != rc.n_contacts {
        return Some(format!("n_contacts {} vs {}", rg.n_contacts, rc.n_contacts));
    }
    if rg.oc_iterations != rc.oc_iterations {
        return Some(format!(
            "oc_iterations {} vs {}",
            rg.oc_iterations, rc.oc_iterations
        ));
    }
    if rg.retries != rc.retries {
        return Some(format!("retries {} vs {}", rg.retries, rc.retries));
    }
    if rg.dt.to_bits() != rc.dt.to_bits() {
        return Some(format!("dt {:e} vs {:e}", rg.dt, rc.dt));
    }
    let drift = gpu
        .sys
        .blocks
        .iter()
        .zip(&cpu.sys.blocks)
        .map(|(g, c)| g.centroid().dist(c.centroid()))
        .fold(0.0, f64::max);
    (drift >= DRIFT_TOL).then(|| format!("centroid drift {drift:e}"))
}

/// Steps `sys` for `steps` steps on `GpuPipeline` (K40) and a
/// free-running `CpuPipeline` in lock step under default parameters; the
/// serial figures are timed on the free-running pipeline. Every step is
/// gated on device/serial parity and finite state against a separate,
/// untimed `CpuPipeline` built from the device path's pre-step state and
/// stepped once. With a tracer, each step also
/// runs inside a `pipeline.step` span and is followed by a replay of one
/// pass of every phase on a clone of its pre-step state, on both paths.
/// With a probe, host-speed samples precede every step. `perturb`
/// displaces the device path after its first step (the gate self-test).
pub fn run_scene(
    sys: &BlockSystem,
    params: &DdaParams,
    steps: usize,
    mut tracer: Option<&mut Tracer>,
    mut probe: Option<&mut Probe>,
    perturb: bool,
) -> SceneRun {
    let t0 = Instant::now();
    let mut gpu = GpuPipeline::new(sys.clone(), params.clone(), k40());
    let mut cpu = CpuPipeline::new(sys.clone(), params.clone());
    let mut run = SceneRun::default();
    let mut device_wall = t0.elapsed().as_secs_f64();
    for step in 0..steps {
        if let Some(p) = probe.as_deref_mut() {
            let t: f64 = (0..PROBES_PER_STEP).map(|_| p.sample()).sum();
            run.probes.push(t / PROBES_PER_STEP as f64);
        }
        let pre = gpu.scene_state();
        let mut rec = StepRec::default();

        let span = tracer.as_deref_mut().map(|t| t.open("pipeline.step"));
        let t = Instant::now();
        let rg = gpu.try_step();
        rec.wall = t.elapsed().as_secs_f64();
        device_wall += rec.wall;
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            let modeled = rg.as_ref().map_or(0.0, |r| r.phase_times.total());
            run.traced_walls.push(tr.close(id, modeled));
        }
        if perturb && step == 0 {
            // Self-test hook: displace the last block of the device path
            // by ten times the drift tolerance, which the parity gate
            // must catch.
            let b = gpu.sys.blocks.last_mut().expect("scenes have blocks");
            b.poly = b.poly.translated(Vec2::new(10.0 * DRIFT_TOL, 0.0));
            b.refresh_geometry();
        }
        let trace = gpu.device().take_trace();
        rec.kstats = trace.total_stats();
        rec.nondiag_launches = trace.seconds_by_prefix("nondiag.").0;

        let before = cpu.times;
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("pipeline.serial_step"));
        let t = Instant::now();
        let rs = cpu.try_step();
        rec.serial_wall = t.elapsed().as_secs_f64();
        rec.serial_phase = cpu.times.delta_since(&before);
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.close(id, rec.serial_phase.total());
        }

        // The gate compares one step's computation from identical inputs
        // rather than the growth of reduction-order differences between
        // the two free-running trajectories (at paper scale that growth
        // alone exceeds the drift tolerance within a few dozen steps; see
        // NOTES.md).
        let mut gate = CpuPipeline::from_state(pre.clone());
        let rc = gate.try_step();
        match (&rg, &rc) {
            (Ok(g), Ok(c)) => {
                if let Some(why) = parity(g, c, &gpu, &gate) {
                    eprintln!("perfbench: parity gate failed at step {step}: {why}");
                    rec.gate_failed = true;
                }
                rec.phase = g.phase_times;
                rec.at_dt_floor = g.dt <= gpu.params.dt_min;
                rec.failed = !g.oc_converged;
                rec.report = Some(*g);
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench: step {step} failed: {e}");
                rec.failed = true;
                rec.gate_failed = rg.is_ok() != rc.is_ok();
            }
        }
        if let Err(e) = &rs {
            eprintln!("perfbench: serial step {step} failed: {e}");
            rec.failed = true;
        }
        if !finite(&gpu.sys) || !finite(&gate.sys) || !finite(&cpu.sys) {
            eprintln!("perfbench: non-finite state after step {step}");
            rec.gate_failed = true;
        }

        if let Some(tr) = tracer.as_deref_mut() {
            match (replay_gpu(&pre, tr), replay_serial(&pre, tr)) {
                (Ok(g), Ok(s)) => {
                    // Detection is deterministic in the pre-step state, so
                    // a faithful replay finds the step's exact contact set.
                    let want = rec.report.map(|r| r.n_contacts);
                    if want.is_some_and(|n| n != g.contacts || n != s.contacts) {
                        eprintln!(
                            "perfbench: replay fidelity gate failed at step {step}: {} / {} contacts vs {:?}",
                            g.contacts, s.contacts, want
                        );
                        rec.gate_failed = true;
                    }
                    run.gpu_passes.push(g);
                    run.serial_passes.push(s);
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("perfbench: replay failed at step {step}: {e}");
                    rec.gate_failed = true;
                }
            }
        }
        rec.failed |= rec.gate_failed;
        let erred = rec.report.is_none();
        run.steps.push(rec);
        if erred {
            // An erred step leaves the state unchanged; stepping on would
            // repeat the same failure.
            break;
        }
    }
    run.latency = device_wall;
    run.fingerprint = system_fingerprint(&gpu.sys);
    run.format_cache = gpu.format_cache_stats();
    run.broad_cache = gpu.broad_cache_stats();
    run.fallback_solves = gpu.fallback_solves();
    let a = gpu.assembly_cache_stats();
    run.splice = (a.spliced, a.recomputed);
    run
}
