//! The fleet workload: `FleetRouter` over K40 + K20 + K20 with a fresh
//! WAL, fed open-loop per tick by `FleetChurnTraffic`.

use crate::scene::{run_scene, SceneRun};
use crate::trace::Tracer;
use dda_core::pipeline::{
    CpuPipeline, FleetRouter, FleetSubmission, RouterConfig, SceneId, WalOutcome,
};
use dda_simt::{Device, DeviceProfile, KernelStats};
use dda_workloads::{FleetChurnConfig, FleetChurnTraffic, TrafficConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Rocks per fleet scene.
pub const FLEET_ROCKS: usize = 8;

/// The arrival stream: `FleetChurnConfig::default()` (1 scene/tick plus
/// a burst of 4 every 16 ticks, 2–5 steps each) over ~8-rock rockfall
/// scenes with no poisoned submissions. At ~1.25 scenes × ~3.5 steps per
/// tick it offers about 4–5 concurrent scenes against 24 batch slots, so
/// the backlog stays bounded.
pub fn churn_config(rocks: usize) -> FleetChurnConfig {
    FleetChurnConfig {
        traffic: TrafficConfig {
            rocks,
            nan_permille: 0,
            ..TrafficConfig::default()
        },
        ..FleetChurnConfig::default()
    }
}

/// The arrivals of every tick of an episode, generated up front so input
/// generation stays out of the timed loop.
pub fn schedule(rocks: usize, ticks: u64, seed: u64) -> Vec<Vec<FleetSubmission>> {
    let mut traffic = FleetChurnTraffic::new(churn_config(rocks), seed);
    (0..ticks).map(|now| traffic.arrivals(now)).collect()
}

/// K40 + K20 + K20.
pub fn devices() -> Vec<Device> {
    vec![
        Device::new(DeviceProfile::tesla_k40()),
        Device::new(DeviceProfile::tesla_k20()),
        Device::new(DeviceProfile::tesla_k20()),
    ]
}

/// A router over a fresh WAL in `dir` (emptied first) with the default
/// `RouterConfig`.
pub fn router(dir: &Path) -> FleetRouter {
    let _ = std::fs::remove_dir_all(dir);
    FleetRouter::new(devices(), RouterConfig::new(dir)).expect("fresh fleet over an empty WAL dir")
}

/// What one fleet episode measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host seconds of each `FleetRouter::tick`.
    pub tick_walls: Vec<f64>,
    /// Host seconds from the start of the tick a scene was due to its
    /// completion, per completed scene.
    pub latencies: BTreeMap<SceneId, f64>,
    /// Host seconds of each iteration of the submit/tick loop (the tick's
    /// submissions plus the tick).
    pub loop_walls: Vec<f64>,
    /// Accepted scene-steps (requested steps of completed scenes).
    pub scene_steps: u64,
    /// `fleet_modeled_seconds` at the end.
    pub modeled: f64,
    /// Submissions attempted.
    pub attempted: u64,
    /// Submissions refused at intake plus scenes not ending `Completed`.
    pub failed: u64,
    /// Final fingerprint of every completed scene, with its index into
    /// the flattened schedule.
    pub completed: BTreeMap<SceneId, (usize, u64)>,
    /// Per-layer counters gathered when traced.
    pub layer: Option<FleetLayer>,
}

/// Fleet-level per-layer counters of a traced episode.
#[derive(Debug, Default, Clone)]
pub struct FleetLayer {
    /// Merged counters of every launch on every device.
    pub kstats: KernelStats,
    /// Sum of modeled seconds across devices.
    pub aggregate_modeled: f64,
    /// Per-device modeled seconds.
    pub device_modeled: Vec<f64>,
    /// Σ launches the scenes would have issued solo / Σ merged launches.
    pub launches_in: u64,
    /// See `launches_in`.
    pub launches_out: u64,
    /// Scenes stepped per tick (live before the tick plus admitted).
    pub live_per_tick: Vec<f64>,
    /// Largest intake queue any device saw.
    pub queue_len_max: usize,
    /// Ticks from submission to admission, every admitted scene.
    pub admission: Vec<f64>,
    /// Live and death-recovery migrations.
    pub migrations: u64,
    /// WAL sync barriers.
    pub wal_syncs: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL modeled seconds.
    pub wal_modeled: f64,
    /// Ticks run.
    pub ticks: u64,
}

/// Runs one episode: submit each tick's arrivals, tick, then drain.
/// With a tracer, every tick is a `fleet.tick` span and the per-layer
/// counters are collected.
pub fn episode(
    mut r: FleetRouter,
    sched: &[Vec<FleetSubmission>],
    mut tracer: Option<&mut Tracer>,
) -> Episode {
    let mut ep = Episode::default();
    let mut due: BTreeMap<SceneId, (Instant, usize, u64)> = BTreeMap::new();
    let mut flat = 0usize;
    let mut live_per_tick = Vec::new();
    let mut launches = (0u64, 0u64);
    let drain_cap = sched.len() * 4 + 64;
    let mut now = 0usize;
    while now < sched.len() || (r.in_flight() > 0 && now < sched.len() + drain_cap) {
        let tick_start = Instant::now();
        for fs in sched.get(now).into_iter().flatten() {
            ep.attempted += 1;
            let steps = fs.submission.run_steps;
            match r.submit(fs.clone()) {
                Ok(id) => {
                    due.insert(id, (tick_start, flat, steps));
                }
                Err(e) => {
                    eprintln!("perfbench: fleet submit refused: {e}");
                    ep.failed += 1;
                }
            }
            flat += 1;
        }
        let live_before: usize = (0..r.n_devices())
            .map(|i| r.scheduler(i).batch().n_live())
            .sum();
        let steps_before: Vec<u64> = (0..r.n_devices())
            .map(|i| r.scheduler(i).batch().step_index())
            .collect();
        let span = tracer.as_deref_mut().map(|t| t.open("fleet.tick"));
        let t = Instant::now();
        let rep = r.tick();
        let tick_wall = t.elapsed().as_secs_f64();
        let done = Instant::now();
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.close(id, 0.0);
        }
        ep.tick_walls.push(tick_wall);
        ep.loop_walls
            .push(done.duration_since(tick_start).as_secs_f64());
        let rep = rep.expect("fleet tick over a healthy WAL");
        live_per_tick.push((live_before + rep.admitted) as f64);
        for (i, before) in steps_before.into_iter().enumerate() {
            let batch = r.scheduler(i).batch();
            if batch.step_index() != before {
                let (a, o) = batch.last_step_launches();
                launches.0 += a;
                launches.1 += o;
            }
        }
        if rep.completed + rep.refused + rep.shed > 0 {
            for (id, out) in r.outcomes() {
                let Some((t0, idx, steps)) = due.remove(&id) else {
                    continue;
                };
                if out.outcome == WalOutcome::Completed {
                    ep.latencies
                        .insert(id, done.duration_since(t0).as_secs_f64());
                    ep.scene_steps += steps;
                    ep.completed.insert(id, (idx, out.fingerprint));
                } else {
                    eprintln!("perfbench: fleet scene {id} ended {:?}", out.outcome);
                    ep.failed += 1;
                }
            }
        }
        now += 1;
    }
    // Scenes still in flight after the drain cap never completed.
    ep.failed += due.len() as u64;
    ep.modeled = r.fleet_modeled_seconds();
    if tracer.is_some() {
        let mut l = FleetLayer {
            aggregate_modeled: r.fleet_aggregate_seconds(),
            launches_in: launches.0,
            launches_out: launches.1,
            live_per_tick,
            migrations: r.stats().rebalanced + r.stats().migrated,
            wal_syncs: r.wal_stats().syncs,
            wal_bytes: r.wal_stats().bytes,
            wal_modeled: r.wal_stats().modeled_seconds,
            ticks: r.stats().ticks,
            ..FleetLayer::default()
        };
        for i in 0..r.n_devices() {
            let tr = r.device(i).trace();
            l.kstats.merge(&tr.total_stats());
            l.device_modeled.push(tr.total_seconds());
            let s = r.scheduler(i).stats();
            l.queue_len_max = l.queue_len_max.max(s.max_queue_len);
            l.admission
                .extend(s.admission_latencies().iter().map(|&t| t as f64));
        }
        ep.layer = Some(l);
    }
    ep
}

/// Solo reference runs of every completed scene: `GpuPipeline` +
/// `CpuPipeline` in lock step for the scene's requested steps. Returns
/// the runs in submission order and the number of fingerprint mismatches
/// against the fleet's outcomes (`perturb` flips every outcome's
/// fingerprint first: the gate self-test).
pub fn references(
    sched: &[Vec<FleetSubmission>],
    completed: &BTreeMap<SceneId, (usize, u64)>,
    mut tracer: Option<&mut Tracer>,
    perturb: bool,
) -> (Vec<SceneRun>, u64) {
    let flat: Vec<&FleetSubmission> = sched.iter().flatten().collect();
    let mut runs = Vec::new();
    let mut mismatches = 0;
    for (id, &(idx, fp)) in completed {
        let sub = &flat[idx].submission;
        let run = run_scene(
            &sub.sys,
            &sub.params,
            sub.run_steps as usize,
            tracer.as_deref_mut(),
            None,
            false,
        );
        let fp = fp ^ u64::from(perturb);
        if run.fingerprint != fp {
            eprintln!(
                "perfbench: fleet scene {id}: fingerprint {fp:#018x} differs from a solo GpuPipeline run ({:#018x})",
                run.fingerprint
            );
            mismatches += 1;
        }
        runs.push(run);
    }
    (runs, mismatches)
}

/// One pass of `CpuPipeline` alone over every submission of `scheds`:
/// `(steps, host seconds of try_step)`.
pub fn serial_baseline(scheds: &[Vec<Vec<FleetSubmission>>]) -> (u64, f64) {
    let (mut steps, mut wall) = (0u64, 0.0);
    for fs in scheds.iter().flatten().flatten() {
        let sub = &fs.submission;
        let mut cpu = CpuPipeline::new(sub.sys.clone(), sub.params.clone());
        for _ in 0..sub.run_steps {
            let t = Instant::now();
            let r = cpu.try_step();
            wall += t.elapsed().as_secs_f64();
            std::hint::black_box(&r);
            steps += 1;
        }
    }
    (steps, wall)
}

/// A fresh scratch directory for one run's WALs under the checkout,
/// unique per process and call (self-tests run workloads concurrently).
pub fn wal_root() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".perfbench").join(format!("wal-{}-{n}", std::process::id()))
}
