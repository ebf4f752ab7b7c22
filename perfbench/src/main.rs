//! `perfbench` — the repository's benchmark of the default GPU-DDA
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rockfall-1683|slope-421|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is the separate traced run that measures the
//! per-layer metrics and writes its spans to `.perfbench/`. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). See `NOTES.md` for the
//! workloads, the metric definitions and the known defects.

mod fleet;
mod layers;
mod probe;
mod replay;
mod scene;
mod stats;
mod trace;

use dda_core::pipeline::{CpuPipeline, GpuPipeline};
use layers::{per_layer, LayerInput};
use probe::Probe;
use scene::{k40, rockfall_scene, run_scene, slope_scene, SceneRun, PAPER_ROCKS};
use stats::{fastest, median, peak_rss_mb, result_json, tail, Metrics};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `rockfall_case` at the paper's 1683 rocks.
    Rockfall,
    /// `SlopeConfig::default()` (≈421 blocks).
    Slope,
    /// Three-device `FleetRouter` under churn.
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "rockfall-1683" => Some(Workload::Rockfall),
            "slope-421" => Some(Workload::Slope),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Rockfall => "rockfall-1683",
            Workload::Slope => "slope-421",
            Workload::Fleet => "fleet",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Shrinks every workload (self-tests only).
    tiny: bool,
    /// Corrupts device-path results — a displaced block on the
    /// single-scene workloads, flipped outcome fingerprints on the fleet —
    /// so the correctness gate must trip (self-tests only).
    perturb: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
        perturb: false,
    })
}

/// Steps per single-scene episode: on the rockfall a 40-step window (Δt
/// retries in a few of its steps), on the slope the Δt-descent steps
/// followed by steps at the Δt floor.
fn episode_steps(a: &Args) -> usize {
    match (a.workload, a.tiny) {
        (_, true) => 3,
        (Workload::Rockfall, false) => 40,
        (_, false) => 10,
    }
}

/// Host seconds one single-scene episode takes on the reference host
/// (2-vCPU Xeon VM); `--seconds` buys `round(seconds / this)` scenes.
fn nominal_episode_s(w: Workload) -> f64 {
    match w {
        Workload::Rockfall => 9.0,
        _ => 7.0,
    }
}

/// Repeats of every fleet arrival stream in an untraced run, at least:
/// the fleet's host-time metrics take, per loop iteration, tick and
/// scene, the fastest of the stream's repeats (NOTES.md, "Steadiness").
const FLEET_REPEATS: usize = 2;

/// Host-speed probe samples before every fleet episode.
const FLEET_PROBES: usize = 8;

/// Set-up samples per round (one round before each single-scene episode,
/// on that episode's scene; one at the start of a fleet run); `setup_s`
/// is the median of all set-up samples of the run.
const SETUP_ROUND: usize = 11;

/// Arrival streams per fleet run (seeds derived from the run's seed).
const FLEET_VARIANTS: usize = 10;

/// Host seconds one fleet episode takes on the reference host; `--seconds`
/// buys `round(seconds / this)` episodes.
const FLEET_NOMINAL_EPISODE_S: f64 = 0.3;

/// Passes of the fleet's serial baseline after each cycle over its
/// streams; `serial_steps_per_s` takes the fastest pass of the run.
const SERIAL_PASSES_PER_CYCLE: usize = 3;

/// Fleet episode length in ticks of arrivals (the drain follows).
fn fleet_ticks(a: &Args) -> u64 {
    if a.tiny {
        12
    } else {
        64
    }
}

/// Everything a run produced.
pub struct Outcome {
    /// All gates held.
    pub correct: bool,
    /// Steps (single-scene) or submissions (fleet) attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Metrics,
    /// Human-readable notes (tail percentiles, sample counts, span
    /// roll-up) for standard error.
    pub notes: String,
}

fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Runs one workload as `a` describes.
pub fn run(a: &Args) -> Outcome {
    match a.workload {
        Workload::Rockfall | Workload::Slope => run_single(a),
        Workload::Fleet => run_fleet(a),
    }
}

/// The seed of variant `k` of a run: `seed` itself for `k = 0`.
fn variant_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The scene of episode `k`: episode 0 uses the run's seed, later
/// episodes seeds derived from it, so a run averages over several
/// perturbed scenes and the same seed always yields the same set.
fn scene_for(a: &Args, k: usize) -> (dda_core::BlockSystem, dda_core::DdaParams) {
    let seed = variant_seed(a.seed, k);
    match a.workload {
        Workload::Rockfall => rockfall_scene(if a.tiny { 12 } else { PAPER_ROCKS }, seed),
        _ => slope_scene(seed, a.tiny.then_some(30)),
    }
}

/// The factor that brings this run's host seconds to the reference
/// host's speed, from the probe's typical time in the run (1 without
/// samples); noted on standard error with the probe time.
fn host_speed(notes: &mut String, probe_s: f64) -> f64 {
    let speed = if probe_s > 0.0 {
        probe::REFERENCE_S / probe_s
    } else {
        1.0
    };
    let _ = writeln!(
        notes,
        "host probe: {:.4} ms per sample (reference {:.4} ms); host-time metrics scaled by {speed:.4}",
        1e3 * probe_s,
        1e3 * probe::REFERENCE_S
    );
    speed
}

fn put_tail(m: &mut Metrics, notes: &mut String, name: &str, samples: &[f64]) {
    let t = tail(samples);
    m.put(name, 1e3 * t.value, "ms");
    let _ = writeln!(notes, "{name}: p{} of {} samples", t.pct, t.samples);
}

fn run_single(a: &Args) -> Outcome {
    let steps = episode_steps(a);
    // Untraced episodes: a fixed count per `--seconds`, so every run of a
    // seed does the same work (the traced run needs one as its reference).
    let episodes = if a.trace || a.tiny {
        1
    } else {
        ((a.seconds / nominal_episode_s(a.workload)).round() as usize).max(1)
    };
    // Set-up: one sample is the generation of one episode's scene plus
    // construction of both pipelines on it, timed in a round before every
    // episode so the samples span the run.
    let mut setup = Vec::new();
    let mut setup_round = |k: usize| {
        let mut scene = None;
        for _ in 0..SETUP_ROUND {
            let t = Instant::now();
            let (sys, params) = scene_for(a, k);
            let g = GpuPipeline::new(sys.clone(), params.clone(), k40());
            let c = CpuPipeline::new(sys.clone(), params.clone());
            std::hint::black_box((&g, &c));
            setup.push(t.elapsed().as_secs_f64());
            scene = Some((sys, params));
        }
        scene.expect("a round takes samples")
    };
    let mut probe = Probe::default();
    let mut runs: Vec<SceneRun> = Vec::new();
    let mut first = None;
    for k in 0..episodes {
        let (sys, params) = setup_round(k);
        let probed = (!a.trace).then_some(&mut probe);
        runs.push(run_scene(&sys, &params, steps, None, probed, a.perturb));
        first.get_or_insert((sys, params));
    }
    let (sys, params) = &first.expect("at least one episode");
    let mut traced = None;
    let mut tracer = Tracer::new();
    if a.trace {
        traced = Some(run_scene(
            sys,
            params,
            steps,
            Some(&mut tracer),
            None,
            a.perturb,
        ));
    }

    let all: Vec<&scene::StepRec> = runs
        .iter()
        .chain(traced.iter())
        .flat_map(|r| r.steps.iter())
        .collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|s| s.failed).count() as u64;
    let correct = !all.iter().any(|s| s.gate_failed);
    let mut notes = String::new();
    let mut m = Metrics::default();
    if !a.trace {
        // Host time at the reference host's speed. The probe runs just
        // before every step; weighting each step's probe time by the
        // step's own time gives the host's average speed while the steps
        // ran, which the sums of step times below carry too.
        let timed = || {
            runs.iter()
                .flat_map(|r| r.steps.iter().zip(&r.probes))
                .map(|(s, &p)| (s.wall, p))
        };
        let weighted =
            timed().map(|(w, p)| w * p).sum::<f64>() / timed().map(|(w, _)| w).sum::<f64>();
        let speed = host_speed(&mut notes, weighted);
        let ok: Vec<_> = runs
            .iter()
            .flat_map(|r| r.steps.iter())
            .filter(|s| s.report.is_some())
            .collect();
        let n = ok.len().max(1) as f64;
        let walls: Vec<f64> = ok.iter().map(|s| s.wall * speed).collect();
        let serial_walls: f64 = ok.iter().map(|s| s.serial_wall * speed).sum();
        m.put("setup_s", speed * median(&setup), "s");
        m.put("sim_steps_per_s", n / walls.iter().sum::<f64>(), "1/s");
        m.put("step_wall_p50_ms", 1e3 * median(&walls), "ms");
        put_tail(&mut m, &mut notes, "step_wall_tail_ms", &walls);
        m.put(
            "modeled_ms_per_step",
            1e3 * ok.iter().map(|s| s.phase.total()).sum::<f64>() / n,
            "ms",
        );
        m.put("serial_steps_per_s", n / serial_walls, "1/s");
        let sm: f64 = ok.iter().map(|s| s.serial_phase.total()).sum();
        m.put("serial_modeled_ms_per_step", 1e3 * sm / n, "ms");
        let lat: Vec<f64> = runs.iter().map(|r| r.latency * speed).collect();
        m.put("scene_latency_p50_ms", 1e3 * median(&lat), "ms");
        put_tail(&mut m, &mut notes, "scene_latency_tail_ms", &lat);
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        let _ = writeln!(notes, "{} episode(s) of {steps} steps", runs.len());
        let _ = writeln!(
            notes,
            "first episode, per step (measured wall ms, retries, open-close iterations, contacts, probe ms):"
        );
        for (i, (s, p)) in runs[0].steps.iter().zip(&runs[0].probes).enumerate() {
            let r = s.report.unwrap_or_default();
            let _ = writeln!(
                notes,
                "  step {i}: {:.1} ms, {} retries, {} oc iterations, {} contacts, probe {:.4} ms",
                1e3 * s.wall,
                r.retries,
                r.oc_iterations,
                r.n_contacts,
                1e3 * p
            );
        }
    } else {
        let traced = traced.expect("traced run");
        let untraced: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.steps.iter().map(|s| s.wall))
            .collect();
        m = per_layer(&LayerInput {
            runs: std::slice::from_ref(&traced),
            traced_walls: &traced.traced_walls,
            untraced_walls: &untraced,
            fleet: None,
            tick_walls: &[],
            fleet_scene_steps: 0,
            paper_scale: a.workload == Workload::Rockfall && !a.tiny,
            failed_frac: failed as f64 / attempted.max(1) as f64,
            pcg_max_iters: params.pcg.max_iters,
        });
        write_spans(a, &tracer, &mut notes);
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        notes,
    }
}

fn run_fleet(a: &Args) -> Outcome {
    let ticks = fleet_ticks(a);
    let rocks = if a.tiny { 2 } else { fleet::FLEET_ROCKS };
    let variants = if a.tiny || a.trace { 1 } else { FLEET_VARIANTS };
    // A fixed episode count per `--seconds`, cycling over the arrival
    // streams of `variants` seeds derived from the run's seed, each stream
    // at least `FLEET_REPEATS` times.
    let episodes = if a.trace {
        1
    } else {
        ((a.seconds / FLEET_NOMINAL_EPISODE_S).round() as usize).max(variants * FLEET_REPEATS)
    };
    let root = fleet::wal_root();
    // Set-up: arrival-schedule generation plus router construction. Every
    // episode needs a fresh router, so each one adds a sample after an
    // initial round.
    let mut k = 0;
    let mut setup = Vec::new();
    let mut build = |v: usize| {
        let t = Instant::now();
        let sched = fleet::schedule(rocks, ticks, variant_seed(a.seed, v));
        let r = fleet::router(&root.join(format!("{k}")));
        k += 1;
        setup.push(t.elapsed().as_secs_f64());
        (sched, r)
    };
    for _ in 0..SETUP_ROUND {
        build(0);
    }
    // The serial baseline runs alone, in passes after every cycle over the
    // streams. Timed inside the solo reference runs instead, interleaved
    // with device-path steps, its per-step time on these tiny scenes moved
    // by up to 2x between runs of one seed set (NOTES.md).
    let streams: Vec<_> = (0..variants)
        .map(|v| fleet::schedule(rocks, ticks, variant_seed(a.seed, v)))
        .collect();
    let (mut serial_steps, mut serial_walls) = (0, Vec::new());
    let mut scheds = vec![None; variants];
    let mut eps = Vec::new();
    let mut probe = Probe::default();
    let mut probes = Vec::new();
    for e in 0..episodes {
        let v = e % variants;
        if !a.trace {
            probes.extend((0..FLEET_PROBES).map(|_| probe.sample()));
        }
        let (sched, r) = build(v);
        eps.push((v, fleet::episode(r, &sched, None)));
        scheds[v].get_or_insert(sched);
        if !a.trace && (e + 1) % variants == 0 {
            for _ in 0..SERIAL_PASSES_PER_CYCLE {
                let (n, w) = fleet::serial_baseline(&streams);
                serial_steps = n;
                serial_walls.push(w);
            }
        }
    }
    let mut tracer = Tracer::new();
    let traced = a.trace.then(|| {
        let (sched, r) = build(0);
        fleet::episode(r, &sched, Some(&mut tracer))
    });
    let _ = std::fs::remove_dir_all(&root);

    // Gates: every completed scene against a solo run, once per stream;
    // every episode of a stream must reach that stream's first outcomes.
    let mut refs = Vec::new();
    let mut mismatches = 0;
    let firsts: Vec<&fleet::Episode> = (0..variants)
        .map(|v| {
            &eps.iter()
                .find(|(w, _)| *w == v)
                .expect("every stream runs")
                .1
        })
        .collect();
    for (v, first) in firsts.iter().enumerate() {
        let sched = scheds[v].as_ref().expect("every stream runs");
        let (r, mm) = fleet::references(
            sched,
            &first.completed,
            a.trace.then_some(&mut tracer),
            a.perturb,
        );
        refs.extend(r);
        mismatches += mm;
    }
    let divergent = eps
        .iter()
        .map(|(v, e)| (*v, e))
        .chain(traced.iter().map(|e| (0, e)))
        .filter(|(v, e)| {
            e.completed != firsts[*v].completed || e.tick_walls.len() != firsts[*v].tick_walls.len()
        })
        .count() as u64;
    if divergent > 0 {
        eprintln!("perfbench: {divergent} fleet episode(s) reached different outcomes");
    }
    let all_eps = || eps.iter().map(|(_, e)| e).chain(traced.iter());
    let ref_gate = refs
        .iter()
        .flat_map(|r| r.steps.iter())
        .filter(|s| s.gate_failed)
        .count() as u64;
    let attempted: u64 = all_eps().map(|e| e.attempted).sum();
    let failed: u64 = all_eps().map(|e| e.failed).sum::<u64>() + mismatches + divergent + ref_gate;
    let correct = mismatches == 0 && divergent == 0 && ref_gate == 0;
    let first = firsts[0];

    let mut notes = String::new();
    let mut m = Metrics::default();
    if !a.trace {
        // Per stream: the fastest of its repeats for each iteration of the
        // submit/tick loop, for each tick and for each scene's latency; the
        // first repeat's modeled seconds (every repeat reaches the same
        // outcomes). The fastest repeat escapes other tenants' bursts but
        // not a slow host, so the host-speed factor comes from the probe's
        // median, which likewise ignores bursts.
        let speed = host_speed(&mut notes, median(&probes));
        let (mut scene_steps, mut wall, mut modeled) = (0u64, 0.0, 0.0);
        let (mut ticks, mut lat) = (Vec::new(), Vec::new());
        for (v, first) in firsts.iter().enumerate() {
            let reps: Vec<&fleet::Episode> = eps
                .iter()
                .filter(|(w, _)| *w == v)
                .map(|(_, e)| e)
                .collect();
            scene_steps += first.scene_steps;
            modeled += first.modeled;
            let n = reps.iter().map(|e| e.tick_walls.len()).min().unwrap_or(0);
            wall += (0..n)
                .map(|i| speed * fastest(reps.iter().map(|e| e.loop_walls[i])))
                .sum::<f64>();
            ticks.extend((0..n).map(|i| speed * fastest(reps.iter().map(|e| e.tick_walls[i]))));
            lat.extend(first.latencies.keys().map(|id| {
                speed * fastest(reps.iter().filter_map(|e| e.latencies.get(id).copied()))
            }));
        }
        let ref_steps: Vec<_> = refs
            .iter()
            .flat_map(|r| r.steps.iter())
            .filter(|s| s.report.is_some())
            .collect();
        let rn = ref_steps.len().max(1) as f64;
        m.put("setup_s", speed * median(&setup), "s");
        m.put("sim_steps_per_s", scene_steps as f64 / wall, "1/s");
        m.put("step_wall_p50_ms", 1e3 * median(&ticks), "ms");
        put_tail(&mut m, &mut notes, "step_wall_tail_ms", &ticks);
        m.put(
            "modeled_ms_per_step",
            1e3 * modeled / scene_steps.max(1) as f64,
            "ms",
        );
        m.put(
            "serial_steps_per_s",
            serial_steps as f64 / (speed * fastest(serial_walls.iter().copied())),
            "1/s",
        );
        let sm: f64 = ref_steps.iter().map(|s| s.serial_phase.total()).sum();
        m.put("serial_modeled_ms_per_step", 1e3 * sm / rn, "ms");
        m.put("scene_latency_p50_ms", 1e3 * median(&lat), "ms");
        put_tail(&mut m, &mut notes, "scene_latency_tail_ms", &lat);
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        let _ = writeln!(
            notes,
            "{} episode(s) of {ticks} arrival ticks over {variants} streams; {} scenes completed in the first",
            episodes,
            first.completed.len(),
            ticks = fleet_ticks(a)
        );
    } else {
        let traced = traced.expect("traced episode");
        let untraced: Vec<f64> = eps
            .iter()
            .flat_map(|(_, e)| e.tick_walls.iter().copied())
            .collect();
        let ref_walls: Vec<f64> = refs
            .iter()
            .flat_map(|r| r.traced_walls.iter().copied())
            .collect();
        let mut lm = per_layer(&LayerInput {
            runs: &refs,
            traced_walls: &ref_walls,
            untraced_walls: &untraced,
            fleet: traced.layer.as_ref(),
            tick_walls: &traced.tick_walls,
            fleet_scene_steps: traced.scene_steps,
            paper_scale: false,
            failed_frac: failed as f64 / attempted.max(1) as f64,
            pcg_max_iters: scheds
                .iter()
                .flatten()
                .flatten()
                .flatten()
                .next()
                .map_or(0, |fs| fs.submission.params.pcg.max_iters),
        });
        // The fleet's traced unit is the router tick.
        let overhead = median(&traced.tick_walls) / median(&untraced) - 1.0;
        lm.put("pipeline.tracing_overhead_frac", overhead, "frac");
        m = lm;
        write_spans(a, &tracer, &mut notes);
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        notes,
    }
}

fn write_spans(a: &Args, tracer: &Tracer, notes: &mut String) {
    let path = out_dir().join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
    let written = std::fs::create_dir_all(out_dir()).and_then(|_| tracer.write_chrome(&path));
    match written {
        Ok(()) => {
            let _ = writeln!(
                notes,
                "spans: {} ({} spans)",
                path.display(),
                tracer.spans().len()
            );
        }
        Err(e) => {
            let _ = writeln!(notes, "spans: could not write {}: {e}", path.display());
        }
    }
    let _ = writeln!(
        notes,
        "span roll-up (name: count, host s, self s, modeled s):"
    );
    for (name, (n, host, selfs, modeled)) in tracer.rollup() {
        let _ = writeln!(notes, "  {name}: {n}, {host:.6}, {selfs:.6}, {modeled:.6e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = run(&a);
    eprint!("{}", o.notes);
    for (name, (v, unit)) in &o.metrics.0 {
        eprintln!("{name} = {v} {unit}");
    }
    println!(
        "{}",
        result_json(o.correct, o.attempted, o.failed, &o.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string("../BENCHMARK.json")
            .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |s: &str, key: &str| -> Option<(String, usize)> {
            let k = format!("\"{key}\": \"");
            let i = s.find(&k)? + k.len();
            let j = s[i..].find('"')?;
            Some((s[i..i + j].to_string(), i + j))
        };
        let mut out = Vec::new();
        let mut rest = body;
        while let Some((name, at)) = field(rest, "name") {
            let (unit, end) = field(&rest[at..], "unit").expect("every metric has a unit");
            out.push((name, unit));
            rest = &rest[at + end..];
        }
        out
    }

    fn tiny(workload: Workload, trace: bool, perturb: bool) -> Outcome {
        run(&Args {
            workload,
            seed: 7,
            seconds: 0.01,
            trace,
            tiny: true,
            perturb,
        })
    }

    const ALL: [Workload; 3] = [Workload::Rockfall, Workload::Slope, Workload::Fleet];

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        for w in ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let o = tiny(w, trace, false);
                assert!(o.correct, "{w:?} trace={trace}: gates must hold");
                let want = declared(section);
                assert!(!want.is_empty());
                let got: Vec<(String, String)> = o
                    .metrics
                    .0
                    .iter()
                    .map(|(k, (_, u))| (k.clone(), u.to_string()))
                    .collect();
                let mut want = want;
                want.sort();
                assert_eq!(got, want, "{w:?} trace={trace}");
                for (k, (v, _)) in &o.metrics.0 {
                    assert!(v.is_finite(), "{w:?}: {k} = {v}");
                }
                let line = result_json(o.correct, o.attempted, o.failed, &o.metrics);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn modeled_counters_repeat_exactly_for_one_seed() {
        for w in ALL {
            let (a, b) = (tiny(w, false, false), tiny(w, false, false));
            for k in ["modeled_ms_per_step", "serial_modeled_ms_per_step"] {
                assert_eq!(a.metrics.get(k), b.metrics.get(k), "{w:?}: {k}");
            }
            // Runs repeat whole episodes, so the failed share repeats too.
            assert_eq!(
                a.failed as f64 / a.attempted as f64,
                b.failed as f64 / b.attempted as f64,
                "{w:?}: failed_frac"
            );
            let (a, b) = (tiny(w, true, false), tiny(w, true, false));
            for k in [
                "simt.launches_per_step",
                "pipeline.failed_frac",
                "solver.pcg_iters_per_step",
            ] {
                assert_eq!(a.metrics.get(k), b.metrics.get(k), "{w:?}: {k}");
            }
        }
    }

    #[test]
    fn a_perturbed_result_trips_the_gate() {
        for w in ALL {
            let o = tiny(w, false, true);
            assert!(
                !o.correct,
                "{w:?}: perturbation must fail the correctness gate"
            );
            assert!(o.failed > 0, "{w:?}: the mismatch counts as a failure");
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload fleet --seed 1 --seconds 1 --trace 0")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet --seed 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet --seed x --seconds 1 --trace 0")).is_err());
        // The self-test knobs are not command-line flags.
        assert!(parse_args(&args(
            "--workload fleet --seed 1 --seconds 1 --trace 0 --tiny"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload fleet --seed 1 --seconds 1 --trace 0 --perturb"
        ))
        .is_err());
    }
}
