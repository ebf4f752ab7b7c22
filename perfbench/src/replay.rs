//! The traced run's per-layer replay: one pass of every pipeline phase on
//! a clone of a pre-step scene state, through the modules' public entry
//! points, once on the device path (on a `Device` of its own, so its
//! `DeviceTrace` holds exactly the replayed launches) and once on the
//! serial path (the `*_serial` twins under the E5620 cost model).
//!
//! A replay is one pass of each phase — one assembly, one solve, one
//! check and one open–close update — not a whole step with its
//! open–close iterations and Δt retries: its host times are per-pass
//! layer costs, comparable between the two paths and across commits.

use crate::trace::Tracer;
use dda_core::assembly::{assemble_gpu, assemble_serial};
use dda_core::contact::grid::{detect_broad_gpu, detect_broad_serial, ContactWorkspace};
use dda_core::contact::init::{init_contacts_classified, init_contacts_serial};
use dda_core::contact::narrow::{narrow_phase_gpu, narrow_phase_serial};
use dda_core::contact::transfer::{transfer_contacts_gpu, transfer_contacts_serial};
use dda_core::contact::GeomSoa;
use dda_core::interpenetration::{check_gpu, check_serial, BranchScheme};
use dda_core::openclose::{open_close_gpu, open_close_serial};
use dda_core::pipeline::SceneState;
use dda_core::stiffness::perblock::BlockSoa;
use dda_core::update::update_system;
use dda_simt::serial::CpuCounter;
use dda_simt::{Device, DeviceProfile, TimingModel};
use dda_solver::precond::BlockJacobi;
use dda_solver::serial::pcg_serial_bj;
use dda_solver::{pcg_fused, PcgWorkspace, SolveError};
use dda_sparse::Hsbcsr;

/// The replayed layers, in pipeline order. Diagonal and non-diagonal
/// building form the `assembly` layer; the gap check and the open–close
/// update form `interpenetration`.
pub const LAYERS: [&str; 5] = [
    "contact",
    "assembly",
    "solver",
    "interpenetration",
    "update",
];

/// Host and modeled seconds of one replayed pass, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Host seconds per layer (indexed like [`LAYERS`]).
    pub wall: [f64; 5],
    /// Modeled seconds per layer: the replay device's trace on the device
    /// path, the E5620 cost model on the serial path. The device path's
    /// `update` is host code in the pipeline (charged by formula inside
    /// `GpuPipeline`), so its replay records no launches and reads 0.
    pub modeled: [f64; 5],
    /// Host seconds of the broad phase alone.
    pub broad_wall: f64,
    /// Host seconds of the narrow phase alone.
    pub narrow_wall: f64,
    /// Candidate pairs the broad phase emitted.
    pub pairs: usize,
    /// Contacts the narrow phase produced.
    pub contacts: usize,
}

fn model_seconds(c: CpuCounter) -> f64 {
    c.seconds(&TimingModel::default(), &DeviceProfile::xeon_e5620_serial())
}

/// Runs `f` in a span named `name`; the span's modeled seconds are the
/// launches `f` left on `dev`.
fn gpu_phase<T>(tr: &mut Tracer, dev: &Device, name: &str, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let id = tr.open(name);
    let out = f();
    let modeled = dev.take_trace().total_seconds();
    let wall = tr.close(id, modeled);
    (out, wall, modeled)
}

/// Runs `f` in a span named `name` with a fresh serial work counter; the
/// span's modeled seconds are that counter under the E5620 model.
fn cpu_phase<T>(
    tr: &mut Tracer,
    name: &str,
    f: impl FnOnce(&mut CpuCounter) -> T,
) -> (T, f64, f64) {
    let id = tr.open(name);
    let mut c = CpuCounter::new();
    let out = f(&mut c);
    let modeled = model_seconds(c);
    let wall = tr.close(id, modeled);
    (out, wall, modeled)
}

/// One device-path pass of every phase over `st`, inside a
/// `replay.gpu` span.
pub fn replay_gpu(st: &SceneState, tr: &mut Tracer) -> Result<Pass, String> {
    let root = tr.open("replay.gpu");
    let dev = Device::new(DeviceProfile::tesla_k40());
    let out = gpu_pass(st, tr, &dev);
    let modeled = out.as_ref().map_or(0.0, |p| p.modeled.iter().sum());
    tr.close(root, modeled);
    out
}

fn gpu_pass(st: &SceneState, tr: &mut Tracer, dev: &Device) -> Result<Pass, String> {
    let p = &st.params;
    let mut sys = st.sys.clone();
    let mut pass = Pass::default();
    let touch = p.touch_tol * p.max_displacement;

    let layer = tr.open("replay.gpu.contact");
    let ((gsoa, ws), wb, mb) = gpu_phase(tr, dev, "replay.gpu.contact.broad", || {
        let gsoa = GeomSoa::build(&sys);
        let mut ws = ContactWorkspace::new();
        detect_broad_gpu(
            dev,
            &gsoa,
            p.broad_phase,
            p.contact_range,
            p.broad_slack,
            &mut ws,
        );
        (gsoa, ws)
    });
    let (mut contacts, wn, mn) = gpu_phase(tr, dev, "replay.gpu.contact.narrow", || {
        narrow_phase_gpu(dev, &gsoa, &ws.pairs, p.contact_range)
    });
    let (_, _, mt) = gpu_phase(tr, dev, "replay.gpu.contact.transfer", || {
        transfer_contacts_gpu(dev, &st.contacts, &mut contacts)
    });
    let (_, _, mi) = gpu_phase(tr, dev, "replay.gpu.contact.init", || {
        init_contacts_classified(dev, &gsoa, &mut contacts, touch)
    });
    for c in contacts.iter_mut() {
        c.flips = 0;
    }
    pass.modeled[0] = mb + mn + mt + mi;
    pass.wall[0] = tr.close(layer, pass.modeled[0]);
    (pass.broad_wall, pass.narrow_wall) = (wb, wn);
    (pass.pairs, pass.contacts) = (ws.pairs.len(), contacts.len());

    let (asm, wa, ma) = gpu_phase(tr, dev, "replay.gpu.assembly", || {
        let bsoa = BlockSoa::build(&sys);
        assemble_gpu(dev, &sys, &gsoa, &bsoa, &contacts, p)
    });
    (pass.wall[1], pass.modeled[1]) = (wa, ma);

    let (res, ws_, ms_) = gpu_phase(tr, dev, "replay.gpu.solver", || {
        let h = Hsbcsr::from_sym(&asm.matrix);
        let bj = BlockJacobi::try_new(dev, &h)?;
        let mut pws = PcgWorkspace::new();
        Ok(pcg_fused(
            dev, &h, &asm.rhs, &st.x_prev, &bj, p.pcg, &mut pws,
        ))
    });
    let res =
        res.map_err(|e: dda_solver::PrecondError| format!("replayed Block-Jacobi failed: {e}"))?;
    (pass.wall[2], pass.modeled[2]) = (ws_, ms_);

    let open_tol = 1e-6 * p.max_displacement;
    let layer = tr.open("replay.gpu.interpenetration");
    let (gaps, _, mc) = gpu_phase(tr, dev, "replay.gpu.interpenetration.check", || {
        check_gpu(
            dev,
            &gsoa,
            &sys,
            &contacts,
            &res.x,
            p.penalty,
            p.shear_ratio,
            BranchScheme::Restructured,
        )
    });
    let (_, _, mo) = gpu_phase(tr, dev, "replay.gpu.interpenetration.openclose", || {
        open_close_gpu(dev, &mut contacts, &gaps, open_tol, false)
    });
    pass.modeled[3] = mc + mo;
    pass.wall[3] = tr.close(layer, pass.modeled[3]);

    let (_, wu, mu) = gpu_phase(tr, dev, "replay.gpu.update", || {
        update_system(
            &mut sys,
            &res.x,
            &mut contacts,
            &gaps,
            p,
            &mut CpuCounter::new(),
        )
    });
    (pass.wall[4], pass.modeled[4]) = (wu, mu);
    Ok(pass)
}

/// One serial-path pass of every phase over `st`, inside a
/// `replay.serial` span.
pub fn replay_serial(st: &SceneState, tr: &mut Tracer) -> Result<Pass, String> {
    let root = tr.open("replay.serial");
    let out = serial_pass(st, tr);
    let modeled = out.as_ref().map_or(0.0, |p| p.modeled.iter().sum());
    tr.close(root, modeled);
    out
}

fn serial_pass(st: &SceneState, tr: &mut Tracer) -> Result<Pass, String> {
    let p = &st.params;
    let mut sys = st.sys.clone();
    let mut pass = Pass::default();
    let touch = p.touch_tol * p.max_displacement;

    let layer = tr.open("replay.serial.contact");
    let (ws, wb, mb) = cpu_phase(tr, "replay.serial.contact.broad", |c| {
        let mut ws = ContactWorkspace::new();
        detect_broad_serial(
            &sys,
            p.broad_phase,
            p.contact_range,
            p.broad_slack,
            c,
            &mut ws,
        );
        ws
    });
    let (mut contacts, wn, mn) = cpu_phase(tr, "replay.serial.contact.narrow", |c| {
        narrow_phase_serial(&sys, &ws.pairs, p.contact_range, c)
    });
    let (_, _, mt) = cpu_phase(tr, "replay.serial.contact.transfer", |c| {
        transfer_contacts_serial(&st.contacts, &mut contacts, c)
    });
    let (_, _, mi) = cpu_phase(tr, "replay.serial.contact.init", |c| {
        init_contacts_serial(&sys, &mut contacts, touch, c)
    });
    for c in contacts.iter_mut() {
        c.flips = 0;
    }
    pass.modeled[0] = mb + mn + mt + mi;
    pass.wall[0] = tr.close(layer, pass.modeled[0]);
    (pass.broad_wall, pass.narrow_wall) = (wb, wn);
    (pass.pairs, pass.contacts) = (ws.pairs.len(), contacts.len());

    let (asm, wa, ma) = cpu_phase(tr, "replay.serial.assembly", |c| {
        assemble_serial(&sys, &contacts, p, c)
    });
    (pass.wall[1], pass.modeled[1]) = (wa, ma);

    let (res, ws_, ms_) = cpu_phase(tr, "replay.serial.solver", |c| {
        pcg_serial_bj(&asm.matrix, &asm.rhs, &st.x_prev, p.pcg, c)
    });
    if let Some(e @ SolveError::SingularPreconditioner { .. }) = res.error {
        return Err(format!("replayed serial solve failed: {e}"));
    }
    (pass.wall[2], pass.modeled[2]) = (ws_, ms_);

    let open_tol = 1e-6 * p.max_displacement;
    let layer = tr.open("replay.serial.interpenetration");
    let (gaps, _, mc) = cpu_phase(tr, "replay.serial.interpenetration.check", |c| {
        check_serial(&sys, &contacts, &res.x, p.penalty, p.shear_ratio, c)
    });
    let (_, _, mo) = cpu_phase(tr, "replay.serial.interpenetration.openclose", |c| {
        open_close_serial(&mut contacts, &gaps, open_tol, false, c)
    });
    pass.modeled[3] = mc + mo;
    pass.wall[3] = tr.close(layer, pass.modeled[3]);

    let (_, wu, mu) = cpu_phase(tr, "replay.serial.update", |c| {
        update_system(&mut sys, &res.x, &mut contacts, &gaps, p, c)
    });
    (pass.wall[4], pass.modeled[4]) = (wu, mu);
    Ok(pass)
}
