//! A fixed piece of host work that measures how fast the host runs while
//! the benchmark runs.
//!
//! On a shared host the speed available to one process drifts by tens of
//! percent over minutes (other tenants, steal time), and that drift moves
//! every host-time figure of a run together. The probe is the same work on
//! every run of every commit: it does not call the repository's code, so a
//! change to the program cannot change it. Host-time metrics are reported
//! at the reference host's speed: each is scaled by how much slower or
//! faster than `REFERENCE_S` the probe ran during the measurement.

use std::time::Instant;

/// The probe's typical host seconds per sample on the reference host
/// (2-vCPU Intel Xeon VM, release build).
pub const REFERENCE_S: f64 = 1.25e-3;

/// Boxes of the all-pairs overlap pass.
const BOXES: usize = 640;
/// Entries of the dependent gather pass.
const GATHER: usize = 1 << 16;

/// The probe's fixed inputs: pseudo-random boxes and gather indices from a
/// constant seed.
pub struct Probe {
    boxes: Vec<[f64; 4]>,
    idx: Vec<u32>,
    vals: Vec<f64>,
    sink: f64,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let boxes = (0..BOXES)
            .map(|_| {
                let (x, y) = (next(), next());
                let (w, h) = (0.02 + 0.05 * next(), 0.02 + 0.05 * next());
                [x, y, x + w, y + h]
            })
            .collect();
        let idx = (0..GATHER)
            .map(|_| (next() * GATHER as f64) as u32)
            .collect();
        let vals = (0..GATHER).map(|_| next()).collect();
        Probe {
            boxes,
            idx,
            vals,
            sink: 0.0,
        }
    }
}

impl Probe {
    /// Runs the probe once — an all-pairs box-overlap pass (branchy
    /// compute, as in broad-phase contact detection), a dependent gather
    /// (load-to-use latency, as in sparse assembly and SpMV) and a chain of
    /// 6×6 products (dense floating point, as in the block matrices) —
    /// and returns its host seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let b = &self.boxes;
        let mut hits = 0u64;
        for i in 0..b.len() {
            for j in i + 1..b.len() {
                let overlap = b[i][0] <= b[j][2]
                    && b[j][0] <= b[i][2]
                    && b[i][1] <= b[j][3]
                    && b[j][1] <= b[i][3];
                hits += u64::from(overlap);
            }
        }
        let mut gathered = 0.0;
        let mut k = 0usize;
        for _ in 0..GATHER {
            k = self.idx[k] as usize;
            gathered += self.vals[k];
        }
        let mut m = [[0.0f64; 6]; 6];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = self.vals[r * 6 + c];
            }
        }
        let mut acc = m;
        for _ in 0..600 {
            let mut next = [[0.0f64; 6]; 6];
            for r in 0..6 {
                for c in 0..6 {
                    next[r][c] = (0..6).map(|x| acc[r][x] * m[x][c]).sum::<f64>() * 0.25;
                }
            }
            acc = next;
        }
        self.sink += std::hint::black_box(hits as f64 + gathered + acc[0][0]);
        t.elapsed().as_secs_f64()
    }
}
