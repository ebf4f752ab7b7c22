//! Golden guard on the SIMT accounting: three default-configuration steps
//! of a 60-rock rockfall and an ~80-block jointed slope on `GpuPipeline`,
//! with every per-kernel counter of `DeviceTrace::by_kernel()` and every
//! step's modeled K40 seconds pinned to literal values.
//!
//! The counters are the architectural evidence the paper's claims rest on
//! (coalesced transactions, bank-conflict replays, divergence groups,
//! launches), so any change to the warp collectors in `dda-simt` must
//! leave every one of them bitwise unchanged. A mismatch prints the whole
//! observed table in the golden format.

use dda_repro::core::pipeline::GpuPipeline;
use dda_repro::core::{BlockSystem, DdaParams};
use dda_repro::simt::{Device, DeviceProfile, KernelStats};
use dda_repro::workloads::{rockfall_case, slope_case, RockfallConfig, SlopeConfig};

const STEPS: usize = 3;

/// One golden line per kernel: name, then the 14 `KernelStats` counters in
/// declaration order (launches threads warps flops warp_flops
/// gmem_transactions gmem_bytes tex_transactions smem_accesses
/// smem_replays branch_groups divergent_branch_groups shuffles syncs).
fn kernel_line(name: &str, s: &KernelStats) -> String {
    format!(
        "{name} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        s.launches,
        s.threads,
        s.warps,
        s.flops,
        s.warp_flops,
        s.gmem_transactions,
        s.gmem_bytes,
        s.tex_transactions,
        s.smem_accesses,
        s.smem_replays,
        s.branch_groups,
        s.divergent_branch_groups,
        s.shuffles,
        s.syncs,
    )
}

/// Runs `STEPS` steps and returns the per-step modeled seconds (exact bit
/// patterns) followed by the per-kernel counter lines.
fn observe(sys: BlockSystem, params: DdaParams) -> Vec<String> {
    let mut pipe = GpuPipeline::new(sys, params, Device::new(DeviceProfile::tesla_k40()));
    let mut lines = Vec::new();
    for step in 0..STEPS {
        let before = pipe.device().modeled_seconds();
        pipe.step();
        let secs = pipe.device().modeled_seconds() - before;
        lines.push(format!("step{step} {:#018x}", secs.to_bits()));
    }
    for (name, (stats, _)) in pipe.device().trace().by_kernel() {
        lines.push(kernel_line(name, &stats));
    }
    lines
}

fn check(label: &str, observed: &[String], golden: &[&str]) {
    if observed
        .iter()
        .map(String::as_str)
        .ne(golden.iter().copied())
    {
        let mut table = String::new();
        for l in observed {
            table.push_str(&format!("    \"{l}\",\n"));
        }
        let first_diff = observed
            .iter()
            .map(String::as_str)
            .zip(golden.iter().copied())
            .position(|(o, g)| o != g);
        panic!(
            "{label}: SIMT accounting drifted from the golden table \
             (first differing line: {first_diff:?}, observed {} lines, golden {}); \
             observed:\n{table}",
            observed.len(),
            golden.len()
        );
    }
}

#[test]
fn rockfall_counters_match_golden() {
    let (sys, params) = rockfall_case(&RockfallConfig::default().with_rocks(60));
    check("rockfall-60", &observe(sys, params), ROCKFALL_GOLDEN);
}

#[test]
fn slope_counters_match_golden() {
    let (sys, params) = slope_case(&SlopeConfig::default().with_target_blocks(80));
    check("slope-80", &observe(sys, params), SLOPE_GOLDEN);
}

const ROCKFALL_GOLDEN: &[&str] = &[
    "step0 0x3f475d5ffe82699b",
    "step1 0x3f46c41fb6040585",
    "step2 0x3f46c41fb6040594",
    "assembly.reduce_blocks 3 9 3 972 10368 339 10548 972 0 0 0 0 0 0",
    "assembly.reduce_forces 3 6 3 108 1728 33 1272 108 0 0 0 0 0 0",
    "broad.inflate 3 186 6 744 768 384 11904 0 0 0 0 0 0 0",
    "broad.pair_tiles 3 6144 192 49152 49152 519 36372 0 2880 0 186 117 0 24",
    "compact.scatter 9 6171 198 0 0 504 29532 0 0 0 198 141 0 0",
    "diag.build 3 186 6 77550 134400 1971 95568 36 0 0 6 3 0 0",
    "format.hsbcsr 3 189 6 0 0 864 110592 0 0 0 0 0 0 0",
    "init.flag_kinds 3 249 9 0 0 135 16932 0 0 0 0 0 0 0",
    "init.regroup 3 249 9 0 0 267 32868 0 0 0 0 0 0 0",
    "init.ve 3 243 9 16524 19584 246 45684 342 0 0 0 0 0 0",
    "init.vv1 3 6 3 1032 16512 12 1128 45 0 0 0 0 0 0",
    "interp.check_restructured 3 249 9 40836 47232 282 76692 1371 0 0 0 0 0 0",
    "narrow.count 3 714 24 298800 334080 231 105528 6138 0 0 138 24 0 0",
    "narrow.emit 3 714 24 298800 334080 477 121464 6138 0 0 138 24 0 0",
    "nondiag.compute 3 249 9 5400 115200 1236 25908 96 0 0 9 6 0 0",
    "openclose.categorize 3 249 9 996 1152 135 16932 0 0 0 0 0 0 0",
    "openclose.update 3 249 9 1992 2304 351 42828 0 0 0 9 0 0 0",
    "pcg.fused.axpy2norm 19 9728 304 77862 82688 2812 340176 0 0 0 0 0 1140 0",
    "pcg.fused.precond_rz 19 9728 304 134520 142272 3629 792224 4123 0 0 0 0 1235 0",
    "pcg.fused.xpby_beta 16 8192 256 12000 14336 1184 143360 0 0 0 0 0 0 0",
    "precond.bj.apply 3 1116 36 13392 13824 2592 116064 1260 0 0 0 0 0 0",
    "precond.bj.construct 3 186 6 79980 82560 13824 133920 0 0 0 0 0 0 0",
    "radix.histogram 48 12288 384 19920 21504 1032 128832 0 9960 9273 0 0 0 48",
    "radix.scatter 48 12288 384 59664 62832 2151 239460 0 39840 0 0 0 0 768",
    "scan.add_offsets 3 6144 192 4905 4992 336 39336 0 0 0 0 0 0 0",
    "scan.tile 75 24576 768 118440 121536 1362 158304 0 633 0 0 0 3165 96",
    "segments.head_flags 6 45 6 39 192 24 852 0 0 0 0 0 0 0",
    "segments.scatter_starts 6 45 6 0 0 18 300 0 0 0 6 6 0 0",
    "sorted_search.lower_bound 2 166 6 2152 2688 24 10600 176 0 0 42 40 0 0",
    "spmv.hsbcsr.stage1 22 22 22 3300 105600 1078 10736 264 264 0 0 0 0 0",
    "spmv.hsbcsr.stage2 3 1536 48 13428 14976 543 73236 1134 3 0 0 0 0 0",
    "spmv.hsbcsr.stage2_pq 19 9728 304 105070 115520 3477 464132 7182 19 0 0 0 190 0",
    "transfer.apply 2 166 6 0 0 266 32536 0 0 0 6 0 0 0",
    "update.apply 6 1116 36 34416 68832 1767 225840 0 0 0 0 0 0 0",
    "vec.axpy 3 1116 36 2232 2304 216 26784 0 0 0 0 0 0 0",
    "vec.dot.final 9 2304 72 11538 11808 18 216 0 0 0 0 0 360 0",
    "vec.dot.partial 9 4608 144 23436 24192 450 53712 0 0 0 0 0 540 18",
];

const SLOPE_GOLDEN: &[&str] = &[
    "step0 0x3fb18608a6861471",
    "step1 0x3fa607aeb6f867fa",
    "step2 0x3f91c222e71fb328",
    "assembly.reduce_blocks 72 29352 956 6685308 25634304 1166664 62913468 6685308 0 0 0 0 0 0",
    "assembly.reduce_forces 72 7632 288 742812 1414080 123638 6865096 742812 0 0 0 0 0 0",
    "broad.inflate 3 318 12 1272 1536 648 20352 0 0 0 0 0 0 0",
    "broad.pair_tiles 3 21504 672 172032 172032 1956 118464 0 9204 0 537 453 0 84",
    "compact.scatter 9 22911 720 0 0 1938 124764 0 0 0 720 492 0 0",
    "diag.build 12 1272 48 692400 1766400 15000 670848 2424 0 0 48 48 0 0",
    "format.hsbcsr 72 29352 956 0 0 93888 12017664 0 0 0 0 0 0 0",
    "init.flag_kinds 3 3108 99 0 0 1653 211344 0 0 0 0 0 0 0",
    "init.regroup 3 3108 99 0 0 3231 410256 0 0 0 0 0 0 0",
    "init.vv1 3 3090 99 531480 544896 3090 580920 10206 0 0 0 0 0 0",
    "init.vv2 3 18 3 6912 36864 18 3384 141 0 0 0 0 0 0",
    "interp.check_restructured 72 74592 2376 12233088 12469248 79416 22974336 704160 0 0 0 0 0 0",
    "narrow.count 3 2064 66 1075500 1477440 1695 333504 20748 0 0 939 324 0 0",
    "narrow.emit 3 2064 66 1075500 1477440 4443 532800 20748 0 0 939 324 0 0",
    "nondiag.compute 72 74592 2376 37140600 45619200 7375072 73360196 299688 0 0 2376 1632 0 0",
    "openclose.categorize 3 3108 99 12432 12672 1653 211344 0 0 0 0 0 0 0",
    "openclose.update 72 74592 2376 596736 608256 100368 12829824 0 0 0 2376 1111 0 0",
    "pcg.fused.axpy2norm 1034 794112 24816 7249374 7477888 254364 31690032 0 0 0 0 0 103400 0",
    "pcg.fused.precond_rz 1034 794112 24816 12513468 12771968 333982 73703520 383614 0 0 0 0 108570 0",
    "pcg.fused.xpby_beta 962 738816 23088 1235208 1416064 118326 14753232 0 0 0 0 0 0 0",
    "precond.bj.apply 72 45792 1440 549504 552960 106128 4762368 51408 0 0 0 0 0 0",
    "precond.bj.construct 72 7632 288 3281760 3962880 567648 5495040 0 0 0 0 0 0 0",
    "radix.histogram 1152 3244032 101376 5967360 6008832 1339200 36845568 0 2983680 2549529 0 0 0 12672",
    "radix.scatter 1152 3244032 101376 17876736 17959680 876935 71995900 0 11934720 0 0 0 0 196992",
    "scan.add_offsets 1383 3696128 115504 3281904 3285216 219764 26312984 0 0 0 0 0 0 0",
    "scan.tile 2766 4050176 126568 22023900 22223040 247311 29428484 0 115745 0 0 0 578725 15821",
    "segments.head_flags 144 309505 9725 309361 311200 58267 6188948 0 0 0 0 0 0 0",
    "segments.scatter_starts 144 309505 9725 0 0 30004 1533892 0 0 0 9725 9697 0 0",
    "sorted_search.lower_bound 2 2072 66 41544 44032 224 191040 2210 0 0 688 476 0 0",
    "spmv.hsbcsr.stage1 1106 294836 9819 44225400 47131200 998684 143879968 2025438 3538032 0 0 0 0 0",
    "spmv.hsbcsr.stage2 72 73728 2304 810144 980928 36109 5165472 150310 21720 0 0 0 0 0",
    "spmv.hsbcsr.stage2_pq 1034 1058816 33088 13032148 15990848 496947 70334272 1953123 273116 0 0 0 20680 0",
    "transfer.apply 2 2072 66 0 0 3206 406112 0 0 0 66 0 0 0",
    "update.apply 6 1908 60 70212 140424 4056 518976 0 0 0 0 0 0 0",
    "vec.axpy 72 45792 1440 91584 92160 8640 1099008 0 0 0 0 0 0 0",
    "vec.dot.final 216 55296 1728 277128 283392 432 6912 0 0 0 0 0 8640 0",
    "vec.dot.partial 216 165888 5184 961632 967680 17928 2203200 0 0 0 0 0 21600 648",
];
