//! Regenerates the paper's **Figure 5**: average FlexCore performance
//! (normalized execution time, geometric mean over the benchmarks) as a
//! function of the forward-FIFO size, for each extension at its paper
//! operating point (0.5X for UMC/DIFT/BC, 0.25X for SEC).
//!
//! `--quick` sweeps three benchmarks and four FIFO sizes.
//!
//! `--series <dir>` additionally writes each run's cycle-resolved epoch
//! metrics as `<dir>/fig5_fifo<N>_<ext>_<workload>.jsonl` — the FIFO
//! back-pressure sweep is where the per-epoch occupancy/stall columns
//! are most interesting.

use std::path::PathBuf;

use flexcore::SystemConfig;
use flexcore_bench::{
    baseline_cycles, cli::Args, geomean, run_extension, run_extension_series, ExtKind,
};
use flexcore_workloads::Workload;

fn main() {
    let mut args = Args::from_env("fig5 [--quick] [--series DIR]");
    let quick = args.flag("--quick");
    let series = args.value::<PathBuf>("--series");
    args.finish();
    let sizes: &[usize] = if quick { &[8, 16, 64, 256] } else { &[4, 8, 16, 32, 64, 128, 256] };
    let workloads = if quick {
        vec![Workload::sha(), Workload::stringsearch(), Workload::bitcount()]
    } else {
        Workload::all()
    };

    println!("Figure 5: average normalized execution time vs forward-FIFO size");
    println!("(each extension at its paper fabric clock: UMC/DIFT/BC 0.5X, SEC 0.25X)");
    println!("{}", "=".repeat(60));
    print!("{:<10}", "FIFO");
    for ext in ExtKind::ALL {
        print!("{:>10}", ext.name());
    }
    println!();
    println!("{}", "-".repeat(60));

    let baselines: Vec<u64> = workloads.iter().map(baseline_cycles).collect();

    for &size in sizes {
        print!("{:<10}", size);
        for ext in ExtKind::ALL {
            let cfg = match ext.paper_divisor() {
                4 => SystemConfig::fabric_quarter_speed(),
                _ => SystemConfig::fabric_half_speed(),
            }
            .with_fifo_depth(size);
            let ratios: Vec<f64> = workloads
                .iter()
                .zip(&baselines)
                .map(|(w, &base)| {
                    let run = match &series {
                        Some(dir) => {
                            let stem = format!(
                                "fig5_fifo{size}_{}_{}",
                                ext.name().to_lowercase(),
                                w.name()
                            );
                            run_extension_series(w, ext, cfg, dir, &stem)
                        }
                        None => run_extension(w, ext, cfg),
                    };
                    run.cycles as f64 / base as f64
                })
                .collect();
            print!("{:>10.3}", geomean(&ratios));
        }
        println!();
    }
    println!("{}", "-".repeat(60));
    println!(
        "Shape check vs the paper's Figure 5: small FIFOs hurt; the curve\n\
         flattens by 64 entries; beyond that the benefit is marginal."
    );
}
