//! Regenerates **Table 2** of the paper: per selected benchmark, the
//! inference algorithm, type-inference + code-generation time (CG),
//! generated lines of code (GLOC), inference time on the compiled/coroutine
//! path (GI), handwritten lines of code (HLOC), and inference time on the
//! handwritten path (HI), each the median of interleaved trials, and GI/HI
//! as the median [p10, p90] of per-trial ratios.
//!
//! Run with `cargo run -p ppl-bench --bin table2_performance --release`.

use ppl_bench::{table2_rows, Table2Config};

fn main() {
    let config = Table2Config::default();
    println!(
        "Table 2: performance statistics ({} IS particles, {} VI iterations x {} samples)",
        config.is_particles, config.vi_iterations, config.vi_samples_per_iteration
    );
    println!(
        "{:<11} {:>3} {:>3} {:>9} {:>6} {:>9} {:>6} {:>9} {:>20}",
        "Program", "BI", "n", "CG (ms)", "GLOC", "GI (ms)", "HLOC", "HI (ms)", "GI/HI"
    );
    println!("{}", "-".repeat(84));
    let rows = table2_rows(&config);
    for r in &rows {
        println!(
            "{:<11} {:>3} {:>3} {:>9.3} {:>6} {:>9.2} {:>6} {:>9.2} {:>20.2}",
            r.name,
            r.algorithm,
            r.gi_over_hi.n,
            r.codegen_time.median * 1e3,
            r.generated_loc,
            r.coroutine_inference_time.median * 1e3,
            r.handwritten_loc,
            r.handwritten_inference_time.median * 1e3,
            r.gi_over_hi,
        );
    }
    println!("{}", "-".repeat(84));
    println!("estimate agreement (coroutine vs handwritten):");
    for r in &rows {
        println!(
            "  {:<11} {:>10.4} vs {:>10.4}",
            r.name, r.coroutine_estimate, r.handwritten_estimate
        );
    }
}
