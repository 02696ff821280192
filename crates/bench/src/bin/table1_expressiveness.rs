//! Regenerates **Table 1** of the paper: per benchmark, whether it
//! type-checks in the coroutine-based PPL (`T?`), the model's lines of code
//! (`LOC`), and whether the trace-types baseline can express it (`TP?`),
//! with the time guide-type inference takes (median [p10, p90]).
//!
//! Run with `cargo run -p ppl-bench --bin table1_expressiveness --release`.

use ppl_bench::table1_rows;

fn main() {
    let rows = table1_rows();
    println!("Table 1: selected benchmark descriptions and expressiveness");
    println!(
        "{:<11} {:<38} {:>3} {:>5} {:>4}  type-inference time (ms)",
        "Program", "Description", "T?", "LOC", "TP?"
    );
    println!("{}", "-".repeat(90));
    for row in &rows {
        let mark = |b: bool| if b { "Y" } else { "N" };
        let loc = if row.ours {
            row.loc.to_string()
        } else {
            "N/A".to_string()
        };
        let time = row
            .inference_time
            .map(|t| {
                let ms = |s: f64| s * 1e3;
                format!("{:.3} [{:.3}, {:.3}]", ms(t.median), ms(t.p10), ms(t.p90))
            })
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<11} {:<38} {:>3} {:>5} {:>4}  {}",
            row.name,
            row.description,
            mark(row.ours),
            loc,
            mark(row.trace_types),
            time
        );
    }
    let ours = rows.iter().filter(|r| r.ours).count();
    let prior = rows.iter().filter(|r| r.trace_types).count();
    println!("{}", "-".repeat(90));
    println!(
        "expressible: {ours}/{} in this PPL, {prior}/{} under trace types",
        rows.len(),
        rows.len()
    );
}
