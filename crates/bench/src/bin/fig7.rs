//! Regenerates Figure 7: the model-vs-simulation scatter of delay and slew
//! over the full sweep (lengths 1–7 mm, widths 0.8–3.5 µm, drivers 25X–125X,
//! input slews 50–200 ps), restricted to the cases the screening criteria
//! mark as inductive, plus the Section 6 error statistics.
//!
//! Usage: `fig7 [--quick]` — `--quick` caps the sweep at 40 inductive cases
//! for a fast smoke run.

use rlc_bench::output::{format_table, write_csv};
use rlc_bench::{run_fig7, ExperimentContext, OutputPaths, SimFidelity};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let max_cases = if quick { Some(40) } else { None };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    println!("== Figure 7: model accuracy over the inductive sweep ==");
    let mut ctx = ExperimentContext::new();
    let result =
        run_fig7(&mut ctx, SimFidelity::Sweep, threads, max_cases).expect("figure 7 sweep failed");

    let paths = OutputPaths::default_dir();
    let rows: Vec<Vec<f64>> = result
        .cases
        .iter()
        .map(|c| {
            vec![
                c.length_mm,
                c.width_um,
                c.driver_size,
                c.input_slew_ps,
                c.sim_delay,
                c.model_delay,
                c.delay_error,
                c.sim_slew,
                c.model_slew,
                c.slew_error,
            ]
        })
        .collect();
    write_csv(
        &paths.file("fig7_scatter.csv"),
        &[
            "length_mm",
            "width_um",
            "driver_size",
            "input_slew_ps",
            "sim_delay_s",
            "model_delay_s",
            "delay_error",
            "sim_slew_s",
            "model_slew_s",
            "slew_error",
        ],
        &rows,
    );

    println!(
        "inductive cases evaluated: {} (screened out as non-inductive: {}, model failed: {}, \
         golden comparison failed: {})",
        result.cases.len(),
        result.screened_out,
        result.model_failed,
        result.golden_failed
    );
    let stats_rows = vec![
        vec![
            "delay".to_string(),
            format!("{:.1}%", result.delay_stats.mean_abs * 100.0),
            format!("{:.0}%", result.delay_stats.frac_below_5pct * 100.0),
            format!("{:.0}%", result.delay_stats.frac_below_10pct * 100.0),
            format!("{:.1}%", result.delay_stats.max_abs * 100.0),
        ],
        vec![
            "slew".to_string(),
            format!("{:.1}%", result.slew_stats.mean_abs * 100.0),
            format!("{:.0}%", result.slew_stats.frac_below_5pct * 100.0),
            format!("{:.0}%", result.slew_stats.frac_below_10pct * 100.0),
            format!("{:.1}%", result.slew_stats.max_abs * 100.0),
        ],
    ];
    println!(
        "{}",
        format_table(
            &[
                "metric",
                "avg |err|",
                "<5% cases",
                "<10% cases",
                "max |err|"
            ],
            &stats_rows
        )
    );
    println!("paper reports: avg delay error 6% (48% <5%, 83% <10%), avg slew error 11.1% (31% <5%, 61% <10%) over 165 cases");
    println!("scatter data written to target/experiments/fig7_scatter.csv");
}
