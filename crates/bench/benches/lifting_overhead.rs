//! Lifting cost against trace length, an ablation not reported in the
//! paper: every PhotoFlow filter lifted with `Lifter::lift` at 32×17, 64×34
//! and 128×68, each size four times the pixels of the one before.
//!
//! ```text
//! cargo bench -p helium-bench --bench lifting_overhead
//! ```
//!
//! Per filter and size it prints the median lift time over five lifts, the
//! dynamic instructions the filter-function trace captured, the time per
//! dynamic instruction and the time's ratio to the previous size. The trace
//! grows with the pixels, so a linear lifter shows a flat ns/instr column
//! and ratios near 4; a ratio well above 4 is superlinear growth.

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{photoflow_app, photoflow_request};
use helium_core::Lifter;
use std::time::Instant;

/// Image sizes, each four times the pixels of the one before.
const SIZES: [(usize, usize); 3] = [(32, 17), (64, 34), (128, 68)];
/// Lifts per cell; the median is reported.
const REPS: usize = 5;

fn main() {
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>7}",
        "filter", "size", "dyn instr", "lift ms", "ns/instr", "x prev"
    );
    for filter in PhotoFilter::ALL {
        let mut prev_ms = None;
        for (w, h) in SIZES {
            let app = photoflow_app(filter, w, h);
            let request = photoflow_request(&app);
            let mut times = Vec::with_capacity(REPS);
            let mut instrs = 0;
            for _ in 0..REPS {
                let start = Instant::now();
                let lifted = Lifter::new()
                    .lift(app.program(), &request, |with| app.fresh_cpu(with))
                    .unwrap_or_else(|e| panic!("lifting {} failed: {e}", filter.name()));
                times.push(start.elapsed().as_secs_f64() * 1e3);
                instrs = lifted.stats.dynamic_instruction_count;
            }
            times.sort_by(f64::total_cmp);
            let ms = times[REPS / 2];
            let ratio = prev_ms.map_or(String::from("-"), |p: f64| format!("{:.2}", ms / p));
            println!(
                "{:<14} {:>8} {:>10} {:>10.1} {:>10.0} {:>7}",
                filter.name(),
                format!("{w}x{h}"),
                instrs,
                ms,
                ms * 1e6 / instrs as f64,
                ratio
            );
            prev_ms = Some(ms);
        }
    }
}
