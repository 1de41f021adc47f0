//! Regenerates the paper's Fig. 6: code localization and extraction
//! statistics for the PhotoFlow (Photoshop-analogue) filters.

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{lift_photoflow, BENCH_HEIGHT, BENCH_WIDTH};

fn main() {
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>12} {:>10} {:>12} {:>10}",
        "Filter",
        "total BB",
        "diff BB",
        "filter BB",
        "static ins",
        "mem dump",
        "dyn ins",
        "tree size"
    );
    let filters = [
        PhotoFilter::Invert,
        PhotoFilter::Blur,
        PhotoFilter::BlurMore,
        PhotoFilter::Sharpen,
        PhotoFilter::SharpenMore,
        PhotoFilter::Threshold,
        PhotoFilter::BoxBlur,
        PhotoFilter::Brightness,
        PhotoFilter::Equalize,
    ];
    for filter in filters {
        match lift_photoflow(filter, BENCH_WIDTH / 2, BENCH_HEIGHT / 2) {
            Ok((_, lifted)) => {
                let s = &lifted.stats;
                let tree_sizes: Vec<String> = s.tree_sizes.iter().map(|t| t.to_string()).collect();
                println!(
                    "{:<14} {:>9} {:>9} {:>11} {:>12} {:>9}K {:>12} {:>10}",
                    filter.name(),
                    s.total_basic_blocks,
                    s.diff_basic_blocks,
                    s.filter_function_blocks,
                    s.static_instruction_count,
                    s.memory_dump_bytes / 1024,
                    s.dynamic_instruction_count,
                    tree_sizes.join("/")
                );
            }
            Err(e) => println!("{:<14} not lifted: {e}", filter.name()),
        }
    }
}
