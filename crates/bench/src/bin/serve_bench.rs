//! Standalone driver for the serving stack: throughput and tail latency of
//! `helium-serve` over a mixed warm workload, plus the parallel-reduction
//! split, printed human-readably. Nothing gates these numbers: tier-1's
//! `tests/prop_serve.rs` checks that served requests match the interpreter
//! and that deadlines and shedding resolve every ticket, and helium-bench's
//! `hist64_rdom_updates_run_compiled_and_match_oracle` checks that the
//! histogram merges private accumulators.

use helium_bench::{hist64_pipeline, hist64_rdom_pipeline, time_kernel};
use helium_halide::{CompileOptions, RealizeInputs, Schedule};
use helium_serve::{ServeConfig, ServeRequest, Server, Ticket};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let requests = 256usize;

    let opts = CompileOptions::default();
    let (pure, pure_in) = hist64_pipeline(126, 94, 0xA11CE);
    let pure = Arc::new(
        pure.compile(&Schedule::stencil_default(), &opts)
            .expect("compile"),
    );
    let pure_in = Arc::new(pure_in);
    let (rdom, rdom_in) = hist64_rdom_pipeline(192, 160, 0xB16B);
    let rdom = Arc::new(
        rdom.compile(&Schedule::stencil_default(), &opts)
            .expect("compile"),
    );
    let rdom_in = Arc::new(rdom_in);

    println!("helium-serve: {workers} workers, {requests} mixed requests");
    let server = Server::start(ServeConfig::default().with_workers(workers));
    let start = Instant::now();
    let tickets: Vec<Ticket> = (0..requests)
        .map(|i| {
            let request = if i % 2 == 0 {
                ServeRequest::new(Arc::clone(&pure), &[126, 94])
                    .with_image("in", Arc::clone(&pure_in))
            } else {
                ServeRequest::new(Arc::clone(&rdom), &[256]).with_image("in", Arc::clone(&rdom_in))
            };
            server.submit(request).expect("submit")
        })
        .collect();
    for t in tickets {
        let _ = t.wait().expect("served run");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.stats();
    println!(
        "  throughput: {:.0} rps ({requests} requests in {elapsed:.3}s)",
        requests as f64 / elapsed
    );
    println!(
        "  latency: p50={}ns p99={}ns max={}ns over {} samples",
        stats.latency.p50_ns, stats.latency.p99_ns, stats.latency.max_ns, stats.latency.count
    );
    println!(
        "  rdom cache: {:?} compiles={} coalesced={}",
        rdom.cache_stats(),
        rdom.compiles(),
        rdom.coalesced_compiles()
    );
    server.shutdown();

    // Parallel-reduce split on the histogram accumulator nest: warm medians.
    let (pipeline, input) = hist64_rdom_pipeline(256, 192, 0xB16B);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let serial_schedule = Schedule::stencil_default().with_parallel(false);
    let parallel_schedule = Schedule::stencil_default();
    let run = |schedule: &Schedule| {
        let compiled = pipeline.compile(schedule, &opts).expect("compile");
        compiled.run(&inputs, &[256]).expect("run")
    };
    assert_eq!(
        run(&serial_schedule),
        run(&parallel_schedule),
        "schedules must agree bit-for-bit"
    );
    let time =
        |schedule: &Schedule| time_kernel(&pipeline, schedule, &opts, &inputs, &[256], 25).warm;
    let ts = time(&serial_schedule);
    let tp = time(&parallel_schedule);
    println!(
        "  parallel reduce: serial={ts:?} parallel={tp:?} speedup={:.2}x",
        ts.as_secs_f64() / tp.as_secs_f64().max(1e-12)
    );
}
