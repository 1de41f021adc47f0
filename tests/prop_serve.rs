//! Concurrency differential stress tests for the serving stack: many
//! threads hammering a shared set of [`CompiledPipeline`]s — directly and
//! through a [`Server`] — with mixed extents, bit-compared against the
//! per-element interpreter oracle. The CI `serve` job runs this suite under
//! both `HELIUM_FORCE_SCALAR=1` and `HELIUM_FORCE_SIMD=1`, so every
//! execution tier (including the parallel-reduce deferred-accumulation
//! path) is differentially covered under contention.
//!
//! The suite also reconciles the sharded program-cache counters: per-shard
//! stats must sum to the aggregate, and every miss must be accounted for by
//! either a build or a coalesced wait.

use helium::halide::prelude::*;
use helium::halide::realize::{ExecBackend, RealizeError};
use helium_bench::{hist64_pipeline, hist64_rdom_pipeline, minigmg_smooth_f32};
use helium_serve::{ServeConfig, ServeRequest, Server, SubmitError, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const ITERS_PER_THREAD: usize = 24;

/// One shared pipeline under test: its compiled form, the interpreter
/// oracle's outputs per extent, and the input buffer both bind.
struct Subject {
    name: &'static str,
    compiled: Arc<CompiledPipeline>,
    input: Arc<Buffer>,
    input_name: &'static str,
    /// Mixed realize extents, each with the oracle's output.
    cases: Vec<(Vec<usize>, Buffer)>,
}

fn subject(
    name: &'static str,
    pipeline: &Pipeline,
    input_name: &'static str,
    input: Buffer,
    extents: &[&[usize]],
) -> Subject {
    let schedule = Schedule::stencil_default();
    let compiled = pipeline
        .compile(&schedule, &CompileOptions::default())
        .expect("compile lowered");
    let oracle = pipeline
        .compile(
            &schedule,
            &CompileOptions {
                backend: ExecBackend::Interpret,
                ..CompileOptions::default()
            },
        )
        .expect("compile oracle");
    let inputs = RealizeInputs::new().with_image(input_name, &input);
    let cases = extents
        .iter()
        .map(|e| (e.to_vec(), oracle.run(&inputs, e).expect("oracle run")))
        .collect();
    Subject {
        name,
        compiled: Arc::new(compiled),
        input: Arc::new(input),
        input_name,
        cases,
    }
}

/// The shared pipeline set: an i64-lane pure stencil, an f32-lane 3-D
/// smoother, and the histogram reduction (guarded stores + the
/// parallel-reduce deferred path), each over three extents.
fn subjects() -> Vec<Subject> {
    let (hist_pure, hist_pure_in) = hist64_pipeline(46, 38, 0xA11CE);
    let (smooth, grid) = minigmg_smooth_f32(18, 10, 6, 0x6116);
    let (hist_rdom, hist_rdom_in) = hist64_rdom_pipeline(96, 64, 0xB16B);
    vec![
        subject(
            "hist64_pure",
            &hist_pure,
            "in",
            hist_pure_in,
            &[&[46, 38], &[32, 24], &[16, 8]],
        ),
        subject(
            "minigmg_smooth_f32",
            &smooth,
            "grid",
            grid,
            &[&[18, 10, 6], &[16, 8, 6], &[8, 10, 4]],
        ),
        subject(
            "hist64_rdom",
            &hist_rdom,
            "in",
            hist_rdom_in,
            &[&[256], &[128], &[64]],
        ),
    ]
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Reconcile a compiled pipeline's sharded cache counters after `runs`
/// total realizes of `distinct` distinct keys (no evictions expected at
/// these counts).
fn reconcile(subject: &Subject, runs: u64, distinct: usize) {
    let stats = subject.compiled.cache_stats();
    let shards = subject.compiled.cache_shard_stats();
    assert_eq!(
        stats.hits,
        shards.iter().map(|s| s.hits).sum::<u64>(),
        "{}: aggregate hits != shard sum",
        subject.name
    );
    assert_eq!(
        stats.misses,
        shards.iter().map(|s| s.misses).sum::<u64>(),
        "{}: aggregate misses != shard sum",
        subject.name
    );
    assert_eq!(
        stats.evictions,
        shards.iter().map(|s| s.evictions).sum::<u64>(),
        "{}: aggregate evictions != shard sum",
        subject.name
    );
    assert_eq!(
        stats.hits + stats.misses,
        runs,
        "{}: every realize is a lookup",
        subject.name
    );
    assert_eq!(
        stats.misses,
        subject.compiled.compiles() + subject.compiled.coalesced_compiles(),
        "{}: every miss either built or joined an in-flight build",
        subject.name
    );
    assert_eq!(
        stats.evictions, 0,
        "{}: no evictions expected",
        subject.name
    );
    assert_eq!(
        subject.compiled.compiles(),
        distinct as u64,
        "{}: one build per distinct key",
        subject.name
    );
    assert_eq!(
        subject.compiled.cached_programs(),
        distinct,
        "{}: all programs retained",
        subject.name
    );
}

#[test]
fn concurrent_direct_runs_match_interpreter_oracle() {
    let subjects = subjects();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let subjects = &subjects;
            scope.spawn(move || {
                let mut state = 0x5EED ^ (t as u64) << 17;
                for _ in 0..ITERS_PER_THREAD {
                    let s = &subjects[(lcg(&mut state) % subjects.len() as u64) as usize];
                    let (extents, expected) =
                        &s.cases[(lcg(&mut state) % s.cases.len() as u64) as usize];
                    let inputs = RealizeInputs::new().with_image(s.input_name, &s.input);
                    let got = s.compiled.run(&inputs, extents).expect("compiled run");
                    assert_eq!(
                        &got, expected,
                        "{} diverged from the oracle at {extents:?}",
                        s.name
                    );
                }
            });
        }
    });
    let total: u64 = (THREADS * ITERS_PER_THREAD) as u64;
    let per_subject: u64 = subjects
        .iter()
        .map(|s| {
            let stats = s.compiled.cache_stats();
            stats.hits + stats.misses
        })
        .sum();
    assert_eq!(per_subject, total, "every run hit exactly one cache");
    for s in &subjects {
        let runs = {
            let stats = s.compiled.cache_stats();
            stats.hits + stats.misses
        };
        reconcile(s, runs, s.cases.len());
    }
}

#[test]
fn served_requests_match_interpreter_oracle() {
    let subjects = subjects();
    let server = Server::start(ServeConfig::default().with_workers(THREADS));
    let mut state = 0xCAFE_F00Du64;
    let mut pending = Vec::new();
    for _ in 0..THREADS * ITERS_PER_THREAD {
        let si = (lcg(&mut state) % subjects.len() as u64) as usize;
        let s = &subjects[si];
        let ci = (lcg(&mut state) % s.cases.len() as u64) as usize;
        let request = ServeRequest::new(Arc::clone(&s.compiled), &s.cases[ci].0)
            .with_image(s.input_name, Arc::clone(&s.input));
        pending.push((si, ci, server.submit(request).expect("submit")));
    }
    for (si, ci, ticket) in pending {
        let s = &subjects[si];
        let got = ticket.wait().expect("served run");
        assert_eq!(
            got, s.cases[ci].1,
            "{} diverged from the oracle at {:?} when served",
            s.name, s.cases[ci].0
        );
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, (THREADS * ITERS_PER_THREAD) as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.latency.count, stats.completed);
    server.shutdown();
    for s in &subjects {
        let runs = {
            let cache = s.compiled.cache_stats();
            cache.hits + cache.misses
        };
        reconcile(s, runs, s.cases.len());
    }
}

/// Shutdown/submit race: threads submitting concurrently with `shutdown()`
/// must each get either a resolvable ticket or `SubmitError::ShuttingDown`,
/// never a hang. Runs under both forced-tier CI legs like the rest of the
/// suite.
#[test]
fn shutdown_concurrent_with_submit_never_strands_a_ticket() {
    let subjects = subjects();
    let server = Server::start(ServeConfig::default().with_workers(4));
    let barrier = std::sync::Barrier::new(THREADS + 1);
    let accepted: Vec<(usize, usize, Ticket)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = &server;
                let subjects = &subjects;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut state = 0xD00F ^ (t as u64) << 13;
                    let mut mine = Vec::new();
                    barrier.wait();
                    for _ in 0..ITERS_PER_THREAD {
                        let si = (lcg(&mut state) % subjects.len() as u64) as usize;
                        let s = &subjects[si];
                        let ci = (lcg(&mut state) % s.cases.len() as u64) as usize;
                        let request = ServeRequest::new(Arc::clone(&s.compiled), &s.cases[ci].0)
                            .with_image(s.input_name, Arc::clone(&s.input));
                        match server.submit(request) {
                            Ok(ticket) => mine.push((si, ci, ticket)),
                            Err(SubmitError::ShuttingDown(_)) => break,
                            Err(e) => panic!("unexpected rejection during shutdown race: {e:?}"),
                        }
                    }
                    mine
                })
            })
            .collect();
        barrier.wait();
        // Give the submitters a moment to race, then close mid-stream —
        // submits after this fail ShuttingDown, accepted work still drains.
        std::thread::sleep(Duration::from_millis(2));
        server.close();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    let stats_handed_out = accepted.len() as u64;
    // Every accepted ticket resolves — bit-exactly, since no deadline or
    // panic is in play here.
    for (si, ci, ticket) in accepted {
        let s = &subjects[si];
        let got = ticket.wait().expect("accepted ticket resolves");
        assert_eq!(
            got, s.cases[ci].1,
            "{} diverged from the oracle under the shutdown race",
            s.name
        );
    }
    let stats = server.stats();
    assert_eq!(
        stats.submitted, stats_handed_out,
        "accepted == tickets handed out"
    );
    assert_eq!(
        stats.completed, stats.submitted,
        "accepted work all drained"
    );
    server.shutdown();
}

/// Saturate one worker and race deadlines against the queue: every ticket
/// resolves either bit-exactly or with `DeadlineExceeded`, the `expired`
/// counter reconciles with observations, and expired requests never reach
/// the program cache.
#[test]
fn deadline_overload_every_ticket_resolves() {
    let (pipeline, input) = hist64_rdom_pipeline(96, 64, 0xDEAD);
    let compiled = Arc::new(
        pipeline
            .compile(&Schedule::stencil_default(), &CompileOptions::default())
            .expect("compile"),
    );
    let oracle = {
        let inputs = RealizeInputs::new().with_image("in", &input);
        pipeline
            .compile(
                &Schedule::stencil_default(),
                &CompileOptions {
                    backend: ExecBackend::Interpret,
                    ..CompileOptions::default()
                },
            )
            .expect("compile oracle")
            .run(&inputs, &[256])
            .expect("oracle run")
    };
    let input = Arc::new(input);
    let server = Server::start(ServeConfig::default().with_workers(1).with_queue_depth(256));
    let mut state = 0x5AFE_u64;
    let mut tickets = Vec::new();
    for i in 0..96 {
        let mut request =
            ServeRequest::new(Arc::clone(&compiled), &[256]).with_image("in", Arc::clone(&input));
        // A mix of no deadline, already-expired, and tight-racy deadlines.
        request = match i % 3 {
            0 => request,
            1 => request.with_deadline(Instant::now()),
            _ => request.with_timeout(Duration::from_micros(lcg(&mut state) % 3000)),
        };
        tickets.push(server.submit(request).expect("submit"));
    }
    let mut expired_seen = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(got) => assert_eq!(got, oracle, "served result diverged under deadline load"),
            Err(RealizeError::DeadlineExceeded) => expired_seen += 1,
            Err(e) => panic!("unexpected realize error under deadline load: {e}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 96, "every ticket resolved");
    assert_eq!(stats.expired, expired_seen, "expired counter reconciles");
    assert!(stats.expired >= 32, "the already-expired third must expire");
    assert_eq!(stats.failed, 0, "expiries are not failures");
    // Expired jobs skipped the realize entirely: cache lookups == realized.
    let cache = compiled.cache_stats();
    assert_eq!(cache.hits + cache.misses, 96 - expired_seen);
}

/// Per-pipeline quotas under a concurrent storm: rejections reconcile with
/// the counter, accepted work is bit-exact, and a quota on one pipeline
/// never starves another.
#[test]
fn quota_storm_rejections_reconcile_and_other_pipelines_proceed() {
    let subjects = subjects();
    let quota = 4usize;
    let server = Arc::new(Server::start(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(256)
            .with_pipeline_quota(quota),
    ));

    // Phase 1 — deterministic trip: fill subjects[0]'s quota with blocking
    // submits. In-flight = queued + running, released only at ticket
    // delivery. A slow job on another pipeline occupies the one worker
    // first, so no held ticket can run, let alone be delivered, before the
    // try_submit below: the blocker is the interpreter backend over a large
    // output (over half a second on any tier), against the microseconds the
    // fill and the check take. Meanwhile a different pipeline must sail
    // through.
    let s0 = &subjects[0];
    let s1 = &subjects[1];
    let (smooth, grid) = minigmg_smooth_f32(18, 10, 6, 0x6116);
    let interpreter = CompileOptions {
        backend: ExecBackend::Interpret,
        ..CompileOptions::default()
    };
    let slow = smooth
        .compile(&Schedule::naive(), &interpreter)
        .expect("compile blocker");
    let blocker = server
        .submit(
            ServeRequest::new(Arc::new(slow), &[128, 128, 24]).with_image("grid", Arc::new(grid)),
        )
        .expect("blocker");
    let held: Vec<Ticket> = (0..quota)
        .map(|_| {
            let request = ServeRequest::new(Arc::clone(&s0.compiled), &s0.cases[0].0)
                .with_image(s0.input_name, Arc::clone(&s0.input));
            server.submit(request).expect("fill quota")
        })
        .collect();
    let over = ServeRequest::new(Arc::clone(&s0.compiled), &s0.cases[0].0)
        .with_image(s0.input_name, Arc::clone(&s0.input));
    // The quota counts queued + running; nothing has been waited on, so the
    // pipeline is pinned at its limit right now.
    assert!(
        matches!(server.try_submit(over), Err(SubmitError::QuotaExceeded(_))),
        "a full quota must reject the next try_submit"
    );
    let other = ServeRequest::new(Arc::clone(&s1.compiled), &s1.cases[0].0)
        .with_image(s1.input_name, Arc::clone(&s1.input));
    let other_ticket = server
        .try_submit(other)
        .expect("a quota on one pipeline never starves another");
    blocker.wait().expect("blocker");
    for t in held {
        t.wait().expect("held ticket");
    }
    assert_eq!(other_ticket.wait().expect("other pipeline"), s1.cases[0].1);

    // Phase 2 — concurrent storm: rejections may or may not happen (the
    // quota releases as work drains), but the counter must reconcile and
    // accepted work must stay bit-exact.
    let rejected = Arc::new(std::sync::atomic::AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = Arc::clone(&server);
            let rejected = Arc::clone(&rejected);
            let subjects = &subjects;
            scope.spawn(move || {
                let mut state = 0xBEEF ^ (t as u64) << 19;
                for _ in 0..ITERS_PER_THREAD {
                    let s = &subjects[(lcg(&mut state) % subjects.len() as u64) as usize];
                    let (extents, expected) =
                        &s.cases[(lcg(&mut state) % s.cases.len() as u64) as usize];
                    let request = ServeRequest::new(Arc::clone(&s.compiled), extents)
                        .with_image(s.input_name, Arc::clone(&s.input));
                    match server.try_submit(request) {
                        Ok(ticket) => {
                            let got = ticket.wait().expect("accepted ticket");
                            assert_eq!(&got, expected, "{} diverged under quota storm", s.name);
                        }
                        Err(SubmitError::QuotaExceeded(_)) => {
                            rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected rejection under quota storm: {e:?}"),
                    }
                }
            });
        }
    });
    let stats = server.stats();
    let storm_rejected = rejected.load(std::sync::atomic::Ordering::Relaxed);
    // +1 for the deterministic phase-1 trip.
    assert_eq!(
        stats.quota_rejected,
        storm_rejected + 1,
        "rejection counter reconciles"
    );
    // Phase 1 submitted the blocker, the held quota and the other pipeline.
    let phase1_submitted = quota as u64 + 2;
    assert_eq!(
        stats.submitted + storm_rejected,
        phase1_submitted + (THREADS * ITERS_PER_THREAD) as u64,
        "every attempt either submitted or was quota-rejected"
    );
    assert_eq!(
        stats.completed, stats.submitted,
        "accepted work all resolved"
    );
}

/// Load shedding under a try_submit storm with an unreachably low p99
/// target: sheds happen, the counter reconciles, and accepted work stays
/// bit-exact.
#[test]
fn shed_storm_reconciles_and_accepted_work_is_exact() {
    let subjects = subjects();
    let server = Arc::new(Server::start(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_depth(256)
            .with_p99_target(Duration::from_nanos(1)),
    ));
    // Prime the live histogram past the shedding minimum via blocking
    // submits (which never shed).
    let s0 = &subjects[0];
    for _ in 0..32 {
        let request = ServeRequest::new(Arc::clone(&s0.compiled), &s0.cases[0].0)
            .with_image(s0.input_name, Arc::clone(&s0.input));
        server
            .submit(request)
            .expect("priming submit")
            .wait()
            .expect("priming ticket");
    }
    let shed = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let admitted = Arc::new(std::sync::atomic::AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let server = Arc::clone(&server);
            let shed = Arc::clone(&shed);
            let admitted = Arc::clone(&admitted);
            let subjects = &subjects;
            scope.spawn(move || {
                let mut state = 0x51ED ^ (t as u64) << 23;
                for _ in 0..ITERS_PER_THREAD {
                    let s = &subjects[(lcg(&mut state) % subjects.len() as u64) as usize];
                    let (extents, expected) =
                        &s.cases[(lcg(&mut state) % s.cases.len() as u64) as usize];
                    let request = ServeRequest::new(Arc::clone(&s.compiled), extents)
                        .with_image(s.input_name, Arc::clone(&s.input));
                    match server.try_submit(request) {
                        Ok(ticket) => {
                            admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let got = ticket.wait().expect("accepted ticket");
                            assert_eq!(&got, expected, "{} diverged under shed storm", s.name);
                        }
                        Err(SubmitError::Shed(_)) => {
                            shed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected rejection under shed storm: {e:?}"),
                    }
                }
            });
        }
    });
    let stats = server.stats();
    let shed = shed.load(std::sync::atomic::Ordering::Relaxed);
    let admitted = admitted.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(stats.shed, shed, "shed counter reconciles");
    assert_eq!(stats.submitted, 32 + admitted);
    assert_eq!(
        stats.completed, stats.submitted,
        "accepted work all resolved"
    );
    assert!(
        shed > 0,
        "a 1ns p99 target under a {THREADS}-thread storm must shed"
    );
}

#[test]
fn cold_cache_same_key_storm_coalesces() {
    // Every worker needs the same cold (pipeline, extents, bindings) key at
    // once: exactly one build must happen, everyone else shares it.
    let (pipeline, input) = hist64_rdom_pipeline(96, 64, 0x0C0A);
    let compiled = Arc::new(
        pipeline
            .compile(&Schedule::stencil_default(), &CompileOptions::default())
            .expect("compile"),
    );
    let input = Arc::new(input);
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let compiled = &compiled;
            let input = &input;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let inputs = RealizeInputs::new().with_image("in", input);
                compiled.run(&inputs, &[256]).expect("run");
            });
        }
    });
    let stats = compiled.cache_stats();
    assert_eq!(stats.hits + stats.misses, THREADS as u64);
    assert_eq!(compiled.compiles(), 1, "one build for one key");
    assert_eq!(
        stats.misses,
        compiled.compiles() + compiled.coalesced_compiles(),
        "misses reconcile with builds + coalesced waits"
    );
}
