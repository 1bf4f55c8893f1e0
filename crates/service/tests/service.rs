//! End-to-end tests of the `helix serve` daemon: differential cold/warm caching,
//! eviction, structured panic recovery, deadlines, and the framed batch transport.

use std::os::unix::net::UnixStream;

use helix_runtime::{ParallelExecutor, ParallelImage};
use helix_service::{
    memory_digest, CacheOutcome, Client, Fault, Op, Request, Response, ServeConfig, Server, Status,
};

/// A program with a DOALL-style hot loop (parallelizable) followed by a sequential
/// checksum reduction. `seed` varies the content hash without changing the shape.
fn doall(seed: i64) -> String {
    format!(
        r#"module service_test
global @g0 "arr" [64 words]
global @g1 "acc" [1 words]
func main(0 params, 8 vars) {{
bb0: (entry)
  %v0 = const 0
  br bb1
bb1:
  %v1 = cmp.lt %v0, 64
  condbr %v1, bb2, bb3
bb2:
  %v2 = add @g0, %v0
  %v3 = mul %v0, {seed}
  %v3 = xor %v3, 40503
  %v3 = mul %v3, 31
  %v3 = xor %v3, 99991
  store [%v2 + 0], %v3
  %v0 = add %v0, 1
  br bb1
bb3:
  %v0 = const 0
  br bb4
bb4:
  %v1 = cmp.lt %v0, 64
  condbr %v1, bb5, bb6
bb5:
  %v2 = add @g0, %v0
  %v4 = load [%v2 + 0]
  %v5 = load [@g1 + 0]
  %v5 = add %v5, %v4
  store [@g1 + 0], %v5
  %v0 = add %v0, 1
  br bb4
bb6:
  %v5 = load [@g1 + 0]
  ret %v5
}}
"#
    )
}

/// Straight-line program with no loop: exercises the sequential fallback.
const SEQ_ONLY: &str = "module seq_only\n\
func main(0 params, 2 vars) {\n\
bb0: (entry)\n\
  %v0 = const 21\n\
  %v1 = mul %v0, 2\n\
  ret %v1\n\
}\n";

fn test_server(cache_cap: usize) -> Server {
    Server::new(ServeConfig {
        cache_cap,
        service_threads: 2,
        default_threads: 2,
        max_iterations: 1_000_000,
        fuel: 10_000_000,
        calibrate: false,
    })
}

#[test]
fn cold_then_warm_is_bitwise_identical_and_hits_cache() {
    let server = test_server(4);
    let req = Request::run(1, &doall(2654435761));

    let cold = server.handle(&req);
    assert_eq!(cold.status, Some(Status::Ok), "cold: {:?}", cold.error);
    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert_eq!(cold.plan.as_deref(), Some("parallel"));
    assert!(
        cold.prep_ns.unwrap() > 0,
        "cold run must report prepare time"
    );
    assert!(cold.result.is_some() && cold.memory_hash.is_some());

    let warm = server.handle(&Request::run(2, &doall(2654435761)));
    assert_eq!(warm.status, Some(Status::Ok));
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.prep_ns, Some(0), "a hit skips prepare entirely");
    // Bitwise-identical: same formatted result AND same memory digest.
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.memory_hash, cold.memory_hash);

    let stats = server.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn canonically_equal_variant_shares_the_cached_image() {
    let server = test_server(4);
    let base = doall(7777);
    let variant = format!("# a leading comment changes the text, not the program\n{base}");
    assert_ne!(
        helix_service::raw_hash(&base, "main"),
        helix_service::raw_hash(&variant, "main")
    );

    let cold = server.handle(&Request::run(1, &base));
    let warm = server.handle(&Request::run(2, &variant));
    assert_eq!(cold.status, Some(Status::Ok), "cold: {:?}", cold.error);
    assert_eq!(
        warm.cache,
        CacheOutcome::Hit,
        "comments don't change the canonical print, so this must hit"
    );
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.memory_hash, cold.memory_hash);
    assert_eq!(server.cache_stats().entries, 1);
}

#[test]
fn eviction_under_two_entry_cap_relowers_correctly() {
    let server = test_server(2);
    let first = server.handle(&Request::run(1, &doall(1001)));
    assert_eq!(first.status, Some(Status::Ok), "first: {:?}", first.error);

    // Two more distinct programs evict the first (cap is 2, LRU).
    assert_eq!(
        server.handle(&Request::run(2, &doall(1002))).cache,
        CacheOutcome::Miss
    );
    assert_eq!(
        server.handle(&Request::run(3, &doall(1003))).cache,
        CacheOutcome::Miss
    );
    let stats = server.cache_stats();
    assert!(stats.evictions >= 1, "cap 2 with 3 programs must evict");
    assert_eq!(stats.entries, 2);

    // The evicted program re-prepares (miss) and still computes the same answer.
    let again = server.handle(&Request::run(4, &doall(1001)));
    assert_eq!(
        again.cache,
        CacheOutcome::Miss,
        "evicted entry must re-lower"
    );
    assert_eq!(again.status, Some(Status::Ok));
    assert_eq!(again.result, first.result);
    assert_eq!(again.memory_hash, first.memory_hash);
}

#[test]
fn sequential_fallback_runs_and_caches() {
    let server = test_server(4);
    let cold = server.handle(&Request::run(1, SEQ_ONLY));
    assert_eq!(cold.status, Some(Status::Ok), "cold: {:?}", cold.error);
    assert_eq!(cold.plan.as_deref(), Some("sequential"));
    assert_eq!(cold.result.as_deref(), Some("42"));
    let warm = server.handle(&Request::run(2, SEQ_ONLY));
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert_eq!(warm.memory_hash, cold.memory_hash);
}

#[test]
fn fault_injected_panic_is_structured_and_daemon_keeps_serving() {
    let server = test_server(4);
    let mut faulty = Request::run(1, &doall(31337));
    faulty.fault = Fault::PanicAt(7);
    faulty.threads = Some(2);

    let resp = server.handle(&faulty);
    assert_eq!(resp.status, Some(Status::Panic), "got: {resp:?}");
    let error = resp.error.unwrap();
    assert!(
        error.contains("injected fault"),
        "panic payload must reach the client: {error}"
    );

    // Same daemon, same cached image, no fault: the pool recovered.
    let clean = server.handle(&Request::run(2, &doall(31337)));
    assert_eq!(
        clean.status,
        Some(Status::Ok),
        "after panic: {:?}",
        clean.error
    );
    assert_eq!(clean.cache, CacheOutcome::Hit);
    assert_eq!(server.job_stats().panicked, 1);
}

#[test]
fn batch_transport_answers_every_id_with_fifo_deadlines_and_shutdown() {
    let server = test_server(8);
    let (daemon_side, client_side) = UnixStream::pair().unwrap();

    std::thread::scope(|scope| {
        // The thread must *own* the daemon-side socket: every daemon FD has to drop
        // when serving ends, or the client's recv loop below never sees EOF.
        scope.spawn(|| {
            let daemon_side = daemon_side;
            let input = daemon_side.try_clone().unwrap();
            server.serve_connection(input, &daemon_side);
        });

        let reader = client_side.try_clone().unwrap();
        let mut client = Client::from_halves(reader, &client_side);

        // A mix: runs (warm + cold), a ping, an expired deadline, a fault, stats.
        let program = doall(99);
        client.send(&Request::run(1, &program)).unwrap();
        client.send(&Request::run(2, &program)).unwrap();
        client.send(&Request::new(Op::Ping, 3)).unwrap();
        let mut expired = Request::run(4, &program);
        expired.deadline_ms = Some(0);
        client.send(&expired).unwrap();
        let mut faulty = Request::run(5, &program);
        faulty.fault = Fault::PanicAt(3);
        client.send(&faulty).unwrap();
        client.send(&Request::new(Op::Stats, 6)).unwrap();
        client.send(&Request::new(Op::Shutdown, 7)).unwrap();

        let mut responses: Vec<Response> = Vec::new();
        while let Some(resp) = client.recv().unwrap() {
            responses.push(resp);
        }
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![1, 2, 3, 4, 5, 6, 7],
            "every request must be answered"
        );

        let by_id = |id: u64| responses.iter().find(|r| r.id == id).unwrap();
        assert_eq!(
            by_id(1).status,
            Some(Status::Ok),
            "id 1: {:?}",
            by_id(1).error
        );
        assert_eq!(by_id(2).status, Some(Status::Ok));
        assert_eq!(by_id(2).result, by_id(1).result);
        assert_eq!(by_id(3).status, Some(Status::Ok));
        assert_eq!(by_id(4).status, Some(Status::Deadline));
        assert_eq!(by_id(5).status, Some(Status::Panic));
        assert_eq!(by_id(6).status, Some(Status::Ok));
        // Stats report the dispatch engine jobs resolve to, plus the calibration
        // summary behind the choice (per-tier ALU dispatch costs).
        let stats = by_id(6);
        let extra = |k: &str| {
            stats
                .extra
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        let tier = extra("dispatch_tier").expect("stats report a dispatch tier");
        assert!(
            ["switch", "threaded", "jit"].contains(&tier),
            "resolved tier, never auto: {tier}"
        );
        for key in [
            "jit_supported",
            "calibration_alu_switch_ns",
            "calibration_alu_threaded_ns",
            "calibration_alu_jit_ns",
            "calibration_ns_per_cycle",
        ] {
            assert!(extra(key).is_some(), "stats missing {key}");
        }
        assert_eq!(by_id(7).status, Some(Status::Ok));
    });

    // At least one of the two identical runs hit the cache.
    assert!(server.cache_stats().hits >= 1);
}

#[test]
fn unix_socket_transport_serves_and_shuts_down() {
    let server = test_server(4);
    let dir = std::env::temp_dir().join(format!("helix-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("helix.sock");
    let _ = std::fs::remove_file(&socket);

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_unix(&socket).unwrap());

        // Wait for the socket to appear.
        let mut client = loop {
            match Client::connect_unix(&socket) {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        let resp = client.request(&Request::run(1, &doall(555))).unwrap();
        assert_eq!(
            resp.status,
            Some(Status::Ok),
            "socket run: {:?}",
            resp.error
        );
        let resp = client.request(&Request::run(2, &doall(555))).unwrap();
        assert_eq!(resp.cache, CacheOutcome::Hit);
        let resp = client.request(&Request::new(Op::Shutdown, 3)).unwrap();
        assert_eq!(resp.status, Some(Status::Ok));
        handle.join().unwrap();
    });
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn socket_shutdown_ends_the_daemon_despite_an_idle_client_and_an_unlinked_path() {
    // One client stays connected and silent; the socket's path is gone before the
    // shutdown frame arrives. Neither may keep `serve_unix` from returning.
    let server = std::sync::Arc::new(test_server(4));
    let dir = std::env::temp_dir().join(format!("helix-serve-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("helix.sock");
    let _ = std::fs::remove_file(&socket);
    let (done_tx, done) = std::sync::mpsc::channel();
    // Not scoped: a daemon that never returns must fail this test, not hang it.
    let daemon = {
        let (server, socket) = (std::sync::Arc::clone(&server), socket.clone());
        std::thread::spawn(move || {
            let served = server.serve_unix(&socket);
            let _ = done_tx.send(());
            served
        })
    };
    let connect = || loop {
        match Client::connect_unix(&socket) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    let mut idle = connect();
    let resp = idle.request(&Request::new(Op::Ping, 1)).unwrap();
    assert_eq!(
        resp.status,
        Some(Status::Ok),
        "the idle client is being served"
    );
    let mut closer = connect();
    std::fs::remove_file(&socket).unwrap();
    let resp = closer.request(&Request::new(Op::Shutdown, 2)).unwrap();
    assert_eq!(resp.status, Some(Status::Ok));
    let ended = done.recv_timeout(std::time::Duration::from_secs(1));
    drop(idle);
    let _ = std::fs::remove_dir(&dir);
    assert!(
        ended.is_ok(),
        "serve_unix still runs 1 s after the shutdown was acknowledged"
    );
    daemon.join().unwrap().unwrap();
}

#[test]
fn memory_digest_does_not_depend_on_the_worker_count() {
    // Every worker count runs on shared memory and captures it with the same snapshot, so
    // the captured memory — and the reply's `memory_hash` — must be the same at 1 and 2
    // workers, including for a raw store past the heap before the loop. The `hardware`
    // override keeps two real workers on a 1-thread host.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let far_store = doall(2654435761).replace(
        "bb0: (entry)\n",
        "bb0: (entry)\n  %v7 = const 50000\n  store [%v7 + 0], 7\n",
    );
    let mut sources = vec![
        ("accumulator".to_string(), doall(2654435761)),
        ("far_store".to_string(), far_store),
    ];
    for name in ["pointer_chase", "scratch_fold"] {
        let text = std::fs::read_to_string(corpus.join(format!("{name}.hir"))).unwrap();
        sources.push((name.to_string(), text));
    }
    for (name, text) in sources {
        let module = helix_frontend::parse_and_verify(&text).unwrap();
        let main = module.function_by_name("main").unwrap();
        let prepared = helix_core::Helix::new(helix_core::HelixConfig::default())
            .prepare(&module, main, &[], 100_000_000)
            .unwrap();
        let pimg = ParallelImage::lower(&prepared.transformed.expect("a parallel plan"));
        let capture = |threads: usize| {
            let mut executor = ParallelExecutor::new(threads).with_capture_memory(true);
            executor.hardware = threads;
            let out = executor.run_parallel_out(&pimg, &[]);
            out.result.unwrap();
            out.memory.expect("captured")
        };
        let (one, two) = (capture(1), capture(2));
        // `assert!`, not `assert_eq!`: a mismatch would print every captured word.
        assert!(one == two, "{name}: 1- and 2-worker memories differ");
        assert_eq!(
            memory_digest(&one),
            memory_digest(&two),
            "{name}: 1- and 2-worker digests differ"
        );
    }
}
