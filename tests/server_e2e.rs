//! End-to-end tests driving `gleipnir-server` over a real loopback socket.
//!
//! These pin the service contract the README advertises:
//!
//! * two identical `POST /analyze` requests in one process — the second is
//!   answered entirely from the shared certificate cache (0 SDP solves);
//! * a **restart** against the same `--cache-dir` answers with 0 new SDP
//!   solves and a bit-identical ε (the persistent store works end to end);
//! * a full accept queue sheds load with `429` — never a hang, never a
//!   panic;
//! * the error surface: 400 / 404 / 405 / 422 all materialize as JSON.

use gleipnir::core::jsonfmt::json_str;
use gleipnir::server::{json, spawn, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

const GHZ_SRC: &str = "qubits 2;\nh q0;\ncnot q0, q1;\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gleipnir-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One raw HTTP exchange: connect, send, read to EOF, return
/// (status, body). Callers ask for `Connection: close` — keep-alive is
/// the server default now, and EOF would otherwise wait out the idle
/// timeout.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn analyze_body() -> String {
    format!(
        "{{\"source\":{},\"name\":\"ghz2\",\"width\":8,\"noise\":\"bitflip:1e-4\"}}",
        json_str(GHZ_SRC)
    )
}

/// Pulls `report.<field>` out of a 200 /analyze response.
fn report_field(body: &str, field: &str) -> json::Json {
    let v = json::parse(body).expect("response is JSON");
    assert_eq!(v.get("ok").and_then(json::Json::as_bool), Some(true));
    v.get("report")
        .and_then(|r| r.get(field))
        .unwrap_or_else(|| panic!("report field `{field}` in {body}"))
        .clone()
}

#[test]
fn analyze_twice_then_warm_restart_from_cache_dir() {
    let dir = tmpdir("warm-restart");
    let config = |addr: String| ServerConfig {
        addr,
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(dir.clone()),
        threads: 2,
        ..ServerConfig::default()
    };

    // --- process 1: cold, then warm in-process -------------------------
    let server = spawn(config("127.0.0.1:0".into())).expect("spawn server");
    let addr = server.addr();

    let (status, body) = post(addr, "/analyze", &analyze_body());
    assert_eq!(status, 200, "{body}");
    let eps_cold = report_field(&body, "error_bound").as_f64().unwrap();
    assert!(eps_cold.is_finite() && eps_cold > 0.0);
    let solves_cold = report_field(&body, "sdp_solves").as_usize().unwrap();
    assert!(solves_cold >= 1, "cold request must pay for its SDPs");

    let (status, body) = post(addr, "/analyze", &analyze_body());
    assert_eq!(status, 200, "{body}");
    let eps_warm = report_field(&body, "error_bound").as_f64().unwrap();
    let solves_warm = report_field(&body, "sdp_solves").as_usize().unwrap();
    let hits_warm = report_field(&body, "cache_hits").as_usize().unwrap();
    assert_eq!(solves_warm, 0, "second request must be served from cache");
    assert!(hits_warm >= 1, "≥ 1 judgment answered by the cache");
    assert_eq!(eps_warm.to_bits(), eps_cold.to_bits(), "ε must not drift");

    // /metrics reflects the hit.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let m = json::parse(&metrics).unwrap();
    let cache = m.get("cache").expect("cache section");
    assert!(cache.get("hits").unwrap().as_usize().unwrap() >= 1);
    assert!(cache.get("entries").unwrap().as_usize().unwrap() >= 1);

    server.join(); // drains + persists the store

    // --- process 2 (same cache dir): warm from disk --------------------
    let server = spawn(config("127.0.0.1:0".into())).expect("respawn server");
    let addr = server.addr();
    let (status, body) = post(addr, "/analyze", &analyze_body());
    assert_eq!(status, 200, "{body}");
    let eps_restart = report_field(&body, "error_bound").as_f64().unwrap();
    let solves_restart = report_field(&body, "sdp_solves").as_usize().unwrap();
    assert_eq!(
        solves_restart, 0,
        "a restart against the same --cache-dir must answer with 0 new SDP solves"
    );
    assert_eq!(
        eps_restart.to_bits(),
        eps_cold.to_bits(),
        "restart ε must be bit-identical"
    );
    let (_, metrics) = get(addr, "/metrics");
    let m = json::parse(&metrics).unwrap();
    let store = m.get("store").expect("store section");
    assert_eq!(store.get("enabled").unwrap().as_bool(), Some(true));
    assert!(
        store.get("loaded").unwrap().as_usize().unwrap() >= 1,
        "store must have re-verified and loaded certificates: {metrics}"
    );
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_with_429_not_a_hang() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    // Pin the single worker: a connection that never completes its request
    // (the worker blocks reading it until the read timeout).
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.write_all(b"POST /analyze HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // Fill the one queue slot the same way.
    let mut filler = TcpStream::connect(addr).unwrap();
    filler.write_all(b"POST /analyze HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // Queue full + worker busy ⇒ this one must be shed, promptly.
    let start = std::time::Instant::now();
    let (status, body) = post(addr, "/healthz", "");
    assert_eq!(status, 429, "expected load shedding, got {status}: {body}");
    assert!(body.contains("overloaded"), "{body}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "shedding must be immediate, not queued behind the stall"
    );
    let v = json::parse(&body).expect("429 body is JSON");
    assert_eq!(v.get("ok").and_then(json::Json::as_bool), Some(false));

    // Release the pinned connections; the server then shuts down cleanly
    // (this would hang if shedding had wedged the acceptor).
    drop(pin);
    drop(filler);
    server.join();
}

/// Reads exactly one HTTP response (headers + `Content-Length` body) off
/// a persistent connection, leaving the stream usable for the next one.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..header_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric Content-Length"))
        })
        .expect("Content-Length header");
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(body.len(), content_length, "no bytes beyond the response");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    const N: usize = 8;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for i in 0..N {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("send request");
        let (status, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "request {i}: {body}");
        assert!(body.contains("\"ok\":true"), "request {i}: {body}");
    }

    // The same connection also answers /metrics: the server must have
    // accepted strictly fewer connections than it served requests —
    // that *is* keep-alive, pinned by the server's own counters.
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("send metrics request");
    let (status, metrics) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    let m = json::parse(&metrics).unwrap();
    let requests = m.get("requests").expect("requests section");
    let connections = requests
        .get("connections_total")
        .unwrap()
        .as_usize()
        .unwrap();
    let served = requests.get("requests_total").unwrap().as_usize().unwrap();
    assert!(served >= N + 1, "all {} requests counted: {metrics}", N + 1);
    assert_eq!(connections, 1, "one accept for the whole burst: {metrics}");
    assert!(
        connections < served,
        "keep-alive must reuse the connection: {metrics}"
    );

    drop(stream);
    server.join();
}

/// A 30 000-gate straight-line program (~180 KB, far under the body cap)
/// is answered with a 200, and the daemon keeps serving afterwards.
#[test]
fn long_program_is_answered_and_daemon_survives() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    let source = format!("qubits 1;\n{}", "h q0;\n".repeat(30_000));
    let body = format!(
        "{{\"source\":{},\"name\":\"h30k\",\"width\":2}}",
        json_str(&source)
    );
    let (status, body) = post(addr, "/analyze", &body);
    assert_eq!(status, 200, "{body}");
    let eps = report_field(&body, "error_bound").as_f64().unwrap();
    assert!(eps.is_finite() && eps > 0.0);

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    server.join();
}

/// `POST /diff` end to end: the diff reuses the unchanged prefix, its
/// bound is bit-identical to a plain `/analyze` of the new program, and
/// the metrics `diff` section records the reuse.
#[test]
fn diff_endpoint_reuses_prefix_and_matches_analyze() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    let new_src = "qubits 2;\nh q0;\ncnot q0, q1;\nx q1;\n";
    // Reference: the edited program analyzed on its own.
    let analyze = format!(
        "{{\"source\":{},\"width\":8,\"noise\":\"bitflip:1e-4\"}}",
        json_str(new_src)
    );
    let (status, body) = post(addr, "/analyze", &analyze);
    assert_eq!(status, 200, "{body}");
    let eps_full = report_field(&body, "error_bound").as_f64().unwrap();

    let diff = format!(
        "{{\"old_source\":{},\"new_source\":{},\"name\":\"ghz-edit\",\"width\":8,\"noise\":\"bitflip:1e-4\"}}",
        json_str(GHZ_SRC),
        json_str(new_src)
    );
    let (status, body) = post(addr, "/diff", &diff);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).expect("diff response is JSON");
    assert_eq!(v.get("ok").and_then(json::Json::as_bool), Some(true));
    let d = v.get("diff").expect("diff section");
    let reused = d.get("prefix_gates_reused").unwrap().as_usize().unwrap();
    assert!(reused > 0, "unchanged prefix must be reused: {body}");
    let eps_diff = d.get("error_bound").unwrap().as_f64().unwrap();
    assert_eq!(
        eps_diff.to_bits(),
        eps_full.to_bits(),
        "diff bound must be bit-identical to /analyze of the new program"
    );

    // Bad bodies surface as JSON errors on the same endpoint.
    let (status, body) = post(addr, "/diff", "{}");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("old_source"), "{body}");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let m = json::parse(&metrics).unwrap();
    let dm = m.get("diff").expect("diff metrics section");
    assert_eq!(dm.get("requests_total").unwrap().as_usize(), Some(2));
    assert_eq!(dm.get("errors").unwrap().as_usize(), Some(1));
    assert!(
        dm.get("prefix_gates_reused").unwrap().as_usize().unwrap() >= reused,
        "{metrics}"
    );

    server.join();
}

#[test]
fn error_surface_is_json_all_the_way_down() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(
        json::parse(&body).unwrap().get("status").unwrap().as_str(),
        Some("ok")
    );

    let (status, _) = get(addr, "/no-such-endpoint");
    assert_eq!(status, 404);

    let (status, _) = exchange(
        addr,
        "PUT /analyze HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 405);

    let (status, body) = post(addr, "/analyze", "{not json");
    assert_eq!(status, 400);
    assert!(
        json::parse(&body).is_ok(),
        "error body must be JSON: {body}"
    );

    let (status, body) = post(addr, "/analyze", "{\"source\":\"this is not glq\"}");
    assert_eq!(status, 422);
    assert!(body.contains("parse"), "{body}");

    // A batch where one entry is broken: the batch still succeeds, the
    // entry carries its own error.
    let batch = format!(
        "{{\"programs\":[{{\"source\":{},\"width\":4}},{{\"source\":\"bogus\"}}]}}",
        json_str(GHZ_SRC)
    );
    let (status, body) = post(addr, "/batch", &batch);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let results = v.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(false));

    server.join();
}

/// `POST /analyze` with `"anytime": true` end to end: a `202` with a
/// token and a certified first bound, a long poll that serves the exact
/// report, bit-identity with a plain `/analyze`, and the new Prometheus
/// series (`queue_depth{class=…}`, `refinements_total`).
#[test]
fn anytime_analyze_end_to_end() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    let body = format!(
        "{{\"source\":{},\"name\":\"ghz2\",\"width\":8,\"noise\":\"bitflip:1e-4\",\"anytime\":true}}",
        json_str(GHZ_SRC)
    );
    let (status, resp) = post(addr, "/analyze", &body);
    assert_eq!(status, 202, "{resp}");
    let v = json::parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(json::Json::as_bool), Some(true));
    assert_eq!(v.get("anytime").and_then(json::Json::as_bool), Some(true));
    let first = v
        .get("first")
        .and_then(|f| f.get("error_bound"))
        .and_then(json::Json::as_f64)
        .expect("first.error_bound");
    let token = v
        .get("token")
        .and_then(json::Json::as_str)
        .expect("token")
        .to_string();

    // Long poll to completion: the refined report arrives as the same
    // envelope a plain /analyze would have produced.
    let (status, resp) = get(addr, &format!("/refine/{token}?wait_ms=30000"));
    assert_eq!(status, 200, "{resp}");
    let refined = json::parse(&resp)
        .unwrap()
        .get("report")
        .and_then(|r| r.get("error_bound"))
        .and_then(json::Json::as_f64)
        .expect("refined error_bound");
    assert!(
        first >= refined,
        "first bound {first:.6e} must dominate the refined ε {refined:.6e}"
    );

    // A plain /analyze of the same spec is bit-identical (served from the
    // certificates the refinement just paid for).
    let plain = format!(
        "{{\"source\":{},\"name\":\"ghz2\",\"width\":8,\"noise\":\"bitflip:1e-4\"}}",
        json_str(GHZ_SRC)
    );
    let (status, resp) = post(addr, "/analyze", &plain);
    assert_eq!(status, 200, "{resp}");
    let exact = report_field(&resp, "error_bound").as_f64().unwrap();
    assert_eq!(
        refined.to_bits(),
        exact.to_bits(),
        "refined ε must be bit-identical to /analyze"
    );

    // A non-state-aware request cannot produce a certified first answer:
    // the error surfaces as a 422, not a bogus token.
    let worst = format!(
        "{{\"source\":{},\"method\":\"worst\",\"anytime\":true}}",
        json_str(GHZ_SRC)
    );
    let (status, resp) = post(addr, "/analyze", &worst);
    assert_eq!(status, 422, "{resp}");
    assert!(resp.contains("state-aware"), "{resp}");

    // Both metrics formats carry the anytime series.
    let (_, js) = get(addr, "/metrics");
    let m = json::parse(&js).unwrap();
    let refines = m.get("refinements").expect("refinements section");
    assert_eq!(refines.get("started").unwrap().as_usize(), Some(1), "{js}");
    assert_eq!(
        refines.get("completed").unwrap().as_usize(),
        Some(1),
        "{js}"
    );
    assert_eq!(refines.get("accepted").unwrap().as_usize(), Some(1), "{js}");
    let (_, prom) = get(addr, "/metrics?format=prometheus");
    assert!(
        prom.contains("gleipnir_refinements_total{event=\"completed\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("gleipnir_queue_depth{class=\"interactive\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("gleipnir_queue_depth{class=\"refinement\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("gleipnir_refine_duration_seconds_count 1"),
        "{prom}"
    );
    server.join();
}

/// Starvation regression: a tenant saturating the batch class must not
/// starve an interactive caller. With one worker, two slow `/batch` jobs
/// and a late-arriving interactive `/analyze`, the interactive request is
/// popped ahead of whichever batch job is still queued (priority
/// classes), so its queue-wait span — read back from the trace store —
/// is strictly smaller than that batch job's. Under FIFO the
/// last-enqueued interactive request would wait out *both* batch jobs
/// and the assertion would fail.
#[test]
fn interactive_request_overtakes_saturating_batch_tenant() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    // A slow-enough workload that both queued requests are enqueued long
    // before the in-flight one finishes (hundreds of ms vs. sub-ms
    // loopback writes) — ordering is decided by the priority queue, not
    // by timing.
    let slow_src =
        gleipnir::circuit::pretty(&gleipnir::workloads::ising_chain(6, 4, 1.0, 1.0, 0.1));
    let batch_body = format!(
        "{{\"programs\":[{{\"source\":{},\"width\":8,\"noise\":\"bitflip:1e-3\"}}]}}",
        json_str(&slow_src)
    );
    let frame = |path: &str, tenant: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nX-Tenant: {tenant}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let send = |raw: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.write_all(raw.as_bytes()).expect("send");
        stream
    };
    // b1 goes in flight; b2 queues behind it (batch class); the
    // interactive request arrives LAST but is popped first.
    let mut b1 = send(&frame("/batch", "bulk", &batch_body));
    let mut b2 = send(&frame("/batch", "bulk", &batch_body));
    let mut live = send(&frame("/analyze", "live", &analyze_body()));

    let read_head = |stream: &mut TcpStream| -> (u16, String) {
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        let head = response
            .split_once("\r\n\r\n")
            .map(|(h, _)| h.to_string())
            .unwrap();
        (status, head)
    };
    let trace_of = |head: &str| -> String {
        head.lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("x-trace-id")
                    .then(|| value.trim().to_string())
            })
            .expect("X-Trace-Id header")
    };
    let (status, live_head) = read_head(&mut live);
    assert_eq!(status, 200);
    let (status, b1_head) = read_head(&mut b1);
    assert_eq!(status, 200);
    let (status, b2_head) = read_head(&mut b2);
    assert_eq!(status, 200);

    // The queue-wait spans decide it: the interactive request waited
    // less than the *queued* batch job — the one with the larger wait.
    // (The reactor may parse the three connections in any order, so
    // either batch job can be the one that grabbed the idle worker; the
    // other one is enqueued before the interactive request arrives and
    // must still be overtaken by it.)
    let queue_wait_ms = |trace_id: &str| -> f64 {
        let (status, body) = get(addr, &format!("/trace/{trace_id}"));
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let root = &v.get("spans").unwrap().as_array().unwrap()[0];
        find_child(root, "queue_wait")
            .unwrap_or_else(|| panic!("queue_wait span in {body}"))
            .get("wall_ms")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    let live_wait = queue_wait_ms(&trace_of(&live_head));
    let bulk_wait = queue_wait_ms(&trace_of(&b1_head)).max(queue_wait_ms(&trace_of(&b2_head)));
    assert!(
        live_wait < bulk_wait,
        "interactive queue wait ({live_wait:.1} ms) must undercut the \
         queued batch job's ({bulk_wait:.1} ms)"
    );
    server.join();
}

/// Per-tenant quota: with `tenant_quota: 1`, a tenant's second
/// concurrently admitted interactive request is rejected `429` with
/// `Retry-After`, while another tenant is still admitted — and the
/// rejected connection stays usable (keep-alive preserved).
#[test]
fn tenant_over_quota_gets_429_with_retry_after() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        threads: 1,
        tenant_quota: 1,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    // alice's first request is slow (seconds of cold SDP solves), so her
    // admission permit is provably held while the probe below runs (a
    // sub-millisecond inline rejection). The second worker keeps
    // `/metrics` answerable while she solves.
    let slow_src =
        gleipnir::circuit::pretty(&gleipnir::workloads::ising_chain(6, 4, 1.0, 1.0, 0.1));
    let held_body = format!(
        "{{\"source\":{},\"width\":8,\"noise\":\"bitflip:1e-3\"}}",
        json_str(&slow_src)
    );
    let mut held = TcpStream::connect(addr).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    held.write_all(
        format!(
            "POST /analyze HTTP/1.1\r\nHost: t\r\nX-Tenant: alice\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{held_body}",
            held_body.len()
        )
        .as_bytes(),
    )
    .unwrap();

    // The reactor gives no cross-connection ordering, so wait for
    // positive proof that alice's request is ADMITTED (permit taken)
    // before probing: `requests_total` ticks at admission time, and the
    // only traffic is this test's — after the k-th serial `/metrics`
    // poll the counter reads k (its own admissions) plus one once the
    // slow request is in. Not a sleep: the loop exits the moment the
    // reactor has parsed the already-delivered bytes.
    let mut polls = 0usize;
    loop {
        polls += 1;
        assert!(polls <= 50, "slow request never admitted");
        let (status, js) = get(addr, "/metrics");
        assert_eq!(status, 200, "{js}");
        let total = json::parse(&js)
            .unwrap()
            .get("requests")
            .and_then(|r| r.get("requests_total"))
            .and_then(json::Json::as_usize)
            .expect("requests_total");
        if total >= polls + 1 {
            break;
        }
    }

    // A second alice request while she holds her one interactive slot:
    // rejected inline by the reactor, before any queue or worker.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    over.write_all(
        format!(
            "POST /analyze HTTP/1.1\r\nHost: t\r\nX-Tenant: alice\r\nContent-Length: {}\r\n\r\n{}",
            analyze_body().len(),
            analyze_body()
        )
        .as_bytes(),
    )
    .unwrap();
    let (status, head, body) = read_one_with_head(&mut over);
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("Retry-After"), "{head}");
    assert!(body.contains("quota"), "{body}");
    assert!(
        !head.contains("Connection: close"),
        "a quota 429 must keep the connection alive: {head}"
    );

    // Same connection, different tenant: admitted and served — the
    // rejection was per-tenant, and the connection survived the 429.
    over.write_all(
        format!(
            "POST /analyze HTTP/1.1\r\nHost: t\r\nX-Tenant: bob\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            analyze_body().len(),
            analyze_body()
        )
        .as_bytes(),
    )
    .unwrap();
    let (status, _, body) = read_one_with_head(&mut over);
    assert_eq!(status, 200, "bob must be admitted: {body}");

    // alice's held request completes normally once the worker reaches it.
    let mut rest = String::new();
    held.read_to_string(&mut rest).unwrap();
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");

    // The rejection is visible in the scheduler metrics.
    let (_, js) = get(addr, "/metrics");
    let m = json::parse(&js).unwrap();
    let sched = m.get("scheduler").expect("scheduler section");
    assert_eq!(sched.get("tenant_quota").unwrap().as_usize(), Some(1));
    assert_eq!(
        sched.get("quota_rejections").unwrap().as_usize(),
        Some(1),
        "{js}"
    );
    server.join();
}

/// Reads one response (head + `Content-Length` body) and returns the
/// status, head, and body, leaving the stream usable.
fn read_one_with_head(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..header_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric Content-Length"))
        })
        .expect("Content-Length header");
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, head, String::from_utf8(body).expect("UTF-8 body"))
}

/// One raw exchange that also returns the response head, for tests that
/// inspect headers (`X-Trace-Id`).
fn exchange_with_head(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .expect("complete response");
    (status, head, body)
}

/// Sums `wall_ms` over one level of a span-node array.
fn child_walls_ms(children: &[json::Json]) -> f64 {
    children
        .iter()
        .map(|c| c.get("wall_ms").unwrap().as_f64().unwrap())
        .sum()
}

fn find_child<'a>(node: &'a json::Json, name: &str) -> Option<&'a json::Json> {
    node.get("children")
        .and_then(json::Json::as_array)
        .and_then(|cs| {
            cs.iter()
                .find(|c| c.get("name").and_then(json::Json::as_str) == Some(name))
        })
}

/// End-to-end observability contract: a cold Ising-288 `/analyze` yields a
/// retrievable trace whose span tree nests reactor (`http_parse`,
/// `queue_wait`) → stage (`plan`/`solve`/`assemble`) → per-obligation →
/// solver-phase spans, and whose top-level child walls account for the
/// request wall (within 10%).
#[test]
fn analyze_trace_covers_the_whole_pipeline() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = server.addr();

    // Ising-288: 12 sites × 12 Trotter layers — enough real SDP solves
    // that every span kind shows up.
    let source =
        gleipnir::circuit::pretty(&gleipnir::workloads::ising_chain(12, 12, 1.0, 1.0, 0.1));
    let body = format!(
        "{{\"source\":{},\"width\":8,\"noise\":\"bitflip:1e-3\"}}",
        json_str(&source)
    );
    let raw = format!(
        "POST /analyze HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, head, resp) = exchange_with_head(addr, &raw);
    assert_eq!(status, 200, "{resp}");
    let trace_id = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-trace-id")
                .then(|| value.trim().to_string())
        })
        .expect("response carries X-Trace-Id");

    let (status, trace_body) = get(addr, &format!("/trace/{trace_id}"));
    assert_eq!(status, 200, "{trace_body}");
    let v = json::parse(&trace_body).expect("trace is JSON");
    assert_eq!(v.get("trace_id").unwrap().as_str(), Some(trace_id.as_str()));
    let roots = v.get("spans").unwrap().as_array().unwrap();
    assert_eq!(roots.len(), 1, "one root request span: {trace_body}");
    let root = &roots[0];
    assert_eq!(root.get("name").unwrap().as_str(), Some("request"));
    assert_eq!(root.get("detail").unwrap().as_str(), Some("analyze"));

    // Reactor-level children tile the request wall: parse + queue wait +
    // handler. (The root wall is the span-tree's own measurement of the
    // request; its children must account for it.)
    let root_wall = root.get("wall_ms").unwrap().as_f64().unwrap();
    let top_children = root.get("children").unwrap().as_array().unwrap();
    let covered = child_walls_ms(top_children);
    assert!(
        (covered - root_wall).abs() <= 0.10 * root_wall,
        "top-level span walls ({covered:.3} ms) must sum to within 10% of \
         the request wall ({root_wall:.3} ms): {trace_body}"
    );
    for name in ["http_parse", "queue_wait", "handler"] {
        assert!(
            find_child(root, name).is_some(),
            "root must have a `{name}` child: {trace_body}"
        );
    }

    // Stage spans under the handler…
    let handler = find_child(root, "handler").unwrap();
    let solve = find_child(handler, "solve").expect("solve stage span");
    for name in ["mps", "plan", "assemble"] {
        assert!(
            find_child(handler, name).is_some(),
            "handler must have a `{name}` child: {trace_body}"
        );
    }

    // …per-obligation spans under solve, solver-phase spans under a real
    // (lead) solve.
    let obligations = solve.get("children").unwrap().as_array().unwrap();
    assert!(
        !obligations.is_empty(),
        "solve must have obligation children: {trace_body}"
    );
    let lead = obligations
        .iter()
        .find(|o| {
            matches!(
                o.get("detail").and_then(json::Json::as_str),
                Some("lead_cold") | Some("lead_warm")
            )
        })
        .expect("a cold analyze has at least one lead solve");
    let phases = lead.get("children").unwrap().as_array().unwrap();
    assert_eq!(
        phases.len(),
        7,
        "a lead solve re-emits the seven solver phases: {trace_body}"
    );
    assert_eq!(phases[0].get("name").unwrap().as_str(), Some("phase_setup"));

    // The store is a bounded ring: unknown ids 404.
    let (status, _) = get(addr, "/trace/ffffffffffffffff");
    assert_eq!(status, 404);

    // The same analysis is visible in both metrics formats: JSON stays
    // the backward-compatible default, `?format=prometheus` switches to
    // the text exposition format.
    let (status, js) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(js.starts_with("{\"uptime_ms\""), "{js}");
    let (status, prom) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    assert!(
        prom.contains("# TYPE gleipnir_request_duration_seconds histogram"),
        "{prom}"
    );
    assert!(
        prom.contains(
            "gleipnir_request_duration_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 1"
        ),
        "exactly one analyze request was served: {prom}"
    );
    assert!(
        prom.contains("gleipnir_ip_solve_duration_seconds_count"),
        "the cold analyze ran real SDP solves: {prom}"
    );

    server.join();
}
