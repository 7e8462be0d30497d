//! Scenario-service acceptance suite: the HTTP API contract, bounded-
//! queue backpressure, per-job supervision (a poisoned job must never
//! take the server down), and graceful shutdown that drains accepted
//! work while still answering health and status queries.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use izhi_bench::json::Json;
use izhi_bench::serve::{
    burst_bodies, failure_isolated, generate_load, http_request, tiny_job_body, ServeConfig,
    Server, ServerHandle, MAX_CONNECTIONS,
};
use izhi_bench::supervise::SuperviseConfig;

fn start(queue_cap: usize, workers: usize) -> ServerHandle {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_cap,
        workers,
        supervise: SuperviseConfig {
            wall_limit: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    })
    .expect("server starts on an ephemeral port")
}

/// Field `key` of a JSON response body, which must parse.
fn field(body: &str, key: &str) -> Json {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("response is not JSON ({e}): {body}"));
    doc.get(key).cloned().unwrap_or(Json::Null)
}

/// String field `key` of a JSON response body.
fn text(body: &str, key: &str) -> Option<String> {
    field(body, key).as_str().map(str::to_string)
}

/// The job id of a `202` body.
fn job_id(body: &str) -> u64 {
    field(body, "id").as_u64().expect("id in the 202")
}

/// Poll one job until it leaves the queue/running states.
fn wait_for_job(addr: &str, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) =
            http_request(addr, "GET", &format!("/jobs/{id}"), None).expect("status query");
        assert_eq!(status, 200, "job {id}: {body}");
        match text(&body, "status").as_deref() {
            Some("done") | Some("failed") => return body,
            _ if Instant::now() > deadline => panic!("job {id} never finished: {body}"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[test]
fn health_and_submit_and_result_round_trip() {
    let handle = start(8, 2);
    let addr = handle.addr().to_string();

    let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200, "{body}");
    assert_eq!(text(&body, "status").as_deref(), Some("ok"));

    let (status, body) =
        http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(5))).expect("submit");
    assert_eq!(status, 202, "{body}");
    let id = job_id(&body);

    let body = wait_for_job(&addr, id);
    assert_eq!(text(&body, "status").as_deref(), Some("done"), "{body}");
    assert!(field(&body, "spikes").as_u64().unwrap_or(0) > 0, "{body}");
    assert!(text(&body, "raster_hash").is_some(), "{body}");
    // The build before the run is reported beside the run's own time.
    for key in ["wall_s", "build_s"] {
        let secs = field(&body, key).as_f64().unwrap_or(f64::NAN);
        assert!(secs.is_finite() && secs >= 0.0, "{key}: {body}");
    }

    handle.shutdown_and_join();
}

#[test]
fn bad_requests_are_rejected_not_crashed() {
    let handle = start(8, 1);
    let addr = handle.addr().to_string();

    for (body, what) in [
        ("not json", "garbage body"),
        ("{\"scenario\": \"does-not-exist\"}", "unknown scenario"),
        ("{\"seed\": 1}", "missing scenario"),
        (
            "{\"scenario\": \"net8020\", \"sched\": \"warp-speed\"}",
            "unknown sched",
        ),
    ] {
        let (status, resp) = http_request(&addr, "POST", "/jobs", Some(body)).expect(what);
        assert_eq!(status, 400, "{what}: {resp}");
    }
    let (status, _) = http_request(&addr, "GET", "/jobs/999", None).expect("unknown id");
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "GET", "/nope", None).expect("unknown path");
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "DELETE", "/health", None).expect("bad method");
    assert_eq!(status, 405);

    // The server still works after all of that.
    let (status, _) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200);
    handle.shutdown_and_join();
}

#[test]
fn hostile_bodies_get_a_json_400_and_the_server_keeps_answering() {
    let handle = start(8, 1);
    let addr = handle.addr().to_string();
    let deep = "[".repeat(1 << 20); // 1 MiB, the largest body accepted
    for body in [
        "{\"scenario\": \"a\\\"b\"}",
        "{\"scenario\": \"back\\\\slash\\\\\"}",
        "{\"scenario\": \"ctl\\u0001\\n\\t\\u001f\"}",
        "{\"scenario\": \"raw\u{1}control\"}",
        "{\"sched\": \"\\\"}\", \"scenario\": \"net8020\"}",
        "{\"scenario\": \"net8020\"} trailing garbage",
        "{\"scenario\": \"\\ud800\"}",
        deep.as_str(),
    ] {
        let (status, resp) = http_request(&addr, "POST", "/jobs", Some(body)).expect("submit");
        let shown: String = body.chars().take(60).collect();
        assert_eq!(status, 400, "{shown}: {resp}");
        let doc = Json::parse(&resp)
            .unwrap_or_else(|e| panic!("{shown}: 400 body is not JSON ({e}): {resp}"));
        assert!(doc.get("error").and_then(Json::as_str).is_some(), "{resp}");
    }
    let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200, "{body}");
    assert_eq!(text(&body, "status").as_deref(), Some("ok"));
    handle.shutdown_and_join();
}

#[test]
fn a_burst_beyond_capacity_is_backpressured_and_accepted_jobs_complete() {
    // 50 jobs into a queue of 4 with 2 workers: rejections are certain,
    // and every accepted job must still complete while health stays up.
    let handle = start(4, 2);
    let addr = handle.addr().to_string();
    // Two poisoned jobs ride along: a host panic and a guest trap.
    let bodies = burst_bodies(50, true);

    let report = generate_load(&addr, &bodies, Duration::from_secs(120)).expect("burst");
    assert_eq!(report.submitted, 50);
    assert!(report.rejected > 0, "burst past capacity must see 429s");
    assert!(report.backpressure_hinted, "429s carry retry_after_ms");
    assert_eq!(
        report.completed + report.failed,
        report.accepted,
        "every accepted job finished"
    );
    assert_eq!(
        report.health_ok, report.health_checks,
        "health stayed answered throughout"
    );
    assert_eq!(
        report.failed, 2,
        "only the two poisoned jobs may fail: {report:?}"
    );
    assert!(
        failure_isolated(&report),
        "poisoned jobs must fail structurally without downing the server: {report:?}"
    );
    handle.shutdown_and_join();
}

#[test]
fn a_panicking_job_reports_its_kind_and_spares_its_neighbours() {
    let handle = start(8, 1); // single worker: the panic and the clean job share it
    let addr = handle.addr().to_string();

    let poison = "{\"scenario\": \"net8020\", \"seed\": 5, \"ticks\": 10, \"n\": 60, \
                  \"fault\": \"panic\", \"fault_at\": 1000}";
    let (status, body) = http_request(&addr, "POST", "/jobs", Some(poison)).expect("submit");
    assert_eq!(status, 202, "{body}");
    let poison_id = job_id(&body);
    let (status, body) =
        http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(7))).expect("submit");
    assert_eq!(status, 202, "{body}");
    let clean_id = job_id(&body);

    let body = wait_for_job(&addr, poison_id);
    assert_eq!(text(&body, "status").as_deref(), Some("failed"), "{body}");
    assert_eq!(
        text(&body, "error_kind").as_deref(),
        Some("panic"),
        "{body}"
    );
    let body = wait_for_job(&addr, clean_id);
    assert_eq!(
        text(&body, "status").as_deref(),
        Some("done"),
        "the worker survived the panic: {body}"
    );
    handle.shutdown_and_join();
}

#[test]
fn shutdown_drains_accepted_jobs_and_refuses_new_ones() {
    let handle = start(16, 2);
    let addr = handle.addr().to_string();
    let ids: Vec<u64> = (0..6u32)
        .map(|seed| {
            let (status, body) =
                http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(seed))).expect("submit");
            assert_eq!(status, 202, "{body}");
            job_id(&body)
        })
        .collect();

    let (status, body) = http_request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(status, 202, "{body}");

    // While draining: no new admissions, but health and status answer.
    let (status, _) =
        http_request(&addr, "POST", "/jobs", Some(&tiny_job_body(99))).expect("late submit");
    assert_eq!(status, 503, "admissions closed during the drain");
    let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
    assert_eq!(status, 200);
    assert_eq!(field(&body, "draining"), Json::Bool(true), "{body}");

    // Every job accepted before the shutdown still completes.
    for id in ids {
        let body = wait_for_job(&addr, id);
        assert_eq!(
            text(&body, "status").as_deref(),
            Some("done"),
            "accepted job {id} drained: {body}"
        );
    }
    handle.join();
}

#[test]
fn idle_connections_do_not_block_health() {
    // Clients that connect and send nothing hold their own handler
    // threads until the request deadline; every other client is served
    // at once instead of queueing behind them.
    let handle = start(8, 1);
    let addr = handle.addr().to_string();
    let idle: Vec<TcpStream> = (0..5)
        .map(|_| TcpStream::connect(&addr).expect("idle connect"))
        .collect();
    let start = Instant::now();
    let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
    let took = start.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        took < Duration::from_secs(1),
        "/health took {took:?} behind {} idle connections",
        idle.len()
    );
    drop(idle);
    handle.shutdown_and_join();
}

#[test]
fn connections_beyond_the_cap_get_503_until_one_frees() {
    let handle = start(8, 1);
    let addr = handle.addr().to_string();
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("idle connect"))
        .collect();
    let (status, body) = http_request(&addr, "GET", "/health", None).expect("over the cap");
    assert_eq!(status, 503, "{body}");
    // Closing the idle clients frees their handlers.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_request(&addr, "GET", "/health", None).expect("health");
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "handlers never freed: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown_and_join();
}
