//! End-to-end tests of the `pgvn serve` subsystem: protocol
//! robustness, fault isolation, serve≡batch determinism, and the
//! ≥1000-request soak with stable context-pool capacities.

use pgvn::batch::{run_batch, BatchInput, BatchOptions};
use pgvn::core::FaultKind;
use pgvn::serve::load::{mix_plan, run_load, FaultMix, LoadOptions};
use pgvn::serve::proto::{
    extract_record, parse_request, read_frame, write_frame, FrameEvent, RequestOp,
};
use pgvn::serve::{
    resolve_request_options, serve_duplex, serve_socket, ServeOptions, ServeSummary,
};
use pgvn::telemetry::json::{parse, JsonValue};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// Starts a duplex server on a socketpair and runs `client` against
/// the client end. The closure owns the conversation; the server's
/// summary is returned once the client end closes and the drain
/// completes.
fn with_server<T: Send>(
    opts: &ServeOptions,
    client: impl FnOnce(UnixStream) -> T + Send,
) -> (T, ServeSummary) {
    let (client_sock, server_sock) = UnixStream::pair().expect("socketpair");
    let server_reader = server_sock.try_clone().expect("server clone");
    let mut result = None;
    let mut summary = None;
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_duplex(server_reader, server_sock, opts));
        result = Some(client(client_sock));
        summary = Some(server.join().expect("server thread"));
    });
    (result.unwrap(), summary.unwrap())
}

/// Sends every payload as one frame (concurrent reader draining
/// responses, so large volumes can't deadlock on socket buffers),
/// closes the write half, and returns all responses plus the summary.
fn roundtrip(opts: &ServeOptions, frames: Vec<Vec<u8>>) -> (Vec<String>, ServeSummary) {
    with_server(opts, move |sock| {
        let mut reader = sock.try_clone().expect("client clone");
        std::thread::scope(|s| {
            let read_all = s.spawn(move || {
                let mut out = Vec::new();
                let mut never = || false;
                while let Ok(FrameEvent::Frame(p)) = read_frame(&mut reader, 1 << 24, &mut never) {
                    out.push(String::from_utf8(p).expect("responses are UTF-8"));
                }
                out
            });
            let mut w = sock;
            for f in &frames {
                write_frame(&mut w, f).expect("client write");
            }
            w.shutdown(std::net::Shutdown::Write).expect("half-close");
            read_all.join().expect("reader thread")
        })
    })
}

/// Same, but the bytes go on the wire verbatim (malformed-framing
/// tests build their own prefixes).
fn roundtrip_raw(opts: &ServeOptions, raw: Vec<u8>) -> (Vec<String>, ServeSummary) {
    with_server(opts, move |sock| {
        let mut reader = sock.try_clone().expect("client clone");
        std::thread::scope(|s| {
            let read_all = s.spawn(move || {
                let mut out = Vec::new();
                let mut never = || false;
                while let Ok(FrameEvent::Frame(p)) = read_frame(&mut reader, 1 << 24, &mut never) {
                    out.push(String::from_utf8(p).expect("responses are UTF-8"));
                }
                out
            });
            let mut w = sock;
            w.write_all(&raw).expect("client write");
            w.shutdown(std::net::Shutdown::Write).expect("half-close");
            read_all.join().expect("reader thread")
        })
    })
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// The reply discriminator of a response.
fn reply_of(response: &str) -> String {
    parse(response)
        .expect("response is valid JSON")
        .get("reply")
        .and_then(JsonValue::as_str)
        .expect("response has a reply")
        .to_string()
}

fn gen_request(id: u64, seed: u64) -> Vec<u8> {
    format!(r#"{{"id":{id},"name":"serve_{id}","gen_seed":{seed}}}"#).into_bytes()
}

#[test]
fn ping_gen_and_source_requests_are_answered() {
    let opts = ServeOptions::default();
    let (responses, summary) = roundtrip(
        &opts,
        vec![
            br#"{"id":1,"op":"ping"}"#.to_vec(),
            gen_request(2, 7),
            br#"{"id":3,"routine":"routine f(a, b) { x = a + b; y = b + a; return x - y; }"}"#
                .to_vec(),
            br#"{"id":4,"op":"stats"}"#.to_vec(),
        ],
    );
    assert_eq!(responses.len(), 4, "{responses:?}");
    let mut replies: Vec<String> = responses.iter().map(|r| reply_of(r)).collect();
    replies.sort();
    assert_eq!(replies, ["pong", "record", "record", "stats"]);
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.records, 2);
    assert_eq!(summary.control, 2);
    assert_eq!(summary.responses, 4);
    assert!(summary.is_clean());
}

/// The socket server blocks in `accept` and the drain wakes it with a
/// self-connect. A fresh connection is therefore answered at once — a
/// sleep-polling accept loop makes each one wait out part of its poll
/// interval, ~10 ms on average — and a `shutdown` returns the server
/// promptly.
#[test]
fn socket_server_answers_fresh_connections_at_once_and_drains_promptly() {
    let path = std::env::temp_dir().join(format!("pgvn-serve-accept-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind");
    let opts = ServeOptions { workers: 1, ..ServeOptions::default() };
    let mut never = || false;
    let ping = |never: &mut dyn FnMut() -> bool| -> Option<Duration> {
        let t0 = Instant::now();
        let mut conn = UnixStream::connect(&path).ok()?;
        write_frame(&mut conn, br#"{"id":1,"op":"ping"}"#).ok()?;
        let Ok(FrameEvent::Frame(reply)) = read_frame(&mut conn, 1 << 20, never) else {
            return None;
        };
        (reply_of(&String::from_utf8(reply).ok()?) == "pong").then(|| t0.elapsed())
    };
    // Measure, then always shut the server down before asserting, so a
    // failure cannot leave the scope waiting on a running server.
    let (latencies, summary, drained) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_socket(listener, &opts));
        let latencies: Vec<Option<Duration>> = (0..21).map(|_| ping(&mut never)).collect();
        let mut conn = UnixStream::connect(&path).expect("connect");
        write_frame(&mut conn, br#"{"id":2,"op":"shutdown"}"#).expect("write");
        let t0 = Instant::now();
        let summary = server.join().expect("server thread").expect("serves");
        (latencies, summary, t0.elapsed())
    });
    let _ = std::fs::remove_file(&path);
    let mut latencies: Vec<Duration> =
        latencies.into_iter().map(|l| l.expect("every ping is answered")).collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-pong {median:?}: accepts are waiting on a poll interval"
    );
    assert!(drained < Duration::from_secs(2), "drain took {drained:?}");
    assert_eq!(summary.control, 22, "21 pings and the shutdown");
}

#[test]
fn truncated_frame_gets_an_error_then_a_clean_close() {
    // Declare 100 bytes, deliver 10, hang up.
    let mut raw = 100u32.to_le_bytes().to_vec();
    raw.extend_from_slice(&[b'x'; 10]);
    let (responses, summary) = roundtrip_raw(&ServeOptions::default(), raw);
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_eq!(reply_of(&responses[0]), "error");
    assert!(responses[0].contains("\"error\":\"protocol\""), "{}", responses[0]);
    assert!(responses[0].contains("truncated"), "{}", responses[0]);
    assert_eq!(summary.protocol_errors, 1);
    assert!(summary.is_clean());
}

#[test]
fn oversized_frame_is_rejected_and_the_connection_survives() {
    let mut opts = ServeOptions::default();
    opts.limits.max_frame_bytes = 64;
    let mut raw = framed(&[b'{'; 200]);
    raw.extend_from_slice(&framed(&gen_request(9, 3)));
    let (responses, summary) = roundtrip_raw(&opts, raw);
    assert_eq!(responses.len(), 2, "{responses:?}");
    let over = responses.iter().find(|r| r.contains("over_limit")).expect("over_limit response");
    assert_eq!(reply_of(over), "error");
    let record = responses.iter().find(|r| reply_of(r) == "record").expect("record response");
    assert!(record.contains("\"id\":9"));
    assert_eq!(summary.protocol_errors, 1);
    assert_eq!(summary.records, 1);
    assert!(summary.is_clean());
}

#[test]
fn ping_after_a_one_mib_frame_is_answered_promptly() {
    // The connection thread parses every frame before any budget applies,
    // so a frame at the default 1 MiB limit must not stall the `ping`
    // queued behind it. The frame names both a routine and a gen_seed,
    // so it is a protocol error once parsed and never reaches a worker.
    let line = "routine f(a) { return a; } // \"é\"\n";
    let mut big = String::from(r#"{"id":1,"gen_seed":1,"routine":""#);
    pgvn::telemetry::json::escape_into(&line.repeat((1 << 20) / (line.len() + 4)), &mut big);
    big.push_str("\"}");
    assert!(big.len() <= 1 << 20 && big.len() > 1 << 19, "{}", big.len());
    let start = std::time::Instant::now();
    let (responses, summary) = roundtrip(
        &ServeOptions::default(),
        vec![big.into_bytes(), br#"{"id":2,"op":"ping"}"#.to_vec()],
    );
    let took = start.elapsed();
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].contains("\"error\":\"protocol\""), "{}", responses[0]);
    assert!(responses[0].contains("both"), "{}", responses[0]);
    assert_eq!(reply_of(&responses[1]), "pong");
    assert!(responses[1].contains("\"id\":2"), "{}", responses[1]);
    assert_eq!(summary.protocol_errors, 1);
    assert!(summary.is_clean());
    // About 30 ms unoptimized with a linear parse; a parse quadratic in
    // the string length takes minutes.
    assert!(took < std::time::Duration::from_secs(3), "ping answered after {took:?}");
}

#[test]
fn deeply_nested_json_is_a_protocol_error_and_a_later_ping_is_answered() {
    // 200,000 open brackets fit the 1 MiB frame limit. The recursive
    // JSON parser used to overflow the connection thread's stack on
    // them and abort the server.
    let deep = "[".repeat(200_000).into_bytes();
    let (responses, summary) =
        roundtrip(&ServeOptions::default(), vec![deep, br#"{"id":2,"op":"ping"}"#.to_vec()]);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].contains("\"error\":\"protocol\""), "{}", responses[0]);
    assert!(responses[0].contains("nesting deeper than"), "{}", responses[0]);
    assert_eq!(reply_of(&responses[1]), "pong");
    assert_eq!(summary.protocol_errors, 1);
    assert!(summary.is_clean());
}

#[test]
fn over_deep_routines_get_input_errors_and_a_later_ping_is_answered() {
    use pgvn::lang::fixtures::{deep, Deep};

    // Each used to overflow the worker's stack and abort the server,
    // leaving the request and the ping unanswered.
    let request = |id: u64, src: &str| {
        let mut frame = format!(r#"{{"id":{id},"routine":""#);
        pgvn::telemetry::json::escape_into(src, &mut frame);
        frame.push_str("\"}");
        frame.into_bytes()
    };
    let opts = ServeOptions { workers: 1, ..ServeOptions::default() };
    let (responses, summary) = roundtrip(
        &opts,
        vec![
            request(1, &deep(Deep::Parens, 1000)),
            request(2, &deep(Deep::Sum, 20_000)),
            br#"{"id":3,"op":"ping"}"#.to_vec(),
        ],
    );
    assert_eq!(responses.len(), 3, "{responses:?}");
    let by_id = |id: u64| {
        responses.iter().find(|r| r.contains(&format!("\"id\":{id},"))).expect("answered")
    };
    for (id, message) in [(1, "nesting deeper than 256"), (2, "expression taller than 256")] {
        let r = by_id(id);
        assert_eq!(reply_of(r), "record", "{r}");
        assert!(r.contains("\"status\":\"input_error\"") && r.contains(message), "{r}");
    }
    assert_eq!(reply_of(by_id(3)), "pong");
    assert_eq!(summary.input_errors, 2);
    assert!(summary.is_clean());
}

#[test]
fn break_outside_a_loop_gets_an_input_error_and_a_later_request_is_served() {
    // It used to panic in lowering: the reply was `"error":"internal"`
    // and the server exited 1.
    let (responses, summary) = roundtrip(
        &ServeOptions { workers: 1, ..ServeOptions::default() },
        vec![
            br#"{"id":1,"routine":"routine f(a) { break; return a; }"}"#.to_vec(),
            gen_request(2, 11),
            br#"{"id":3,"op":"ping"}"#.to_vec(),
        ],
    );
    assert_eq!(responses.len(), 3, "{responses:?}");
    let by_id = |id: u64| {
        responses.iter().find(|r| r.contains(&format!("\"id\":{id},"))).expect("answered")
    };
    let r = by_id(1);
    assert_eq!(reply_of(r), "record", "{r}");
    assert!(r.contains("\"status\":\"input_error\""), "{r}");
    assert!(r.contains("`break` outside a loop"), "{r}");
    assert_eq!(reply_of(by_id(2)), "record");
    assert_eq!(reply_of(by_id(3)), "pong");
    assert_eq!((summary.input_errors, summary.records), (1, 2));
    assert!(summary.is_clean());
}

#[test]
fn malformed_payloads_get_protocol_errors_without_killing_the_loop() {
    let (responses, summary) = roundtrip(
        &ServeOptions::default(),
        vec![
            vec![0xff, 0xfe, 0x80],                   // invalid UTF-8
            b"{\"id\":5,".to_vec(),                   // invalid JSON
            b"[1,2,3]".to_vec(),                      // not an object
            br#"{"id":6,"op":"evaporate"}"#.to_vec(), // unknown op
            br#"{"id":7}"#.to_vec(),                  // no routine/gen_seed
            gen_request(8, 11),                       // still served after all that
        ],
    );
    assert_eq!(responses.len(), 6, "{responses:?}");
    assert_eq!(responses.iter().filter(|r| reply_of(r) == "error").count(), 5);
    assert_eq!(responses.iter().filter(|r| reply_of(r) == "record").count(), 1);
    assert_eq!(summary.protocol_errors, 5);
    assert_eq!(summary.records, 1);
    assert!(summary.is_clean());
}

#[test]
fn garbage_routine_text_is_a_classified_input_error() {
    let (responses, summary) = roundtrip(
        &ServeOptions::default(),
        vec![br#"{"id":1,"routine":"this is not a routine at all {{{"}"#.to_vec()],
    );
    assert_eq!(responses.len(), 1);
    assert_eq!(reply_of(&responses[0]), "record");
    assert!(responses[0].contains("\"status\":\"input_error\""), "{}", responses[0]);
    assert_eq!(summary.input_errors, 1);
    assert_eq!(summary.records, 1);
    assert!(summary.is_clean());
}

#[test]
fn mid_request_disconnect_is_survived_and_counted() {
    let ((), summary) = with_server(&ServeOptions::default(), |sock| {
        let mut w = sock;
        write_frame(&mut w, &gen_request(1, 5)).expect("client write");
        // Drop the whole socket without reading the response.
        drop(w);
    });
    assert_eq!(summary.requests, 1);
    assert_eq!(summary.records, 1, "the request was still processed");
    assert_eq!(summary.hangups, 1, "the undeliverable response is counted");
    assert!(summary.is_clean());
}

#[test]
fn zero_capacity_queue_sheds_everything() {
    let opts = ServeOptions { queue_capacity: 0, ..Default::default() };
    let (responses, summary) =
        roundtrip(&opts, vec![gen_request(1, 1), gen_request(2, 2), gen_request(3, 3)]);
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(|r| reply_of(r) == "shed"), "{responses:?}");
    assert_eq!(summary.shed, 3);
    assert_eq!(summary.records, 0);
    assert!(summary.is_clean());
}

#[test]
fn serve_output_is_byte_identical_to_sequential_batch() {
    let n = 20u64;
    let opts = ServeOptions { workers: 4, ..Default::default() };
    let frames: Vec<Vec<u8>> = (0..n)
        .map(|i| gen_request(i + 1, pgvn::oracle::mix64(2002 ^ pgvn::oracle::mix64(i))))
        .collect();
    let (responses, summary) = roundtrip(&opts, frames.clone());
    assert_eq!(summary.records, n);
    assert!(summary.is_clean());

    // Collect the served records in request order.
    let mut served: Vec<(u64, String)> = responses
        .iter()
        .map(|r| {
            let v = parse(r).expect("valid JSON");
            assert_eq!(v.get("reply").and_then(JsonValue::as_str), Some("record"), "{r}");
            let id = v.get("id").and_then(JsonValue::as_u64).expect("id");
            (id, extract_record(r).expect("record slice").to_string())
        })
        .collect();
    served.sort_unstable_by_key(|(id, _)| *id);

    // Replay the identical corpus through the sequential batch engine
    // with the server's own resolved options.
    let requests: Vec<_> =
        frames.iter().map(|f| parse_request(f).expect("test request parses")).collect();
    let batch_opts = resolve_request_options(&requests[0], &opts).expect("options resolve");
    let inputs: Vec<BatchInput> = requests
        .iter()
        .map(|req| {
            let gcfg =
                pgvn::workload::GenConfig { seed: req.gen_seed.unwrap(), ..Default::default() };
            let routine = pgvn::workload::generate_routine(&req.name, &gcfg);
            BatchInput { name: req.name.clone(), source: Ok(pgvn::lang::print_routine(&routine)) }
        })
        .collect();
    let report = run_batch(&inputs, &BatchOptions { jobs: 1, ..batch_opts });
    assert_eq!(served.len(), report.records.len());
    for ((id, served_json), batch_rec) in served.iter().zip(report.records.iter()) {
        assert_eq!(
            served_json, &batch_rec.json,
            "record {id} differs between serve (workers 4) and batch --jobs 1"
        );
    }
}

#[test]
fn every_fault_class_is_absorbed_sticky_and_transient() {
    let sites = ["eval", "eval", "edges", "rewrite"];
    let mut frames = Vec::new();
    let mut id = 0;
    for (kind, site) in FaultKind::ALL.iter().zip(sites) {
        for sticky in [false, true] {
            id += 1;
            frames.push(
                format!(
                    r#"{{"id":{id},"name":"fault_{id}","gen_seed":{id},"inject":"{}@{site}","inject_seed":2002,"inject_sticky":{sticky}}}"#,
                    kind.name(),
                )
                .into_bytes(),
            );
        }
    }
    let (responses, summary) = roundtrip(&ServeOptions::default(), frames);
    assert_eq!(responses.len(), 8);
    assert!(responses.iter().all(|r| reply_of(r) == "record"), "{responses:?}");
    assert_eq!(summary.records, 8);
    assert_eq!(summary.escaped_panics, 0, "every injected fault is absorbed");
    assert!(summary.degraded > 0, "injected faults degrade at least one record");
    assert!(summary.absorbed_panics > 0, "panic faults are absorbed by the ladder");
}

/// The capacity fields of every worker in a `stats` response.
fn worker_capacities(stats: &str) -> Vec<Vec<u64>> {
    let v = parse(stats).expect("stats is valid JSON");
    let Some(JsonValue::Arr(workers)) = v.get("workers") else { panic!("stats has workers") };
    workers
        .iter()
        .map(|w| {
            ["interner_exprs", "interner_table", "class_slots", "class_table", "value_slots"]
                .iter()
                .map(|k| w.get(k).and_then(JsonValue::as_u64).expect("capacity field"))
                .collect()
        })
        .collect()
}

/// Workers start warm without analyzing anything: an idle server's
/// contexts ran nothing and hold exactly what `warm_context` reserves.
#[test]
fn idle_workers_are_warm_and_have_run_nothing() {
    let opts = ServeOptions { workers: 3, ..Default::default() };
    let (responses, summary) = roundtrip(&opts, Vec::new());
    assert!(responses.is_empty());
    assert_eq!(summary.worker_runs, [0, 0, 0]);
    let mut warm = pgvn::core::GvnContext::new();
    pgvn::batch::warm_context(&mut warm);
    assert_eq!(summary.worker_capacities, [warm.capacities(); 3]);
}

#[test]
fn soak_1000_mixed_requests_with_stable_pool_capacities() {
    let opts = ServeOptions { workers: 2, ..Default::default() };
    let distinct = 250u64;
    let repeats = 4u64;
    let ((answered, warm_caps, final_caps), summary) = with_server(&opts, |sock| {
        fn ask(w: &mut UnixStream, r: &mut UnixStream, payload: &[u8]) -> String {
            write_frame(w, payload).expect("soak write");
            let mut never = || false;
            match read_frame(r, 1 << 24, &mut never) {
                Ok(FrameEvent::Frame(p)) => String::from_utf8(p).expect("UTF-8"),
                other => panic!("soak request unanswered: {other:?}"),
            }
        }
        let mut w = sock.try_clone().expect("clone");
        let mut r = sock;
        let mut answered = 0u64;
        let round = |w: &mut UnixStream, r: &mut UnixStream, idx: u64, answered: &mut u64| {
            // Mixed traffic: mostly clean/fault-injected optimizes, a
            // sprinkle of malformed payloads and garbage routines.
            let payload = if idx % 97 == 13 {
                b"{broken json".to_vec()
            } else if idx % 101 == 17 {
                format!(r#"{{"id":{idx},"routine":"routine {{ nope"}}"#).into_bytes()
            } else {
                let seed = pgvn::oracle::mix64(idx % distinct);
                match mix_plan(FaultMix::Matrix, idx, 2002) {
                    None => gen_request(idx + 1, seed),
                    Some(plan) => format!(
                        r#"{{"id":{},"name":"serve_{}","gen_seed":{seed},"inject":"{}@{}","inject_seed":{},"inject_sticky":{}}}"#,
                        idx + 1,
                        idx + 1,
                        plan.kind,
                        plan.site,
                        plan.seed,
                        plan.sticky
                    )
                    .into_bytes(),
                }
            };
            let resp = ask(w, r, &payload);
            assert!(!reply_of(&resp).is_empty());
            *answered += 1;
        };
        // Warm-up wave: every distinct routine once.
        for idx in 0..distinct {
            round(&mut w, &mut r, idx, &mut answered);
        }
        let warm = worker_capacities(&ask(&mut w, &mut r, br#"{"id":9001,"op":"stats"}"#));
        // Three more waves over the same routines.
        for idx in distinct..distinct * repeats {
            round(&mut w, &mut r, idx, &mut answered);
        }
        let fin = worker_capacities(&ask(&mut w, &mut r, br#"{"id":9002,"op":"stats"}"#));
        w.shutdown(std::net::Shutdown::Write).expect("half-close");
        (answered, warm, fin)
    });
    assert_eq!(answered, distinct * repeats, "every request answered");
    assert!(summary.records + summary.protocol_errors >= distinct * repeats);
    assert_eq!(summary.escaped_panics, 0, "no fault class escaped in {answered} requests");
    assert_eq!(
        warm_caps, final_caps,
        "context pool capacities stable after the warm-up wave (allocation amortization)"
    );
    assert!(summary.absorbed_panics > 0 && summary.degraded > 0, "faults were really mixed in");
    assert!(summary.input_errors > 0, "garbage routines were really mixed in");
}

#[test]
fn load_harness_reports_latency_and_zero_drops() {
    let opts = LoadOptions {
        clients: 3,
        routines: 6,
        seed: 42,
        fault: FaultMix::Every(5),
        check_batch: true,
        ..Default::default()
    };
    let report = run_load(&opts).expect("load campaign runs");
    assert_eq!(report.sent, 18);
    assert_eq!(report.received, 18);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.mismatches, 0, "serve records match batch --jobs 1");
    assert!(report.records > 0);
    assert!(report.p99_nanos >= report.p50_nanos);
    assert!(report.routines_per_sec > 0.0);
    assert!(report.is_clean());
    let json = report.to_json();
    parse(&json).expect("load report is valid JSON");
    assert!(json.contains("\"dropped\":0"), "{json}");
}

#[test]
fn request_op_names_round_trip_through_parse() {
    for (op, name) in
        [(RequestOp::Ping, "ping"), (RequestOp::Stats, "stats"), (RequestOp::Shutdown, "shutdown")]
    {
        let req = parse_request(format!(r#"{{"id":1,"op":"{name}"}}"#).as_bytes()).expect("parses");
        assert_eq!(req.op, op);
    }
}

/// The detail of a `protocol` error response; panics on any other reply.
fn protocol_detail(response: &str) -> String {
    let v = parse(response).expect("valid JSON");
    assert_eq!(v.get("reply").and_then(JsonValue::as_str), Some("error"), "{response}");
    assert_eq!(v.get("error").and_then(JsonValue::as_str), Some("protocol"), "{response}");
    v.get("detail").and_then(JsonValue::as_str).expect("detail").to_string()
}

#[test]
fn pass_specs_over_the_cap_are_refused_and_the_connection_survives() {
    let spec_request = |id: u64, passes: &str| {
        format!(r#"{{"id":{id},"name":"a","gen_seed":7,"passes":"{passes}"}}"#).into_bytes()
    };
    // 200,000 passes is an 800 KB frame, under the 1 MiB frame limit:
    // only the spec-length cap stands between it and a worker.
    let huge = vec!["gvn"; 200_000].join(",");
    let (responses, summary) = roundtrip(
        &ServeOptions::default(),
        vec![
            spec_request(1, "gvn,pre,gvn,pre,gvn"),
            gen_request(2, 7),
            spec_request(3, &huge),
            gen_request(4, 7),
            br#"{"id":5,"name":"a","gen_seed":7,"rounds":2}"#.to_vec(),
            gen_request(6, 7),
            spec_request(7, "gvn,pre,gvn,cleanup"),
        ],
    );
    assert_eq!(responses.len(), 7, "{responses:?}");
    let by_id = |id: u64| {
        responses.iter().find(|r| r.contains(&format!("\"id\":{id},"))).expect("answered")
    };
    for id in [1, 3] {
        let detail = protocol_detail(by_id(id));
        assert!(detail.starts_with("passes:"), "{detail}");
        assert!(detail.contains("cap of 4"), "{detail}");
    }
    // A parse error carries no id; `rounds` is refused there, naming
    // its replacement.
    let detail = protocol_detail(by_id(0));
    assert!(detail.contains("\"rounds\"") && detail.contains("\"passes\""), "{detail}");
    for id in [2, 4, 6, 7] {
        assert_eq!(reply_of(by_id(id)), "record", "{}", by_id(id));
    }
    assert_eq!((summary.protocol_errors, summary.records), (3, 4));
    assert!(summary.is_clean());
}

#[test]
fn serve_exits_two_when_its_default_spec_is_over_the_cap() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pgvn"))
        .args(["serve", "--passes", "gvn,pre,gvn,pre,gvn", "--max-pipeline-passes", "4"])
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "one line, before serving: {stderr}");
    assert!(stderr.contains("--passes") && stderr.contains("cap of 4"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing served");
}
