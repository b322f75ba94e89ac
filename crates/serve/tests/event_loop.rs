//! The epoll event loop, end-to-end over real sockets: every protocol op,
//! pipelined non-reading clients (write backpressure), hostile input,
//! half-close semantics, and drain behavior. Linux-only, like the event loop
//! itself. (Its bit-exact differential against the blocking pump is a unit
//! test in `server.rs`, where both drivers can be named.)
#![cfg(target_os = "linux")]

use c2nn_circuits::generators::counter;
use c2nn_core::{compile, parse_stim, CompileOptions};
use c2nn_hal::Choice;
use c2nn_refsim::CycleSim;
use c2nn_serve::client::fetch_metrics;
use c2nn_serve::metrics::parse_exposition;
use c2nn_serve::protocol::{Request, Response, SimOutputs, StimPayload};
use c2nn_serve::scheduler::BatchConfig;
use c2nn_serve::server::{spawn_server, ServerConfig, ServerHandle};
use c2nn_serve::{Client, ClientError, RegistryConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const WIDTH: usize = 4;

fn epoll_server() -> ServerHandle {
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        registry: RegistryConfig {
            byte_budget: usize::MAX,
            batch: BatchConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(1),
                backend: Choice::Named("scalar".to_string()),
            },
            max_inflight: 1024,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let nn = compile(&counter(WIDTH), CompileOptions::with_l(4)).unwrap();
    server.registry().install("ctr", nn).unwrap();
    server
}

fn refsim_outputs(stim_text: &str) -> Vec<String> {
    let nl = counter(WIDTH);
    let mut sim = CycleSim::new(&nl).unwrap();
    let stim = parse_stim(stim_text, 1).unwrap();
    stim.cycles
        .iter()
        .map(|cycle| {
            let out = sim.step(cycle);
            out.iter()
                .rev()
                .map(|&b| if b { '1' } else { '0' })
                .collect()
        })
        .collect()
}

#[test]
fn every_protocol_op_works_over_epoll() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.ping().is_ok());
    assert_eq!(c.sim("ctr", "1 x5\n").unwrap(), refsim_outputs("1 x5\n"));
    let stats = c.stats().unwrap();
    assert_eq!(stats.models.len(), 1);
    assert_eq!(stats.models[0].name, "ctr");
    assert!(stats.models[0].requests >= 1);
    // unknown model is a typed error on a connection that stays usable
    assert!(matches!(
        c.sim("nope", "1 x2\n"),
        Err(ClientError::Server(_))
    ));
    assert_eq!(c.sim("ctr", "1 x3\n").unwrap(), refsim_outputs("1 x3\n"));
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn pipelined_non_reading_client_gets_every_reply_in_order() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_nodelay(true).unwrap();
    // 48 pipelined requests with multi-KB replies, written before reading a
    // single byte: the server must buffer under backpressure, never drop or
    // reorder
    let n = 48;
    let mut blob = Vec::new();
    for _ in 0..n {
        let body = Request::Sim {
            model: "ctr".to_string(),
            stim: StimPayload::Text("1 x200\n".to_string()),
            deadline_ms: None,
        }
        .encode();
        blob.extend_from_slice(body.as_bytes());
        blob.push(b'\n');
    }
    s.write_all(&blob).unwrap();
    let expected = refsim_outputs("1 x200\n");
    let mut reader = BufReader::new(s);
    for i in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::decode(line.trim_end()).unwrap() {
            Response::SimResult { outputs, cycles } => {
                assert_eq!(cycles, 200, "reply {i}");
                assert_eq!(
                    outputs,
                    SimOutputs::Text(expected.clone()),
                    "reply {i} must be bit-exact"
                );
            }
            other => panic!("reply {i}: expected SimResult, got {other:?}"),
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn garbage_frames_get_typed_errors_and_the_connection_survives() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"\x00\xff\xfe not json\n").unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        matches!(
            Response::decode(line.trim_end()),
            Ok(Response::Error { .. })
        ),
        "hostile bytes get a typed Error frame, got: {line:?}"
    );
    // connection is still usable for a real request
    let body = Request::Ping.encode();
    s.write_all(body.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim_end()),
        Ok(Response::Pong { .. })
    ));
    server.shutdown();
    server.join();
}

#[test]
fn half_closed_client_still_receives_its_pending_reply() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let mut s = TcpStream::connect(&addr).unwrap();
    let body = Request::Sim {
        model: "ctr".to_string(),
        stim: StimPayload::Text("1 x8\n".to_string()),
        deadline_ms: None,
    }
    .encode();
    s.write_all(body.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap(); // FIN before the reply
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let line = raw.lines().next().expect("reply arrives after half-close");
    assert!(
        matches!(Response::decode(line), Ok(Response::SimResult { .. })),
        "got {line:?}"
    );
    server.shutdown();
    server.join();
}

/// A half-closed line with its job pending must cost the loop nothing: the
/// level-triggered RDHUP nobody can act on is not subscribed, so
/// `epoll_wait` sleeps until the completion instead of returning at once
/// for the whole life of the sim (hundreds of thousands of wakeups).
#[test]
fn half_closed_client_with_a_pending_sim_does_not_spin_the_loop() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let wakeups = || {
        server
            .registry()
            .gauges()
            .readiness_wakeups_total
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let mut s = TcpStream::connect(&addr).unwrap();
    let body = Request::Sim {
        model: "ctr".to_string(),
        stim: StimPayload::Text("1 x200000\n".to_string()),
        deadline_ms: None,
    }
    .encode();
    let before = wakeups();
    s.write_all(body.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap(); // FIN while the sim runs
    let mut reader = BufReader::new(s);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let spent = wakeups() - before;
    assert!(
        matches!(
            Response::decode(line.trim_end()),
            Ok(Response::SimResult { cycles: 200000, .. })
        ),
        "the reply still arrives before FIN"
    );
    assert!(spent < 100, "loop woke {spent} times for one request");
    server.shutdown();
    server.join();
}

#[test]
fn partial_frame_then_close_does_not_wedge_the_loop() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"{\"op\":\"ping\"").unwrap(); // no newline, ever
    } // dropped: RST/FIN with a dangling partial frame
      // the loop must still serve the next client promptly
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.ping().is_ok());
    server.shutdown();
    server.join();
}

#[test]
fn concurrent_clients_coalesce_and_get_their_own_lanes() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let stims: Vec<String> = (1..=8).map(|i| format!("1 x{}\n", i + 1)).collect();
    let handles: Vec<_> = stims
        .iter()
        .map(|stim| {
            let addr = addr.clone();
            let stim = stim.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                (stim.clone(), c.sim("ctr", &stim).unwrap())
            })
        })
        .collect();
    for h in handles {
        let (stim, got) = h.join().unwrap();
        assert_eq!(got, refsim_outputs(&stim), "lane scatter for {stim:?}");
    }
    let report = server.registry().stats();
    let m = report.iter().find(|m| m.name == "ctr").unwrap();
    assert!(m.batches <= m.requests, "batching stats are sane: {m:?}");
    server.shutdown();
    server.join();
}

#[test]
fn open_connection_gauge_tracks_live_sockets() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let held: Vec<Client> = (0..5).map(|_| Client::connect(&addr).unwrap()).collect();
    // the gauge is updated by the loop thread; give it a tick to accept
    std::thread::sleep(Duration::from_millis(100));
    let parsed = parse_exposition(&fetch_metrics(&addr).unwrap()).unwrap();
    let open = parsed
        .samples
        .iter()
        .find(|s| s.name == "c2nn_open_connections")
        .map(|s| s.value)
        .unwrap_or(-1.0);
    assert!(
        open >= 5.0,
        "5 held connections must be visible, gauge says {open}"
    );
    drop(held);
    server.shutdown();
    server.join();
}

#[test]
fn drain_closes_idle_connections_and_finishes_cleanly() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    // an idle bystander connection, registered before the drain starts
    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap();
    let mut trigger = Client::connect(&addr).unwrap();
    trigger.shutdown().unwrap(); // typed ShuttingDown ack inside
    server.join(); // the loop exits within the drain window

    // the bystander was closed with FIN, not wedged: its next request fails
    // with a transport error rather than hanging
    let err = idle.ping().unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Protocol(_)),
        "idle conn closed at drain: {err:?}"
    );
    // and the port no longer accepts
    assert!(
        TcpStream::connect_timeout(&addr.parse().unwrap(), Duration::from_millis(200)).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn oversized_http_head_is_rejected() {
    let server = epoll_server();
    let addr = server.local_addr().to_string();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
    // never finish the head; exceed the 16 KiB cap instead
    let filler = vec![b'a'; 1024];
    let mut closed = false;
    for _ in 0..64 {
        if s.write_all(b"X-Junk: ").is_err() || s.write_all(&filler).is_err() {
            closed = true;
            break;
        }
        let _ = s.write_all(b"\r\n");
    }
    if !closed {
        // the server must have closed on us; a read sees EOF promptly
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 256];
        let n = s.read(&mut buf).unwrap_or(0);
        assert_eq!(
            n, 0,
            "oversized head must close the connection, got {n} bytes"
        );
    }
    server.shutdown();
    server.join();
}
