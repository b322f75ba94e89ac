//! The TCP server: bind, hand the listener to this platform's connection
//! driver, and own the shutdown handle.
//!
//! What a connection *does* is the sans-I/O
//! [`Connection`](crate::conn::Connection) core; a driver only moves bytes
//! between sockets and cores. Linux gets the epoll pump (`event_loop`: one
//! thread, thousands of connections); every other target gets the blocking
//! pump below — a thread per connection running read-with-timeout → `feed`
//! → `advance` → wait for the pending job → `write_all` over the *same*
//! core. The choice is made by `cfg(target_os)`, never by an option.
//!
//! ## Shutdown contract
//!
//! Shutdown is a *drain*, not a cliff: the driver closes the listener first
//! (no new connections), admission refuses new work with `ShuttingDown`,
//! every core is flipped to draining (frames already in flight get a typed
//! `ShuttingDown`), and each line is half-closed once idle or when
//! [`FrameLimits::drain_window`] runs out — a client mid-request at SIGINT
//! sees a typed reply or a clean EOF, never an abrupt reset.

use crate::conn::Shared;
#[cfg(any(test, not(target_os = "linux")))]
use crate::conn::{Completer, Connection};
use crate::protocol::{FrameLimits, Response, WireFormat};
use crate::registry::{Registry, RegistryConfig};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which wire codecs a server accepts. Per-connection negotiation is by
/// first-byte sniff ([`WireFormat::sniff`]); the policy is what lets an
/// operator pin a deployment to the ubiquitous JSON wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WirePolicy {
    /// Accept both codecs, replying to each frame in the codec it arrived
    /// in (the default).
    #[default]
    Any,
    /// Accept only newline-delimited JSON; binary frames get one typed
    /// `Error` reply (in the binary codec, so the client can read it) and
    /// the connection is closed.
    JsonOnly,
}

impl WirePolicy {
    /// Does this policy admit frames in `wire`?
    pub fn allows(self, wire: WireFormat) -> bool {
        match self {
            WirePolicy::Any => true,
            WirePolicy::JsonOnly => wire == WireFormat::Json,
        }
    }

    /// The typed refusal sent when [`allows`](WirePolicy::allows) says no.
    pub fn rejection(self) -> Response {
        Response::Error {
            message: "binary wire format is disabled on this server (JSON-only policy); \
                      reconnect with the JSON codec"
                .to_string(),
        }
    }
}

impl std::str::FromStr for WirePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<WirePolicy, String> {
        match s {
            "any" => Ok(WirePolicy::Any),
            "json" | "json-only" => Ok(WirePolicy::JsonOnly),
            other => Err(format!("unknown wire policy `{other}` (any|json)")),
        }
    }
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Registry budget, batching, and admission parameters.
    pub registry: RegistryConfig,
    /// Frame-size bound and shutdown drain window.
    pub limits: FrameLimits,
    /// Which wire codecs to accept.
    pub wire: WirePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            registry: RegistryConfig::default(),
            limits: FrameLimits::default(),
            wire: WirePolicy::default(),
        }
    }
}

/// A running server: the bound address, its registry, and the driver
/// thread. Call [`ServerHandle::join`] to block until shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model registry, for preloading models in-process.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.registry.admission().begin_drain();
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the driver has drained and closed every connection.
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Serves a bound, nonblocking listener until `Shared::shutdown` (or
/// SIGINT), then drains.
type Driver = fn(TcpListener, Shared);

/// Bind and start serving in a background thread.
pub fn spawn_server(cfg: ServerConfig) -> io::Result<ServerHandle> {
    #[cfg(target_os = "linux")]
    let driver = crate::event_loop::run_event_loop;
    #[cfg(not(target_os = "linux"))]
    let driver = run_blocking;
    spawn_on(cfg, driver)
}

fn spawn_on(cfg: ServerConfig, driver: Driver) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Shared {
        registry: Arc::new(Registry::new(cfg.registry)),
        limits: cfg.limits,
        wire: cfg.wire,
        shutdown: Arc::new(AtomicBool::new(false)),
    };
    let (registry, shutdown) = (Arc::clone(&shared.registry), Arc::clone(&shared.shutdown));
    let accept_thread = std::thread::Builder::new()
        .name("c2nn-accept".to_string())
        .spawn(move || driver(listener, shared))?;
    Ok(ServerHandle {
        addr,
        registry,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

// --- the blocking pump (every target but Linux) ------------------------------

/// Accept loop: nonblocking with a short sleep so it can poll the shutdown
/// flag, one [`pump_blocking`] thread per connection.
#[cfg(any(test, not(target_os = "linux")))]
fn run_blocking(listener: TcpListener, shared: Shared) {
    use std::time::Duration;
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) && !crate::signal::interrupted() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                let pump = std::thread::Builder::new()
                    .name("c2nn-conn".to_string())
                    .spawn(move || pump_blocking(stream, &shared));
                pumps.extend(pump); // a failed spawn drops (closes) the stream
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // nothing to accept, or a transient failure (e.g. an aborted
            // connection) — the listener itself stays usable
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        pumps.retain(|h| !h.is_finished());
    }
    // Drain order matters: stop accepting before refusing, refuse before
    // joining — otherwise a connection racing the flag could be accepted
    // and then reset without ever getting a typed reply.
    drop(listener);
    shared.registry.admission().begin_drain();
    shared.shutdown.store(true, Ordering::SeqCst); // pumps begin their drain
    for h in pumps {
        let _ = h.join();
    }
}

/// One connection, blocking: the read timeout is the poll tick for the
/// shutdown flag, and a pending job is simply waited for.
#[cfg(any(test, not(target_os = "linux")))]
fn pump_blocking(mut stream: std::net::TcpStream, shared: &Shared) {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    let io = Arc::clone(shared.registry.gauges());
    io.accepted_total.fetch_add(1, Ordering::Relaxed);
    io.open_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let (tx, rx) = std::sync::mpsc::channel();
    let done: Completer = Arc::new(move |_token, resp| drop(tx.send(resp)));
    let mut core = Connection::new(shared.limits);
    let mut chunk = [0u8; 16384];
    let mut drain_end = None;
    while !core.is_finished() && drain_end.is_none_or(|end| Instant::now() < end) {
        if drain_end.is_none()
            && (shared.shutdown.load(Ordering::SeqCst) || crate::signal::interrupted())
        {
            core.begin_drain();
            drain_end = Some(Instant::now() + shared.limits.drain_window);
        }
        if core.wants_read() {
            match stream.read(&mut chunk) {
                Ok(0) => core.close_read(),
                Ok(n) => core.feed(&chunk[..n]),
                // poll tick; a partial frame (if any) stays in the core
                Err(e) if matches!(e.kind(), Interrupted | WouldBlock | TimedOut) => {}
                Err(_) => break,
            }
        }
        core.advance(0, Instant::now(), shared, &done);
        while core.is_pending() {
            let resp: Response = rx.recv().expect("this pump holds the sender");
            core.complete(&resp, shared);
            core.advance(0, Instant::now(), shared, &done);
        }
        if stream.write_all(core.output()).is_err() {
            break;
        }
        core.consume(core.output().len());
    }
    let _ = stream.shutdown(std::net::Shutdown::Write); // FIN, not RST
    io.open_connections.fetch_sub(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::PROTOCOL_VERSION;
    use crate::scheduler::BatchConfig;
    use c2nn_circuits::generators::counter;
    use c2nn_core::{compile, CompileOptions};
    use std::time::Duration;

    /// Every driver this target has: the blocking pump always, the epoll
    /// pump on Linux. Each server test runs against all of them.
    fn drivers() -> Vec<(&'static str, Driver)> {
        let mut all: Vec<(&'static str, Driver)> = vec![("blocking", run_blocking)];
        #[cfg(target_os = "linux")]
        all.push(("epoll", crate::event_loop::run_event_loop));
        all
    }

    fn test_server(driver: Driver, wire: WirePolicy) -> ServerHandle {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            registry: RegistryConfig {
                byte_budget: usize::MAX,
                batch: BatchConfig {
                    max_batch: 8,
                    max_wait: Duration::from_millis(1),
                    ..BatchConfig::default()
                },
                ..RegistryConfig::default()
            },
            wire,
            ..ServerConfig::default()
        };
        spawn_on(cfg, driver).unwrap()
    }

    #[test]
    fn ping_load_sim_stats_shutdown() {
        for (driver_name, driver) in drivers() {
            eprintln!("driver: {driver_name}");
            let server = test_server(driver, WirePolicy::Any);
            let addr = server.local_addr();
            let mut c = Client::connect(&addr.to_string()).unwrap();
            assert_eq!(c.ping().unwrap(), PROTOCOL_VERSION);

            let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
            let bytes = c.load("ctr", &nn.to_json_string()).unwrap();
            assert!(bytes > 0);

            let outputs = c.sim("ctr", "1 x4\n").unwrap();
            assert_eq!(outputs, vec!["0000", "0001", "0010", "0011"]);

            let stats = c.stats().unwrap();
            assert_eq!(stats.models.len(), 1);
            assert_eq!(stats.models[0].name, "ctr");
            assert_eq!(stats.models[0].requests, 1);
            assert!(
                !stats.models[0].backend.is_empty(),
                "stats carry the backend label"
            );
            assert!(
                stats.models[0].auto_selected,
                "default config selects by cost model"
            );
            assert_eq!(stats.server.pressure, "nominal");
            assert!(!stats.server.draining);
            assert_eq!(stats.server.backends.len(), 1);
            assert_eq!(stats.server.backends[0].backend, stats.models[0].backend);
            assert_eq!(stats.server.backends[0].models, 1);
            assert_eq!(stats.server.backends[0].requests, 1);

            c.shutdown().unwrap();
            server.join();
        }
    }

    #[test]
    fn errors_keep_the_connection_usable() {
        for (driver_name, driver) in drivers() {
            eprintln!("driver: {driver_name}");
            let server = test_server(driver, WirePolicy::Any);
            let addr = server.local_addr();
            let mut c = Client::connect(&addr.to_string()).unwrap();

            // unknown model
            let err = c.sim("ghost", "1\n").unwrap_err();
            assert!(err.to_string().contains("unknown model"), "{err}");

            // bad stimulus width
            let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
            c.load("ctr", &nn.to_json_string()).unwrap();
            let err = c.sim("ctr", "101\n").unwrap_err();
            assert!(err.to_string().contains("input bits"), "{err}");

            // malformed model JSON
            let err = c.load("bad", "{\"nope\":1}").unwrap_err();
            assert!(err.to_string().contains("rejected"), "{err}");

            // connection still works
            assert_eq!(c.sim("ctr", "1\n").unwrap(), vec!["0000"]);

            server.shutdown();
            server.join();
        }
    }

    #[test]
    fn in_process_preload_is_visible_to_clients() {
        for (driver_name, driver) in drivers() {
            eprintln!("driver: {driver_name}");
            let server = test_server(driver, WirePolicy::Any);
            let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
            server.registry().install("pre", nn).unwrap();
            let mut c = Client::connect(&server.local_addr().to_string()).unwrap();
            assert_eq!(c.sim("pre", "1 x2\n").unwrap(), vec!["0000", "0001"]);
            server.shutdown();
            server.join();
        }
    }

    #[test]
    fn binary_wire_end_to_end() {
        for (driver_name, driver) in drivers() {
            eprintln!("driver: {driver_name}");
            use c2nn_core::BitTensor;
            let server = test_server(driver, WirePolicy::Any);
            let addr = server.local_addr().to_string();
            let mut c = Client::connect_wire(&addr, WireFormat::Binary).unwrap();
            assert_eq!(c.wire(), WireFormat::Binary);
            assert_eq!(c.ping().unwrap(), PROTOCOL_VERSION);

            let nn = compile(&counter(4), CompileOptions::with_l(4)).unwrap();
            assert!(c.load("ctr", &nn.to_json_string()).unwrap() > 0);

            // text stimulus over the binary wire
            assert_eq!(
                c.sim("ctr", "1 x4\n").unwrap(),
                vec!["0000", "0001", "0010", "0011"]
            );

            // packed stimulus: clock high for 4 cycles on the single input
            let mut stim = BitTensor::zeros(1, 4);
            for cyc in 0..4 {
                stim.set_bit(0, cyc, true);
            }
            let out = c.sim_packed("ctr", &stim).unwrap();
            assert_eq!(out.features(), 4, "4 counter output bits");
            assert_eq!(out.batch(), 4, "one result per cycle");
            // cycle 3 counts to 0b0011: output bits 0 and 1 set
            assert!(out.get_bit(0, 3) && out.get_bit(1, 3));
            assert!(!out.get_bit(2, 3) && !out.get_bit(3, 3));

            // a same-server JSON client agrees bit-for-bit on the text path
            let mut j = Client::connect(&addr).unwrap();
            assert_eq!(
                j.sim("ctr", "1 x4\n").unwrap(),
                c.sim("ctr", "1 x4\n").unwrap()
            );

            // per-codec traffic shows up in the stats report
            let stats = c.stats().unwrap();
            assert!(stats.server.wire_binary_frames > 0, "{stats:?}");
            assert!(stats.server.wire_json_frames > 0, "{stats:?}");

            c.shutdown().unwrap();
            server.join();
        }
    }

    #[test]
    fn json_only_policy_rejects_binary_with_typed_error() {
        for (driver_name, driver) in drivers() {
            eprintln!("driver: {driver_name}");
            let server = test_server(driver, WirePolicy::JsonOnly);
            let addr = server.local_addr().to_string();

            // the rejection is delivered in the client's own codec, decodable
            let mut b = Client::connect_wire(&addr, WireFormat::Binary).unwrap();
            let err = b.ping().unwrap_err();
            assert!(
                err.to_string().contains("JSON-only"),
                "typed rejection names the policy: {err}"
            );

            // JSON clients are untouched
            let mut j = Client::connect(&addr).unwrap();
            assert_eq!(j.ping().unwrap(), PROTOCOL_VERSION);

            server.shutdown();
            server.join();
        }
    }

    /// One transcript — sims, typed errors, an HTTP scrape — through both
    /// pumps: same core, so the same bytes, and both match refsim.
    #[cfg(target_os = "linux")]
    #[test]
    fn blocking_pump_and_epoll_pump_agree_bit_for_bit() {
        use c2nn_refsim::CycleSim;
        let nl = counter(4);
        let servers: Vec<ServerHandle> = drivers()
            .into_iter()
            .map(|(_, driver)| {
                let server = test_server(driver, WirePolicy::Any);
                let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();
                server.registry().install("ctr", nn).unwrap();
                server
            })
            .collect();
        let mut clients: Vec<Client> = servers
            .iter()
            .map(|s| Client::connect(&s.local_addr().to_string()).unwrap())
            .collect();
        for stim in ["1 x1\n", "1 x7\n", "0 x3\n1 x4\n", "1 x16\n"] {
            let mut sim = CycleSim::new(&nl).unwrap();
            let expected: Vec<String> = c2nn_core::parse_stim(stim, 1)
                .unwrap()
                .cycles
                .iter()
                .map(|cycle| {
                    let out = sim.step(cycle);
                    out.iter()
                        .rev()
                        .map(|&b| if b { '1' } else { '0' })
                        .collect()
                })
                .collect();
            for c in &mut clients {
                assert_eq!(c.sim("ctr", stim).unwrap(), expected, "{stim:?}");
            }
        }
        // same typed error text for the same bad request
        let errors: Vec<String> = clients
            .iter_mut()
            .map(|c| c.sim("nope", "1 x1\n").unwrap_err().to_string())
            .collect();
        assert_eq!(errors[0], errors[1], "typed errors must match across pumps");
        // the HTTP sniff is the core's, so both pumps answer a scrape
        for s in &servers {
            let addr = s.local_addr().to_string();
            let text = crate::client::fetch_metrics(&addr).unwrap();
            assert!(text.contains("# TYPE c2nn_requests_total counter"));
        }
        for s in servers {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn wire_policy_parses() {
        assert_eq!("any".parse::<WirePolicy>().unwrap(), WirePolicy::Any);
        assert_eq!("json".parse::<WirePolicy>().unwrap(), WirePolicy::JsonOnly);
        assert_eq!(
            "json-only".parse::<WirePolicy>().unwrap(),
            WirePolicy::JsonOnly
        );
        assert!("carrier-pigeon".parse::<WirePolicy>().is_err());
    }
}
