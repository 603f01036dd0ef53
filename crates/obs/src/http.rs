//! A minimal HTTP/1.1 responder for telemetry scrapes, plus the matching
//! one-shot client used by `hetsyslog top` and the tests.
//!
//! This is not a web server: one accept thread, requests served inline,
//! `GET` only, connection closed after every response. Scrapes are rare
//! (a dashboard poll every few seconds) and tiny, so simplicity wins over
//! concurrency — and the responder shares the listener runtime's
//! poll-and-check-shutdown discipline so it never blocks a drain. Each
//! request gets a fixed deadline to send its head and a write timeout,
//! so one slow client cannot starve every other scrape.

use crate::Registry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One additional route beyond the always-present `GET /metrics`.
pub struct Route {
    /// Absolute path, e.g. `"/health"`.
    pub path: &'static str,
    /// Response `Content-Type`.
    pub content_type: &'static str,
    /// Renders the response body at request time.
    pub render: Box<dyn Fn() -> String + Send + Sync>,
}

impl Route {
    /// Convenience constructor.
    pub fn new(
        path: &'static str,
        content_type: &'static str,
        render: impl Fn() -> String + Send + Sync + 'static,
    ) -> Route {
        Route {
            path,
            content_type,
            render: Box::new(render),
        }
    }
}

/// The running scrape endpoint. Serves `GET /metrics` (Prometheus text
/// format) from the registry plus any extra [`Route`]s; everything else is
/// 404. Stop with [`MetricsServer::stop`] (dropping also stops it).
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind an ephemeral loopback port and start serving.
    pub fn start(registry: Arc<Registry>, routes: Vec<Route>) -> std::io::Result<MetricsServer> {
        MetricsServer::bind("127.0.0.1:0", registry, routes)
    }

    /// Bind `addr` and start serving.
    pub fn bind(
        addr: &str,
        registry: Arc<Registry>,
        routes: Vec<Route>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Served inline: a scrape is one small request
                            // and one response; no per-connection thread.
                            let _ = serve_request(stream, &registry, &routes);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(MetricsServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (scrape at `http://{addr}/metrics`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serve thread.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Time a client has to send its whole request head, counted from accept.
/// A scraper sends it in one packet; a client still trickling bytes after
/// this is answered with what it sent, so it cannot hold the one serve
/// thread.
const HEADER_DEADLINE: Duration = Duration::from_secs(1);

/// Bound on each response write, so a client that stops reading cannot
/// hold the serve thread either.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

fn serve_request(
    mut stream: TcpStream,
    registry: &Registry,
    routes: &[Route],
) -> std::io::Result<()> {
    let deadline = Instant::now() + HEADER_DEADLINE;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Read until the header terminator; a scrape request has no body.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 16 * 1024 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(remaining))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        )
    } else if path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4",
            registry.render_prometheus(),
        )
    } else if let Some(route) = routes.iter().find(|r| r.path == path) {
        ("200 OK", route.content_type, (route.render)())
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Minimal one-shot HTTP GET: returns the response body, failing on any
/// status other than 200. `addr` is `host:port`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("HTTP error: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_health_and_404() {
        let registry = Arc::new(Registry::new());
        registry.counter("up_total", "liveness", &[]).add(3);
        let server = MetricsServer::start(
            registry.clone(),
            vec![Route::new("/health", "application/json", || {
                "{\"ok\":true}".to_string()
            })],
        )
        .unwrap();
        let addr = server.addr().to_string();

        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("# TYPE up_total counter"));
        assert!(metrics.contains("up_total 3"));

        let health = http_get(&addr, "/health").unwrap();
        assert_eq!(health, "{\"ok\":true}");

        assert!(http_get(&addr, "/nope").is_err());
    }

    /// Send raw bytes and return the full response (status line included),
    /// for the error paths `http_get` deliberately hides.
    fn raw_request(addr: &str, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(request).unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn unknown_path_is_a_404_not_a_hang() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::start(registry, Vec::new()).unwrap();
        let addr = server.addr().to_string();
        let response = raw_request(&addr, b"GET /definitely-not-a-route HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        assert!(response.contains("not found"));
        // The server is still alive for the next scrape.
        assert!(http_get(&addr, "/metrics").is_ok());
    }

    #[test]
    fn malformed_request_lines_get_an_error_response() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::start(registry, Vec::new()).unwrap();
        let addr = server.addr().to_string();
        // No method/path at all, binary junk, and a bodyless POST — each
        // must produce a well-formed error response and leave the server
        // serving.
        for junk in [
            &b"\r\n\r\n"[..],
            &b"\x00\x01\x02\xff\r\n\r\n"[..],
            &b"POST /metrics HTTP/1.1\r\n\r\n"[..],
        ] {
            let response = raw_request(&addr, junk);
            assert!(response.starts_with("HTTP/1.1 405"), "{response:?}");
        }
        assert!(http_get(&addr, "/metrics").is_ok());
    }

    #[test]
    fn a_trickling_client_cannot_starve_the_scrape() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::start(registry, Vec::new()).unwrap();
        let addr = server.addr().to_string();
        // One byte every 100 ms: each read completes well inside any
        // per-read timeout, so only a per-request deadline ends it.
        let trickle = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(&addr).unwrap();
                for _ in 0..150 {
                    if stream.write_all(b"G").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        // Let the serve thread pick up the trickling connection first.
        std::thread::sleep(Duration::from_millis(200));
        http_get(&addr, "/metrics").unwrap();
        trickle.join().unwrap();
    }

    #[test]
    fn concurrent_scrapes_each_see_a_consistent_snapshot() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("scrapes_total", "", &[]);
        counter.add(5);
        let server = MetricsServer::start(registry.clone(), Vec::new()).unwrap();
        let addr = server.addr().to_string();
        // Writers keep incrementing while N clients scrape concurrently;
        // every scrape must parse cleanly and report a value within the
        // live counter's range at the time of the scrape.
        let writer = {
            let counter = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..1_000 {
                    counter.inc();
                }
            })
        };
        let scrapers: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || http_get(&addr, "/metrics").unwrap())
            })
            .collect();
        let bodies: Vec<String> = scrapers.into_iter().map(|h| h.join().unwrap()).collect();
        writer.join().unwrap();
        for body in bodies {
            let scrape = crate::parse_exposition(&body);
            let sample = scrape
                .samples
                .iter()
                .find(|s| s.name == "scrapes_total")
                .expect("counter present in every scrape");
            let v = sample.value as u64;
            assert!((5..=1_005).contains(&v), "out-of-range snapshot: {v}");
        }
        assert_eq!(counter.get(), 1_005);
    }

    #[test]
    fn stop_joins_the_serve_thread() {
        let registry = Arc::new(Registry::new());
        let mut server = MetricsServer::start(registry, Vec::new()).unwrap();
        let addr = server.addr().to_string();
        assert!(http_get(&addr, "/metrics").is_ok());
        server.stop();
        // Port is released: connects now fail or reset immediately.
        // (Double-stop is a no-op.)
        server.stop();
    }
}
