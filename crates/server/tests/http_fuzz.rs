//! Fuzzing the daemon's request boundary: random bytes, and truncations,
//! byte flips and splices of valid `GET` and `POST /jobs` requests, go
//! through [`http::read_request`] and, where a body comes out, through
//! [`json::parse`], [`JobRequest::from_value`] and [`JobRequest::to_spec`].
//! Every input must come back as `Ok` or `Err` — never a panic — and a
//! live daemon fed damaged requests must keep answering `/healthz`.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use interleave_obs::json;
use interleave_server::http::read_request;
use interleave_server::job::JobRequest;
use interleave_server::{client, Server, ServerConfig};
use proptest::prelude::*;

/// Valid requests of every shape the daemon serves.
fn corpus() -> Vec<Vec<u8>> {
    let post = |body: &str| {
        format!(
            "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1:4994\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
    };
    [
        "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:4994\r\nConnection: close\r\n\r\n".to_string(),
        "GET /jobs/1/events HTTP/1.1\r\nHost: x\r\n\r\n".to_string(),
        post("{\"artifact\": \"smoke\", \"seed\": 42}"),
        post("{\"artifact\": \"table7\", \"scale\": \"ci\", \"seed\": 7, \"jobs\": 2, \"mp_jobs\": 4}"),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

/// How a valid request is damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Keep the first `n` bytes (modulo the length).
    Truncate(usize),
    /// XOR the byte at `at` with `mask`.
    Flip { at: usize, mask: u8 },
    /// Copy `len` bytes from `from` over the bytes at `to`.
    Splice { from: usize, to: usize, len: usize },
    /// Insert `byte` at `at`.
    Insert { at: usize, byte: u8 },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        (any::<usize>(), any::<usize>(), 1usize..16).prop_map(|(from, to, len)| Damage::Splice {
            from,
            to,
            len
        }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Insert { at, byte }),
    ]
}

fn apply(raw: &mut Vec<u8>, d: Damage) {
    let n = raw.len();
    match d {
        Damage::Truncate(keep) => raw.truncate(keep % (n + 1)),
        Damage::Flip { at, mask } => raw[at % n] ^= mask,
        Damage::Splice { from, to, len } => {
            let (from, to) = (from % n, to % n);
            let len = len.min(n - from).min(n - to);
            raw.copy_within(from..from + len, to);
        }
        Damage::Insert { at, byte } => raw.insert(at % (n + 1), byte),
    }
}

fn damaged(pick: usize, damages: &[Damage]) -> Vec<u8> {
    let mut raw = corpus().swap_remove(pick);
    for &d in damages {
        if raw.is_empty() {
            break;
        }
        apply(&mut raw, d);
    }
    raw
}

/// Runs `raw` through the daemon's request path as far as it parses.
fn serve_path(raw: &[u8]) {
    let Ok(request) = read_request(&mut Cursor::new(raw)) else { return };
    let Ok(doc) = json::parse(&request.body) else { return };
    if let Ok(job) = JobRequest::from_value(&doc) {
        let _ = job.to_spec();
    }
}

#[test]
fn corpus_round_trips_to_specs() {
    for raw in corpus() {
        let request = read_request(&mut Cursor::new(&raw)).expect("valid request parses");
        if request.method == "POST" {
            let doc = json::parse(&request.body).expect("body parses");
            JobRequest::from_value(&doc).unwrap().to_spec().expect("body resolves");
        }
    }
}

#[test]
fn every_truncation_of_the_corpus_returns() {
    for raw in corpus() {
        for keep in 0..raw.len() {
            serve_path(&raw[..keep]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        serve_path(&bytes);
    }

    #[test]
    fn damaged_requests_never_panic(
        pick in 0usize..4,
        damages in proptest::collection::vec(damage(), 1..6),
    ) {
        serve_path(&damaged(pick, &damages));
    }
}

/// Sends one raw request and reads whatever comes back, until the
/// daemon closes the connection or a second passes.
fn send_raw(addr: &str, raw: &[u8]) {
    let Ok(mut stream) = TcpStream::connect(addr) else { return };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.read_to_end(&mut Vec::new());
}

#[test]
fn daemon_keeps_serving_after_damaged_requests() {
    // workers = 0: accepted jobs queue and never run.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_depth: 4,
        workers: 0,
        cache_dir: None,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let plan: [(usize, &[Damage]); 8] = [
        (0, &[Damage::Truncate(20)]),
        (1, &[Damage::Flip { at: 4, mask: 0x80 }]),
        (2, &[Damage::Splice { from: 60, to: 20, len: 15 }]),
        (2, &[Damage::Truncate(90), Damage::Insert { at: 40, byte: 0 }]),
        (3, &[Damage::Flip { at: 55, mask: 0x10 }]),
        (3, &[Damage::Insert { at: 10, byte: b'\n' }]),
        (2, &[Damage::Flip { at: 0, mask: 0xFF }, Damage::Splice { from: 0, to: 70, len: 12 }]),
        (0, &[Damage::Insert { at: 3, byte: 0xC3 }]),
    ];
    for (pick, damages) in plan {
        send_raw(&addr, &damaged(pick, damages));
    }
    let health = client::get(&addr, "/healthz").expect("daemon still answers");
    assert_eq!(health.status, 200, "{}", health.body);
    client::post(&addr, "/shutdown", "").expect("shutdown accepted");
    handle.join().expect("server thread").expect("clean exit");
}
