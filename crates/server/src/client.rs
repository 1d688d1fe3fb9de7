//! Minimal HTTP client over [`std::net::TcpStream`] for the serve
//! daemon's own CLI (`submit`, `poll`) and tests.
//!
//! Matches the server's framing: one request per connection, explicit
//! `Content-Length`, and newline-delimited streaming reads for the
//! `/jobs/<id>/events` endpoint.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One complete HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with names lowercased and values trimmed.
    pub headers: Vec<(String, String)>,
    /// Full body.
    pub body: String,
}

impl HttpResponse {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Generous guard rails so a wedged peer cannot hang a CLI client
    // forever; streaming reads override the read timeout themselves.
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

fn send_request(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    // Status line: `HTTP/1.1 200 OK`.
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("bad status line `{}`", line.trim_end())))?;
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(invalid("connection closed inside response headers".into()));
        }
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(invalid(format!("malformed response header `{trimmed}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((status, headers))
}

/// Performs one request against `addr` (a `host:port` authority) and
/// reads the complete response.
///
/// # Errors
///
/// Connection, I/O, and malformed-response errors.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, addr, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut body = String::new();
    match length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            body = String::from_utf8(buf)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        }
        // `Connection: close` framing: the body runs to EOF.
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok(HttpResponse { status, headers, body })
}

/// `GET` convenience wrapper around [`request`].
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> io::Result<HttpResponse> {
    request(addr, "GET", path, None)
}

/// `POST` convenience wrapper around [`request`].
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
    request(addr, "POST", path, Some(body))
}

/// Opens a streaming `GET` (e.g. `/jobs/<id>/events`) and calls
/// `on_line` for every newline-delimited frame until the callback
/// returns `false` or the server closes the stream. Returns the number
/// of frames delivered.
///
/// # Errors
///
/// Connection and I/O errors; a non-200 status surfaces as
/// [`io::ErrorKind::Other`] with the status and body in the message.
pub fn stream_lines(
    addr: &str,
    path: &str,
    mut on_line: impl FnMut(&str) -> bool,
) -> io::Result<usize> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, addr, "GET", path, None)?;
    // Streams idle between cells; wait patiently but not forever.
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    let mut reader = BufReader::new(stream);
    let (status, _) = read_head(&mut reader)?;
    if status != 200 {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        return Err(io::Error::other(format!("HTTP {status}: {}", body.trim_end())));
    }
    let mut frames = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(frames);
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        frames += 1;
        if !on_line(trimmed) {
            return Ok(frames);
        }
    }
}
