//! Minimal hand-rolled HTTP/1.1 framing.
//!
//! Just enough of the protocol for the serve daemon and its CLI
//! clients: one request per connection (every response carries
//! `Connection: close`), `Content-Length` bodies only (no chunked
//! encoding), and bounded head/body sizes so a misbehaving peer cannot
//! balloon memory. Anything outside that envelope is rejected with a
//! parse error that the connection handler turns into a `400`.

use std::io::{self, BufRead, Read, Write};

/// Maximum bytes accepted for the request line plus headers.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum bytes accepted for a request body (a spec JSON is < 1 KB).
const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request path including any query string, as sent.
    pub path: String,
    /// Headers with names lowercased and values trimmed.
    pub headers: Vec<(String, String)>,
    /// Decoded UTF-8 body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one head line (through its `\n`) and charges it to `budget`,
/// the head bytes still allowed. At most `budget` bytes are buffered, so
/// a peer that streams bytes without a newline cannot grow the line
/// without limit.
fn head_line<R: BufRead>(reader: &mut R, budget: &mut u64) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.by_ref().take(*budget).read_line(&mut line)?;
    *budget -= n as u64;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(invalid("request head too large"));
    }
    Ok(line)
}

/// Reads and parses one request from `reader`.
///
/// # Errors
///
/// I/O errors pass through; protocol violations (malformed request
/// line or header, oversized head/body, non-UTF-8 body) surface as
/// [`io::ErrorKind::InvalidData`] with a human-readable message.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Request> {
    let mut budget = MAX_HEAD as u64;
    let line = head_line(reader, &mut budget)?;
    if line.is_empty() {
        return Err(invalid("empty request"));
    }
    let mut parts = line.trim_end().split(' ');
    let method = parts.next().filter(|m| !m.is_empty()).ok_or_else(|| invalid("missing method"))?;
    let path = parts.next().ok_or_else(|| invalid("missing request path"))?;
    let version = parts.next().ok_or_else(|| invalid("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported protocol version `{version}`")));
    }
    let (method, path) = (method.to_string(), path.to_string());
    let mut headers = Vec::new();
    loop {
        let header = head_line(reader, &mut budget)?;
        if header.is_empty() {
            return Err(invalid("connection closed inside headers"));
        }
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(invalid(format!("malformed header line `{trimmed}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => {
            v.parse::<usize>().map_err(|_| invalid(format!("bad Content-Length `{v}`")))?
        }
    };
    if length > MAX_BODY {
        return Err(invalid(format!("body of {length} bytes exceeds the {MAX_BODY} cap")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
    Ok(Request { method, path, headers, body })
}

/// One HTTP response: status, extra headers, and a complete body
/// (streaming endpoints write their own frames instead).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    /// A JSON response (`Content-Type: application/json`).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// A JSON error response with the message under an `"error"` key.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\": {}}}\n", interleave_obs::json::escape(message)),
        )
    }

    /// Appends a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The response body (tests inspect it).
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Serializes the response (status line, headers, `Content-Length`,
    /// `Connection: close`, body) onto `writer`.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        write!(writer, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        write!(writer, "Content-Length: {}\r\nConnection: close\r\n\r\n", self.body.len())?;
        writer.write_all(self.body.as_bytes())?;
        writer.flush()
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> io::Result<Request> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_get_and_post() {
        let get = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!((get.method.as_str(), get.path.as_str()), ("GET", "/healthz"));
        assert_eq!(get.header("host"), Some("x"));
        assert_eq!(get.body, "");

        let post = parse("POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n").unwrap();
        assert_eq!(post.method, "POST");
        assert_eq!(post.body, "{\"a\": 1}\n");
    }

    #[test]
    fn rejects_malformed_requests() {
        for (raw, why) in [
            ("", "empty"),
            ("GET\r\n\r\n", "no path"),
            ("GET /x SPDY/9\r\n\r\n", "bad version"),
            ("GET /x HTTP/1.1\r\nnocolon\r\n\r\n", "bad header"),
            ("POST /x HTTP/1.1\r\nContent-Length: zap\r\n\r\n", "bad length"),
            ("POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", "truncated body"),
        ] {
            assert!(parse(raw).is_err(), "{why} should fail");
        }
    }

    #[test]
    fn caps_head_and_body() {
        let huge_header = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(MAX_HEAD));
        assert!(parse(&huge_header).is_err());
        let huge_body = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(&huge_body).is_err());
    }

    /// Counts the bytes its reader hands out.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// A peer that streams bytes without a newline is cut off after the
    /// head budget, not buffered until it stops.
    #[test]
    fn unterminated_head_is_cut_off_at_the_cap() {
        let endless = Counting { inner: io::repeat(b'A').take(8 << 20), read: 0 };
        let mut reader = io::BufReader::new(endless);
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let consumed = reader.get_ref().read;
        assert!(consumed <= MAX_HEAD + reader.capacity(), "consumed {consumed} bytes");
        // The same holds for an endless header line.
        let endless = Counting {
            inner: io::Read::chain(
                &b"GET / HTTP/1.1\r\nX-Pad: "[..],
                io::repeat(b'y').take(8 << 20),
            ),
            read: 0,
        };
        let mut reader = io::BufReader::new(endless);
        assert_eq!(read_request(&mut reader).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(reader.get_ref().read <= MAX_HEAD + reader.capacity());
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}").with_header("Retry-After", "1").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        let err = Response::error(429, "queue full");
        assert_eq!(err.body(), "{\"error\": \"queue full\"}\n");
    }
}
