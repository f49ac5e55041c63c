//! A minimal HTTP/1.1 client for the daemon's loopback API.
//!
//! The benchmark owns its client instead of borrowing the program's, so a
//! change to the program's own client code cannot move what is measured
//! here. One request per connection (`Connection: close`), like the
//! daemon's server side.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one request and reads the whole response.
///
/// Returns the status code and the response body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::with_capacity(16 << 10);
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 header"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// `GET path`, expecting a 200; the body as text.
pub fn get_ok(addr: SocketAddr, path: &str, timeout: Duration) -> Result<String, String> {
    match request(addr, "GET", path, &[], timeout) {
        Ok((200, body)) => {
            String::from_utf8(body).map_err(|_| format!("GET {path}: non-UTF-8 body"))
        }
        Ok((status, body)) => Err(format!(
            "GET {path}: status {status}: {}",
            String::from_utf8_lossy(&body).trim()
        )),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}
