//! The benchmark's own HTTP/1.1 client and the daemon's lifecycle,
//! std only. The client is deliberately not the `serve` crate's: a
//! benchmark that shares the server's framing code could not notice
//! when that code breaks the wire format.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Splits a byte stream into lines. Bytes are buffered until a newline
/// arrives, so chunk boundaries may fall anywhere, including inside a
/// multi-byte UTF-8 sequence (a newline byte never occurs inside one).
#[derive(Default)]
struct Lines {
    pending: Vec<u8>,
    scanned: usize,
}

impl Lines {
    fn push(
        &mut self,
        bytes: &[u8],
        on_line: &mut impl FnMut(&str) -> io::Result<()>,
    ) -> io::Result<()> {
        self.pending.extend_from_slice(bytes);
        while let Some(pos) = self.pending[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        {
            let end = self.scanned + pos;
            let line = self.pending[..end]
                .strip_suffix(b"\r")
                .unwrap_or(&self.pending[..end]);
            on_line(std::str::from_utf8(line).map_err(|_| bad("response line is not UTF-8"))?)?;
            self.pending.drain(..=end);
            self.scanned = 0;
        }
        self.scanned = self.pending.len();
        Ok(())
    }

    fn finish(self, on_line: &mut impl FnMut(&str) -> io::Result<()>) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        on_line(std::str::from_utf8(&self.pending).map_err(|_| bad("response line is not UTF-8"))?)
    }
}

/// Reads one response from `reader`, calling `on_line` once per body
/// line as it arrives. Handles `Content-Length`, chunked, and
/// read-to-close bodies. Returns the status and the body's size in
/// bytes on the wire (chunk framing included).
pub fn read_response<R: BufRead>(
    reader: &mut R,
    mut on_line: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<(u16, u64)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            bad(format!(
                "malformed status line `{}`",
                status_line.trim_end()
            ))
        })?;
    let mut content_length: Option<u64> = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside the response head"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.trim().eq_ignore_ascii_case("chunked");
            }
        }
    }
    let mut lines = Lines::default();
    let mut wire = 0u64;
    if chunked {
        loop {
            let mut size_line = String::new();
            let n = reader.read_line(&mut size_line)?;
            if n == 0 {
                return Err(bad("connection closed inside a chunked body"));
            }
            wire += n as u64;
            let digits = size_line.trim_end().split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(digits, 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                // Trailer section: header lines up to an empty line.
                loop {
                    let mut trailer = String::new();
                    let n = reader.read_line(&mut trailer)?;
                    wire += n as u64;
                    if n == 0 || trailer.trim_end().is_empty() {
                        break;
                    }
                }
                break;
            }
            let mut chunk = vec![0u8; size + 2];
            reader.read_exact(&mut chunk)?;
            wire += chunk.len() as u64;
            if &chunk[size..] != b"\r\n" {
                return Err(bad("chunk not terminated by CRLF"));
            }
            lines.push(&chunk[..size], &mut on_line)?;
        }
    } else {
        let mut body = Vec::new();
        match content_length {
            Some(n) => {
                reader.take(n).read_to_end(&mut body)?;
                if body.len() as u64 != n {
                    return Err(bad("connection closed inside the body"));
                }
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
        wire = body.len() as u64;
        lines.push(&body, &mut on_line)?;
    }
    lines.finish(&mut on_line)?;
    Ok((status, wire))
}

/// One exchange on a fresh connection, streaming the body's lines.
pub fn stream(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    on_line: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<(u16, u64)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut writer = &stream;
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;
    read_response(&mut BufReader::new(&stream), on_line)
}

/// One exchange, returning the status and the whole body.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut text = String::new();
    let (status, _) = stream(addr, method, path, body, |line| {
        text.push_str(line);
        text.push('\n');
        Ok(())
    })?;
    Ok((status, text))
}

/// A running `anafault-serve` child with its own state directory. Drop
/// kills it, waits for it and removes the directory, so every exit path
/// (early return, `?`, panic unwinding) cleans up.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    state_dir: PathBuf,
}

/// Extracts the address from the daemon's
/// `anafault-serve listening on <addr> (state dir <dir>)` line.
fn listening_addr(line: &str) -> Option<&str> {
    line.split_once("listening on ")?
        .1
        .split_whitespace()
        .next()
}

impl Daemon {
    /// Starts `exe` on an ephemeral loopback port with `workers`
    /// simulation threads and a fresh `state_dir`, and waits until
    /// `/healthz` answers 200.
    pub fn start(exe: &Path, workers: usize, state_dir: PathBuf) -> io::Result<Daemon> {
        if state_dir.exists() {
            fs::remove_dir_all(&state_dir)?;
        }
        fs::create_dir_all(&state_dir)?;
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            // Keeps the state directory small on long runs; retention
            // is what a long-lived deployment would configure.
            .args(["--retain", "8", "--state-dir"])
            .arg(&state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .inspect_err(|_| {
                fs::remove_dir_all(&state_dir).ok();
            })?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
            state_dir,
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line)?;
        daemon.addr = listening_addr(&line)
            .ok_or_else(|| {
                bad(format!(
                    "daemon did not announce its address: `{}`",
                    line.trim_end()
                ))
            })?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(&daemon.addr, "GET", "/healthz", "") {
                Ok((200, _)) => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Ok((status, _)) => return Err(bad(format!("/healthz answered {status}"))),
                Err(e) => return Err(e),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        fs::remove_dir_all(&self.state_dir).ok();
        if let Some(parent) = self.state_dir.parent() {
            // Succeeds only once the last daemon's directory is gone.
            fs::remove_dir(parent).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn chunked(parts: &[&[u8]]) -> Vec<u8> {
        let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for part in parts {
            wire.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
            wire.extend_from_slice(part);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        wire
    }

    fn collect(wire: &[u8]) -> io::Result<(u16, u64, Vec<String>)> {
        let mut lines = Vec::new();
        let (status, bytes) = read_response(&mut Cursor::new(wire), |l| {
            lines.push(l.to_string());
            Ok(())
        })?;
        Ok((status, bytes, lines))
    }

    #[test]
    fn chunks_splitting_lines_and_utf8_sequences() {
        let body = "{\"label\": \"BRI métal1 → 5\"}\n{\"event\": \"result\"}\n".as_bytes();
        let expected = vec![
            "{\"label\": \"BRI métal1 → 5\"}".to_string(),
            "{\"event\": \"result\"}".to_string(),
        ];
        // Every split point, including inside `é` (2 bytes) and `→` (3).
        for cut in 1..body.len() {
            let wire = chunked(&[&body[..cut], &body[cut..]]);
            let (status, bytes, lines) = collect(&wire).unwrap();
            assert_eq!(status, 200);
            assert_eq!(lines, expected, "cut at {cut}");
            assert_eq!(bytes as usize, wire.len() - 47, "cut at {cut}");
        }
        // One byte per chunk.
        let parts: Vec<&[u8]> = body.chunks(1).collect();
        assert_eq!(collect(&chunked(&parts)).unwrap().2, expected);
    }

    #[test]
    fn content_length_body_and_unterminated_last_line() {
        let wire = b"HTTP/1.1 201 Created\r\nContent-Length: 17\r\n\r\n{\"id\": \"c1\"}\nlast";
        let (status, bytes, lines) = collect(wire).unwrap();
        assert_eq!((status, bytes), (201, 17));
        assert_eq!(lines, vec!["{\"id\": \"c1\"}", "last"]);
    }

    #[test]
    fn truncated_and_malformed_bodies_are_errors() {
        let mut wire = chunked(&[b"abc\n"]);
        wire.truncate(wire.len() - 5);
        assert!(collect(&wire).is_err(), "missing last chunk");
        assert!(collect(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc").is_err());
        assert!(collect(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n").is_err());
        assert!(collect(b"garbage\r\n\r\n").is_err());
        // A chunk whose payload is not followed by CRLF.
        assert!(
            collect(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabcd").is_err()
        );
    }

    #[test]
    fn listening_line_parses() {
        let line = "anafault-serve listening on 127.0.0.1:40123 (state dir /x)\n";
        assert_eq!(listening_addr(line), Some("127.0.0.1:40123"));
        assert_eq!(listening_addr("something else"), None);
    }
}
