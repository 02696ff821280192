//! The benchmark's own HTTP/1.1 load client over `std::net`.
//!
//! One keep-alive connection with `Content-Length` framing and a read
//! buffer that lives as long as the connection.  When the server answers
//! `Connection: close` (it ends every connection after 10,000 requests)
//! the connection is dropped and the next request reconnects, so the
//! reconnect is charged to the op that needs it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status, `X-Cache` verdict, body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// `Some(true)` for `X-Cache: hit`, `Some(false)` for `miss`.
    pub cache_hit: Option<bool>,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    request: Vec<u8>,
    line: String,
    /// Connections opened after the first.
    pub reconnects: u64,
    opened: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            request: Vec::with_capacity(4096),
            line: String::with_capacity(256),
            reconnects: 0,
            opened: 0,
        }
    }

    /// Opens the connection now (instead of on the first request).
    pub fn connect(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
            self.conn = Some((stream, reader));
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
        }
        Ok(())
    }

    /// Sends one request and reads its response.  Any socket or framing
    /// error drops the connection.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.connect()?;
        let result = self.exchange(method, path, body);
        match &result {
            Ok((_, true)) | Err(_) => self.conn = None,
            Ok((_, false)) => {}
        }
        result.map(|(response, _)| response)
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(Response, bool)> {
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body.as_bytes());
        stream.write_all(&self.request)?;

        self.line.clear();
        if reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut content_length = None;
        let mut close = false;
        let mut cache_hit = None;
        loop {
            self.line.clear();
            if reader.read_line(&mut self.line)? == 0 {
                return Err(invalid("connection closed inside the head"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(invalid("malformed header line"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| invalid("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-cache") {
                cache_hit = Some(value.eq_ignore_ascii_case("hit"));
            }
        }
        let length = content_length.ok_or_else(|| invalid("response without Content-Length"))?;
        if length > 64 << 20 {
            return Err(invalid("response body over 64 MiB"));
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        Ok((
            Response {
                status,
                cache_hit,
                body,
            },
            close,
        ))
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted server: answers each request on one connection with the
    /// next canned response, then closes when the script says so.
    fn serve(script: Vec<(&'static str, bool)>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut connections = 0;
            let mut script = script.into_iter().peekable();
            while script.peek().is_some() {
                let (stream, _) = listener.accept().unwrap();
                connections += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for (body, close) in script.by_ref() {
                    let mut len = 0;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if line.trim_end().is_empty() {
                            break;
                        }
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            len = v.trim().parse().unwrap();
                        }
                    }
                    let mut req = vec![0; len];
                    reader.read_exact(&mut req).unwrap();
                    let conn = if close { "close" } else { "keep-alive" };
                    write!(
                        writer,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {conn}\r\n\
                         X-Cache: hit\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                    if close {
                        break;
                    }
                }
            }
            connections
        });
        (addr, handle)
    }

    #[test]
    fn keeps_alive_and_reconnects_after_close() {
        let (addr, server) = serve(vec![("one", false), ("two", true), ("three", false)]);
        let mut client = Client::new(addr);
        let bodies: Vec<Vec<u8>> = (0..3)
            .map(|_| client.send("POST", "/x", "{}").unwrap().body)
            .collect();
        assert_eq!(
            bodies,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert_eq!(client.reconnects, 1);
        drop(client);
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn reads_the_cache_header() {
        let (addr, server) = serve(vec![("{}", true)]);
        let mut client = Client::new(addr);
        let response = client.send("GET", "/metrics", "").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.cache_hit, Some(true));
        server.join().unwrap();
    }
}
