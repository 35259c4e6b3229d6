//! A keep-alive HTTP/1.1 client that times each phase of a round trip.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response and where its round trip spent its time (milliseconds).
#[derive(Debug)]
pub struct Response {
    pub start: Instant,
    pub status: u16,
    pub body: String,
    /// Writing the request into the socket.
    pub write_ms: f64,
    /// From the end of the write to the first response byte.
    pub ttfb_ms: f64,
    /// From the first response byte to the end of the body.
    pub body_ms: f64,
}

/// A persistent connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.roundtrip(raw.as_bytes())
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.roundtrip(raw.as_bytes())
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn roundtrip(&mut self, raw: &[u8]) -> io::Result<Response> {
        let t0 = Instant::now();
        self.stream.write_all(raw)?;
        let t1 = Instant::now();
        self.buf.clear();
        self.fill()?;
        let t2 = Instant::now();
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            self.fill()?;
        }
        let t3 = Instant::now();
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        Ok(Response {
            start: t0,
            status,
            body,
            write_ms: ms(t1 - t0),
            ttfb_ms: ms(t2 - t1),
            body_ms: ms(t3 - t2),
        })
    }
}

/// The number after `"key":` in a flat JSON text, parsed as written (so an
/// `f64` keeps every bit the server printed).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of a Prometheus sample line `name{labels} value` (or
/// `name value`), matched on the text before the value.
pub fn prom_sample(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (key, value) = line.rsplit_once(' ')?;
        (key == series).then(|| value.parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_keeps_every_bit() {
        let eps = 2.2987063953982242e-1_f64;
        let text =
            format!("{{\"ok\":true,\"report\":{{\"error_bound\":{eps:e},\"sdp_solves\":0}}}}");
        assert_eq!(
            json_number(&text, "error_bound").map(f64::to_bits),
            Some(eps.to_bits())
        );
        assert_eq!(json_number(&text, "sdp_solves"), Some(0.0));
        assert_eq!(json_number(&text, "missing"), None);
    }

    #[test]
    fn prom_sample_reads_a_labelled_series() {
        let text = "# TYPE x histogram\nx_sum{endpoint=\"analyze\"} 0.125\nx_count{endpoint=\"analyze\"} 250\n";
        assert_eq!(
            prom_sample(text, "x_sum{endpoint=\"analyze\"}"),
            Some(0.125)
        );
        assert_eq!(
            prom_sample(text, "x_count{endpoint=\"analyze\"}"),
            Some(250.0)
        );
        assert_eq!(prom_sample(text, "x_count{endpoint=\"batch\"}"), None);
    }
}
