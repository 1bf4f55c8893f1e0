//! A minimal synchronous client for the `helix serve` protocol.
//!
//! Works over anything `Read + Write` — a `UnixStream` for the socket mode, or a
//! child process's stdin/stdout pair for the batch mode (see
//! [`Client::from_halves`]). Used by the CLI smoke test and the benchmark.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::protocol::{read_frame, write_frame, Request, Response};

/// A framed connection to a daemon.
pub struct Client<R, W> {
    reader: R,
    writer: W,
}

impl Client<std::os::unix::net::UnixStream, std::os::unix::net::UnixStream> {
    /// Connects to a daemon's Unix socket.
    pub fn connect_unix(path: &Path) -> io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader,
            writer: stream,
        })
    }
}

impl<R: Read, W: Write> Client<R, W> {
    /// Wraps independent read/write halves (e.g. a child's stdout/stdin).
    pub fn from_halves(reader: R, writer: W) -> Self {
        Client { reader, writer }
    }

    /// Sends a request frame without waiting for the response (responses arrive in
    /// completion order; match them to requests by id).
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, &request.encode())
    }

    /// Reads the next response frame; `None` at EOF.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        match read_frame(&mut self.reader)? {
            Some(payload) => Response::parse(&payload)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            None => Ok(None),
        }
    }

    /// Sends one request and blocks for the next response. Only safe when no other
    /// requests are in flight on this connection (otherwise ids may interleave).
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection"))
    }
}
