//! Pluggable transports carrying [`NetOp`] messages.
//!
//! The serve host and its clients speak in whole messages; a
//! [`Transport`] hides how those messages move. Three implementations
//! ship:
//!
//! * [`ChannelTransport`] — in-memory queues, for tests and in-process
//!   load generation (no threads required).
//! * [`FramedTransport`] over stdio — the `mcps-serve` binary's default
//!   ([`FramedTransport::stdio`]), speaking the [`crate::wire`] codec.
//! * [`FramedTransport`] over TCP — one connected socket per bed
//!   ([`FramedTransport::tcp`]).
//!
//! All receives are non-blocking (`try_recv`), because both host and
//! client own a clock-driven loop that must keep ticking regardless of
//! traffic.

use crate::wire::{encode_frame_into, FrameDecoder};
use mcps_core::msg::NetOp;
use std::io::{Read, Write};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone (EOF, broken pipe, disconnected channel).
    /// Permanent: further operations will keep failing.
    Closed,
    /// An I/O error other than closure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional message pipe.
pub trait Transport {
    /// Sends one message to the peer.
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError>;

    /// Receives the next pending message, if any, without blocking.
    /// `Ok(None)` means "nothing right now"; [`TransportError::Closed`]
    /// means the peer is gone for good (pending messages are still
    /// drained first).
    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError>;
}

/// An in-memory transport half; create a connected pair with
/// [`ChannelTransport::pair`].
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<NetOp>,
    rx: Receiver<NetOp>,
}

impl ChannelTransport {
    /// Two connected halves: everything sent on one is received on the
    /// other, in order.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (ChannelTransport { tx: atx, rx: arx }, ChannelTransport { tx: btx, rx: brx })
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        self.tx.send(op.clone()).map_err(|_| TransportError::Closed)
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        match self.rx.try_recv() {
            Ok(op) => Ok(Some(op)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

/// A transport speaking the [`crate::wire`] frame codec over a byte
/// stream. Each send encodes into one reused buffer and writes the
/// whole frame to the writer, flushed, before it returns; reads
/// happen on a background thread that decodes frames and hands them
/// over a queue, keeping [`Transport::try_recv`] non-blocking even on
/// blocking streams like stdin or sockets.
pub struct FramedTransport<W: Write> {
    writer: W,
    /// The encode buffer, reused by every send.
    frame: Vec<u8>,
    rx: Receiver<NetOp>,
    closed: bool,
}

impl<W: Write> std::fmt::Debug for FramedTransport<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedTransport").field("closed", &self.closed).finish()
    }
}

impl<W: Write> FramedTransport<W> {
    /// Wraps a reader/writer pair. The reader moves to a background
    /// thread; decoded frames queue until drained. Garbage on the
    /// stream is skipped by the codec (see [`crate::wire`]).
    pub fn new<R: Read + Send + 'static>(reader: R, writer: W) -> Self {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || read_loop(reader, &tx));
        FramedTransport { writer, frame: Vec::new(), rx, closed: false }
    }
}

fn read_loop<R: Read>(mut reader: R, tx: &Sender<NetOp>) {
    let mut dec = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                dec.push(&chunk[..n]);
                while let Some(op) = dec.next_frame() {
                    if tx.send(op).is_err() {
                        return;
                    }
                }
            }
        }
    }
}

impl FramedTransport<std::io::Stdout> {
    /// The process's stdin/stdout as a framed transport — how the
    /// `mcps-serve` binary talks to whoever spawned it.
    pub fn stdio() -> Self {
        FramedTransport::new(std::io::stdin(), std::io::stdout())
    }
}

impl FramedTransport<std::net::TcpStream> {
    /// A connected TCP stream as a framed transport (the read half is
    /// a [`std::net::TcpStream::try_clone`] of the socket). Sets
    /// `TCP_NODELAY`: every frame is written whole, so Nagle's
    /// algorithm would only hold small frames back for the peer's
    /// delayed ACK.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the socket cannot be configured
    /// or cloned.
    pub fn tcp(stream: std::net::TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(FramedTransport::new(reader, stream))
    }
}

impl<W: Write> Transport for FramedTransport<W> {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        encode_frame_into(op, &mut self.frame);
        let res = self.writer.write_all(&self.frame).and_then(|()| self.writer.flush());
        if let Err(e) = res {
            // A broken pipe means the peer died (the crash harness
            // relies on surviving exactly this); everything else is a
            // plain I/O error.
            return if e.kind() == std::io::ErrorKind::BrokenPipe {
                self.closed = true;
                Err(TransportError::Closed)
            } else {
                Err(TransportError::Io(e.to_string()))
            };
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        match self.rx.try_recv() {
            Ok(op) => Ok(Some(op)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_core::msg::{NetAddress, NetPayload};
    use mcps_core::IceCommand;
    use mcps_net::fabric::EndpointId;

    fn cmd(id: u64) -> NetOp {
        NetOp::Send {
            from: EndpointId::from_index(3),
            to: NetAddress::Endpoint(EndpointId::from_index(2)),
            payload: NetPayload::Command { id, epoch: 1, command: IceCommand::StopPump },
        }
    }

    #[test]
    fn channel_pair_roundtrips_in_order() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&cmd(1)).unwrap();
        a.send(&cmd(2)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(cmd(1)));
        assert_eq!(b.try_recv().unwrap(), Some(cmd(2)));
        assert_eq!(b.try_recv().unwrap(), None);
    }

    #[test]
    fn channel_close_is_reported_after_drain() {
        let (a, mut b) = ChannelTransport::pair();
        drop(a);
        assert_eq!(b.try_recv(), Err(TransportError::Closed));
    }

    #[test]
    fn tcp_framed_roundtrip() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind loopback in this environment");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTransport::tcp(stream).unwrap();
            assert!(t.writer.nodelay().unwrap(), "accepted socket must set TCP_NODELAY");
            // Echo two messages back.
            let mut echoed = 0;
            while echoed < 2 {
                if let Ok(Some(op)) = t.try_recv() {
                    t.send(&op).unwrap();
                    echoed += 1;
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut t = FramedTransport::tcp(stream).unwrap();
        assert!(t.writer.nodelay().unwrap(), "connected socket must set TCP_NODELAY");
        t.send(&cmd(1)).unwrap();
        t.send(&cmd(2)).unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            match t.try_recv() {
                Ok(Some(op)) => got.push(op),
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(e) => panic!("transport failed: {e}"),
            }
        }
        assert_eq!(got, vec![cmd(1), cmd(2)]);
        server.join().unwrap();
    }
}
