//! The length-prefixed frame codec for serve-mode transports.
//!
//! A frame is `MAGIC (4 bytes) ++ length (u32 LE) ++ header crc32
//! (u32 LE, over magic ++ length) ++ payload crc32 (u32 LE) ++
//! payload`, where the payload is one [`NetOp`] body. The magic makes
//! the stream self-synchronizing: a decoder that lands mid-frame (or is
//! fed garbage) scans forward to the next magic instead of
//! misinterpreting arbitrary bytes as a length and desynchronizing
//! forever. The scan advances one byte at a time past a bad candidate,
//! so a true frame start inside the skipped region is never jumped
//! over.
//!
//! The CRCs are the chaos-hardening half. The payload checksum: a
//! payload with a few flipped bits may still decode — a lucky flip
//! inside a numeric field would silently alter a command id or fencing
//! epoch (a corrupted high epoch would poison a device's fence and
//! lock every later legitimate supervisor out). The *header* checksum
//! protects the length field itself: without it, one flipped bit in
//! the length makes the decoder trust a phantom frame of up to
//! [`MAX_FRAME`] bytes and stall — buffering, not delivering — until
//! that much real traffic has accumulated behind the corruption. With
//! both checksums a corrupted frame is rejected deterministically and
//! at once, the decoder resyncs, and the protocol's retry/heartbeat
//! machinery covers the loss.
//!
//! # Body formats
//!
//! The hot ops — vitals (`Data`), commands (heartbeats included) and
//! acks, either delivered (`Deliver`) or sent to one endpoint
//! (`Send` to [`NetAddress::Endpoint`]) — always travel as a
//! fixed-layout little-endian body, encoded without allocating and
//! decoded from the borrowed payload slice. Everything else
//! (`Announce`, `Checkpoint`, topic-addressed sends) travels as the
//! JSON serialization of the [`NetOp`]. The first payload byte picks
//! the format: a binary body opens with a tag byte below `0x20` that is
//! not JSON whitespace (`\t`, `\n`, `\r`), which no JSON text can start
//! with. The decoder accepts JSON for every op.
//!
//! | tag    | op                       | fields after the tag                                   | body bytes |
//! |--------|--------------------------|--------------------------------------------------------|-----------:|
//! | `0x01` | `Deliver` + `Data`       | from u32, kind u8, value f64, sampled_at u64           | 22 |
//! | `0x02` | `Deliver` + `Command`    | from u32, id u64, epoch u64, command u8, arg u64       | 30 |
//! | `0x03` | `Deliver` + `Ack`        | from u32, id u64, command u8, arg u64, applied_at u64  | 30 |
//! | `0x04` | `Send` + `Data`          | from u32, to u32, then as `0x01`                       | 26 |
//! | `0x05` | `Send` + `Command`       | from u32, to u32, then as `0x02`                       | 34 |
//! | `0x06` | `Send` + `Ack`           | from u32, to u32, then as `0x03`                       | 34 |
//!
//! Every field is little-endian. `from`/`to` are endpoint indices;
//! times are microseconds ([`SimTime::as_micros`]); `value` is the
//! IEEE-754 bit pattern of the `f64`. `kind` is the vital code (Spo2 0,
//! HeartRate 1, RespRate 2, Etco2 3, BpSystolic 4, BpDiastolic 5,
//! MinuteVentilation 6). `command` is the command code (StopPump 0,
//! ResumePump 1, GrantTicket 2, PauseVentilation 3, ResumeVentilation
//! 4, ArmExposure 5, Expose 6, Heartbeat 7) and `arg` its duration in
//! microseconds — the ticket validity or pause length, and zero for
//! every other command. The decoder is strict: an unknown tag or code,
//! a nonzero `arg` on a command without one, or a body of the wrong
//! length rejects the frame, so every accepted binary body re-encodes
//! to the same bytes.
//!
//! Binary keeps the exact bits of every float, NaN payloads and
//! infinities included. JSON cannot: it writes a non-finite value as
//! `null`, which decodes as NaN.

use mcps_core::msg::{NetAddress, NetOp, NetPayload};
use mcps_core::IceCommand;
use mcps_net::fabric::EndpointId;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};

/// Frame start marker.
pub const MAGIC: [u8; 4] = *b"MCP1";

/// Bytes before the payload: magic, length, header CRC32, payload
/// CRC32.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame payload. Real payloads are a few KiB
/// (profiles are the largest); anything claiming more is corruption.
pub const MAX_FRAME: usize = 1 << 20;

/// CRC-32 lookup table for the reflected IEEE polynomial, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial) over `bytes` — the same
/// checksum the journal uses for its records. One table lookup per
/// byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Binary body tag of a delivered op; add [`DATA`], [`COMMAND`] or
/// [`ACK`].
const TAG_DELIVER: u8 = 0x01;
/// Binary body tag of an endpoint-addressed send; add the payload kind.
const TAG_SEND: u8 = 0x04;
const DATA: u8 = 0;
const COMMAND: u8 = 1;
const ACK: u8 = 2;

/// The longest binary body (`Send` + `Command` or `Ack`).
const MAX_BINARY_BODY: usize = 34;

/// Whether a payload opening with `first` is a binary body: a control
/// byte that is not JSON whitespace, so never the start of JSON text.
const fn is_binary(first: u8) -> bool {
    first < 0x20 && !matches!(first, b'\t' | b'\n' | b'\r')
}

/// Encodes one [`NetOp`] as a framed byte sequence in a fresh buffer.
/// Hot ops cost exactly this one allocation; see
/// [`encode_frame_into`] to reuse a buffer instead.
///
/// # Panics
///
/// Panics if the payload fails to serialize (all wire types are plain
/// data; this cannot happen for well-formed messages).
pub fn encode_frame(op: &NetOp) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + MAX_BINARY_BODY);
    encode_frame_into(op, &mut frame);
    frame
}

/// Encodes one [`NetOp`] as a framed byte sequence into `frame`,
/// replacing its contents. A hot op into a buffer that has held a frame
/// before does not allocate.
///
/// # Panics
///
/// As [`encode_frame`].
pub fn encode_frame_into(op: &NetOp, frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0; HEADER_LEN]);
    if !put_binary_body(op, frame) {
        let body = serde_json::to_string(op).expect("NetOp serializes");
        frame.extend_from_slice(body.as_bytes());
    }
    let len = u32::try_from(frame.len() - HEADER_LEN).expect("frame < 4 GiB");
    frame[..4].copy_from_slice(&MAGIC);
    frame[4..8].copy_from_slice(&len.to_le_bytes());
    let hcrc = crc32(&frame[..8]);
    frame[8..12].copy_from_slice(&hcrc.to_le_bytes());
    let pcrc = crc32(&frame[HEADER_LEN..]);
    frame[12..16].copy_from_slice(&pcrc.to_le_bytes());
}

/// Appends the binary body of a hot op; returns `false` (appending
/// nothing) for an op that travels as JSON.
fn put_binary_body(op: &NetOp, out: &mut Vec<u8>) -> bool {
    let (tag, from, to, payload) = match op {
        NetOp::Deliver { from, payload } => (TAG_DELIVER, *from, None, payload),
        NetOp::Send { from, to: NetAddress::Endpoint(to), payload } => {
            (TAG_SEND, *from, Some(*to), payload)
        }
        NetOp::Send { to: NetAddress::Topic(_), .. } => return false,
    };
    let head = |out: &mut Vec<u8>, kind: u8| {
        out.push(tag + kind);
        out.extend_from_slice(&from.index().to_le_bytes());
        if let Some(to) = to {
            out.extend_from_slice(&to.index().to_le_bytes());
        }
    };
    match payload {
        NetPayload::Data { kind, value, sampled_at } => {
            head(out, DATA);
            out.push(vital_code(*kind));
            out.extend_from_slice(&value.to_bits().to_le_bytes());
            out.extend_from_slice(&sampled_at.as_micros().to_le_bytes());
        }
        NetPayload::Command { id, epoch, command } => {
            head(out, COMMAND);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            put_command(*command, out);
        }
        NetPayload::Ack { id, command, applied_at } => {
            head(out, ACK);
            out.extend_from_slice(&id.to_le_bytes());
            put_command(*command, out);
            out.extend_from_slice(&applied_at.as_micros().to_le_bytes());
        }
        NetPayload::Announce { .. } | NetPayload::Checkpoint(_) => return false,
    }
    true
}

fn put_command(command: IceCommand, out: &mut Vec<u8>) {
    let (code, arg) = match command {
        IceCommand::StopPump => (0, SimDuration::ZERO),
        IceCommand::ResumePump => (1, SimDuration::ZERO),
        IceCommand::GrantTicket { validity } => (2, validity),
        IceCommand::PauseVentilation { duration } => (3, duration),
        IceCommand::ResumeVentilation => (4, SimDuration::ZERO),
        IceCommand::ArmExposure => (5, SimDuration::ZERO),
        IceCommand::Expose => (6, SimDuration::ZERO),
        IceCommand::Heartbeat => (7, SimDuration::ZERO),
    };
    out.push(code);
    out.extend_from_slice(&arg.as_micros().to_le_bytes());
}

/// The wire code of a vital kind (pinned here, not derived from the
/// enum's declaration order, so reordering the enum cannot change the
/// wire format).
const fn vital_code(kind: VitalKind) -> u8 {
    match kind {
        VitalKind::Spo2 => 0,
        VitalKind::HeartRate => 1,
        VitalKind::RespRate => 2,
        VitalKind::Etco2 => 3,
        VitalKind::BpSystolic => 4,
        VitalKind::BpDiastolic => 5,
        VitalKind::MinuteVentilation => 6,
    }
}

const fn vital_from_code(code: u8) -> Option<VitalKind> {
    Some(match code {
        0 => VitalKind::Spo2,
        1 => VitalKind::HeartRate,
        2 => VitalKind::RespRate,
        3 => VitalKind::Etco2,
        4 => VitalKind::BpSystolic,
        5 => VitalKind::BpDiastolic,
        6 => VitalKind::MinuteVentilation,
        _ => return None,
    })
}

/// A cursor over a borrowed binary body.
struct Body<'a>(&'a [u8]);

impl Body<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn endpoint(&mut self) -> Option<EndpointId> {
        self.u32().map(EndpointId::from_index)
    }

    fn time(&mut self) -> Option<SimTime> {
        self.u64().map(SimTime::from_micros)
    }

    fn command(&mut self) -> Option<IceCommand> {
        let code = self.u8()?;
        let arg = SimDuration::from_micros(self.u64()?);
        let argless = |cmd| (arg == SimDuration::ZERO).then_some(cmd);
        match code {
            0 => argless(IceCommand::StopPump),
            1 => argless(IceCommand::ResumePump),
            2 => Some(IceCommand::GrantTicket { validity: arg }),
            3 => Some(IceCommand::PauseVentilation { duration: arg }),
            4 => argless(IceCommand::ResumeVentilation),
            5 => argless(IceCommand::ArmExposure),
            6 => argless(IceCommand::Expose),
            7 => argless(IceCommand::Heartbeat),
            _ => None,
        }
    }
}

/// Decodes a binary body; `None` unless it is exactly one well-formed
/// body.
fn decode_binary(body: &[u8]) -> Option<NetOp> {
    let mut b = Body(body);
    let tag = b.u8()?;
    let (send, kind) = match tag {
        t if (TAG_DELIVER..=TAG_DELIVER + ACK).contains(&t) => (false, t - TAG_DELIVER),
        t if (TAG_SEND..=TAG_SEND + ACK).contains(&t) => (true, t - TAG_SEND),
        _ => return None,
    };
    let from = b.endpoint()?;
    let to = if send { Some(b.endpoint()?) } else { None };
    let payload = match kind {
        DATA => NetPayload::Data {
            kind: vital_from_code(b.u8()?)?,
            value: f64::from_bits(b.u64()?),
            sampled_at: b.time()?,
        },
        COMMAND => NetPayload::Command { id: b.u64()?, epoch: b.u64()?, command: b.command()? },
        _ => NetPayload::Ack { id: b.u64()?, command: b.command()?, applied_at: b.time()? },
    };
    if !b.0.is_empty() {
        return None;
    }
    Some(match to {
        None => NetOp::Deliver { from, payload },
        Some(to) => NetOp::Send { from, to: NetAddress::Endpoint(to), payload },
    })
}

/// Decodes a frame payload in whichever format its first byte names.
fn decode_body(payload: &[u8]) -> Option<NetOp> {
    match payload.first() {
        Some(&first) if is_binary(first) => decode_binary(payload),
        _ => std::str::from_utf8(payload).ok().and_then(|s| serde_json::from_str(s).ok()),
    }
}

/// An incremental frame decoder.
///
/// Feed arbitrary chunks with [`FrameDecoder::push`] (partial reads,
/// coalesced writes, anything) and drain complete messages with
/// [`FrameDecoder::next_frame`]. Corruption is skipped, counted, and
/// never stalls the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf` (compacted lazily).
    pos: usize,
    garbage_bytes: u64,
    frames_rejected: u64,
    frames_decoded: u64,
    crc_rejected: u64,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact consumed prefix before growing, keeping the buffer
        // bounded by (unconsumed + chunk) rather than the whole stream.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes skipped while hunting for a frame start.
    pub fn garbage_bytes(&self) -> u64 {
        self.garbage_bytes
    }

    /// Frames whose header or payload was rejected (oversized length,
    /// checksum mismatch, unparseable payload).
    pub fn frames_rejected(&self) -> u64 {
        self.frames_rejected
    }

    /// The subset of [`Self::frames_rejected`] caught by the payload
    /// checksum (corruption that might otherwise have parsed).
    pub fn crc_rejected(&self) -> u64 {
        self.crc_rejected
    }

    /// Frames successfully decoded.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Decodes the next complete message, if one is buffered.
    pub fn next_frame(&mut self) -> Option<NetOp> {
        loop {
            self.seek_magic();
            let avail = &self.buf[self.pos..];
            if avail.len() < HEADER_LEN {
                return None;
            }
            let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
            let want_hcrc = u32::from_le_bytes([avail[8], avail[9], avail[10], avail[11]]);
            let want_crc = u32::from_le_bytes([avail[12], avail[13], avail[14], avail[15]]);
            if crc32(&avail[..8]) != want_hcrc {
                // The length field can't be trusted. Rejecting here —
                // before waiting for `len` payload bytes — is what
                // keeps a corrupted length from stalling the stream:
                // trusting it would buffer up to MAX_FRAME bytes of
                // live traffic behind a phantom frame that never
                // completes.
                self.frames_rejected += 1;
                self.crc_rejected += 1;
                self.pos += 1;
                self.garbage_bytes += 1;
                continue;
            }
            if len > MAX_FRAME {
                // A corrupt length that checksums (hostile rather than
                // noisy input). Advance one byte (not past the whole
                // claimed frame): if this was noise that happened to
                // contain the magic, the real frame behind it is still
                // reachable.
                self.frames_rejected += 1;
                self.pos += 1;
                self.garbage_bytes += 1;
                continue;
            }
            if avail.len() < HEADER_LEN + len {
                return None;
            }
            let payload = &avail[HEADER_LEN..HEADER_LEN + len];
            if crc32(payload) != want_crc {
                // The bytes under this magic fail their checksum.
                // Resync one byte forward rather than skipping the
                // claimed length — the next true frame may start
                // anywhere inside it.
                self.frames_rejected += 1;
                self.crc_rejected += 1;
                self.pos += 1;
                self.garbage_bytes += 1;
                continue;
            }
            match decode_body(payload) {
                Some(op) => {
                    self.pos += HEADER_LEN + len;
                    self.frames_decoded += 1;
                    return Some(op);
                }
                None => {
                    // Checksum-valid but not a frame (garbage that
                    // checksums itself); same one-byte resync.
                    self.frames_rejected += 1;
                    self.pos += 1;
                    self.garbage_bytes += 1;
                }
            }
        }
    }

    /// Advances `pos` to the next magic (or near the buffer end),
    /// counting skipped bytes as garbage.
    fn seek_magic(&mut self) {
        while self.pos < self.buf.len() {
            let avail = &self.buf[self.pos..];
            if avail.len() < MAGIC.len() {
                // A strict prefix of the magic at the end of the buffer
                // might be a frame start split across reads: keep it.
                if MAGIC.starts_with(avail) {
                    return;
                }
                // Otherwise drop one byte and re-check the remainder.
                self.pos += 1;
                self.garbage_bytes += 1;
                continue;
            }
            if avail[..4] == MAGIC {
                return;
            }
            self.pos += 1;
            self.garbage_bytes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_core::msg::NetPayload;
    use mcps_net::fabric::EndpointId;
    use mcps_runtime::time::SimTime;

    fn sample(i: u64) -> NetOp {
        NetOp::Deliver {
            from: EndpointId::from_index(0),
            payload: NetPayload::Data {
                kind: mcps_patient::vitals::VitalKind::Spo2,
                value: 90.0 + i as f64,
                sampled_at: SimTime::from_secs(i),
            },
        }
    }

    #[test]
    fn roundtrip_single_frame() {
        let op = sample(1);
        let mut dec = FrameDecoder::new();
        dec.push(&encode_frame(&op));
        assert_eq!(dec.next_frame(), Some(op));
        assert_eq!(dec.next_frame(), None);
        assert_eq!(dec.garbage_bytes(), 0);
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let ops: Vec<NetOp> = (0..3).map(sample).collect();
        let mut bytes = Vec::new();
        for op in &ops {
            bytes.extend_from_slice(&encode_frame(op));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in bytes {
            dec.push(&[b]);
            while let Some(op) = dec.next_frame() {
                got.push(op);
            }
        }
        assert_eq!(got, ops);
        assert_eq!(dec.frames_rejected(), 0);
    }

    #[test]
    fn garbage_prefix_is_skipped_without_desync() {
        let op = sample(7);
        let mut dec = FrameDecoder::new();
        dec.push(b"\x00\xffnoise");
        dec.push(&encode_frame(&op));
        assert_eq!(dec.next_frame(), Some(op));
        assert!(dec.garbage_bytes() >= 7);
    }

    #[test]
    fn oversized_length_is_rejected_and_stream_recovers() {
        let op = sample(2);
        let mut bad = Vec::new();
        bad.extend_from_slice(&MAGIC);
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(b"junk");
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        dec.push(&encode_frame(&op));
        assert_eq!(dec.next_frame(), Some(op));
        assert!(dec.frames_rejected() >= 1);
    }

    /// Every single-bit corruption of a frame's payload must be caught
    /// by the checksum (never silently decoded as altered content), and
    /// the stream must recover on the next clean frame.
    #[test]
    fn any_payload_bit_flip_is_rejected_and_stream_recovers() {
        let op = sample(3);
        let clean = encode_frame(&op);
        let follow = sample(4);
        for byte in HEADER_LEN..clean.len() {
            for bit in 0..8 {
                let mut corrupted = clean.clone();
                corrupted[byte] ^= 1 << bit;
                let mut dec = FrameDecoder::new();
                dec.push(&corrupted);
                dec.push(&encode_frame(&follow));
                assert_eq!(
                    dec.next_frame(),
                    Some(follow.clone()),
                    "flip at byte {byte} bit {bit} produced a wrong decode"
                );
                assert!(dec.crc_rejected() >= 1, "flip at byte {byte} bit {bit} evaded the CRC");
            }
        }
    }

    /// Every single-bit corruption of a frame's *header* must be
    /// rejected immediately — in particular, a flipped length bit must
    /// not leave the decoder waiting for a phantom payload that
    /// swallows (and stalls) every frame behind it.
    #[test]
    fn any_header_bit_flip_is_rejected_without_stalling() {
        let op = sample(5);
        let clean = encode_frame(&op);
        let follow = sample(6);
        for byte in 0..HEADER_LEN {
            for bit in 0..8 {
                let mut corrupted = clean.clone();
                corrupted[byte] ^= 1 << bit;
                let mut dec = FrameDecoder::new();
                dec.push(&corrupted);
                // The follow frame is *smaller* than any inflated
                // length claim could demand, so it only decodes if the
                // corrupt header was rejected rather than trusted.
                dec.push(&encode_frame(&follow));
                assert_eq!(
                    dec.next_frame(),
                    Some(follow.clone()),
                    "flip at header byte {byte} bit {bit} stalled or desynced the stream"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bitwise CRC-32 the table replaced: the oracle the table must
    /// match, since the journal's on-disk records use the same sum.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        fn crc32_table_matches_bitwise_oracle(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }
}
