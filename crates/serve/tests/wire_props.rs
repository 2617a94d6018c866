//! Property tests for the serve-mode wire codec: frames must survive
//! arbitrary read fragmentation, and injected garbage must be skipped
//! without ever desynchronizing the decoder past a true frame start.
//! The binary bodies of the hot ops must roundtrip bit-exactly, and
//! arbitrary bodies under valid checksums must decode to a message that
//! re-encodes to the same bytes or be rejected — never panic.

use mcps_core::msg::{NetAddress, NetOp, NetPayload};
use mcps_core::supervisor::CheckpointState;
use mcps_core::IceCommand;
use mcps_device::pump::PcaPump;
use mcps_net::fabric::EndpointId;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};
use mcps_serve::wire::{crc32, encode_frame, FrameDecoder, HEADER_LEN, MAGIC};
use proptest::prelude::*;

/// Builds a message deterministically from generated scalars so the
/// property owns the full value space without an `Arbitrary` impl on
/// the message enum.
fn message(ep: u64, selector: u64, value: f64, at_ms: u64) -> NetOp {
    let from = EndpointId::from_index((ep % 4) as u32);
    let payload = match selector % 3 {
        0 => NetPayload::Data {
            kind: VitalKind::Spo2,
            value,
            sampled_at: SimTime::from_millis(at_ms),
        },
        1 => NetPayload::Data {
            kind: VitalKind::RespRate,
            value,
            sampled_at: SimTime::from_millis(at_ms),
        },
        _ => NetPayload::Command {
            id: selector,
            epoch: ep + 1,
            command: mcps_core::IceCommand::StopPump,
        },
    };
    NetOp::Deliver { from, payload }
}

/// Feeds `bytes` to `dec` in chunks whose sizes cycle through `sizes`,
/// draining decoded frames as it goes (just as a transport read loop
/// does).
fn feed_chunked(dec: &mut FrameDecoder, bytes: &[u8], sizes: &[usize]) -> Vec<NetOp> {
    let mut got = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < bytes.len() {
        let n = if sizes.is_empty() { 1 } else { sizes[i % sizes.len()].max(1) };
        let end = (pos + n).min(bytes.len());
        dec.push(&bytes[pos..end]);
        while let Some(op) = dec.next_frame() {
            got.push(op);
        }
        pos = end;
        i += 1;
    }
    got
}

proptest! {
    /// Any sequence of frames, split into arbitrary read chunks,
    /// decodes to exactly the original messages in order, with nothing
    /// rejected and nothing counted as garbage.
    fn roundtrip_under_arbitrary_splits(
        specs in proptest::collection::vec((0u64..8, 0u64..9, 50.0f64..200.0, 0u64..100_000), 1..12),
        sizes in proptest::collection::vec(1usize..64, 0..16),
    ) {
        let ops: Vec<NetOp> =
            specs.iter().map(|&(ep, sel, v, at)| message(ep, sel, v, at)).collect();
        let mut bytes = Vec::new();
        for op in &ops {
            bytes.extend_from_slice(&encode_frame(op));
        }
        let mut dec = FrameDecoder::new();
        let got = feed_chunked(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, ops);
        prop_assert_eq!(dec.frames_rejected(), 0);
        prop_assert_eq!(dec.garbage_bytes(), 0);
    }

    /// Garbage injected between frames (scrubbed of accidental magic
    /// sequences) is skipped and counted; every true frame still
    /// decodes, in order, regardless of how reads are fragmented.
    fn garbage_between_frames_never_desyncs(
        specs in proptest::collection::vec((0u64..8, 0u64..9, 50.0f64..200.0, 0u64..100_000), 1..8),
        junk in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..10),
        sizes in proptest::collection::vec(1usize..32, 0..12),
    ) {
        let ops: Vec<NetOp> =
            specs.iter().map(|&(ep, sel, v, at)| message(ep, sel, v, at)).collect();
        let mut bytes = Vec::new();
        let mut junk_total = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let mut noise = junk[i % junk.len()].clone();
            // Scrub any accidental magic so the junk cannot itself be a
            // (rejected) frame candidate — this property pins the exact
            // garbage accounting; the unit tests cover lying magic.
            for w in 0..noise.len().saturating_sub(MAGIC.len() - 1) {
                if noise[w..w + MAGIC.len()] == MAGIC {
                    noise[w] ^= 0xff;
                }
            }
            junk_total += noise.len() as u64;
            bytes.extend_from_slice(&noise);
            bytes.extend_from_slice(&encode_frame(op));
        }
        let mut dec = FrameDecoder::new();
        let got = feed_chunked(&mut dec, &bytes, &sizes);
        prop_assert_eq!(dec.frames_decoded(), ops.len() as u64);
        prop_assert_eq!(got, ops);
        prop_assert_eq!(dec.garbage_bytes(), junk_total);
    }

    /// Even when the stream opens with a *lying* header — real magic,
    /// plausible length, junk payload — the decoder recovers every true
    /// frame that follows.
    fn lying_header_cannot_swallow_later_frames(
        specs in proptest::collection::vec((0u64..8, 0u64..9, 50.0f64..200.0, 0u64..100_000), 1..6),
        claimed_len in 0u32..64,
        sizes in proptest::collection::vec(1usize..32, 0..12),
    ) {
        let ops: Vec<NetOp> =
            specs.iter().map(|&(ep, sel, v, at)| message(ep, sel, v, at)).collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&claimed_len.to_le_bytes());
        // No payload bytes follow the lying header: the next bytes are
        // the first true frame, which the claimed length tries to
        // swallow. One-byte resync must still find it.
        for op in &ops {
            bytes.extend_from_slice(&encode_frame(op));
        }
        let mut dec = FrameDecoder::new();
        let got = feed_chunked(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, ops);
    }
}

/// Frames `body` by hand: magic, length, both checksums, body.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    let hcrc = crc32(&frame);
    frame.extend_from_slice(&hcrc.to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Every command the wire carries, with the duration arguments set to
/// `arg`.
fn commands(arg: SimDuration) -> [IceCommand; 8] {
    [
        IceCommand::StopPump,
        IceCommand::ResumePump,
        IceCommand::GrantTicket { validity: arg },
        IceCommand::PauseVentilation { duration: arg },
        IceCommand::ResumeVentilation,
        IceCommand::ArmExposure,
        IceCommand::Expose,
        IceCommand::Heartbeat,
    ]
}

/// Every hot-op shape around `payload`: delivered, and sent to an
/// endpoint.
fn routes(from: u32, to: u32, payload: NetPayload) -> [NetOp; 2] {
    let from = EndpointId::from_index(from);
    [
        NetOp::Deliver { from, payload: payload.clone() },
        NetOp::Send { from, to: NetAddress::Endpoint(EndpointId::from_index(to)), payload },
    ]
}

/// Decodes exactly one frame, asserting nothing was rejected.
fn decode_one(frame: &[u8]) -> NetOp {
    let mut dec = FrameDecoder::new();
    dec.push(frame);
    let op = dec.next_frame().expect("frame decodes");
    assert_eq!(dec.next_frame(), None);
    assert_eq!((dec.frames_rejected(), dec.garbage_bytes()), (0, 0));
    op
}

/// The value of a vitals op, as bits (NaN is not equal to itself, so
/// `NetOp` equality cannot check it).
fn value_bits(op: &NetOp) -> Option<u64> {
    match op {
        NetOp::Deliver { payload: NetPayload::Data { value, .. }, .. }
        | NetOp::Send { payload: NetPayload::Data { value, .. }, .. } => Some(value.to_bits()),
        _ => None,
    }
}

/// Encodes `op`, checks the body is binary, and checks the decode is
/// bit-exact: same re-encoding, same float bits, and equal wherever
/// `PartialEq` can tell.
fn assert_binary_roundtrip(op: &NetOp) {
    let frame = encode_frame(op);
    assert!(frame[HEADER_LEN] < 0x20, "{op:?} did not encode binary");
    let back = decode_one(&frame);
    assert_eq!(encode_frame(&back), frame, "{op:?} re-encodes differently");
    assert_eq!(value_bits(&back), value_bits(op), "{op:?} lost float bits");
    if value_bits(op).is_none_or(|b| !f64::from_bits(b).is_nan()) {
        assert_eq!(&back, op);
    }
}

#[test]
fn every_binary_variant_roundtrips_bit_exactly() {
    let values = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN payload
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 2.0, // subnormal
        97.25,
    ];
    let times = [SimTime::ZERO, SimTime::from_micros(1), SimTime::MAX];
    let ids = [0, 1, u64::MAX];
    let eps = [(0, 0), (7, 2), (u32::MAX, u32::MAX)];
    for (from, to) in eps {
        for kind in VitalKind::ALL {
            for value in values {
                for sampled_at in times {
                    for op in routes(from, to, NetPayload::Data { kind, value, sampled_at }) {
                        assert_binary_roundtrip(&op);
                    }
                }
            }
        }
        for arg in [SimDuration::ZERO, SimDuration::from_secs(15), SimDuration::MAX] {
            for command in commands(arg) {
                for id in ids {
                    for epoch in ids {
                        for op in routes(from, to, NetPayload::Command { id, epoch, command }) {
                            assert_binary_roundtrip(&op);
                        }
                    }
                    for applied_at in times {
                        for op in routes(from, to, NetPayload::Ack { id, command, applied_at }) {
                            assert_binary_roundtrip(&op);
                        }
                    }
                }
            }
        }
    }
}

/// The replication checkpoint the JSON tests carry.
fn checkpoint() -> NetPayload {
    NetPayload::Checkpoint(Box::new(CheckpointState {
        epoch: 3,
        next_command_id: 9,
        degraded: false,
        stop_unconfirmed: true,
        inflight_ids: vec![7, 8],
        last_data: vec![(EndpointId::from_index(1), SimTime::from_secs(4))],
    }))
}

/// The JSON body `encode_frame` writes for `payload` delivered from
/// endpoint 2.
fn json_body(payload: NetPayload) -> String {
    let frame = encode_frame(&NetOp::Deliver { from: EndpointId::from_index(2), payload });
    String::from_utf8(frame[HEADER_LEN..].to_vec()).expect("a JSON body is UTF-8")
}

/// The JSON bodies of the cold ops are pinned byte for byte: a shared
/// profile handle and a boxed checkpoint are invisible on the wire.
#[test]
fn announce_and_checkpoint_json_bodies_are_pinned() {
    let profile = PcaPump::profile("PUMP-1", true);
    let endpoint = EndpointId::from_index(2);
    assert_eq!(
        json_body(NetPayload::Announce { profile, endpoint }),
        r#"{"Deliver":{"from":2,"payload":{"Announce":{"profile":{"vendor":"GPCA","model":"SafePump-1","serial":"PUMP-1","class":"Infusion","streams":[],"commands":["Stop","Resume","RequestBolus","SetRate","GrantTicket"]},"endpoint":2}}}}"#
    );
    assert_eq!(
        json_body(checkpoint()),
        r#"{"Deliver":{"from":2,"payload":{"Checkpoint":{"epoch":3,"next_command_id":9,"degraded":false,"stop_unconfirmed":true,"inflight_ids":[7,8],"last_data":[[1,4000000]]}}}}"#
    );
}

#[test]
fn json_only_ops_still_travel_as_json() {
    let checkpoint = checkpoint();
    let topic = NetOp::Send {
        from: EndpointId::from_index(0),
        to: NetAddress::Topic(mcps_net::fabric::Topic::new("vitals/spo2")),
        payload: NetPayload::Command { id: 1, epoch: 1, command: IceCommand::StopPump },
    };
    for op in [NetOp::Deliver { from: EndpointId::from_index(0), payload: checkpoint }, topic] {
        let frame = encode_frame(&op);
        assert_eq!(frame[HEADER_LEN], b'{', "{op:?} should travel as JSON");
        assert_eq!(decode_one(&frame), op);
    }
}

/// A vitals frame with a JSON body, as a peer predating the binary
/// bodies would send it, still decodes; a non-finite value that JSON
/// wrote as `null` decodes as NaN.
#[test]
fn hand_built_json_vitals_frame_still_decodes() {
    let body = br#"{"Deliver":{"from":1,"payload":{"Data":{"kind":"Spo2","value":97.25,"sampled_at":1500000}}}}"#;
    let want = NetOp::Deliver {
        from: EndpointId::from_index(1),
        payload: NetPayload::Data {
            kind: VitalKind::Spo2,
            value: 97.25,
            sampled_at: SimTime::from_millis(1500),
        },
    };
    assert_eq!(decode_one(&framed(body)), want);

    // Leading JSON whitespace (tab, newline, carriage return) is JSON,
    // not a binary tag.
    for ws in [b"\t", b"\n", b"\r"] {
        let padded = [&ws[..], &body[..]].concat();
        assert_eq!(decode_one(&framed(&padded)), want);
    }

    let null = br#"{"Deliver":{"from":1,"payload":{"Data":{"kind":"Spo2","value":null,"sampled_at":1500000}}}}"#;
    assert!(value_bits(&decode_one(&framed(null))).is_some_and(|b| f64::from_bits(b).is_nan()));
}

/// Pushes one frame with a valid header and payload checksum around an
/// arbitrary `body`: it either decodes to a message whose re-encoding
/// is the same frame, or is rejected and counted.
fn check_arbitrary_body(body: &[u8]) -> Result<bool, TestCaseError> {
    let frame = framed(body);
    let mut dec = FrameDecoder::new();
    dec.push(&frame);
    match dec.next_frame() {
        Some(op) => {
            prop_assert_eq!(encode_frame(&op), frame);
            prop_assert_eq!(dec.frames_rejected(), 0);
            Ok(true)
        }
        None => {
            prop_assert!(dec.frames_rejected() >= 1);
            prop_assert_eq!(dec.frames_decoded(), 0);
            Ok(false)
        }
    }
}

/// Every single-byte substitution of every binary body, at every
/// position and with every value, decodes canonically or is rejected.
#[test]
fn every_byte_substitution_of_a_binary_body_is_canonical_or_rejected() {
    let mut accepted = 0;
    let mut rejected = 0;
    let ack = NetPayload::Ack {
        id: 5,
        command: IceCommand::GrantTicket { validity: SimDuration::from_secs(15) },
        applied_at: SimTime::from_secs(3),
    };
    let payloads = [
        NetPayload::Data { kind: VitalKind::Etco2, value: 38.5, sampled_at: SimTime::from_secs(2) },
        NetPayload::Command { id: 4, epoch: 2, command: IceCommand::Heartbeat },
        ack,
    ];
    for payload in payloads {
        for op in routes(1, 2, payload) {
            let body = encode_frame(&op)[HEADER_LEN..].to_vec();
            for at in 0..body.len() {
                for byte in 0..=u8::MAX {
                    let mut mutated = body.clone();
                    mutated[at] = byte;
                    match check_arbitrary_body(&mutated) {
                        Ok(true) => accepted += 1,
                        Ok(false) => rejected += 1,
                        Err(e) => panic!("{op:?}, byte {at} = {byte:#04x}: {e}"),
                    }
                }
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
}

proptest! {
    /// Any field values — every float bit pattern, every id, epoch and
    /// time — roundtrip bit-exactly through the binary bodies.
    fn binary_bodies_roundtrip_arbitrary_fields(
        from in any::<u32>(),
        to in any::<u32>(),
        kind in 0usize..7,
        bits in any::<u64>(),
        id in any::<u64>(),
        epoch in any::<u64>(),
        at in any::<u64>(),
        command in 0usize..8,
    ) {
        let at = SimTime::from_micros(at);
        let command = commands(SimDuration::from_micros(epoch))[command];
        let value = f64::from_bits(bits);
        let payloads = [
            NetPayload::Data { kind: VitalKind::ALL[kind], value, sampled_at: at },
            NetPayload::Command { id, epoch, command },
            NetPayload::Ack { id, command, applied_at: at },
        ];
        for payload in payloads {
            for op in routes(from, to, payload) {
                assert_binary_roundtrip(&op);
            }
        }
    }

    /// Arbitrary bytes under a valid header and payload checksum, opening
    /// with a binary tag byte (or JSON whitespace), never panic the
    /// decoder: they decode canonically or are rejected and counted.
    fn arbitrary_bodies_decode_canonically_or_are_rejected(
        first in 0u8..0x20,
        rest in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let body = [&[first][..], &rest].concat();
        check_arbitrary_body(&body)?;
    }

    /// The same for bodies of any first byte.
    fn arbitrary_bytes_decode_canonically_or_are_rejected(
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        check_arbitrary_body(&body)?;
    }
}

/// A binary stop command, as the host sends it to a pump.
fn stop_command(id: u64) -> NetOp {
    NetOp::Send {
        from: EndpointId::from_index(3),
        to: NetAddress::Endpoint(EndpointId::from_index(2)),
        payload: NetPayload::Command { id, epoch: 4, command: IceCommand::StopPump },
    }
}

/// Every single-bit corruption of a binary command frame, header or
/// payload, is rejected (never decoded as an altered command), and the
/// stream recovers on the next clean frame.
#[test]
fn any_bit_flip_of_a_binary_command_frame_is_rejected_and_stream_recovers() {
    let clean = encode_frame(&stop_command(9));
    assert!(clean[HEADER_LEN] < 0x20, "command frame should be binary");
    let follow = stop_command(10);
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut corrupted = clean.clone();
            corrupted[byte] ^= 1 << bit;
            let mut dec = FrameDecoder::new();
            dec.push(&corrupted);
            dec.push(&encode_frame(&follow));
            assert_eq!(
                dec.next_frame(),
                Some(follow.clone()),
                "flip at byte {byte} bit {bit} produced a wrong decode or stalled"
            );
            if byte >= HEADER_LEN {
                assert!(dec.crc_rejected() >= 1, "flip at byte {byte} bit {bit} evaded the CRC");
            }
        }
    }
}
