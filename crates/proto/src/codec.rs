//! Deterministic binary codec for L3 messages, plus length-prefixed framing.
//!
//! The encoding is a compact tag-then-fields format: one byte of
//! [`MessageKind::code`], followed by the variant's fields in declaration
//! order. It is *not* ASN.1 PER — the paper's telemetry pipeline also does
//! not re-encode PER; it parses captures into structured records. What
//! matters here is that encoding is total, decoding rejects malformed input
//! with a [`XsecError::Codec`] error instead of panicking, and
//! `decode(encode(m)) == m` for every message (property-tested below).
//!
//! Framing follows the classic length-prefix pattern for stream transports:
//! a `u32` big-endian length followed by that many payload bytes. The E2
//! crate reuses these helpers for its TCP transport.

use crate::msg::{L3Message, MessageKind, MobileIdentity};
use crate::nas::{IdentityType, NasMessage, NasRejectCause};
use crate::rrc::RrcMessage;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use xsec_types::{
    CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, ReleaseCause, Result, Rnti,
    SecurityCapabilities, Supi, Tmsi, XsecError,
};

/// Maximum frame payload the framing layer will accept (1 MiB) — guards
/// stream readers against a corrupt or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 1 << 20;

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(err(format!("truncated input: need {n} bytes for {what}, have {}", buf.remaining())))
    } else {
        Ok(())
    }
}

// --- primitive field helpers -------------------------------------------------

fn put_identity(buf: &mut BytesMut, id: &MobileIdentity) {
    match id {
        MobileIdentity::Suci { plmn, concealed } => {
            buf.put_u8(0);
            buf.put_u16(plmn.mcc);
            buf.put_u16(plmn.mnc);
            buf.put_u64(*concealed);
        }
        MobileIdentity::FiveGSTmsi(tmsi) => {
            buf.put_u8(1);
            buf.put_u32(tmsi.0);
        }
        MobileIdentity::PlainSupi(supi) => {
            buf.put_u8(2);
            buf.put_u16(supi.plmn.mcc);
            buf.put_u16(supi.plmn.mnc);
            buf.put_u64(supi.msin);
        }
    }
}

fn get_identity(buf: &mut Bytes) -> Result<MobileIdentity> {
    need(buf, 1, "identity tag")?;
    match buf.get_u8() {
        0 => {
            need(buf, 12, "SUCI body")?;
            let plmn = Plmn { mcc: buf.get_u16(), mnc: buf.get_u16() };
            Ok(MobileIdentity::Suci { plmn, concealed: buf.get_u64() })
        }
        1 => {
            need(buf, 4, "TMSI body")?;
            Ok(MobileIdentity::FiveGSTmsi(Tmsi(buf.get_u32())))
        }
        2 => {
            need(buf, 12, "SUPI body")?;
            let plmn = Plmn { mcc: buf.get_u16(), mnc: buf.get_u16() };
            Ok(MobileIdentity::PlainSupi(Supi::new(plmn, buf.get_u64())))
        }
        tag => Err(err(format!("unknown identity tag {tag}"))),
    }
}

fn caps_to_byte(flags: &[bool; 4]) -> u8 {
    flags.iter().enumerate().fold(0u8, |acc, (i, set)| acc | ((*set as u8) << i))
}

fn caps_from_byte(byte: u8) -> [bool; 4] {
    [byte & 1 != 0, byte & 2 != 0, byte & 4 != 0, byte & 8 != 0]
}

fn put_capabilities(buf: &mut BytesMut, caps: &SecurityCapabilities) {
    buf.put_u8(caps_to_byte(&caps.ciphers));
    buf.put_u8(caps_to_byte(&caps.integrity));
}

fn get_capabilities(buf: &mut Bytes) -> Result<SecurityCapabilities> {
    need(buf, 2, "security capabilities")?;
    Ok(SecurityCapabilities {
        ciphers: caps_from_byte(buf.get_u8()),
        integrity: caps_from_byte(buf.get_u8()),
    })
}

fn put_container(buf: &mut BytesMut, container: &[u8]) {
    buf.put_u16(container.len() as u16);
    buf.put_slice(container);
}

fn get_container(buf: &mut Bytes) -> Result<Vec<u8>> {
    need(buf, 2, "container length")?;
    let len = buf.get_u16() as usize;
    need(buf, len, "container body")?;
    Ok(buf.copy_to_bytes(len).to_vec())
}

fn get_cipher(buf: &mut Bytes) -> Result<CipherAlg> {
    need(buf, 1, "cipher alg")?;
    let code = buf.get_u8();
    CipherAlg::from_code(code).ok_or_else(|| err(format!("bad cipher code {code}")))
}

fn get_integrity(buf: &mut Bytes) -> Result<IntegrityAlg> {
    need(buf, 1, "integrity alg")?;
    let code = buf.get_u8();
    IntegrityAlg::from_code(code).ok_or_else(|| err(format!("bad integrity code {code}")))
}

// --- top-level codec ----------------------------------------------------------

/// Encodes an L3 message into its binary form.
pub fn encode_l3(msg: &L3Message) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_u8(msg.kind().code());
    match msg {
        L3Message::Rrc(rrc) => encode_rrc_body(rrc, &mut buf),
        L3Message::Nas(nas) => encode_nas_body(nas, &mut buf),
    }
    buf.to_vec()
}

fn encode_rrc_body(msg: &RrcMessage, buf: &mut BytesMut) {
    match msg {
        RrcMessage::SetupRequest { ue_identity, cause } => {
            buf.put_u64(*ue_identity);
            buf.put_u8(cause.code());
        }
        RrcMessage::Setup
        | RrcMessage::SecurityModeComplete
        | RrcMessage::Reconfiguration
        | RrcMessage::ReconfigurationComplete
        | RrcMessage::Reestablishment => {}
        RrcMessage::SetupComplete { nas_container }
        | RrcMessage::UlInformationTransfer { nas_container }
        | RrcMessage::DlInformationTransfer { nas_container } => {
            put_container(buf, nas_container)
        }
        RrcMessage::Reject { wait_time_s } => buf.put_u8(*wait_time_s),
        RrcMessage::SecurityModeCommand { cipher, integrity } => {
            buf.put_u8(cipher.code());
            buf.put_u8(integrity.code());
        }
        RrcMessage::Release { cause } => buf.put_u8(cause.code()),
        RrcMessage::Paging { ue_identity } => put_identity(buf, ue_identity),
        RrcMessage::ReestablishmentRequest { old_rnti } => buf.put_u16(old_rnti.0),
    }
}

fn encode_nas_body(msg: &NasMessage, buf: &mut BytesMut) {
    match msg {
        NasMessage::RegistrationRequest { identity, capabilities } => {
            put_identity(buf, identity);
            put_capabilities(buf, capabilities);
        }
        NasMessage::RegistrationAccept { new_tmsi } => buf.put_u32(new_tmsi.0),
        NasMessage::RegistrationComplete
        | NasMessage::AuthenticationReject
        | NasMessage::SecurityModeComplete
        | NasMessage::ServiceAccept
        | NasMessage::DeregistrationRequest
        | NasMessage::DeregistrationAccept => {}
        NasMessage::RegistrationReject { cause } => buf.put_u8(match cause {
            NasRejectCause::IllegalUe => 0,
            NasRejectCause::PlmnNotAllowed => 1,
            NasRejectCause::Congestion => 2,
        }),
        NasMessage::AuthenticationRequest { rand, autn } => {
            buf.put_u64(*rand);
            buf.put_u64(*autn);
        }
        NasMessage::AuthenticationResponse { res } => buf.put_u64(*res),
        NasMessage::AuthenticationFailure { cause } => buf.put_u8(*cause),
        NasMessage::IdentityRequest { id_type } => buf.put_u8(match id_type {
            IdentityType::Suci => 0,
            IdentityType::PlainSupi => 1,
            IdentityType::Tmsi => 2,
        }),
        NasMessage::IdentityResponse { identity } => put_identity(buf, identity),
        NasMessage::SecurityModeCommand { cipher, integrity, replayed_capabilities } => {
            buf.put_u8(cipher.code());
            buf.put_u8(integrity.code());
            put_capabilities(buf, replayed_capabilities);
        }
        NasMessage::SecurityModeReject { cause } => buf.put_u8(*cause),
        NasMessage::ServiceRequest { tmsi } => buf.put_u32(tmsi.0),
        NasMessage::PduSessionEstablishmentRequest { session_id }
        | NasMessage::PduSessionEstablishmentAccept { session_id } => buf.put_u8(*session_id),
    }
}

/// Decodes an L3 message from its binary form, rejecting malformed input.
pub fn decode_l3(bytes: &[u8]) -> Result<L3Message> {
    let mut buf = Bytes::copy_from_slice(bytes);
    need(&buf, 1, "message kind")?;
    let code = buf.get_u8();
    let kind = MessageKind::from_code(code)
        .ok_or_else(|| err(format!("unknown message kind code {code}")))?;
    let msg = decode_body(kind, &mut buf)?;
    if buf.has_remaining() {
        return Err(err(format!("{} trailing bytes after {}", buf.remaining(), kind)));
    }
    Ok(msg)
}

fn decode_body(kind: MessageKind, buf: &mut Bytes) -> Result<L3Message> {
    use MessageKind as K;
    let msg = match kind {
        K::RrcSetupRequest => {
            need(buf, 9, "setup request")?;
            let ue_identity = buf.get_u64();
            let code = buf.get_u8();
            let cause = EstablishmentCause::from_code(code)
                .ok_or_else(|| err(format!("bad establishment cause {code}")))?;
            L3Message::Rrc(RrcMessage::SetupRequest { ue_identity, cause })
        }
        K::RrcSetup => L3Message::Rrc(RrcMessage::Setup),
        K::RrcSetupComplete => {
            L3Message::Rrc(RrcMessage::SetupComplete { nas_container: get_container(buf)? })
        }
        K::RrcReject => {
            need(buf, 1, "reject wait time")?;
            L3Message::Rrc(RrcMessage::Reject { wait_time_s: buf.get_u8() })
        }
        K::RrcSecurityModeCommand => L3Message::Rrc(RrcMessage::SecurityModeCommand {
            cipher: get_cipher(buf)?,
            integrity: get_integrity(buf)?,
        }),
        K::RrcSecurityModeComplete => L3Message::Rrc(RrcMessage::SecurityModeComplete),
        K::RrcReconfiguration => L3Message::Rrc(RrcMessage::Reconfiguration),
        K::RrcReconfigurationComplete => L3Message::Rrc(RrcMessage::ReconfigurationComplete),
        K::RrcRelease => {
            need(buf, 1, "release cause")?;
            let code = buf.get_u8();
            let cause = ReleaseCause::from_code(code)
                .ok_or_else(|| err(format!("bad release cause {code}")))?;
            L3Message::Rrc(RrcMessage::Release { cause })
        }
        K::RrcPaging => L3Message::Rrc(RrcMessage::Paging { ue_identity: get_identity(buf)? }),
        K::RrcReestablishmentRequest => {
            need(buf, 2, "old rnti")?;
            L3Message::Rrc(RrcMessage::ReestablishmentRequest { old_rnti: Rnti(buf.get_u16()) })
        }
        K::RrcReestablishment => L3Message::Rrc(RrcMessage::Reestablishment),
        K::RrcUlInformationTransfer => {
            L3Message::Rrc(RrcMessage::UlInformationTransfer { nas_container: get_container(buf)? })
        }
        K::RrcDlInformationTransfer => {
            L3Message::Rrc(RrcMessage::DlInformationTransfer { nas_container: get_container(buf)? })
        }
        K::NasRegistrationRequest => L3Message::Nas(NasMessage::RegistrationRequest {
            identity: get_identity(buf)?,
            capabilities: get_capabilities(buf)?,
        }),
        K::NasRegistrationAccept => {
            need(buf, 4, "new tmsi")?;
            L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(buf.get_u32()) })
        }
        K::NasRegistrationComplete => L3Message::Nas(NasMessage::RegistrationComplete),
        K::NasRegistrationReject => {
            need(buf, 1, "reject cause")?;
            let cause = match buf.get_u8() {
                0 => NasRejectCause::IllegalUe,
                1 => NasRejectCause::PlmnNotAllowed,
                2 => NasRejectCause::Congestion,
                other => return Err(err(format!("bad NAS reject cause {other}"))),
            };
            L3Message::Nas(NasMessage::RegistrationReject { cause })
        }
        K::NasAuthenticationRequest => {
            need(buf, 16, "auth request")?;
            L3Message::Nas(NasMessage::AuthenticationRequest {
                rand: buf.get_u64(),
                autn: buf.get_u64(),
            })
        }
        K::NasAuthenticationResponse => {
            need(buf, 8, "auth response")?;
            L3Message::Nas(NasMessage::AuthenticationResponse { res: buf.get_u64() })
        }
        K::NasAuthenticationFailure => {
            need(buf, 1, "auth failure cause")?;
            L3Message::Nas(NasMessage::AuthenticationFailure { cause: buf.get_u8() })
        }
        K::NasAuthenticationReject => L3Message::Nas(NasMessage::AuthenticationReject),
        K::NasIdentityRequest => {
            need(buf, 1, "identity type")?;
            let id_type = match buf.get_u8() {
                0 => IdentityType::Suci,
                1 => IdentityType::PlainSupi,
                2 => IdentityType::Tmsi,
                other => return Err(err(format!("bad identity type {other}"))),
            };
            L3Message::Nas(NasMessage::IdentityRequest { id_type })
        }
        K::NasIdentityResponse => {
            L3Message::Nas(NasMessage::IdentityResponse { identity: get_identity(buf)? })
        }
        K::NasSecurityModeCommand => L3Message::Nas(NasMessage::SecurityModeCommand {
            cipher: get_cipher(buf)?,
            integrity: get_integrity(buf)?,
            replayed_capabilities: get_capabilities(buf)?,
        }),
        K::NasSecurityModeComplete => L3Message::Nas(NasMessage::SecurityModeComplete),
        K::NasSecurityModeReject => {
            need(buf, 1, "smc reject cause")?;
            L3Message::Nas(NasMessage::SecurityModeReject { cause: buf.get_u8() })
        }
        K::NasServiceRequest => {
            need(buf, 4, "service request tmsi")?;
            L3Message::Nas(NasMessage::ServiceRequest { tmsi: Tmsi(buf.get_u32()) })
        }
        K::NasServiceAccept => L3Message::Nas(NasMessage::ServiceAccept),
        K::NasDeregistrationRequest => L3Message::Nas(NasMessage::DeregistrationRequest),
        K::NasDeregistrationAccept => L3Message::Nas(NasMessage::DeregistrationAccept),
        K::NasPduSessionEstablishmentRequest => {
            need(buf, 1, "session id")?;
            L3Message::Nas(NasMessage::PduSessionEstablishmentRequest { session_id: buf.get_u8() })
        }
        K::NasPduSessionEstablishmentAccept => {
            need(buf, 1, "session id")?;
            L3Message::Nas(NasMessage::PduSessionEstablishmentAccept { session_id: buf.get_u8() })
        }
    };
    Ok(msg)
}

// --- framing -------------------------------------------------------------------

/// Writes length-prefixed frames into a growable buffer.
///
/// Used by the E2 TCP transport: each E2AP PDU becomes one frame, so message
/// boundaries survive the stream transport.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: BytesMut,
}

impl FrameWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Appends one frame.
    ///
    /// # Errors
    /// Rejects payloads larger than [`MAX_FRAME_LEN`].
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(err(format!("frame of {} bytes exceeds cap", payload.len())));
        }
        self.buf.put_u32(payload.len() as u32);
        self.buf.put_slice(payload);
        Ok(())
    }

    /// Takes all buffered bytes, leaving the writer empty.
    pub fn take(&mut self) -> Vec<u8> {
        self.buf.split().to_vec()
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Incrementally splits a byte stream back into frames.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; complete frames become
/// available via [`FrameReader::next_frame`]. Partial frames are retained
/// until their remaining bytes arrive — the standard pattern for reading a
/// framed protocol off a TCP socket.
///
/// Popping a frame only moves a read cursor; the consumed prefix is dropped
/// once per [`FrameReader::extend`], so draining a burst of frames costs time
/// linear in its bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the bytes not yet popped.
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, if one is fully buffered.
    ///
    /// # Errors
    /// Returns a codec error if the length prefix exceeds [`MAX_FRAME_LEN`]
    /// (a corrupt or hostile stream); the reader is then poisoned and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(err(format!("frame length {len} exceeds cap")));
        }
        let Some(frame) = rest.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = frame.to_vec();
        self.pos += 4 + len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsec_types::SecurityCapabilities;

    fn sample_messages() -> Vec<L3Message> {
        vec![
            L3Message::Rrc(RrcMessage::SetupRequest {
                ue_identity: 0xDEAD_BEEF,
                cause: EstablishmentCause::MoSignalling,
            }),
            L3Message::Rrc(RrcMessage::Setup),
            L3Message::Rrc(RrcMessage::SetupComplete { nas_container: vec![1, 2, 3] }),
            L3Message::Rrc(RrcMessage::Reject { wait_time_s: 16 }),
            L3Message::Rrc(RrcMessage::SecurityModeCommand {
                cipher: CipherAlg::Nea2,
                integrity: IntegrityAlg::Nia2,
            }),
            L3Message::Rrc(RrcMessage::Release { cause: ReleaseCause::Congestion }),
            L3Message::Rrc(RrcMessage::Paging {
                ue_identity: MobileIdentity::FiveGSTmsi(Tmsi(77)),
            }),
            L3Message::Rrc(RrcMessage::ReestablishmentRequest { old_rnti: Rnti(0x1234) }),
            L3Message::Rrc(RrcMessage::UlInformationTransfer { nas_container: vec![] }),
            L3Message::Nas(NasMessage::RegistrationRequest {
                identity: MobileIdentity::Suci { plmn: Plmn::TEST, concealed: 42 },
                capabilities: SecurityCapabilities::full(),
            }),
            L3Message::Nas(NasMessage::RegistrationAccept { new_tmsi: Tmsi(0xCAFE) }),
            L3Message::Nas(NasMessage::AuthenticationRequest { rand: 7, autn: 8 }),
            L3Message::Nas(NasMessage::AuthenticationResponse { res: 9 }),
            L3Message::Nas(NasMessage::IdentityRequest {
                id_type: IdentityType::PlainSupi,
            }),
            L3Message::Nas(NasMessage::IdentityResponse {
                identity: MobileIdentity::PlainSupi(Supi::new(Plmn::TEST, 123)),
            }),
            L3Message::Nas(NasMessage::SecurityModeCommand {
                cipher: CipherAlg::Nea0,
                integrity: IntegrityAlg::Nia0,
                replayed_capabilities: SecurityCapabilities::null_only(),
            }),
            L3Message::Nas(NasMessage::ServiceRequest { tmsi: Tmsi(1) }),
            L3Message::Nas(NasMessage::PduSessionEstablishmentRequest { session_id: 5 }),
        ]
    }

    #[test]
    fn round_trip_all_samples() {
        for msg in sample_messages() {
            let bytes = encode_l3(&msg);
            let back = decode_l3(&bytes).unwrap_or_else(|e| panic!("{msg}: {e}"));
            assert_eq!(msg, back, "round trip failed for {msg}");
        }
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        assert!(decode_l3(&[250]).is_err());
    }

    #[test]
    fn decode_rejects_empty_input() {
        assert!(decode_l3(&[]).is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        for msg in sample_messages() {
            let bytes = encode_l3(&msg);
            for cut in 0..bytes.len() {
                assert!(
                    decode_l3(&bytes[..cut]).is_err(),
                    "truncated {msg} at {cut} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_l3(&L3Message::Rrc(RrcMessage::Setup));
        bytes.push(0xFF);
        assert!(decode_l3(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_bad_enum_codes() {
        // SecurityModeCommand with cipher code 9.
        let bytes = [MessageKind::RrcSecurityModeCommand.code(), 9, 0];
        assert!(decode_l3(&bytes).is_err());
        // IdentityRequest with type 9.
        let bytes = [MessageKind::NasIdentityRequest.code(), 9];
        assert!(decode_l3(&bytes).is_err());
    }

    #[test]
    fn framing_round_trip_with_fragmented_delivery() {
        let mut writer = FrameWriter::new();
        let payloads: Vec<Vec<u8>> =
            vec![vec![], vec![1], vec![2; 300], encode_l3(&L3Message::Rrc(RrcMessage::Setup))];
        for p in &payloads {
            writer.write_frame(p).unwrap();
        }
        let stream = writer.take();
        assert!(writer.is_empty());

        // Deliver the stream one byte at a time — the pathological TCP case.
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        for byte in stream {
            reader.extend(&[byte]);
            while let Some(frame) = reader.next_frame().unwrap() {
                seen.push(frame);
            }
        }
        assert_eq!(seen, payloads);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn burst_of_frames_from_one_extend_pops_in_order() {
        let mut writer = FrameWriter::new();
        for i in 0..10_000u32 {
            writer.write_frame(&i.to_be_bytes()).unwrap();
        }
        let mut reader = FrameReader::new();
        reader.extend(&writer.take());
        for i in 0..10_000u32 {
            assert_eq!(reader.next_frame().unwrap(), Some(i.to_be_bytes().to_vec()));
        }
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn partial_frame_carries_across_chunks() {
        let mut writer = FrameWriter::new();
        writer.write_frame(b"first").unwrap();
        writer.write_frame(b"second frame").unwrap();
        let stream = writer.take();
        // The first chunk ends inside the second frame's payload.
        let (head, tail) = stream.split_at(4 + 5 + 4 + 3);
        let mut reader = FrameReader::new();
        reader.extend(head);
        assert_eq!(reader.next_frame().unwrap(), Some(b"first".to_vec()));
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), 4 + 3);
        reader.extend(tail);
        assert_eq!(reader.next_frame().unwrap(), Some(b"second frame".to_vec()));
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn framing_rejects_oversized_length_prefix() {
        let mut reader = FrameReader::new();
        reader.extend(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn frame_writer_rejects_oversized_payload() {
        let mut writer = FrameWriter::new();
        assert!(writer.write_frame(&vec![0u8; MAX_FRAME_LEN + 1]).is_err());
    }

    // --- property tests ---------------------------------------------------

    fn arb_identity() -> impl Strategy<Value = MobileIdentity> {
        prop_oneof![
            (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(mcc, mnc, concealed)| {
                MobileIdentity::Suci { plmn: Plmn { mcc, mnc }, concealed }
            }),
            any::<u32>().prop_map(|t| MobileIdentity::FiveGSTmsi(Tmsi(t))),
            (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(mcc, mnc, msin)| {
                MobileIdentity::PlainSupi(Supi::new(Plmn { mcc, mnc }, msin))
            }),
        ]
    }

    fn arb_caps() -> impl Strategy<Value = SecurityCapabilities> {
        (any::<[bool; 4]>(), any::<[bool; 4]>())
            .prop_map(|(ciphers, integrity)| SecurityCapabilities { ciphers, integrity })
    }

    fn arb_message() -> impl Strategy<Value = L3Message> {
        prop_oneof![
            (any::<u64>(), 0u8..7).prop_map(|(id, c)| L3Message::Rrc(RrcMessage::SetupRequest {
                ue_identity: id,
                cause: EstablishmentCause::from_code(c).unwrap(),
            })),
            proptest::collection::vec(any::<u8>(), 0..128).prop_map(|c| L3Message::Rrc(
                RrcMessage::SetupComplete { nas_container: c }
            )),
            (0u8..4, 0u8..4).prop_map(|(c, i)| L3Message::Rrc(RrcMessage::SecurityModeCommand {
                cipher: CipherAlg::from_code(c).unwrap(),
                integrity: IntegrityAlg::from_code(i).unwrap(),
            })),
            arb_identity().prop_map(|id| L3Message::Rrc(RrcMessage::Paging { ue_identity: id })),
            (arb_identity(), arb_caps()).prop_map(|(identity, capabilities)| L3Message::Nas(
                NasMessage::RegistrationRequest { identity, capabilities }
            )),
            (any::<u64>(), any::<u64>()).prop_map(|(rand, autn)| L3Message::Nas(
                NasMessage::AuthenticationRequest { rand, autn }
            )),
            arb_identity()
                .prop_map(|identity| L3Message::Nas(NasMessage::IdentityResponse { identity })),
            (0u8..4, 0u8..4, arb_caps()).prop_map(|(c, i, caps)| L3Message::Nas(
                NasMessage::SecurityModeCommand {
                    cipher: CipherAlg::from_code(c).unwrap(),
                    integrity: IntegrityAlg::from_code(i).unwrap(),
                    replayed_capabilities: caps,
                }
            )),
            any::<u32>().prop_map(|t| L3Message::Nas(NasMessage::ServiceRequest { tmsi: Tmsi(t) })),
        ]
    }

    proptest! {
        #[test]
        fn prop_encode_decode_round_trip(msg in arb_message()) {
            let bytes = encode_l3(&msg);
            let back = decode_l3(&bytes).unwrap();
            prop_assert_eq!(msg, back);
        }

        #[test]
        fn prop_decode_never_panics_on_fuzz(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_l3(&bytes); // must not panic, errors are fine
        }

        #[test]
        fn prop_framing_survives_arbitrary_chunking(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            chunk_size in 1usize..16,
        ) {
            let mut writer = FrameWriter::new();
            for p in &payloads {
                writer.write_frame(p).unwrap();
            }
            let stream = writer.take();
            let mut reader = FrameReader::new();
            let mut seen = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.extend(chunk);
                while let Some(frame) = reader.next_frame().unwrap() {
                    seen.push(frame);
                }
            }
            prop_assert_eq!(seen, payloads);
        }
    }
}
