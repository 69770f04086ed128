//! The semicolon-delimited MobiFlow wire encoding.
//!
//! Mirrors the format of the 5GSEC MobiFlow releases: a fixed field order,
//! `;` separators, `-` for absent optionals. The encoding is what the RIC
//! agent ships over E2 (as E2SM key-value payloads) and what the SDL stores;
//! it must round-trip exactly.
//!
//! ```text
//! v2;UE;<msg_id>;<ts_us>;<cell>;<rnti_hex>;<du_ue_id>;<UL|DL>;<msg_name>;
//!   <tmsi|- >;<supi|- >;<nea|- >;<nia|- >;<cause_code|- >;<release_code|- >
//! ```

use crate::record::{UeMobiFlow, MOBIFLOW_VERSION};
use std::fmt::{self, Write};
use xsec_proto::{Direction, MessageKind};
use xsec_types::{
    CellId, CipherAlg, EstablishmentCause, IntegrityAlg, Plmn, ReleaseCause, Result, Rnti, Supi,
    Timestamp, Tmsi, XsecError,
};

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

/// Initial capacity of an encoded line: enough for the typical record, so
/// most lines are written without a reallocation.
const LINE_CAPACITY: usize = 96;

/// Encodes a UE record into its line form.
pub fn encode_ue_record(r: &UeMobiFlow) -> String {
    // `write!` into a `String` cannot fail.
    let mut out = String::with_capacity(LINE_CAPACITY);
    let _ = write!(
        out,
        "v{};UE;{};{};{};{:04x};{};{};{}",
        MOBIFLOW_VERSION,
        r.msg_id,
        r.timestamp.as_micros(),
        r.cell.0,
        r.rnti.0,
        r.du_ue_id,
        if r.direction.is_uplink() { "UL" } else { "DL" },
        r.msg.name(),
    );
    put_opt(&mut out, r.tmsi.map(|t| t.0));
    out.push(';');
    match r.supi {
        Some(s) => {
            let _ = write!(out, "{:03}.{:02}.{}", s.plmn.mcc, s.plmn.mnc, s.msin);
        }
        None => out.push('-'),
    }
    put_opt(&mut out, r.cipher_alg.map(CipherAlg::code));
    put_opt(&mut out, r.integrity_alg.map(IntegrityAlg::code));
    put_opt(&mut out, r.establishment_cause.map(EstablishmentCause::code));
    put_opt(&mut out, r.release_cause.map(ReleaseCause::code));
    out
}

/// Appends `;` and then the value, or `-` when it is absent.
fn put_opt(out: &mut String, v: Option<impl fmt::Display>) {
    out.push(';');
    match v {
        Some(x) => {
            let _ = write!(out, "{x}");
        }
        None => out.push('-'),
    }
}

/// Decodes a UE record from its line form.
pub fn decode_ue_record(line: &str) -> Result<UeMobiFlow> {
    let mut fields = [""; 15];
    let mut n = 0;
    for field in line.split(';') {
        if let Some(slot) = fields.get_mut(n) {
            *slot = field;
        }
        n += 1;
    }
    if n != fields.len() {
        return Err(err(format!("expected 15 fields, got {n}")));
    }
    let version = fields[0]
        .strip_prefix('v')
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| err("bad version field"))?;
    if version != MOBIFLOW_VERSION {
        return Err(err(format!("unsupported MobiFlow version {version}")));
    }
    if fields[1] != "UE" {
        return Err(err(format!("expected UE record, got {:?}", fields[1])));
    }

    fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T> {
        s.parse().map_err(|_| err(format!("bad {what}: {s:?}")))
    }
    fn parse_opt<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>> {
        if s == "-" {
            Ok(None)
        } else {
            parse(s, what).map(Some)
        }
    }

    let msg = MessageKind::from_name(fields[8])
        .ok_or_else(|| err(format!("unknown message name {:?}", fields[8])))?;

    let direction = match fields[7] {
        "UL" => Direction::Uplink,
        "DL" => Direction::Downlink,
        other => return Err(err(format!("bad direction {other:?}"))),
    };

    let supi = if fields[10] == "-" {
        None
    } else {
        let mut parts = fields[10].split('.');
        let (Some(mcc), Some(mnc), Some(msin), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(err(format!("bad SUPI field {:?}", fields[10])));
        };
        Some(Supi::new(
            Plmn { mcc: parse(mcc, "mcc")?, mnc: parse(mnc, "mnc")? },
            parse(msin, "msin")?,
        ))
    };

    let cipher_alg = parse_opt::<u8>(fields[11], "cipher")?
        .map(|c| CipherAlg::from_code(c).ok_or_else(|| err(format!("bad cipher code {c}"))))
        .transpose()?;
    let integrity_alg = parse_opt::<u8>(fields[12], "integrity")?
        .map(|c| IntegrityAlg::from_code(c).ok_or_else(|| err(format!("bad integrity code {c}"))))
        .transpose()?;
    let establishment_cause = parse_opt::<u8>(fields[13], "cause")?
        .map(|c| {
            EstablishmentCause::from_code(c).ok_or_else(|| err(format!("bad cause code {c}")))
        })
        .transpose()?;
    let release_cause = parse_opt::<u8>(fields[14], "release cause")?
        .map(|c| ReleaseCause::from_code(c).ok_or_else(|| err(format!("bad release code {c}"))))
        .transpose()?;

    Ok(UeMobiFlow {
        msg_id: parse(fields[2], "msg_id")?,
        timestamp: Timestamp(parse(fields[3], "timestamp")?),
        cell: CellId(parse(fields[4], "cell")?),
        rnti: Rnti(
            u16::from_str_radix(fields[5], 16).map_err(|_| err(format!("bad rnti {:?}", fields[5])))?,
        ),
        du_ue_id: parse(fields[6], "du_ue_id")?,
        direction,
        msg,
        tmsi: parse_opt::<u32>(fields[9], "tmsi")?.map(Tmsi),
        supi,
        cipher_alg,
        integrity_alg,
        establishment_cause,
        release_cause,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> UeMobiFlow {
        UeMobiFlow {
            msg_id: 42,
            timestamp: Timestamp(123_456),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 7,
            direction: Direction::Uplink,
            msg: MessageKind::NasRegistrationRequest,
            tmsi: Some(Tmsi(99)),
            supi: Some(Supi::new(Plmn::TEST, 12345)),
            cipher_alg: Some(CipherAlg::Nea2),
            integrity_alg: Some(IntegrityAlg::Nia2),
            establishment_cause: Some(EstablishmentCause::MoSignalling),
            release_cause: None,
        }
    }

    #[test]
    fn round_trip_full_record() {
        let r = sample();
        let line = encode_ue_record(&r);
        assert_eq!(decode_ue_record(&line).unwrap(), r);
    }

    #[test]
    fn round_trip_minimal_record() {
        let r = UeMobiFlow {
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
            ..sample()
        };
        let line = encode_ue_record(&r);
        assert!(line.contains(";-;-;-;-;-;-"), "optionals should encode as dashes: {line}");
        assert_eq!(decode_ue_record(&line).unwrap(), r);
    }

    #[test]
    fn encoded_form_is_stable() {
        // Pin the exact wire format — downstream parsers depend on it. The
        // cases cover `-` optionals, the `{:03}.{:02}.` SUPI padding, the
        // `{:04x}` RNTI and extreme integers.
        let cases = [
            (sample(), "v2;UE;42;123456;1;4601;7;UL;RegistrationRequest;99;001.01.12345;2;2;3;-"),
            (
                UeMobiFlow {
                    msg_id: 0,
                    timestamp: Timestamp(0),
                    cell: CellId(0),
                    rnti: Rnti(0x000a),
                    du_ue_id: 0,
                    direction: Direction::Downlink,
                    msg: MessageKind::RrcSetup,
                    tmsi: None,
                    supi: None,
                    cipher_alg: None,
                    integrity_alg: None,
                    establishment_cause: None,
                    release_cause: None,
                },
                "v2;UE;0;0;0;000a;0;DL;RRCSetup;-;-;-;-;-;-",
            ),
            (
                UeMobiFlow {
                    msg_id: u64::MAX,
                    timestamp: Timestamp(15_000_000),
                    cell: CellId(16),
                    rnti: Rnti(0xBEEF),
                    du_ue_id: u32::MAX,
                    direction: Direction::Uplink,
                    msg: MessageKind::NasIdentityResponse,
                    tmsi: Some(Tmsi(0)),
                    supi: Some(Supi::new(Plmn { mcc: 9, mnc: 5 }, 42)),
                    cipher_alg: Some(CipherAlg::Nea0),
                    integrity_alg: Some(IntegrityAlg::Nia3),
                    establishment_cause: None,
                    release_cause: Some(ReleaseCause::Congestion),
                },
                "v2;UE;18446744073709551615;15000000;16;beef;4294967295;UL;IdentityResponse;\
                 0;009.05.42;0;3;-;3",
            ),
            (
                UeMobiFlow {
                    msg_id: 7,
                    timestamp: Timestamp(1),
                    cell: CellId(2),
                    rnti: Rnti(0x0001),
                    du_ue_id: 3,
                    direction: Direction::Downlink,
                    msg: MessageKind::RrcRelease,
                    tmsi: Some(Tmsi(u32::MAX)),
                    supi: Some(Supi::new(Plmn { mcc: 310, mnc: 260 }, 1_234_567_890)),
                    cipher_alg: None,
                    integrity_alg: None,
                    establishment_cause: Some(EstablishmentCause::Emergency),
                    release_cause: Some(ReleaseCause::Normal),
                },
                "v2;UE;7;1;2;0001;3;DL;RRCRelease;4294967295;310.260.1234567890;-;-;0;0",
            ),
        ];
        for (record, line) in cases {
            assert_eq!(encode_ue_record(&record), line);
            assert_eq!(decode_ue_record(line).unwrap(), record);
        }
    }

    #[test]
    fn decode_reports_the_field_count() {
        let full = encode_ue_record(&sample());
        for (line, n) in [
            (String::new(), 1),
            ("v2;UE;1".to_string(), 3),
            (format!("{full};extra"), 16),
            (format!("{full};;;;;"), 20),
        ] {
            match decode_ue_record(&line) {
                Err(XsecError::Codec(msg)) => {
                    assert_eq!(msg, format!("expected 15 fields, got {n}"), "{line:?}")
                }
                other => panic!("{line:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for bad in [
            "",
            "v2;UE;1",                                        // too few fields
            "v1;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;-", // old version
            "v2;BS;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;-", // wrong type
            "v2;UE;42;1;1;ZZZZ;7;UL;RegistrationRequest;-;-;-;-;-;-", // bad rnti
            "v2;UE;42;1;1;4601;7;XX;RegistrationRequest;-;-;-;-;-;-", // bad direction
            "v2;UE;42;1;1;4601;7;UL;NoSuchMessage;-;-;-;-;-;-",       // bad message
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;9;-;-;-", // bad cipher code
            "v2;UE;42;1;1;4601;7;UL;RegistrationRequest;-;-;-;-;-;9", // bad release code
        ] {
            assert!(decode_ue_record(bad).is_err(), "accepted malformed line: {bad:?}");
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            msg_id in any::<u64>(),
            ts in any::<u64>(),
            rnti in any::<u16>(),
            du in any::<u32>(),
            kind_idx in 0usize..MessageKind::ALL.len(),
            uplink in any::<bool>(),
            tmsi in proptest::option::of(any::<u32>()),
            cipher in proptest::option::of(0u8..4),
            integ in proptest::option::of(0u8..4),
            cause in proptest::option::of(0u8..7),
        ) {
            let r = UeMobiFlow {
                msg_id,
                timestamp: Timestamp(ts),
                cell: CellId(1),
                rnti: Rnti(rnti),
                du_ue_id: du,
                direction: if uplink { Direction::Uplink } else { Direction::Downlink },
                msg: MessageKind::ALL[kind_idx],
                tmsi: tmsi.map(Tmsi),
                supi: None,
                cipher_alg: cipher.map(|c| CipherAlg::from_code(c).unwrap()),
                integrity_alg: integ.map(|c| IntegrityAlg::from_code(c).unwrap()),
                establishment_cause: cause.map(|c| EstablishmentCause::from_code(c).unwrap()),
                release_cause: None,
            };
            let line = encode_ue_record(&r);
            prop_assert_eq!(decode_ue_record(&line).unwrap(), r);
        }

        #[test]
        fn prop_decode_never_panics(line in "[ -~]{0,100}") {
            let _ = decode_ue_record(&line);
        }
    }
}
