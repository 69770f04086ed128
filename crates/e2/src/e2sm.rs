//! The extended E2SM-KPM service model carrying security telemetry.
//!
//! The paper extends the O-RAN KPM (key performance measurement) service
//! model so the RIC agent can "report security telemetry via the E2 report
//! operation per time interval, where the telemetry can be encoded as
//! (key, value) data" (§3.1). [`KpmIndication`] is that container: a report
//! window plus a list of UTF-8 key/value pairs; MobiFlow records ride as
//! `("mf/<msg_id>", "<semicolon record>")` entries.

use bytes::{Buf, BufMut, BytesMut};
use xsec_mobiflow::{decode_ue_record, encode_ue_record, UeMobiFlow};
use xsec_types::{CellId, Result, Timestamp, XsecError};

/// RAN function id of the MobiFlow security service model (a private id
/// outside the ranges the O-RAN Alliance reserves for its own models).
pub const RAN_FUNCTION_MOBIFLOW: u32 = 142;

fn err(msg: impl Into<String>) -> XsecError {
    XsecError::Codec(msg.into())
}

/// One report-interval indication payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KpmIndication {
    /// Producing cell.
    pub cell: CellId,
    /// Report window start.
    pub window_start: Timestamp,
    /// Report window end.
    pub window_end: Timestamp,
    /// (key, value) telemetry entries.
    pub entries: Vec<(String, String)>,
}

impl KpmIndication {
    /// Builds an indication carrying MobiFlow records.
    pub fn from_records(
        cell: CellId,
        window_start: Timestamp,
        window_end: Timestamp,
        records: &[UeMobiFlow],
    ) -> Self {
        KpmIndication {
            cell,
            window_start,
            window_end,
            entries: records
                .iter()
                .map(|r| (format!("mf/{}", r.msg_id), encode_ue_record(r)))
                .collect(),
        }
    }

    /// Extracts the MobiFlow records carried by this indication, in entry
    /// order. Non-`mf/` entries are skipped; malformed `mf/` values error.
    pub fn mobiflow_records(&self) -> Result<Vec<UeMobiFlow>> {
        self.entries
            .iter()
            .filter(|(k, _)| k.starts_with("mf/"))
            .map(|(_, v)| decode_ue_record(v))
            .collect()
    }

    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(self.cell.0);
        buf.put_u64(self.window_start.as_micros());
        buf.put_u64(self.window_end.as_micros());
        buf.put_u32(self.entries.len() as u32);
        for (k, v) in &self.entries {
            put_str(&mut buf, k);
            put_str(&mut buf, v);
        }
        buf.to_vec()
    }

    /// Decodes a payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut buf = bytes;
        if buf.remaining() < 24 {
            return Err(err("truncated KPM header"));
        }
        let cell = CellId(buf.get_u32());
        let window_start = Timestamp(buf.get_u64());
        let window_end = Timestamp(buf.get_u64());
        let n = buf.get_u32() as usize;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let k = get_str(&mut buf)?;
            let v = get_str(&mut buf)?;
            entries.push((k, v));
        }
        if buf.has_remaining() {
            return Err(err(format!("{} trailing bytes", buf.remaining())));
        }
        Ok(KpmIndication { cell, window_start, window_end, entries })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Reads one length-prefixed string, copying its bytes once.
fn get_str(buf: &mut &[u8]) -> Result<String> {
    if buf.remaining() < 2 {
        return Err(err("truncated string length"));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(err("truncated string body"));
    }
    std::str::from_utf8(crate::e2ap::take(buf, len))
        .map(str::to_owned)
        .map_err(|e| err(format!("bad utf8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::Rnti;

    fn record(id: u64) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: id,
            timestamp: Timestamp(id * 100),
            cell: CellId(1),
            rnti: Rnti(0x4601),
            du_ue_id: 1,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    #[test]
    fn records_round_trip_through_indication() {
        let records: Vec<_> = (0..5).map(record).collect();
        let ind = KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1000), &records);
        let bytes = ind.encode();
        let back = KpmIndication::decode(&bytes).unwrap();
        assert_eq!(back, ind);
        assert_eq!(back.mobiflow_records().unwrap(), records);
    }

    #[test]
    fn non_mobiflow_entries_are_skipped() {
        let mut ind =
            KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &[record(1)]);
        ind.entries.push(("kpm/prb_util".into(), "0.7".into()));
        assert_eq!(ind.mobiflow_records().unwrap().len(), 1);
    }

    #[test]
    fn malformed_mobiflow_value_errors() {
        let ind = KpmIndication {
            cell: CellId(1),
            window_start: Timestamp(0),
            window_end: Timestamp(1),
            entries: vec![("mf/0".into(), "garbage".into())],
        };
        assert!(ind.mobiflow_records().is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let ind = KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &[record(1)]);
        let bytes = ind.encode();
        for cut in 0..bytes.len() {
            assert!(KpmIndication::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_entries_round_trip(
            entries in proptest::collection::vec(("[a-z/0-9]{0,20}", "[ -~]{0,40}"), 0..16)
        ) {
            let ind = KpmIndication {
                cell: CellId(3),
                window_start: Timestamp(1),
                window_end: Timestamp(2),
                entries,
            };
            prop_assert_eq!(KpmIndication::decode(&ind.encode()).unwrap(), ind);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = KpmIndication::decode(&bytes);
        }
    }
}
