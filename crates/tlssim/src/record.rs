//! TLS record framing and the simulated AEAD.
//!
//! Records are `[type:u8][len:u16][payload]`. Application-data payloads are
//! "encrypted" with a keystream derived from the session key and sealed
//! with an FNV integrity tag. This is emphatically **not** cryptography —
//! the study never attacks the cipher — but it gives the simulation the two
//! properties the measurements rely on: a party without the session key
//! cannot read or forge application data, and tampering is detected.

use crate::cert::{fnv1a, fnv1a_continue};
use crate::error::TlsError;

/// Record content types (mirroring TLS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// Handshake messages (clear in this simulation).
    Handshake,
    /// Encrypted application data.
    ApplicationData,
    /// Fatal alerts.
    Alert,
}

impl ContentType {
    fn to_u8(self) -> u8 {
        match self {
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// One TLS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub ctype: ContentType,
    /// Raw payload (ciphertext for application data).
    pub payload: Vec<u8>,
}

impl Record {
    /// Serialise to wire bytes.
    ///
    /// # Panics
    /// Panics if the payload is longer than `u16::MAX` bytes, as
    /// [`Record::encode_into`] does.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Append the record's wire bytes to `out`.
    ///
    /// # Panics
    /// Panics if the payload is longer than `u16::MAX` bytes, which the
    /// record's length field cannot carry. Keeping it shorter is the
    /// caller's invariant: [`seal_record`] and the handshake refuse a
    /// longer payload with [`TlsError::RecordOverflow`], and every other
    /// record the simulator builds carries a short alert or `Finished`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(
            self.payload.len() <= usize::from(u16::MAX),
            "a {}-byte record payload overflows the u16 length field",
            self.payload.len()
        );
        out.push(self.ctype.to_u8());
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Length of the record on the wire: header and payload.
    fn wire_len(&self) -> usize {
        3 + self.payload.len()
    }
}

/// Parse every record in a flight of bytes.
pub fn decode_records(mut data: &[u8]) -> Result<Vec<Record>, TlsError> {
    let mut records = Vec::new();
    while !data.is_empty() {
        if data.len() < 3 {
            return Err(TlsError::ProtocolViolation(
                "truncated record header".into(),
            ));
        }
        let ctype = ContentType::from_u8(data[0])
            .ok_or_else(|| TlsError::ProtocolViolation(format!("content type {}", data[0])))?;
        let len = u16::from_be_bytes([data[1], data[2]]) as usize;
        let payload = data
            .get(3..3 + len)
            .ok_or_else(|| TlsError::ProtocolViolation("truncated record body".into()))?;
        records.push(Record {
            ctype,
            payload: payload.to_vec(),
        });
        data = &data[3 + len..];
    }
    Ok(records)
}

/// Encode a flight of records into one buffer sized to the flight.
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.iter().map(Record::wire_len).sum());
    for r in records {
        r.encode_into(&mut out);
    }
    out
}

/// The simulated AEAD session key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKey(pub u64);

impl SessionKey {
    /// Derive the full-handshake session key.
    pub fn derive(client_random: u64, server_random: u64, server_key: u64) -> Self {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&client_random.to_be_bytes());
        buf.extend_from_slice(&server_random.to_be_bytes());
        buf.extend_from_slice(&server_key.to_be_bytes());
        SessionKey(fnv1a(&buf))
    }

    /// Derive a resumed-session key from the previous key and a fresh
    /// client random.
    pub fn derive_resumed(old: SessionKey, client_random: u64) -> Self {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&old.0.to_be_bytes());
        buf.extend_from_slice(&client_random.to_be_bytes());
        SessionKey(fnv1a(&buf))
    }
}

fn keystream_byte(key: u64, i: usize) -> u8 {
    // xorshift* over (key, block index); cheap and deterministic.
    let mut x = key ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u8
}

/// The 8-byte integrity tag: FNV-1a over the key's big-endian bytes, then
/// the plaintext, in one pass that copies neither.
fn tag(key: SessionKey, plaintext: &[u8]) -> [u8; 8] {
    fnv1a_continue(fnv1a(&key.0.to_be_bytes()), plaintext).to_be_bytes()
}

/// Seal plaintext: keystream XOR plus an 8-byte integrity tag.
pub fn seal(key: SessionKey, plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + 8);
    out.extend(
        plaintext
            .iter()
            .enumerate()
            .map(|(i, &b)| b ^ keystream_byte(key.0, i)),
    );
    out.extend_from_slice(&tag(key, plaintext));
    out
}

/// The largest plaintext one sealed record carries: the record length
/// is a `u16`, and sealing adds the 8-byte tag.
pub const MAX_PLAINTEXT: usize = u16::MAX as usize - 8;

/// Seal `plaintext` into one application-data record.
///
/// Plaintext above [`MAX_PLAINTEXT`] is refused with
/// [`TlsError::RecordOverflow`], since its length would wrap the
/// record's length field. Nothing is fragmented across records.
pub fn seal_record(key: SessionKey, plaintext: &[u8]) -> Result<Record, TlsError> {
    if plaintext.len() > MAX_PLAINTEXT {
        return Err(TlsError::RecordOverflow(plaintext.len()));
    }
    Ok(Record {
        ctype: ContentType::ApplicationData,
        payload: seal(key, plaintext),
    })
}

/// Wrap an encoded handshake message in one handshake record.
///
/// A payload above `u16::MAX` bytes is refused with
/// [`TlsError::RecordOverflow`], since its length would wrap the
/// record's length field.
pub(crate) fn handshake_record(payload: Vec<u8>) -> Result<Record, TlsError> {
    if payload.len() > usize::from(u16::MAX) {
        return Err(TlsError::RecordOverflow(payload.len()));
    }
    Ok(Record {
        ctype: ContentType::Handshake,
        payload,
    })
}

/// Open ciphertext sealed with [`seal`]; fails on key mismatch or
/// tampering.
pub fn open(key: SessionKey, ciphertext: &[u8]) -> Result<Vec<u8>, TlsError> {
    if ciphertext.len() < 8 {
        return Err(TlsError::BadRecordMac);
    }
    let (body, sent_tag) = ciphertext.split_at(ciphertext.len() - 8);
    let plaintext: Vec<u8> = body
        .iter()
        .enumerate()
        .map(|(i, &b)| b ^ keystream_byte(key.0, i))
        .collect();
    if tag(key, &plaintext) != sent_tag {
        return Err(TlsError::BadRecordMac);
    }
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip() {
        let flight = encode_records(&[
            Record {
                ctype: ContentType::Handshake,
                payload: b"hello".to_vec(),
            },
            Record {
                ctype: ContentType::ApplicationData,
                payload: vec![1, 2, 3],
            },
        ]);
        let records = decode_records(&flight).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ctype, ContentType::Handshake);
        assert_eq!(records[1].payload, vec![1, 2, 3]);
    }

    #[test]
    fn truncated_record_rejected() {
        let violation = |s: &str| Err(TlsError::ProtocolViolation(s.into()));
        assert_eq!(
            decode_records(&[22, 0]),
            violation("truncated record header")
        );
        assert_eq!(
            decode_records(&[22, 0, 5, 1, 2]),
            violation("truncated record body")
        );
        assert_eq!(decode_records(&[99, 0, 0]), violation("content type 99"));
        // A good record followed by a truncated one fails as a whole.
        assert_eq!(
            decode_records(&[23, 0, 1, 7, 21, 0]),
            violation("truncated record header")
        );
    }

    #[test]
    fn largest_record_round_trips() {
        let key = SessionKey::derive(1, 2, 3);
        let record = seal_record(key, &[0x5a; MAX_PLAINTEXT]).unwrap();
        assert_eq!(record.payload.len(), usize::from(u16::MAX));
        let flight = encode_records(&[record.clone(), record.clone()]);
        assert_eq!(&flight[1..3], &[0xff, 0xff]);
        assert_eq!(
            decode_records(&flight).unwrap(),
            vec![record.clone(), record]
        );
    }

    #[test]
    fn oversized_plaintext_refused() {
        let key = SessionKey::derive(1, 2, 3);
        assert_eq!(
            seal_record(key, &[0; MAX_PLAINTEXT + 1]),
            Err(TlsError::RecordOverflow(MAX_PLAINTEXT + 1))
        );
    }

    #[test]
    fn empty_flight_is_empty() {
        assert_eq!(decode_records(&[]).unwrap(), vec![]);
    }

    #[test]
    fn seal_open_round_trip() {
        let key = SessionKey::derive(1, 2, 3);
        let ct = seal(key, b"dns query bytes");
        assert_ne!(&ct[..15], b"dns query bytes", "must not be plaintext");
        assert_eq!(open(key, &ct).unwrap(), b"dns query bytes");
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = SessionKey::derive(1, 2, 3);
        let k2 = SessionKey::derive(1, 2, 4);
        let ct = seal(k1, b"secret");
        assert_eq!(open(k2, &ct), Err(TlsError::BadRecordMac));
    }

    #[test]
    fn tampering_detected() {
        let key = SessionKey::derive(7, 8, 9);
        let mut ct = seal(key, b"integrity matters");
        ct[3] ^= 0xff;
        assert_eq!(open(key, &ct), Err(TlsError::BadRecordMac));
    }

    #[test]
    fn short_ciphertext_rejected() {
        let key = SessionKey::derive(1, 1, 1);
        assert_eq!(open(key, &[1, 2, 3]), Err(TlsError::BadRecordMac));
    }

    #[test]
    fn key_derivation_is_deterministic_and_sensitive() {
        assert_eq!(SessionKey::derive(1, 2, 3), SessionKey::derive(1, 2, 3));
        assert_ne!(SessionKey::derive(1, 2, 3), SessionKey::derive(2, 1, 3));
        let old = SessionKey::derive(1, 2, 3);
        assert_ne!(SessionKey::derive_resumed(old, 5), old);
        assert_eq!(
            SessionKey::derive_resumed(old, 5),
            SessionKey::derive_resumed(old, 5)
        );
    }

    #[test]
    fn empty_plaintext_seals() {
        let key = SessionKey::derive(4, 5, 6);
        let ct = seal(key, b"");
        assert_eq!(ct.len(), 8);
        assert_eq!(open(key, &ct).unwrap(), b"");
    }
}
