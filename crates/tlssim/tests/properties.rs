//! Property-based tests for the simulated TLS primitives.

use proptest::prelude::*;
use tlssim::cert::{CaHandle, KeyId};
use tlssim::record::{decode_records, encode_records, open, seal, ContentType, Record, SessionKey};
use tlssim::{classify_chain, CertStatus, DateStamp, TrustStore};

proptest! {
    #[test]
    fn seal_open_round_trips(key in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let key = SessionKey(key);
        let sealed = seal(key, &data);
        prop_assert_eq!(open(key, &sealed).unwrap(), data);
    }

    #[test]
    fn tampering_any_byte_detected(
        key in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<(usize, u8)>(),
    ) {
        let key = SessionKey(key);
        let mut sealed = seal(key, &data);
        let idx = flip.0 % sealed.len();
        let bit = flip.1 | 1; // never a zero XOR
        sealed[idx] ^= bit;
        prop_assert!(open(key, &sealed).is_err());
    }

    #[test]
    fn wrong_key_rejected(k1 in any::<u64>(), k2 in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assume!(k1 != k2);
        let sealed = seal(SessionKey(k1), &data);
        prop_assert!(open(SessionKey(k2), &sealed).is_err());
    }

    #[test]
    fn record_flights_round_trip(payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..5)) {
        let records: Vec<Record> = payloads
            .iter()
            .map(|p| Record { ctype: ContentType::ApplicationData, payload: p.clone() })
            .collect();
        let encoded = encode_records(&records);
        let decoded = decode_records(&encoded).unwrap();
        prop_assert_eq!(decoded, records);
    }

    /// A flight is written into one buffer, and must hold exactly the
    /// bytes of its records' `encode`, one after another, whatever their
    /// types and lengths.
    #[test]
    fn a_mixed_flight_is_its_records_encoded_in_order(
        records in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(any::<u8>(), 0..300)),
            0..6,
        ),
    ) {
        const TYPES: [ContentType; 3] =
            [ContentType::Handshake, ContentType::ApplicationData, ContentType::Alert];
        let records: Vec<Record> = records
            .into_iter()
            .map(|(t, payload)| Record { ctype: TYPES[t], payload })
            .collect();
        let concatenated: Vec<u8> = records.iter().flat_map(Record::encode).collect();
        prop_assert_eq!(encode_records(&records), concatenated);
    }

    #[test]
    fn record_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_records(&bytes);
    }

    #[test]
    fn issued_certs_always_verify_and_tampered_never_do(
        cn in proptest::string::string_regex("[a-z]{1,10}\\.[a-z]{2,5}").expect("regex"),
        key_id in 1u64..1_000_000,
        serial in any::<u64>(),
    ) {
        let now = DateStamp::from_ymd(2019, 2, 1);
        let ca = CaHandle::new("Prop CA", KeyId(7), now + -100, 3650);
        let mut store = TrustStore::new();
        store.add(ca.authority());
        let cert = ca.issue(&cn, vec![], KeyId(key_id), serial, now + -1, now + 90);
        prop_assert_eq!(classify_chain(std::slice::from_ref(&cert), &store, now), CertStatus::Valid);
        // Any field change breaks the signature.
        let mut tampered = cert;
        tampered.serial = tampered.serial.wrapping_add(1);
        prop_assert_ne!(classify_chain(&[tampered], &store, now), CertStatus::Valid);
    }

    #[test]
    fn resign_preserves_subject_changes_issuer(
        cn in proptest::string::string_regex("[a-z]{1,10}\\.[a-z]{2,5}").expect("regex"),
    ) {
        let now = DateStamp::from_ymd(2019, 2, 1);
        let real = CaHandle::new("Real CA", KeyId(1), now + -100, 3650);
        let mitm = CaHandle::new("MITM CA", KeyId(2), now + -100, 3650);
        let orig = real.issue(&cn, vec![format!("*.{cn}")], KeyId(3), 9, now + -1, now + 90);
        let forged = mitm.resign(&orig);
        prop_assert_eq!(&forged.subject_cn, &orig.subject_cn);
        prop_assert_eq!(&forged.san, &orig.san);
        prop_assert_eq!(forged.not_before, orig.not_before);
        prop_assert_eq!(forged.not_after, orig.not_after);
        prop_assert!(forged.signature_valid_under(mitm.key()));
        prop_assert!(!forged.signature_valid_under(real.key()));
    }

    #[test]
    fn date_round_trips(days in -30_000i64..60_000) {
        let d = DateStamp::from_ymd(1970, 1, 1) + days;
        let (y, m, dd) = d.to_ymd();
        prop_assert_eq!(DateStamp::from_ymd(y, m, dd), d);
    }
}
