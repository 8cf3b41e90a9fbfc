//! Chain verification and the scanner's failure classification.

use crate::cert::{Certificate, TrustStore};
use crate::date::DateStamp;
use crate::error::CertError;

/// Verify a chain as a client would.
///
/// `chain[0]` is the leaf; each following certificate must have signed its
/// predecessor; the last must be signed by (or be) a trust anchor.
///
/// `expected_name` is checked against the leaf when provided. The paper's
/// scanner passes `None` — "as the names of DoT resolvers are unknown to
/// us, we do not compare domain names ... but only verify the certificate
/// paths" (§3.2) — while DoH clients pass the URI-template hostname.
pub fn verify_chain(
    chain: &[Certificate],
    store: &TrustStore,
    now: DateStamp,
    expected_name: Option<&str>,
) -> Result<(), CertError> {
    let leaf = chain.first().ok_or(CertError::EmptyChain)?;

    // 1. Signature structure, bottom-up.
    for i in 0..chain.len() {
        let cert = &chain[i];
        if let Some(issuer) = chain.get(i + 1) {
            if !cert.signature_valid_under(issuer.key) {
                return Err(CertError::InvalidChain);
            }
        }
    }

    // 2. Trust anchoring of the top of the chain: the signer must be an
    //    anchor AND its signature must actually verify — a forged
    //    certificate merely *claiming* a trusted issuer is a broken chain.
    let top = chain.last().ok_or(CertError::EmptyChain)?;
    if store.is_trusted(top.signature.signer) {
        if !top.signature_valid_under(top.signature.signer) {
            return Err(CertError::InvalidChain);
        }
    } else {
        if chain.len() == 1 && top.is_self_signed() {
            return Err(CertError::SelfSigned);
        }
        if !top.signature_valid_under(top.key) && chain.len() == 1 {
            // Leaf claims an external issuer but none was presented and the
            // signer isn't anchored: broken chain.
            return Err(CertError::InvalidChain);
        }
        return Err(CertError::UntrustedCa {
            ca_cn: top.issuer_cn.clone(),
        });
    }

    // 3. Validity windows (leaf first — that's what gets reported).
    for cert in chain {
        if now > cert.not_after {
            return Err(CertError::Expired);
        }
        if now < cert.not_before {
            return Err(CertError::NotYetValid);
        }
    }

    // 4. Name check (optional).
    if let Some(name) = expected_name {
        if !leaf.matches_name(name) {
            return Err(CertError::NameMismatch {
                expected: name.to_string(),
                found: leaf.subject_cn.clone(),
            });
        }
    }
    Ok(())
}

/// The scanner's per-resolver certificate verdict (Figure 4's split).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertStatus {
    /// Chain verifies against the trust store.
    Valid,
    /// Expired leaf or intermediate.
    Expired,
    /// Self-signed certificate (incl. appliance default certificates).
    SelfSigned,
    /// Broken or un-anchored chain.
    InvalidChain,
    /// Signed by a CA outside the store (interception CA).
    UntrustedCa {
        /// The CA common name seen.
        ca_cn: String,
    },
}

impl CertStatus {
    /// Whether this status counts as "invalid" in Finding 1.2.
    pub fn is_invalid(&self) -> bool {
        !matches!(self, CertStatus::Valid)
    }
}

/// Classify a chain into the paper's reporting buckets.
pub fn classify_chain(chain: &[Certificate], store: &TrustStore, now: DateStamp) -> CertStatus {
    match verify_chain(chain, store, now, None) {
        Ok(()) => CertStatus::Valid,
        Err(CertError::Expired) | Err(CertError::NotYetValid) => CertStatus::Expired,
        Err(CertError::SelfSigned) => CertStatus::SelfSigned,
        Err(CertError::InvalidChain) | Err(CertError::EmptyChain) => CertStatus::InvalidChain,
        Err(CertError::UntrustedCa { ca_cn }) => CertStatus::UntrustedCa { ca_cn },
        Err(CertError::NameMismatch { .. }) => unreachable!("no name check requested"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CaHandle, KeyId};

    fn day(n: i64) -> DateStamp {
        DateStamp::from_ymd(2019, 2, 1) + n
    }

    fn trusted_ca() -> (CaHandle, TrustStore) {
        let ca = CaHandle::new("Let's Encrypt Authority X3", KeyId(1), day(-365), 3650);
        let mut store = TrustStore::new();
        store.add(ca.authority());
        (ca, store)
    }

    #[test]
    fn valid_leaf_passes() {
        let (ca, store) = trusted_ca();
        let leaf = ca.issue("dns.example.com", vec![], KeyId(2), 1, day(-10), day(80));
        assert_eq!(
            verify_chain(std::slice::from_ref(&leaf), &store, day(0), None),
            Ok(())
        );
        assert_eq!(classify_chain(&[leaf], &store, day(0)), CertStatus::Valid);
    }

    #[test]
    fn expired_leaf_classified() {
        let (ca, store) = trusted_ca();
        // Expired July 2018 — like the 185.56.24.52 resolver in the paper.
        let leaf = ca.issue("old.example.com", vec![], KeyId(2), 1, day(-400), day(-200));
        assert_eq!(
            verify_chain(std::slice::from_ref(&leaf), &store, day(0), None),
            Err(CertError::Expired)
        );
        assert_eq!(classify_chain(&[leaf], &store, day(0)), CertStatus::Expired);
    }

    #[test]
    fn not_yet_valid_reports_as_expired_bucket() {
        let (ca, store) = trusted_ca();
        let leaf = ca.issue("soon.example.com", vec![], KeyId(2), 1, day(30), day(300));
        assert_eq!(classify_chain(&[leaf], &store, day(0)), CertStatus::Expired);
    }

    #[test]
    fn self_signed_classified() {
        let (_ca, store) = trusted_ca();
        let leaf = CaHandle::self_signed("FGT60D", vec![], KeyId(9), 1, day(-1), day(3650));
        assert_eq!(
            classify_chain(&[leaf], &store, day(0)),
            CertStatus::SelfSigned
        );
    }

    #[test]
    fn untrusted_ca_classified_with_cn() {
        let (_ca, store) = trusted_ca();
        let mitm = CaHandle::new("SonicWall Firewall DPI-SSL", KeyId(66), day(-100), 3650);
        let leaf = mitm.issue("cloudflare-dns.com", vec![], KeyId(2), 1, day(-1), day(300));
        // Chain includes the (untrusted) root.
        let status = classify_chain(&[leaf, mitm.root_cert().clone()], &store, day(0));
        assert_eq!(
            status,
            CertStatus::UntrustedCa {
                ca_cn: "SonicWall Firewall DPI-SSL".into()
            }
        );
    }

    #[test]
    fn broken_chain_classified() {
        let (ca, store) = trusted_ca();
        let other = CaHandle::new("Other CA", KeyId(50), day(-100), 3650);
        let leaf = ca.issue("x.example.com", vec![], KeyId(2), 1, day(-1), day(300));
        // Present the wrong intermediate: leaf's signature can't verify
        // under it.
        let status = classify_chain(&[leaf, other.root_cert().clone()], &store, day(0));
        assert_eq!(status, CertStatus::InvalidChain);
    }

    #[test]
    fn leaf_claiming_absent_issuer_is_invalid_chain() {
        let store = TrustStore::new();
        let ca = CaHandle::new("Nobody Trusts Me", KeyId(3), day(-10), 3650);
        let mut leaf = ca.issue("x.example.com", vec![], KeyId(2), 1, day(-1), day(300));
        // Corrupt the signature digest: not self-signed, signer unknown.
        leaf.signature.digest ^= 1;
        assert_eq!(
            classify_chain(&[leaf], &store, day(0)),
            CertStatus::InvalidChain
        );
    }

    #[test]
    fn empty_chain_is_invalid() {
        let store = TrustStore::new();
        assert_eq!(
            classify_chain(&[], &store, day(0)),
            CertStatus::InvalidChain
        );
        assert_eq!(
            verify_chain(&[], &store, day(0), None),
            Err(CertError::EmptyChain)
        );
    }

    #[test]
    fn name_check_only_when_requested() {
        let (ca, store) = trusted_ca();
        let leaf = ca.issue("dns.quad9.net", vec![], KeyId(2), 1, day(-1), day(300));
        assert!(verify_chain(std::slice::from_ref(&leaf), &store, day(0), None).is_ok());
        assert!(verify_chain(
            std::slice::from_ref(&leaf),
            &store,
            day(0),
            Some("dns.quad9.net")
        )
        .is_ok());
        assert_eq!(
            verify_chain(&[leaf], &store, day(0), Some("dns.google")),
            Err(CertError::NameMismatch {
                expected: "dns.google".into(),
                found: "dns.quad9.net".into()
            })
        );
    }

    #[test]
    fn two_level_chain_verifies() {
        let root = CaHandle::new("Root CA", KeyId(1), day(-1000), 7300);
        let mut store = TrustStore::new();
        store.add(root.authority());
        // Intermediate signed by root; leaf signed by intermediate.
        let inter_key = KeyId(10);
        let inter_cert = root.issue(
            "Intermediate CA",
            vec![],
            inter_key,
            2,
            day(-500),
            day(1000),
        );
        let inter = CaHandle::new("Intermediate CA", inter_key, day(-500), 1000);
        let leaf = inter.issue("dns.example.com", vec![], KeyId(20), 3, day(-1), day(90));
        let chain = vec![leaf, inter_cert];
        assert_eq!(verify_chain(&chain, &store, day(0), None), Ok(()));
    }

    #[test]
    fn is_invalid_helper() {
        assert!(!CertStatus::Valid.is_invalid());
        assert!(CertStatus::Expired.is_invalid());
        assert!(CertStatus::SelfSigned.is_invalid());
    }
}
