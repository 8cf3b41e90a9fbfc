//! Certificates, keys, CAs and trust stores.
//!
//! Cryptography is *simulated*: a key pair is an opaque [`KeyId`]; a
//! signature is valid iff it names the issuer's key and matches a
//! deterministic digest of the signed fields. This preserves everything the
//! study measures — who signed what, chain structure, trust anchoring,
//! expiry — without real asymmetric crypto.

use crate::date::DateStamp;
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a simulated key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

/// FNV-1a, the deterministic digest used for simulated signatures,
/// session keys and ticket secrets.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, data)
}

/// Continue an FNV-1a digest `h` over `data`: `fnv1a_continue(fnv1a(a), b)`
/// is the digest of `a` followed by `b`, without concatenating them.
pub(crate) fn fnv1a_continue(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A simulated signature: which key signed, over which digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The signing key.
    pub signer: KeyId,
    /// Digest of the to-be-signed bytes at signing time.
    pub digest: u64,
}

/// An X.509-like certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject common name (the paper groups DoT providers by this).
    pub subject_cn: String,
    /// Subject alternative names (hostnames the cert is valid for).
    pub san: Vec<String>,
    /// Issuer common name.
    pub issuer_cn: String,
    /// Serial number.
    pub serial: u64,
    /// Validity start.
    pub not_before: DateStamp,
    /// Validity end.
    pub not_after: DateStamp,
    /// The subject's public key.
    pub key: KeyId,
    /// Issuer signature over the fields above.
    pub signature: Signature,
}

impl Certificate {
    /// Digest of the to-be-signed fields.
    pub fn tbs_digest(&self) -> u64 {
        let mut buf = Vec::new();
        buf.extend_from_slice(self.subject_cn.as_bytes());
        buf.push(0);
        for san in &self.san {
            buf.extend_from_slice(san.as_bytes());
            buf.push(0);
        }
        buf.extend_from_slice(self.issuer_cn.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.serial.to_be_bytes());
        buf.extend_from_slice(&self.not_before.days().to_be_bytes());
        buf.extend_from_slice(&self.not_after.days().to_be_bytes());
        buf.extend_from_slice(&self.key.0.to_be_bytes());
        fnv1a(&buf)
    }

    /// Whether the embedded signature matches the current fields and was
    /// made with `issuer_key`.
    pub fn signature_valid_under(&self, issuer_key: KeyId) -> bool {
        self.signature.signer == issuer_key && self.signature.digest == self.tbs_digest()
    }

    /// Whether the certificate is self-signed (signed by its own key).
    pub fn is_self_signed(&self) -> bool {
        self.signature_valid_under(self.key)
    }

    /// Whether `hostname` matches the CN or a SAN (supports a single
    /// leading `*.` wildcard label).
    pub fn matches_name(&self, hostname: &str) -> bool {
        let host = hostname.trim_end_matches('.').to_ascii_lowercase();
        std::iter::once(self.subject_cn.as_str())
            .chain(self.san.iter().map(String::as_str))
            .any(|pattern| name_matches(&pattern.to_ascii_lowercase(), &host))
    }

    /// Whether `date` is inside the validity window.
    pub fn valid_at(&self, date: DateStamp) -> bool {
        self.not_before <= date && date <= self.not_after
    }
}

fn name_matches(pattern: &str, host: &str) -> bool {
    let pattern = pattern.trim_end_matches('.');
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match host.split_once('.') {
            Some((first, rest)) => !first.is_empty() && rest == suffix,
            None => false,
        }
    } else {
        pattern == host
    }
}

/// A certificate authority: a named key that can issue certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateAuthority {
    /// CA common name (e.g. `Let's Encrypt Authority X3`,
    /// `FortiGate CA` for the interception devices of Finding 1.2).
    pub cn: String,
    /// CA key pair.
    pub key: KeyId,
    /// The CA's own (self-signed) certificate.
    pub root: Certificate,
}

/// Handle to a CA able to issue leaf certificates.
#[derive(Debug, Clone)]
pub struct CaHandle {
    ca: CertificateAuthority,
}

impl CaHandle {
    /// Create a CA with the given name and key.
    pub fn new(cn: &str, key: KeyId, valid_from: DateStamp, valid_days: i64) -> Self {
        let mut root = Certificate {
            subject_cn: cn.to_string(),
            san: Vec::new(),
            issuer_cn: cn.to_string(),
            serial: key.0,
            not_before: valid_from,
            not_after: valid_from + valid_days,
            key,
            signature: Signature {
                signer: key,
                digest: 0,
            },
        };
        root.signature.digest = root.tbs_digest();
        CaHandle {
            ca: CertificateAuthority {
                cn: cn.to_string(),
                key,
                root,
            },
        }
    }

    /// The CA's metadata.
    pub fn authority(&self) -> &CertificateAuthority {
        &self.ca
    }

    /// The CA common name.
    pub fn cn(&self) -> &str {
        &self.ca.cn
    }

    /// The CA key.
    pub fn key(&self) -> KeyId {
        self.ca.key
    }

    /// The self-signed root certificate.
    pub fn root_cert(&self) -> &Certificate {
        &self.ca.root
    }

    /// Issue a leaf certificate.
    pub fn issue(
        &self,
        subject_cn: &str,
        san: Vec<String>,
        subject_key: KeyId,
        serial: u64,
        not_before: DateStamp,
        not_after: DateStamp,
    ) -> Certificate {
        let mut cert = Certificate {
            subject_cn: subject_cn.to_string(),
            san,
            issuer_cn: self.ca.cn.clone(),
            serial,
            not_before,
            not_after,
            key: subject_key,
            signature: Signature {
                signer: self.ca.key,
                digest: 0,
            },
        };
        cert.signature.digest = cert.tbs_digest();
        cert
    }

    /// Re-sign someone else's leaf with this CA, keeping every other field
    /// — exactly what the study's interception devices do (Table 6: "all
    /// resolver certificates are re-signed by an untrusted CA, while other
    /// fields remain unchanged").
    pub fn resign(&self, original: &Certificate) -> Certificate {
        let mut cert = original.clone();
        cert.issuer_cn = self.ca.cn.clone();
        cert.signature = Signature {
            signer: self.ca.key,
            digest: 0,
        };
        cert.signature.digest = cert.tbs_digest();
        cert
    }

    /// Create a self-signed certificate (no CA involved) — the default
    /// certificates of firewall appliances and hobbyist resolvers.
    pub fn self_signed(
        subject_cn: &str,
        san: Vec<String>,
        key: KeyId,
        serial: u64,
        not_before: DateStamp,
        not_after: DateStamp,
    ) -> Certificate {
        let mut cert = Certificate {
            subject_cn: subject_cn.to_string(),
            san,
            issuer_cn: subject_cn.to_string(),
            serial,
            not_before,
            not_after,
            key,
            signature: Signature {
                signer: key,
                digest: 0,
            },
        };
        cert.signature.digest = cert.tbs_digest();
        cert
    }
}

/// The client-side trust anchor list (Mozilla CA list analog; the paper
/// verified against the CentOS 7.6 system store).
///
/// The anchors are shared: a clone copies a pointer, so every client of
/// a million-client fleet can hold the store. [`TrustStore::add`] copies
/// them first if another clone still shares them, and an empty store
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    anchors: Option<Arc<HashMap<KeyId, String>>>,
}

impl TrustStore {
    /// An empty store (trusts nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trusted CA.
    pub fn add(&mut self, ca: &CertificateAuthority) {
        self.add_key(ca.key, &ca.cn);
    }

    /// Add by raw key (for tests).
    pub fn add_key(&mut self, key: KeyId, cn: &str) {
        Arc::make_mut(self.anchors.get_or_insert_with(Arc::default)).insert(key, cn.to_string());
    }

    /// Whether a key is a trust anchor.
    pub fn is_trusted(&self, key: KeyId) -> bool {
        self.anchors.as_ref().is_some_and(|a| a.contains_key(&key))
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.anchors.as_ref().map_or(0, |a| a.len())
    }

    /// True if the store trusts nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(n: i64) -> DateStamp {
        DateStamp::from_ymd(2019, 1, 1) + n
    }

    #[test]
    fn issued_cert_verifies_under_issuer_key() {
        let ca = CaHandle::new("Test CA", KeyId(1), day(0), 3650);
        let cert = ca.issue("dns.example.com", vec![], KeyId(2), 7, day(0), day(90));
        assert!(cert.signature_valid_under(ca.key()));
        assert!(!cert.signature_valid_under(KeyId(99)));
        assert!(!cert.is_self_signed());
    }

    #[test]
    fn tampered_cert_fails_signature() {
        let ca = CaHandle::new("Test CA", KeyId(1), day(0), 3650);
        let mut cert = ca.issue("dns.example.com", vec![], KeyId(2), 7, day(0), day(90));
        cert.subject_cn = "evil.example.com".to_string();
        assert!(!cert.signature_valid_under(ca.key()));
    }

    #[test]
    fn self_signed_detected() {
        let cert = CaHandle::self_signed("FGT60D", vec![], KeyId(5), 1, day(0), day(3650));
        assert!(cert.is_self_signed());
    }

    #[test]
    fn resign_keeps_fields_changes_issuer() {
        let real = CaHandle::new("DigiCert", KeyId(1), day(0), 3650);
        let mitm = CaHandle::new("SonicWall Firewall DPI-SSL", KeyId(66), day(0), 3650);
        let orig = real.issue(
            "cloudflare-dns.com",
            vec!["*.cloudflare-dns.com".into(), "one.one.one.one".into()],
            KeyId(2),
            42,
            day(0),
            day(365),
        );
        let forged = mitm.resign(&orig);
        assert_eq!(forged.subject_cn, orig.subject_cn);
        assert_eq!(forged.san, orig.san);
        assert_eq!(forged.serial, orig.serial);
        assert_eq!(forged.issuer_cn, "SonicWall Firewall DPI-SSL");
        assert!(forged.signature_valid_under(mitm.key()));
        assert!(!forged.signature_valid_under(real.key()));
    }

    #[test]
    fn name_matching_with_wildcards() {
        let ca = CaHandle::new("CA", KeyId(1), day(0), 3650);
        let cert = ca.issue(
            "cloudflare-dns.com",
            vec!["*.cloudflare-dns.com".into(), "one.one.one.one".into()],
            KeyId(2),
            1,
            day(0),
            day(365),
        );
        assert!(cert.matches_name("cloudflare-dns.com"));
        assert!(cert.matches_name("mozilla.cloudflare-dns.com"));
        assert!(cert.matches_name("MOZILLA.CLOUDFLARE-DNS.COM."));
        assert!(cert.matches_name("one.one.one.one"));
        assert!(
            !cert.matches_name("a.b.cloudflare-dns.com"),
            "wildcard is one label"
        );
        assert!(!cert.matches_name("cloudflare-dns.org"));
    }

    #[test]
    fn validity_window() {
        let ca = CaHandle::new("CA", KeyId(1), day(0), 3650);
        let cert = ca.issue("x", vec![], KeyId(2), 1, day(10), day(20));
        assert!(!cert.valid_at(day(9)));
        assert!(cert.valid_at(day(10)));
        assert!(cert.valid_at(day(20)));
        assert!(!cert.valid_at(day(21)));
    }

    #[test]
    fn trust_store_membership() {
        let ca = CaHandle::new("Root", KeyId(1), day(0), 3650);
        let mut store = TrustStore::new();
        assert!(store.is_empty());
        store.add(ca.authority());
        assert!(store.is_trusted(ca.key()));
        assert!(!store.is_trusted(KeyId(2)));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn a_cloned_store_copies_its_anchors_on_write() {
        let mut store = TrustStore::new();
        store.add_key(KeyId(1), "Root");
        let shared = store.clone();
        store.add_key(KeyId(2), "Second root");
        assert!(store.is_trusted(KeyId(2)));
        assert!(!shared.is_trusted(KeyId(2)), "the clone keeps its anchors");
        assert_eq!((store.len(), shared.len()), (2, 1));
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
