//! # tlssim — simulated TLS for the DNS-over-Encryption study
//!
//! The paper's server-side findings hinge on *certificate hygiene* (25% of
//! DoT providers serve invalid certificates — expired, self-signed, broken
//! chains; Finding 1.2) and on *TLS interception* (middleboxes re-signing
//! resolver certificates with untrusted CAs; Finding 2.3). This crate
//! implements the machinery those findings exercise:
//!
//! * an X.509-like [`cert::Certificate`] model with issuers, validity
//!   windows, SANs and simulated signatures,
//! * a Mozilla-CA-list-like [`cert::TrustStore`] and a
//!   [`verify`] pass that classifies failures exactly the way the paper
//!   reports them (expired / self-signed / invalid chain / untrusted CA),
//! * a TLS 1.2-style two-round-trip [`handshake`] over [`netsim`] TCP
//!   connections, with stateless session-ticket resumption,
//! * record-layer framing with simulated AEAD (keystream + integrity tag
//!   — *not* real cryptography; strength is irrelevant to the study, the
//!   round-trip and trust semantics are what matter), and
//! * [`mitm`]: interception middleboxes that terminate client TLS with a
//!   re-signed certificate and proxy plaintext to the genuine upstream,
//!   recording what they saw — the paper's FortiGate/SonicWall devices.
//!
//! Client policy follows RFC 8310 usage profiles: *Strict* (authenticate
//! or fail — DoH's only mode) and *Opportunistic* (proceed even if
//! authentication fails — how intercepted DoT clients silently kept
//! resolving, Finding 2.3).
//!
//! ```
//! use tlssim::{CaHandle, KeyId, TrustStore, DateStamp, classify_chain, CertStatus};
//!
//! let today = DateStamp::from_ymd(2019, 2, 1);
//! let ca = CaHandle::new("Example Root CA", KeyId(1), today + -365, 3650);
//! let mut store = TrustStore::new();
//! store.add(ca.authority());
//!
//! let leaf = ca.issue("dns.example.com", vec![], KeyId(2), 7, today + -30, today + 60);
//! assert_eq!(classify_chain(&[leaf], &store, today), CertStatus::Valid);
//!
//! // An appliance default certificate fails exactly the way Finding 1.2
//! // reports.
//! let appliance = CaHandle::self_signed("FGT60D", vec![], KeyId(3), 1, today, today + 3650);
//! assert_eq!(classify_chain(&[appliance], &store, today), CertStatus::SelfSigned);
//! ```

pub mod cert;
pub mod client;
pub mod date;
pub mod error;
pub mod handshake;
pub mod mitm;
pub mod record;
pub mod server;
pub mod verify;

pub use cert::{CaHandle, Certificate, CertificateAuthority, KeyId, TrustStore};
pub use client::{TlsClientConfig, TlsConnector, TlsStream, VerifyMode};
pub use date::DateStamp;
pub use error::{CertError, TlsError};
pub use mitm::{InterceptLog, InterceptedExchange, TlsInterceptService};
pub use server::{TlsServerConfig, TlsServerService};
pub use verify::{classify_chain, verify_chain, CertStatus};
