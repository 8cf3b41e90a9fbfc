//! TLS and certificate error types.

use std::fmt;

/// Why a certificate chain failed verification.
///
/// Variants mirror the paper's Finding 1.2 taxonomy: of the invalid DoT
/// certificates observed on May 1, "27 expired, 67 self-signed and 28
/// invalid certificate chains", plus the untrusted-CA class produced by
/// interception devices (Finding 2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The server presented no certificate at all.
    EmptyChain,
    /// The leaf is outside its validity window (expired).
    Expired,
    /// The leaf is not yet valid.
    NotYetValid,
    /// The leaf is self-signed.
    SelfSigned,
    /// A signature in the chain does not verify (broken/invalid chain).
    InvalidChain,
    /// The chain terminates at a CA that is not in the trust store —
    /// the signature of TLS interception.
    UntrustedCa {
        /// Common name of the CA that actually signed.
        ca_cn: String,
    },
    /// The certificate does not cover the requested hostname.
    NameMismatch {
        /// Hostname the client asked for.
        expected: String,
        /// Subject CN found.
        found: String,
    },
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::EmptyChain => write!(f, "no certificate presented"),
            CertError::Expired => write!(f, "certificate expired"),
            CertError::NotYetValid => write!(f, "certificate not yet valid"),
            CertError::SelfSigned => write!(f, "self-signed certificate"),
            CertError::InvalidChain => write!(f, "invalid certificate chain"),
            CertError::UntrustedCa { ca_cn } => write!(f, "untrusted CA {ca_cn:?}"),
            CertError::NameMismatch { expected, found } => {
                write!(f, "name mismatch: wanted {expected:?}, got {found:?}")
            }
        }
    }
}

impl std::error::Error for CertError {}

/// Why a TLS session failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// TCP-level failure before or during the handshake.
    Transport(netsim::ConnectError),
    /// Certificate verification failed under the Strict profile.
    Cert(CertError),
    /// The peer sent bytes that don't parse as TLS.
    ProtocolViolation(String),
    /// Record integrity check failed (tampering or key mismatch).
    BadRecordMac,
    /// The server refused or could not complete the handshake.
    HandshakeFailed(String),
    /// ALPN negotiation failed (no mutually acceptable protocol).
    AlpnMismatch,
    /// A plaintext of this many bytes does not fit one record.
    RecordOverflow(usize),
}

impl fmt::Display for TlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlsError::Transport(e) => write!(f, "transport: {e}"),
            TlsError::Cert(e) => write!(f, "certificate: {e}"),
            TlsError::ProtocolViolation(s) => write!(f, "protocol violation: {s}"),
            TlsError::BadRecordMac => write!(f, "bad record MAC"),
            TlsError::HandshakeFailed(s) => write!(f, "handshake failed: {s}"),
            TlsError::AlpnMismatch => write!(f, "ALPN mismatch"),
            TlsError::RecordOverflow(len) => write!(f, "{len}-byte plaintext overflows a record"),
        }
    }
}

impl std::error::Error for TlsError {}

impl From<netsim::ConnectError> for TlsError {
    fn from(e: netsim::ConnectError) -> Self {
        TlsError::Transport(e)
    }
}

impl From<CertError> for TlsError {
    fn from(e: CertError) -> Self {
        TlsError::Cert(e)
    }
}
