//! Client-side query outcomes shared by every transport.

use dnswire::{MessageBuf, MessageView, WireError};
use netsim::{ConnectError, ConnectErrorKind, SimDuration, UdpError};
use std::fmt;
use tlssim::{CertError, TlsError};

/// Which transport carried a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsTransport {
    /// Clear-text DNS over UDP.
    Do53Udp,
    /// Clear-text DNS over TCP.
    Do53Tcp,
    /// DNS over TLS.
    Dot,
    /// DNS over HTTPS.
    Doh,
}

impl fmt::Display for DnsTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DnsTransport::Do53Udp => "Do53/UDP",
            DnsTransport::Do53Tcp => "Do53/TCP",
            DnsTransport::Dot => "DoT",
            DnsTransport::Doh => "DoH",
        };
        write!(f, "{s}")
    }
}

/// Transport-level facts attached to a successful reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportInfo {
    /// Transport used (after any fallback).
    pub protocol: DnsTransport,
    /// Certificate verification outcome, for TLS-based transports.
    /// `Some(Err(..))` with a successful lookup means an Opportunistic
    /// client proceeded despite failed authentication — the interception
    /// signature of Finding 2.3.
    pub verify: Option<Result<(), CertError>>,
    /// Whether a TLS session was resumed.
    pub resumed: bool,
    /// Whether the logical connection was reused from a pool.
    pub connection_reused: bool,
}

impl TransportInfo {
    /// Plain clear-text info.
    pub fn clear(protocol: DnsTransport) -> Self {
        TransportInfo {
            protocol,
            verify: None,
            resumed: false,
            connection_reused: false,
        }
    }
}

/// A successful DNS exchange, whatever the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// The response as it arrived, validated on receipt (its RCODE may
    /// still be an error — rcode classification is the *measurement's*
    /// job, Table 4).
    pub frame: MessageBuf,
    /// End-to-end latency charged for this query.
    pub latency: SimDuration,
    /// Transport facts.
    pub transport: TransportInfo,
}

impl QueryReply {
    /// The response, read in place.
    pub fn view(&self) -> MessageView<'_> {
        self.frame.view()
    }
}

/// A failed DNS exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// TCP-level failure.
    Connect(ConnectError),
    /// UDP-level failure.
    Udp(UdpError),
    /// TLS-level failure (incl. Strict-profile certificate rejection).
    Tls(TlsError),
    /// The response didn't parse.
    Wire(WireError),
    /// HTTP layer said no (non-200 status).
    Http {
        /// The status code received.
        status: u16,
        /// Time spent before the failure.
        elapsed: SimDuration,
    },
    /// All retries exhausted without an answer.
    Timeout {
        /// Total time wasted.
        elapsed: SimDuration,
    },
    /// The transport misbehaved in some other way.
    Protocol(String),
}

impl QueryError {
    /// Virtual time the failed attempt consumed, where attributable.
    pub fn elapsed(&self) -> SimDuration {
        match self {
            QueryError::Connect(e) => e.elapsed,
            QueryError::Udp(e) => e.elapsed(),
            QueryError::Tls(TlsError::Transport(e)) => e.elapsed,
            QueryError::Http { elapsed, .. } | QueryError::Timeout { elapsed } => *elapsed,
            _ => SimDuration::ZERO,
        }
    }

    /// Whether the failure is a *certificate* rejection (Strict profile).
    pub fn is_cert_failure(&self) -> bool {
        matches!(self, QueryError::Tls(TlsError::Cert(_)))
    }

    /// Whether the failure is a *timeout* — nothing came back before the
    /// deadline (blackhole, loss, dead address). This is the class a stub
    /// retransmits on; hard failures (resets, cert rejection, malformed
    /// responses) are not retried.
    pub fn is_timeout(&self) -> bool {
        match self {
            QueryError::Connect(e) => matches!(e.kind, ConnectErrorKind::Timeout),
            QueryError::Udp(e) => matches!(e, UdpError::Timeout { .. }),
            QueryError::Tls(TlsError::Transport(e)) => {
                matches!(e.kind, ConnectErrorKind::Timeout)
            }
            QueryError::Timeout { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Connect(e) => write!(f, "{e}"),
            QueryError::Udp(e) => write!(f, "{e}"),
            QueryError::Tls(e) => write!(f, "{e}"),
            QueryError::Wire(e) => write!(f, "bad response: {e}"),
            QueryError::Http { status, .. } => write!(f, "http status {status}"),
            QueryError::Timeout { elapsed } => write!(f, "query timeout after {elapsed}"),
            QueryError::Protocol(s) => write!(f, "protocol error: {s}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ConnectError> for QueryError {
    fn from(e: ConnectError) -> Self {
        QueryError::Connect(e)
    }
}

impl From<UdpError> for QueryError {
    fn from(e: UdpError) -> Self {
        QueryError::Udp(e)
    }
}

impl From<TlsError> for QueryError {
    fn from(e: TlsError) -> Self {
        QueryError::Tls(e)
    }
}

impl From<WireError> for QueryError {
    fn from(e: WireError) -> Self {
        QueryError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ConnectErrorKind;

    #[test]
    fn elapsed_extraction() {
        let e = QueryError::Connect(ConnectError {
            kind: ConnectErrorKind::Timeout,
            elapsed: SimDuration::from_secs(30),
            rule: None,
        });
        assert_eq!(e.elapsed(), SimDuration::from_secs(30));
        let e = QueryError::Timeout {
            elapsed: SimDuration::from_secs(5),
        };
        assert_eq!(e.elapsed(), SimDuration::from_secs(5));
        assert_eq!(
            QueryError::Protocol("x".into()).elapsed(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cert_failure_detection() {
        let e = QueryError::Tls(TlsError::Cert(CertError::SelfSigned));
        assert!(e.is_cert_failure());
        assert!(!QueryError::Timeout {
            elapsed: SimDuration::ZERO
        }
        .is_cert_failure());
    }

    #[test]
    fn transport_display() {
        assert_eq!(DnsTransport::Dot.to_string(), "DoT");
        assert_eq!(DnsTransport::Do53Udp.to_string(), "Do53/UDP");
    }
}
