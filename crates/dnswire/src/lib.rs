//! # dnswire — DNS wire-format codec
//!
//! A from-scratch implementation of the DNS message format as specified by
//! RFC 1035, with the extensions needed by the DNS-over-Encryption
//! measurement pipeline:
//!
//! * domain [`Name`]s with full compression-pointer support on both the
//!   encode and decode paths,
//! * the common resource-record types (`A`, `AAAA`, `NS`, `CNAME`, `SOA`,
//!   `PTR`, `MX`, `TXT`) plus an opaque escape hatch for everything else,
//! * EDNS(0) (RFC 6891) including the padding option (RFC 7830) used by
//!   DoT/DoH clients to blunt traffic analysis,
//! * the two-byte length framing used by DNS over TCP/TLS (RFC 1035 §4.2.2),
//! * convenience [`builder`] helpers for queries and responses, and
//! * a small authoritative [`zone`] data model used by the simulated
//!   resolvers.
//!
//! The codec is strict on decode (no panics on hostile input — every failure
//! is a typed [`WireError`]) and deterministic on encode, which the
//! measurement harness relies on for byte-for-byte reproducibility.
//!
//! ```
//! use dnswire::{builder, Message, RecordType};
//!
//! let query = builder::query(0x1234, "example.com", RecordType::A).unwrap();
//! let bytes = query.encode().unwrap();
//! let parsed = Message::decode(&bytes).unwrap();
//! assert_eq!(parsed.questions[0].qname.to_string(), "example.com.");
//! ```

pub mod builder;
pub mod edns;
pub mod error;
pub mod framing;
pub mod header;
pub mod message;
pub mod name;
pub mod rr;
pub mod view;
pub mod zone;

pub use edns::{pad_to_block, EdnsOption, OptRecord, PaddingPolicy};
pub use error::WireError;
pub use framing::{frame_message, read_framed, FrameDecoder};
pub use header::{Header, Opcode, Rcode};
pub use message::{Message, Question};
pub use name::Name;
pub use rr::{RData, RecordClass, RecordType, ResourceRecord, SoaData};
pub use view::{MessageBuf, MessageView, NameRef, RrView};
pub use zone::{Zone, ZoneLookup};

/// Maximum size of a DNS message carried over UDP without EDNS (RFC 1035).
pub const MAX_UDP_PAYLOAD: usize = 512;

/// The default EDNS(0) UDP payload size advertised by our stub resolvers.
pub const DEFAULT_EDNS_PAYLOAD: u16 = 4096;

/// Maximum length of a domain name on the wire, in octets (RFC 1035 §3.1).
pub const MAX_NAME_LEN: usize = 255;

/// Maximum length of a single label, in octets.
pub const MAX_LABEL_LEN: usize = 63;
