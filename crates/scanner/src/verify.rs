//! Application-layer verification of port-853-open hosts: the getdns-style
//! DoT probe, certificate collection and answer validation.
//!
//! This is the campaign's hot path — a full-scale epoch verifies 2–3M
//! candidates — so the probe is built once per epoch as a [`ProbeTemplate`]
//! (pre-encoded, pre-padded, pre-framed; per-candidate stamping only), the
//! reply is classified through `dnswire`'s borrowing
//! [`MessageView`](dnswire::MessageView) without an owned decode, and the
//! results are packed into a columnar
//! [`ObservationTable`](crate::observation::ObservationTable).

use crate::observation::{CertClass, ObservationTable};
use crate::provider::provider_key;
use dnswire::{builder, frame_message, Rcode, RecordType, WireError};
use doe_protocols::dot::DotClient;
use netsim::telemetry::{CounterId, Labels, Registry, Span};
use netsim::{mix_seed, Network};
use std::net::Ipv4Addr;
use tlssim::{classify_chain, CertStatus, DateStamp, TlsClientConfig, TrustStore};

/// EDNS padding block applied to probe queries (RFC 8467 policy, matches
/// [`DotClient`]'s default).
const PAD_BLOCK: usize = 128;

/// A verification outcome's slot in [`VerifyCounters::outcome`] and its
/// stable label value.
fn outcome_class(outcome: &VerifyOutcome) -> (usize, &'static str) {
    match outcome {
        VerifyOutcome::OpenResolver => (0, "open_resolver"),
        VerifyOutcome::AnsweredError(_) => (1, "answered_error"),
        VerifyOutcome::NotDns => (2, "not_dns"),
        VerifyOutcome::NotTls => (3, "not_tls"),
        VerifyOutcome::ConnectFailed => (4, "connect_failed"),
    }
}

/// A certificate class's slot in [`VerifyCounters::cert`].
fn cert_slot(class: CertClass) -> usize {
    match class {
        CertClass::Valid => 0,
        CertClass::Expired => 1,
        CertClass::SelfSigned => 2,
        CertClass::InvalidChain => 3,
        CertClass::UntrustedCa => 4,
    }
}

/// One shard's handles for the per-candidate verify counters, one per
/// outcome class and one per certificate class. Each series is registered
/// the first time its class occurs: the snapshot prints every registered
/// series, so registering up front would add zero-valued keys.
#[derive(Default)]
struct VerifyCounters {
    outcome: [Option<CounterId>; 5],
    cert: [Option<CounterId>; 5],
}

impl VerifyCounters {
    fn record(&mut self, metrics: &mut Registry, obs: &DotObservation) {
        let (slot, class) = outcome_class(&obs.outcome);
        let id = *self.outcome[slot].get_or_insert_with(|| {
            metrics.counter("stage.verify.outcome", Labels::one("class", class))
        });
        metrics.inc(id);
        if let Some(status) = &obs.cert_status {
            let class = CertClass::of(status);
            let id = *self.cert[cert_slot(class)].get_or_insert_with(|| {
                metrics.counter("stage.verify.cert", Labels::one("status", class.label()))
            });
            metrics.inc(id);
        }
    }
}

/// FNV-1a over a string — folds the epoch tag into the per-probe seed so
/// different epochs draw independent randomness.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the verification probe concluded about one open-853 host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// A genuine open DoT resolver: answered our query with NOERROR.
    OpenResolver,
    /// Spoke DoT but answered with an error RCODE (closed/refusing).
    AnsweredError(Rcode),
    /// TLS came up but the stream didn't behave like DNS.
    NotDns,
    /// TLS handshake failed (not a TLS service, or broken).
    NotTls,
    /// The connection died at the TCP layer despite the earlier SYN-ACK.
    ConnectFailed,
}

/// Full observation for one host.
///
/// This is the transient, per-probe result; the campaign stores the packed
/// [`ObservationTable`] instead.
#[derive(Debug, Clone)]
pub struct DotObservation {
    /// The probed address.
    pub addr: Ipv4Addr,
    /// Outcome class.
    pub outcome: VerifyOutcome,
    /// Classification against the trust store (when TLS completed).
    pub cert_status: Option<CertStatus>,
    /// Provider grouping key from the leaf CN.
    pub provider: Option<String>,
    /// Whether the answer matched authoritative ground truth
    /// (dnsfilter-style fixed answers fail this, §3.2).
    pub answer_correct: Option<bool>,
}

impl DotObservation {
    /// Whether this host counts as an open DoT resolver.
    pub fn is_open_resolver(&self) -> bool {
        self.outcome == VerifyOutcome::OpenResolver
    }
}

/// A pre-built DoT probe frame, stamped per candidate.
///
/// Built once per epoch: the query for candidate 0 under the probe apex is
/// encoded, padded to [`PAD_BLOCK`] and length-framed; per candidate only
/// the transaction ID and the eight fixed-width qname digits are
/// overwritten in place. Every candidate's frame therefore has identical
/// length, and the hot loop never touches the message builder.
#[derive(Debug, Clone)]
pub struct ProbeTemplate {
    frame: Vec<u8>,
    /// Offset of the 8-digit candidate index inside the frame: 2-byte
    /// length prefix + 12-byte header + label length byte + `s` +
    /// epoch tag + `x`.
    digits_at: usize,
}

impl ProbeTemplate {
    /// Width of the zero-padded candidate index in the qname.
    const DIGITS: usize = 8;

    /// Build the template frame for one epoch.
    pub fn build(epoch_tag: &str, probe_apex: &str) -> Result<Self, WireError> {
        let qname = format!(
            "s{epoch_tag}x{:0width$}.{probe_apex}",
            0,
            width = Self::DIGITS
        );
        let mut query = builder::query(0, &qname, RecordType::A)?;
        query.pad_to_block(PAD_BLOCK)?;
        let frame = frame_message(&query.encode()?)?;
        Ok(ProbeTemplate {
            frame,
            digits_at: 2 + 12 + 1 + 1 + epoch_tag.len() + 1,
        })
    }

    /// The framed template bytes (clone one buffer per shard to stamp).
    pub fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// Stamp candidate `i`'s transaction ID and qname digits into `frame`
    /// (a copy of [`ProbeTemplate::frame`]).
    pub fn stamp(&self, frame: &mut [u8], i: usize) {
        debug_assert_eq!(frame.len(), self.frame.len());
        let txid = crate::txid(i).to_be_bytes();
        frame[2] = txid[0];
        frame[3] = txid[1];
        let mut n = i;
        for d in (0..Self::DIGITS).rev() {
            frame[self.digits_at + d] = b'0' + u8::try_from(n % 10).expect("digit < 10");
            n /= 10;
        }
        debug_assert_eq!(n, 0, "candidate index exceeds {} digits", Self::DIGITS);
    }
}

/// Probe one candidate: TLS session, stamped query frame, chain
/// classification. The reply is read in place through its
/// [`MessageView`](dnswire::MessageView); a reply that fails its wire validation on receipt, the
/// same walk the owned decoder runs, classifies as
/// [`VerifyOutcome::NotDns`].
fn verify_one(
    net: &mut Network,
    source: Ipv4Addr,
    addr: Ipv4Addr,
    frame: &[u8],
    expected_a: Ipv4Addr,
    store: &TrustStore,
    now: DateStamp,
) -> DotObservation {
    let mut dot = DotClient::new(TlsClientConfig::no_verify(now));
    match dot.session(net, source, addr, None) {
        Err(e) => DotObservation {
            addr,
            outcome: if matches!(
                e,
                doe_protocols::QueryError::Tls(tlssim::TlsError::Transport(_))
            ) {
                VerifyOutcome::ConnectFailed
            } else {
                VerifyOutcome::NotTls
            },
            cert_status: None,
            provider: None,
            answer_correct: None,
        },
        Ok(mut session) => {
            let chain = session.server_chain();
            let cert_status = Some(classify_chain(chain, store, now));
            let provider = chain.first().map(|leaf| provider_key(&leaf.subject_cn));
            let (outcome, answer_correct) = match session.query_wire(net, frame) {
                Ok(reply) => match reply.view().rcode() {
                    Rcode::NoError => {
                        let correct = reply.view().first_a_answer() == Some(expected_a);
                        (VerifyOutcome::OpenResolver, Some(correct))
                    }
                    rcode => (VerifyOutcome::AnsweredError(rcode), None),
                },
                Err(doe_protocols::QueryError::Tls(_)) => (VerifyOutcome::NotTls, None),
                // A reply that fails wire validation is `QueryError::Wire`.
                Err(_) => (VerifyOutcome::NotDns, None),
            };
            session.close(net);
            DotObservation {
                addr,
                outcome,
                cert_status,
                provider,
                answer_correct,
            }
        }
    }
}

/// One shard's verification pass over the candidates it owns
/// (`i ≡ shard (mod shards)`), in increasing candidate order.
#[allow(clippy::too_many_arguments)]
fn verify_shard(
    worker: &mut Network,
    sources: &[Ipv4Addr],
    candidates: &[Ipv4Addr],
    template: &ProbeTemplate,
    expected_a: Ipv4Addr,
    store: &TrustStore,
    now: DateStamp,
    shard: usize,
    shards: usize,
    epoch_salt: u64,
) -> ObservationTable {
    let mut table = ObservationTable::with_capacity(candidates.len().div_ceil(shards));
    let mut frame = template.frame().to_vec();
    let session_us = worker
        .metrics_mut()
        .histogram("stage.verify.session_us", Labels::empty());
    let mut counters = VerifyCounters::default();
    for i in (shard..candidates.len()).step_by(shards) {
        // Per-candidate reseed keyed on the global index, so the session's
        // randomness (and thus the observation) is shard-layout invariant.
        worker.reseed(mix_seed(epoch_salt, i as u64));
        template.stamp(&mut frame, i);
        let src = sources[i % sources.len()];
        let span = Span::begin(worker.charged().as_micros());
        let obs = verify_one(worker, src, candidates[i], &frame, expected_a, store, now);
        let elapsed = span.elapsed_us(worker.charged().as_micros());
        let metrics = worker.metrics_mut();
        metrics.observe(session_us, elapsed);
        counters.record(metrics, &obs);
        table.push(&obs);
    }
    table
}

/// Probe every open-853 address with a DoT query for a unique name under
/// `probe_apex`, rotating probes across `sources` like the SYN sweep;
/// classify certificates against `store` as of `now`.
///
/// The scanner does not know resolver names, so no hostname verification
/// is attempted (§3.2) — the TLS layer runs in no-verify mode and the
/// chain is classified after the fact, openssl-style.
///
/// The candidates are split across `shards` workers
/// ([`Network::run_shards`]): candidate `i` goes to shard `i mod shards`,
/// keeps its global query name/id, and draws per-candidate randomness
/// from the campaign seed — so the merged observation table is identical
/// for every shard count.
#[allow(clippy::too_many_arguments)]
pub fn verify_resolvers_sharded(
    net: &mut Network,
    sources: &[Ipv4Addr],
    candidates: &[Ipv4Addr],
    probe_apex: &str,
    expected_a: Ipv4Addr,
    store: &TrustStore,
    now: DateStamp,
    epoch_tag: &str,
    shards: usize,
) -> ObservationTable {
    assert!(!sources.is_empty(), "need at least one probe source");
    let shards = shards.max(1);
    if candidates.is_empty() {
        return ObservationTable::new();
    }
    let template = ProbeTemplate::build(epoch_tag, probe_apex).expect("probe template encodes");
    let epoch_salt = net.base_seed() ^ fnv1a(epoch_tag);
    let tables = net.run_shards(shards, |worker, s| {
        verify_shard(
            worker, sources, candidates, &template, expected_a, store, now, s, shards, epoch_salt,
        )
    });
    ObservationTable::merge_striped(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::zone::Zone;
    use dnswire::{Message, MessageView, Name, RData};
    use doe_protocols::responder::{AuthoritativeServer, RefusingResponder};
    use doe_protocols::DotServerService;
    use netsim::service::FnStreamService;
    use netsim::{HostMeta, NetworkConfig};
    use std::sync::Arc;
    use tlssim::{CaHandle, KeyId, TlsServerConfig, TlsServerService};

    fn now() -> DateStamp {
        DateStamp::from_ymd(2019, 2, 1)
    }

    struct Fixture {
        net: Network,
        src: Ipv4Addr,
        store: TrustStore,
        expected: Ipv4Addr,
    }

    fn fixture() -> Fixture {
        let mut net = Network::new(NetworkConfig::default(), 17);
        let src: Ipv4Addr = "198.51.100.10".parse().unwrap();
        net.add_host(HostMeta::new(src));
        let ca = CaHandle::new("Root CA", KeyId(1), now() + -365, 3650);
        let mut store = TrustStore::new();
        store.add(ca.authority());
        let expected: Ipv4Addr = "203.0.113.99".parse().unwrap();

        let apex = Name::parse("probe.example").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add_record(&apex.prepend("*").unwrap(), 60, RData::A(expected));
        let responder: Arc<dyn doe_protocols::DnsResponder> =
            Arc::new(AuthoritativeServer::new(vec![zone]));

        // Host A: proper resolver, valid cert.
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        net.add_host(HostMeta::new(a));
        let leaf = ca.issue(
            "dns.goodprov.net",
            vec![],
            KeyId(2),
            1,
            now() + -10,
            now() + 300,
        );
        net.bind_tcp(
            a,
            853,
            Arc::new(DotServerService::new(
                TlsServerConfig::new(vec![leaf], KeyId(2)),
                Arc::clone(&responder),
            )),
        );
        // Host B: refusing resolver, self-signed cert.
        let b: Ipv4Addr = "10.0.0.2".parse().unwrap();
        net.add_host(HostMeta::new(b));
        let ss = CaHandle::self_signed("FGT60D000", vec![], KeyId(3), 2, now() + -10, now() + 300);
        net.bind_tcp(
            b,
            853,
            Arc::new(DotServerService::new(
                TlsServerConfig::new(vec![ss], KeyId(3)),
                Arc::new(RefusingResponder),
            )),
        );
        // Host C: 853 open but garbage.
        let c: Ipv4Addr = "10.0.0.3".parse().unwrap();
        net.add_host(HostMeta::new(c));
        net.bind_tcp(
            c,
            853,
            Arc::new(FnStreamService::new(
                |_c, _p, _d: &[u8]| b"220 smtp ready\r\n".to_vec(),
                "junk",
            )),
        );
        // Host D: TLS with a valid cert, but the framed reply is not DNS
        // (an empty response header and one stray octet).
        let d: Ipv4Addr = "10.0.0.4".parse().unwrap();
        net.add_host(HostMeta::new(d));
        let leaf = ca.issue(
            "dns.oddprov.net",
            vec![],
            KeyId(4),
            3,
            now() + -10,
            now() + 300,
        );
        let junk = frame_message(b"\xde\xad\x81\x80\0\0\0\0\0\0\0\0\0").unwrap();
        net.bind_tcp(
            d,
            853,
            Arc::new(TlsServerService::new(
                TlsServerConfig::new(vec![leaf], KeyId(4)),
                Arc::new(FnStreamService::new(
                    move |_c, _p, _d: &[u8]| junk.clone(),
                    "junk-dns",
                )),
            )),
        );
        Fixture {
            net,
            src,
            store,
            expected,
        }
    }

    fn run(f: &mut Fixture, addrs: &[&str]) -> ObservationTable {
        let candidates: Vec<Ipv4Addr> = addrs.iter().map(|s| s.parse().unwrap()).collect();
        verify_resolvers_sharded(
            &mut f.net,
            &[f.src],
            &candidates,
            "probe.example",
            f.expected,
            &f.store.clone(),
            now(),
            "t",
            1,
        )
    }

    #[test]
    fn classifies_open_refusing_and_junk() {
        let mut f = fixture();
        let obs = run(&mut f, &["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"]);
        assert_eq!(obs.row(0).outcome, VerifyOutcome::OpenResolver);
        assert_eq!(obs.row(0).cert, Some(CertClass::Valid));
        assert_eq!(obs.row(0).provider, Some("goodprov.net"));
        assert_eq!(obs.row(0).answer_correct, Some(true));
        assert_eq!(
            obs.row(1).outcome,
            VerifyOutcome::AnsweredError(Rcode::Refused)
        );
        assert_eq!(obs.row(1).cert, Some(CertClass::SelfSigned));
        assert_eq!(obs.row(1).provider, Some("FGT60D000"));
        assert!(!obs.row(1).is_open_resolver());
        assert!(matches!(obs.row(2).outcome, VerifyOutcome::NotTls));
        // A reply that fails wire validation on receipt is not DNS.
        assert_eq!(obs.row(3).outcome, VerifyOutcome::NotDns);
        assert_eq!(obs.row(3).cert, Some(CertClass::Valid));
        assert_eq!(obs.row(3).answer_correct, None);
        assert_eq!(obs.open_resolvers(), 1);
    }

    #[test]
    fn snapshot_holds_exactly_the_classes_that_occurred() {
        let mut f = fixture();
        run(&mut f, &["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.3"]);
        let snap = f.net.metrics().snapshot();
        let verify: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|(key, _)| key.starts_with("stage.verify."))
            .map(|(key, &n)| (key.as_str(), n))
            .collect();
        assert_eq!(
            verify,
            [
                ("stage.verify.cert{status=self_signed}", 1),
                ("stage.verify.cert{status=valid}", 1),
                ("stage.verify.outcome{class=answered_error}", 1),
                ("stage.verify.outcome{class=not_tls}", 2),
                ("stage.verify.outcome{class=open_resolver}", 1),
            ]
        );
    }

    #[test]
    fn dead_address_is_connect_failed() {
        let mut f = fixture();
        let obs = run(&mut f, &["10.0.9.9"]);
        assert_eq!(obs.row(0).outcome, VerifyOutcome::ConnectFailed);
        assert!(obs.row(0).cert.is_none());
    }

    #[test]
    fn probe_template_stamps_a_decodable_query() {
        let template = ProbeTemplate::build("e7", "probe.example").expect("template");
        let mut frame = template.frame().to_vec();
        for &i in &[0usize, 1, 99, 1_234_567, 99_999_999] {
            template.stamp(&mut frame, i);
            // Strip the 2-byte length prefix; the rest must be a valid,
            // padded query for the stamped name with the stamped id.
            let msg = Message::decode(&frame[2..]).expect("stamped frame decodes");
            assert_eq!(msg.id(), crate::txid(i));
            assert_eq!(
                msg.question().expect("one question").qname.to_string(),
                format!("se7x{i:08}.probe.example.")
            );
            assert_eq!((frame.len() - 2) % PAD_BLOCK, 0, "padding preserved");
            // The view agrees (this is what the hot path relies on).
            let view = MessageView::parse(&frame[2..]).expect("view parses");
            assert_eq!(view.id(), crate::txid(i));
        }
    }
}
