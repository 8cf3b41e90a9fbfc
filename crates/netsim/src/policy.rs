//! Path policies: the in-path devices and filters that the reachability
//! study attributes failures to (§4.2 of the paper).
//!
//! A [`PolicySet`] is an ordered rule list; the first rule whose matchers
//! accept a `(src, dst, port, proto)` tuple decides the path's fate:
//!
//! * [`PathDecision::Blackhole`] — silent drop: addresses used for internal
//!   routing, or censored destinations dropped without signalling.
//! * [`PathDecision::Reset`] — active refusal/injected RST: port-53
//!   filtering appliances and GFW-style connection resets.
//! * [`PathDecision::DivertTo`] — the connection terminates at a different
//!   host: IP-conflict squatters (routers/modems occupying 1.1.1.1) and
//!   TLS-interception middleboxes (which then proxy upstream themselves).
//! * [`PathDecision::Allow`] — hands-off.

use crate::geo::{Asn, CountryCode, Netblock};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Transport selector for rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtoMatch {
    /// Either transport.
    Any,
    /// TCP only.
    Tcp,
    /// UDP only.
    Udp,
}

/// Matches the connection's source (the client side).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrcMatch {
    /// Every source.
    Any,
    /// Sources in a given country.
    Country(CountryCode),
    /// Sources in a given AS.
    As(Asn),
    /// Sources inside a prefix.
    Block(Netblock),
    /// Sources inside any of the prefixes.
    Blocks(Vec<Netblock>),
}

impl SrcMatch {
    /// Does a source with these attributes match?
    pub fn matches(&self, ip: Ipv4Addr, country: CountryCode, asn: Asn) -> bool {
        match self {
            SrcMatch::Any => true,
            SrcMatch::Country(c) => *c == country,
            SrcMatch::As(a) => *a == asn,
            SrcMatch::Block(b) => b.contains(ip),
            SrcMatch::Blocks(bs) => bs.iter().any(|b| b.contains(ip)),
        }
    }
}

/// Matches the dialled destination address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DstMatch {
    /// Every destination.
    Any,
    /// A single address.
    Ip(Ipv4Addr),
    /// Any of a set of addresses.
    Ips(Vec<Ipv4Addr>),
    /// Destinations inside a prefix.
    Block(Netblock),
}

impl DstMatch {
    /// Does the dialled destination match?
    pub fn matches(&self, ip: Ipv4Addr) -> bool {
        match self {
            DstMatch::Any => true,
            DstMatch::Ip(a) => *a == ip,
            DstMatch::Ips(set) => set.contains(&ip),
            DstMatch::Block(b) => b.contains(ip),
        }
    }
}

/// Matches the dialled destination port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortMatch {
    /// Every port.
    Any,
    /// A single port.
    One(u16),
    /// Any of a set of ports.
    Set(Vec<u16>),
}

impl PortMatch {
    /// Does the dialled port match?
    pub fn matches(&self, port: u16) -> bool {
        match self {
            PortMatch::Any => true,
            PortMatch::One(p) => *p == port,
            PortMatch::Set(ps) => ps.contains(&port),
        }
    }
}

/// What happens to a matched path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathDecision {
    /// Continue normally.
    Allow,
    /// Silently drop everything: the client times out.
    Blackhole,
    /// Inject a reset: the client sees "connection refused/reset" after
    /// one round trip.
    Reset,
    /// Terminate the connection at this other host instead. The service
    /// there sees `PeerInfo::diverted = true` and the original destination.
    DivertTo(Ipv4Addr),
}

/// One ordered rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Reporting name ("GFW Google-DoH block", "AS27699 modem squat", ...).
    pub name: String,
    /// Source matcher.
    pub src: SrcMatch,
    /// Destination matcher.
    pub dst: DstMatch,
    /// Port matcher.
    pub port: PortMatch,
    /// Transport matcher.
    pub proto: ProtoMatch,
    /// Decision applied on match.
    pub decision: PathDecision,
}

impl PolicyRule {
    /// A rule matching everything, allowing it; chain builders to narrow.
    pub fn new(name: &str, decision: PathDecision) -> Self {
        PolicyRule {
            name: name.to_string(),
            src: SrcMatch::Any,
            dst: DstMatch::Any,
            port: PortMatch::Any,
            proto: ProtoMatch::Any,
            decision,
        }
    }

    /// Restrict the source.
    pub fn from_src(mut self, src: SrcMatch) -> Self {
        self.src = src;
        self
    }

    /// Restrict the destination.
    pub fn to_dst(mut self, dst: DstMatch) -> Self {
        self.dst = dst;
        self
    }

    /// Restrict the port.
    pub fn on_port(mut self, port: PortMatch) -> Self {
        self.port = port;
        self
    }

    /// Restrict the transport.
    pub fn over(mut self, proto: ProtoMatch) -> Self {
        self.proto = proto;
        self
    }
}

/// Whether a rule's transport matcher accepts a concrete transport.
fn proto_ok(rule: ProtoMatch, is_tcp: bool) -> bool {
    matches!(
        (rule, is_tcp),
        (ProtoMatch::Any, _) | (ProtoMatch::Tcp, true) | (ProtoMatch::Udp, false)
    )
}

impl PolicyRule {
    /// Does this rule accept the tuple?
    fn fits(
        &self,
        src_ip: Ipv4Addr,
        src_country: CountryCode,
        src_asn: Asn,
        dst_ip: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> bool {
        proto_ok(self.proto, is_tcp)
            && self.port.matches(port)
            && self.dst.matches(dst_ip)
            && self.src.matches(src_ip, src_country, src_asn)
    }
}

/// Rule indices filed under a 32-bit key (an address or a prefix base),
/// sorted by `(key, rule)` with no repeats, so the rules under one key
/// come out in evaluation order.
#[derive(Debug, Clone, Default)]
struct KeyedRules(Vec<(u32, usize)>);

impl KeyedRules {
    fn insert(&mut self, key: u32, rule: usize) {
        let at = self.0.partition_point(|&entry| entry < (key, rule));
        if self.0.get(at) != Some(&(key, rule)) {
            self.0.insert(at, (key, rule));
        }
    }

    /// The rules filed under `key`, ascending.
    fn get(&self, key: u32) -> impl Iterator<Item = usize> + '_ {
        let from = self.0.partition_point(|&(k, _)| k < key);
        self.0[from..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, rule)| rule)
    }
}

/// Where [`PolicySet::evaluate`] looks for candidates. Each rule is filed
/// in exactly one place, under a key every tuple it matches must carry:
/// its destination addresses if it names them, else its source prefixes
/// if it names them, else on the unkeyed list.
#[derive(Debug, Clone, Default)]
struct RuleIndex {
    /// Rules with a `DstMatch::Ip`/`DstMatch::Ips` matcher, by address.
    by_dst: KeyedRules,
    /// The remaining rules with a `SrcMatch::Block`/`SrcMatch::Blocks`
    /// matcher, by prefix base: one table per prefix length, ascending.
    by_src: Vec<(u8, KeyedRules)>,
    /// Every other rule, ascending.
    unkeyed: Vec<usize>,
}

impl RuleIndex {
    fn file(&mut self, rule: &PolicyRule, at: usize) {
        match (&rule.dst, &rule.src) {
            (DstMatch::Ip(ip), _) => self.by_dst.insert(u32::from(*ip), at),
            (DstMatch::Ips(ips), _) => {
                for ip in ips {
                    self.by_dst.insert(u32::from(*ip), at);
                }
            }
            (_, SrcMatch::Block(block)) => self.file_src(*block, at),
            (_, SrcMatch::Blocks(blocks)) => {
                for block in blocks {
                    self.file_src(*block, at);
                }
            }
            _ => self.unkeyed.push(at),
        }
    }

    fn file_src(&mut self, block: Netblock, at: usize) {
        let len = block.len();
        let slot = self.by_src.partition_point(|(l, _)| *l < len);
        if self.by_src.get(slot).map(|(l, _)| *l) != Some(len) {
            self.by_src.insert(slot, (len, KeyedRules::default()));
        }
        self.by_src[slot].1.insert(u32::from(block.network()), at);
    }
}

/// The earliest rule of the ascending `candidates` that fits, if it
/// precedes `first`; `first` otherwise.
fn earliest_fit(
    first: Option<usize>,
    candidates: impl Iterator<Item = usize>,
    fits: impl Fn(usize) -> bool,
) -> Option<usize> {
    candidates
        .take_while(|&i| first.is_none_or(|f| i < f))
        .find(|&i| fits(i))
        .or(first)
}

/// Ordered set of rules; first match wins.
///
/// [`PolicySet::push`] files every rule in an index keyed by destination
/// address or source prefix, so [`PolicySet::evaluate`] checks only the
/// rules that could match a tuple: a few sorted-table lookups instead of
/// a walk over every rule. The result is the linear scan's.
#[derive(Debug, Clone, Default)]
pub struct PolicySet {
    rules: Vec<PolicyRule>,
    index: RuleIndex,
}

impl PolicySet {
    /// Empty (allow-everything) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule (evaluated after all existing rules).
    pub fn push(&mut self, rule: PolicyRule) {
        self.index.file(&rule, self.rules.len());
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterate the rules in evaluation order.
    pub fn iter(&self) -> impl Iterator<Item = &PolicyRule> {
        self.rules.iter()
    }

    /// Evaluate a path; returns the decision and the matching rule's name.
    ///
    /// The matching rule is the earliest pushed rule that accepts the
    /// tuple. Only the index's candidates are checked: the rules under
    /// `dst_ip`, those under each of `src_ip`'s prefixes, and the unkeyed
    /// ones. Each candidate list ascends, so its first fit is its
    /// earliest, and the earliest of those is the first match overall.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        &self,
        src_ip: Ipv4Addr,
        src_country: CountryCode,
        src_asn: Asn,
        dst_ip: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> (PathDecision, Option<&str>) {
        let fits =
            |i: usize| self.rules[i].fits(src_ip, src_country, src_asn, dst_ip, port, is_tcp);
        let mut first = earliest_fit(None, self.index.by_dst.get(u32::from(dst_ip)), fits);
        for (len, table) in &self.index.by_src {
            let base = Netblock::new(src_ip, *len).network();
            first = earliest_fit(first, table.get(u32::from(base)), fits);
        }
        first = earliest_fit(first, self.index.unkeyed.iter().copied(), fits);
        match first {
            Some(i) => (self.rules[i].decision, Some(self.rules[i].name.as_str())),
            None => (PathDecision::Allow, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    #[test]
    fn first_match_wins() {
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("block-53", PathDecision::Reset)
                .on_port(PortMatch::One(53))
                .from_src(SrcMatch::Country(cc("ID"))),
        );
        set.push(PolicyRule::new("allow-all", PathDecision::Allow));
        let (d, name) = set.evaluate(
            "10.0.0.1".parse().unwrap(),
            cc("ID"),
            Asn(1),
            "1.1.1.1".parse().unwrap(),
            53,
            false,
        );
        assert_eq!(d, PathDecision::Reset);
        assert_eq!(name, Some("block-53"));
        // Same client, port 853: falls through to allow-all.
        let (d, name) = set.evaluate(
            "10.0.0.1".parse().unwrap(),
            cc("ID"),
            Asn(1),
            "1.1.1.1".parse().unwrap(),
            853,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
        assert_eq!(name, Some("allow-all"));
    }

    #[test]
    fn empty_set_allows() {
        let set = PolicySet::new();
        let (d, name) = set.evaluate(
            "10.0.0.1".parse().unwrap(),
            cc("US"),
            Asn(1),
            "8.8.8.8".parse().unwrap(),
            443,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
        assert!(name.is_none());
    }

    #[test]
    fn censorship_rule_matches_country_and_dst_set() {
        let google_doh: Vec<Ipv4Addr> = vec!["216.58.192.10".parse().unwrap()];
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("gfw", PathDecision::Blackhole)
                .from_src(SrcMatch::Country(cc("CN")))
                .to_dst(DstMatch::Ips(google_doh.clone())),
        );
        let (d, _) = set.evaluate(
            "59.0.0.1".parse().unwrap(),
            cc("CN"),
            Asn(4134),
            google_doh[0],
            443,
            true,
        );
        assert_eq!(d, PathDecision::Blackhole);
        // Same dst from the US: allowed.
        let (d, _) = set.evaluate(
            "99.0.0.1".parse().unwrap(),
            cc("US"),
            Asn(7018),
            google_doh[0],
            443,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
    }

    #[test]
    fn divert_rule_for_conflict_squatter() {
        let modem: Ipv4Addr = "10.255.0.1".parse().unwrap();
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("modem-squat", PathDecision::DivertTo(modem))
                .from_src(SrcMatch::As(Asn(27699)))
                .to_dst(DstMatch::Ip("1.1.1.1".parse().unwrap())),
        );
        let (d, _) = set.evaluate(
            "177.0.0.9".parse().unwrap(),
            cc("BR"),
            Asn(27699),
            "1.1.1.1".parse().unwrap(),
            853,
            true,
        );
        assert_eq!(d, PathDecision::DivertTo(modem));
        // Different AS in the same country: unaffected.
        let (d, _) = set.evaluate(
            "177.0.0.9".parse().unwrap(),
            cc("BR"),
            Asn(1),
            "1.1.1.1".parse().unwrap(),
            853,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
    }

    #[test]
    fn proto_and_block_matchers() {
        let mut set = PolicySet::new();
        set.push(
            PolicyRule::new("udp-only", PathDecision::Blackhole)
                .over(ProtoMatch::Udp)
                .from_src(SrcMatch::Block(Netblock::new(
                    "10.1.0.0".parse().unwrap(),
                    16,
                ))),
        );
        let inside: Ipv4Addr = "10.1.2.3".parse().unwrap();
        let (d, _) = set.evaluate(
            inside,
            cc("US"),
            Asn(1),
            "9.9.9.9".parse().unwrap(),
            53,
            false,
        );
        assert_eq!(d, PathDecision::Blackhole);
        let (d, _) = set.evaluate(
            inside,
            cc("US"),
            Asn(1),
            "9.9.9.9".parse().unwrap(),
            53,
            true,
        );
        assert_eq!(d, PathDecision::Allow);
        let outside: Ipv4Addr = "10.2.2.3".parse().unwrap();
        let (d, _) = set.evaluate(
            outside,
            cc("US"),
            Asn(1),
            "9.9.9.9".parse().unwrap(),
            53,
            false,
        );
        assert_eq!(d, PathDecision::Allow);
    }

    /// Whether a rule's transport matcher accepts a concrete transport
    /// (verbatim copy of the function the linear scan used).
    fn linear_proto_ok(rule: ProtoMatch, is_tcp: bool) -> bool {
        matches!(
            (rule, is_tcp),
            (ProtoMatch::Any, _) | (ProtoMatch::Tcp, true) | (ProtoMatch::Udp, false)
        )
    }

    /// The linear first-match scan the index replaced, verbatim: the
    /// reference the indexed `evaluate` must agree with.
    fn linear_evaluate(
        rules: &[PolicyRule],
        src_ip: Ipv4Addr,
        src_country: CountryCode,
        src_asn: Asn,
        dst_ip: Ipv4Addr,
        port: u16,
        is_tcp: bool,
    ) -> (PathDecision, Option<&str>) {
        for rule in rules {
            if linear_proto_ok(rule.proto, is_tcp)
                && rule.port.matches(port)
                && rule.dst.matches(dst_ip)
                && rule.src.matches(src_ip, src_country, src_asn)
            {
                return (rule.decision, Some(rule.name.as_str()));
            }
        }
        (PathDecision::Allow, None)
    }

    type Tuple = (Ipv4Addr, CountryCode, Asn, Ipv4Addr, u16, bool);

    /// Addresses that collide often: a few fixed hosts with noise in the
    /// two low bits, plus an occasional fully random address.
    fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
        const POOL: [[u8; 4]; 5] = [
            [1, 1, 1, 1],
            [10, 0, 0, 1],
            [10, 0, 1, 7],
            [192, 0, 2, 1],
            [203, 0, 113, 9],
        ];
        (any::<u8>(), any::<u8>(), any::<u32>()).prop_map(|(pick, low, raw)| {
            match usize::from(pick) % (POOL.len() + 1) {
                0 => Ipv4Addr::from(raw),
                k => Ipv4Addr::from(u32::from(Ipv4Addr::from(POOL[k - 1])) ^ u32::from(low & 3)),
            }
        })
    }

    /// Prefixes over the address pool, /0 and /32 included.
    fn arb_block() -> impl Strategy<Value = Netblock> {
        const LENS: [u8; 7] = [0, 8, 16, 24, 30, 31, 32];
        (arb_addr(), any::<u8>())
            .prop_map(|(addr, len)| Netblock::new(addr, LENS[usize::from(len) % LENS.len()]))
    }

    fn arb_country() -> impl Strategy<Value = CountryCode> {
        (0u8..3).prop_map(|i| cc(["CN", "US", "BR"][usize::from(i)]))
    }

    fn arb_port() -> impl Strategy<Value = u16> {
        prop_oneof![Just(53u16), Just(443u16), Just(853u16), any::<u16>()]
    }

    fn arb_rule() -> impl Strategy<Value = PolicyRule> {
        let src = prop_oneof![
            Just(SrcMatch::Any),
            arb_country().prop_map(SrcMatch::Country),
            (1u32..4).prop_map(|a| SrcMatch::As(Asn(a))),
            arb_block().prop_map(SrcMatch::Block),
            proptest::collection::vec(arb_block(), 0..4).prop_map(SrcMatch::Blocks),
        ];
        let dst = prop_oneof![
            Just(DstMatch::Any),
            arb_addr().prop_map(DstMatch::Ip),
            proptest::collection::vec(arb_addr(), 0..5).prop_map(DstMatch::Ips),
            arb_block().prop_map(DstMatch::Block),
        ];
        let port = prop_oneof![
            Just(PortMatch::Any),
            arb_port().prop_map(PortMatch::One),
            proptest::collection::vec(arb_port(), 0..4).prop_map(PortMatch::Set),
        ];
        let proto = prop_oneof![
            Just(ProtoMatch::Any),
            Just(ProtoMatch::Tcp),
            Just(ProtoMatch::Udp)
        ];
        let decision = prop_oneof![
            Just(PathDecision::Allow),
            Just(PathDecision::Blackhole),
            Just(PathDecision::Reset),
            arb_addr().prop_map(PathDecision::DivertTo),
        ];
        (src, dst, port, proto, decision).prop_map(|(src, dst, port, proto, decision)| {
            PolicyRule::new("", decision)
                .from_src(src)
                .to_dst(dst)
                .on_port(port)
                .over(proto)
        })
    }

    fn arb_tuple() -> impl Strategy<Value = Tuple> {
        (
            arb_addr(),
            arb_country(),
            (1u32..4).prop_map(Asn),
            arb_addr(),
            arb_port(),
            any::<bool>(),
        )
    }

    /// A tuple every matcher of `rule` accepts, when one exists: it hits
    /// the rule's index key.
    fn tuple_hitting(rule: &PolicyRule, noise: u8) -> Option<Tuple> {
        let inside = |b: &Netblock| b.addr(u64::from(noise));
        let src_ip = match &rule.src {
            SrcMatch::Block(b) => inside(b),
            SrcMatch::Blocks(bs) => inside(bs.first()?),
            _ => Ipv4Addr::new(198, 51, 100, noise),
        };
        let (country, asn) = match &rule.src {
            SrcMatch::Country(c) => (*c, Asn(1)),
            SrcMatch::As(a) => (cc("US"), *a),
            _ => (cc("US"), Asn(1)),
        };
        let dst_ip = match &rule.dst {
            DstMatch::Any => Ipv4Addr::new(203, 0, 113, noise),
            DstMatch::Ip(a) => *a,
            DstMatch::Ips(set) => *set.get(usize::from(noise) % set.len().max(1))?,
            DstMatch::Block(b) => inside(b),
        };
        let port = match &rule.port {
            PortMatch::Any => 853,
            PortMatch::One(p) => *p,
            PortMatch::Set(ps) => *ps.first()?,
        };
        let is_tcp = rule.proto != ProtoMatch::Udp;
        Some((src_ip, country, asn, dst_ip, port, is_tcp))
    }

    proptest! {
        #[test]
        fn indexed_evaluate_equals_the_linear_scan(
            drawn in proptest::collection::vec(arb_rule(), 0..65),
            tuples in proptest::collection::vec(arb_tuple(), 1..48),
            noise in any::<u8>(),
        ) {
            let mut set = PolicySet::new();
            let mut rules = Vec::new();
            for (i, mut rule) in drawn.into_iter().enumerate() {
                rule.name = format!("r{i}");
                set.push(rule.clone());
                rules.push(rule);
            }
            let check = |(s, c, a, d, p, t): Tuple| {
                (set.evaluate(s, c, a, d, p, t), linear_evaluate(&rules, s, c, a, d, p, t))
            };
            for tuple in tuples {
                let (indexed, linear) = check(tuple);
                prop_assert_eq!(indexed, linear, "tuple {:?}", tuple);
            }
            for (i, rule) in rules.iter().enumerate() {
                let Some(tuple) = tuple_hitting(rule, noise) else {
                    continue;
                };
                let (indexed, linear) = check(tuple);
                prop_assert_eq!(indexed, linear, "tuple {:?} aimed at r{}", tuple, i);
                // The aimed-at rule matches, so some rule at or before it wins.
                let winner = indexed.1.and_then(|n| n[1..].parse::<usize>().ok());
                prop_assert!(winner.is_some_and(|w| w <= i), "r{} missed by {:?}", i, tuple);
            }
        }
    }

    #[test]
    fn port_set_matcher() {
        let m = PortMatch::Set(vec![443, 853]);
        assert!(m.matches(443));
        assert!(m.matches(853));
        assert!(!m.matches(53));
    }
}
