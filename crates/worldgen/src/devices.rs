//! Installs middleboxes into the network: 1.1.1.1 squatters, TLS
//! interceptors, port filters and censorship rules.
//!
//! Rule order matters (first match wins): interception diverts come first
//! (they must catch 443/853 before any coarser rule), then conflict
//! diverts, then the reset/blackhole filters.

use crate::clients::MiddleboxPlan;
use crate::providers::anchors;
use crate::types::DeviceKind;
use doe_protocols::responder::FixedAnswerResponder;
use doe_protocols::{Do53TcpService, Do53UdpService};
use httpsim::StaticSite;
use netsim::policy::ProtoMatch;
use netsim::service::FnStreamService;
use netsim::{
    DstMatch, HostMeta, Netblock, Network, PathDecision, PolicyRule, PolicySet, PortMatch, SrcMatch,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use tlssim::{CaHandle, DateStamp, KeyId, TlsInterceptService};

/// What got installed, for ground-truth inspection.
pub struct InstalledDevices {
    /// Conflict devices: (client block, device address, kind).
    pub conflict_devices: Vec<(Netblock, Ipv4Addr, DeviceKind)>,
}

/// Addresses whose port-53 path the filtering appliances target — "the
/// most prominent service addresses" (§4.2).
pub fn prominent_addresses() -> Vec<Ipv4Addr> {
    vec![
        anchors::CLOUDFLARE_PRIMARY,
        anchors::CLOUDFLARE_SECONDARY,
        anchors::GOOGLE_PRIMARY,
        Ipv4Addr::new(8, 8, 4, 4),
    ]
}

fn device_host(net: &mut Network, ip: Ipv4Addr, label: &str) {
    net.add_host(HostMeta::new(ip).label(label));
}

fn mining_page() -> String {
    "<html><head><title>RouterOS router configuration page</title>\
     <script src=\"https://coinhive.com/lib/coinhive.min.js\"></script>\
     <script>new CoinHive.Anonymous('SiteKey').start();</script></head>\
     <body>RouterOS</body></html>"
        .to_string()
}

fn plain_page(title: &str) -> String {
    format!("<html><head><title>{title}</title></head><body>{title}</body></html>")
}

/// Bind a squatting device's services per its kind.
fn install_conflict_device(net: &mut Network, ip: Ipv4Addr, kind: DeviceKind) {
    let label = match kind {
        DeviceKind::MikroTikRouter { .. } => "MikroTik Router",
        DeviceKind::PowerboxModem => "Powerbox Gvt Modem",
        DeviceKind::BgpRouter => "Carrier BGP Router",
        DeviceKind::NtpSnmpAppliance => "NTP/SNMP Appliance",
        DeviceKind::DhcpRelay => "DHCP Relay",
        DeviceKind::SmbBox => "SMB Box",
        DeviceKind::AuthPortal => "Web Authentication System",
        DeviceKind::Blackhole => "blackhole",
    };
    device_host(net, ip, label);
    for &port in kind.open_ports() {
        match port {
            80 | 443 => {
                let html = match kind {
                    DeviceKind::MikroTikRouter {
                        crypto_hijacked: true,
                    } => mining_page(),
                    _ => plain_page(kind.page_title().unwrap_or(label)),
                };
                net.bind_tcp(ip, port, Arc::new(StaticSite::single_page(&html)));
            }
            53 => {
                // The router answers DNS itself — with its own idea of the
                // world (what makes a sliver of "Incorrect" rows in
                // Table 4).
                let responder = Arc::new(FixedAnswerResponder::new(Ipv4Addr::new(192, 168, 88, 1)));
                net.bind_udp(ip, 53, Arc::new(Do53UdpService::new(responder.clone())));
                net.bind_tcp(ip, 53, Arc::new(Do53TcpService::new(responder)));
            }
            other => {
                let banner: &'static str = match other {
                    22 => "SSH-2.0-ROSSSH\r\n",
                    23 => "MikroTik v6.42 Login:",
                    179 => "", // BGP speaks first only after OPEN
                    _ => "",
                };
                net.bind_tcp(
                    ip,
                    other,
                    Arc::new(FnStreamService::new(
                        move |_ctx, _peer, _data: &[u8]| banner.as_bytes().to_vec(),
                        "banner",
                    )),
                );
            }
        }
    }
}

/// Install everything the plan calls for. `device_space` hands out device
/// addresses (10.0.0.0/8).
pub fn install(
    net: &mut Network,
    plan: &MiddleboxPlan,
    google_doh_fronts: &[Ipv4Addr],
    now: DateStamp,
    key_base: u64,
) -> InstalledDevices {
    let mut rules = PolicySet::new();
    let mut conflict_devices = Vec::new();
    let mut next_device: u32 = u32::from(Ipv4Addr::new(10, 0, 0, 1));
    let mut next_key = key_base;

    // 1. TLS interceptors.
    for (block, spec) in &plan.interceptor_sites {
        let device_ip = Ipv4Addr::from(next_device);
        next_device += 1;
        device_host(net, device_ip, &format!("interceptor:{}", spec.ca_cn));
        let ca = CaHandle::new(&spec.ca_cn, KeyId(next_key), now + -365, 3650);
        next_key += 1;
        let device_key = KeyId(next_key);
        next_key += 1;
        let service = Arc::new(TlsInterceptService::inline_interceptor(ca, device_key, now));
        let ports = if spec.intercepts_853 {
            vec![443u16, 853]
        } else {
            vec![443u16]
        };
        for &port in &ports {
            net.bind_tcp(
                device_ip,
                port,
                Arc::clone(&service) as Arc<dyn netsim::Service>,
            );
        }
        rules.push(
            PolicyRule::new(
                &format!("intercept:{}", spec.ca_cn),
                PathDecision::DivertTo(device_ip),
            )
            .from_src(SrcMatch::Block(*block))
            .on_port(PortMatch::Set(ports))
            .over(ProtoMatch::Tcp),
        );
    }

    // 2. 1.1.1.1 squatters.
    let cloudflare_addrs = vec![anchors::CLOUDFLARE_PRIMARY, anchors::CLOUDFLARE_SECONDARY];
    for (block, kind) in &plan.conflict_sites {
        match kind {
            DeviceKind::Blackhole => {
                rules.push(
                    PolicyRule::new("conflict:blackhole", PathDecision::Blackhole)
                        .from_src(SrcMatch::Block(*block))
                        .to_dst(DstMatch::Ips(cloudflare_addrs.clone())),
                );
            }
            other => {
                let device_ip = Ipv4Addr::from(next_device);
                next_device += 1;
                install_conflict_device(net, device_ip, *other);
                conflict_devices.push((*block, device_ip, *other));
                rules.push(
                    PolicyRule::new("conflict:squat", PathDecision::DivertTo(device_ip))
                        .from_src(SrcMatch::Block(*block))
                        .to_dst(DstMatch::Ips(cloudflare_addrs.clone())),
                );
            }
        }
    }

    // 3. Port-53 filtering to prominent resolvers.
    if !plan.filtered_blocks.is_empty() {
        rules.push(
            PolicyRule::new("filter:port53-prominent", PathDecision::Reset)
                .from_src(SrcMatch::Blocks(plan.filtered_blocks.clone()))
                .to_dst(DstMatch::Ips(prominent_addresses()))
                .on_port(PortMatch::One(53)),
        );
    }

    // 4. CN: Cloudflare 53+853 filtering (Zhima rows of Table 4).
    if !plan.cn_cloudflare_blocks.is_empty() {
        rules.push(
            PolicyRule::new("cn:cloudflare-53-853", PathDecision::Reset)
                .from_src(SrcMatch::Blocks(plan.cn_cloudflare_blocks.clone()))
                .to_dst(DstMatch::Ips(cloudflare_addrs.clone()))
                .on_port(PortMatch::Set(vec![53, 853])),
        );
    }

    // 5. CN: broken paths to 8.8.8.8:53.
    if !plan.cn_google_dns_blocks.is_empty() {
        rules.push(
            PolicyRule::new("cn:google-dns", PathDecision::Blackhole)
                .from_src(SrcMatch::Blocks(plan.cn_google_dns_blocks.clone()))
                .to_dst(DstMatch::Ip(anchors::GOOGLE_PRIMARY))
                .on_port(PortMatch::One(53)),
        );
    }

    // 6. GFW: Google's DoH front addresses carry other Google services and
    //    are blocked country-wide (Finding 2.2).
    rules.push(
        PolicyRule::new("gfw:google-doh", PathDecision::Blackhole)
            .from_src(SrcMatch::Country(netsim::CountryCode::new("CN")))
            .to_dst(DstMatch::Ips(google_doh_fronts.to_vec())),
    );

    // Merge into the network's policy set (after any pre-existing rules).
    for rule in rules.iter() {
        net.policies_mut().push(rule.clone());
    }

    InstalledDevices { conflict_devices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::InterceptorSpec;
    use netsim::{NetworkConfig, ProbeOutcome};

    fn block(a: u8, b: u8, c: u8) -> Netblock {
        Netblock::new(Ipv4Addr::new(a, b, c, 0), 24)
    }

    fn base_net() -> Network {
        let mut net = Network::new(NetworkConfig::default(), 99);
        // A genuine Cloudflare host with 53/80/443/853 open.
        net.add_host(
            HostMeta::new(anchors::CLOUDFLARE_PRIMARY)
                .anycast()
                .label("cloudflare"),
        );
        let responder = Arc::new(FixedAnswerResponder::new(Ipv4Addr::new(1, 2, 3, 4)));
        net.bind_udp(
            anchors::CLOUDFLARE_PRIMARY,
            53,
            Arc::new(Do53UdpService::new(responder.clone())),
        );
        net.bind_tcp(
            anchors::CLOUDFLARE_PRIMARY,
            53,
            Arc::new(Do53TcpService::new(responder)),
        );
        net.bind_tcp(
            anchors::CLOUDFLARE_PRIMARY,
            80,
            Arc::new(StaticSite::single_page("cloudflare")),
        );
        net
    }

    #[test]
    fn squatter_divert_changes_what_port_80_serves() {
        let mut net = base_net();
        let victim_block = block(64, 0, 0);
        let plan = MiddleboxPlan {
            conflict_sites: vec![(
                victim_block,
                DeviceKind::MikroTikRouter {
                    crypto_hijacked: true,
                },
            )],
            ..MiddleboxPlan::default()
        };
        let installed = install(
            &mut net,
            &plan,
            &[],
            DateStamp::from_ymd(2019, 2, 1),
            50_000,
        );
        assert_eq!(installed.conflict_devices.len(), 1);

        let victim = victim_block.addr(5);
        let outsider = Ipv4Addr::new(65, 0, 0, 5);
        // Outsider reaches real Cloudflare page.
        let mut conn = net
            .connect(outsider, anchors::CLOUDFLARE_PRIMARY, 80)
            .unwrap();
        let resp = conn
            .request(&mut net, &httpsim::Request::get("/").encode())
            .unwrap();
        assert!(String::from_utf8_lossy(&resp).contains("cloudflare"));
        // Victim sees the router's coin-mining page.
        let mut conn = net
            .connect(victim, anchors::CLOUDFLARE_PRIMARY, 80)
            .unwrap();
        let resp = conn
            .request(&mut net, &httpsim::Request::get("/").encode())
            .unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.contains("coinhive"), "got {text}");
        // Victim's 853 probe: router has no 853.
        let (outcome, _) = net.syn_probe(victim, anchors::CLOUDFLARE_PRIMARY, 853);
        assert_eq!(outcome, ProbeOutcome::Closed);
    }

    #[test]
    fn blackhole_conflict_times_out() {
        let mut net = base_net();
        let victim_block = block(64, 0, 1);
        let plan = MiddleboxPlan {
            conflict_sites: vec![(victim_block, DeviceKind::Blackhole)],
            ..MiddleboxPlan::default()
        };
        install(
            &mut net,
            &plan,
            &[],
            DateStamp::from_ymd(2019, 2, 1),
            50_000,
        );
        let victim = victim_block.addr(5);
        let err = net
            .connect(victim, anchors::CLOUDFLARE_PRIMARY, 53)
            .unwrap_err();
        assert_eq!(err.kind, netsim::ConnectErrorKind::Timeout);
    }

    #[test]
    fn port53_filter_resets_only_prominent() {
        let mut net = base_net();
        let other_resolver = Ipv4Addr::new(9, 9, 9, 9);
        net.add_host(HostMeta::new(other_resolver).label("quad9"));
        net.bind_tcp(
            other_resolver,
            53,
            Arc::new(Do53TcpService::new(Arc::new(FixedAnswerResponder::new(
                Ipv4Addr::new(4, 3, 2, 1),
            )))),
        );
        let fb = block(64, 1, 0);
        let plan = MiddleboxPlan {
            filtered_blocks: vec![fb],
            ..MiddleboxPlan::default()
        };
        install(
            &mut net,
            &plan,
            &[],
            DateStamp::from_ymd(2019, 2, 1),
            50_000,
        );
        let victim = fb.addr(9);
        let err = net
            .connect(victim, anchors::CLOUDFLARE_PRIMARY, 53)
            .unwrap_err();
        assert_eq!(err.kind, netsim::ConnectErrorKind::Reset);
        // Non-prominent resolver unaffected.
        assert!(net.connect(victim, other_resolver, 53).is_ok());
        // Port 80 to Cloudflare unaffected (filters target port 53 only).
        assert!(net.connect(victim, anchors::CLOUDFLARE_PRIMARY, 80).is_ok());
    }

    #[test]
    fn gfw_blocks_google_doh_for_cn_only() {
        let mut net = base_net();
        let google_front = Ipv4Addr::new(216, 58, 192, 10);
        net.add_host(HostMeta::new(google_front).label("google-front"));
        net.bind_tcp(
            google_front,
            443,
            Arc::new(StaticSite::single_page("google")),
        );
        // Attribute a CN block and a US block.
        net.geodb_mut().insert(
            Netblock::new(Ipv4Addr::new(64, 2, 0, 0), 24),
            netsim::geo::BlockInfo {
                asn: netsim::Asn(4134),
                country: netsim::CountryCode::new("CN"),
                region: netsim::Region::Asia,
            },
        );
        let plan = MiddleboxPlan::default();
        install(
            &mut net,
            &plan,
            &[google_front],
            DateStamp::from_ymd(2019, 2, 1),
            50_000,
        );
        let cn_client = Ipv4Addr::new(64, 2, 0, 9);
        let us_client = Ipv4Addr::new(65, 2, 0, 9);
        assert!(net.connect(cn_client, google_front, 443).is_err());
        assert!(net.connect(us_client, google_front, 443).is_ok());
    }

    #[test]
    fn interceptor_sees_both_ports_unless_443_only() {
        let mut net = base_net();
        let b1 = block(64, 3, 0);
        let b2 = block(64, 3, 1);
        let plan = MiddleboxPlan {
            interceptor_sites: vec![
                (
                    b1,
                    InterceptorSpec {
                        ca_cn: "Test DPI".into(),
                        country: "US",
                        as_label: "AS1",
                        intercepts_853: true,
                    },
                ),
                (
                    b2,
                    InterceptorSpec {
                        ca_cn: "443 Only".into(),
                        country: "US",
                        as_label: "AS2",
                        intercepts_853: false,
                    },
                ),
            ],
            ..MiddleboxPlan::default()
        };
        let installed = install(
            &mut net,
            &plan,
            &[],
            DateStamp::from_ymd(2019, 2, 1),
            60_000,
        );
        assert!(installed.conflict_devices.is_empty());
        let labels: Vec<_> = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)]
            .iter()
            .map(|&ip| net.host_meta(ip).map(|m| m.label.clone()))
            .collect();
        assert_eq!(
            labels,
            [
                Some("interceptor:Test DPI".to_string()),
                Some("interceptor:443 Only".to_string())
            ]
        );
        // Client in b2 reaching 853 is NOT diverted (rule covers 443 only):
        // destination Cloudflare has no 853 bound in this fixture, so the
        // connection is refused by the real host rather than the device.
        let err = net
            .connect(b2.addr(5), anchors::CLOUDFLARE_PRIMARY, 853)
            .unwrap_err();
        assert_eq!(err.kind, netsim::ConnectErrorKind::Refused);
        // Client in b1 reaching 853 IS diverted: the interceptor listens.
        let conn = net
            .connect(b1.addr(5), anchors::CLOUDFLARE_PRIMARY, 853)
            .unwrap();
        assert_ne!(conn.effective_dst(), anchors::CLOUDFLARE_PRIMARY);
    }
}
