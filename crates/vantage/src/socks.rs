//! SOCKS5 (RFC 1928), the wire protocol of the residential proxy
//! networks (Figure 5 of the paper).
//!
//! The super proxy accepts a client's CONNECT, dials the destination *from
//! its exit node's address*, and relays bytes. The exit hop's round trips
//! are charged to the tunnel, so a measurement client's observed latency
//! is `T_R = tunnel + T'_R` exactly as Figure 8 describes.

use netsim::{Conn, Network, PeerInfo, Service, ServiceCtx, StreamHandler};
use std::net::Ipv4Addr;

/// SOCKS protocol version.
const VER: u8 = 0x05;
/// "No authentication" method.
const METHOD_NONE: u8 = 0x00;
/// CONNECT command.
const CMD_CONNECT: u8 = 0x01;
/// IPv4 address type.
const ATYP_V4: u8 = 0x01;

/// Encode the client greeting (offering no-auth only).
pub fn encode_greeting() -> Vec<u8> {
    vec![VER, 1, METHOD_NONE]
}

/// Encode a CONNECT request for an IPv4 destination.
pub fn encode_connect(dst: Ipv4Addr, port: u16) -> Vec<u8> {
    let mut out = vec![VER, CMD_CONNECT, 0x00, ATYP_V4];
    out.extend_from_slice(&dst.octets());
    out.extend_from_slice(&port.to_be_bytes());
    out
}

/// Parse a CONNECT request; returns `(dst, port)`.
pub fn decode_connect(data: &[u8]) -> Option<(Ipv4Addr, u16)> {
    if data.len() != 10 || data[0] != VER || data[1] != CMD_CONNECT || data[3] != ATYP_V4 {
        return None;
    }
    let addr = Ipv4Addr::new(data[4], data[5], data[6], data[7]);
    let port = u16::from_be_bytes([data[8], data[9]]);
    Some((addr, port))
}

fn reply(code: u8) -> Vec<u8> {
    let mut out = vec![VER, code, 0x00, ATYP_V4];
    out.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
    out
}

/// The super-proxy service: SOCKS5 front, one exit node behind. A pool of
/// exits is one relay per exit.
pub struct Socks5RelayService {
    exit: Ipv4Addr,
}

impl Socks5RelayService {
    /// Relay every CONNECT through `exit`.
    pub fn new(exit: Ipv4Addr) -> Self {
        Socks5RelayService { exit }
    }
}

enum RelayState {
    AwaitGreeting,
    AwaitConnect,
    Established { upstream: Box<Conn> },
    Dead,
}

struct RelayHandler {
    exit: Ipv4Addr,
    state: RelayState,
}

impl StreamHandler for RelayHandler {
    fn on_bytes(&mut self, ctx: &mut ServiceCtx<'_>, data: &[u8]) -> Vec<u8> {
        match &mut self.state {
            RelayState::AwaitGreeting => {
                if data.len() >= 2 && data[0] == VER && data[2..].contains(&METHOD_NONE) {
                    self.state = RelayState::AwaitConnect;
                    vec![VER, METHOD_NONE]
                } else {
                    self.state = RelayState::Dead;
                    vec![VER, 0xff]
                }
            }
            RelayState::AwaitConnect => {
                let Some((dst, port)) = decode_connect(data) else {
                    self.state = RelayState::Dead;
                    return reply(0x07); // command not supported
                };
                match ctx.network().connect(self.exit, dst, port) {
                    Ok(conn) => {
                        ctx.charge(conn.elapsed());
                        self.state = RelayState::Established {
                            upstream: Box::new(conn),
                        };
                        reply(0x00)
                    }
                    Err(e) => {
                        ctx.charge(e.elapsed);
                        self.state = RelayState::Dead;
                        reply(match e.kind {
                            netsim::ConnectErrorKind::Refused => 0x05,
                            netsim::ConnectErrorKind::Reset => 0x05,
                            _ => 0x04, // host unreachable
                        })
                    }
                }
            }
            RelayState::Established { upstream } => match upstream.request(ctx.network(), data) {
                Ok(response) => {
                    ctx.charge(upstream.take_elapsed());
                    response
                }
                Err(e) => {
                    ctx.charge(e.elapsed);
                    self.state = RelayState::Dead;
                    Vec::new()
                }
            },
            RelayState::Dead => Vec::new(),
        }
    }
}

impl Service for Socks5RelayService {
    fn open_stream(&self, _peer: PeerInfo) -> Box<dyn StreamHandler> {
        Box::new(RelayHandler {
            exit: self.exit,
            state: RelayState::AwaitGreeting,
        })
    }

    fn protocol(&self) -> &'static str {
        "socks5"
    }
}

/// Client-side SOCKS5: greeting + CONNECT over an existing connection,
/// then transparent byte relay.
#[derive(Debug)]
pub struct Socks5Client {
    conn: Conn,
}

impl Socks5Client {
    /// Connect to the super proxy and tunnel to `dst:port`.
    pub fn tunnel(
        net: &mut Network,
        src: Ipv4Addr,
        super_proxy: Ipv4Addr,
        proxy_port: u16,
        dst: Ipv4Addr,
        port: u16,
    ) -> Result<Socks5Client, String> {
        let mut conn = net
            .connect(src, super_proxy, proxy_port)
            .map_err(|e| e.to_string())?;
        let greeting = conn
            .request(net, &encode_greeting())
            .map_err(|e| e.to_string())?;
        if greeting != vec![VER, METHOD_NONE] {
            return Err("method negotiation failed".into());
        }
        let resp = conn
            .request(net, &encode_connect(dst, port))
            .map_err(|e| e.to_string())?;
        if resp.get(1) != Some(&0x00) {
            return Err(format!("connect refused: code {:?}", resp.get(1)));
        }
        Ok(Socks5Client { conn })
    }

    /// One relayed request/response exchange.
    pub fn exchange(&mut self, net: &mut Network, data: &[u8]) -> Result<Vec<u8>, String> {
        self.conn.request(net, data).map_err(|e| e.to_string())
    }

    /// Total tunnel time charged.
    pub fn elapsed(&self) -> netsim::SimDuration {
        self.conn.elapsed()
    }

    /// Close the tunnel.
    pub fn close(self, net: &mut Network) {
        self.conn.close(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::service::FnStreamService;
    use netsim::{HostMeta, NetworkConfig};
    use std::sync::Arc;

    fn world() -> (Network, Ipv4Addr, Ipv4Addr, Ipv4Addr, Ipv4Addr) {
        let mut net = Network::new(NetworkConfig::default(), 77);
        let mc: Ipv4Addr = "198.51.100.50".parse().unwrap(); // measurement client
        let proxy: Ipv4Addr = "192.0.2.100".parse().unwrap(); // super proxy
        let exit: Ipv4Addr = "64.10.0.5".parse().unwrap(); // residential exit
        let server: Ipv4Addr = "203.0.113.30".parse().unwrap();
        net.add_host(HostMeta::new(mc).country("US"));
        net.add_host(HostMeta::new(proxy).country("US").label("super-proxy"));
        net.add_host(HostMeta::new(exit).country("BR"));
        net.add_host(HostMeta::new(server).country("DE").label("target"));
        net.bind_tcp(
            server,
            7,
            Arc::new(FnStreamService::new(
                |_c, peer: PeerInfo, d: &[u8]| {
                    // The server sees the *exit's* address, not the
                    // measurement client's.
                    let mut out = peer.src.octets().to_vec();
                    out.extend_from_slice(d);
                    out
                },
                "echo-src",
            )),
        );
        net.bind_tcp(proxy, 1080, Arc::new(Socks5RelayService::new(exit)));
        (net, mc, proxy, exit, server)
    }

    #[test]
    fn codec_round_trips() {
        let enc = encode_connect("10.1.2.3".parse().unwrap(), 853);
        let (addr, port) = decode_connect(&enc).unwrap();
        assert_eq!(addr, "10.1.2.3".parse::<Ipv4Addr>().unwrap());
        assert_eq!(port, 853);
        assert!(decode_connect(&enc[..9]).is_none());
        assert!(decode_connect(&[4u8; 10]).is_none());
    }

    #[test]
    fn tunnel_reaches_server_from_exit_address() {
        let (mut net, mc, proxy, exit, server) = world();
        let mut tunnel = Socks5Client::tunnel(&mut net, mc, proxy, 1080, server, 7).unwrap();
        let resp = tunnel.exchange(&mut net, b"hello").unwrap();
        assert_eq!(&resp[..4], &exit.octets());
        assert_eq!(&resp[4..], b"hello");
        tunnel.close(&mut net);
    }

    #[test]
    fn tunnel_to_dead_target_reports_failure() {
        let (mut net, mc, proxy, _exit, _server) = world();
        let err = Socks5Client::tunnel(
            &mut net,
            mc,
            proxy,
            1080,
            "203.0.113.99".parse().unwrap(),
            7,
        )
        .unwrap_err();
        assert!(err.contains("connect refused"), "{err}");
    }

    #[test]
    fn tunneled_latency_exceeds_direct() {
        let (mut net, mc, proxy, exit, server) = world();
        // Direct exchange from the exit itself.
        let mut direct = net.connect(exit, server, 7).unwrap();
        direct.request(&mut net, b"x").unwrap();
        let direct_time = direct.elapsed();
        // Tunnelled from the measurement client.
        let mut tunnel = Socks5Client::tunnel(&mut net, mc, proxy, 1080, server, 7).unwrap();
        tunnel.exchange(&mut net, b"x").unwrap();
        assert!(
            tunnel.elapsed() > direct_time,
            "tunnel {} vs direct {direct_time}",
            tunnel.elapsed()
        );
        tunnel.close(&mut net);
    }
}
