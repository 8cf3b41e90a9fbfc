//! URLs and the DoH URI templates of RFC 8484.
//!
//! A DoH service is *located* by a URI template such as
//! `https://dns.example.com/dns-query{?dns}`; the hostname must be resolved
//! (bootstrapped) before DoH can be used — the property Section 5.3 of the
//! paper exploits to estimate DoH usage from passive DNS.

use std::fmt;

/// A parsed absolute URL (scheme, host, port, path, query).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// Hostname (not resolved here).
    pub host: String,
    /// Port, defaulted from the scheme when absent.
    pub port: u16,
    /// Path, always starting with `/`.
    pub path: String,
    /// Raw query string without the `?`, if any.
    pub query: Option<String>,
}

impl Url {
    /// Parse an absolute URL. Returns `None` for anything unusable.
    ///
    /// The authority ends at the first `/`, `?` or `#` (RFC 3986 §3.2)
    /// and is a host with an optional port: userinfo is refused, and so
    /// is a `:` in the host outside an IP literal's `[...]`. A fragment or
    /// a template brace anywhere is refused too. Whatever parses displays
    /// as text that parses back to the same value.
    pub fn parse(s: &str) -> Option<Url> {
        let (scheme, rest) = s.split_once("://")?;
        if scheme != "http" && scheme != "https" {
            return None;
        }
        if rest.contains(['#', '{', '}']) {
            return None;
        }
        let (authority, path_query) = rest.split_at(rest.find(['/', '?']).unwrap_or(rest.len()));
        if authority.contains('@') {
            return None;
        }
        let host_end = if authority.starts_with('[') {
            authority.find(']')? + 1
        } else {
            authority.find(':').unwrap_or(authority.len())
        };
        let (host, port) = authority.split_at(host_end);
        if host.is_empty() {
            return None;
        }
        let port = match port.strip_prefix(':') {
            Some(p) => p.parse::<u16>().ok()?,
            None if port.is_empty() => default_port(scheme),
            None => return None,
        };
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (path_query, None),
        };
        Some(Url {
            scheme: scheme.to_string(),
            host: host.to_ascii_lowercase(),
            port,
            path: if path.is_empty() { "/" } else { path }.to_string(),
            query,
        })
    }

    /// Path plus query (the HTTP request target).
    pub fn target(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }
}

/// The port a scheme implies when the authority names none.
fn default_port(scheme: &str) -> u16 {
    if scheme == "https" {
        443
    } else {
        80
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if self.port != default_port(&self.scheme) {
            write!(f, ":{}", self.port)?;
        }
        write!(f, "{}", self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

/// A DoH URI template: a base URL whose path may end in `{?dns}`.
///
/// Only the RFC 8484 level of templating is supported — the single
/// form-style query continuation used by every resolver in the study's
/// public lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UriTemplate {
    base: Url,
    has_dns_var: bool,
}

impl UriTemplate {
    /// Parse a template like `https://dns.example.com/dns-query{?dns}`.
    /// The base is parsed by [`Url::parse`], so a brace other than the
    /// trailing `{?dns}` is refused.
    pub fn parse(s: &str) -> Option<UriTemplate> {
        let (stripped, has_dns_var) = match s.strip_suffix("{?dns}") {
            Some(prefix) => (prefix, true),
            None => (s, false),
        };
        let base = Url::parse(stripped)?;
        if base.query.is_some() && has_dns_var {
            return None; // `{?dns}` after an existing query is malformed
        }
        Some(UriTemplate { base, has_dns_var })
    }

    /// The service hostname that must be bootstrap-resolved.
    pub fn host(&self) -> &str {
        &self.base.host
    }

    /// The service port.
    pub fn port(&self) -> u16 {
        self.base.port
    }

    /// The service path (e.g. `/dns-query`).
    pub fn path(&self) -> &str {
        &self.base.path
    }

    /// Expand for a GET carrying `dns_b64u` (unpadded base64url message).
    pub fn expand_get(&self, dns_b64u: &str) -> String {
        format!("{}?dns={}", self.base.path, dns_b64u)
    }

    /// The request target for a POST (no query parameter).
    pub fn post_target(&self) -> String {
        self.base.target()
    }
}

impl fmt::Display for UriTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        if self.has_dns_var {
            write!(f, "{{?dns}}")?;
        }
        Ok(())
    }
}

/// The well-known DoH path suffixes the scanner greps the URL corpus for
/// (§3.1: "the DoH RFC and large resolvers have specified several common
/// path templates (e.g. /dns-query and /resolve)").
pub const COMMON_DOH_PATHS: [&str; 4] = ["/dns-query", "/resolve", "/query", "/doh"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_defaults_ports() {
        let u = Url::parse("https://dns.example.com/dns-query").unwrap();
        assert_eq!(u.port, 443);
        assert_eq!(u.path, "/dns-query");
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/");
    }

    #[test]
    fn url_with_port_and_query() {
        let u = Url::parse("https://dns.example.com:8443/q?dns=AAAA&x=1").unwrap();
        assert_eq!(u.port, 8443);
        assert_eq!(u.query.as_deref(), Some("dns=AAAA&x=1"));
        assert_eq!(u.target(), "/q?dns=AAAA&x=1");
        assert_eq!(u.to_string(), "https://dns.example.com:8443/q?dns=AAAA&x=1");
    }

    #[test]
    fn url_host_lowercased_and_display_hides_default_port() {
        let u = Url::parse("https://DNS.Example.COM/dns-query").unwrap();
        assert_eq!(u.host, "dns.example.com");
        assert_eq!(u.to_string(), "https://dns.example.com/dns-query");
    }

    #[test]
    fn authority_ends_at_the_query() {
        let url = |host: &str, path: &str, query: &str| Url {
            scheme: "https".to_string(),
            host: host.to_string(),
            port: 443,
            path: path.to_string(),
            query: Some(query.to_string()),
        };
        for (input, expect) in [
            (
                "https://blog.example?next=/dns-query",
                url("blog.example", "/", "next=/dns-query"),
            ),
            (
                "https://dns.example?dns=AAAA",
                url("dns.example", "/", "dns=AAAA"),
            ),
            (
                "https://dns.example/q?a=/b?c",
                url("dns.example", "/q", "a=/b?c"),
            ),
        ] {
            assert_eq!(Url::parse(input), Some(expect), "{input}");
        }
    }

    #[test]
    fn ip_literal_hosts_keep_their_colons() {
        let u = Url::parse("https://[2001:DB8::1]:8443/dns-query").unwrap();
        assert_eq!((u.host.as_str(), u.port), ("[2001:db8::1]", 8443));
        let u = Url::parse("https://[::1]/").unwrap();
        assert_eq!((u.host.as_str(), u.port), ("[::1]", 443));
    }

    #[test]
    fn bad_urls_rejected() {
        for input in [
            "ftp://x/",
            "https://",
            "no scheme",
            "https://host:notaport/",
            "https://user@host/",
            "https://a:1:2/",
            "https://:443/",
            "https://x/dns-query#frag",
            "https://x#frag",
            "https://x/{?dns}/y",
            "https://x/dns-query{?dns}",
            "https://x/}",
            "https://[::1/",
            "https://[::1]x/",
            "https://[::1]:/",
        ] {
            assert_eq!(Url::parse(input), None, "{input}");
        }
    }

    #[test]
    fn template_round_trip() {
        let t = UriTemplate::parse("https://cloudflare-dns.com/dns-query{?dns}").unwrap();
        assert_eq!(t.host(), "cloudflare-dns.com");
        assert_eq!(t.path(), "/dns-query");
        assert_eq!(t.expand_get("AAAB"), "/dns-query?dns=AAAB");
        assert_eq!(t.post_target(), "/dns-query");
        assert_eq!(t.to_string(), "https://cloudflare-dns.com/dns-query{?dns}");
    }

    #[test]
    fn template_without_var_still_works() {
        let t = UriTemplate::parse("https://dns.google/resolve").unwrap();
        assert_eq!(t.expand_get("Zm9v"), "/resolve?dns=Zm9v");
    }

    #[test]
    fn template_with_query_plus_var_rejected() {
        assert!(UriTemplate::parse("https://x.example/q?a=1{?dns}").is_none());
    }

    #[test]
    fn braces_other_than_the_trailing_var_rejected() {
        for input in [
            "https://x/{?dns}/y",
            "https://x/{?dns}{?dns}",
            "https://x/{dns}",
            "https://x{?dns}/dns-query",
            "https://user@x/dns-query{?dns}",
        ] {
            assert_eq!(UriTemplate::parse(input), None, "{input}");
        }
        let t = UriTemplate::parse("https://dns.example{?dns}").unwrap();
        assert_eq!((t.host(), t.path()), ("dns.example", "/"));
    }

    #[test]
    fn common_paths_include_rfc_and_google_styles() {
        assert!(COMMON_DOH_PATHS.contains(&"/dns-query"));
        assert!(COMMON_DOH_PATHS.contains(&"/resolve"));
    }
}
