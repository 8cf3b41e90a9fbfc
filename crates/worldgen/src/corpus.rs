//! The URL corpus a DoH-discovery pass greps (§3.1).
//!
//! The paper's industrial partner supplied billions of crawler/sandbox/
//! VirusTotal URLs; we synthesise a corpus with the same decision
//! structure: an ocean of ordinary web URLs, a band of *decoys* whose
//! paths contain DoH-looking segments but whose hosts serve no DoH, and
//! the 61 candidate URLs that grep to a common DoH path — of which the
//! working subset collapses onto the 17 genuine services.

use crate::providers::DohServiceSpec;
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Write as _;

const HOST_WORDS: &[&str] = &[
    "news", "shop", "blog", "mail", "cdn", "img", "static", "api", "forum", "wiki", "video",
    "cloud", "game", "portal", "travel", "bank", "social", "photo", "music", "stream",
];
const TLDS: &[&str] = &["com", "net", "org", "io", "co", "info", "biz"];
const PATH_WORDS: &[&str] = &[
    "index.html",
    "about",
    "products/list",
    "article/2019/01",
    "img/logo.png",
    "search",
    "login",
    "static/app.js",
    "category/tech",
    "post/12345",
    "feed.xml",
    "tag/dns",
];

fn noise_url(rng: &mut SmallRng) -> String {
    let scheme = if rng.gen_bool(0.8) { "https" } else { "http" };
    let word = HOST_WORDS[rng.gen_range(0..HOST_WORDS.len())];
    let number: i32 = rng.gen_range(0..10_000);
    let tld = TLDS[rng.gen_range(0..TLDS.len())];
    let path = PATH_WORDS[rng.gen_range(0..PATH_WORDS.len())];
    // The corpus keeps every URL for the whole run, so the buffer is
    // sized to the text (`://`, `.` and `/` add 5 bytes): `format!` grows
    // by doubling and would leave slack in every one.
    let digits = number.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut url =
        String::with_capacity(scheme.len() + word.len() + digits + tld.len() + path.len() + 5);
    let _ = write!(url, "{scheme}://{word}{number}.{tld}/{path}");
    url
}

/// A decoy: contains a DoH-ish path but is not a DoH service. Some merely
/// *mention* DoH (blog posts); some sit on hosts that do not exist; a few
/// sit on real web servers that 404.
fn decoy_url(rng: &mut SmallRng, i: usize) -> String {
    match i % 4 {
        0 => format!(
            "https://blog{}.example-web.com/dns-query",
            rng.gen_range(0..999)
        ),
        1 => format!(
            "https://ghost{}.nodomain.example/dns-query",
            rng.gen_range(0..999)
        ),
        2 => format!("https://files{}.mirror.net/resolve", rng.gen_range(0..999)),
        _ => format!("https://www{}.park-page.org/doh", rng.gen_range(0..999)),
    }
}

/// Output of corpus generation.
pub struct Corpus {
    /// Every URL string, shuffled.
    pub urls: Vec<String>,
    /// Ground truth: how many URLs carry a common DoH path (candidates).
    pub candidate_count: usize,
    /// Ground truth: candidate URLs that actually serve DoH.
    pub working_urls: Vec<String>,
}

/// Build the corpus around the genuine services.
pub fn generate(noise: u32, services: &[DohServiceSpec], rng: &mut SmallRng) -> Corpus {
    let mut urls = Vec::with_capacity(noise as usize + 80);
    for _ in 0..noise {
        urls.push(noise_url(rng));
    }

    // Genuine URLs: each service's canonical locator, plus crawler-found
    // aliases for the big ones (the paper found 61 candidates for 17
    // services — roughly 20 working URL strings and 41 dead ends).
    let mut working = Vec::new();
    for (i, svc) in services.iter().enumerate() {
        let canonical = format!("https://{}{}", svc.hostname, svc.template.path());
        working.push(canonical.clone());
        urls.push(canonical);
        if i < 3 {
            // The most popular services also appear via their front IPs.
            let alias = format!("https://{}{}", svc.front, svc.template.path());
            urls.push(alias.clone());
            working.push(alias);
        }
    }
    let genuine = working.len();

    // Decoys so that candidates total 61.
    let decoys = 61usize.saturating_sub(genuine);
    for i in 0..decoys {
        urls.push(decoy_url(rng, i));
    }

    // Deterministic shuffle.
    for i in (1..urls.len()).rev() {
        let j = rng.gen_range(0..=i);
        urls.swap(i, j);
    }

    Corpus {
        urls,
        candidate_count: genuine + decoys,
        working_urls: working,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use rand::SeedableRng;

    fn corpus() -> Corpus {
        let cfg = WorldConfig::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let (dep, _) = crate::providers::generate(&cfg, &mut rng);
        generate(1_000, &dep.doh_services, &mut rng)
    }

    #[test]
    fn sixty_one_candidates() {
        let c = corpus();
        assert_eq!(c.candidate_count, 61);
        let greppable = c
            .urls
            .iter()
            .filter(|u| httpsim::uri::COMMON_DOH_PATHS.iter().any(|p| u.contains(p)))
            .count();
        // Every candidate greps; noise may rarely collide, so allow a
        // small overshoot.
        assert!((61..75).contains(&greppable), "greppable {greppable}");
    }

    #[test]
    fn working_urls_cover_all_services() {
        let c = corpus();
        assert!(c.working_urls.len() >= 17);
        assert!(c
            .working_urls
            .iter()
            .any(|u| u.contains("cloudflare-dns.com")));
        assert!(c.working_urls.iter().any(|u| u.contains("dns.233py.com")));
    }

    #[test]
    fn noise_dominates() {
        let c = corpus();
        assert!(c.urls.len() > 1_000);
    }

    #[test]
    fn deterministic() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a.urls, b.urls);
    }
}
