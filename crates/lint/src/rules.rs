//! The determinism contract, rule by rule.
//!
//! Every rule is a token-window pattern over the lexed stream (see
//! [`crate::lexer`]); none needs type information. Code under
//! `#[cfg(test)]` / `#[test]` items is exempt — tests may unwrap, print
//! and hash to their heart's content without touching report output.

use crate::lexer::{Tok, TokKind};

/// One diagnostic before file attribution.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D001`..`D006`).
    pub rule: &'static str,
    /// Human explanation with the remediation.
    pub message: String,
}

/// (id, short title) for every contract rule.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "no wall-clock or ambient randomness in library code",
    ),
    (
        "D002",
        "no HashMap/HashSet in crates whose output reaches reports",
    ),
    ("D003", "no println!/eprintln! in library code"),
    ("D004", "no unwrap()/expect() on protocol paths"),
    ("D005", "no narrowing `as` casts in address-space indexing"),
    ("D006", "no interior mutability in library code"),
    ("D007", "no panic site reachable from protocol entry points"),
    (
        "D008",
        "no float accumulation reachable from merge entry points",
    ),
    (
        "D009",
        "no blocking operation reachable from event-machine step entry points",
    ),
    (
        "D012",
        "no allocation site reachable from telemetry hot-path entry points",
    ),
    (
        "D015",
        "no shard/worker/thread identity value read on a shard-merge path",
    ),
];

/// Is `id` a known contract rule (suppressible via pragma)?
pub fn is_known(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Integer types a cast can silently truncate into.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Idents that mean "asked the host for time or entropy".
const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy"];

/// Macros that write to stdout/stderr directly.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Types (and the crate) that let shared references mutate. `Atomic*`
/// types are matched by prefix.
const INTERIOR_MUT_IDENTS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "UnsafeCell",
    "parking_lot",
];

/// The interior-mutability construct `id` starts, if any (D006).
fn interior_mut(id: &str, next: Option<&Tok>) -> Option<String> {
    if INTERIOR_MUT_IDENTS.contains(&id) || id.starts_with("Atomic") {
        Some(id.to_string())
    } else if id == "thread_local" && next.is_some_and(|t| t.is_punct('!')) {
        Some("thread_local!".to_string())
    } else if id == "static" && next.and_then(Tok::ident) == Some("mut") {
        Some("static mut".to_string())
    } else {
        None
    }
}

/// Compute which tokens sit inside test-only items: any item annotated
/// `#[cfg(test)]` (in any `cfg` combination naming `test`) or `#[test]`.
/// The mask covers the attribute itself through the end of the item body.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') || !toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                TokKind::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = idents.first() == Some(&"test")
            || (idents.first() == Some(&"cfg") && idents.contains(&"test"));
        if !is_test_attr {
            i = j;
            continue;
        }
        // Mark through the end of the annotated item: either a `;` at
        // bracket depth zero (e.g. `mod tests;`) or the matching close of
        // the first top-level `{`.
        let attr_start = i;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut k = j;
        while k < toks.len() {
            match &toks[k].kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct(';') if paren == 0 && bracket == 0 => {
                    k += 1;
                    break;
                }
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    let mut braces = 1i32;
                    k += 1;
                    while k < toks.len() && braces > 0 {
                        match &toks[k].kind {
                            TokKind::Punct('{') => braces += 1,
                            TokKind::Punct('}') => braces -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k).skip(attr_start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// Scan `toks` for violations of the `enabled` rules, skipping tokens
/// covered by `mask` (test-only code).
pub fn scan<F: Fn(&str) -> bool>(toks: &[Tok], mask: &[bool], enabled: F) -> Vec<RawFinding> {
    let mut out: Vec<RawFinding> = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let Some(id) = tok.ident() else { continue };
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);

        if enabled("D001") {
            if CLOCK_IDENTS.contains(&id) {
                out.push(RawFinding {
                    line: tok.line,
                    rule: "D001",
                    message: format!(
                        "`{id}` reads the host wall clock; library code must use the \
                         virtual clock (`netsim` time) so runs replay bit-identically"
                    ),
                });
            } else if ENTROPY_IDENTS.contains(&id) {
                out.push(RawFinding {
                    line: tok.line,
                    rule: "D001",
                    message: format!(
                        "`{id}` draws ambient entropy; library code must thread a \
                         seeded `SmallRng` so runs replay bit-identically"
                    ),
                });
            } else if id == "random"
                && prev.is_some_and(|p| p.is_punct(':'))
                && i >= 3
                && toks[i - 2].is_punct(':')
                && toks[i - 3].ident() == Some("rand")
            {
                out.push(RawFinding {
                    line: tok.line,
                    rule: "D001",
                    message: "`rand::random` draws ambient entropy; thread a seeded \
                              `SmallRng` instead"
                        .to_string(),
                });
            }
        }

        if enabled("D002") && (id == "HashMap" || id == "HashSet") {
            out.push(RawFinding {
                line: tok.line,
                rule: "D002",
                message: format!(
                    "`{id}` iterates in nondeterministic order; this crate feeds \
                     reports/merges — use `BTree{}` or sort before emitting",
                    &id[4..]
                ),
            });
        }

        if enabled("D003") && PRINT_MACROS.contains(&id) && next.is_some_and(|t| t.is_punct('!')) {
            out.push(RawFinding {
                line: tok.line,
                rule: "D003",
                message: format!(
                    "`{id}!` writes to the console from library code; route \
                     diagnostics through `netsim::trace` (binaries are exempt)"
                ),
            });
        }

        if enabled("D004")
            && (id == "unwrap" || id == "expect")
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|t| t.is_punct('('))
        {
            out.push(RawFinding {
                line: tok.line,
                rule: "D004",
                message: format!(
                    "`.{id}()` panics on malformed protocol data; return a typed \
                     error variant (`dnswire::Error` / `doe` `QueryError`) instead"
                ),
            });
        }

        if enabled("D005")
            && id == "as"
            && next
                .and_then(|t| t.ident())
                .is_some_and(|t| NARROW_INTS.contains(&t))
        {
            let ty = next.and_then(|t| t.ident()).unwrap_or("?");
            out.push(RawFinding {
                line: tok.line,
                rule: "D005",
                message: format!(
                    "narrowing `as {ty}` cast can silently truncate an address-space \
                     index; use `{ty}::try_from(..)` or mask explicitly"
                ),
            });
        }

        if enabled("D006") {
            if let Some(what) = interior_mut(id, next) {
                out.push(RawFinding {
                    line: tok.line,
                    rule: "D006",
                    message: format!(
                        "`{what}` lets shared state mutate; a shard worker may mutate \
                         only what its own `Network` owns — keep per-shard state in \
                         `Network::shard_local`, or build it before sharing it"
                    ),
                });
            }
        }
    }
    // Collapse duplicate (rule, line) hits — e.g. `use ...::{HashMap, HashSet}`
    // — so one pragma line maps to one diagnostic.
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_all(src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        scan(&lexed.toks, &mask, |_| true)
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = r#"
            pub fn lib_code() {}

            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() {
                    let mut m = HashMap::new();
                    m.insert(1, 2);
                    println!("{}", m.get(&1).unwrap());
                }
            }
        "#;
        assert!(scan_all(src).is_empty(), "{:?}", scan_all(src));
    }

    #[test]
    fn violations_outside_tests_are_caught() {
        let src = r#"
            pub fn f(x: u64) -> u16 {
                let h = std::collections::HashMap::<u32, u32>::new();
                println!("{}", h.len());
                let t = std::time::Instant::now();
                x as u16
            }
        "#;
        let rules: Vec<&str> = scan_all(src).iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"D001"));
        assert!(rules.contains(&"D002"));
        assert!(rules.contains(&"D003"));
        assert!(rules.contains(&"D005"));
    }

    #[test]
    fn every_interior_mutability_form_is_d006() {
        let src = r#"
            use parking_lot::Mutex;
            static mut HITS: u64 = 0;
            thread_local! { static SEEN: RefCell<u8> = RefCell::new(0); }
            pub struct S { a: std::sync::atomic::AtomicU64, b: Cell<u8>, c: OnceLock<u8> }
            pub fn f(x: &'static mut u8) -> &'static str { "Mutex" }
        "#;
        let lines: Vec<u32> = scan_all(src)
            .iter()
            .filter(|f| f.rule == "D006")
            .map(|f| f.line)
            .collect();
        // Every line but the last: a `'static mut` reference and a string
        // naming a lock are not interior mutability.
        assert_eq!(lines, vec![2, 3, 4, 5]);
    }

    #[test]
    fn method_named_print_is_not_a_macro() {
        let src = "pub fn f(r: &Renderer) { r.print(); r.dbg(); }";
        assert!(scan_all(src).is_empty());
    }

    #[test]
    fn widening_casts_pass() {
        let src = "pub fn f(x: u8) -> u64 { x as u64 }";
        assert!(scan_all(src).is_empty());
    }
}
