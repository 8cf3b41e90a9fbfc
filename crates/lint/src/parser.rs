//! Item-level parsing on top of the token lexer.
//!
//! Extracts exactly as much structure as the interprocedural rules need:
//! `fn` items (free functions, inherent/trait-impl methods and trait
//! default methods) with their call expressions, plus `use` declarations
//! for alias resolution. No types, no expressions, no `syn` — the
//! extractor walks the token stream with a scope stack and records, for
//! every function body, (a) the paths and method names it calls and
//! (b) the hazard sites the graph rules care about: panic sites (D007),
//! float accumulation (D008), blocking calls (D009), allocations (D012)
//! and shard-identity reads (D015).
//!
//! The parser is deliberately conservative: where it cannot resolve a
//! construct it over-approximates (extra call edges) rather than dropping
//! information, so reachability verdicts err toward reporting.

use crate::lexer::{Tok, TokKind};

/// What kind of hazard a site is, one per interprocedural rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// A construct that can panic at runtime (D007).
    Panic,
    /// Order-sensitive floating-point accumulation (D008).
    FloatAccum,
    /// An operation that blocks the calling thread (D009): sleeping,
    /// channel receives, synchronization waits, real I/O.
    Blocking,
    /// A heap allocation site (D012): `format!`, owned clones,
    /// `String`/`Vec`/`Box` construction.
    Alloc,
    /// A read of a shard-identity value (D015): `shard_id`, worker or
    /// thread indices — values that differ per worker and must never
    /// flow into data merged across shards.
    ShardIdent,
}

/// One hazard site inside a function body.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// 1-based source line.
    pub line: u32,
    /// Which rule family the site belongs to.
    pub kind: HazardKind,
    /// The construct, as written (`.unwrap()`, `panic!`, `.recv()`, ...).
    pub what: String,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Path segments as written (`["PermutationShard", "new"]`); a single
    /// segment for method calls and bare calls.
    pub path: Vec<String>,
    /// True for `.name(...)` method syntax.
    pub method: bool,
    /// True when the receiver is literally `self` — lets the resolver
    /// prefer the enclosing impl's own methods.
    pub via_self: bool,
    /// Number of arguments at the call site, when the token stream lets
    /// it be counted unambiguously. `None` (generics or unparseable
    /// argument lists) disables arity narrowing for this call — the
    /// resolver falls back to the full same-name candidate set.
    pub arity: Option<usize>,
}

/// One function item with everything the graph needs.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Enclosing impl self-type or trait name, if any.
    pub owner: Option<String>,
    /// Module path within the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the item sits under `#[cfg(test)]`/`#[test]` — excluded
    /// from the call graph entirely.
    pub is_test: bool,
    /// True when the signature or body mentions `f32`/`f64`. Gates
    /// [`HazardKind::FloatAccum`]: `+=` on integers is the bread and
    /// butter of merge code and must not alarm.
    pub mentions_float: bool,
    /// Call expressions in the body, in source order.
    pub calls: Vec<Call>,
    /// Hazard sites in the body, in source order.
    pub hazards: Vec<Hazard>,
    /// Declared parameter count, `self` excluded — pairs with
    /// [`Call::arity`] to narrow method-call resolution.
    pub arity: usize,
}

/// One `use` alias: `use a::b::c;` binds `c`, `use a::b as x;` binds `x`.
#[derive(Debug, Clone)]
pub struct UseAlias {
    /// Module path (within the crate) where the `use` appears.
    pub module: Vec<String>,
    /// The name the alias binds in that module.
    pub alias: String,
    /// Target path as written; the head may be `crate`/`self`/`super`, a
    /// sibling module or an external crate name.
    pub target: Vec<String>,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function items in source order.
    pub fns: Vec<FnItem>,
    /// Use aliases in source order.
    pub uses: Vec<UseAlias>,
}

/// Constructs that abort on malformed runtime data. `assert!` family is
/// deliberately absent: assertions document invariants the caller
/// controls, and `debug_assert!` compiles out of release builds — the
/// D007 contract is about wire data and peer behaviour reaching an
/// abort, which is what `unwrap`/`expect`/`panic!` sites mean here.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Methods that block the calling thread until something else happens
/// (D009): channel receives, condvar waits, console reads. `.join()` is
/// deliberately absent — `str::join`/`Path::join` share the name and
/// would drown the signal; thread joins on event paths surface through
/// the `thread::sleep`/channel detectors that accompany them.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "recv_deadline",
    "read_line",
    "wait",
    "wait_timeout",
    "wait_timeout_while",
    "wait_while",
];

/// Path-call suffixes that perform real (host) I/O or sleep (D009).
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("File", "open"),
    ("File", "create"),
    ("fs", "read"),
    ("fs", "write"),
    ("fs", "read_to_string"),
    ("fs", "read_dir"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
    ("UdpSocket", "bind"),
    ("UnixStream", "connect"),
    ("io", "stdin"),
];

/// Allocation sites (D012). `String::new`/`Vec::new` are deliberately
/// absent (empty containers do not allocate until first growth), and
/// `Arc::clone`/`Rc::clone` path calls are refcount bumps. `.clone()`
/// stays in even though `Copy` types answer it for free: the hot-path
/// contract is "no owned clones", and a `Copy` clone reads as one.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "clone"];
const ALLOC_MACROS: &[&str] = &["format", "vec"];
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("String", "from"),
    ("String", "with_capacity"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Identifiers that name a shard/worker identity (D015). Reading one on
/// a merge path means per-worker layout can leak into merged data. The
/// names are deliberately specific — a bare `id` is ubiquitous and
/// would drown the rule.
const SHARD_IDENT_NAMES: &[&str] = &[
    "shard_id",
    "shard_idx",
    "shard_index",
    "worker_id",
    "worker_idx",
    "worker_index",
    "thread_id",
    "thread_idx",
];

/// Keywords that look like call heads when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "where", "unsafe", "async", "await", "dyn", "pub", "const",
    "static", "type", "struct", "enum", "union", "use", "mod", "impl", "trait", "fn", "extern",
    "true", "false",
];

enum ScopeKind {
    Mod(String),
    Impl(String),
    Trait(String),
    Fn(usize),
    Other,
}

struct Parser<'a> {
    toks: &'a [Tok],
    mask: &'a [bool],
    i: usize,
    scopes: Vec<ScopeKind>,
    file_module: Vec<String>,
    out: ParsedFile,
    /// Pending item header: the next `{` opens this scope.
    pending: Option<ScopeKind>,
}

/// Parse one lexed file. `file_module` is the module path the file itself
/// contributes (`src/sweep.rs` → `["sweep"]`); `mask` is the test mask
/// from [`crate::rules::test_mask`].
pub fn parse_file(file_module: &[String], toks: &[Tok], mask: &[bool]) -> ParsedFile {
    let mut p = Parser {
        toks,
        mask,
        i: 0,
        scopes: Vec::new(),
        file_module: file_module.to_vec(),
        out: ParsedFile::default(),
        pending: None,
    };
    p.run();
    let mut parsed = p.out;
    for item in &mut parsed.fns {
        if !item.mentions_float {
            item.hazards.retain(|h| h.kind != HazardKind::FloatAccum);
        }
    }
    parsed
}

impl<'a> Parser<'a> {
    fn run(&mut self) {
        while self.i < self.toks.len() {
            let tok = &self.toks[self.i];
            match &tok.kind {
                TokKind::Punct('{') => {
                    let kind = self.pending.take().unwrap_or(ScopeKind::Other);
                    self.scopes.push(kind);
                    self.i += 1;
                }
                TokKind::Punct('}') => {
                    self.scopes.pop();
                    self.i += 1;
                }
                TokKind::Punct(';') => {
                    // A `;` before any `{` cancels a pending header
                    // (`mod x;`, trait method signatures, `impl Trait;`).
                    self.pending = None;
                    self.i += 1;
                }
                TokKind::Punct(op @ ('+' | '-' | '*' | '/'))
                    if self.toks.get(self.i + 1).is_some_and(|t| t.is_punct('=')) =>
                {
                    // Compound assignment. `->`/`>=`/`==` never reach here
                    // (different first punct); adjacency of `op` and `=` in
                    // the token stream only arises from `op=` in source.
                    if let Some(fn_idx) = self.current_fn() {
                        let what = format!("{op}=");
                        self.out.fns[fn_idx].hazards.push(Hazard {
                            line: tok.line,
                            kind: HazardKind::FloatAccum,
                            what,
                        });
                    }
                    self.i += 2;
                }
                TokKind::Ident(id) => {
                    let id = id.clone();
                    self.ident(&id);
                }
                _ => self.i += 1,
            }
        }
    }

    fn ident(&mut self, id: &str) {
        match id {
            "mod" => {
                if let Some(name) = self.toks.get(self.i + 1).and_then(|t| t.ident()) {
                    self.pending = Some(ScopeKind::Mod(name.to_string()));
                    self.i += 2;
                } else {
                    self.i += 1;
                }
            }
            "trait" if self.item_position() => {
                if let Some(name) = self.toks.get(self.i + 1).and_then(|t| t.ident()) {
                    self.pending = Some(ScopeKind::Trait(name.to_string()));
                    self.i += 2;
                    self.skip_header();
                } else {
                    self.i += 1;
                }
            }
            "impl" if self.item_position() => {
                self.i += 1;
                let ty = self.impl_self_type();
                self.pending = Some(ScopeKind::Impl(ty));
            }
            "fn" => {
                self.fn_item();
            }
            "use" if self.current_fn().is_none() => {
                self.i += 1;
                self.use_decl();
            }
            _ => {
                if self.current_fn().is_some() {
                    self.body_ident(id);
                } else {
                    self.i += 1;
                }
            }
        }
    }

    /// Is the token at `self.i` in item position (vs. `impl Trait`/`dyn`
    /// type position)? Item keywords follow the start of file, a block
    /// boundary, an attribute, or visibility/qualifier keywords.
    fn item_position(&self) -> bool {
        let Some(prev) = self.i.checked_sub(1).map(|p| &self.toks[p]) else {
            return true;
        };
        match &prev.kind {
            TokKind::Punct('{' | '}' | ';' | ']' | ')') => true,
            TokKind::Ident(k) => matches!(k.as_str(), "pub" | "unsafe" | "default" | "crate"),
            _ => false,
        }
    }

    /// After `impl`, extract the self type — the last path segment at
    /// angle-bracket depth zero before the body (`impl Tr for a::b::Ty`
    /// → `Ty`, `impl Ty<T>` → `Ty`) — and leave `self.i` at the body `{`.
    fn impl_self_type(&mut self) -> String {
        let mut ty = String::new();
        let mut angle = 0i32;
        let mut in_where = false;
        while self.i < self.toks.len() {
            let tok = &self.toks[self.i];
            match &tok.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    // A `>` preceded by `-` is an arrow inside an `fn(..)`
                    // type parameter, not a generic close.
                    let arrow = self
                        .i
                        .checked_sub(1)
                        .is_some_and(|p| self.toks[p].is_punct('-'));
                    if !arrow {
                        angle -= 1;
                    }
                }
                TokKind::Punct('{') if angle <= 0 => break,
                TokKind::Punct(';') => break,
                TokKind::Ident(k) if k == "for" && angle == 0 => ty.clear(),
                TokKind::Ident(k) if k == "where" && angle == 0 => in_where = true,
                TokKind::Ident(seg) if angle == 0 && !in_where => ty = seg.clone(),
                _ => {}
            }
            self.i += 1;
        }
        ty
    }

    /// Skip trait-header bounds (`trait Foo: Bar<Baz> where ...`) up to
    /// the body `{` without treating bound idents as calls.
    fn skip_header(&mut self) {
        let mut angle = 0i32;
        while self.i < self.toks.len() {
            match &self.toks[self.i].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct('{') if angle <= 0 => return,
                TokKind::Punct(';') => return,
                _ => {}
            }
            self.i += 1;
        }
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Fn(idx) => Some(*idx),
            _ => None,
        })
    }

    fn current_owner(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Impl(t) | ScopeKind::Trait(t) => Some(t.clone()),
            _ => None,
        })
    }

    fn current_module(&self) -> Vec<String> {
        let mut m = self.file_module.clone();
        for s in &self.scopes {
            if let ScopeKind::Mod(name) = s {
                m.push(name.clone());
            }
        }
        m
    }

    /// Handle a `fn` keyword: record the item and scan its signature to
    /// the body `{` (pushing a Fn scope) or `;` (no body).
    fn fn_item(&mut self) {
        let fn_line = self.toks[self.i].line;
        let is_test = self.mask.get(self.i).copied().unwrap_or(false);
        let Some(name) = self.toks.get(self.i + 1).and_then(|t| t.ident()) else {
            // `fn(` in type position (`fn(u8) -> u8`): not an item.
            self.i += 1;
            return;
        };
        let name = name.to_string();
        self.i += 2;
        // Scan the signature: body starts at the first `{` outside
        // parens/brackets. `->` is two puncts; treat a `>` preceded by `-`
        // as part of the arrow, not a generic close. Along the way, count
        // the declared parameters (first paren group, commas at depth 1
        // outside generics, `self` and trailing commas excluded).
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut angle = 0i32;
        let mut sig_float = false;
        let mut commas = 0usize;
        let mut params_empty = true;
        let mut has_self = false;
        let mut before_first_sep = true;
        let mut params_done = false;
        while self.i < self.toks.len() {
            let tok = &self.toks[self.i];
            match &tok.kind {
                TokKind::Punct('(') => {
                    if paren == 0 && !params_done {
                        params_empty = self.toks.get(self.i + 1).is_some_and(|t| t.is_punct(')'));
                    }
                    paren += 1;
                }
                TokKind::Punct(')') => {
                    paren -= 1;
                    if paren == 0 {
                        params_done = true;
                    }
                }
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    let arrow = self
                        .i
                        .checked_sub(1)
                        .is_some_and(|p| self.toks[p].is_punct('-'));
                    if !arrow {
                        angle -= 1;
                    }
                }
                TokKind::Punct(',') if paren == 1 && bracket == 0 && angle <= 0 && !params_done => {
                    before_first_sep = false;
                    if !self.toks.get(self.i + 1).is_some_and(|t| t.is_punct(')')) {
                        commas += 1;
                    }
                }
                TokKind::Punct(':') if paren == 1 && angle <= 0 => before_first_sep = false,
                TokKind::Ident(s) if s == "f32" || s == "f64" => sig_float = true,
                TokKind::Ident(s)
                    if s == "self" && paren == 1 && !params_done && before_first_sep =>
                {
                    has_self = true;
                }
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    let params = if params_empty { 0 } else { commas + 1 };
                    let item = FnItem {
                        name,
                        owner: self.current_owner(),
                        module: self.current_module(),
                        line: fn_line,
                        is_test,
                        mentions_float: sig_float,
                        calls: Vec::new(),
                        hazards: Vec::new(),
                        arity: params.saturating_sub(usize::from(has_self)),
                    };
                    self.out.fns.push(item);
                    self.scopes.push(ScopeKind::Fn(self.out.fns.len() - 1));
                    self.i += 1;
                    return;
                }
                TokKind::Punct(';') if paren == 0 && bracket == 0 => {
                    // Bodyless declaration (trait signature, extern).
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Parse a `use` declaration's tree, recording aliases, until `;`.
    fn use_decl(&mut self) {
        let module = self.current_module();
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&module, &mut prefix);
        // Consume through the terminating `;` if the tree walk stopped short.
        while self.i < self.toks.len() && !self.toks[self.i].is_punct(';') {
            self.i += 1;
        }
        self.i += 1;
    }

    fn use_tree(&mut self, module: &[String], prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.toks.get(self.i).map(|t| &t.kind) {
                Some(TokKind::Ident(seg)) => {
                    let seg = seg.clone();
                    self.i += 1;
                    if seg == "as" {
                        // `path as alias`
                        if let Some(alias) = self.toks.get(self.i).and_then(|t| t.ident()) {
                            self.out.uses.push(UseAlias {
                                module: module.to_vec(),
                                alias: alias.to_string(),
                                target: prefix.clone(),
                            });
                            self.i += 1;
                        }
                        prefix.truncate(depth_at_entry);
                        if !self.skip_use_comma() {
                            return;
                        }
                        continue;
                    }
                    if seg == "self" && !prefix.is_empty() {
                        // `use a::b::{self, ...}` binds `b`.
                        let alias = prefix.last().cloned().unwrap_or_default();
                        self.out.uses.push(UseAlias {
                            module: module.to_vec(),
                            alias,
                            target: prefix.clone(),
                        });
                        prefix.truncate(depth_at_entry);
                        if !self.skip_use_comma() {
                            return;
                        }
                        continue;
                    }
                    prefix.push(seg.clone());
                    if self.at_path_sep() {
                        self.i += 2;
                        continue;
                    }
                    // Leaf segment (possibly followed by `as`, handled above
                    // on the next loop turn).
                    if self.toks.get(self.i).and_then(|t| t.ident()) == Some("as") {
                        continue;
                    }
                    self.out.uses.push(UseAlias {
                        module: module.to_vec(),
                        alias: seg,
                        target: prefix.clone(),
                    });
                    prefix.truncate(depth_at_entry);
                    if !self.skip_use_comma() {
                        return;
                    }
                }
                Some(TokKind::Punct('{')) => {
                    self.i += 1;
                    self.use_tree(module, prefix);
                    // use_tree returns at `}`; consume it.
                    if self.toks.get(self.i).is_some_and(|t| t.is_punct('}')) {
                        self.i += 1;
                    }
                    prefix.truncate(depth_at_entry);
                    if !self.skip_use_comma() {
                        return;
                    }
                }
                Some(TokKind::Punct('*')) => {
                    // Glob import: no alias to record; the resolver falls
                    // back to suffix matching, which globs cannot defeat.
                    self.i += 1;
                    prefix.truncate(depth_at_entry);
                    if !self.skip_use_comma() {
                        return;
                    }
                }
                Some(TokKind::Punct('}')) | Some(TokKind::Punct(';')) | None => return,
                _ => {
                    self.i += 1;
                }
            }
        }
    }

    /// After a use-tree leaf: consume a `,` and report whether more
    /// siblings follow.
    fn skip_use_comma(&mut self) -> bool {
        if self.toks.get(self.i).is_some_and(|t| t.is_punct(',')) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn at_path_sep(&self) -> bool {
        self.toks.get(self.i).is_some_and(|t| t.is_punct(':'))
            && self.toks.get(self.i + 1).is_some_and(|t| t.is_punct(':'))
    }

    /// An identifier inside a function body: classify as macro, method
    /// call, path call or plain mention, and record hazards.
    fn body_ident(&mut self, id: &str) {
        let line = self.toks[self.i].line;
        let fn_idx = self.current_fn().expect("body_ident outside fn");
        let next_bang = self.toks.get(self.i + 1).is_some_and(|t| t.is_punct('!'));
        let prev_dot = self
            .i
            .checked_sub(1)
            .is_some_and(|p| self.toks[p].is_punct('.'));

        // Shard-identity reads (D015): field access (`.shard_id`),
        // getter call (`.shard_id()`) or plain local/parameter use.
        if SHARD_IDENT_NAMES.contains(&id) {
            self.out.fns[fn_idx].hazards.push(Hazard {
                line,
                kind: HazardKind::ShardIdent,
                what: id.to_string(),
            });
        }

        if next_bang {
            if PANIC_MACROS.contains(&id) {
                self.out.fns[fn_idx].hazards.push(Hazard {
                    line,
                    kind: HazardKind::Panic,
                    what: format!("{id}!"),
                });
            }
            if ALLOC_MACROS.contains(&id) {
                self.out.fns[fn_idx].hazards.push(Hazard {
                    line,
                    kind: HazardKind::Alloc,
                    what: format!("{id}!"),
                });
            }
            self.i += 2;
            return;
        }

        if prev_dot {
            // `.name` — method call if `(` or `::<` follows.
            let called = self.call_follows(self.i + 1);
            if called {
                let via_self = self
                    .i
                    .checked_sub(2)
                    .is_some_and(|p| self.toks[p].ident() == Some("self"));
                if PANIC_METHODS.contains(&id) {
                    self.out.fns[fn_idx].hazards.push(Hazard {
                        line,
                        kind: HazardKind::Panic,
                        what: format!(".{id}()"),
                    });
                }
                if BLOCKING_METHODS.contains(&id) {
                    self.out.fns[fn_idx].hazards.push(Hazard {
                        line,
                        kind: HazardKind::Blocking,
                        what: format!(".{id}()"),
                    });
                }
                if ALLOC_METHODS.contains(&id) {
                    self.out.fns[fn_idx].hazards.push(Hazard {
                        line,
                        kind: HazardKind::Alloc,
                        what: format!(".{id}()"),
                    });
                }
                if id == "sum" || id == "product" {
                    self.out.fns[fn_idx].hazards.push(Hazard {
                        line,
                        kind: HazardKind::FloatAccum,
                        what: format!(".{id}()"),
                    });
                }
                let arity = self.call_arity(self.i + 1);
                self.out.fns[fn_idx].calls.push(Call {
                    line,
                    path: vec![id.to_string()],
                    method: true,
                    via_self,
                    arity,
                });
            }
            self.i += 1;
            return;
        }

        if NON_CALL_KEYWORDS.contains(&id) {
            self.i += 1;
            return;
        }

        // Walk a `::`-separated path, stepping over turbofish segments
        // (`Foo::<T>::new`, `collect::<Vec<(u64, u64)>>`) so the tail of
        // the path — and the call that follows — is not lost.
        let mut path = vec![id.to_string()];
        let mut j = self.i + 1;
        loop {
            if j + 2 < self.toks.len()
                && self.toks[j].is_punct(':')
                && self.toks[j + 1].is_punct(':')
            {
                if let Some(seg) = self.toks[j + 2].ident() {
                    path.push(seg.to_string());
                    j += 3;
                    continue;
                }
                if self.toks[j + 2].is_punct('<') {
                    if let Some(close) = self.match_angles(j + 2) {
                        j = close + 1;
                        continue;
                    }
                }
            }
            break;
        }
        self.i = j;
        if path.iter().any(|s| s == "f32" || s == "f64") {
            self.out.fns[fn_idx].mentions_float = true;
        }
        if self.call_follows(j) {
            if path.len() >= 2 {
                let last = path.last().map(String::as_str).unwrap_or("");
                let prev = path[path.len() - 2].as_str();
                if BLOCKING_PATHS.iter().any(|&(a, b)| a == prev && b == last) {
                    self.out.fns[fn_idx].hazards.push(Hazard {
                        line,
                        kind: HazardKind::Blocking,
                        what: format!("{prev}::{last}"),
                    });
                }
                if ALLOC_PATHS.iter().any(|&(a, b)| a == prev && b == last) {
                    self.out.fns[fn_idx].hazards.push(Hazard {
                        line,
                        kind: HazardKind::Alloc,
                        what: format!("{prev}::{last}"),
                    });
                }
            }
            let arity = self.call_arity(j);
            self.out.fns[fn_idx].calls.push(Call {
                line,
                path,
                method: false,
                via_self: false,
                arity,
            });
        }
    }

    /// Does a call argument list start at token `j` (a `(`, or a
    /// turbofish `::<...>` followed by `(`)?
    fn call_follows(&self, j: usize) -> bool {
        if self.toks.get(j).is_some_and(|t| t.is_punct('(')) {
            return true;
        }
        // Turbofish: `::` `<` ... `>` `(` with nesting.
        if self.toks.get(j).is_some_and(|t| t.is_punct(':'))
            && self.toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && self.toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
        {
            if let Some(close) = self.match_angles(j + 2) {
                return self.toks.get(close + 1).is_some_and(|t| t.is_punct('('));
            }
        }
        false
    }

    /// Token index of the `>` matching the `<` at `open`, tolerating
    /// parenthesised types inside the generics (`Vec<(u64, u64)>`,
    /// `Box<fn(u8) -> u8>`) and treating an arrow's `>` as part of `->`.
    /// Bails at block/statement boundaries — a lone `<` comparison never
    /// matches.
    fn match_angles(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.toks.len() {
            match &self.toks[k].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    let arrow = k.checked_sub(1).is_some_and(|p| self.toks[p].is_punct('-'));
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            return Some(k);
                        }
                    }
                }
                TokKind::Punct('{' | '}' | ';') => return None,
                _ => {}
            }
            k += 1;
        }
        None
    }

    /// Count the arguments of the call whose argument list starts at `j`
    /// (directly `(`, or turbofish then `(`). Commas are counted at
    /// paren depth 1 outside brackets, braces and closure parameter
    /// pipes; trailing commas are ignored. Returns `None` — "unknown,
    /// do not filter" — when generics or comparisons appear among the
    /// arguments, where a token-level comma count would lie.
    fn call_arity(&self, j: usize) -> Option<usize> {
        let open = if self.toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j
        } else {
            let close = self.match_angles(j + 2)?;
            if !self.toks.get(close + 1).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            close + 1
        };
        if self.toks.get(open + 1).is_some_and(|t| t.is_punct(')')) {
            return Some(0);
        }
        let mut paren = 1i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        let mut commas = 0usize;
        let mut in_closure = false;
        let mut k = open + 1;
        while k < self.toks.len() {
            match &self.toks[k].kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => {
                    paren -= 1;
                    if paren == 0 {
                        return Some(commas + 1);
                    }
                }
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('{') => brace += 1,
                TokKind::Punct('}') => brace -= 1,
                TokKind::Punct('<' | '>') if paren == 1 && brace == 0 => return None,
                TokKind::Punct('|') if paren == 1 && bracket == 0 && brace == 0 => {
                    if in_closure {
                        in_closure = false;
                    } else {
                        let opener = k == open + 1
                            || self.toks.get(k - 1).is_some_and(|p| {
                                p.is_punct(',') || p.is_punct('(') || p.ident() == Some("move")
                            });
                        if opener {
                            in_closure = true;
                        }
                    }
                }
                TokKind::Punct(',')
                    if paren == 1
                        && bracket == 0
                        && brace == 0
                        && !in_closure
                        && !self.toks.get(k + 1).is_some_and(|t| t.is_punct(')')) =>
                {
                    commas += 1;
                }
                _ => {}
            }
            k += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn parse(src: &str) -> ParsedFile {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        parse_file(&["m".to_string()], &lexed.toks, &mask)
    }

    #[test]
    fn free_fn_and_method_extraction() {
        let src = r#"
            pub fn free(x: u64) -> u64 { helper(x) }
            struct T;
            impl T {
                fn method(&self) { self.other(); free(1); }
                fn other(&self) {}
            }
            impl std::fmt::Display for T {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, "t") }
            }
        "#;
        let p = parse(src);
        let names: Vec<(&str, Option<&str>)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("T")),
                ("other", Some("T")),
                ("fmt", Some("T")),
            ]
        );
        let method = &p.fns[1];
        assert!(method
            .calls
            .iter()
            .any(|c| c.method && c.via_self && c.path == ["other"]));
        assert!(method.calls.iter().any(|c| !c.method && c.path == ["free"]));
    }

    #[test]
    fn trait_default_methods_are_items_signatures_are_not() {
        let src = r#"
            pub trait Probe {
                fn send(&self) -> u8;
                fn burst(&self) -> u8 { self.send() }
            }
        "#;
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "burst");
        assert_eq!(p.fns[0].owner.as_deref(), Some("Probe"));
    }

    #[test]
    fn impl_for_takes_the_implementing_type() {
        let src = "impl<'a, T: Clone> Iterator for Walker<'a, T> { fn next(&mut self) -> Option<u8> { None } }";
        let p = parse(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Walker"));
    }

    #[test]
    fn impl_trait_in_return_position_is_not_an_impl_block() {
        let src = r#"
            fn make() -> impl Iterator<Item = u8> { std::iter::empty() }
            fn after() {}
        "#;
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["make", "after"]);
        assert!(p.fns[1].owner.is_none());
    }

    #[test]
    fn panic_hazards_are_sited() {
        let src = r#"
            fn risky(v: Option<u8>) -> u8 {
                let a = v.unwrap();
                if a > 250 { panic!("too big"); }
                a
            }
        "#;
        let p = parse(src);
        let kinds: Vec<(&str, u32)> = p.fns[0]
            .hazards
            .iter()
            .map(|h| (h.what.as_str(), h.line))
            .collect();
        assert_eq!(kinds, vec![(".unwrap()", 3), ("panic!", 4)]);
    }

    #[test]
    fn use_aliases_resolve_groups_and_renames() {
        let src = r#"
            use crate::permutation::PermutationShard;
            use netsim::{mix_seed, Network as Net};
            use super::verify::{self, verify_one};
        "#;
        let p = parse(src);
        let find = |alias: &str| -> Vec<String> {
            p.uses
                .iter()
                .find(|u| u.alias == alias)
                .map(|u| u.target.clone())
                .unwrap_or_default()
        };
        assert_eq!(
            find("PermutationShard"),
            ["crate", "permutation", "PermutationShard"]
        );
        assert_eq!(find("mix_seed"), ["netsim", "mix_seed"]);
        assert_eq!(find("Net"), ["netsim", "Network"]);
        assert_eq!(find("verify"), ["super", "verify"]);
        assert_eq!(find("verify_one"), ["super", "verify", "verify_one"]);
    }

    #[test]
    fn test_functions_are_flagged() {
        let src = r#"
            fn lib_fn() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { lib_fn(); }
            }
        "#;
        let p = parse(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn inline_mod_extends_module_path() {
        let src = "mod inner { pub fn deep() {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].module, vec!["m", "inner"]);
    }

    #[test]
    fn path_calls_keep_their_segments() {
        let src = "fn f() { crate::permutation::PermutationShard::new(1, 2, 3, 4); }";
        let p = parse(src);
        assert_eq!(
            p.fns[0].calls[0].path,
            vec!["crate", "permutation", "PermutationShard", "new"]
        );
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let src = "fn f() { parse::<u64>(); v.iter().sum::<u64>(); }";
        let p = parse(src);
        let calls: Vec<&str> = p.fns[0]
            .calls
            .iter()
            .map(|c| c.path.last().unwrap().as_str())
            .collect();
        assert!(calls.contains(&"parse"));
        assert!(calls.contains(&"sum"));
    }

    #[test]
    fn float_accumulation_needs_a_float_mention() {
        let int_merge = "fn absorb(&mut self, o: &Self) { self.count += o.count; }";
        let p = parse(int_merge);
        assert!(p.fns[0].hazards.is_empty(), "{:?}", p.fns[0].hazards);

        let float_merge = r#"
            fn absorb(&mut self, o: &Self) {
                let w: f64 = o.weight();
                self.total += w;
            }
        "#;
        let p = parse(float_merge);
        let fa: Vec<(&str, u32)> = p.fns[0]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::FloatAccum)
            .map(|h| (h.what.as_str(), h.line))
            .collect();
        assert_eq!(fa, vec![("+=", 4)]);

        let float_sum = "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() / xs.len() as f64 }";
        let p = parse(float_sum);
        assert!(p.fns[0]
            .hazards
            .iter()
            .any(|h| h.kind == HazardKind::FloatAccum && h.what == ".sum()"));
    }

    #[test]
    fn mid_path_turbofish_keeps_the_segments() {
        // `Shard::<u64>::new()` — the turbofish sits between path
        // segments, not at the end; the generic args must be skipped
        // without losing the method segment.
        let src = "fn f() { Shard::<u64>::new(1); }";
        let p = parse(src);
        assert_eq!(p.fns[0].calls[0].path, vec!["Shard", "new"]);
        assert_eq!(p.fns[0].calls[0].arity, Some(1));
    }

    #[test]
    fn parens_inside_generics_do_not_end_the_turbofish() {
        // The tuple type inside the generic args contains `(`/`)`; the
        // angle matcher must tolerate them and still find the call.
        let src = "fn f(v: &[u64]) { v.iter().map(pair).collect::<Vec<(u64, u64)>>(); }";
        let p = parse(src);
        let collect = p.fns[0]
            .calls
            .iter()
            .find(|c| c.path.last().map(String::as_str) == Some("collect"))
            .expect("collect() extracted as a call");
        assert_eq!(collect.arity, Some(0));
    }

    #[test]
    fn closure_arguments_count_as_one_argument() {
        // The `|`s delimiting a closure are not comma barriers, and the
        // closure body's commas must not inflate the count.
        let src = "fn f(v: &[u64]) { v.iter().map(|e| pair(e, 1)).count(); }";
        let p = parse(src);
        let map = p.fns[0]
            .calls
            .iter()
            .find(|c| c.path.last().map(String::as_str) == Some("map"))
            .expect("map() extracted as a call");
        assert_eq!(map.arity, Some(1));

        let src = "fn f(v: &[u64]) -> u64 { v.iter().fold(0, |acc, e| acc + e) }";
        let p = parse(src);
        let fold = p.fns[0]
            .calls
            .iter()
            .find(|c| c.path.last().map(String::as_str) == Some("fold"))
            .expect("fold() extracted as a call");
        assert_eq!(fold.arity, Some(2));
    }

    #[test]
    fn fn_arity_excludes_self() {
        let src = r#"
            fn free(a: u64, b: u64) -> u64 { a + b }
            struct H;
            impl H {
                fn observe(&mut self, v: u64) { let _ = v; }
                fn clear(&mut self) {}
            }
        "#;
        let p = parse(src);
        let arity = |name: &str| p.fns.iter().find(|f| f.name == name).unwrap().arity;
        assert_eq!(arity("free"), 2);
        assert_eq!(arity("observe"), 1);
        assert_eq!(arity("clear"), 0);
    }

    #[test]
    fn generic_call_arguments_give_unknown_arity() {
        // A `<` at argument depth means the comma count is unreliable
        // (generic args vs comparison is undecidable here) — report None
        // so the graph keeps the full candidate set.
        let src = "fn f(h: &H) { h.observe(id::<u64>(5)); }";
        let p = parse(src);
        let observe = p.fns[0]
            .calls
            .iter()
            .find(|c| c.path.last().map(String::as_str) == Some("observe"))
            .expect("observe() extracted as a call");
        assert_eq!(observe.arity, None);
    }

    #[test]
    fn blocking_and_alloc_hazards_are_sited() {
        let src = r#"
            fn waits(rx: &std::sync::mpsc::Receiver<u8>) {
                std::thread::sleep(d());
                let _ = rx.recv();
            }
            fn allocs(id: u64) -> String {
                let v = vec![id];
                format!("probe-{}", v[0])
            }
        "#;
        let p = parse(src);
        let blocking: Vec<&str> = p.fns[0]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::Blocking)
            .map(|h| h.what.as_str())
            .collect();
        assert_eq!(blocking, vec!["thread::sleep", ".recv()"]);
        let alloc: Vec<&str> = p.fns[1]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::Alloc)
            .map(|h| h.what.as_str())
            .collect();
        assert_eq!(alloc, vec!["vec!", "format!"]);
    }

    #[test]
    fn raw_strings_do_not_desync_call_extraction() {
        // The regression class PR 3 hit: a literal containing `fn`/`{`
        // lookalikes must not corrupt the scope stack mid-file.
        let src = r####"
            fn first() { let s = r##"fn fake() { nested::call(); "## ; real_call(); }
            fn second() { second_call(); }
        "####;
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].calls.iter().any(|c| c.path == ["real_call"]));
        assert!(p.fns[1].calls.iter().any(|c| c.path == ["second_call"]));
        assert!(!p
            .fns
            .iter()
            .any(|f| f.calls.iter().any(|c| c.path.contains(&"call".to_string()))));
    }

    #[test]
    fn shard_identity_reads_are_hazards() {
        let src = r#"
            fn merge(&mut self, other: &Self) {
                let key = other.shard_id;
                self.rows.push(key);
            }
            fn clean(&mut self, other: &Self) { self.rows.push(other.seq); }
        "#;
        let p = parse(src);
        assert!(p.fns[0]
            .hazards
            .iter()
            .any(|h| h.kind == HazardKind::ShardIdent && h.what == "shard_id"));
        assert!(!p.fns[1]
            .hazards
            .iter()
            .any(|h| h.kind == HazardKind::ShardIdent));
    }
}
