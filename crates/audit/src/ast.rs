//! A lightweight structural parse of one lexed file: function extents
//! (with test-ness and impl qualification), struct field types, and
//! expression-level queries (method calls, path calls, `let` bindings,
//! `for` loops) over token ranges.
//!
//! This is not a full Rust parser — it tracks exactly the structure the
//! audit passes need and degrades gracefully (by finding nothing) on
//! constructs it does not model.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lex::{Lexed, Tok, Token};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct Func {
    /// The bare function name.
    pub name: String,
    /// `Type::name` for methods in `impl` blocks, else the bare name.
    pub qual: String,
    /// Whether the function (or an enclosing module/impl) is test-only.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the parameter list (between the signature parens).
    pub params: Range<usize>,
    /// Token range of the body (between the body braces, exclusive).
    pub body: Range<usize>,
}

/// One `static`/`const` item outside any function body.
#[derive(Debug, Clone)]
pub struct ItemInit {
    /// The item name.
    pub name: String,
    /// Whether the item (or an enclosing module/impl) is test-only.
    pub is_test: bool,
    /// Token range of the initializer (between `=` and `;`, exclusive).
    pub init: Range<usize>,
}

/// The parsed shape of one source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// The token stream and waivers.
    pub lexed: Lexed,
    /// Every function with a body, in source order.
    pub functions: Vec<Func>,
    /// Every `static`/`const` initializer outside a function body, in
    /// source order (those inside a body are part of its token range).
    pub item_inits: Vec<ItemInit>,
    /// Struct fields whose declared type mentions `HashMap`/`HashSet`.
    pub map_fields: BTreeSet<String>,
    /// Struct fields whose declared type mentions `Mutex`/`RwLock`.
    pub lock_fields: BTreeSet<String>,
    /// Struct fields whose declared type mentions `Condvar`.
    pub cv_fields: BTreeSet<String>,
    /// Struct field name → innermost declared type identifier (the last
    /// identifier of the type, so `sim: Arc<Sim>` maps `sim` to `Sim`).
    /// Used to resolve method calls like `self.sim.submit(..)` to
    /// `Sim::submit`.
    pub field_types: BTreeMap<String, String>,
}

impl SourceFile {
    /// Tokens of this file.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }
}

/// Parses one file.
pub fn parse(path: &str, lexed: Lexed) -> SourceFile {
    let toks = lexed.tokens.clone();
    let mut functions: Vec<Func> = Vec::new();
    let mut item_inits: Vec<ItemInit> = Vec::new();
    let mut map_fields = BTreeSet::new();
    let mut lock_fields = BTreeSet::new();
    let mut cv_fields = BTreeSet::new();
    let mut field_types = BTreeMap::new();

    // scope stack entries: (kind, test) — kind is the impl type name for
    // impl blocks, empty otherwise
    #[derive(Debug)]
    struct Scope {
        impl_type: Option<String>,
        test: bool,
        /// index into `functions` when this scope is a function body
        func: Option<usize>,
    }
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false;

    let mut i = 0;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct('#') if toks.get(i + 1).is_some_and(|t| t.kind.is_punct('[')) => {
                let close = match_bracket(&toks, i + 1, '[', ']');
                let attr = &toks[i + 2..close];
                if attr_is_test(attr) {
                    pending_test = true;
                }
                i = close + 1;
            }
            Tok::Punct('{') => {
                scopes.push(Scope {
                    impl_type: None,
                    test: scopes.iter().any(|s| s.test) || pending_test,
                    func: None,
                });
                pending_test = false;
                i += 1;
            }
            Tok::Punct('}') => {
                if let Some(sc) = scopes.pop() {
                    if let Some(fi) = sc.func {
                        functions[fi].body.end = i;
                    }
                }
                // a test attribute never reaches past its item's end
                pending_test = false;
                i += 1;
            }
            Tok::Punct(';') => {
                // end of a brace-less item (`#[cfg(test)] use …;`)
                pending_test = false;
                i += 1;
            }
            Tok::Ident(kw)
                if (kw == "static" || kw == "const")
                    && !scopes.iter().any(|s| s.func.is_some()) =>
            {
                if let Some((name, init)) = item_init(&toks, i) {
                    item_inits.push(ItemInit {
                        name,
                        is_test: scopes.iter().any(|s| s.test) || pending_test,
                        init,
                    });
                    pending_test = false;
                }
                // keep walking the initializer so scope depth stays
                // consistent
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" => {
                // scan to the block open brace; the type is the last path
                // segment before `{` (after `for`, when present)
                let test = scopes.iter().any(|s| s.test) || pending_test;
                pending_test = false;
                let mut j = i + 1;
                let mut after_for: Option<usize> = None;
                while j < toks.len() && !toks[j].kind.is_punct('{') {
                    if toks[j].kind.is_ident("for") {
                        after_for = Some(j);
                    }
                    j += 1;
                }
                let seg_start = after_for.map_or(i + 1, |f| f + 1);
                let ty = last_type_ident(&toks[seg_start..j.min(toks.len())]);
                if j < toks.len() {
                    scopes.push(Scope {
                        impl_type: ty,
                        test,
                        func: None,
                    });
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            Tok::Ident(kw) if kw == "struct" => {
                pending_test = false;
                // struct Name { field: Type, … } — collect field types
                if let Some(open) = toks[i..]
                    .iter()
                    .position(|t| {
                        t.kind.is_punct('{') || t.kind.is_punct(';') || t.kind.is_punct('(')
                    })
                    .map(|o| i + o)
                {
                    if toks[open].kind.is_punct('{') {
                        let close = match_bracket(&toks, open, '{', '}');
                        collect_fields(
                            &toks[open + 1..close],
                            &mut map_fields,
                            &mut lock_fields,
                            &mut cv_fields,
                            &mut field_types,
                        );
                        // fall through: the block is still walked normally so
                        // scope depth stays consistent
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                let test = scopes.iter().any(|s| s.test) || pending_test;
                pending_test = false;
                let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) else {
                    i += 1;
                    continue;
                };
                let name = name.clone();
                let line = toks[i].line;
                // parameter list: first `(` after the name (skipping generics)
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < toks.len() {
                    match &toks[j].kind {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('(') if angle <= 0 => break,
                        Tok::Punct('{') | Tok::Punct(';') => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= toks.len() || !toks[j].kind.is_punct('(') {
                    i += 1;
                    continue;
                }
                let params_close = match_bracket(&toks, j, '(', ')');
                let params = j + 1..params_close;
                // body: the next `{` before a `;` at this level
                let mut k = params_close + 1;
                let mut body_open = None;
                while k < toks.len() {
                    match &toks[k].kind {
                        Tok::Punct('{') => {
                            body_open = Some(k);
                            break;
                        }
                        Tok::Punct(';') => break,
                        _ => {}
                    }
                    k += 1;
                }
                let Some(open) = body_open else {
                    i = k.min(toks.len());
                    continue;
                };
                let impl_type = scopes.iter().rev().find_map(|s| s.impl_type.clone());
                let qual = match &impl_type {
                    Some(t) => format!("{t}::{name}"),
                    None => name.clone(),
                };
                functions.push(Func {
                    name,
                    qual,
                    is_test: test,
                    line,
                    params,
                    body: open + 1..open + 1, // end patched when the brace closes
                });
                scopes.push(Scope {
                    impl_type: None,
                    test,
                    func: Some(functions.len() - 1),
                });
                i = open + 1;
            }
            _ => i += 1,
        }
    }
    // unterminated function bodies (lexer confusion): close at EOF
    for f in &mut functions {
        if f.body.end < f.body.start {
            f.body.end = toks.len();
        }
    }

    SourceFile {
        path: path.to_string(),
        lexed,
        functions,
        item_inits,
        map_fields,
        lock_fields,
        cv_fields,
        field_types,
    }
}

/// Recognises `static [mut] NAME: Type = init;` / `const NAME: Type =
/// init;` at token `at` (the keyword) and returns the name and the
/// initializer's token range. `const fn`, `*const T` and const generic
/// parameters are not items and yield `None`.
fn item_init(toks: &[Token], at: usize) -> Option<(String, Range<usize>)> {
    let mut j = at + 1;
    if toks.get(j).is_some_and(|t| t.kind.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j)?.kind.ident()?.to_string();
    if !toks.get(j + 1)?.kind.is_punct(':') {
        return None;
    }
    // the type runs to `=`; a `,`, `>` or `{` at generic depth 0 (or a
    // `;` outside brackets) means this is not an item
    let mut depth = 0i32;
    let mut k = j + 2;
    loop {
        match &toks.get(k)?.kind {
            Tok::Punct('<') | Tok::Punct('[') | Tok::Punct('(') => depth += 1,
            Tok::Punct(']') | Tok::Punct(')') => depth -= 1,
            // the `>` of a `->` return arrow closes nothing
            Tok::Punct('>') if toks[k - 1].kind.is_punct('-') => {}
            Tok::Punct('>') if depth == 0 => return None,
            Tok::Punct('>') => depth -= 1,
            Tok::Punct('=') if depth == 0 => break,
            Tok::Punct(',') | Tok::Punct(';') | Tok::Punct('{') if depth == 0 => return None,
            _ => {}
        }
        k += 1;
    }
    // the initializer runs to the `;` outside every bracket
    let start = k + 1;
    let mut depth = 0i32;
    let mut end = start;
    while end < toks.len() {
        match &toks[end].kind {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    Some((name, start..end))
}

/// The impl type name: the last identifier outside generic args in
/// `impl Foo`, `impl foo::Bar<T>`, `impl Trait for Baz<'a>`.
fn last_type_ident(toks: &[Token]) -> Option<String> {
    let mut angle = 0i32;
    let mut last = None;
    for t in toks {
        match &t.kind {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(s) if angle == 0 && !matches!(s.as_str(), "dyn" | "mut" | "const") => {
                last = Some(s.clone());
            }
            _ => {}
        }
    }
    last
}

/// Whether an attribute token slice marks test-only code:
/// `#[cfg(test)]`, `#[test]`, or `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`.
fn attr_is_test(attr: &[Token]) -> bool {
    let ids: Vec<&str> = attr.iter().filter_map(|t| t.kind.ident()).collect();
    if ids == ["test"] {
        return true;
    }
    ids.first() == Some(&"cfg") && ids.contains(&"test") && !ids.contains(&"not")
}

/// Finds the matching close bracket for the opener at `open`.
fn match_bracket(toks: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind.is_punct(oc) {
            depth += 1;
        } else if toks[i].kind.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1).max(open)
}

/// Collects struct field names with map- or lock-typed declarations from
/// the tokens of a struct body.
fn collect_fields(
    body: &[Token],
    maps: &mut BTreeSet<String>,
    locks: &mut BTreeSet<String>,
    cvs: &mut BTreeSet<String>,
    types: &mut BTreeMap<String, String>,
) {
    // fields are `name : Type ,` at brace depth 0 within the body
    let mut depth = 0i32;
    let mut i = 0;
    while i < body.len() {
        match &body[i].kind {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Ident(name)
                if depth == 0
                    && body.get(i + 1).is_some_and(|t| t.kind.is_punct(':'))
                    && !body.get(i + 2).is_some_and(|t| t.kind.is_punct(':')) =>
            {
                // type tokens: up to the next `,` at depth 0 (angle depth too)
                let mut j = i + 2;
                let mut angle = 0i32;
                let mut ty = Vec::new();
                while j < body.len() {
                    match &body[j].kind {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct(',') if angle <= 0 => break,
                        Tok::Ident(t) => ty.push(t.as_str()),
                        _ => {}
                    }
                    j += 1;
                }
                if ty.iter().any(|t| *t == "HashMap" || *t == "HashSet") {
                    maps.insert(name.clone());
                }
                if ty.iter().any(|t| *t == "Mutex" || *t == "RwLock") {
                    locks.insert(name.clone());
                }
                if ty.contains(&"Condvar") {
                    cvs.insert(name.clone());
                }
                if let Some(last) = ty.last() {
                    types.insert(name.clone(), (*last).to_string());
                }
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// expression-level queries over token ranges
// ---------------------------------------------------------------------------

/// One `recv.name(args)` method call (turbofish tolerated).
#[derive(Debug, Clone)]
pub struct MethodCall {
    /// The method name.
    pub name: String,
    /// Turbofish type arguments, as identifier list (empty without one).
    pub turbofish: Vec<String>,
    /// Token range of the receiver chain (best effort).
    pub recv: Range<usize>,
    /// Token range of the argument list (between the parens, exclusive).
    pub args: Range<usize>,
    /// 1-based line of the method name.
    pub line: u32,
}

impl MethodCall {
    /// The leftmost identifier of the receiver chain (the root variable),
    /// if the chain starts at a plain identifier.
    pub fn root<'t>(&self, toks: &'t [Token]) -> Option<&'t str> {
        toks[self.recv.clone()].first().and_then(|t| t.kind.ident())
    }

    /// The identifier immediately before the method's dot — the field (or
    /// variable) the method is invoked on, e.g. `status` in
    /// `self.status.lock()`.
    pub fn field<'t>(&self, toks: &'t [Token]) -> Option<&'t str> {
        toks[self.recv.clone()].last().and_then(|t| t.kind.ident())
    }

    /// Every identifier in the receiver chain.
    pub fn recv_idents<'t>(&self, toks: &'t [Token]) -> Vec<&'t str> {
        toks[self.recv.clone()]
            .iter()
            .filter_map(|t| t.kind.ident())
            .collect()
    }
}

/// One `a::b::f(args)` path call.
#[derive(Debug, Clone)]
pub struct PathCall {
    /// The `::`-separated path segments.
    pub path: Vec<String>,
    /// Token range of the argument list.
    pub args: Range<usize>,
    /// 1-based line of the final segment.
    pub line: u32,
}

impl PathCall {
    /// The path joined with `::`.
    pub fn joined(&self) -> String {
        self.path.join("::")
    }
}

/// One `let` binding.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// Identifiers bound by the pattern (tuple patterns bind several).
    pub names: Vec<String>,
    /// Token range of the type annotation (empty without one).
    pub ty: Range<usize>,
    /// Token range of the initializer (empty for `let x;`).
    pub init: Range<usize>,
    /// 1-based line of the `let`.
    pub line: u32,
}

/// One `for pat in expr { … }` loop.
#[derive(Debug, Clone)]
pub struct ForLoop {
    /// Identifiers bound by the loop pattern.
    pub names: Vec<String>,
    /// Token range of the iterated expression.
    pub iter: Range<usize>,
    /// Token range of the loop body (between braces, exclusive).
    pub body: Range<usize>,
    /// 1-based line of the `for`.
    pub line: u32,
}

/// Scans a token range for method calls: `.name(`, `.name::<T>(`.
pub fn method_calls(toks: &[Token], range: Range<usize>) -> Vec<MethodCall> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if toks[i].kind.is_punct('.') {
            if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                let mut j = i + 2;
                let mut turbofish = Vec::new();
                // `.name::<T>(…)`
                if toks.get(j).is_some_and(|t| t.kind.is_punct(':'))
                    && toks.get(j + 1).is_some_and(|t| t.kind.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.kind.is_punct('<'))
                {
                    let mut angle = 0i32;
                    j += 2;
                    while j < toks.len() {
                        match &toks[j].kind {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => {
                                angle -= 1;
                                if angle == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            Tok::Ident(t) => turbofish.push(t.clone()),
                            _ => {}
                        }
                        j += 1;
                    }
                }
                if toks.get(j).is_some_and(|t| t.kind.is_punct('(')) {
                    let close = match_bracket(toks, j, '(', ')');
                    let recv_start = receiver_start(toks, i, range.start);
                    out.push(MethodCall {
                        name: name.clone(),
                        turbofish,
                        recv: recv_start..i,
                        args: j + 1..close,
                        line: toks[i + 1].line,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Walks backwards from the dot at `dot` to the start of the receiver's
/// postfix chain.
fn receiver_start(toks: &[Token], dot: usize, floor: usize) -> usize {
    let mut j = dot;
    loop {
        if j == floor {
            return j;
        }
        let prev = j - 1;
        match &toks[prev].kind {
            Tok::Ident(_) | Tok::Num(_) | Tok::Str | Tok::Punct('?') => {
                j = prev;
                // continue the chain through `.` or `::`
                if j > floor && toks[j - 1].kind.is_punct('.') {
                    j -= 1;
                } else if j + 1 > floor + 1
                    && j >= 2
                    && toks[j - 1].kind.is_punct(':')
                    && toks[j - 2].kind.is_punct(':')
                {
                    j -= 2;
                } else {
                    return j;
                }
            }
            Tok::Punct(')') => {
                // balance back to the opening paren, then keep walking the
                // chain (method call or call expression result)
                let mut depth = 0i32;
                let mut k = prev;
                loop {
                    match &toks[k].kind {
                        Tok::Punct(')') => depth += 1,
                        Tok::Punct('(') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == floor {
                        break;
                    }
                    k -= 1;
                }
                j = k;
            }
            Tok::Punct(']') => {
                let mut depth = 0i32;
                let mut k = prev;
                loop {
                    match &toks[k].kind {
                        Tok::Punct(']') => depth += 1,
                        Tok::Punct('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == floor {
                        break;
                    }
                    k -= 1;
                }
                j = k;
            }
            _ => return j,
        }
    }
}

/// Scans a token range for path calls: `a::b::f(`. Single-identifier
/// calls (`f(`) are included when the identifier is not a method name
/// (no preceding dot) and not a keyword-ish construct.
pub fn path_calls(toks: &[Token], range: Range<usize>) -> Vec<PathCall> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if let Tok::Ident(first) = &toks[i].kind {
            let preceded_by_dot = i > 0 && toks[i - 1].kind.is_punct('.');
            let preceded_by_path =
                i >= 2 && toks[i - 1].kind.is_punct(':') && toks[i - 2].kind.is_punct(':');
            if preceded_by_dot || preceded_by_path {
                i += 1;
                continue;
            }
            if matches!(
                first.as_str(),
                "if" | "while" | "for" | "match" | "return" | "fn" | "let" | "loop" | "move"
            ) {
                i += 1;
                continue;
            }
            // accumulate path segments
            let mut path = vec![first.clone()];
            let mut j = i + 1;
            while j + 2 < range.end && toks[j].kind.is_punct(':') && toks[j + 1].kind.is_punct(':')
            {
                match &toks[j + 2].kind {
                    Tok::Ident(seg) => {
                        path.push(seg.clone());
                        j += 3;
                    }
                    Tok::Punct('<') => break, // turbofish on a path call
                    _ => break,
                }
            }
            if j < range.end && toks[j].kind.is_punct('(') {
                let close = match_bracket(toks, j, '(', ')');
                out.push(PathCall {
                    line: toks[j - 1].line,
                    path,
                    args: j + 1..close,
                });
                i = j + 1;
                continue;
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// Scans a token range for `let` bindings.
pub fn lets(toks: &[Token], range: Range<usize>) -> Vec<LetBinding> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if toks[i].kind.is_ident("let") {
            let line = toks[i].line;
            // pattern: up to `:` (annotation), `=` or `;` at depth 0
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut names = Vec::new();
            let mut ty = 0..0;
            let mut init = 0..0;
            while j < range.end {
                match &toks[j].kind {
                    Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Punct(':') if depth == 0 => {
                        // annotation: up to `=` or `;` at depth 0 (angle-aware)
                        let ty_start = j + 1;
                        let mut angle = 0i32;
                        let mut k = ty_start;
                        while k < range.end {
                            match &toks[k].kind {
                                Tok::Punct('<') => angle += 1,
                                Tok::Punct('>') => angle -= 1,
                                Tok::Punct('=') if angle <= 0 => break,
                                Tok::Punct(';') if angle <= 0 => break,
                                _ => {}
                            }
                            k += 1;
                        }
                        ty = ty_start..k;
                        j = k;
                        continue;
                    }
                    Tok::Punct('=') if depth == 0 => {
                        // initializer: to `;` at depth 0
                        let init_start = j + 1;
                        let mut k = init_start;
                        let mut d2 = 0i32;
                        while k < range.end {
                            match &toks[k].kind {
                                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d2 += 1,
                                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d2 -= 1,
                                Tok::Punct(';') if d2 <= 0 => break,
                                _ => {}
                            }
                            k += 1;
                        }
                        init = init_start..k;
                        j = k;
                        break;
                    }
                    Tok::Punct(';') if depth == 0 => break,
                    Tok::Ident(id)
                        if !matches!(
                            id.as_str(),
                            "mut" | "ref" | "else" | "Some" | "Ok" | "Err"
                        ) =>
                    {
                        names.push(id.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push(LetBinding {
                names,
                ty,
                init,
                line,
            });
            i = j;
        }
        i += 1;
    }
    out
}

/// Scans a token range for `for` loops.
pub fn for_loops(toks: &[Token], range: Range<usize>) -> Vec<ForLoop> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if toks[i].kind.is_ident("for")
            && !(i > 0 && (toks[i - 1].kind.is_punct('<') || toks[i - 1].kind.is_ident("impl")))
        {
            let line = toks[i].line;
            // pattern until `in` at depth 0
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut names = Vec::new();
            while j < range.end {
                match &toks[j].kind {
                    Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                    Tok::Ident(id) if id == "in" && depth == 0 => break,
                    Tok::Ident(id) if !matches!(id.as_str(), "mut" | "ref") => {
                        names.push(id.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            if j >= range.end {
                i += 1;
                continue;
            }
            // iterated expression until the body `{` at depth 0
            let iter_start = j + 1;
            let mut k = iter_start;
            let mut d2 = 0i32;
            while k < range.end {
                match &toks[k].kind {
                    Tok::Punct('(') | Tok::Punct('[') => d2 += 1,
                    Tok::Punct(')') | Tok::Punct(']') => d2 -= 1,
                    Tok::Punct('{') if d2 <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if k >= range.end {
                i += 1;
                continue;
            }
            let close = match_bracket(toks, k, '{', '}');
            out.push(ForLoop {
                names,
                iter: iter_start..k,
                body: k + 1..close.min(range.end),
                line,
            });
            i = k + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// The identifiers present in a token range.
pub fn idents_in(toks: &[Token], range: Range<usize>) -> Vec<&str> {
    toks[range].iter().filter_map(|t| t.kind.ident()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> SourceFile {
        parse("test.rs", lex(src))
    }

    #[test]
    fn functions_modules_and_impls_are_qualified() {
        let src = "
            struct Foo { m: HashMap<String, u32>, st: Mutex<u8> }
            impl Foo {
                fn get(&self) -> u32 { 1 }
            }
            fn free() { }
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn t() {}
            }
        ";
        let sf = parse_src(src);
        let names: Vec<(&str, bool)> = sf
            .functions
            .iter()
            .map(|f| (f.qual.as_str(), f.is_test))
            .collect();
        assert_eq!(
            names,
            vec![
                ("Foo::get", false),
                ("free", false),
                ("helper", true),
                ("t", true)
            ]
        );
        assert!(sf.map_fields.contains("m"));
        assert!(sf.lock_fields.contains("st"));
    }

    #[test]
    fn method_calls_track_receivers_and_turbofish() {
        let sf = parse_src(
            "fn f(m: &HashMap<u32, u32>) { let s = m.values().sum::<f64>(); self.state.lock(); }",
        );
        let f = &sf.functions[0];
        let calls = method_calls(sf.tokens(), f.body.clone());
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["values", "sum", "lock"]);
        assert_eq!(calls[0].root(sf.tokens()), Some("m"));
        assert_eq!(calls[1].turbofish, vec!["f64"]);
        // receiver of .sum() is the whole m.values() chain, rooted at m
        assert_eq!(calls[1].root(sf.tokens()), Some("m"));
        assert_eq!(calls[2].field(sf.tokens()), Some("state"));
        assert_eq!(calls[2].root(sf.tokens()), Some("self"));
    }

    #[test]
    fn lets_and_for_loops_are_extracted() {
        let sf = parse_src(
            "fn f() {
                let mut keys: Vec<String> = m.keys().cloned().collect();
                for (k, v) in map.iter() { use_it(k, v); }
            }",
        );
        let f = &sf.functions[0];
        let ls = lets(sf.tokens(), f.body.clone());
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].names, vec!["keys"]);
        assert!(idents_in(sf.tokens(), ls[0].ty.clone()).contains(&"Vec"));
        assert!(idents_in(sf.tokens(), ls[0].init.clone()).contains(&"keys"));
        let fl = for_loops(sf.tokens(), f.body.clone());
        assert_eq!(fl.len(), 1);
        assert_eq!(fl[0].names, vec!["k", "v"]);
        assert!(idents_in(sf.tokens(), fl[0].iter.clone()).contains(&"map"));
    }

    #[test]
    fn path_calls_have_full_paths() {
        let sf = parse_src("fn f() { let t = Instant::now(); std::mem::take(&mut x); g(); }");
        let f = &sf.functions[0];
        let calls = path_calls(sf.tokens(), f.body.clone());
        let joined: Vec<String> = calls.iter().map(PathCall::joined).collect();
        assert_eq!(joined, vec!["Instant::now", "std::mem::take", "g"]);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let sf = parse_src("#[cfg(not(test))]\nfn prod() {}\n#[cfg(test)]\nfn t() {}");
        assert!(!sf.functions[0].is_test);
        assert!(sf.functions[1].is_test);
    }
}
