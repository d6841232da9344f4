//! SA006 — panic-path audit of non-test code.
//!
//! - `unwrap()`/`expect()` calls are errors everywhere: in function
//!   bodies (closures and macro arguments included) and in `static`/
//!   `const` initializers. This is the workspace's unwrap ratchet; with
//!   an empty `audit-baseline.txt` no new call can land.
//! - Panicking macros are errors in code that runs on the
//!   `sim-scheduler` thread or the serve worker pool — where a panic
//!   orphans dedup slots or kills a pool worker — and warnings elsewhere.
//! - Indexing expressions in those scheduler-context files are
//!   warnings, since `v[i]` panics are the same hazard in quieter
//!   clothing.
//!
//! `// lint:allow(unwrap) reason` and `// audit:allow(SA006) reason`
//! both suppress findings.

use stacksim_lint::{Report, Severity};

use crate::ast::{method_calls, SourceFile};
use crate::lex::Tok;
use crate::model::FnCtx;
use crate::passes::emit;

pub const CODE: &str = "SA006";

/// Files whose code runs on the scheduler thread or serve worker pool:
/// a panic here wedges `wait()` callers or shrinks the pool.
fn scheduler_context(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || matches!(
            path,
            "crates/core/src/harness/session.rs"
                | "crates/core/src/harness/runner.rs"
                | "crates/core/src/harness/cache.rs"
                | "crates/core/src/harness/resilience.rs"
                | "crates/core/src/harness/json.rs"
        )
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn run(files: &[SourceFile], report: &mut Report) {
    for file in files {
        let sched = scheduler_context(&file.path);
        let severity = if sched {
            Severity::Error
        } else {
            Severity::Warning
        };
        let panics = if sched {
            " can panic on the scheduler/worker path"
        } else {
            " can panic"
        };
        for item in file.item_inits.iter().filter(|it| !it.is_test) {
            for c in method_calls(file.tokens(), item.init.clone()) {
                if c.name == "unwrap" || c.name == "expect" {
                    emit(
                        report,
                        file,
                        CODE,
                        Severity::Error,
                        c.line,
                        format!(
                            "`.{}()` in the initializer of `{}`{panics}; \
                             return a typed error instead",
                            c.name, item.name,
                        ),
                    );
                }
            }
        }
        for func in file.functions.iter().filter(|f| !f.is_test) {
            let cx = FnCtx::new(file, func);
            let toks = cx.toks();
            for c in &cx.calls {
                if c.name == "unwrap" || c.name == "expect" {
                    emit(
                        report,
                        file,
                        CODE,
                        Severity::Error,
                        c.line,
                        format!(
                            "`.{}()` in fn `{}`{panics}; return a typed error instead",
                            c.name, cx.func.qual,
                        ),
                    );
                }
            }
            // panicking macros: `name!(…)`
            let body = func.body.clone();
            for i in body.clone() {
                let Tok::Ident(name) = &toks[i].kind else {
                    continue;
                };
                if PANIC_MACROS.contains(&name.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.kind.is_punct('!'))
                {
                    emit(
                        report,
                        file,
                        CODE,
                        severity,
                        toks[i].line,
                        format!(
                            "`{name}!` in fn `{}` panics; return a typed error",
                            cx.func.qual
                        ),
                    );
                }
            }
            // indexing in scheduler-context files only
            if sched {
                for i in body {
                    if !toks[i].kind.is_punct('[') {
                        continue;
                    }
                    // an index expression follows a value, not `= [..]`/attrs
                    let indexes = i > 0
                        && matches!(
                            &toks[i - 1].kind,
                            Tok::Ident(_) | Tok::Punct(')') | Tok::Punct(']')
                        );
                    // `x[a..b]` slicing excluded (a different hazard class)
                    let mut range_like = false;
                    {
                        let mut depth = 1i32;
                        let mut prev_dot = false;
                        let mut j = i + 1;
                        while j < func.body.end && depth > 0 {
                            match &toks[j].kind {
                                Tok::Punct('[') => depth += 1,
                                Tok::Punct(']') => depth -= 1,
                                Tok::Punct('.') if depth == 1 => {
                                    range_like |= prev_dot;
                                }
                                _ => {}
                            }
                            prev_dot = toks[j].kind.is_punct('.');
                            j += 1;
                        }
                    }
                    if indexes && !range_like {
                        emit(
                            report,
                            file,
                            CODE,
                            Severity::Warning,
                            toks[i].line,
                            format!(
                                "indexing in fn `{}` panics out of bounds on the \
                                 scheduler/worker path; prefer get()",
                                cx.func.qual
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lex::lex;

    fn report_for(path: &str, src: &str) -> Report {
        let sf = parse(path, lex(src));
        let mut r = Report::new();
        run(&[sf], &mut r);
        r
    }

    #[test]
    fn unwrap_errors_everywhere_panic_macros_only_on_the_scheduler_path() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert_eq!(r.error_count(), 1);
        let r = report_for("crates/mem/src/cache.rs", src);
        assert_eq!((r.error_count(), r.warning_count()), (1, 0));
        let src = "fn f() { panic!(\"boom\"); }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert_eq!(r.error_count(), 1);
        let r = report_for("crates/mem/src/cache.rs", src);
        assert_eq!((r.error_count(), r.warning_count()), (0, 1));
    }

    #[test]
    fn finds_unwrap_and_expect_outside_tests() {
        // the test attribute on the brace-less `use` ends at its `;` and
        // does not leak onto `f`
        let src = "#[cfg(test)]\nuse std::fmt;\n\
                   fn f() {\n    let x = g().unwrap();\n    let y = h().expect(\"boom\");\n}\n";
        let r = report_for("crates/foo/src/lib.rs", src);
        let found: Vec<(&str, &str)> = r
            .diagnostics()
            .iter()
            .map(|d| (d.span.as_str(), d.message.as_str()))
            .collect();
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].0, "crates/foo/src/lib.rs:4");
        assert!(found[0].1.starts_with("`.unwrap()`"), "{found:?}");
        assert_eq!(found[1].0, "crates/foo/src/lib.rs:5");
        assert!(found[1].1.starts_with("`.expect()`"), "{found:?}");
    }

    #[test]
    fn ignores_test_modules_fallbacks_and_comments() {
        let src = "\
fn f() {
    let a = g().unwrap_or_else(|e| e.into_inner());
    let b = g().unwrap_or_default();
    // calling .unwrap() here would be bad
    /* and so would .expect(\"this\") */
    let c = o.expect_err(\"must fail\");
    let d = o.unwrap_err();
    let s = \"a string mentioning .unwrap() is no call\";
}

#[cfg(test)]
mod tests {
    static T: u32 = Some(1).unwrap();
    #[test]
    fn t() {
        g().unwrap();
        h().expect(\"fine in tests\");
    }
}
";
        let r = report_for("crates/foo/src/lib.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    #[test]
    fn lint_allow_unwrap_waiver_suppresses_a_line_in_any_crate() {
        let src = "fn f() {\n    g().unwrap(); // lint:allow(unwrap) poisoning is unrecoverable here\n}\n";
        let r = report_for("crates/foo/src/lib.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    /// The places a line-oriented scanner also sees: a macro argument, a
    /// closure body, and `static`/`const` initializers outside any
    /// function — in free items and in impl blocks alike.
    #[test]
    fn unwrap_in_macro_args_closures_and_item_initializers_is_found() {
        let src = "\
static NAME: LazyLock<String> = LazyLock::new(|| std::env::var(\"X\").unwrap());
const LIMIT: u32 = Some(7).expect(\"const unwrap\");
const fn not_an_item() -> u32 { 1 }
struct S<const N: usize>;
impl S<3> {
    const MAX: u32 = Some(1).unwrap();
}
fn f(v: Option<u32>) -> u32 {
    println!(\"{}\", v.unwrap());
    let g = |w: Option<u32>| w.expect(\"closure\");
    g(v)
}
";
        let r = report_for("crates/foo/src/lib.rs", src);
        let lines: Vec<&str> = r
            .diagnostics()
            .iter()
            .map(|d| d.span.rsplit(':').next().unwrap_or(""))
            .collect();
        assert_eq!(r.error_count(), 5, "{}", r.render_pretty());
        assert_eq!(lines, ["1", "2", "6", "9", "10"], "{}", r.render_pretty());
    }

    /// A new unwrap in any crate fails the ratchet against the committed
    /// (empty) baseline.
    #[test]
    fn a_new_unwrap_fails_against_an_empty_baseline() {
        let r = report_for(
            "crates/mem/src/cache.rs",
            "fn f() {\n    g().unwrap();\n}\n",
        );
        let verdict = crate::baseline::compare(r.diagnostics(), &Default::default());
        assert_eq!(verdict.new_errors.len(), 1);
        assert!(!verdict.is_ok());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(m: &Mutex<u32>) -> u32 {
            *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    #[test]
    fn panic_macros_and_indexing_are_flagged() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {
            if v.is_empty() { panic!(\"empty\"); }
            v[i]
        }";
        let r = report_for("crates/serve/src/lib.rs", src);
        assert_eq!(r.error_count(), 1); // panic!
        assert_eq!(r.warning_count(), 1); // v[i]
    }

    #[test]
    fn lint_allow_unwrap_waiver_is_honoured() {
        let src = "fn f(x: Option<u32>) -> u32 {
            x.unwrap() // lint:allow(unwrap) checked non-empty above
        }";
        let r = report_for("crates/core/src/harness/session.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }

    #[test]
    fn tests_are_exempt() {
        let src = "#[cfg(test)]
        mod tests {
            #[test]
            fn t() { Some(1).unwrap(); panic!(\"x\"); }
        }";
        let r = report_for("crates/serve/src/lib.rs", src);
        assert!(r.is_clean(), "{}", r.render_pretty());
    }
}
