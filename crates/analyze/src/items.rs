//! Item-level parsing: from the token stream of [`crate::scan`] to a
//! list of Rust *items* (functions, types, modules, macros) per file.
//!
//! This is the layer `dead_item` stands on. It is deliberately not a
//! full parser — it recognizes exactly the item shapes the workspace
//! uses: each item's kind, name, line, and whether it sits inside a
//! `#[cfg(test)]` module. Nested named functions are their own items,
//! and items appear in source order.

use crate::lints::test_regions;
use crate::scan::{Scan, Spanned, Tok};
use crate::workspace::{Role, SourceFile, Workspace};

/// What kind of item a definition is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, method, or trait declaration).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// Inline `mod name { .. }` or declaration `mod name;`.
    Mod,
    /// `macro_rules!` definition.
    Macro,
    /// `const` or `static`.
    Const,
    /// `type` alias.
    TypeAlias,
}

impl ItemKind {
    /// Stable lowercase label for messages and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Trait => "trait",
            ItemKind::Mod => "mod",
            ItemKind::Macro => "macro",
            ItemKind::Const => "const",
            ItemKind::TypeAlias => "type",
        }
    }
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Bare name (`push`, not `SlabQueues::push`).
    pub name: String,
    /// 1-based line of the defining keyword.
    pub line: u32,
    /// Sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// A file's scan plus its parsed items.
#[derive(Debug, Clone)]
pub struct FileItems {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Lint-scoping role.
    pub role: Role,
    /// The file's token stream.
    pub scan: Scan,
    /// Items in source order.
    pub items: Vec<Item>,
    /// `#[cfg(test)]` line ranges (for site-level checks).
    pub test_regions: Vec<(u32, u32)>,
}

impl FileItems {
    /// Parses one source file.
    pub fn parse(f: &SourceFile) -> FileItems {
        let scan = crate::scan::scan(&f.text);
        let tests = test_regions(&scan.tokens);
        let items = parse_items(&scan.tokens, &tests);
        FileItems {
            rel_path: f.rel_path.clone(),
            role: f.role.clone(),
            scan,
            items,
            test_regions: tests,
        }
    }
}

/// Parses every `.rs` file of a workspace into items, in path order.
pub fn parse_workspace(ws: &Workspace) -> Vec<FileItems> {
    ws.files
        .iter()
        .filter(|f| f.rel_path.ends_with(".rs"))
        .map(FileItems::parse)
        .collect()
}

fn parse_items(tokens: &[Spanned], tests: &[(u32, u32)]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let Tok::Ident(id) = &tokens[i].tok else {
            i += 1;
            continue;
        };
        let item = |kind, name| Item {
            kind,
            name,
            line: tokens[i].line,
            in_test: crate::lints::in_regions(tests, tokens[i].line),
        };
        match id.as_str() {
            "impl" => {
                // Skip the header (`impl<const N: usize> Trait for Type`):
                // generic `const` parameters there are not items.
                while i < tokens.len() && !matches!(tokens[i].tok, Tok::Punct('{' | ';')) {
                    i += 1;
                }
                continue;
            }
            "fn" | "struct" | "enum" | "trait" | "mod" | "type" | "static" => {
                // `const` doubles as `const fn` / `const N:` — handled
                // below; these are unambiguous once followed by an
                // identifier (`fn(u8)` pointer types are not).
                if let Some(name) = next_ident(tokens, i) {
                    let kind = match id.as_str() {
                        "fn" => ItemKind::Fn,
                        "struct" => ItemKind::Struct,
                        "enum" => ItemKind::Enum,
                        "trait" => ItemKind::Trait,
                        "mod" => ItemKind::Mod,
                        "type" => ItemKind::TypeAlias,
                        _ => ItemKind::Const,
                    };
                    items.push(item(kind, name));
                }
            }
            "const" => {
                // `const fn` is handled by the `fn` arm on the next
                // token; `const NAME: T` is an item.
                match next_ident(tokens, i) {
                    Some(n) if n != "fn" => items.push(item(ItemKind::Const, n)),
                    _ => {}
                }
            }
            "macro_rules" => {
                if let Some(name) = ident_at(tokens, i + 2) {
                    if tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('!')) {
                        items.push(item(ItemKind::Macro, name));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    items
}

/// The identifier immediately after index `i`, if any.
fn next_ident(tokens: &[Spanned], i: usize) -> Option<String> {
    ident_at(tokens, i + 1)
}

fn ident_at(tokens: &[Spanned], i: usize) -> Option<String> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => Some(n.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn parse(src: &str) -> FileItems {
        FileItems::parse(&SourceFile::new("crates/core/src/x.rs", src))
    }

    fn find<'a>(fi: &'a FileItems, name: &str) -> &'a Item {
        fi.items
            .iter()
            .find(|it| it.name == name)
            .unwrap_or_else(|| panic!("item {name} not found in {:?}", fi.items))
    }

    fn names(fi: &FileItems) -> Vec<&str> {
        fi.items.iter().map(|it| it.name.as_str()).collect()
    }

    #[test]
    fn free_fns_and_types_in_source_order() {
        let fi = parse("pub fn a() { b(); }\nfn b() {}\npub struct S { x: u8 }\nenum E { V }\n");
        assert_eq!(names(&fi), vec!["a", "b", "S", "E"]);
        assert_eq!(find(&fi, "a").kind, ItemKind::Fn);
        assert_eq!(find(&fi, "b").line, 2);
        assert_eq!(find(&fi, "S").kind, ItemKind::Struct);
        assert_eq!(find(&fi, "E").kind, ItemKind::Enum);
    }

    #[test]
    fn impl_methods_are_items_and_impl_headers_are_not() {
        let src = "struct S;\nimpl<const N: usize> Clone for S {\n fn clone(&self) -> S { S }\n}\n\
                   fn g() -> impl Fn(u8) { |_| () }\n";
        let fi = parse(src);
        assert_eq!(
            names(&fi),
            vec!["S", "clone", "g"],
            "`const N` is a generic, not an item"
        );
    }

    #[test]
    fn trait_decls_nested_fns_and_fn_pointers() {
        let src = "trait T {\n fn decl(&self) -> u8;\n fn dflt(&self) { fn nested() {} }\n}\n\
                   type F = fn(u8) -> u8;\n";
        let fi = parse(src);
        assert_eq!(names(&fi), vec!["T", "decl", "dflt", "nested", "F"]);
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n}\n";
        let fi = parse(src);
        assert!(!find(&fi, "prod").in_test);
        assert!(find(&fi, "helper").in_test);
        assert_eq!(find(&fi, "tests").kind, ItemKind::Mod);
    }

    #[test]
    fn consts_macros_and_type_aliases() {
        let src = "pub const N: usize = 4;\nconst fn cf() -> u8 { 0 }\n\
                   macro_rules! mk { () => {}; }\ntype Alias = u8;\nstatic G: u8 = 0;\n";
        let fi = parse(src);
        assert_eq!(find(&fi, "N").kind, ItemKind::Const);
        assert_eq!(find(&fi, "cf").kind, ItemKind::Fn, "const fn is a fn");
        assert_eq!(find(&fi, "mk").kind, ItemKind::Macro);
        assert_eq!(find(&fi, "Alias").kind, ItemKind::TypeAlias);
        assert_eq!(find(&fi, "G").kind, ItemKind::Const);
    }
}
