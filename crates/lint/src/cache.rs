//! File-hash keyed cache of per-file analysis results.
//!
//! Per-file work (lexing, the token lints, symbol extraction) dominates
//! a lint run; the interprocedural phase consumes only [`FileSummary`]
//! values and is cheap. So the cache stores, per source file keyed by
//! an FNV-1a hash of its *content*, the per-file diagnostics plus the
//! file's symbol summary. On a warm run with no edits every file is a
//! hit and the analyzer never re-lexes anything; the reachability phase
//! is recomputed from summaries every run (it is a whole-workspace
//! fixpoint — caching it per-file would be incorrect).
//!
//! The cache lives at `target/flexran-lint.cache`, a line-oriented text
//! format with an explicit version header. Bump [`CACHE_VERSION`]
//! whenever the lint catalog, the lexer, or the summary shape changes —
//! any mismatch (or any parse hiccup) discards the whole cache, which
//! is always safe: the cache is a pure accelerator, never a source of
//! truth.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lints::{Diagnostic, LintId};
use crate::symbols::{Call, FileSummary, FnSym, Site};

/// Bump on any change to the lexer, the lint catalog, the summary
/// shape, or this file format.
pub const CACHE_VERSION: u32 = 2;

/// Workspace-relative location of the cache file.
pub fn cache_path(root: &Path) -> PathBuf {
    root.join("target").join("flexran-lint.cache")
}

/// FNV-1a over the file content (and the crate name, which selects the
/// active lint set for the file).
pub fn content_hash(krate: &str, src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in krate
        .as_bytes()
        .iter()
        .chain([0u8].iter())
        .chain(src.as_bytes())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One cached per-file result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub hash: u64,
    pub diags: Vec<Diagnostic>,
    pub summary: FileSummary,
}

/// The cache: workspace-relative path → entry.
#[derive(Debug, Default)]
pub struct Cache {
    pub entries: BTreeMap<String, Entry>,
}

impl Cache {
    /// Load from disk; any problem yields an empty cache.
    pub fn load(root: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(cache_path(root)) else {
            return Cache::default();
        };
        parse(&text).unwrap_or_default()
    }

    /// Look up a file by path + content hash.
    pub fn get(&self, file: &str, hash: u64) -> Option<&Entry> {
        self.entries.get(file).filter(|e| e.hash == hash)
    }

    pub fn put(&mut self, file: &str, entry: Entry) {
        self.entries.insert(file.to_string(), entry);
    }

    /// Persist. Failure is non-fatal (e.g. no `target/` yet): the next
    /// run just misses.
    pub fn store(&self, root: &Path) {
        let path = cache_path(root);
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        let _ = fs::write(&path, self.serialize());
    }

    pub fn serialize(&self) -> String {
        let mut out = format!("flexran-lint-cache v{CACHE_VERSION}\n");
        for (file, e) in &self.entries {
            out.push_str(&format!(
                "file {:016x} {} {}\n",
                e.hash, e.summary.krate, file
            ));
            for d in &e.diags {
                out.push_str(&format!(
                    "D {} {} {}\n",
                    d.lint.id(),
                    d.line,
                    esc(&d.message)
                ));
            }
            for f in &e.summary.fns {
                let flags = (f.is_test as u8) | (f.no_alloc_root as u8) << 1;
                out.push_str(&format!(
                    "F {} {} {} {} {}\n",
                    f.line,
                    flags,
                    f.name,
                    f.impl_type.as_deref().unwrap_or("-"),
                    f.trait_name.as_deref().unwrap_or("-"),
                ));
                for c in &f.calls {
                    let cflags = (c.method as u8)
                        | (c.assume_alloc_free as u8) << 1
                        | (c.allow_alloc_reach as u8) << 2;
                    out.push_str(&format!(
                        "C {} {} {} {}\n",
                        c.line,
                        cflags,
                        c.name,
                        c.qualifier.as_deref().unwrap_or("-"),
                    ));
                }
                for a in &f.allocs {
                    out.push_str(&format!("A {} {}\n", a.line, esc(&a.what)));
                }
                for p in &f.panics {
                    out.push_str(&format!("P {} {}\n", p.line, esc(&p.what)));
                }
            }
        }
        out
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn opt(s: &str) -> Option<String> {
    (s != "-").then(|| s.to_string())
}

fn parse(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    if lines.next()? != format!("flexran-lint-cache v{CACHE_VERSION}") {
        return None;
    }
    let mut cache = Cache::default();
    let mut cur: Option<(String, Entry)> = None;
    let flush = |cur: &mut Option<(String, Entry)>, cache: &mut Cache| {
        if let Some((file, e)) = cur.take() {
            cache.entries.insert(file, e);
        }
    };
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "file" => {
                flush(&mut cur, &mut cache);
                let mut it = rest.splitn(3, ' ');
                let hash = u64::from_str_radix(it.next()?, 16).ok()?;
                let krate = it.next()?.to_string();
                let file = it.next()?.to_string();
                cur = Some((
                    file.clone(),
                    Entry {
                        hash,
                        diags: Vec::new(),
                        summary: FileSummary {
                            krate,
                            file,
                            fns: Vec::new(),
                        },
                    },
                ));
            }
            "D" => {
                let (_, e) = cur.as_mut()?;
                let mut it = rest.splitn(3, ' ');
                let lint = LintId::from_id(it.next()?)?;
                let line_no: u32 = it.next()?.parse().ok()?;
                e.diags.push(Diagnostic {
                    lint,
                    file: e.summary.file.clone(),
                    line: line_no,
                    message: unesc(it.next()?),
                });
            }
            "F" => {
                let (_, e) = cur.as_mut()?;
                let mut it = rest.splitn(5, ' ');
                let line_no: u32 = it.next()?.parse().ok()?;
                let flags: u8 = it.next()?.parse().ok()?;
                let name = it.next()?.to_string();
                let impl_type = opt(it.next()?);
                let trait_name = opt(it.next()?);
                e.summary.fns.push(FnSym {
                    name,
                    impl_type,
                    trait_name,
                    line: line_no,
                    is_test: flags & 1 != 0,
                    no_alloc_root: flags & 2 != 0,
                    calls: Vec::new(),
                    allocs: Vec::new(),
                    panics: Vec::new(),
                });
            }
            "C" => {
                let (_, e) = cur.as_mut()?;
                let f = e.summary.fns.last_mut()?;
                let mut it = rest.splitn(4, ' ');
                let line_no: u32 = it.next()?.parse().ok()?;
                let flags: u8 = it.next()?.parse().ok()?;
                f.calls.push(Call {
                    name: it.next()?.to_string(),
                    line: line_no,
                    method: flags & 1 != 0,
                    qualifier: opt(it.next()?),
                    assume_alloc_free: flags & 2 != 0,
                    allow_alloc_reach: flags & 4 != 0,
                });
            }
            "A" | "P" => {
                let (_, e) = cur.as_mut()?;
                let f = e.summary.fns.last_mut()?;
                let (line_s, what) = rest.split_once(' ')?;
                let site = Site {
                    what: unesc(what),
                    line: line_s.parse().ok()?,
                };
                if tag == "A" {
                    f.allocs.push(site);
                } else {
                    f.panics.push(site);
                }
            }
            _ => return None,
        }
    }
    flush(&mut cur, &mut cache);
    Some(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::summarize;

    #[test]
    fn roundtrips_diags_and_summaries() {
        let src = "fn encode_into(out: &mut [u8]) {
            helper(); // lint:alloc-free-callee audited
            let s = x.to_vec();
            x.unwrap();
        }
        // lint:no-alloc
        fn barrier() { WireWriter::seal(w); }";
        let summary = summarize("proto", "crates/proto/src/x.rs", src);
        let diags = vec![Diagnostic {
            lint: LintId::P1,
            file: "crates/proto/src/x.rs".into(),
            line: 4,
            message: "`.unwrap()` on a runtime path; use\nnewline and \\ backslash".into(),
        }];
        let mut cache = Cache::default();
        cache.put(
            "crates/proto/src/x.rs",
            Entry {
                hash: content_hash("proto", src),
                diags: diags.clone(),
                summary: summary.clone(),
            },
        );
        let reparsed = parse(&cache.serialize()).expect("parses");
        let e = reparsed
            .get("crates/proto/src/x.rs", content_hash("proto", src))
            .expect("hit");
        assert_eq!(e.diags, diags);
        assert_eq!(e.summary, summary);
    }

    #[test]
    fn version_or_content_mismatch_misses() {
        let mut cache = Cache::default();
        cache.put(
            "crates/proto/src/x.rs",
            Entry {
                hash: content_hash("proto", "fn f() {}"),
                diags: Vec::new(),
                summary: summarize("proto", "crates/proto/src/x.rs", "fn f() {}"),
            },
        );
        assert!(cache
            .get("crates/proto/src/x.rs", content_hash("proto", "fn f() { }"))
            .is_none());
        let stale = cache.serialize().replace(
            &format!("cache v{CACHE_VERSION}"),
            &format!("cache v{}", CACHE_VERSION + 1),
        );
        assert!(parse(&stale).is_none());
    }

    #[test]
    fn garbage_is_rejected_not_trusted() {
        assert!(parse("not a cache").is_none());
        assert!(parse(&format!(
            "flexran-lint-cache v{CACHE_VERSION}\nbogus line here"
        ))
        .is_none());
    }
}
