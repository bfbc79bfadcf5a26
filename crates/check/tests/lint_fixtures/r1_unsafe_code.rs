//! Fixture: trips R1 `unsafe-code` when presented as a file under any
//! `crates/*/src/`.  The doc-comment and string occurrences of the keyword
//! below must NOT trip it — only the real code site does.

/// This doc comment says unsafe and must be masked out.
pub fn sneaky(p: *const u8) -> u8 {
    let s = "unsafe in a string literal is not code";
    let _ = s;
    unsafe { *p }
}
