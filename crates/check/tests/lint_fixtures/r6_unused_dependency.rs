//! Fixture: R6 `unused-dependency`, the crate code next to the manifest.
//! A comment naming `wsm_doc_only` does not count as a use.

use wsm_used::Thing;

pub fn thing() -> Thing {
    Thing::default()
}
