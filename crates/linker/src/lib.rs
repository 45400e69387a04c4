//! The standard (non-optimizing) linker: the baseline OM is measured
//! against.
//!
//! Links object modules and archives into an executable image: archive
//! member selection, symbol resolution, common merging, section layout, GAT
//! merging with deduplication (the paper: the linker "treats these GATs as
//! literal pools, removing duplicate addresses and merging the individual
//! GATs into a single large GAT if possible"), GP selection, and relocation.
//!
//! # Example
//!
//! ```
//! use om_codegen::{compile_source, CompileOpts, crt0};
//! use om_linker::{link_modules, LayoutOpts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let main_obj = compile_source("main", "int main() { return 42; }", &CompileOpts::o2())?;
//! let objects = [crt0::module()?, main_obj];
//! let (image, _) = link_modules(&objects, &[], &LayoutOpts::default())?;
//! assert!(image.symbols.contains_key("main"));
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod image;
pub mod layout;
pub mod relocate;
pub mod resolve;

pub use error::LinkError;
pub use image::{Extent, Image, LayoutInfo, Segment};
pub use layout::{
    gat_slots, layout, sym_addr, LayoutOpts, Placed, ProgramLayout, GAT_GROUP_CAPACITY,
};
pub use relocate::build_image;
pub use resolve::{
    build_symbol_table, select_borrowed, select_modules, Common, GlobalRef, SymbolTable,
};

use om_objfile::{Archive, Module};
use std::borrow::Borrow;

/// Link statistics (feeds the build-time and GAT-size comparisons).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    pub modules: usize,
    /// `.lita` entries across all input modules.
    pub gat_entries_input: usize,
    /// Slots in the merged GAT.
    pub gat_slots: usize,
    pub gp_groups: usize,
    pub text_bytes: u64,
    pub data_bytes: u64,
}

/// Links `objects` (+ library members) with the given layout policy.
///
/// Borrows its inputs: the selection is the objects and archive members
/// themselves, so callers that link the same build repeatedly (the
/// evaluation harness, OM at several levels) copy no module per link.
///
/// # Errors
///
/// Returns [`LinkError`] for unresolved or duplicate symbols, malformed
/// modules, or out-of-range relocations.
pub fn link_modules(
    objects: &[Module],
    libs: &[Archive],
    opts: &LayoutOpts,
) -> Result<(Image, LinkStats), LinkError> {
    // Every selected module is validated: objects by `select_borrowed`,
    // archive members when they were added.
    let selected = {
        let _s = om_obs::span("select");
        select_borrowed(objects, libs)?
    };
    let symtab = {
        let _s = om_obs::span("symtab");
        build_symbol_table(&selected)?
    };
    let linked = link_validated(&selected, &symtab, opts)?;
    Ok((linked.image, linked.stats))
}

/// A finished link plus the layout its image was patched against.
#[derive(Debug, Clone)]
pub struct Linked {
    pub image: Image,
    pub stats: LinkStats,
    pub layout: ProgramLayout,
}

/// Links an already-selected module list (no archive search, no copy of
/// the modules) against the caller's symbol table, which must be
/// [`build_symbol_table`]'s for these modules or for modules with the same
/// symbols whose `.lita`s hold every entry of these modules' `.lita`s: OM's
/// emitted modules keep their inputs' symbols, and each emitted `.lita` is
/// a subset of its input's, so the input selection's table is theirs. Every
/// module is validated before it reaches [`build_image`].
///
/// # Errors
///
/// See [`link_modules`].
///
/// # Panics
///
/// Panics on a `.lita` entry the table did not number
/// ([`SymbolTable::gat_entry`]).
pub fn link_selected(
    modules: &[Module],
    symtab: &SymbolTable,
    opts: &LayoutOpts,
) -> Result<Linked, LinkError> {
    for m in modules {
        m.validate()?;
    }
    link_validated(modules, symtab, opts)
}

/// [`link_selected`] over modules that already passed `Module::validate`.
fn link_validated<M: Borrow<Module> + Placed>(
    modules: &[M],
    symtab: &SymbolTable,
    opts: &LayoutOpts,
) -> Result<Linked, LinkError> {
    let lay = {
        let mut s = om_obs::span("link.layout");
        let lay = layout(modules, symtab, opts)?;
        s.arg("gat_slots", lay.gat_slots as u64);
        s.arg("gp_groups", lay.gp_values.len() as u64);
        lay
    };
    let image = {
        let _s = om_obs::span("link.image");
        build_image(modules, symtab, &lay)?
    };
    if om_obs::enabled() {
        om_obs::count("link.gat_slots", lay.gat_slots as u64);
        om_obs::count("link.text_bytes", lay.info.text.size);
        om_obs::count(
            "link.segment_bytes",
            image.segments.iter().map(|s| s.bytes.len()).sum::<usize>() as u64,
        );
    }
    let stats = LinkStats {
        modules: modules.len(),
        gat_entries_input: lay.gat_entries_input,
        gat_slots: lay.gat_slots,
        gp_groups: lay.gp_values.len(),
        text_bytes: lay.info.text.size,
        data_bytes: image.segments[1].bytes.len() as u64,
    };
    Ok(Linked { image, stats, layout: lay })
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_codegen::{compile_source, crt0, CompileOpts};

    fn compile(name: &str, src: &str) -> Module {
        compile_source(name, src, &CompileOpts::o2()).unwrap()
    }

    /// `crt0` and `objects`, linked with the standard layout policy.
    fn link(
        objects: impl IntoIterator<Item = Module>,
        libs: &[Archive],
    ) -> Result<(Image, LinkStats), LinkError> {
        let objects: Vec<Module> = [crt0::module().unwrap()].into_iter().chain(objects).collect();
        link_modules(&objects, libs, &LayoutOpts::default())
    }

    #[test]
    fn links_a_minimal_program() {
        let (image, stats) = link([compile("m", "int main() { return 7; }")], &[]).unwrap();
        assert_eq!(stats.gp_groups, 1);
        assert!(image.entry >= image.layout.text.base);
        assert!(stats.gat_slots >= 1); // main's address for crt0
    }

    #[test]
    fn undefined_symbol_fails() {
        let r = link(
            [compile("m", "extern int nowhere(int); int main() { return nowhere(1); }")],
            &[],
        );
        assert!(matches!(r, Err(LinkError::Undefined { .. })));
    }

    #[test]
    fn archives_satisfy_references() {
        let mut lib = om_objfile::Archive::new("libm");
        lib.add(compile("dblmod", "int dbl(int x) { return x * 2; }")).unwrap();
        lib.add(compile("unused", "int nobody(int x) { return x; }")).unwrap();
        let main = compile("m", "extern int dbl(int); int main() { return dbl(21); }");
        let (image, stats) = link([main], &[lib]).unwrap();
        assert_eq!(stats.modules, 3, "crt0 + main + dbl, not `unused`");
        assert!(image.symbols.contains_key("dbl"));
        assert!(!image.symbols.contains_key("nobody"));
    }

    #[test]
    fn gat_dedup_happens_across_modules() {
        // Both modules call `shared`, so both have a GAT entry for it.
        let a = compile(
            "a",
            "extern int shared(int); extern int other(int);\n\
             int main() { return shared(1) + other(2); }",
        );
        let b = compile(
            "b",
            "extern int shared(int);\n\
             int other(int x) { return shared(x); }\n\
             int shared(int x) { return x; }",
        );
        let (_, stats) = link([a, b], &[]).unwrap();
        assert!(stats.gat_slots < stats.gat_entries_input);
    }

    #[test]
    fn duplicate_definition_fails() {
        let r = link(
            [
                compile("a", "int f(int x) { return x; } int main() { return f(1); }"),
                compile("b", "int f(int x) { return x + 1; }"),
            ],
            &[],
        );
        assert!(matches!(r, Err(LinkError::Duplicate { .. })));
    }

    #[test]
    fn image_has_disjoint_segments() {
        let (image, _) = link([compile("m", "int g = 5; int main() { return g; }")], &[]).unwrap();
        let t = &image.segments[0];
        let d = &image.segments[1];
        assert!(t.end() <= d.base);
    }
}
