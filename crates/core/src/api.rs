//! The Splice bus-library extension API (chapter 7).
//!
//! The thesis extends the tool through dynamic libraries named
//! `lib<x>_interface.so`, each exporting three routines: a **parameter
//! checker**, a **marker loader** and a **bus interface generator**
//! (§7.1.2). This trait is the Rust mirror of that contract; the registry
//! reproduces the name-based discovery of §7.2 (`%bus_type x` →
//! `lib<x>_interface.so`).
//!
//! `splice-buses` implements one library per supported interconnect; the
//! hooks take the validated [`ModuleSpec`] and the elaborated
//! [`DesignIr`].

use crate::ir::DesignIr;
use crate::template::MarkerSet;
use splice_spec::bus::BusCaps;
use splice_spec::validate::ModuleSpec;
use std::collections::BTreeMap;

/// One native bus library (the `lib<x>_interface.so` equivalent).
pub trait BusLibrary {
    /// The `%bus_type` name this library serves.
    fn name(&self) -> &str;

    /// Capability description registered into the validation registry.
    fn caps(&self) -> BusCaps;

    /// The **parameter checking routine** (§7.1.2): reject configurations
    /// the physical bus cannot provide. Validation has already applied the
    /// generic rules; this hook is for bus-specific constraints.
    fn check_params(&self, module: &ModuleSpec) -> Result<(), String>;

    /// The **marker loader routine** (§7.1.2): bus-specific `%MARKER%`
    /// replacements layered over the standard Fig 7.1 set.
    fn markers(&self, ir: &DesignIr) -> MarkerSet;

    /// The annotated HDL template for the native interface adapter
    /// (the reference file the **bus interface generator** parses, §5.1).
    fn interface_template(&self, ir: &DesignIr) -> String;
}

/// The library registry: `%bus_type` name → library.
#[derive(Default)]
pub struct BusLibraryRegistry {
    libs: BTreeMap<String, Box<dyn BusLibrary>>,
}

impl BusLibraryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a library under its own name (replacing any previous one,
    /// as dropping a new `.so` into the search path would).
    pub fn register(&mut self, lib: Box<dyn BusLibrary>) {
        self.libs.insert(lib.name().to_ascii_lowercase(), lib);
    }

    /// Look up by `%bus_type` name.
    pub fn get(&self, name: &str) -> Option<&dyn BusLibrary> {
        self.libs.get(&name.to_ascii_lowercase()).map(Box::as_ref)
    }

    /// The `lib<x>_interface.so` file name a library would ship as (§7.2).
    pub fn library_file_name(bus: &str) -> String {
        format!("lib{}_interface.so", bus.to_ascii_lowercase())
    }

    /// Registered bus names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.libs.keys().map(String::as_str)
    }

    /// Export a `splice_spec` bus registry for validation, containing
    /// exactly the buses registered here.
    pub fn spec_registry(&self) -> splice_spec::bus::BusRegistry {
        let mut r = splice_spec::bus::BusRegistry::empty();
        for (name, lib) in &self.libs {
            r.register(name, lib.caps());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_spec::bus::BusKind;

    struct ToyLib;
    impl BusLibrary for ToyLib {
        fn name(&self) -> &str {
            "toybus"
        }
        fn caps(&self) -> BusCaps {
            BusCaps::builtin(BusKind::Wishbone)
        }
        fn check_params(&self, module: &ModuleSpec) -> Result<(), String> {
            if module.params.bus_width == 8 {
                Err("toybus rejects 8-bit configurations".into())
            } else {
                Ok(())
            }
        }
        fn markers(&self, _ir: &DesignIr) -> MarkerSet {
            let mut m = MarkerSet::new();
            m.set("TOY", "1");
            m
        }
        fn interface_template(&self, _ir: &DesignIr) -> String {
            "-- %TOY% %COMP_NAME%\n".into()
        }
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = BusLibraryRegistry::new();
        r.register(Box::new(ToyLib));
        assert!(r.get("toybus").is_some());
        assert!(r.get("TOYBUS").is_some());
        assert!(r.get("other").is_none());
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["toybus"]);
    }

    #[test]
    fn library_file_naming_convention() {
        assert_eq!(BusLibraryRegistry::library_file_name("PLB"), "libplb_interface.so");
    }

    #[test]
    fn spec_registry_exports_caps() {
        let mut r = BusLibraryRegistry::new();
        r.register(Box::new(ToyLib));
        let spec_reg = r.spec_registry();
        assert!(spec_reg.get("toybus").is_some());
        assert!(spec_reg.get("plb").is_none());
    }

    #[test]
    fn parameter_checker_rejects() {
        let lib = ToyLib;
        let src =
            "%device_name d\n%bus_type wishbone\n%bus_width 8\n%base_address 0x80000000\nvoid f();";
        let m = splice_spec::parse_and_validate(src).unwrap().module;
        assert!(lib.check_params(&m).is_err());
    }
}
