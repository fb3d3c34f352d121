//! Chemical elements appearing in drug-like molecules and proteins.

/// Elements supported by the SMILES parser and the docking scorer — the
/// organic subset plus common halogens and phosphorus/sulfur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    H,
    B,
    C,
    N,
    O,
    F,
    P,
    S,
    Cl,
    Br,
    I,
}

impl Element {
    /// Standard atomic weight (g/mol), sufficient precision for descriptor
    /// calculations.
    pub fn atomic_weight(self) -> f64 {
        match self {
            Element::H => 1.008,
            Element::B => 10.811,
            Element::C => 12.011,
            Element::N => 14.007,
            Element::O => 15.999,
            Element::F => 18.998,
            Element::P => 30.974,
            Element::S => 32.06,
            Element::Cl => 35.45,
            Element::Br => 79.904,
            Element::I => 126.904,
        }
    }

    /// Van der Waals radius (Å), used by the docking scoring function's
    /// steric terms.
    pub fn vdw_radius(self) -> f64 {
        match self {
            Element::H => 1.20,
            Element::B => 1.92,
            Element::C => 1.70,
            Element::N => 1.55,
            Element::O => 1.52,
            Element::F => 1.47,
            Element::P => 1.80,
            Element::S => 1.80,
            Element::Cl => 1.75,
            Element::Br => 1.85,
            Element::I => 1.98,
        }
    }

    /// Typical valence in neutral organic molecules.
    pub fn default_valence(self) -> u8 {
        match self {
            Element::H | Element::F | Element::Cl | Element::Br | Element::I => 1,
            Element::O | Element::S => 2,
            Element::B | Element::N | Element::P => 3,
            Element::C => 4,
        }
    }

    /// Whether this element can act as a hydrogen-bond acceptor
    /// (simplified Lipinski-style rule: N or O).
    pub fn is_hbond_acceptor(self) -> bool {
        matches!(self, Element::N | Element::O)
    }

    /// Element symbol as written in SMILES and PDB records.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::B => "B",
            Element::C => "C",
            Element::N => "N",
            Element::O => "O",
            Element::F => "F",
            Element::P => "P",
            Element::S => "S",
            Element::Cl => "Cl",
            Element::Br => "Br",
            Element::I => "I",
        }
    }

    /// Parse an element symbol (case-sensitive, as in SMILES bracket atoms).
    pub fn from_symbol(s: &str) -> Option<Element> {
        Some(match s {
            "H" => Element::H,
            "B" => Element::B,
            "C" => Element::C,
            "N" => Element::N,
            "O" => Element::O,
            "F" => Element::F,
            "P" => Element::P,
            "S" => Element::S,
            "Cl" => Element::Cl,
            "Br" => Element::Br,
            "I" => Element::I,
            _ => return None,
        })
    }

    /// Whether the element participates in SMILES aromatic notation
    /// (lowercase symbols).
    pub fn can_be_aromatic(self) -> bool {
        matches!(self, Element::B | Element::C | Element::N | Element::O | Element::P | Element::S)
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_round_trip() {
        for e in [
            Element::H,
            Element::B,
            Element::C,
            Element::N,
            Element::O,
            Element::F,
            Element::P,
            Element::S,
            Element::Cl,
            Element::Br,
            Element::I,
        ] {
            assert_eq!(Element::from_symbol(e.symbol()), Some(e));
        }
        assert_eq!(Element::from_symbol("Xx"), None);
        assert_eq!(Element::from_symbol("c"), None, "lowercase handled by the SMILES layer");
    }

    #[test]
    fn weights_are_ordered_sanely() {
        assert!(Element::H.atomic_weight() < Element::C.atomic_weight());
        assert!(Element::C.atomic_weight() < Element::I.atomic_weight());
    }

    #[test]
    fn acceptors_are_n_and_o() {
        assert!(Element::N.is_hbond_acceptor());
        assert!(Element::O.is_hbond_acceptor());
        assert!(!Element::C.is_hbond_acceptor());
        assert!(!Element::S.is_hbond_acceptor());
    }

    #[test]
    fn carbon_valence_is_four() {
        assert_eq!(Element::C.default_valence(), 4);
        assert_eq!(Element::O.default_valence(), 2);
    }
}
