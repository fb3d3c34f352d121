//! Molecular graphs and the descriptors the docking and DTBA models consume.
//!
//! Descriptors are deliberately simple, well-known estimators (Lipinski-style
//! donor/acceptor counts, a Crippen-flavoured logP, a rotatable-bond count);
//! the paper's pipeline uses them only as UDF inputs, so fidelity to the
//! published estimators' *shape* (not their exact coefficients) is what
//! matters.

use crate::element::Element;

/// Bond order in a molecular graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BondOrder {
    Single,
    Double,
    Triple,
    Aromatic,
}

impl BondOrder {
    /// Conventional numeric order (aromatic counts 1.5).
    pub fn numeric(self) -> f64 {
        match self {
            BondOrder::Single => 1.0,
            BondOrder::Double => 2.0,
            BondOrder::Triple => 3.0,
            BondOrder::Aromatic => 1.5,
        }
    }
}

/// An atom in a molecular graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    pub element: Element,
    /// Part of an aromatic system (written lowercase in SMILES).
    pub aromatic: bool,
    /// Formal charge.
    pub charge: i8,
    /// Isotope label (0 = unspecified).
    pub isotope: u16,
    /// Explicit hydrogen count from a bracket atom (0 = implicit).
    pub explicit_h: u8,
}

impl Atom {
    /// A neutral, non-aromatic atom of `element`.
    pub fn new(element: Element) -> Self {
        Self { element, aromatic: false, charge: 0, isotope: 0, explicit_h: 0 }
    }
}

/// An undirected bond between atoms `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bond {
    pub a: usize,
    pub b: usize,
    pub order: BondOrder,
}

/// A small-molecule graph: atoms plus undirected bonds with adjacency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Molecule {
    atoms: Vec<Atom>,
    bonds: Vec<Bond>,
    adjacency: Vec<Vec<(usize, usize)>>, // atom -> [(neighbor, bond idx)]
}

impl Molecule {
    /// An empty molecule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an atom; returns its index.
    pub fn add_atom(&mut self, atom: Atom) -> usize {
        self.atoms.push(atom);
        self.adjacency.push(Vec::new());
        self.atoms.len() - 1
    }

    /// Add a bond between existing atoms.
    ///
    /// # Panics
    /// Panics if either index is out of range, `a == b`, or the bond
    /// already exists.
    pub fn add_bond(&mut self, a: usize, b: usize, order: BondOrder) -> usize {
        assert!(a < self.atoms.len() && b < self.atoms.len(), "bond endpoint out of range");
        assert_ne!(a, b, "self-bonds are not allowed");
        assert!(!self.adjacency[a].iter().any(|&(n, _)| n == b), "duplicate bond {a}-{b}");
        let idx = self.bonds.len();
        self.bonds.push(Bond { a, b, order });
        self.adjacency[a].push((b, idx));
        self.adjacency[b].push((a, idx));
        idx
    }

    /// Number of atoms (heavy atoms; implicit hydrogens are not stored).
    #[inline]
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of bonds.
    #[inline]
    pub fn bond_count(&self) -> usize {
        self.bonds.len()
    }

    /// Atom accessor.
    #[inline]
    pub fn atom(&self, i: usize) -> &Atom {
        &self.atoms[i]
    }

    /// All atoms.
    #[inline]
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// All bonds.
    #[inline]
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// Degree (number of explicit neighbors) of atom `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// Iterate `(neighbor, bond order)` for atom `i`.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = (usize, BondOrder)> + '_ {
        self.adjacency[i].iter().map(move |&(n, b)| (n, self.bonds[b].order))
    }

    /// Iterate `(neighbor, bond index)` for atom `i`.
    pub fn neighbors_with_bonds(&self, i: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency[i].iter().copied()
    }

    /// Number of independent rings (cyclomatic number `E - V + components`).
    pub fn ring_count(&self) -> usize {
        let comps = self.component_count();
        self.bonds.len() + comps - self.atoms.len()
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        let n = self.atoms.len();
        let mut seen = vec![false; n];
        let mut comps = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            comps += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(a) = stack.pop() {
                for &(nb, _) in &self.adjacency[a] {
                    if !seen[nb] {
                        seen[nb] = true;
                        stack.push(nb);
                    }
                }
            }
        }
        comps
    }

    /// Implicit hydrogen count for atom `i` under default valences.
    pub fn implicit_h(&self, i: usize) -> u8 {
        let atom = &self.atoms[i];
        if atom.explicit_h > 0 {
            return atom.explicit_h;
        }
        let used: f64 = self.neighbors(i).map(|(_, o)| o.numeric()).sum();
        let used = if atom.aromatic { used.ceil() } else { used };
        let cap = atom.element.default_valence() as f64 + atom.charge.max(0) as f64;
        (cap - used).max(0.0) as u8
    }

    /// Molecular weight in g/mol, counting implicit hydrogens.
    pub fn molecular_weight(&self) -> f64 {
        let heavy: f64 = self.atoms.iter().map(|a| a.element.atomic_weight()).sum();
        let hydrogens: f64 = (0..self.atoms.len())
            .map(|i| self.implicit_h(i) as f64 * Element::H.atomic_weight())
            .sum();
        heavy + hydrogens
    }

    /// Lipinski hydrogen-bond donor count: N–H and O–H groups.
    pub fn hbond_donors(&self) -> usize {
        (0..self.atoms.len())
            .filter(|&i| self.atoms[i].element.is_hbond_acceptor() && self.implicit_h(i) > 0)
            .count()
    }

    /// Lipinski hydrogen-bond acceptor count: N and O atoms.
    pub fn hbond_acceptors(&self) -> usize {
        self.atoms.iter().filter(|a| a.element.is_hbond_acceptor()).count()
    }

    /// Rotatable-bond count: single, non-ring bonds between two heavy atoms
    /// each having at least one other heavy neighbor. Drives the docking
    /// simulator's conformational-search cost (more rotors = more poses).
    pub fn rotatable_bonds(&self) -> usize {
        let ring_bonds = self.ring_bond_flags();
        self.bonds
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                b.order == BondOrder::Single
                    && !ring_bonds[*i]
                    && self.degree(b.a) > 1
                    && self.degree(b.b) > 1
            })
            .count()
    }

    /// Crippen-flavoured logP estimate: a per-atom additive contribution
    /// model. Positive = lipophilic.
    pub fn logp_estimate(&self) -> f64 {
        let mut logp = 0.0;
        for (i, atom) in self.atoms.iter().enumerate() {
            logp += match atom.element {
                Element::C => {
                    if atom.aromatic {
                        0.29
                    } else {
                        0.14
                    }
                }
                Element::N => -0.60,
                Element::O => -0.64,
                Element::S => 0.25,
                Element::P => -0.45,
                Element::F => 0.22,
                Element::Cl => 0.65,
                Element::Br => 0.86,
                Element::I => 1.10,
                Element::B => 0.05,
                Element::H => 0.0,
            };
            logp += self.implicit_h(i) as f64 * 0.12;
            logp += -(atom.charge.unsigned_abs() as f64);
        }
        logp
    }

    fn ring_bond_flags(&self) -> Vec<bool> {
        // A bond is a ring bond iff removing it leaves its endpoints
        // connected. With drug-sized molecules (< 100 atoms) an O(B·(V+E))
        // check is plenty fast and dead simple.
        let mut flags = vec![false; self.bonds.len()];
        for (bi, bond) in self.bonds.iter().enumerate() {
            flags[bi] = self.connected_excluding(bond.a, bond.b, bi);
        }
        flags
    }

    fn connected_excluding(&self, from: usize, to: usize, skip_bond: usize) -> bool {
        let mut seen = vec![false; self.atoms.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(a) = stack.pop() {
            if a == to {
                return true;
            }
            for &(nb, bidx) in &self.adjacency[a] {
                if bidx != skip_bond && !seen[nb] {
                    seen[nb] = true;
                    stack.push(nb);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smiles::parse_smiles;

    #[test]
    fn build_manually() {
        let mut m = Molecule::new();
        let c = m.add_atom(Atom::new(Element::C));
        let o = m.add_atom(Atom::new(Element::O));
        m.add_bond(c, o, BondOrder::Single);
        assert_eq!(m.atom_count(), 2);
        assert_eq!(m.degree(c), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate bond")]
    fn duplicate_bond_rejected() {
        let mut m = Molecule::new();
        let a = m.add_atom(Atom::new(Element::C));
        let b = m.add_atom(Atom::new(Element::C));
        m.add_bond(a, b, BondOrder::Single);
        m.add_bond(b, a, BondOrder::Single);
    }

    #[test]
    fn methane_has_four_implicit_h() {
        let m = parse_smiles("C").unwrap();
        assert_eq!(m.implicit_h(0), 4);
        assert!((m.molecular_weight() - 16.043).abs() < 0.01);
    }

    #[test]
    fn ethanol_descriptors() {
        let m = parse_smiles("CCO").unwrap();
        assert!((m.molecular_weight() - 46.07).abs() < 0.05);
        assert_eq!(m.hbond_donors(), 1);
        assert_eq!(m.hbond_acceptors(), 1);
        // Both bonds are terminal under the heavy-atom rotor definition.
        assert_eq!(m.rotatable_bonds(), 0);
    }

    #[test]
    fn butane_has_one_rotor() {
        let m = parse_smiles("CCCC").unwrap();
        assert_eq!(m.rotatable_bonds(), 1);
        let hexane = parse_smiles("CCCCCC").unwrap();
        assert_eq!(hexane.rotatable_bonds(), 3);
    }

    #[test]
    fn benzene_is_one_ring_no_rotors() {
        let m = parse_smiles("c1ccccc1").unwrap();
        assert_eq!(m.ring_count(), 1);
        assert_eq!(m.rotatable_bonds(), 0);
        assert_eq!(m.atoms().iter().filter(|a| a.aromatic).count(), 6);
        // Aromatic CH: one implicit H per carbon.
        assert!((m.molecular_weight() - 78.11).abs() < 0.2);
    }

    #[test]
    fn aspirin_descriptors() {
        let m = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").unwrap();
        assert!((m.molecular_weight() - 180.16).abs() < 0.5);
        assert_eq!(m.hbond_donors(), 1);
        assert_eq!(m.hbond_acceptors(), 4);
        assert!(m.rotatable_bonds() >= 2);
    }

    #[test]
    fn biphenyl_rotor_connects_rings() {
        let m = parse_smiles("c1ccccc1-c1ccccc1").unwrap();
        assert_eq!(m.ring_count(), 2);
        assert_eq!(m.rotatable_bonds(), 1);
    }

    #[test]
    fn charged_atoms_lower_logp() {
        let neutral = parse_smiles("CC(=O)O").unwrap();
        let anion = parse_smiles("CC(=O)[O-]").unwrap();
        assert!(anion.logp_estimate() < neutral.logp_estimate());
    }

    #[test]
    fn ring_count_distinguishes_fused_rings() {
        let naphthalene = parse_smiles("c1ccc2ccccc2c1").unwrap();
        assert_eq!(naphthalene.ring_count(), 2);
    }
}
