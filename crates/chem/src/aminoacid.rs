//! The 20 proteinogenic amino acids with the physicochemical properties the
//! models crate consumes (Smith–Waterman scoring is in `ids-models`; here we
//! keep residue identity, mass, hydropathy, and secondary-structure
//! propensities for the AlphaFold-substitute structure predictor).

/// One of the 20 standard amino acids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[rustfmt::skip]
pub enum AminoAcid {
    Ala, Arg, Asn, Asp, Cys, Gln, Glu, Gly, His, Ile,
    Leu, Lys, Met, Phe, Pro, Ser, Thr, Trp, Tyr, Val,
}

/// All amino acids in the canonical (alphabetical one-letter) order used for
/// matrix indexing: `ARNDCQEGHILKMFPSTWYV`.
pub const ALL: [AminoAcid; 20] = [
    AminoAcid::Ala,
    AminoAcid::Arg,
    AminoAcid::Asn,
    AminoAcid::Asp,
    AminoAcid::Cys,
    AminoAcid::Gln,
    AminoAcid::Glu,
    AminoAcid::Gly,
    AminoAcid::His,
    AminoAcid::Ile,
    AminoAcid::Leu,
    AminoAcid::Lys,
    AminoAcid::Met,
    AminoAcid::Phe,
    AminoAcid::Pro,
    AminoAcid::Ser,
    AminoAcid::Thr,
    AminoAcid::Trp,
    AminoAcid::Tyr,
    AminoAcid::Val,
];

impl AminoAcid {
    /// Index into the BLOSUM-ordered alphabet `ARNDCQEGHILKMFPSTWYV`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AminoAcid::Ala => 0,
            AminoAcid::Arg => 1,
            AminoAcid::Asn => 2,
            AminoAcid::Asp => 3,
            AminoAcid::Cys => 4,
            AminoAcid::Gln => 5,
            AminoAcid::Glu => 6,
            AminoAcid::Gly => 7,
            AminoAcid::His => 8,
            AminoAcid::Ile => 9,
            AminoAcid::Leu => 10,
            AminoAcid::Lys => 11,
            AminoAcid::Met => 12,
            AminoAcid::Phe => 13,
            AminoAcid::Pro => 14,
            AminoAcid::Ser => 15,
            AminoAcid::Thr => 16,
            AminoAcid::Trp => 17,
            AminoAcid::Tyr => 18,
            AminoAcid::Val => 19,
        }
    }

    /// The amino acid at BLOSUM index `i` (inverse of [`Self::index`]).
    #[inline]
    pub fn from_index(i: usize) -> Option<AminoAcid> {
        ALL.get(i).copied()
    }

    /// One-letter code.
    pub fn code(self) -> char {
        b"ARNDCQEGHILKMFPSTWYV"[self.index()] as char
    }

    /// Parse a one-letter code (case-insensitive).
    pub fn from_code(c: char) -> Option<AminoAcid> {
        let u = c.to_ascii_uppercase();
        ALL.iter().copied().find(|a| a.code() == u)
    }

    /// Monoisotopic residue mass (Da), i.e. the amino acid minus water.
    pub fn residue_mass(self) -> f64 {
        match self {
            AminoAcid::Ala => 71.037,
            AminoAcid::Arg => 156.101,
            AminoAcid::Asn => 114.043,
            AminoAcid::Asp => 115.027,
            AminoAcid::Cys => 103.009,
            AminoAcid::Gln => 128.059,
            AminoAcid::Glu => 129.043,
            AminoAcid::Gly => 57.021,
            AminoAcid::His => 137.059,
            AminoAcid::Ile => 113.084,
            AminoAcid::Leu => 113.084,
            AminoAcid::Lys => 128.095,
            AminoAcid::Met => 131.040,
            AminoAcid::Phe => 147.068,
            AminoAcid::Pro => 97.053,
            AminoAcid::Ser => 87.032,
            AminoAcid::Thr => 101.048,
            AminoAcid::Trp => 186.079,
            AminoAcid::Tyr => 163.063,
            AminoAcid::Val => 99.068,
        }
    }

    /// Kyte–Doolittle hydropathy index: positive = hydrophobic.
    pub fn hydropathy(self) -> f64 {
        match self {
            AminoAcid::Ala => 1.8,
            AminoAcid::Arg => -4.5,
            AminoAcid::Asn => -3.5,
            AminoAcid::Asp => -3.5,
            AminoAcid::Cys => 2.5,
            AminoAcid::Gln => -3.5,
            AminoAcid::Glu => -3.5,
            AminoAcid::Gly => -0.4,
            AminoAcid::His => -3.2,
            AminoAcid::Ile => 4.5,
            AminoAcid::Leu => 3.8,
            AminoAcid::Lys => -3.9,
            AminoAcid::Met => 1.9,
            AminoAcid::Phe => 2.8,
            AminoAcid::Pro => -1.6,
            AminoAcid::Ser => -0.8,
            AminoAcid::Thr => -0.7,
            AminoAcid::Trp => -0.9,
            AminoAcid::Tyr => -1.3,
            AminoAcid::Val => 4.2,
        }
    }

    /// Chou–Fasman α-helix propensity (P_alpha / 100): > 1 favors helix.
    pub fn helix_propensity(self) -> f64 {
        match self {
            AminoAcid::Ala => 1.42,
            AminoAcid::Arg => 0.98,
            AminoAcid::Asn => 0.67,
            AminoAcid::Asp => 1.01,
            AminoAcid::Cys => 0.70,
            AminoAcid::Gln => 1.11,
            AminoAcid::Glu => 1.51,
            AminoAcid::Gly => 0.57,
            AminoAcid::His => 1.00,
            AminoAcid::Ile => 1.08,
            AminoAcid::Leu => 1.21,
            AminoAcid::Lys => 1.16,
            AminoAcid::Met => 1.45,
            AminoAcid::Phe => 1.13,
            AminoAcid::Pro => 0.57,
            AminoAcid::Ser => 0.77,
            AminoAcid::Thr => 0.83,
            AminoAcid::Trp => 1.08,
            AminoAcid::Tyr => 0.69,
            AminoAcid::Val => 1.06,
        }
    }

    /// Chou–Fasman β-sheet propensity (P_beta / 100): > 1 favors sheet.
    pub fn sheet_propensity(self) -> f64 {
        match self {
            AminoAcid::Ala => 0.83,
            AminoAcid::Arg => 0.93,
            AminoAcid::Asn => 0.89,
            AminoAcid::Asp => 0.54,
            AminoAcid::Cys => 1.19,
            AminoAcid::Gln => 1.10,
            AminoAcid::Glu => 0.37,
            AminoAcid::Gly => 0.75,
            AminoAcid::His => 0.87,
            AminoAcid::Ile => 1.60,
            AminoAcid::Leu => 1.30,
            AminoAcid::Lys => 0.74,
            AminoAcid::Met => 1.05,
            AminoAcid::Phe => 1.38,
            AminoAcid::Pro => 0.55,
            AminoAcid::Ser => 0.75,
            AminoAcid::Thr => 1.19,
            AminoAcid::Trp => 1.37,
            AminoAcid::Tyr => 1.47,
            AminoAcid::Val => 1.70,
        }
    }
}

impl std::fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_round_trip() {
        for &a in &ALL {
            assert_eq!(AminoAcid::from_code(a.code()), Some(a));
            assert_eq!(AminoAcid::from_code(a.code().to_ascii_lowercase()), Some(a));
        }
        assert_eq!(AminoAcid::from_code('X'), None);
        assert_eq!(AminoAcid::from_code('B'), None);
    }

    #[test]
    fn index_round_trip() {
        for (i, &a) in ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(AminoAcid::from_index(i), Some(a));
        }
        assert_eq!(AminoAcid::from_index(20), None);
    }

    #[test]
    fn alphabet_matches_blosum_order() {
        let s: String = ALL.iter().map(|a| a.code()).collect();
        assert_eq!(s, "ARNDCQEGHILKMFPSTWYV");
    }

    #[test]
    fn gly_is_lightest_trp_heaviest() {
        for &a in &ALL {
            assert!(a.residue_mass() >= AminoAcid::Gly.residue_mass());
            assert!(a.residue_mass() <= AminoAcid::Trp.residue_mass());
        }
    }

    #[test]
    fn ile_is_most_hydrophobic() {
        for &a in &ALL {
            assert!(a.hydropathy() <= AminoAcid::Ile.hydropathy());
        }
    }
}
