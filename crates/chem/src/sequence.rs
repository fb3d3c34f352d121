//! Protein sequences: parsing, FASTA I/O, and the mutation/fragment helpers
//! the synthetic UniProt generator uses to build families of related
//! proteins (the paper's workflow searches for proteins *related to* the
//! target P29274, so relatedness structure in the data matters).

use crate::aminoacid::{AminoAcid, ALL};

/// An immutable protein sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProteinSequence {
    residues: Vec<AminoAcid>,
}

/// Error from parsing a sequence string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidResidue {
    /// Offending character.
    pub ch: char,
    /// Byte offset in the input.
    pub pos: usize,
}

impl std::fmt::Display for InvalidResidue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid residue {:?} at position {}", self.ch, self.pos)
    }
}

impl std::error::Error for InvalidResidue {}

impl ProteinSequence {
    /// Build a sequence from residues.
    pub fn new(residues: Vec<AminoAcid>) -> Self {
        Self { residues }
    }

    /// Parse a one-letter-code string, e.g. `"MSGSSW..."`.
    pub fn parse(s: &str) -> Result<Self, InvalidResidue> {
        let mut residues = Vec::with_capacity(s.len());
        for (pos, ch) in s.char_indices() {
            if ch.is_whitespace() {
                continue;
            }
            match AminoAcid::from_code(ch) {
                Some(a) => residues.push(a),
                None => return Err(InvalidResidue { ch, pos }),
            }
        }
        Ok(Self { residues })
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// The residues.
    #[inline]
    pub fn residues(&self) -> &[AminoAcid] {
        &self.residues
    }

    /// One-letter-code representation.
    pub fn to_string_code(&self) -> String {
        self.residues.iter().map(|a| a.code()).collect()
    }

    /// Total residue mass plus one water (Da) — the chain's molecular mass.
    pub fn molecular_mass(&self) -> f64 {
        const WATER: f64 = 18.011;
        self.residues.iter().map(|a| a.residue_mass()).sum::<f64>() + WATER
    }

    /// Mean Kyte–Doolittle hydropathy (GRAVY score).
    pub fn gravy(&self) -> f64 {
        if self.residues.is_empty() {
            return 0.0;
        }
        self.residues.iter().map(|a| a.hydropathy()).sum::<f64>() / self.len() as f64
    }

    /// Contiguous subsequence `[start, end)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn fragment(&self, start: usize, end: usize) -> ProteinSequence {
        ProteinSequence::new(self.residues[start..end].to_vec())
    }

    /// Produce a mutated copy: each residue independently substituted with
    /// probability `rate`, using the deterministic stream `rng`. This is how
    /// the workload generator grows protein families around a seed sequence
    /// with a controlled divergence level.
    pub fn mutate(&self, rate: f64, rng: &mut ids_simrt::rng::SplitMix64) -> ProteinSequence {
        let mut out = self.residues.clone();
        for r in out.iter_mut() {
            if rng.next_f64() < rate {
                *r = ALL[rng.next_below(20) as usize];
            }
        }
        ProteinSequence::new(out)
    }

    /// Generate a random sequence of `len` residues.
    pub fn random(len: usize, rng: &mut ids_simrt::rng::SplitMix64) -> ProteinSequence {
        ProteinSequence::new((0..len).map(|_| ALL[rng.next_below(20) as usize]).collect())
    }

    /// Render as FASTA with the given header and 60-column wrapping.
    pub fn to_fasta(&self, header: &str) -> String {
        let code = self.to_string_code();
        let mut out = String::with_capacity(code.len() + header.len() + code.len() / 60 + 4);
        out.push('>');
        out.push_str(header);
        out.push('\n');
        for (i, c) in code.chars().enumerate() {
            if i > 0 && i % 60 == 0 {
                out.push('\n');
            }
            out.push(c);
        }
        if !code.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Parse one or more FASTA records; returns `(header, sequence)` pairs.
    pub fn from_fasta(text: &str) -> Result<Vec<(String, ProteinSequence)>, InvalidResidue> {
        let mut records = Vec::new();
        let mut header: Option<String> = None;
        let mut body = String::new();
        for line in text.lines() {
            if let Some(h) = line.strip_prefix('>') {
                if let Some(prev) = header.take() {
                    records.push((prev, ProteinSequence::parse(&body)?));
                }
                header = Some(h.trim().to_string());
                body.clear();
            } else {
                body.push_str(line.trim());
            }
        }
        if let Some(prev) = header {
            records.push((prev, ProteinSequence::parse(&body)?));
        }
        Ok(records)
    }
}

impl std::fmt::Display for ProteinSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_simrt::rng::SplitMix64;

    #[test]
    fn parse_and_display_round_trip() {
        let s = ProteinSequence::parse("MSGSSWLAAV").unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.to_string(), "MSGSSWLAAV");
    }

    #[test]
    fn parse_skips_whitespace_and_is_case_insensitive() {
        let s = ProteinSequence::parse("msg ssw\nLAAV").unwrap();
        assert_eq!(s.to_string(), "MSGSSWLAAV");
    }

    #[test]
    fn parse_rejects_invalid_residue() {
        let err = ProteinSequence::parse("MSGX").unwrap_err();
        assert_eq!(err.ch, 'X');
        assert_eq!(err.pos, 3);
    }

    #[test]
    fn mass_is_positive_and_additive() {
        let a = ProteinSequence::parse("G").unwrap();
        let b = ProteinSequence::parse("GG").unwrap();
        assert!(a.molecular_mass() > 57.0);
        assert!(
            (b.molecular_mass() - a.molecular_mass() - AminoAcid::Gly.residue_mass()).abs() < 1e-9
        );
    }

    #[test]
    fn mutate_rate_zero_is_identity() {
        let mut rng = SplitMix64::new(1, 1);
        let s = ProteinSequence::random(100, &mut rng);
        let m = s.mutate(0.0, &mut rng);
        assert_eq!(s, m);
    }

    #[test]
    fn mutate_rate_changes_roughly_rate_fraction() {
        let mut rng = SplitMix64::new(2, 2);
        let s = ProteinSequence::random(2000, &mut rng);
        let m = s.mutate(0.3, &mut rng);
        let diff = s.residues().iter().zip(m.residues()).filter(|(a, b)| a != b).count();
        // 30% mutation attempts, 19/20 of which change the residue.
        let expect = 2000.0 * 0.3 * (19.0 / 20.0);
        assert!((diff as f64 - expect).abs() < 90.0, "diff {diff} vs expect {expect}");
    }

    #[test]
    fn fasta_round_trip() {
        let mut rng = SplitMix64::new(3, 3);
        let s = ProteinSequence::random(150, &mut rng);
        let fasta = s.to_fasta("sp|P29274|AA2AR_HUMAN");
        let widths: Vec<usize> = fasta.lines().skip(1).map(str::len).collect();
        assert_eq!(widths, [60, 60, 30]);
        assert!(fasta.ends_with('\n'));
        let recs = ProteinSequence::from_fasta(&fasta).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, "sp|P29274|AA2AR_HUMAN");
        assert_eq!(recs[0].1, s);
    }

    #[test]
    fn multi_record_fasta() {
        let text = ">a\nMSG\n>b\nLAAV\nGG\n";
        let recs = ProteinSequence::from_fasta(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].1.to_string(), "MSG");
        assert_eq!(recs[1].1.to_string(), "LAAVGG");
    }

    #[test]
    fn fragment_extracts_subrange() {
        let s = ProteinSequence::parse("MSGSSWLAAV").unwrap();
        assert_eq!(s.fragment(2, 5).to_string(), "GSS");
    }

    #[test]
    fn gravy_of_hydrophobic_run_is_positive() {
        let s = ProteinSequence::parse("IIVVLL").unwrap();
        assert!(s.gravy() > 3.0);
        let t = ProteinSequence::parse("RRDDEE").unwrap();
        assert!(t.gravy() < -3.0);
    }
}
