//! 3-D structures: atom coordinate sets, geometry utilities, and a
//! PDB-flavoured text round-trip.
//!
//! The docking simulator needs receptor structures (from the
//! AlphaFold-substitute predictor) and ligand conformers (embedded from
//! molecular graphs); both are [`Structure3D`] values. Geometry helpers
//! (centroid, RMSD, bounding/grid boxes) implement the pieces AutoDock
//! Vina's blind-docking mode relies on.

use crate::element::Element;

/// A 3-D vector / point, in Ångströms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Unit vector in this direction (zero stays zero).
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            Vec3::ZERO
        } else {
            self * (1.0 / n)
        }
    }

    /// Rotate about `axis` (unit vector) by `angle` radians (Rodrigues).
    pub fn rotated(self, axis: Vec3, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        self * c + axis.cross(self) * s + axis * (axis.dot(self) * (1.0 - c))
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

/// One positioned atom in a structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedAtom {
    pub element: Element,
    pub pos: Vec3,
}

/// An axis-aligned box; the docking search space ("grid box").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridBox {
    pub min: Vec3,
    pub max: Vec3,
}

impl GridBox {
    /// Box containing all points, expanded by `margin` on every side.
    pub fn enclosing(points: impl IntoIterator<Item = Vec3>, margin: f64) -> Option<GridBox> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut min = first;
        let mut max = first;
        for p in it {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            min.z = min.z.min(p.z);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
            max.z = max.z.max(p.z);
        }
        let m = Vec3::new(margin, margin, margin);
        Some(GridBox { min: min - m, max: max + m })
    }

    /// Center of the box.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths.
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume in Å³.
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Whether `p` is inside (inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }
}

/// A 3-D structure: an ordered list of placed atoms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Structure3D {
    atoms: Vec<PlacedAtom>,
}

impl Structure3D {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from placed atoms.
    pub fn from_atoms(atoms: Vec<PlacedAtom>) -> Self {
        Self { atoms }
    }

    /// Add an atom.
    pub fn push(&mut self, element: Element, pos: Vec3) {
        self.atoms.push(PlacedAtom { element, pos });
    }

    /// Atom count.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the structure has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The atoms.
    pub fn atoms(&self) -> &[PlacedAtom] {
        &self.atoms
    }

    /// Geometric centroid.
    ///
    /// # Panics
    /// Panics on an empty structure.
    pub fn centroid(&self) -> Vec3 {
        assert!(!self.atoms.is_empty(), "centroid of empty structure");
        let sum = self.atoms.iter().fold(Vec3::ZERO, |acc, a| acc + a.pos);
        sum * (1.0 / self.atoms.len() as f64)
    }

    /// Root-mean-square deviation against another structure with identical
    /// atom ordering (no superposition — docking poses share a frame).
    ///
    /// # Panics
    /// Panics if lengths differ or the structures are empty.
    pub fn rmsd(&self, other: &Structure3D) -> f64 {
        assert_eq!(self.len(), other.len(), "RMSD requires equal atom counts");
        assert!(!self.atoms.is_empty(), "RMSD of empty structures");
        let ss: f64 = self
            .atoms
            .iter()
            .zip(&other.atoms)
            .map(|(a, b)| {
                let d = a.pos - b.pos;
                d.dot(d)
            })
            .sum();
        (ss / self.len() as f64).sqrt()
    }

    /// Translate every atom by `delta`.
    pub fn translated(&self, delta: Vec3) -> Structure3D {
        Structure3D {
            atoms: self
                .atoms
                .iter()
                .map(|a| PlacedAtom { element: a.element, pos: a.pos + delta })
                .collect(),
        }
    }

    /// Rotate every atom about the centroid by `angle` radians around `axis`.
    pub fn rotated_about_centroid(&self, axis: Vec3, angle: f64) -> Structure3D {
        let c = self.centroid();
        let axis = axis.normalized();
        Structure3D {
            atoms: self
                .atoms
                .iter()
                .map(|a| PlacedAtom {
                    element: a.element,
                    pos: (a.pos - c).rotated(axis, angle) + c,
                })
                .collect(),
        }
    }

    /// Bounding box with `margin` Å padding.
    pub fn bounding_box(&self, margin: f64) -> Option<GridBox> {
        GridBox::enclosing(self.atoms.iter().map(|a| a.pos), margin)
    }

    /// Serialize to a minimal PDB-flavoured text (HETATM records).
    pub fn to_pdb(&self, name: &str) -> String {
        let mut out = format!("HEADER    {name}\n");
        for (i, a) in self.atoms.iter().enumerate() {
            out.push_str(&format!(
                "HETATM{:>5} {:<4} LIG A   1    {:>8.3}{:>8.3}{:>8.3}  1.00  0.00          {:>2}\n",
                i + 1,
                a.element.symbol(),
                a.pos.x,
                a.pos.y,
                a.pos.z,
                a.element.symbol()
            ));
        }
        out.push_str("END\n");
        out
    }

    /// Parse the PDB-flavoured text emitted by [`Self::to_pdb`] (also accepts
    /// standard ATOM records with an element column).
    pub fn from_pdb(text: &str) -> Result<Structure3D, String> {
        let mut atoms = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            if !(line.starts_with("HETATM") || line.starts_with("ATOM")) {
                continue;
            }
            if line.len() < 54 {
                return Err(format!("line {}: truncated atom record", ln + 1));
            }
            let x: f64 =
                line[30..38].trim().parse().map_err(|e| format!("line {}: bad x: {e}", ln + 1))?;
            let y: f64 =
                line[38..46].trim().parse().map_err(|e| format!("line {}: bad y: {e}", ln + 1))?;
            let z: f64 =
                line[46..54].trim().parse().map_err(|e| format!("line {}: bad z: {e}", ln + 1))?;
            let elem_field =
                if line.len() >= 78 { line[76..78].trim() } else { line[12..16].trim() };
            let element = Element::from_symbol(elem_field)
                .ok_or_else(|| format!("line {}: unknown element {:?}", ln + 1, elem_field))?;
            atoms.push(PlacedAtom { element, pos: Vec3::new(x, y, z) });
        }
        if atoms.is_empty() {
            return Err("no atom records found".to_string());
        }
        Ok(Structure3D { atoms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn water() -> Structure3D {
        let mut s = Structure3D::new();
        s.push(Element::O, Vec3::new(0.0, 0.0, 0.0));
        s.push(Element::H, Vec3::new(0.96, 0.0, 0.0));
        s.push(Element::H, Vec3::new(-0.24, 0.93, 0.0));
        s
    }

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!((a + b).x, 5.0);
        assert_eq!((b - a).z, 3.0);
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let r = v.rotated(Vec3::new(0.0, 0.0, 1.0), 1.234);
        assert!((r.norm() - v.norm()).abs() < 1e-12);
        // Full turn returns to start.
        let full = v.rotated(Vec3::new(0.0, 1.0, 0.0), std::f64::consts::TAU);
        assert!(full.distance(v) < 1e-9);
    }

    #[test]
    fn centroid_and_translation() {
        let s = water();
        let c = s.centroid();
        let t = s.translated(Vec3::new(10.0, 0.0, 0.0));
        let tc = t.centroid();
        assert!((tc.x - c.x - 10.0).abs() < 1e-12);
        assert!((tc.y - c.y).abs() < 1e-12);
    }

    #[test]
    fn rmsd_zero_for_identical_grows_with_displacement() {
        let s = water();
        assert_eq!(s.rmsd(&s), 0.0);
        let t = s.translated(Vec3::new(2.0, 0.0, 0.0));
        assert!((s.rmsd(&t) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_about_centroid_preserves_rmsd_zero_distances() {
        let s = water();
        let r = s.rotated_about_centroid(Vec3::new(0.0, 0.0, 1.0), 0.7);
        // Internal distances are preserved by rigid rotation.
        let d_before = s.atoms()[0].pos.distance(s.atoms()[1].pos);
        let d_after = r.atoms()[0].pos.distance(r.atoms()[1].pos);
        assert!((d_before - d_after).abs() < 1e-9);
        // Centroid is a fixed point.
        assert!(s.centroid().distance(r.centroid()) < 1e-9);
    }

    #[test]
    fn gridbox_contains_its_points() {
        let s = water();
        let gb = s.bounding_box(4.0).unwrap();
        for a in s.atoms() {
            assert!(gb.contains(a.pos));
        }
        assert!(gb.volume() > 0.0);
        assert!(!gb.contains(Vec3::new(100.0, 0.0, 0.0)));
    }

    #[test]
    fn pdb_round_trip() {
        let s = water();
        let text = s.to_pdb("WATER");
        let back = Structure3D::from_pdb(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert!(s.rmsd(&back) < 1e-3, "coordinates survive 3-decimal format");
        assert_eq!(back.atoms()[0].element, Element::O);
    }

    #[test]
    fn pdb_parse_errors() {
        assert!(Structure3D::from_pdb("").is_err());
        assert!(Structure3D::from_pdb("HETATM short").is_err());
    }

    #[test]
    fn empty_box_is_none() {
        assert!(GridBox::enclosing(std::iter::empty(), 1.0).is_none());
    }
}
