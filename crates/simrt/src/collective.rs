//! Reduction operators for simulated collectives.

/// Reduction operator applied by [`crate::Cluster::allreduce_f64`] and
/// friends, mirroring `MPI_Op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    /// Apply the operator to a slice of per-rank contributions.
    pub fn reduce_f64(self, values: &[f64]) -> f64 {
        match self {
            ReduceOp::Sum => values.iter().sum(),
            ReduceOp::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            ReduceOp::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_f64() {
        let v = [1.0, 4.0, 2.0];
        assert_eq!(ReduceOp::Sum.reduce_f64(&v), 7.0);
        assert_eq!(ReduceOp::Min.reduce_f64(&v), 1.0);
        assert_eq!(ReduceOp::Max.reduce_f64(&v), 4.0);
    }
}
