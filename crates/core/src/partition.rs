//! Partitioning of the stamped network matrices (eq. 2 of the paper).
//!
//! With ports ordered first, `G` splits into the port block `A`, the
//! connection block `Q` and the internal block `D`; `C` splits likewise
//! into `B`, `R` and `E`.

use pact_netlist::Stamped;
use pact_sparse::CsrMat;

/// The six partitions of `(G + sC)` for an `m`-port, `n`-internal-node RC
/// network.
#[derive(Clone, Debug)]
pub struct Partitions {
    /// Number of ports `m`.
    pub m: usize,
    /// Number of internal nodes `n`.
    pub n: usize,
    /// Port conductance block `A` (`m×m`, symmetric NND).
    pub a: CsrMat,
    /// Port susceptance block `B` (`m×m`, symmetric NND).
    pub b: CsrMat,
    /// Connection conductance block `Q` (`n×m`).
    pub q: CsrMat,
    /// Connection susceptance block `R` (`n×m`).
    pub r: CsrMat,
    /// Internal conductance block `D` (`n×n`, symmetric PD when every
    /// internal node has a DC path to a port).
    pub d: CsrMat,
    /// Internal susceptance block `E` (`n×n`, symmetric NND).
    pub e: CsrMat,
}

impl Partitions {
    /// Splits stamped `G`/`C` matrices into the six partitions.
    ///
    /// # Panics
    ///
    /// Panics if `stamped.num_ports` exceeds the matrix dimension.
    pub fn split(stamped: &Stamped) -> Self {
        let total = stamped.g.nrows();
        let m = stamped.num_ports;
        assert!(m <= total, "more ports than nodes");
        let [a, q, d] = stamped.g.split_leading(m);
        let [b, r, e] = stamped.c.split_leading(m);
        Partitions {
            m,
            n: total - m,
            a,
            b,
            q,
            r,
            d,
            e,
        }
    }

    /// `S`: the internal nodes (ascending) on which `E` has a nonzero
    /// entry, in its row or its column. `E` vanishes outside `S×S`, so
    /// `XᵀEX = X_Sᵀ E_SS X_S` for any `n×m` panel `X` — the support
    /// [`crate::Transform1`] keeps `X = D⁻¹Q` on.
    pub fn capacitive_internals(&self) -> Vec<usize> {
        let mut on = vec![false; self.n];
        for i in 0..self.n {
            for (j, v) in self.e.row_iter(i) {
                if v != 0.0 {
                    on[i] = true;
                    on[j] = true;
                }
            }
        }
        (0..self.n).filter(|&i| on[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::{extract_rc, parse};

    fn stamped() -> (Stamped, usize) {
        let nl = parse(
            "\
* 2-port, 2-internal ladder
V1 p1 0 1
R1 p1 i1 100
R2 i1 i2 100
R3 i2 p2 100
C1 i1 0 1p
C2 i2 0 1p
Rload p2 0 1k
M1 x p2 0 0 nch
.model nch nmos()
.end
",
        )
        .unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let st = ex.network.stamp();
        let m = st.num_ports;
        (st, m)
    }

    #[test]
    fn shapes_are_consistent() {
        let (st, m) = stamped();
        let p = Partitions::split(&st);
        assert_eq!(p.m, m);
        assert_eq!(p.a.nrows(), m);
        assert_eq!(p.d.nrows(), p.n);
        assert_eq!(p.q.nrows(), p.n);
        assert_eq!(p.q.ncols(), m);
        assert_eq!(p.r.nrows(), p.n);
        assert_eq!(p.e.nrows(), p.n);
    }

    #[test]
    fn blocks_match_parent_entries() {
        let (st, m) = stamped();
        let p = Partitions::split(&st);
        for i in 0..p.n {
            for j in 0..m {
                assert_eq!(p.q.get(i, j), st.g.get(m + i, j));
                assert_eq!(p.r.get(i, j), st.c.get(m + i, j));
            }
            for j in 0..p.n {
                assert_eq!(p.d.get(i, j), st.g.get(m + i, m + j));
                assert_eq!(p.e.get(i, j), st.c.get(m + i, m + j));
            }
        }
    }

    #[test]
    fn capacitive_internals_is_the_support_of_e() {
        // i1 has a ground cap, i2/i3 only their coupling cap, i4 only a
        // cap to port p1 (still a diagonal entry of E), i5 none.
        let nl = parse(
            "\
* coupled ladder
V1 p1 0 1
R1 p1 i1 100
R2 i1 i2 100
R3 i2 i3 100
R4 i3 i4 100
R5 i4 i5 100
R6 i5 p2 100
C1 i1 0 1p
C2 i2 i3 1p
C3 p1 i4 1p
Rload p2 0 1k
M1 x p2 0 0 nch
.model nch nmos()
.end
",
        )
        .unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let p = Partitions::split(&ex.network.stamp());
        let names = &ex.network.node_names[ex.network.num_ports..];
        let mut s: Vec<&str> = p
            .capacitive_internals()
            .into_iter()
            .map(|i| names[i].as_str())
            .collect();
        s.sort_unstable();
        assert_eq!(s, ["i1", "i2", "i3", "i4"]);
    }

    #[test]
    fn symmetry_of_blocks() {
        let (st, _) = stamped();
        let p = Partitions::split(&st);
        assert!(p.a.is_symmetric(0.0));
        assert!(p.b.is_symmetric(0.0));
        assert!(p.d.is_symmetric(0.0));
        assert!(p.e.is_symmetric(0.0));
    }
}
