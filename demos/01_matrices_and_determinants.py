#!/usr/bin/env python3
"""Tour of the matrix builders: coefficient streams, signed Hankel forms,
and the determinant identity that ties them to their Toeplitz rearrangement.

Run:  python demos/01_matrices_and_determinants.py
"""

from mpmath import mp, workprec

import hankelspectra as hs


def show_matrix(label, M, digits=6):
    print(label)
    for row in M.entries:
        print("   [" + "  ".join("%10s" % mp.nstr(x, digits) for x in row) + "]")


def main():
    # --- coefficient streams -------------------------------------------
    print("= coefficient streams =")
    exp = hs.generate(hs.builtin_spec("exponential"), 12, 256)
    cat = hs.generate(hs.builtin_spec("catalan"), 24, 256)
    print("exponential c_0..c_5:",
          [mp.nstr(hs.theta(exp, k), 8) for k in range(6)])
    print("catalan     c_0..c_5:", [int(hs.theta(cat, k)) for k in range(6)])
    print("negative indices are exactly zero: c_-3 =", hs.theta(exp, -3))

    # --- signed Hankel matrices ----------------------------------------
    print("\n= signed Hankel matrices =")
    print("sign prefactor for m = 1..8:",
          [hs.sign_prefactor(m) for m in range(1, 9)])
    show_matrix("signed matrix (l=2, m=3), prefactor %+d:"
                % hs.sign_prefactor(3), hs.signed_hankel(exp, l=2, m=3))

    # --- determinants and the column-rearrangement identity ------------
    print("\n= determinant identity =")
    for m in (2, 3, 4, 5):
        rep = hs.det_relation_check(exp, 1, m, 256)
        print("m=%d  det(core)=%-14s det(toeplitz)=%-14s sign %+d  ok=%s" % (
            m, mp.nstr(rep.det_hankel, 6), mp.nstr(rep.det_toeplitz, 6),
            rep.expected_sign, rep.ok))

    # --- the classical Catalan determinant ------------------------------
    print("\n= Catalan Hankel determinants (all exactly 1) =")
    with workprec(300):
        for n in (2, 4, 8, 12):
            rows = [[hs.theta(cat, i + j) for j in range(n)] for i in range(n)]
            d = hs.det_lu(hs.real_matrix(rows), 256)
            print("size %2d: det = %s" % (n, mp.nstr(d, 20)))


if __name__ == "__main__":
    main()
