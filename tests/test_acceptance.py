"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line once its assertions hold, so a
verbose run reads as a checklist.  Runtime bounds are asserted where the
criterion states one.
"""

import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from hodge_degen.arrangement import sweep_vertices, tempered_arrangement
from hodge_degen.cycles import (
    build_cycle,
    family_cycles,
    singularity_at_zero,
    span_rank,
    threefold_boundary,
)
from hodge_degen.degeneration import (
    hodge_kernel_basis,
    kernel_dim,
    presentation,
    reduce_raw,
)
from hodge_degen.exactlin import QMatrix, cyclo_embed
from hodge_degen.limits import (
    DEFAULT_DK,
    eta,
    independence_matrix,
    limit_of_pairing,
    limit_type,
    singular_type,
)
from hodge_degen.periods import (
    PI,
    aj_closed_form,
    check_functional_equations,
    membrane_integral,
    membrane_quadrature,
    mu_instance_residuals,
)
from oracle import dense, kernel_basis, phi_matrix, rank

L_VALUE = 4.0597664256386145


def report(n, text):
    print(f"criterion {n}: PASS ({text})")


def test_criterion_1_dimension_counts():
    start = time.monotonic()
    for d in range(2, 9):
        _, _, dim = presentation(d)
        assert 2 * dim == d * (2 + (d - 1) ** 2), f"d={d} presentation dim"
        phi = phi_matrix(d)
        kdim = phi.cols - rank(phi)
        assert kdim == 1 + (d - 1) * (d * (d - 1) // 2), f"d={d} kernel dim"
        if d == 4:
            assert kdim == 19
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"dimension counts d=2..8 exact, {elapsed:.2f}s")


def test_criterion_2_kernel_basis():
    start = time.monotonic()
    for d in range(2, 9):
        phi = phi_matrix(d)
        basis = hodge_kernel_basis(d)
        for b in basis:
            assert all(x == 0 for x in phi.mul_vector(dense(d, b))), f"d={d} membership"
        stacked = QMatrix([dense(d, b) for b in basis] + list(kernel_basis(phi)))
        assert rank(QMatrix([dense(d, b) for b in basis])) == len(basis), f"d={d} independence"
        assert rank(stacked) == len(basis) == kernel_dim(d), f"d={d} span"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"kernel basis in/independent/spanning d=2..8, {elapsed:.2f}s")


def test_criterion_3_singularity_formulas():
    for d in range(3, 7):
        for i, j, k in combinations(range(1, d + 1), 3):
            for l in range(1, d + 1):
                got = singularity_at_zero(d, build_cycle("gamma", (i, j, k, l)))
                want = reduce_raw(
                    d,
                    {
                        ("e", i, j, l): Fraction(1),
                        ("e", j, k, l): Fraction(1),
                        ("e", i, k, l): Fraction(-1),
                    },
                )
                assert got == want, f"gamma {(i, j, k, l)} d={d}"
        for i in range(1, d + 1):
            for l in range(1, d + 1):
                got = singularity_at_zero(d, build_cycle("lambda", (i, l)))
                raw = {("l", i): Fraction(1)}
                for a in range(1, i):
                    raw[("e", a, i, l)] = Fraction(-1)
                for a in range(i + 1, d + 1):
                    raw[("e", i, a, l)] = Fraction(1)
                assert got == reduce_raw(d, raw), f"lambda {(i, l)} d={d}"
    report(3, "residue rules reproduce closed forms d=3..6, markers cancel")


def test_criterion_4_spanning():
    start = time.monotonic()
    for d in range(3, 7):
        rk, _, failed, _, _, _ = span_rank(d, "both")
        assert rk == 1 + (d - 1) * (d * (d - 1) // 2), f"d={d} rank"
        assert rk == kernel_dim(d) and failed is None, f"d={d} combination"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(4, f"singularity span ranks + explicit combinations d=3..6, {elapsed:.2f}s")


def test_criterion_5_delta_triviality():
    for d in range(3, 7):
        for c in family_cycles(d, "delta"):
            assert not singularity_at_zero(d, c), f"delta {c} d={d}"
    report(5, "swapped-family residues vanish exactly d=3..6")


def test_criterion_6_period_closed_form():
    start = time.monotonic()
    arr = tempered_arrangement()
    verts = [(cyclo_embed(x, n), cyclo_embed(y, n)) for x, y, n in sweep_vertices(arr, 4, 1, 2, 3)]
    closed = aj_closed_form()
    membrane = membrane_integral(verts)
    assert abs(membrane + closed) < 1e-8
    assert abs((-closed).real - PI * PI / 6) < 1e-10
    assert abs(closed.imag) > 4.0
    oracle = membrane_quadrature(verts)
    assert abs(oracle - membrane) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, f"membrane vs closed form {abs(membrane + closed):.2e}, oracle {abs(oracle - membrane):.2e}, {elapsed:.2f}s")


def test_criterion_7_functional_equations():
    samples, max_residual = check_functional_equations(1000, seed=0)
    assert samples == 1000
    assert max_residual < 1e-12
    for name, res in mu_instance_residuals().items():
        assert res < 1e-12, name
    report(7, f"both identities on 1000 samples, max residual {max_residual:.2e}")


def test_criterion_8_pairing_limits():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    r_model = limit_type(L_VALUE, DEFAULT_DK, rng)
    eta_at = eta(DEFAULT_DK, rng)
    assert abs(limit_of_pairing(r_model, eta_at)[0] - (-L_VALUE)) < 1e-4
    for j in range(1, DEFAULT_DK + 1):
        assert abs(limit_of_pairing(r_model, j)[0]) < 1e-4, f"R vs d_{j}"
    for i in range(1, DEFAULT_DK + 1):
        model = singular_type(i, DEFAULT_DK, rng)
        for j in range(1, DEFAULT_DK + 1):
            want = 1.0 if i == j else 0.0
            got = limit_of_pairing(model, j)[0]
            assert abs(got - want) < 1e-4, f"R_{i} vs d_{j}"
    _, det0, _ = independence_matrix(L_VALUE, seed=None)
    assert abs(det0 + L_VALUE) < 1e-3
    _, det, _ = independence_matrix(L_VALUE, seed=1)
    assert abs(det) > 0.1 * L_VALUE
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(8, f"all pairing limits within 1e-4, dets {det0.real:.6f}/{det.real:.6f}, {elapsed:.2f}s")


def test_criterion_9_threefold_boundary():
    for d in (4, 5, 6):
        for i, j, k in combinations(range(1, d + 1), 3):
            for l in range(1, d + 1):
                _, lines = threefold_boundary(i, j, k, l)
                assert lines == (
                    ((i, j, l), Fraction(1)),
                    ((j, k, l), Fraction(1)),
                    ((i, k, l), Fraction(-1)),
                )
                _, mirrored = threefold_boundary(i, j, k, l, side="M")
                assert [c for _, c in mirrored] == [1, 1, -1]
    report(9, "threefold boundary three-term shape exact for all triples")
