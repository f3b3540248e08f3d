"""Matrix primitives: adjoints, spectral calculus, Gaussian functions."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import qbs.cli
from qbs.operators import (
    adjoint,
    as_matrix,
    commutator,
    hermitian_part,
    normal_cdf,
    normal_pdf,
    operator_exp,
    operator_log,
    phi_series,
    require_hermitian,
    require_unitary,
    spectral_decompose,
    stable_order,
    sylvester_L,
)
from qbs.sampling import random_hermitian, random_positive_definite, random_unitary
from test_cli import full_config

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1e-300, 3.0]), max_size=12))
def test_stable_order_is_numpys_stable_argsort(values):
    # ties, -0.0 and 0.0 among them, keep their index order
    values = np.array(values, dtype=np.float64)
    assert stable_order(values) == np.argsort(values, kind="stable").tolist()


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_require_hermitian():
    require_hermitian(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "m,message",
    [
        # ||M||_F = 1e200 is finite, but its square overflows
        ([[1e200, 1e190], [0.0, 0.0]], "defect 1.414214e+190 exceeds 1.000000e+188"),
        ([[0.0, 1e308], [-1e308, 0.0]], "defect inf exceeds 1.414214e+296"),
    ],
)
def test_require_hermitian_when_the_norm_overflows(m, message, tmp_path, capsys):
    with pytest.raises(ValueError) as info:
        require_hermitian(np.array(m))
    assert str(info.value) == f"matrix: not Hermitian, {message}"
    doc = full_config()
    doc["model"]["ops"]["H"] = [[[x, 0.0] for x in row] for row in m]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert qbs.cli.main(["coeffs", "--config", str(path), "--omit-timing"]) == 2
    assert capsys.readouterr().err == f"config error: model.ops.H: not Hermitian, {message}\n"


def test_require_hermitian_bound_is_relative_at_any_scale():
    # defect 4 sqrt(2) against 1e-12 ||M||_F, about 1e296: inside the bound,
    # as [[1, 1e-308], [5e-308, 0]] is
    require_hermitian(np.array([[1e308, 1.0], [5.0, 0.0]]))
    require_hermitian(np.array([[1.0, 1e-308], [5e-308, 0.0]]))


def test_require_hermitian_takes_subnormal_matrices_as_they_are():
    # only a matrix with a part of magnitude 1 or more is scaled, and only down
    for m in ([[5e-324, 0.0], [0.0, 1e-320]], [[0.0, 0.0], [0.0, 0.0]]):
        assert require_hermitian(np.array(m)).tobytes() == np.array(m, dtype=complex).tobytes()


def test_require_unitary():
    require_unitary(np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        require_unitary(1.001 * np.eye(2))


OVERFLOWING_S = [[1e200, 1e200], [1e200, -1e200]]
OVERFLOWING_S_MESSAGE = "not unitary, defect nan exceeds 2.000000e-12"


def test_require_unitary_rejects_an_overflowing_defect():
    # S*S overflows, so the defect is NaN, which must fail the bound
    with pytest.raises(ValueError) as info:
        require_unitary(np.array(OVERFLOWING_S, dtype=complex))
    assert str(info.value) == f"matrix: {OVERFLOWING_S_MESSAGE}"


def test_overflowing_scattering_is_a_config_error(tmp_path, capsys):
    doc = full_config()
    doc["model"]["ops"]["S"] = [[[x, 0.0] for x in row] for row in OVERFLOWING_S]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert qbs.cli.main(["coeffs", "--config", str(path), "--omit-timing"]) == 2
    assert capsys.readouterr().err == f"config error: model.ops.S: {OVERFLOWING_S_MESSAGE}\n"


def test_adjoint_examples():
    assert np.array_equal(adjoint(np.eye(2)), np.eye(2))
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.array_equal(adjoint(m), np.array([[0.0, 0.0], [1.0, 0.0]]))
    d = np.diag([1.0j, -1.0j])
    assert np.array_equal(adjoint(d), np.diag([-1.0j, 1.0j]))


def test_adjoint_involution():
    rng = np.random.default_rng(1)
    for dim in (2, 5):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert np.array_equal(adjoint(adjoint(m)), m)
        a, b = oracles.dagger_loops(m), adjoint(m)
        assert np.array_equal(a, b)


def test_commutator_examples():
    assert np.max(np.abs(commutator(np.eye(3), np.diag([1.0, 2.0, 3.0])))) == 0.0
    # [sx, sy] = 2i sz
    c = commutator(SX, SY)
    assert np.allclose(c, 2.0j * np.diag([1.0, -1.0]), atol=1e-15)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    c2 = commutator(np.diag([1.0, 2.0]).astype(complex), e12)
    assert np.allclose(c2, np.array([[0.0, -1.0], [0.0, 0.0]]), atol=1e-15)


def test_commutator_dim_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_spectral_identity():
    dec = spectral_decompose(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    assert np.max(np.abs(dec.apply(dec.eigenvalues) - np.eye(3))) <= 1e-14


def test_spectral_ordering_and_reconstruction():
    dec = spectral_decompose(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    dec2 = spectral_decompose(off)
    assert np.allclose(dec2.eigenvalues, [-1.0, 1.0])
    rng = np.random.default_rng(7)
    for dim in (2, 4, 9):
        m = random_hermitian(rng, dim)
        dec3 = spectral_decompose(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.max(np.abs(dec3.apply(dec3.eigenvalues) - m)) <= 1e-12 * scale
        gram = dec3.eigenvectors.conj().T @ dec3.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12


def test_spectral_deterministic():
    """Same input twice gives bitwise identical factors (phase is pinned)."""
    m = random_hermitian(np.random.default_rng(3), 4)
    d1, d2 = spectral_decompose(m), spectral_decompose(m)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_log_examples():
    assert np.max(np.abs(operator_log(np.eye(2)))) <= 1e-14
    m = np.diag([math.e, math.e**2])
    assert np.allclose(operator_log(m), np.diag([1.0, 2.0]), atol=1e-13)


def test_operator_log_rejects_nonpositive_spectrum():
    with pytest.raises(ValueError, match="-2.0"):
        operator_log(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        operator_log(np.diag([0.0, 1.0]))


def test_operator_exp_examples():
    assert np.allclose(operator_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)
    assert np.allclose(operator_exp(np.diag([math.log(2.0), math.log(3.0)])), np.diag([2.0, 3.0]), atol=1e-13)


def test_operator_exp_rejects_an_overflowing_spectrum():
    with pytest.raises(FloatingPointError, match="A: exp overflows at 800.0"):
        operator_exp(np.diag([800.0]), "A")


def test_operator_exp_matches_series_oracle():
    rng = np.random.default_rng(5)
    for dim in (2, 4):
        h = random_hermitian(rng, dim)
        want = oracles.taylor_expm(h.astype(complex))
        got = operator_exp(h)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.linalg.norm(want)))


def test_log_exp_round_trips():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 8):
        p = random_positive_definite(rng, dim)
        back = operator_exp(operator_log(p))
        assert np.max(np.abs(back - p)) <= 1e-12 * max(1.0, float(np.linalg.norm(p)))
        h = random_hermitian(rng, dim)
        back2 = operator_log(operator_exp(h))
        assert np.max(np.abs(back2 - h)) <= 1e-12 * max(1.0, float(np.linalg.norm(h)))


def test_log_norm_bound():
    # ||log M||_2 <= max(|log a|, |log b|) for spectrum inside [a, b]
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_positive_definite(rng, 4, eig_low=0.25, eig_high=4.0)
        bound = max(abs(math.log(0.25)), abs(math.log(4.0)))
        assert np.linalg.norm(operator_log(p), 2) <= bound + 1e-12


def test_normal_cdf_frozen():
    # values from the quadrature oracle in oracles.py
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(0.5) - 0.6914624612740132) <= 1e-14
    assert abs(normal_cdf(1.0) - 0.8413447460685431) <= 1e-14
    far = normal_cdf(-8.0)
    assert 0.0 < far < 1e-14
    assert abs(far - 6.221245601246986e-16) <= 1e-19
    assert far <= oracles.mills_tail_bound(8.0)


def test_normal_cdf_symmetry():
    for x in np.arange(-6.0, 6.01, 0.25):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-14


def _erfc_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


@pytest.mark.parametrize(
    "x",
    [
        np.array([]),
        np.array(-0.0),
        np.array([-40.0, -8.5, -0.0, 0.0, 1e-300, 0.5, 3.25, 40.0]),
        np.array([[-40.0, -0.0, 0.7], [2.0, -1.5, 40.0]]),
    ],
)
def test_normal_cdf_is_elementwise_erfc(x):
    got = np.asarray(normal_cdf(x))
    assert got.shape == x.shape and got.dtype == np.float64
    want = np.array([_erfc_cdf(float(v)) for v in x.flat]).reshape(x.shape)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_normal_cdf_of_a_float_is_a_float():
    for x in (-40.0, -0.0, 0.3, 40.0):
        got = normal_cdf(x)
        assert type(got) is float
        assert got == _erfc_cdf(x)


def test_normal_cdf_matches_quadrature():
    xs = np.linspace(-8.0, 8.0, 161)
    got = normal_cdf(xs)
    want = np.array([oracles.normal_cdf_quadrature(float(x)) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    xs = np.linspace(-10.0, 10.0, 20001)
    assert np.max(np.abs(normal_cdf(xs) - ndtr(xs))) <= 1e-15


def test_normal_pdf():
    assert abs(normal_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) <= 1e-16
    assert abs(normal_pdf(1.3) - normal_pdf(-1.3)) == 0.0


def test_phi_series_frozen():
    assert phi_series(0.0, 1) == 0.5
    assert abs(phi_series(1.0, 40) - 0.841344746068543) <= 1e-15
    # series and quadrature agree at the window edge
    assert abs(phi_series(3.0, 60) - oracles.normal_cdf_quadrature(3.0)) <= 1e-10


def test_phi_series_matches_cdf_on_window():
    xs = np.arange(-3.0, 3.0001, 0.01)
    worst = max(abs(phi_series(float(x), 60) - normal_cdf(float(x))) for x in xs)
    assert worst <= 1e-10


def test_phi_series_matches_direct_sum_oracle():
    for x in (-2.5, -0.7, 0.3, 1.9):
        assert abs(phi_series(x, 45) - oracles.maclaurin_cdf(x, 45)) <= 1e-13


def test_phi_series_domain():
    with pytest.raises(ValueError):
        phi_series(3.5, 40)
    with pytest.raises(ValueError):
        phi_series(1.0, 0)


def test_phi_operator_unitary_equivariance():
    """exp(U* M U) = U* exp(M) U, including a degenerate spectrum."""
    rng = np.random.default_rng(31)
    for base in (random_hermitian(rng, 3), np.diag([1.0, 1.0, 2.0])):
        u = random_unitary(rng, 3)
        lhs = operator_exp(u.conj().T @ base @ u)
        rhs = u.conj().T @ operator_exp(base) @ u
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_hermitian_part():
    m = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    hp = hermitian_part(m)
    assert np.array_equal(hp, adjoint(hp))
    assert np.allclose(hp, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_sylvester_example():
    x = np.diag([1.0, 2.0])
    w = SX.copy()
    l_op = sylvester_L(x, w)
    assert np.allclose(l_op, np.array([[0.0, -2.0], [1.0, 0.0]]), atol=1e-12)
    # defining identity [X, L] = W X
    assert np.max(np.abs(commutator(x, l_op) - w @ x)) <= 1e-12


def test_sylvester_square_identity():
    x = np.diag([1.0, 2.0])
    l_op = sylvester_L(x, SX.astype(complex))
    lhs = commutator(adjoint(l_op), x) @ commutator(x, l_op)
    assert np.max(np.abs(lhs - x @ x)) <= 1e-12


def test_sylvester_rejections():
    w = SX.astype(complex)
    with pytest.raises(ValueError, match="coincide"):
        sylvester_L(np.diag([1.0, 1.0]), w)
    with pytest.raises(ValueError, match="zero"):
        sylvester_L(np.diag([0.0, 1.0]), w)
    with pytest.raises(ValueError, match="diagonal"):
        sylvester_L(np.diag([1.0, 2.0]), np.eye(2, dtype=complex))
