"""Flow coefficients, stochastic differentials, and the vacuum semigroup."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import qbs.flows
from qbs.flows import (
    _coefficients,
    _power_pairs,
    BrownianReport,
    ModelOperators,
    QuantumStochasticDifferential,
    brownian_reduction_check,
    default_steps,
    expectation,
    flow_coefficients,
    flow_differential,
    ito_product,
    lindblad_generator,
    poisson_reduction_check,
    power_rule_deviation,
    qsd_power_closed_form,
    qsd_power_iterated,
    semigroup_evolve,
)
from qbs.operators import adjoint, commutator, hermitian_part
from qbs.sampling import (
    random_complex,
    random_hermitian,
    random_model,
    random_model_stacks,
    random_state,
    random_unitary,
    shift_model,
)

Z2 = np.zeros((2, 2), dtype=complex)


def _zeros_model(dim):
    return ModelOperators(
        X=np.eye(dim), H=np.zeros((dim, dim)), L=np.zeros((dim, dim)), S=np.eye(dim)
    )


def test_model_operators_validation():
    with pytest.raises(ValueError):
        ModelOperators(X=np.eye(2), H=np.eye(3), L=np.zeros((2, 2)), S=np.eye(2))
    with pytest.raises(ValueError, match="not unitary"):
        ModelOperators(X=np.eye(2), H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=1.001 * np.eye(2))
    with pytest.raises(ValueError, match="not Hermitian"):
        ModelOperators(
            X=np.array([[0.0, 1.0], [0.0, 0.0]]),
            H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2),
        )


def test_validated_types_are_read_only_and_build_by_keyword():
    m = ModelOperators(X=2.0 * np.eye(2), H=Z2, L=Z2, S=np.eye(2))
    d = QuantumStochasticDifferential(creation=Z2, conservation=np.eye(2), annihilation=Z2, time=Z2)
    for value, fields in ((m, "XHLS"), (d, ("creation", "conservation", "annihilation", "time"))):
        assert type(value)(**dict(zip(fields, value))).dim == 2
        for name in fields:
            assert not getattr(value, name).flags.writeable
            with pytest.raises(AttributeError):
                setattr(value, name, Z2)
        with pytest.raises(AttributeError):
            value.extra = 1.0
    # _replace builds through the validating constructor
    with pytest.raises(ValueError, match="not unitary"):
        m._replace(S=2.0 * np.eye(2))
    with pytest.raises(ValueError, match="mixed dimensions"):
        d._replace(time=np.zeros((3, 3)))


def test_flow_coefficients_of_identity_vanish():
    """X = I commutes with everything and S*IS - I = 0."""
    m = random_model(np.random.default_rng(2), 3)
    fc = flow_coefficients(np.eye(3), m)
    for block in (fc.alpha, fc.alpha_dagger, fc.lam, fc.theta):
        assert np.max(np.abs(block)) <= 1e-13


def test_flow_coefficients_pure_hamiltonian():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 3)
    x = random_hermitian(rng, 3)
    m = ModelOperators(X=x, H=h, L=np.zeros((3, 3)), S=np.eye(3))
    fc = flow_coefficients(x, m)
    assert np.max(np.abs(fc.alpha)) == 0.0
    assert np.max(np.abs(fc.alpha_dagger)) == 0.0
    assert np.max(np.abs(fc.lam)) <= 1e-15
    assert np.max(np.abs(fc.theta - 1j * commutator(h, x))) <= 1e-13


def test_flow_coefficients_match_loop_oracle():
    rng = np.random.default_rng(6)
    for dim in (2, 2, 3, 3, 4):
        m = random_model(rng, dim)
        x = random_hermitian(rng, dim)
        got = flow_coefficients(x, m)
        want = oracles.flow_coefficients_loops(x, m.H, m.L, m.S)
        for g, w in zip((got.alpha, got.alpha_dagger, got.lam, got.theta), want):
            assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, float(np.abs(w).max()))


def test_flow_coefficients_adjoint_structure():
    """For Hermitian X: alpha* = alpha_dagger, lam and theta Hermitian."""
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = random_model(rng, 3)
        fc = flow_coefficients(m.X, m)
        assert np.max(np.abs(adjoint(fc.alpha) - fc.alpha_dagger)) <= 1e-12
        assert np.max(np.abs(adjoint(fc.lam) - fc.lam)) <= 1e-12
        assert np.max(np.abs(adjoint(fc.theta) - fc.theta)) <= 1e-12


def test_flow_coefficients_linear_in_x():
    rng = np.random.default_rng(10)
    m = random_model(rng, 3)
    x1, x2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    a, b = 0.7, -2.2
    fc = flow_coefficients(a * x1 + b * x2, m)
    f1, f2 = flow_coefficients(x1, m), flow_coefficients(x2, m)
    for got, p, q in zip(
        (fc.alpha, fc.alpha_dagger, fc.lam, fc.theta),
        (f1.alpha, f1.alpha_dagger, f1.lam, f1.theta),
        (f2.alpha, f2.alpha_dagger, f2.lam, f2.theta),
    ):
        assert np.max(np.abs(got - (a * p + b * q))) <= 1e-12


def _structure_defects(coefficients, x, y, m: ModelOperators) -> list:
    """The defects of the Evans-Hudson structure equations at (X, Y), for
    lambda, alpha_dagger, alpha and theta in turn: each of XY against
    c(X)Y + Xc(Y) + (its Ito correction), over ||X|| ||Y|| (1 + ||H|| + ||L||)^2,
    which bounds every product in them (over 1 where X or Y is 0)."""
    alpha, alpha_dagger, lam, theta = coefficients(np.stack([x, y, x @ y]), m.H, m.L, m.S)
    rhs = (
        lam[0] @ y + x @ lam[1] + lam[0] @ lam[1],
        alpha_dagger[0] @ y + x @ alpha_dagger[1] + lam[0] @ alpha_dagger[1],
        alpha[0] @ y + x @ alpha[1] + alpha[0] @ lam[1],
        theta[0] @ y + x @ theta[1] + alpha[0] @ alpha_dagger[1],
    )
    norm = lambda a: float(np.linalg.norm(a))
    scale = norm(x) * norm(y) * (1.0 + norm(m.H) + norm(m.L)) ** 2 or 1.0
    return [norm(c[2] - want) / scale for c, want in zip((lam, alpha_dagger, alpha, theta), rhs)]


@st.composite
def _flow_models(draw):
    """(model, X, Y) at d = 1-6: a drawn model, one with S = I (the Brownian
    case), or the cyclic shift of shift_model (the Poisson case) with drawn H
    and L; X and Y are drawn complex matrices, X also the model's X."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["drawn", "brownian", "shift"]))
    if kind == "shift":
        m = shift_model(dim)._replace(H=random_hermitian(rng, dim), L=random_complex(rng, dim, 0.8))
    else:
        m = random_model(rng, dim, brownian=kind == "brownian")
    x = m.X if draw(st.booleans()) else random_complex(rng, dim)
    return m, x, random_complex(rng, dim)


@settings(max_examples=60, deadline=None)
@given(_flow_models())
def test_flow_coefficients_meet_the_structure_equations(drawn):
    # j_t(X) = U_t* X U_t is a *-homomorphism, so the Ito product rule on
    # j_t(XY) gives each coefficient of XY from those of X and Y
    m, x, y = drawn
    assert max(_structure_defects(_coefficients, x, y, m)) <= 1e-13


def test_structure_equations_catch_a_mutant_alpha():
    # negative control: alpha = S [L*, X] for [L*, X] S breaks the alpha
    # equation and, through alpha(X) alpha_dagger(Y), the theta one
    def mutant(x, h, l, s):
        alpha, alpha_dagger, lam, theta = _coefficients(x, h, l, s)
        ld = adjoint(l)
        return s @ (ld @ x - x @ ld), alpha_dagger, lam, theta

    rng = np.random.default_rng(46)
    m = random_model(rng, 3)
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    lam, alpha_dagger, alpha, theta = _structure_defects(mutant, x, y, m)
    assert max(lam, alpha_dagger) <= 1e-13
    assert min(alpha, theta) >= 1e-3


def test_flow_differential_slots():
    m = random_model(np.random.default_rng(12), 2)
    d = flow_differential(m.X, m)
    fc = flow_coefficients(m.X, m)
    assert np.array_equal(d.creation, fc.alpha_dagger)
    assert np.array_equal(d.conservation, fc.lam)
    assert np.array_equal(d.annihilation, fc.alpha)
    assert np.array_equal(d.time, fc.theta)


def test_ito_product_annihilation_creation_gives_time():
    a_mat = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
    b_mat = np.array([[1.0, 1.0], [0.0, 3.0]], dtype=complex)
    da = QuantumStochasticDifferential(creation=Z2, conservation=Z2, annihilation=a_mat, time=Z2)
    dad = QuantumStochasticDifferential(creation=b_mat, conservation=Z2, annihilation=Z2, time=Z2)
    prod = ito_product(da, dad)
    assert np.array_equal(prod.time, a_mat @ b_mat)
    assert np.max(np.abs(prod.creation)) == 0.0
    assert np.max(np.abs(prod.conservation)) == 0.0
    assert np.max(np.abs(prod.annihilation)) == 0.0


def test_ito_product_creation_conservation_vanishes():
    dad = QuantumStochasticDifferential(creation=np.eye(2, dtype=complex), conservation=Z2, annihilation=Z2, time=Z2)
    dl = QuantumStochasticDifferential(creation=Z2, conservation=np.eye(2, dtype=complex), annihilation=Z2, time=Z2)
    prod = ito_product(dad, dl)
    for block in (prod.creation, prod.conservation, prod.annihilation, prod.time):
        assert np.max(np.abs(block)) == 0.0


def test_ito_product_conservation_creation():
    lam1 = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)
    c = np.array([[1.0, 1.0], [0.0, 3.0]], dtype=complex)
    dl = QuantumStochasticDifferential(creation=Z2, conservation=lam1, annihilation=Z2, time=Z2)
    dad = QuantumStochasticDifferential(creation=c, conservation=Z2, annihilation=Z2, time=Z2)
    prod = ito_product(dl, dad)
    assert np.array_equal(prod.creation, lam1 @ c)
    assert np.max(np.abs(prod.conservation)) == 0.0


def test_ito_product_bilinear_and_associative():
    rng = np.random.default_rng(14)

    def rand_qsd():
        blocks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        return QuantumStochasticDifferential(
            creation=blocks[0], conservation=blocks[1], annihilation=blocks[2], time=blocks[3]
        )

    def slotwise_sum(d1, d2):
        return QuantumStochasticDifferential(*map(np.add, d1, d2))

    for _ in range(10):
        u, v, w = rand_qsd(), rand_qsd(), rand_qsd()
        left = ito_product(slotwise_sum(u, v), w)
        split = slotwise_sum(ito_product(u, w), ito_product(v, w))
        for g, h in zip(left, split):
            assert np.max(np.abs(g - h)) <= 1e-12
        asc_l = ito_product(ito_product(u, v), w)
        asc_r = ito_product(u, ito_product(v, w))
        for g, h in zip(asc_l, asc_r):
            assert np.max(np.abs(g - h)) <= 1e-12


def test_ito_product_dim_mismatch():
    d2 = QuantumStochasticDifferential(creation=Z2, conservation=Z2, annihilation=Z2, time=Z2)
    z3 = np.zeros((3, 3), dtype=complex)
    d3 = QuantumStochasticDifferential(creation=z3, conservation=z3, annihilation=z3, time=z3)
    with pytest.raises(ValueError):
        ito_product(d2, d3)


def test_power_square_slots():
    m = random_model(np.random.default_rng(16), 3)
    fc = flow_coefficients(m.X, m)
    p2 = qsd_power_closed_form(m.X, m, 2)
    assert np.max(np.abs(p2.creation - fc.lam @ fc.alpha_dagger)) == 0.0
    assert np.max(np.abs(p2.conservation - fc.lam @ fc.lam)) == 0.0
    assert np.max(np.abs(p2.annihilation - fc.alpha @ fc.lam)) == 0.0
    assert np.max(np.abs(p2.time - fc.alpha @ fc.alpha_dagger)) == 0.0


def test_power_square_brownian_case():
    """With S = I the square keeps only the time slot (the Ito rule dB^2 = dt)."""
    rng = np.random.default_rng(18)
    m = random_model(rng, 3, brownian=True)
    p2 = qsd_power_closed_form(m.X, m, 2)
    assert np.max(np.abs(p2.creation)) <= 1e-14
    assert np.max(np.abs(p2.conservation)) <= 1e-14
    assert np.max(np.abs(p2.annihilation)) <= 1e-14
    fc = flow_coefficients(m.X, m)
    assert np.max(np.abs(p2.time - fc.alpha @ fc.alpha_dagger)) <= 1e-14


def test_power_closed_matches_iterated():
    rng = np.random.default_rng(20)
    for dim, k in ((2, 2), (3, 3), (3, 5), (4, 6)):
        m = random_model(rng, dim)
        closed = qsd_power_closed_form(m.X, m, k)
        iterated = qsd_power_iterated(m.X, m, k)
        scale = max(1.0, float(np.abs(iterated.time).max()))
        for g, h in zip(
            (closed.creation, closed.conservation, closed.annihilation, closed.time),
            (iterated.creation, iterated.conservation, iterated.annihilation, iterated.time),
        ):
            assert np.max(np.abs(g - h)) <= 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 7), st.integers(1, 4))
def test_stacked_power_rule_pass_is_the_per_model_one(seed, dim, k_max, n):
    # one stacked pass over n models gives, bit for bit, each model's
    # closed-form and iterated powers and the deviation ito-check reports
    rng = np.random.default_rng(seed)
    models = [random_model(rng, dim) for _ in range(n)]
    stacks = [np.stack([getattr(m, name) for m in models]) for name in "XHLS"]
    worst = np.zeros(n)
    for k, closed, iterated in _power_pairs(*stacks, k_max):
        for i, m in enumerate(models):
            want_closed = qsd_power_closed_form(m.X, m, k)
            want_iterated = qsd_power_iterated(m.X, m, k)
            for got_c, got_i, c, it in zip(closed, iterated, want_closed, want_iterated):
                assert got_c[i].tobytes() == c.tobytes()
                assert got_i[i].tobytes() == it.tobytes()
                scale = max(1.0, float(np.linalg.norm(c)))
                worst[i] = max(worst[i], float(np.linalg.norm(c - it)) / scale)
    assert k == k_max
    assert power_rule_deviation(*stacks, k_max).tobytes() == worst.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_model_draws_are_the_per_model_ones(dim):
    # ito-check draws a stack of models in one call: bit for bit the models
    # of one random_model call per trial, and the stream left where those
    # calls leave it
    rng = np.random.default_rng(7)
    models = [random_model(rng, dim) for _ in range(100)]
    stacked_rng = np.random.default_rng(7)
    stacks = random_model_stacks(stacked_rng, 100, dim)
    for name, stack in zip("XHLS", stacks):
        assert stack.tobytes() == np.stack([getattr(m, name) for m in models]).tobytes(), name
    assert stacked_rng.standard_normal() == rng.standard_normal()


def test_stacked_power_rule_pass_fails_as_the_per_model_one_on_overflow():
    # powers of a large X overflow. The per-model loop meets model 0's
    # "time" slot at k = 15 first, though model 2's "creation" slot
    # overflows already at k = 9: the stacked pass must report the former.
    rng = np.random.default_rng(11)
    models = [random_model(rng, 3) for _ in range(3)]
    models = [
        ModelOperators(X=c * m.X, H=m.H, L=m.L, S=m.S)
        for c, m in zip((1e20, 1e28, 1e36), models)
    ]
    stacks = [np.stack([getattr(m, name) for m in models]) for name in "XHLS"]
    with np.errstate(all="ignore"), pytest.raises(ValueError) as per_model:
        for m in models:
            for k in range(2, 21):
                qsd_power_closed_form(m.X, m, k)
                qsd_power_iterated(m.X, m, k)
    # the stacked pass raises it as a numerical failure, not a ValueError
    with pytest.raises(FloatingPointError) as stacked:
        power_rule_deviation(*stacks, 20)
    assert str(per_model.value) == "time: non-finite entries"
    assert str(stacked.value) == str(per_model.value)


def test_power_rule_deviation_raises_on_an_overflowing_norm():
    # the cubes of a 1e100 X are finite, but their squares overflow the
    # Frobenius norm: the deviation would be inf/inf, never compared
    m = random_model(np.random.default_rng(13), 2)
    stacks = [a[np.newaxis] for a in (1e100 * m.X, m.H, m.L, m.S)]
    with pytest.raises(FloatingPointError, match="NaN"):
        power_rule_deviation(*stacks, 3)


def test_power_first_is_flow_differential():
    m = random_model(np.random.default_rng(22), 2)
    p1 = qsd_power_iterated(m.X, m, 1)
    d = flow_differential(m.X, m)
    assert np.array_equal(p1.creation, d.creation)
    assert np.array_equal(p1.time, d.time)


def test_power_domain():
    m = random_model(np.random.default_rng(24), 2)
    with pytest.raises(ValueError):
        qsd_power_closed_form(m.X, m, 1)
    with pytest.raises(ValueError):
        qsd_power_iterated(m.X, m, 0)


def test_brownian_reduction_passes_for_identity_scattering():
    rng = np.random.default_rng(26)
    for _ in range(5):
        m = random_model(rng, 3, brownian=True)
        rep = brownian_reduction_check(m)
        assert isinstance(rep, BrownianReport)
        assert rep.passed
        assert rep.lambda_deviation <= 1e-14
    # with L = 0 as well, both brackets die
    m0 = _zeros_model(3)
    rep0 = brownian_reduction_check(m0)
    assert rep0.alpha_deviation == 0.0
    assert rep0.alpha_dagger_deviation == 0.0


def test_brownian_reduction_requires_identity_scattering():
    s = np.diag([1.0, np.exp(0.25j * np.pi)])
    m = ModelOperators(X=np.eye(2), H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=s)
    with pytest.raises(ValueError, match="identity"):
        brownian_reduction_check(m)


def test_poisson_shift_model_d5():
    """Cyclic shift on 5 levels: lam = diag(1,1,1,1,-4)."""
    rep = poisson_reduction_check(shift_model(5), list(range(4)))
    assert rep.interior_deviation <= 1e-14
    assert rep.wrap_defect == 4.0
    assert rep.full_deviation == 5.0
    assert abs(rep.trace_lambda) <= 1e-12
    assert rep.passed


def test_poisson_identity_scattering_fails():
    """S = I gives lam = 0, distance one from the identity everywhere."""
    m = ModelOperators(X=np.diag([0.0, 1.0, 2.0]), H=np.zeros((3, 3)), L=np.zeros((3, 3)), S=np.eye(3))
    rep = poisson_reduction_check(m, [0, 1])
    assert rep.interior_deviation == 1.0
    assert rep.full_deviation == 1.0
    assert not rep.passed


def test_poisson_dim_one_has_no_interior():
    rep = poisson_reduction_check(shift_model(1), [0])
    # the single site is its own wrap point: S = I at d = 1
    assert not rep.passed


def test_poisson_mask_validation():
    m = shift_model(3)
    with pytest.raises(ValueError):
        poisson_reduction_check(m, [])
    with pytest.raises(ValueError):
        poisson_reduction_check(m, [5])


def test_lindblad_generator_cases():
    rng = np.random.default_rng(28)
    m = random_model(rng, 3)
    assert np.max(np.abs(lindblad_generator(np.eye(3), m))) <= 1e-14
    h = random_hermitian(rng, 3)
    x = random_hermitian(rng, 3)
    m0 = ModelOperators(X=x, H=h, L=np.zeros((3, 3)), S=np.eye(3))
    assert np.max(np.abs(lindblad_generator(x, m0) - 1j * commutator(h, x))) <= 1e-13


def test_lindblad_generator_equals_time_slot():
    rng = np.random.default_rng(30)
    for _ in range(5):
        m = random_model(rng, 3)
        x = random_hermitian(rng, 3)
        fc = flow_coefficients(x, m)
        assert np.max(np.abs(lindblad_generator(x, m) - fc.theta)) <= 1e-12


def test_semigroup_fixes_identity():
    m = random_model(np.random.default_rng(32), 3)
    out = semigroup_evolve(np.eye(3), m, 0.9)
    assert np.max(np.abs(out - np.eye(3))) <= 1e-9


def test_semigroup_unitary_case():
    """L = 0 evolves by conjugation with exp(iHt)."""
    rng = np.random.default_rng(34)
    h = random_hermitian(rng, 3)
    x = random_hermitian(rng, 3)
    m = ModelOperators(X=x, H=h, L=np.zeros((3, 3)), S=np.eye(3))
    got = semigroup_evolve(x, m, 0.8)
    u = oracles.taylor_expm(1j * 0.8 * h)
    assert np.max(np.abs(got - u @ x @ u.conj().T)) <= 1e-9


def test_semigroup_matches_superoperator_oracle():
    rng = np.random.default_rng(36)
    for dim in (2, 3, 4):
        m = random_model(rng, dim)
        x0 = random_hermitian(rng, dim)
        t = 0.6
        got = semigroup_evolve(x0, m, t)
        want = oracles.superoperator_evolve(x0, m.H, m.L, t)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, float(np.abs(want).max()))


def test_semigroup_frozen_expectation():
    """Pinned field value for a fixed 2x2 model at t = 0.7."""
    x0 = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, -0.5]])
    h = np.array([[0.2, 0.5j], [-0.5j, -0.4]])
    l_op = np.array([[0.1, 0.7], [0.2j, -0.3]])
    m = ModelOperators(X=x0, H=h, L=l_op, S=np.eye(2))
    out = semigroup_evolve(x0, m, 0.7)
    e0 = np.array([1.0, 0.0])
    val = expectation(e0, 0.5 * (out + adjoint(out)))
    # value from the vectorized-superoperator oracle
    assert abs(val - 0.6288599451017296) <= 1e-9


def test_semigroup_above_the_dense_bound_matches_superoperator_oracle():
    # the first dimension past flows._DENSE_MAX_DIM runs the RK4 loop
    dim = qbs.flows._DENSE_MAX_DIM + 1
    rng = np.random.default_rng(42)
    m = random_model(rng, dim)
    x0 = random_hermitian(rng, dim)
    got = semigroup_evolve(x0, m, 0.6)
    want = oracles.superoperator_evolve(x0, m.H, m.L, 0.6)
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, float(np.abs(want).max()))


# eigenvalues of a drawn X0 >= 0: exact zeros, and ties at the top
X0_SPECTRUM = st.sampled_from([0.0, 1e-3, 1.0, 4.0])
# the first dimension that semigroup_evolve runs as the RK4 loop
LOOP_DIM = qbs.flows._DENSE_MAX_DIM + 1


def positive_x0(rng, spectrum) -> np.ndarray:
    """U diag(spectrum) U*, U drawn from rng."""
    u = random_unitary(rng, len(spectrum))
    return hermitian_part((u * np.array(spectrum)) @ u.conj().T)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(X0_SPECTRUM, min_size=LOOP_DIM, max_size=LOOP_DIM), st.sampled_from([0.01, 0.5]))
def test_semigroup_on_the_rk4_loop_keeps_x0_positive_and_contracts_it(seed, spectrum, t):
    # e^{t theta} is unital and completely positive: X0 >= 0 gives X_t >= 0,
    # and ||X_t||_2 <= ||X0||_2, each within the step-doubling tolerance of
    # the lindblad command (1e-8)
    rng = np.random.default_rng(seed)
    m = random_model(rng, LOOP_DIM)
    x0 = positive_x0(rng, spectrum)
    x_t = semigroup_evolve(x0, m, t)
    slack = 1e-8 * max(1.0, float(np.linalg.norm(x_t)))
    assert np.linalg.norm(x_t - semigroup_evolve(x0, m, t, steps=2 * default_steps(t))) <= slack
    assert np.linalg.eigvalsh(hermitian_part(x_t))[0] >= -slack
    assert np.linalg.norm(x_t, 2) <= np.linalg.norm(x0, 2) + slack


def test_semigroup_dense_propagator_is_the_rk4_loop(monkeypatch):
    # at the bound, the powered one-step superoperator gives what the
    # step-by-step loop gives, to roundoff
    dim = qbs.flows._DENSE_MAX_DIM
    rng = np.random.default_rng(44)
    m = random_model(rng, dim)
    x0 = random_hermitian(rng, dim)
    dense = semigroup_evolve(x0, m, 0.7)
    monkeypatch.setattr(qbs.flows, "_DENSE_MAX_DIM", dim - 1)
    loop = semigroup_evolve(x0, m, 0.7)
    assert np.max(np.abs(dense - loop)) <= 1e-13 * max(1.0, float(np.abs(loop).max()))


def test_semigroup_domain():
    m = random_model(np.random.default_rng(38), 2)
    with pytest.raises(ValueError):
        semigroup_evolve(m.X, m, -0.1)
    with pytest.raises(ValueError):
        semigroup_evolve(m.X, m, 1.0, steps=0)
    same = semigroup_evolve(m.X, m, 0.0)
    assert np.array_equal(same, m.X)


def test_expectation_examples():
    e1 = np.array([1.0, 0.0])
    assert expectation(e1, np.eye(2)) == 1.0
    assert expectation(e1, np.diag([3.0, 5.0])) == 3.0
    rng = np.random.default_rng(40)
    u = random_state(rng, 4)
    m = random_hermitian(rng, 4)
    direct = sum(
        (u[i].conjugate() * m[i, j] * u[j]).real for i in range(4) for j in range(4)
    )
    assert abs(expectation(u, m) - direct) <= 1e-12


def test_expectation_requires_normalized_state():
    with pytest.raises(ValueError, match="norm"):
        expectation(np.array([1.0, 1.0]), np.eye(2))
    # a NaN norm fails the check too
    with pytest.raises(ValueError, match="norm"):
        expectation(np.array([np.nan, 0.0]), np.eye(2))
