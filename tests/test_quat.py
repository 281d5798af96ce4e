import math
import warnings

import numpy as np
import pytest

from flatgate import quat
from flatgate.errors import NotSpecialUnitary
from flatgate.quat import (
    E1, E2, E3, ONE,
    ImagQuaternion, Quaternion, SU2Matrix, UnitQuaternion,
    conj, exp_pure, from_su2, mul, rotate_vector, to_su2,
)


def qarr(q):
    return q.as_array()


def test_basis_products():
    assert np.array_equal(qarr(mul(E1, E2)), qarr(E3))
    assert np.array_equal(qarr(mul(E2, E3)), qarr(E1))
    assert np.array_equal(qarr(mul(E3, E1)), qarr(E2))


def test_identity_element():
    rng = np.random.default_rng(0)
    q = quat.as_unit(quat.random_unit(rng))
    assert np.array_equal(qarr(mul(ONE, q)), qarr(q))
    assert np.array_equal(qarr(mul(q, ONE)), qarr(q))


def test_associativity_of_basis_triple():
    left = mul(mul(E1, E2), E3)
    right = mul(E1, mul(E2, E3))
    assert np.array_equal(qarr(left), qarr(right))
    assert np.array_equal(qarr(left), [-1.0, 0.0, 0.0, 0.0])


def test_conj_examples():
    assert np.array_equal(qarr(conj(E1)), [0.0, -1.0, 0.0, 0.0])
    assert np.array_equal(qarr(conj(ONE)), [1.0, 0.0, 0.0, 0.0])


def test_negation_keeps_the_type():
    for q in (Quaternion(1.0, -2.0, 0.5, 0.0), E3):
        assert type(-q) is type(q) and np.array_equal(qarr(-q), -qarr(q))


def test_unit_times_conjugate_is_one():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = quat.as_unit(quat.random_unit(rng))
        assert np.max(np.abs(qarr(mul(q, conj(q))) - [1, 0, 0, 0])) <= 1e-12


def test_norm_is_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        assert mul(a, b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


def test_anti_commutation():
    basis = [E1, E2, E3]
    for i, ei in enumerate(basis):
        sq = mul(ei, ei)
        assert np.max(np.abs(qarr(sq) - [-1, 0, 0, 0])) <= 1e-15
        for j, ej in enumerate(basis):
            if i == j:
                continue
            s = qarr(mul(ei, ej)) + qarr(mul(ej, ei))
            assert np.max(np.abs(s)) <= 1e-15


def test_exp_pure_examples():
    got = exp_pure(ImagQuaternion(0.0, math.pi / 2, 0.0))
    assert np.max(np.abs(qarr(got) - qarr(E2))) <= 1e-15
    assert np.array_equal(qarr(exp_pure(ImagQuaternion(0, 0, 0))), [1, 0, 0, 0])


def test_exp_commutation_identity():
    # exp(phi e_k) e_j = e_j exp(-phi e_k)
    rng = np.random.default_rng(3)
    for _ in range(50):
        phi = rng.uniform(-10, 10)
        lhs = mul(exp_pure(ImagQuaternion(phi, 0, 0)), E2)
        rhs = mul(E2, exp_pure(ImagQuaternion(-phi, 0, 0)))
        assert np.max(np.abs(qarr(lhs) - qarr(rhs))) <= 1e-12


def test_exp_pure_inverse():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = ImagQuaternion(*rng.normal(size=3))
        p = mul(exp_pure(v), exp_pure(-v))
        assert np.max(np.abs(qarr(p) - [1, 0, 0, 0])) <= 1e-12


def test_exp_pure_small_angle_branch():
    for mag in (1e-12, 9.999e-9, 1.0001e-8, 1e-7):
        v = ImagQuaternion(mag, 0.0, 0.0)
        got = exp_pure(v)
        assert got.x == pytest.approx(math.sin(mag), abs=1e-24)
        assert got.w == pytest.approx(math.cos(mag), abs=1e-16)


def test_su2_examples():
    assert np.max(np.abs(to_su2(ONE).m - np.eye(2))) == 0.0
    assert np.max(np.abs(to_su2(E3).m - np.diag([-1j, 1j]))) == 0.0


def test_su2_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = quat.as_unit(quat.random_unit(rng))
        back = from_su2(to_su2(q))
        assert np.max(np.abs(qarr(back) - qarr(q))) <= 1e-12


def test_su2_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = quat.as_unit(quat.random_unit(rng))
        b = quat.as_unit(quat.random_unit(rng))
        lhs = to_su2(mul(a, b)).m
        rhs = to_su2(a).m @ to_su2(b).m
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_su2_rejects_bad_matrices():
    with pytest.raises(ValueError, match="2x2"):
        SU2Matrix(np.eye(3))
    with pytest.raises(NotSpecialUnitary):
        SU2Matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(NotSpecialUnitary):
        SU2Matrix(np.diag([1j, 1j]))  # unitary but det = -1
    # m* m would overflow, or be NaN, which compares false with any bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e300, np.inf, np.nan):
            with pytest.raises(NotSpecialUnitary):
                SU2Matrix(np.diag([big, big]))
            with pytest.raises(NotSpecialUnitary):
                SU2Matrix(np.array([[0.0, complex(0.0, big)], [1.0, 0.0]]))


def test_rotate_vector_examples():
    v = rotate_vector(ONE, ImagQuaternion(1, 0, 0))
    assert np.array_equal(v.as_array(), [1, 0, 0])
    g = exp_pure(ImagQuaternion(math.pi / 4, 0, 0))
    v = rotate_vector(g, ImagQuaternion(1, 0, 0))
    assert np.max(np.abs(v.as_array() - [1, 0, 0])) <= 1e-15
    # documented sign: conjugation by exp((pi/4) e3) carries e1 to -e2
    g = exp_pure(ImagQuaternion(0, 0, math.pi / 4))
    v = rotate_vector(g, ImagQuaternion(1, 0, 0))
    assert np.max(np.abs(v.as_array() - [0, -1, 0])) <= 1e-15


def test_rotate_vector_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = quat.as_unit(quat.random_unit(rng))
        v = ImagQuaternion(*rng.normal(size=3))
        assert rotate_vector(g, v).norm() == pytest.approx(v.norm(), rel=1e-13)


def test_unit_quaternion_renormalizes_small_errors():
    q = UnitQuaternion(1.0 + 5e-7, 0.0, 0.0, 0.0)
    assert abs(q.norm() - 1.0) <= 1e-12
    assert abs(q.w - 1.0) <= 1e-6


def test_unit_quaternion_rejects_large_errors():
    with pytest.raises(ValueError):
        UnitQuaternion(1.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitQuaternion(0.0, 0.0, 0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            UnitQuaternion(bad, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 1.0, bad)


def test_array_kernels_match_scalar_ops():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(20, 4))
    b = rng.normal(size=(20, 4))
    prod = quat.qmul_arr(a, b)
    for i in range(20):
        expect = mul(Quaternion(*a[i]), Quaternion(*b[i]))
        assert np.max(np.abs(prod[i] - expect.as_array())) <= 1e-13
    assert np.array_equal(quat.qconj_arr(a)[:, 0], a[:, 0])
    assert np.array_equal(quat.qconj_arr(a)[:, 1:], -a[:, 1:])


def test_pairs_are_rows_and_pair_products_do_not_depend_on_array_size():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(20000, 4))
    b = rng.normal(size=(20000, 4))
    pa, pb = quat.row_pair(a)
    assert np.array_equal(pa.real, a[:, 0]) and np.array_equal(pa.imag, a[:, 3])
    assert np.array_equal(pb.real, a[:, 1]) and np.array_equal(pb.imag, a[:, 2])
    assert np.array_equal(quat.pair_rows(pa, pb), a)
    # the generator u1 e1 + u2 e2 + dr e3 is the pair (i dr, u1 + i u2)
    ga, gb = quat.row_pair(np.array([0.0, 0.3, -0.7, 1.1]))
    assert ga == 1.1j and gb == 0.3 - 0.7j
    # 320 kB operands, large enough for numpy to reuse temporaries
    prod = quat.pmul(pa, pb, *quat.row_pair(b))
    for i in (0, 777, 19999):
        one = quat.pmul(pa[i:i + 1], pb[i:i + 1], *quat.row_pair(b[i:i + 1]))
        assert one[0][0] == prod[0][i] and one[1][0] == prod[1][i]


def test_scalar_product_and_exponential_are_the_one_row_kernels():
    # the scalar product had its own 16 terms, which rounded differently
    # from the pair product on 1,822 of these 2,000 products
    rng = np.random.default_rng(10)
    a, b = quat.random_unit(rng, 2000), quat.random_unit(rng, 2000)
    for i in range(2000):
        row = quat.qmul_arr(a[i:i + 1], b[i:i + 1])[0]
        assert qarr(mul(Quaternion(*a[i]), Quaternion(*b[i]))).tobytes() == row.tobytes()
        # unit inputs give the unit quaternion of the same row
        ua, ub = quat.as_unit(a[i]), quat.as_unit(b[i])
        row = quat.qmul_arr(qarr(ua)[None], qarr(ub)[None])[0]
        assert qarr(mul(ua, ub)).tobytes() == qarr(quat.as_unit(row)).tobytes()
    # generators across the small-angle switch and beyond one turn
    v = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-12, 2, size=(2000, 1))
    for x, y, z in v.tolist():
        pa, pb = quat.pexp(np.array([complex(0.0, z)]), np.array([complex(x, y)]))
        row = quat.pair_rows(pa, pb)[0]
        assert qarr(exp_pure(ImagQuaternion(x, y, z))).tobytes() == qarr(quat.as_unit(row)).tobytes()


def test_scalar_product_and_exponential_keep_their_contracts():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = Quaternion(1e200, 1e200, 0.0, 0.0)
        assert np.isinf(qarr(mul(big, big))).any()
        assert type(mul(E1, E2)) is UnitQuaternion and type(mul(big, E1)) is Quaternion
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                exp_pure(ImagQuaternion(0.0, bad, 0.0))
