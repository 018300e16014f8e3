"""Jacobi kernel: a frozen 40-digit table, odd/even symmetry, NaN and
infinite arguments, and bytes that do not depend on the rest of the call."""

import numpy as np
import pytest

from kdvwaves.elliptic import elliptic_K, jacobi_sn_cn_dn

NEXT_BELOW_ONE = float(np.nextafter(1.0, 0.0))
MS = (1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 5e-13, NEXT_BELOW_ONE)

# (m, u, (sn, cn, dn), (e_sn, e_cn, e_dn)): m and u the exact doubles
# written here, u in {+-0, 5e-324, 1e-200, 1e-155, 1e-9, K, 2K, +-1000} with
# K = elliptic_K(m); (sn, cn, dn) from mpmath.ellipfun at 40 digits, rounded
# once; e the error of the descending AGM phi-recursion (A&S 16.4) against
# the 40-digit values, rounded up to two digits, which this kernel replaced.
TABLE = (
    (1e-12, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1e-12, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1e-12, 5e-324, (5e-324, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1e-12, 1e-200, (1e-200, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1e-12, 1e-155, (1e-155, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1e-12, 1e-09, (1e-09, 1.0, 1.0),
     (1.7e-28, 5.1e-19, 5.1e-31)),
    (1e-12, 1.5707963267952894, (1.0, -3.6592073477957905e-17, 0.9999999999995),
     (6.7e-34, 9.8e-17, 4.5e-17)),
    (1e-12, 3.1415926535905787, (-7.318414695595241e-17, -1.0, 1.0),
     (2e-16, 2.7e-33, 0.0)),
    (1e-12, 1000.0, (0.8268795403914732, 0.5623790764973268, 0.9999999999996582),
     (9.7e-17, 9e-17, 2.8e-17)),
    (1e-12, -1000.0, (-0.8268795403914732, 0.5623790764973268, 0.9999999999996582),
     (9.7e-17, 9e-17, 2.8e-17)),
    (0.1, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.1, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.1, 5e-324, (5e-324, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.1, 1e-200, (1e-200, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.1, 1e-155, (1e-155, 1.0, 1.0),
     (2.1e-171, 0.0, 0.0)),
    (0.1, 1e-09, (1e-09, 1.0, 1.0),
     (4.2e-25, 5.1e-19, 5.1e-20)),
    (0.1, 1.6124413487202194, (1.0, 1.9003141881432768e-17, 0.9486832980505138),
     (1.9e-34, 4.3e-17, 2.9e-17)),
    (0.1, 3.2248826974404388, (4.00621406964433e-17, -1.0, 1.0),
     (8.3e-17, 8.1e-34, 8.1e-35)),
    (0.1, 1000.0, (0.2820967537675833, 0.9593859606611885, 0.9960131234835107),
     (2.4e-14, 7.1e-15, 5.9e-16)),
    (0.1, -1000.0, (-0.2820967537675833, 0.9593859606611885, 0.9960131234835107),
     (2.4e-14, 7.1e-15, 5.9e-16)),
    (0.5, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.5, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.5, 5e-324, (5e-324, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.5, 1e-200, (1e-200, 1.0, 1.0),
     (1.5e-216, 0.0, 0.0)),
    (0.5, 1e-155, (1e-155, 1.0, 1.0),
     (2.1e-171, 0.0, 0.0)),
    (0.5, 1e-09, (1e-09, 1.0, 1.0),
     (2.1e-25, 5.1e-19, 2.6e-19)),
    (0.5, 1.8540746773013719, (1.0, 2.98456382067177e-17, 0.7071067811865476),
     (4.5e-34, 2e-16, 4.9e-17)),
    (0.5, 3.7081493546027438, (8.441621265924157e-17, -1.0, 1.0),
     (4.1e-16, 3.6e-33, 1.8e-33)),
    (0.5, 1000.0, (-0.8878321984811046, 0.4601673471034297, 0.7783810080353349),
     (2.4e-14, 4.5e-14, 1.4e-14)),
    (0.5, -1000.0, (0.8878321984811046, 0.4601673471034297, 0.7783810080353349),
     (2.4e-14, 4.5e-14, 1.4e-14)),
    (0.9, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.9, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.9, 5e-324, (5e-324, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.9, 1e-200, (1e-200, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.9, 1e-155, (1e-155, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (0.9, 1e-09, (1e-09, 1.0, 1.0),
     (3.2e-28, 5.1e-19, 4.6e-19)),
    (0.9, 2.5780921133481733, (1.0, -1.5610292995737907e-17, 0.3162277660168379),
     (1.3e-34, 1.5e-16, 1.3e-17)),
    (0.9, 5.156184226696347, (-9.872816161820983e-17, -1.0, 1.0),
     (1.2e-15, 4.9e-33, 4.4e-33)),
    (0.9, 1000.0, (-0.29149303551256067, 0.9565729508237587, 0.9610039694105876),
     (4.8e-14, 1.5e-14, 1.4e-14)),
    (0.9, -1000.0, (0.29149303551256067, 0.9565729508237587, 0.9610039694105876),
     (4.8e-14, 1.5e-14, 1.4e-14)),
    (1.0 - 1e-9, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1.0 - 1e-9, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1.0 - 1e-9, 5e-324, (5e-324, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1.0 - 1e-9, 1e-200, (1e-200, 1.0, 1.0),
     (3e-216, 0.0, 0.0)),
    (1.0 - 1e-9, 1e-155, (1e-155, 1.0, 1.0),
     (6.3e-171, 0.0, 0.0)),
    (1.0 - 1e-9, 1e-09, (1e-09, 1.0, 1.0),
     (4.2e-25, 5.1e-19, 5e-19)),
    (1.0 - 1e-9, 11.747927296421043, (1.0, 2.6074117617527262e-20, 3.162277615450719e-05),
     (3.5e-40, 6.2e-17, 1.2e-21)),
    (1.0 - 1e-9, 23.495854592842086, (1.6490720163296556e-15, -1.0, 1.0),
     (2.1e-15, 1.4e-30, 1.4e-30)),
    (1.0 - 1e-9, 1000.0, (0.9999999980767088, -6.20208229621002e-05, 6.961740047407446e-05),
     (5e-17, 3.6e-15, 3.2e-15)),
    (1.0 - 1e-9, -1000.0, (-0.9999999980767088, -6.20208229621002e-05, 6.961740047407446e-05),
     (5e-17, 3.6e-15, 3.2e-15)),
    (1.0 - 5e-13, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1.0 - 5e-13, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (1.0 - 5e-13, 5e-324, (5e-324, 1.0, 1.0),
     (5e-324, 0.0, 0.0)),
    (1.0 - 5e-13, 1e-200, (1e-200, 1.0, 1.0),
     (5.9e-216, 0.0, 0.0)),
    (1.0 - 5e-13, 1e-155, (1e-155, 1.0, 1.0),
     (6.3e-171, 0.0, 0.0)),
    (1.0 - 5e-13, 1e-09, (1e-09, 1.0, 1.0),
     (8.3e-25, 5.1e-19, 5e-19)),
    (1.0 - 5e-13, 15.548334061050497, (1.0, 7.745316464865928e-23, 7.071382115903302e-07),
     (0.0, 6.2e-17, 4.6e-23)),
    (1.0 - 5e-13, 31.096668122100994, (2.1906089468555153e-16, -1.0, 1.0),
     (3.5e-15, 2.4e-32, 2.4e-32)),
    (1.0 - 5e-13, 1000.0, (0.9998905614908667, 0.01479408805838091, 0.014794088075277354),
     (4.8e-17, 3.6e-15, 3.6e-15)),
    (1.0 - 5e-13, -1000.0, (-0.9998905614908667, 0.01479408805838091, 0.014794088075277354),
     (4.8e-17, 3.6e-15, 3.6e-15)),
    (NEXT_BELOW_ONE, 0.0, (0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (NEXT_BELOW_ONE, -0.0, (-0.0, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (NEXT_BELOW_ONE, 5e-324, (5e-324, 1.0, 1.0),
     (0.0, 0.0, 0.0)),
    (NEXT_BELOW_ONE, 1e-200, (1e-200, 1.0, 1.0),
     (2.1e-215, 0.0, 0.0)),
    (NEXT_BELOW_ONE, 1e-155, (1e-155, 1.0, 1.0),
     (2.3e-170, 0.0, 0.0)),
    (NEXT_BELOW_ONE, 1e-09, (1e-09, 1.0, 1.0),
     (2.3e-24, 5.1e-19, 5.1e-19)),
    (NEXT_BELOW_ONE, 19.75469464595844, (1.0, 7.184724019786577e-24, 1.0536712127723509e-08),
     (0.0, 6.2e-17, 7.3e-25)),
    (NEXT_BELOW_ONE, 39.50938929191688, (1.3637506525176105e-15, -1.0, 1.0),
     (1.2e-14, 9.3e-31, 9.3e-31)),
    (NEXT_BELOW_ONE, 1000.0, (-0.9999999999555825, -9.425226114589843e-06, 9.425232004224023e-06),
     (2.7e-17, 8.7e-14, 8.7e-14)),
    (NEXT_BELOW_ONE, -1000.0, (0.9999999999555825, -9.425226114589843e-06, 9.425232004224023e-06),
     (2.7e-17, 8.7e-14, 8.7e-14)),
)


def _rows():
    return [pytest.param(*row, id=f"m={row[0]!r}-u={row[1]!r}") for row in TABLE]


@pytest.mark.parametrize("m, u, ref, phi_error", _rows())
def test_frozen_table_no_looser_than_the_phi_recursion(m, u, ref, phi_error):
    """Each entry is held to the phi-recursion's own error there, or to
    what rounding alone allows where that error is smaller: two units in
    the last place of the value, or its change over one unit in the last
    place of u (sn' = cn dn, cn' = -sn dn, dn' = -m sn cn)."""
    sn, cn, dn = ref
    slopes = (abs(cn * dn), abs(sn * dn), abs(m * sn * cn))
    for name, got, want, err, slope in zip("sn cn dn".split(), jacobi_sn_cn_dn(u, m),
                                          ref, phi_error, slopes):
        tol = max(err, 2.0 * np.spacing(abs(want)), np.spacing(abs(u)) * slope)
        assert abs(got - want) <= tol, (name, got, want, tol)


@pytest.mark.parametrize("m", MS)
def test_each_parameter_row_is_closer_than_the_phi_recursion(m):
    rows = [row for row in TABLE if row[0] == m]
    assert len(rows) == 10
    worst = max(abs(got - want) for _, u, ref, _ in rows
                for got, want in zip(jacobi_sn_cn_dn(u, m), ref))
    assert worst <= max(max(err) for *_, err in rows)


@pytest.mark.parametrize("m", (0.0, 0.3, 0.9, 1.0 - 1e-9, NEXT_BELOW_ONE))
def test_nan_and_infinite_arguments_give_nan(m):
    finite = jacobi_sn_cn_dn(np.array([0.7, -3.0]), m)
    out = jacobi_sn_cn_dn(np.array([np.nan, 0.7, -3.0]), m)
    assert all(np.isnan(f[0]) for f in out)
    assert all(np.array_equal(f[1:], g) for f, g in zip(out, finite))
    # like np.sin, an infinite argument raises numpy's invalid-value warning
    with np.errstate(invalid="ignore"):
        out = jacobi_sn_cn_dn(np.array([np.inf, -np.inf, 0.7, -3.0]), m)
    assert all(np.all(np.isnan(f[:2])) for f in out)
    assert all(np.array_equal(f[2:], g) for f, g in zip(out, finite))


def _arguments(m):
    K = elliptic_K(m) if m < 1.0 else 10.0
    rng = np.random.default_rng(17)
    special = [0.0, 5e-324, 3e-219, 1e-200, 1e-155, 1e-150, 1e-149, 1e-9,
               K, 2.0 * K, 3.0 * K, 4.0 * K, 1000.0, 1.0e5]
    return np.concatenate([special, rng.uniform(0.0, 60.0, 40), rng.uniform(0.0, 5.0 * K, 20)])


@pytest.mark.parametrize("m", (0.0, 1e-12, 0.5, 0.9, 1.0 - 5e-13, NEXT_BELOW_ONE, 1.0))
def test_sn_is_odd_and_cn_dn_even_bit_for_bit(m):
    u = _arguments(m)
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    sn_, cn_, dn_ = jacobi_sn_cn_dn(-u, m)
    assert (-sn).tobytes() == sn_.tobytes()
    assert cn.tobytes() == cn_.tobytes() and dn.tobytes() == dn_.tobytes()


@pytest.mark.parametrize("m", (0.0, 0.5, 0.9, NEXT_BELOW_ONE))
def test_a_points_bytes_do_not_depend_on_the_rest_of_the_call(m):
    """The lockstep fits evaluate many starts in one call and must get the
    bytes each start gets alone, wherever it sits in the stack."""
    u = np.concatenate([_arguments(m), -_arguments(m)])
    whole = np.stack(jacobi_sn_cn_dn(u, m))
    alone = np.array([jacobi_sn_cn_dn(x, m) for x in u]).T
    assert whole.tobytes() == alone.tobytes()
    for start, stop in ((1, 2), (3, 20), (5, 70), (0, len(u) - 7)):
        part = np.stack(jacobi_sn_cn_dn(u[start:stop], m))
        assert part.tobytes() == whole[:, start:stop].tobytes()
    reverse = np.stack(jacobi_sn_cn_dn(u[::-1].copy(), m))
    assert reverse.tobytes() == whole[:, ::-1].tobytes()


@pytest.mark.parametrize("m", MS)
def test_arguments_below_the_overflow_guard_keep_sn_equal_to_u(m):
    # |tan| <= 1e-150 would overflow the chain's squares; there sn = u
    u = np.array([5e-324, -3e-219, 1e-200, -1e-155, 0.0, -0.0])
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert sn.tobytes() == u.tobytes()
    assert np.all(cn == 1.0) and np.all(dn == 1.0)
