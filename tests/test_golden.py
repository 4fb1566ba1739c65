"""Golden bits: force values pinned to the last bit, plus evaluation counts.

The hex strings of the force_exact values are float.hex of results of the
split-formula kernel integrated over the whole half line in one call of
the nested exp-sinh rule, with the Airy values below Z_SWITCH from the
Taylor table whose seeds are marched along w'' = z w; each value's
difference from the mpmath reference is recorded in CHANGES.md.  f_eta,
err_est and kappa_max compare with ==, n_evals exactly, and a failing
input keeps its error type and message prefix.
The force_classic value dates from the exp-sinh rule as well, and kept
its bits when the integral moved to the a-free variable t = 2 K a.  The
force_perturbative value dates from its closed form through E1, and is
the correctly rounded mpmath value.  Every FD value (the force_from_fd
forces, the net samples, the two Green's-function columns and the
one-sample integrands) dates from the band that scales each Numerov row
by its weight 1 - h^2 q/12, symmetric positive definite.  The
Green's-function columns are its LAPACK dptsv solve, and the below-side
integrands have that solve's bits; each moved by less than 1e-12
relative from the pivoted solve before it.  The forces, the net samples
and the above-side integrands date from the w = 1 solve by LAPACK's
dpttrf alone, each side stored from its open end towards the plate and
w a running product of the factor's ratios: the forces moved by at most
2.6e-14 relative, the net samples by 8.8e-13 and the above-side
integrands by 1.3e-12 (3.6e-11 on the flat background, which now has
the below side's bits), and CHANGES.md lists each with its mpmath error
before and after.  The eight forces are within 7.2e-13 relative of
mpmath (perfbench/refs.json), the one-sample integrands 1.2e-13 to
2.9e-11.
"""

import math

import pytest

from casimir_plate import (
    PlateConfig,
    QuadratureSpec,
    force_classic,
    force_exact,
    force_perturbative,
)
from casimir_plate.errors import ToleranceError
from casimir_plate import oracle_ode
from casimir_plate.oracle_ode import (
    GridSpec,
    fd_setup,
    integrand_from_fd,
    solve_bvp_above,
    solve_bvp_full,
)

# (eta, rel_tol, pinned kappa_max): (f_eta, err_est, kappa_max, n_evals)
FORCE = {
    (1e-3, 1e-6, None): ("0x1.dfda36efb38a1p-12", "0x1.b2897ee61fcc8p-41", "0x1.3ffffffffffffp+3", 103),
    (1e-3, 1e-9, None): ("0x1.dfda36efb38b2p-12", "0x1.882f4c110348dp-56", "0x1.3ffffffffffffp+3", 205),
    (1.0, 1e-6, None): ("0x1.d50107a4714aep-4", "0x1.5894c1e56a2fap-38", "0x1.0000000000000p+0", 103),
    (1.0, 1e-9, None): ("0x1.d50107a4714aep-4", "0x1.5894c1e56a2fap-38", "0x1.0000000000000p+0", 103),
    (1e3, 1e-6, None): ("0x1.fa1d095f1ce9ap+1", "0x1.e7f8b8f05f551p-35", "0x1.94c583ada5b52p+1", 103),
    (1e3, 1e-9, None): ("0x1.fa1d095f1ce9ap+1", "0x1.e7f8b8f05f551p-35", "0x1.94c583ada5b52p+1", 103),
    (1e6, 1e-6, None): ("0x1.f40009999cceap+6", "0x1.fe7a628e22065p-30", "0x1.3ffffffffffffp+3", 103),
    (1e6, 1e-9, None): ("0x1.f40009999cceap+6", "0x1.fe7a628e22065p-30", "0x1.3ffffffffffffp+3", 103),
    # deep refinement
    (1.0, 1e-11, None): ("0x1.d50107a4714d3p-4", "0x1.dd97ff3233de6p-49", "0x1.0000000000000p+0", 205),
    # pinned map scale
    (1.0, 1e-6, 5.0): ("0x1.d50107a471499p-4", "0x1.2327ff29c6a96p-35", "0x1.4000000000000p+2", 103),
    (0.03, 1e-9, 5.0): ("0x1.13dca496706a1p-7", "0x1.1365fad2f9d3bp-38", "0x1.4000000000000p+2", 103),
    # small eta
    (1e-8, 1e-9, None): ("0x1.6ee7179a77664p-27", "0x1.7fdf48429ec5dp-60", "0x1.d028ac9478910p+8", 205),
}

# (eta, rel_tol, pinned kappa_max): (error type, message prefix)
FAILURES = {
    # the kernel's rounding term alone exceeds rel_tol at eps = 1e-4
    (1e-12, 1e-13, None): (ToleranceError, "momentum integral did not reach rel_tol"),
}


@pytest.mark.parametrize("case", list(FORCE), ids=[repr(c) for c in FORCE])
def test_force_exact_bits(case):
    eta, rel_tol, kmax = case
    r = force_exact(eta, QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=kmax))
    f_eta, err_est, kappa_max, n_evals = FORCE[case]
    assert (r.f_eta.hex(), r.err_est.hex(), r.kappa_max.hex(), r.n_evals) == (
        f_eta, err_est, kappa_max, n_evals
    )


@pytest.mark.parametrize("case", list(FAILURES), ids=[repr(c) for c in FAILURES])
def test_force_exact_failures_keep_type_and_text(case):
    eta, rel_tol, kmax = case
    kind, prefix = FAILURES[case]
    with pytest.raises(kind) as info:
        force_exact(eta, QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=kmax))
    assert str(info.value).startswith(prefix)


def test_force_classic_bits():
    assert force_classic(1.0).hex() == "-0x1.0c152382d7366p-3"


def test_force_perturbative_bits():
    assert force_perturbative(1.0, 1.0, 1e-2).hex() == "0x1.620b469a89a56p-1"


# eta: (f, err_est) of the FD force at the benchmark's eight oracle eta
FORCE_FD = {
    0.03: ("0x1.13dca496702ebp-7", "0x1.383eb31d515e4p-35"),
    0.1: ("0x1.68eceda0300fcp-6", "0x1.42d47fda57b36p-33"),
    0.3: ("0x1.9bf526a64aef4p-5", "0x1.41be9c8b0c298p-32"),
    1.0: ("0x1.d50107a4710dbp-4", "0x1.b34cd30677680p-31"),
    3.0: ("0x1.c2b6c3b3d5055p-3", "0x1.75d456dd11c2fp-31"),
    10.0: ("0x1.a140783162853p-2", "0x1.3ad42b4a60366p-30"),
    30.0: ("0x1.62bca5b7ee890p-1", "0x1.15971af958096p-29"),
    100.0: ("0x1.40fecd3b74519p+0", "0x1.002ee4500ec3cp-28"),
}


@pytest.mark.parametrize("eta", list(FORCE_FD))
def test_force_from_fd_bits(eta):
    assert tuple(v.hex() for v in oracle_ode._force_fd(eta)) == FORCE_FD[eta]


def test_fd_force_and_net_sample_bits():
    # (value, err_est) of the FD force at eta = 1 and of one net sample there
    cfg = PlateConfig.from_eta(1.0)
    assert [v.hex() for v in oracle_ode._force_fd(1.0)] == [
        "0x1.d50107a4710dbp-4", "0x1.b34cd30677680p-31"]
    assert [v.hex() for v in oracle_ode._net_fd(1.0, cfg)] == [
        "0x1.d989bf84ca845p-3", "0x1.5bbb273333333p-33"]


# (kappa, eta): (value, err_est) of one FD net sample.  m is set by the
# reach at eta <= 1 and kappa <= 3, by the density elsewhere; the grid
# holds x = 0 (the kink row) where m < p: eta <= 1 with kappa <= 3, and
# (100, 1e-3)
NET_FD = {
    (0.0, 1e-3): ("0x1.8c8eac002c3e3p-4", "0x1.422b6eeeeeeefp-39"),
    (0.0, 1.0): ("0x1.9dc4607df7712p-2", "0x1.d708911111111p-34"),
    (0.0, 1e4): ("0x1.7c464e24ac4b5p-6", "0x1.1457c27777777p-34"),
    (1e-3, 1e-3): ("0x1.8c8e9ff904fc4p-4", "0x1.4206333333333p-39"),
    (1e-3, 1.0): ("0x1.9dc44ca7d8d95p-2", "0x1.d700600000000p-34"),
    (1e-3, 1e4): ("0x1.7c464cfc75975p-6", "0x1.13e6d43333333p-34"),
    (3.0, 1e-3): ("0x1.914138d10d4c9p-6", "0x1.24896b3333333p-35"),
    (3.0, 1.0): ("0x1.98fbe4c07435bp-5", "0x1.00b0af999999ap-33"),
    (3.0, 1e4): ("0x1.0c3582d0e5322p-6", "0x1.85b213999999ap-35"),
    (100.0, 1e-3): ("0x1.a36d1bc338f78p-15", "0x1.2c01800000000p-43"),
    (100.0, 1.0): ("0x1.a3637230af4c9p-15", "0x1.305f7d1111111p-43"),
    (100.0, 1e4): ("0x1.a287595b788fbp-15", "0x1.302c2dbbbbbbcp-43"),
    (1e4, 1e-3): ("0x1.5798ee1d44732p-28", "0x1.f35cfc0000000p-57"),
    (1e4, 1.0): ("0x1.5798ede962206p-28", "0x1.f36d9c8888889p-57"),
    (1e4, 1e4): ("0x1.5798e949160b7p-28", "0x1.f370b28888889p-57"),
}


@pytest.mark.parametrize("kappa, eta", list(NET_FD))
def test_net_fd_sample_bits(kappa, eta):
    net = oracle_ode._net_fd(kappa, PlateConfig.from_eta(eta))
    assert tuple(v.hex() for v in net) == NET_FD[kappa, eta]


# one Green's-function column per solver: (solver, kappa, eta, grid, source
# node) -> {node: value} and the correctly rounded sum of the whole column;
# the below grid has a node on the kink x = 0 (node 9000)
BVP_COLUMNS = {
    "above": ((solve_bvp_above, 1.0, 1.0, (1.0, 9.0, 4001), 400), {
        1: "0x1.1a8b91307fde3p-11", 399: "0x1.18af3749a53e8p-2", 400: "0x1.19be2d8228743p-2",
        401: "0x1.18c1a8926798fp-2", 1000: "0x1.c7d31f64d836dp-6", 4000: "0x1.bda9231197a97p-29",
    }, "0x1.e7253721539e4p+6"),
    "full": ((solve_bvp_full, 0.8, 5.0, (-9.0, 1.0, 10001), 9100), {
        1: "0x1.9397e0ff1a005p-65", 8000: "0x1.7ae5bd06e0ee1p-6", 9099: "0x1.18b64966f4effp-2",
        9100: "0x1.192f3809c7429p-2", 9101: "0x1.18a22d7c1e906p-2", 10000: "0x0.0p+0",
    }, "0x1.c9ca10655142dp+7"),
}


@pytest.mark.parametrize("case", list(BVP_COLUMNS))
def test_bvp_column_bits(case):
    (solve, kappa, eta, bounds, j), nodes, total = BVP_COLUMNS[case]
    grid = GridSpec(*bounds)
    _, g = solve(kappa, PlateConfig.from_eta(eta), bounds[0] + j * grid.h, grid)
    assert {k: g[k].hex() for k in nodes} == nodes
    assert math.fsum(g).hex() == total


# (kappa, eta, side): integrand_from_fd on fd_setup's grid; eta = 0 is the
# flat background (PlateConfig(a=1, b=0)), where kappa is the momentum
INTEGRAND_FD = {
    (0.0, 1.0, "above"): "-0x1.2d236fba7847fp+0",
    (0.0, 1.0, "below"): "-0x1.8b64af35dd2aap-1",
    (1.5, 0.5, "above"): "-0x1.d1ad182cd5507p+0",
    (1.5, 0.5, "below"): "-0x1.ab0c77b1797b9p+0",
    (0.7, 0.0, "above"): "-0x1.666666663a996p-1",
    (0.7, 0.0, "below"): "-0x1.666666663a996p-1",
}


def _cfg(eta):
    return PlateConfig.from_eta(eta) if eta > 0.0 else PlateConfig(a=1.0, b=0.0)


@pytest.mark.parametrize("case", list(INTEGRAND_FD), ids=[repr(c) for c in INTEGRAND_FD])
def test_integrand_from_fd_bits(case):
    kappa, eta, side = case
    cfg = _cfg(eta)
    got = integrand_from_fd(kappa, cfg, side, fd_setup(kappa, cfg, side))
    assert got.hex() == INTEGRAND_FD[case]
