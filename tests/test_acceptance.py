"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) in addition to asserting, so the suite doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from radscat import (
    Family,
    Region,
    eigenfunction,
    energy_transform,
    find_resonances,
    free_overlap_kernel,
    gamow_eigenfunction,
    grid_scan_roots,
    growing_partner,
    jost,
    make_shell,
    residue_norm,
    s_matrix,
    shell_jost_plus_grid,
    smeared_delta_check,
    classify_eigensolution,
    check_symmetry,
)
from radscat.criterion import (
    GridSpec,
    NORMALIZATION,
    PHYSICALLY_DISTINCT,
)
from radscat.solution import _carry
from radscat.spectral import scattering_density, standing_density


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def states(shell, scale):
    return find_resonances(shell, scale, Region(1e-6, 6.0, -2.0, -1e-6))


def test_01_free_potential_identities(free, scale, rng):
    t0 = time.perf_counter()
    ks = list(np.linspace(0.01, 10.0, 1000))
    ks += list(3 * (rng.normal(size=1000) + 1j * rng.normal(size=1000)))
    worst = 0.0
    for k in ks:
        if abs(k) < 1e-3:
            continue
        jp = jost(free, scale, k)
        worst = max(worst, abs(jp.j_plus - 1), abs(jp.j_minus - 1))
        worst = max(worst, abs(s_matrix(free, scale, k).s - 1))
    empty = find_resonances(free, scale, Region(1e-6, 10.0, -3.0, -1e-9)) == []
    dt = time.perf_counter() - t0
    report(1, "free-potential identities", worst <= 1e-12 and empty and dt < 1.0,
           f"max dev {worst:.2e}, empty={empty}, {dt:.2f}s")


def test_02_unitarity(shell, scale):
    ks = np.linspace(0.01, 10.0, 1000)
    worst = max(abs(abs(s_matrix(shell, scale, k).s) - 1.0) for k in ks)
    report(2, "S-matrix unitarity", worst <= 1e-10, f"max | |S|-1 | = {worst:.2e}")


def test_03_proportionality(shell, scale):
    es = np.linspace(0.5, 20.0, 50)
    rs = np.linspace(0.0, 6.0, 50)
    worst = 0.0
    for e in es:
        s = s_matrix(shell, scale, math.sqrt(scale.kappa * e)).s
        d = np.abs(eigenfunction(Family.IN, shell, scale, e, rs)
                   - s * eigenfunction(Family.OUT, shell, scale, e, rs))
        worst = max(worst, float(d.max()))
    report(3, "in = S * out proportionality", worst <= 1e-12, f"max dev {worst:.2e}")


def test_04_criterion_classifications(shell, scale):
    rho = check_symmetry(
        lambda e: standing_density(scale, jost(shell, scale, scale.wavenumber(e))))
    rho_pm = check_symmetry(lambda e: scattering_density(scale, scale.wavenumber(e)))

    def jplus(e):
        return jost(shell, scale, scale.wavenumber(e)).j_plus

    def jminus(e):
        return jost(shell, scale, scale.wavenumber(e)).j_minus

    jp_rep = check_symmetry(jplus)
    gap = max(abs(jplus(e) - jminus(e)) for e in GridSpec().points())
    gap_ok = abs(jp_rep.max_deviation - gap) <= 1e-12 * gap

    sw = classify_eigensolution(Family.STANDING_WAVE, shell, scale)
    fin = classify_eigensolution(Family.IN, shell, scale)
    fout = classify_eigensolution(Family.OUT, shell, scale)
    ok = (rho.classification == NORMALIZATION
          and rho_pm.classification == NORMALIZATION
          and jp_rep.classification == PHYSICALLY_DISTINCT and gap_ok
          and sw.classification == NORMALIZATION
          and fin.classification == PHYSICALLY_DISTINCT
          and fout.classification == PHYSICALLY_DISTINCT)
    report(4, "normalization criterion classifications", ok,
           f"rho={rho.classification}, jplus={jp_rep.classification}, "
           f"families=({sw.classification},{fin.classification},{fout.classification})")


def test_05_finder_vs_grid_oracle(shell, scale, states):
    t0 = time.perf_counter()
    fvec = lambda k: shell_jost_plus_grid(8.0, 1.0, 2.0, scale.kappa, k)
    scanned = grid_scan_roots(fvec, 1e-6, 6.0, -2.0, -1e-9,
                              n_re=2000, n_im=2000, tol=1e-9)
    dt = time.perf_counter() - t0
    match = (len(scanned) == len(states)
             and all(abs(s - st.k_pole) <= 1e-8 for s, st in zip(scanned, states)))
    report(5, "resonance finder vs 2000x2000 grid oracle",
           match and dt < 60.0,
           f"{len(states)} poles, scan {dt:.1f}s")


def test_06_residue_normalization(shell, scale, states):
    # residue_norm raises unless contour and derivative values agree to 1e-6,
    # so a clean return is itself the first half of the check
    n2 = residue_norm(shell, scale, states[0].k_pole)
    m2 = growing_partner(states[0]).norm_sq
    dev = abs(m2 - n2.conjugate()) / abs(n2)
    report(6, "residue normalization and conjugate pairing", dev <= 1e-8,
           f"|M1^2 - conj(N1^2)|/|N1^2| = {dev:.2e}")


def test_07_gamow_state_structure(shell, scale, states):
    st = states[0]
    b = shell.outer_radius
    rs = np.linspace(b, 5 * b, 400)
    ratio = gamow_eigenfunction(st, rs) / np.exp(1j * st.k_pole * rs)
    tail_dev = float(np.max(np.abs(ratio - st.norm))) / abs(st.norm)

    # interface mismatch measured from the two layer representations at the
    # breakpoint itself; one-sided offsets would add O(eps * u') on top
    cont_dev = 0.0
    sol = st.sol
    for i, bp in enumerate(shell.breakpoints):
        vl, dl, ml = _carry(sol.q[i], sol.chi[i], sol.dchi[i], bp - sol.r_left[i])
        vr, dr_, mr = _carry(sol.q[i + 1], sol.chi[i + 1], sol.dchi[i + 1], bp - sol.r_left[i + 1])
        lsl, lsr = sol.log_scale[i] + ml, sol.log_scale[i + 1] + mr
        vl, dl = vl * math.exp(lsl), dl * math.exp(lsl)
        vr, dr_ = vr * math.exp(lsr), dr_ * math.exp(lsr)
        ref = max(abs(vr), abs(dr_), 1e-30)
        cont_dev = max(cont_dev, abs(vl - vr) / ref, abs(dl - dr_) / ref)

    k2 = st.k_pole ** 2

    def resid(h):
        worst = 0.0
        for r, v in ((0.5, 0.0), (1.5, 8.0), (2.3, 0.0)):
            u0 = gamow_eigenfunction(st, r)
            d2 = (gamow_eigenfunction(st, r + h) - 2 * u0
                  + gamow_eigenfunction(st, r - h)) / h ** 2
            worst = max(worst, abs(-d2 + (scale.kappa * v - k2) * u0) / abs(u0))
        return worst

    order = math.log(resid(2e-3) / resid(1e-3)) / math.log(2.0)
    ok = tail_dev <= 1e-10 and cont_dev <= 1e-10 and abs(order - 2.0) <= 0.1
    report(7, "Gamow state structure", ok,
           f"tail {tail_dev:.2e}, continuity {cont_dev:.2e}, FD order {order:.2f}")


@pytest.mark.xfail(
    strict=True,
    reason="J- has no zero at the reflected pole: the reflection k -> -conj(k) "
    "maps zeros of J+ onto zeros of J+ (J+(-conj(k)) = conj(J+(k)) for real "
    "potentials), so |J-(-k_n*)| stays O(1); see the companion test below",
)
def test_08_reflected_pole_zeros_jminus(shell, scale, states):
    worst = max(abs(jost(shell, scale, -st.k_pole.conjugate()).j_minus)
                for st in states)
    report(8, "reflected poles zero J-", worst <= 1e-10, f"max |J-| = {worst:.2e}")


def test_08b_reflected_pole_zeros_jplus(shell, scale, states):
    # the attainable form of the conjugate-pair property: the growing partner
    # at -conj(k_n) is itself a zero of J+, and its norm is the conjugate
    worst = 0.0
    for st in states:
        k_ref = -st.k_pole.conjugate()
        jp = jost(shell, scale, k_ref)
        worst = max(worst, abs(jp.j_plus) / abs(jp.j_minus))
        p = growing_partner(st)
        worst = max(worst, abs(p.norm_sq - st.norm_sq.conjugate()) / abs(st.norm_sq))
    report(8, "conjugate-pair spectrum via J+", worst <= 1e-8,
           f"max rel dev {worst:.2e}")


def test_09_smeared_delta(shell, free, scale):
    t0 = time.perf_counter()
    center, width, r_max = 16.0, 2.0, 20.0
    free_rep = smeared_delta_check(Family.STANDING_WAVE, free, scale, center,
                                   width, r_max=r_max)
    # analytic sine-transform oracle for the free lhs
    e = np.linspace(center - 6 * width, center + 6 * width, 401)
    g = np.exp(-((e - center) ** 2) / (2 * width ** 2))
    k = np.sqrt(scale.kappa * e)
    amp = np.sqrt(scale.kappa / (math.pi * k))
    kern = free_overlap_kernel(k, k, r_max)
    lhs_oracle = simpson(simpson((g * amp)[:, None] * (g * amp)[None, :] * kern,
                                 x=e, axis=1), x=e)
    oracle_err = abs(free_rep.lhs - lhs_oracle) / free_rep.rhs

    shell_errs = {}
    converged = True
    for fam in Family:
        rep = smeared_delta_check(fam, shell, scale, center, width)
        shell_errs[fam.value] = rep.relative_error
        converged &= rep.converged
    dt = time.perf_counter() - t0
    ok = (free_rep.relative_error <= 1e-4 and oracle_err <= 1e-6
          and all(v <= 1e-3 for v in shell_errs.values()) and converged
          and dt < 300.0)
    report(9, "smeared delta-normalization", ok,
           f"free {free_rep.relative_error:.2e} (oracle gap {oracle_err:.2e}), "
           f"shell {max(shell_errs.values()):.2e}, {dt:.0f}s")


def test_10_parseval(shell, scale):
    r_max = 20.0
    r = np.linspace(0.0, r_max, 4001)
    psi = np.exp(-((r - 5.0) ** 2) / (2 * 0.4 ** 2))
    norm_r = simpson(np.abs(psi) ** 2, x=r)
    k = np.linspace(0.02, 15.0, 1200)
    worst = 0.0
    for fam in Family:
        coeffs = energy_transform(fam, shell, scale, psi, r_max, k ** 2 / scale.kappa)
        norm_e = simpson(np.abs(coeffs) ** 2 * 2 * k / scale.kappa, x=k)
        worst = max(worst, abs(norm_e - norm_r) / norm_r)
    report(10, "Parseval isometry of energy transform", worst <= 1e-3,
           f"max rel dev {worst:.2e}")


def test_11_infinite_barrier_limit(scale):
    from radscat.resonance import _newton

    gammas = {}
    for v0 in (8.0, 50.0):
        pot = make_shell(v0, 1.0, 2.0, scale)
        st = find_resonances(pot, scale, Region(0.5, 4.0, -1.0, -1e-9))
        gammas[v0] = st[0].gamma
    pot = make_shell(500.0, 1.0, 2.0, scale)
    k1 = _newton(lambda k: jost(pot, scale, k).j_plus, 3.0, leash=1.0)
    gammas[500.0] = 2 * abs((k1 ** 2).imag)
    monotone = gammas[8.0] > gammas[50.0] > gammas[500.0]
    re_ok = abs(k1.real - math.pi) <= 0.05 * math.pi
    report(11, "infinite-barrier limit", monotone and re_ok,
           f"gammas {gammas[8.0]:.2e} > {gammas[50.0]:.2e} > {gammas[500.0]:.2e}, "
           f"Re k1(500) = {k1.real:.4f} vs pi = {math.pi:.4f}")
