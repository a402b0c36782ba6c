"""Quantization dimension and the constants that drive the certificates.

The dimension s_r of order r is the unique root of

    lhs(s) = (sum_G (p_ij m^-r)^(s/(s+r)))^theta
             * (sum_{G_y} (q_j m^-r)^(s/(s+r)))^(1-theta) = 1,

strictly decreasing in s from lhs(0) = card(G)^theta card(G_y)^(1-theta) > 1
down to m^-r < 1.  All the derived constants below are explicit functions of
the root; they bound the certificate inequalities checked in antichain.py.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .carpet import CarpetSpec, ConfigError, derive_indices

__all__ = ["NoBracket", "SpectralConstants", "lhs", "solve_sr", "checked_eta_lo", "constants"]

# lhs depends on s only through t = s/(s+r), and floats just below t = 1 are
# 2^-53 apart, so s_r is resolved only to about (s_r/r) 2^-53 relative.  s_r
# <= 2 on every carpet, so from R_MIN on it is resolved to 1e-9 or better.
R_MIN = 2.0 * 2.0**-53 / 1e-9


class NoBracket(ArithmeticError):
    """lhs(0) <= 1, so no root exists; impossible for a validated carpet."""


@dataclass(frozen=True)
class SpectralConstants:
    """Solved dimension and the explicit constants used by every certificate.

    t_r = s_r/(s_r+r) is the moment exponent.  P and Q are the cell and row
    spectral sums at t_r (P >= 1 >= Q > 0, with P^theta Q^(1-theta) = 1).
    eta_lo = min p_ij q_k m^-r bounds one refinement step of a weight from
    below, eta_hi = (max_j q_j m^-r)^t_r bounds one step of an energy from
    above.  H1 is the minimal power with eta_hi^H1 < eta_lo; it caps both the
    depth and the mass of the overlap families.  xi bounds the one-level
    energy sum of a subtree, H2 the energy spread inside one construction
    level, M the depth of the comparable-descendant family, H3 its total
    energy, and H4/H5 the upper/lower coefficients of the codeword-count band.
    """

    r: float
    s_r: float
    t_r: float
    P: float
    Q: float
    eta_lo: float
    eta_hi: float
    H1: int
    xi: float
    H2: float
    M: int
    H3: float
    H4: float
    H5: float


def _spectral_sums(spec: CarpetSpec, r: float, t: float) -> tuple[float, float]:
    """Cell and row spectral sums at exponent t: sum_G (p_ij m^-r)^t, sum_{G_y} (q_j m^-r)^t."""
    idx = derive_indices(spec)
    log_mr = -r * math.log(spec.m)
    cell_sum = math.fsum(math.exp(t * (lp + log_mr)) for lp in idx.log_p.tolist())
    row_sum = math.fsum(math.exp(t * (lq + log_mr)) for lq in idx.log_q.tolist())
    return cell_sum, row_sum


def lhs(spec: CarpetSpec, r: float, s: float) -> float:
    """Left side of the dimension equation at candidate dimension s >= 0."""
    if r <= 0:
        raise ValueError(f"order exponent must be > 0, got {r}")
    if s < 0:
        raise ValueError(f"candidate dimension must be >= 0, got {s}")
    theta = derive_indices(spec).theta
    cell_sum, row_sum = _spectral_sums(spec, r, s / (s + r))
    return math.exp(theta * math.log(cell_sum) + (1.0 - theta) * math.log(row_sum))


def solve_sr(spec: CarpetSpec, r: float) -> float:
    """Solve lhs(s) = 1 by bracketing and bisection down to adjacent floats.

    The bracket [0, S] is grown by doubling until lhs(S) <= 1; bisection then
    halves it, keeping lhs(lo) > 1 >= lhs(hi), until no float lies strictly
    between lo and hi, and returns whichever endpoint has the smaller
    |lhs - 1|.  Bisection is deliberate: every iterate is certified by a
    sign, so no smoothness assumptions enter the solver.
    """
    lo_value = lhs(spec, r, 0.0)
    if lo_value <= 1.0:
        raise NoBracket("lhs(0) <= 1: carpet admits no positive dimension root")
    lo, hi = 0.0, 2.0
    while (hi_value := lhs(spec, r, hi)) > 1.0:
        lo, lo_value, hi = hi, hi_value, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        value = lhs(spec, r, mid)
        if value > 1.0:
            lo, lo_value = mid, value
        else:
            hi, hi_value = mid, value
    return lo if abs(lo_value - 1.0) <= abs(hi_value - 1.0) else hi


def checked_eta_lo(spec: CarpetSpec, r: float) -> float:
    """eta_lo = min p_ij q_k m^-r, in linear scale as it is printed.

    Raises ConfigError naming r when r is below R_MIN, where floats do not
    resolve s_r, or so large that eta_lo falls below the normal float range.
    """
    if not r >= R_MIN:
        raise ConfigError(
            f"r = {r} is too small: below r = {R_MIN:.3g} floats resolve s_r only "
            "to about (2/r) 2^-53 relative, more than 1e-9"
        )
    q = derive_indices(spec).q
    eta_lo = min(p * qk * spec.m ** -r for _, _, p in spec.entries for _, qk in q)
    if not eta_lo >= sys.float_info.min:
        raise ConfigError(
            f"r = {r} is too large for this carpet: eta_lo = min p_ij q_k m^-r = {eta_lo!r} "
            "is not a positive normal float"
        )
    return eta_lo


def constants(spec: CarpetSpec, r: float) -> SpectralConstants:
    """Solve for s_r and evaluate every derived constant at the root.

    Raises ConfigError when r is out of range (checked_eta_lo).
    """
    eta_lo = checked_eta_lo(spec, r)
    idx = derive_indices(spec)
    s = solve_sr(spec, r)
    t = s / (s + r)
    log_mr = -r * math.log(spec.m)
    P, Q = _spectral_sums(spec, r, t)

    q_bar = max(qj for _, qj in idx.q)
    eta_hi = math.exp(t * (math.log(q_bar) + log_mr))

    log_eta_lo = math.log(eta_lo)
    log_eta_hi = math.log(eta_hi)
    H1 = 1
    while H1 * log_eta_hi >= log_eta_lo:
        H1 += 1

    xi = max(
        math.fsum((p / qj) ** t for _, jj, p in spec.entries if jj == j) for j, qj in idx.q
    )
    H2 = P**3 * Q**-2 * math.exp(-t * log_eta_lo)
    M = 1
    while M * log_eta_hi >= -math.log(H2):
        M += 1
    H3 = math.fsum(xi**h for h in range(M + 1))
    H4 = P * P / Q
    H5 = (1.0 / H3) * Q * Q / (P * P)

    return SpectralConstants(
        r=r, s_r=s, t_r=t, P=P, Q=Q,
        eta_lo=eta_lo, eta_hi=eta_hi,
        H1=H1, xi=xi, H2=H2, M=M, H3=H3, H4=H4, H5=H5,
    )
