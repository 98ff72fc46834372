"""Compound asymptotic expansions: dominant, intermediate (n = 5) and subdominant levels.

One evaluator, ``level_series(table, x, levels, truncation)``, sums any of
the levels named in ``LEVELS[n]`` from one coefficient table, at the table's
precision.  ``compound_eval`` is ``level_series`` over every level, or the
ones named, on a table grown until it holds the truncation; ``residual_F``
subtracts the dominant level, summed by ``level_series`` too, from the
direct series.

For x -> +infinity every exponential level of F_n is one formula,

    2 A0 x^theta e^(x cos(k pi/n)) Re[ w e^(i x sin(k pi/n)) sum_j c_j (e^(-i k pi/n)/x)^j ],

which differs between levels only in the angle k and the complex start
weight w.  Each w is a sum of exact terms c e^(i pi q), c and q rational:

    n      level          k   w
    all    dominant       1   e^(i pi theta/n)
    4      subdominant    3   -sum_r e^(i pi (3 theta/n + 2 b_r))
    5      intermediate   3   e^(3 i pi theta/5)
    3, 5   subdominant    n   sum over the splits of the b's into two halves
                              of cos(pi d), d = sum(one half) - sum(other half)

For n = 3 the k = n row is cos(pi(a-b)); for n = 5 it is
sum_{r<=3} cos(pi(theta + 2 b_r + 2 b_4)), since theta + 2 b_r + 2 b_4 =
2 + (b_r + b_4) - (b_s + b_t).  The k = n levels sit at e^(-x): there
e^(-i k pi/n) is exactly -1, so their sums alternate.  One rule decides for
every level whether w is exactly 0 (``_vanishes``): the terms are N-th roots
of unity with rational coefficients, and the sum is reduced in the cyclotomic
field one prime of N at a time, where only the primes up to the number of
terms need to be found.  Where w vanishes the level and its estimate
are exactly 0, not rounding noise.

Every evaluation admits x by ``precision.exact_x`` (0 < x <= ``MAX_X``),
reads it ``GUARD_DPS`` digits past the working precision, as the exponent
x cos(k pi/n) and phase x sin(k pi/n) need, and makes one pass over the
coefficient table.  The scaled terms u_j = c_j x^(-j) are formed once, by a
running product of 1/x (``CoeffTable.scaled_terms``), at those digits; their
magnitudes, rounded to the working precision, are the truncation scan, the
peak term and the first omitted term.  Re(W e^(-i j k pi/n)) depends on j
only through j mod 2n, so with the 2n class sums S_r = sum_{j = r mod 2n}
u_j every level is

    2 A0 x^theta e^(x cos(k pi/n)) [ Re W sum_r cos(r k pi/n) S_r + Im W sum_r sin(r k pi/n) S_r ],

W = w e^(i x sin(k pi/n)).  The class sums are formed once for all levels
and x^theta once per evaluation; the start weights and the rotations
cos/sin(r k pi/n) depend only on (params, k) and (n, k) and are memoized.  For
k = n the rotations are exactly +-1 and 0.  Sums are exact and rounded once
(``fsum``/``fdot``), and each result is rounded once to the working precision.

Optimal truncation (``OPTIMAL``) cuts every sum at the least magnitude
|c_j| x^(-j) (the weight and phase are excluded from the magnitude, so all
levels share one index) of a scan over the table with two stops:

* the least term: the magnitudes oscillate, so this is the scan's global
  least term, not its first local dip; at the table's last term it is
  unconfirmed, and ``level_series`` raises NoMinimumDetected;
* the precision floor: the scan ends after the first run of ``FLOOR_RUN``
  consecutive magnitudes below 10^-(dps+2) of the lead term, past which no
  term changes a digit (Boyd, Acta Appl. Math. 56 (1999) 1-98).  A lone
  magnitude below the floor, a c_j that vanishes to rounding noise, is
  passed over, so it neither ends the scan nor is taken as its least term.

``compound_eval`` sizes its table from the envelope Gamma(j)/(Lambda x)^j of
the terms, Lambda = 2 sin(pi/n) the distance to the nearest pair of Borel
singularities: its least term sits near j = Lambda x (Paris, J. Comput.
Appl. Math. 234 (2010) 488-504), and it falls below the precision floor at
j_floor, which at large x comes first.  A fixed coefficient budget, as in
the golden tables, sums the whole table instead (``verify``).
"""

import functools
import itertools
import logging
from dataclasses import replace
from fractions import Fraction
from math import ceil, cos, lcm, lgamma, log, pi

from mpmath import mp

from .coeffs import stirling_matching_coeffs
from .errors import CoeffShortfall, DomainError, NoMinimumDetected, OrderUnsupported
from .params import derive_params
from .precision import exact_x, to_mpf
from .reference import METHOD_ASYMPTOTIC, METHOD_COMPOUND, EvalResult, series_eval

__all__ = ["LEVELS", "OPTIMAL", "compound_eval", "level_series", "residual_F", "residual_dps"]

logger = logging.getLogger(__name__)

#: the levels of each order, largest first, with their angle k: the level
#: sits at e^(x cos(k pi/n))
LEVELS = {
    3: {"dominant": 1, "subdominant": 3},
    4: {"dominant": 1, "subdominant": 3},
    5: {"dominant": 1, "intermediate": 3, "subdominant": 5},
}

OPTIMAL = "optimal"

#: digits the shared pass carries past the working precision, so that each
#: level's sums and prefactor are rounded once, at the end
GUARD_DPS = 10

#: the optimal cut ends after this many consecutive terms below the precision
#: floor; one noise-level c_j (c_2 at n = 3, b = (2/3, 5/3)) does not end it
FLOOR_RUN = 4

#: the first optimal table: coefficients past the envelope's least term or
#: floor crossing, and the fewest built.  Over the benchmark's compound
#: requests the least term lay at most 12.5 past Lambda x, but for late
#: interference dips, which this margin leaves out of the table
TABLE_MARGIN = 14
MIN_TABLE = 16


def _weight_terms(params, k):
    """The start weight w of the level at angle k as exact pairs (c, q), w = sum c e^(i pi q)."""
    n, bs, theta = params.n, params.b_list, params.theta
    if k == 1 or (n, k) == (5, 3):
        return ((Fraction(1), k * theta / n),)
    if k < n:
        return tuple((Fraction(-1), 3 * theta / n + 2 * b) for b in bs)
    half, terms = Fraction(1, 2), []
    for rest in itertools.combinations(bs[1:], len(bs) // 2 - 1):
        d = 2 * (bs[0] + sum(rest)) - sum(bs)
        terms += [(half, d), (half, -d)]
    return tuple(terms)


def _vanishes(terms):
    """Whether sum c e^(i pi q) over the exact ``terms`` is 0.

    With N = 2 lcm(denominators of q) the sum is sum_a C_a z^a, z = e^(2 pi i/N),
    its coefficients scaled to integers.  Write N = S L, where S holds the
    primes of N up to the number m of terms and L the rest.  Splitting off a
    prime p > m of L (``_cyclotomic_zero``) always leaves a class of a mod p
    empty, so every class must vanish alone; over all of L that groups the
    terms by a mod L.  In a group a = r + L t, z^a = z^r e^(2 pi i t/S), so
    each group is reduced in Q(e^(2 pi i/S)) over the primes of S only, and
    no prime larger than m is ever looked for.
    """
    half = lcm(*(q.denominator for _, q in terms))
    scale = lcm(*(c.denominator for c, _ in terms))
    powers = {}
    for c, q in terms:
        a = q.numerator * (half // q.denominator) % (2 * half)
        powers[a] = powers.get(a, 0) + c.numerator * (scale // c.denominator)
    powers = {a: c for a, c in powers.items() if c}
    small, large = [], 2 * half
    for p in range(2, len(powers) + 1):
        while large % p == 0:
            small.append(p)
            large //= p
    groups = {}
    for a, c in powers.items():
        groups.setdefault(a % large, {})[a // large] = c
    return all(_cyclotomic_zero(g, 2 * half // large, small) for g in groups.values())


def _cyclotomic_zero(powers, order, primes):
    """Whether sum_a powers[a] z^a = 0, z a primitive ``order``-th root of unity.

    Splits off the least prime p of ``order`` (``primes``, ascending) and
    recurses in Q(z'), z' a primitive (order/p)-th root.  If p^2 | order,
    1, z, ..., z^(p-1) are a basis over Q(z^p) = Q(z'), so each class of
    a mod p vanishes on its own.  If p exactly divides order, z^a = z_p^(a u)
    z'^(a v) by CRT (v = p^(-1) mod order/p) and sum_i A_i z_p^i = 0 only for
    equal A_i, so all classes must be equal, and 0 if one is empty.
    """
    powers = {a: c for a, c in powers.items() if c}
    if len(powers) < 2:
        return not powers
    p, rest = primes[0], primes[1:]
    sub, squared = order // p, p in rest
    v = None if squared else pow(p, -1, sub)
    classes = {}
    for a, c in powers.items():
        e = a // p if squared else a * v % sub
        cls = classes.setdefault(a % p, {})
        cls[e] = cls.get(e, 0) + c
    groups = list(classes.values())
    if squared or len(groups) < p:
        return all(_cyclotomic_zero(g, sub, rest) for g in groups)
    first = groups[0]
    return all(_cyclotomic_zero({e: g.get(e, 0) - first.get(e, 0) for e in g.keys() | first.keys()},
                                sub, rest) for g in groups[1:])


@functools.lru_cache(maxsize=256)
def _start_weight(params, k):
    """The complex start weight w of the level at angle k, from its exact terms, at
    ``params.dps`` digits; 0 where it vanishes."""
    terms = _weight_terms(params, k)
    if _vanishes(terms):
        return mp.zero
    working = params.dps
    with mp.workdps(working):
        if k == params.n:   # conjugate pairs (1/2, d), (1/2, -d): one cos(pi d) per pair
            return mp.mpc(mp.fsum(mp.cospi(to_mpf(q, working)) for _, q in terms[::2]))
        return mp.fdot((to_mpf(c, working), mp.expjpi(to_mpf(q, working))) for c, q in terms)


@functools.lru_cache(maxsize=64)
def _decade(e, working):
    """10^e at ``working`` digits."""
    with mp.workdps(working):
        return mp.mpf(10) ** e


@functools.lru_cache(maxsize=None)
def _borel_distance(n):
    """Lambda = 2 sin(pi/n), correctly rounded to a float: the distance to the nearest
    pair of Borel singularities."""
    with mp.workdps(30):
        return float(2 * mp.sinpi(mp.mpf(1) / n))


@functools.lru_cache(maxsize=64)
def _rotations(n, k, working):
    """(cos(r k pi/n), sin(r k pi/n)) for r = 0..2n-1, the angles reduced exactly mod 2."""
    angles = [to_mpf(Fraction(r * k, n) % 2, working) for r in range(2 * n)]
    with mp.workdps(working):
        return tuple(mp.cospi(a) for a in angles), tuple(mp.sinpi(a) for a in angles)


def _positive_x(x, working):
    """x admitted by ``exact_x`` at ``working`` digits, exact; DomainError unless 0 < x."""
    xq = exact_x(x, working)
    if xq == 0:
        raise DomainError("asymptotic series require x > 0, got 0")
    return xq


def _levels(params, u, xm, M, angles):
    """The levels at ``angles``, each summed over u_0..u_{M-1}.

    Returns one (value, |prefactor w|) pair per level, ``GUARD_DPS`` digits
    past ``params.dps``.  Only the start weight w is taken at ``params.dps``
    digits, so where it vanishes up to rounding, its residue is that of a
    ``params.dps``-digit evaluation.
    """
    n, working = params.n, params.dps
    guarded = working + GUARD_DPS
    with mp.workdps(guarded):
        sums = [mp.fsum(u[r:M:2 * n]) for r in range(2 * n)]
        base = 2 * params.A0 * xm ** to_mpf(params.theta, guarded)
        levels = []
        for k in angles:
            cos_r, sin_r = _rotations(n, k, guarded)
            w = _start_weight(params, k)
            pref = base * mp.exp(xm * cos_r[1])
            phase = w * mp.expj(xm * sin_r[1])
            total = mp.fdot((phase.real, phase.imag), (mp.fdot(cos_r, sums), mp.fdot(sin_r, sums)))
            levels.append((pref * total, abs(pref * w)))
        return levels


def _angles(n, levels):
    """The angles k of the named ``levels`` of order n, the largest level (least k) first."""
    try:
        angles = sorted({LEVELS[n][level] for level in levels})
    except KeyError as missing:
        raise OrderUnsupported(f"order n = {n} has no {missing.args[0]} level") from None
    if not angles:
        raise ValueError("name at least one level")
    return angles


def _term_count(truncation):
    M = int(truncation)
    if M < 1:
        raise ValueError("need at least one term")
    return M


def _optimal_cut(mags, working):
    """The term count of the optimal truncation over the term magnitudes ``mags``.

    The sum ends at the least magnitude of a scan that stops after the first
    run of ``FLOOR_RUN`` consecutive magnitudes below 10^-(working+2) of the
    lead term, the precision floor, that leaves a first omitted term in the
    table.  A magnitude below the floor outside that run, a coefficient that
    vanishes to rounding noise, is passed over.  NoMinimumDetected where the
    least magnitude is the table's last.
    """
    least = min(range(len(mags)), key=mags.__getitem__)
    with mp.workdps(working):
        floor = mags[0] * _decade(-(working + 2), working)
    if mags[least] < floor:
        scanned, run = [], 0
        for j, m in enumerate(mags):
            run = run + 1 if m < floor else 0
            if not run:
                scanned.append(j)
            elif run == FLOOR_RUN and j + 1 < len(mags):
                scanned += range(j + 1 - FLOOR_RUN, j + 1)
                break
        least = min(scanned, key=mags.__getitem__)
    if least + 1 == len(mags):
        raise NoMinimumDetected(
            f"term magnitudes still decreasing at the end of a {len(mags)}-coefficient table")
    return least + 1


def level_series(table, x, levels, truncation=OPTIMAL):
    """The sum of the named ``levels`` of ``table``'s parameter set at x.

    ``levels`` are names from ``LEVELS[n]``; one the order lacks raises
    OrderUnsupported.  ``truncation`` is ``"optimal"``, every level cut at
    the least |c_j| x^(-j) over the table up to the first run of
    ``FLOOR_RUN`` terms below 10^-(dps+2) of the lead term, passing over a
    lone term below that floor (``_optimal_cut``; NoMinimumDetected where
    the least term is the table's last), or a term count M (CoeffShortfall
    past the table); DomainError unless ``precision.exact_x`` admits x > 0.
    All sums are at ``table.params.dps`` digits, from one scan of the
    table.  ``error_estimate`` is the largest requested level's: its
    first omitted term, |prefactor w| |c_M| x^(-M) (the last summed term at
    the end of the table), plus the rounding floor 10^(1-dps) |value|.
    ``max_term_magnitude`` is that level's largest summed term,
    |prefactor w| max_{j<M} |c_j| x^(-j).
    """
    params = table.params
    angles = _angles(params.n, levels)
    working, guarded = params.dps, params.dps + GUARD_DPS
    xm = to_mpf(_positive_x(x, working), guarded)
    if truncation != OPTIMAL:
        M = _term_count(truncation)
        if M > len(table):
            raise CoeffShortfall(f"requested {M} terms but the table holds {len(table)}")
    # the one pass over the table: u_j at ``guarded`` digits, their magnitudes at ``working``
    u = table.scaled_terms(xm, guarded)
    with mp.workdps(working):
        mags = [abs(v) for v in u]
    if truncation == OPTIMAL:
        M = _optimal_cut(mags, working)
    parts = _levels(params, u, xm, M, angles)
    omitted = mags[min(M, len(mags) - 1)]
    with mp.workdps(working):
        value = mp.fsum(v for v, _ in parts)
        lead, amplitude = parts[0]
        # where the expansion terminates, c_M vanishes and only the rounding remains
        error = amplitude * omitted + _decade(1 - working, working) * abs(lead)
        peak = amplitude * max(mags[:M])
    return EvalResult(value=value, method=METHOD_ASYMPTOTIC, terms_used=M,
                      max_term_magnitude=peak, error_estimate=error)


def _first_table(params, xq):
    """The first table of an optimal truncation at x: max(16, min(ceil(Lambda x), j_floor) + 14).

    The terms follow the envelope Gamma(j)/(Lambda x)^j, Lambda = 2 sin(pi/n),
    least near j = Lambda x; j_floor is the first j < Lambda x at which it
    falls below 10^-(dps+2), where the precision-floor cut ends the sum.
    The exact x is admitted, so x <= ``MAX_X`` and Lambda x is a float.
    """
    scaled = _borel_distance(params.n) * float(xq)
    top, log_scaled = ceil(scaled), log(scaled)
    floor = -(params.dps + 2) * log(10)
    j_floor = next((j for j in range(1, top) if lgamma(j) - j * log_scaled < floor), top)
    return max(MIN_TABLE, j_floor + TABLE_MARGIN)


def compound_eval(params, x, truncation=OPTIMAL, levels=None):
    """``level_series`` over ``levels`` (default: every level of the order), on a
    table long enough for ``truncation``.

    For ``"optimal"`` the table starts at max(16, min(ceil(Lambda x), j_floor)
    + 14) coefficients (``_first_table``: the least term near Lambda x,
    Lambda = 2 sin(pi/n), or the precision floor at j_floor, whichever comes
    first) and grows 1.5-fold, at most twice, while its least term is its
    last; a term count M takes M + 1 coefficients, so that the first omitted
    term exists.  x is admitted by ``precision.exact_x`` at ``params.dps``
    digits and must be positive (DomainError otherwise) and at most
    ``MAX_X`` (PrecisionInsufficient otherwise), and a term count at least 1
    (ValueError otherwise); all are checked before any coefficient table is
    built.  The exact x goes to ``level_series``, whose levels read it to
    ``GUARD_DPS`` digits past ``params.dps``.
    """
    xq = _positive_x(x, params.dps)
    levels = LEVELS[params.n] if levels is None else levels
    m = _first_table(params, xq) if truncation == OPTIMAL else _term_count(truncation) + 1
    for _ in range(3):
        try:
            result = level_series(stirling_matching_coeffs(params, m), xq, levels, truncation)
            return replace(result, method=METHOD_COMPOUND)
        except NoMinimumDetected:
            logger.debug("compound table: no least term within %d coefficients at x = %s, "
                         "growing to %d", m, xq, ceil(m * 1.5))
            m = ceil(m * 1.5)
    raise NoMinimumDetected(f"no confirmed least term within {m} coefficients")


def residual_dps(n, x):
    """Least parameter precision at which ``residual_F`` resolves the e^(-x) level.

    That level lies (1 + cos(pi/n)) x / ln 10 digits below the dominant one;
    10 digits are kept spare.  x is admitted as by ``compound_eval``, a float
    or mpf x read at 30 digits: 0 < x <= ``MAX_X`` (DomainError,
    PrecisionInsufficient otherwise).
    """
    return ceil((1 + cos(pi / n)) * float(_positive_x(x, 30)) / log(10)) + 10


def residual_F(params, x, j0):
    """F_n(x) minus the dominant expansion summed through index j0 (inclusive).

    This is the numerically extracted exponentially small residual; compare
    it with the levels below the dominant one, ``compound_eval`` with every
    level of ``LEVELS[n]`` but ``"dominant"``.  Both sides are taken to
    d = ``residual_dps(params.n, x)`` digits or more: the direct series to a
    d-digit target, and the dominant level by ``level_series`` at
    ``params.dps``, where parameters coarser than d are first re-derived at d.
    """
    if j0 < 0:
        raise ValueError("truncation index must be non-negative")
    needed = residual_dps(params.n, x)
    if params.dps < needed:
        params = derive_params(params.n, params.b_list, precision=needed)
    base = series_eval(params, x, target_digits=needed)
    dominant = level_series(stirling_matching_coeffs(params, j0 + 2), x, ("dominant",), j0 + 1)
    with mp.workdps(params.dps):
        return base.value - dominant.value
