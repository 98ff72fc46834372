"""Seeded request streams for the benchmark workloads.

A request is a plain tuple of exact rationals, so the program under test only
ever receives generated inputs and the checker can rebuild them from the seed:

* ``("series_eval", n, b_list, x, target_digits)``
* ``("humbert_J", m, nu, x, target_digits)``
* ``("compound_eval", n, b_list, x)``
* ``("tables",)`` -- one ``hyperbessel tables --table all --format json`` run

``plan(workload, seed)`` returns ``(warmup, timed)``.  The warm-up pass is a
few requests from the timed distribution that include the workload's largest
(x, target) and use parameter sets no timed request uses, so mpmath's
process-global caches fill during set-up while the package's per-params
caches stay cold.  Timed requests take the request kinds in turn and each
kind's x from a golden-ratio sequence, so every prefix of the stream spreads
x evenly over its range.  A run completes a prefix whose length depends on
the program's speed; this keeps the mix of kinds and sizes it measures the
same for a faster program and for every seed.
"""

import math
import random
from fractions import Fraction

WORKLOADS = ("series_sweep", "compound_cold", "compound_sweep", "golden_tables")

#: denominator parameters p/12 in (-1, 3], the gamma pole at 0 left out
B_GRID = tuple(Fraction(p, 12) for p in range(-11, 37) if p != 0)

#: series_sweep: x log-uniform on [10, 1000], targets 20 or 30 digits
SERIES_X = (10, 1000)
SERIES_TARGETS = (20, 30)
#: series_sweep request kinds; humbert_J is about a quarter of the traffic
SERIES_KINDS = (3, 4, 5, "humbert")

#: compound_cold: fresh (n, b) per request, x log-uniform on [6, 16]; tables of
#: M = 32..48 keep a request short enough that a run times over 100 of them
COLD_X = (6, 16)

#: compound_sweep: the ``eval --x-range`` traffic over fixed sets, two per
#: order, on a grid of step 1/2 from x = 8, so that each new x needs a new
#: table size M = ceil(2x)+16 (below x = 8, M is 32).  Six sets over 12 grid
#: points make a pass of 72 requests in which params recur but no (params,
#: M) does.  Passes repeat the same (params, M) order, so a run's mix does not
#: depend on how many it completes; 72 tables are more than the 64 that the
#: seed commit's coefficient cache keeps, so a later pass misses as the first
#: did.  x stays inside compound_cold's range, and low enough that a 20 s run
#: times about 100 requests or more.
SWEEP_SETS = (
    (3, (Fraction(2, 3), Fraction(5, 6))),
    (4, (Fraction(-1, 4), Fraction(1, 2), Fraction(5, 8))),
    (5, (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4))),
    (3, (Fraction(1, 6), Fraction(3, 4))),
    (4, (Fraction(1, 3), Fraction(2, 3), Fraction(7, 6))),
    (5, (Fraction(-1, 3), Fraction(1, 4), Fraction(3, 4), Fraction(3, 2))),
)
SWEEP_X = (8, 14)
SWEEP_STEP = Fraction(1, 2)

#: the warm-up's parameter sets, one per order: fixed, so set-up does the same
#: work for every seed, and never drawn for a timed request
WARMUP_SETS = {
    3: (Fraction(1, 4), Fraction(7, 12)),
    4: (Fraction(1, 6), Fraction(3, 4), Fraction(4, 3)),
    5: (Fraction(1, 4), Fraction(5, 12), Fraction(5, 6), Fraction(7, 6)),
}

#: requests generated per run; far more than a run at the seed commit completes
POOL = {"series_sweep": 4096, "compound_cold": 2400, "compound_sweep": 40 * 72,
        "golden_tables": 1000}

_X_DIGITS = 1000   # x is drawn on a 1/1000 grid so it is an exact rational


def _exact_x(value):
    return Fraction(round(value * _X_DIGITS), _X_DIGITS)


#: golden-ratio step: every prefix of the x sequence covers the range evenly
_PHI = (math.sqrt(5) - 1) / 2


def _even_x(rng, lo, hi, kinds, count):
    """``count`` (kind, x) pairs: kinds in turn, x log-uniform on [lo, hi].

    Each kind takes its x from its own golden-ratio sequence with a seeded
    start, so every prefix spreads each kind's x evenly over the range.
    """
    phase = [rng.random() for _ in kinds]
    out = []
    for k in range(count):
        i = k % len(kinds)
        phase[i] = (phase[i] + _PHI) % 1.0
        out.append((kinds[i], _exact_x(lo * (hi / lo) ** phase[i])))
    return out


def params_key(n, b_list):
    """Identity of a parameter set: the coefficients do not depend on b's order."""
    return (n, tuple(sorted(b_list)))


_WARMUP_KEYS = frozenset(params_key(n, bs) for n, bs in WARMUP_SETS.items())


def _draw_b(rng, n, taken=frozenset()):
    while True:
        bs = tuple(rng.choice(B_GRID) for _ in range(n - 1))
        key = params_key(n, bs)
        if key not in taken and key not in _WARMUP_KEYS:
            return bs


def _series_request(kind, bs, x, target):
    if kind == "humbert":
        return ("humbert_J", bs[0] - 1, bs[1] - 1, x, target)
    return ("series_eval", kind, bs, x, target)


def _series_sweep(rng, count):
    warmup = [_series_request(kind, WARMUP_SETS[n], Fraction(x), target)
              for kind, n, x, target in (("humbert", 3, SERIES_X[1], max(SERIES_TARGETS)),
                                         (3, 3, 30, 20), (4, 4, 100, 30), (5, 5, 300, 20))]
    timed = []
    for kind, x in _even_x(rng, *SERIES_X, SERIES_KINDS, count):
        bs = _draw_b(rng, 3 if kind == "humbert" else kind)
        timed.append(_series_request(kind, bs, x, rng.choice(SERIES_TARGETS)))
    return warmup, timed


def _compound_cold(rng, count):
    warmup = [("compound_eval", n, WARMUP_SETS[n], Fraction(x))
              for n, x in ((3, COLD_X[1]), (4, COLD_X[0]), (5, COLD_X[0]))]
    taken = set()
    timed = []
    for n, x in _even_x(rng, *COLD_X, (3, 4, 5), count):
        bs = _draw_b(rng, n, taken)
        taken.add(params_key(n, bs))
        timed.append(("compound_eval", n, bs, x))
    return warmup, timed


def _golden_order(size):
    """An order of ``range(size)`` whose every prefix spreads evenly.

    Step k visits the rank of ``k * phi mod 1`` among the first ``size`` such
    values.
    """
    keys = [(k * _PHI) % 1.0 for k in range(size)]
    rank = [0] * size
    for r, k in enumerate(sorted(range(size), key=keys.__getitem__)):
        rank[k] = r
    return rank


def _sweep_pass(rng, sets):
    """One pass over the x grid, all parameter sets at each point.

    The seed sets the grid's offset, strictly inside the first step, so
    every pass has the same table sizes M.  The grid is visited in one fixed
    golden-ratio order, not ascending, so a run that stops part-way through
    a pass has covered the whole x range, and runs of every seed and speed
    cover it alike.
    """
    x0 = SWEEP_X[0] + Fraction(rng.randrange(1, int(SWEEP_STEP * _X_DIGITS)), _X_DIGITS)
    grid = [x0 + j * SWEEP_STEP for j in range(int((SWEEP_X[1] - x0) / SWEEP_STEP) + 1)]
    return [("compound_eval", n, bs, grid[j]) for j in _golden_order(len(grid))
            for n, bs in sets]


def _compound_sweep(rng, count):
    warmup = [("compound_eval", n, WARMUP_SETS[n], Fraction(x))
              for n, x in ((5, SWEEP_X[1]), (3, SWEEP_X[0]), (4, SWEEP_X[0]))]
    timed = []
    while len(timed) < count:
        timed.extend(_sweep_pass(rng, SWEEP_SETS))
    return warmup, timed[:count]


def _golden_tables(rng, count):
    return [("tables",)], [("tables",)] * count


_PLANS = {"series_sweep": _series_sweep, "compound_cold": _compound_cold,
          "compound_sweep": _compound_sweep, "golden_tables": _golden_tables}


def plan(workload, seed, count=None):
    """(warm-up requests, timed requests) for ``workload``, fixed by ``seed``."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}")
    return _PLANS[workload](rng, POOL[workload] if count is None else count)

