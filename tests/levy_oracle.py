"""Reference Levy-distance oracle used by the test suite.

Everything here is deliberately independent of the package implementation:
CDF evaluation goes through the bisect module on plain Python lists, the
band check follows the textbook definition in both directions, and the
distance is located on a fixed epsilon grid rather than computed from the
rotated CDF graphs.  Feasibility of a band width is monotone (a wider
band contains a narrower one), so the smallest feasible grid multiple can
be found either by exhaustive ascent or by integer bisection; both are
provided so one can validate the other.
"""

from bisect import bisect_left, bisect_right

SLACK = 1e-12  # forgives float rounding in x +- eps, far below the grid step


def _cdf(values, x, limit):
    """F(x) = #{v < x}/n with limit='left'; limit='right' gives F(x+)."""
    if limit == "left":
        return bisect_left(values, x) / len(values)
    return bisect_right(values, x) / len(values)


def band_holds(ea, eb, eps):
    """Textbook band condition F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x.

    Checked in both (F, G) role orders at both one-sided limits of every
    point where any of the shifted CDFs can jump.  Between those points all
    the functions are constant, so this covers the whole real line.
    """
    ea, eb = sorted(ea), sorted(eb)
    crit = set()
    for v in ea:
        crit.update((v, v - eps, v + eps))
    for v in eb:
        crit.update((v, v - eps, v + eps))
    for x in sorted(crit):
        for limit in ("left", "right"):
            for lo, hi in ((ea, eb), (eb, ea)):
                f_lo = _cdf(lo, x - eps, limit)
                f_hi = _cdf(lo, x + eps, limit)
                g = _cdf(hi, x, limit)
                if f_lo - eps - g > SLACK or g - f_hi - eps > SLACK:
                    return False
    return True


def levy_grid_scan(ea, eb, step=1e-6, max_eps=1.5):
    """Smallest feasible multiple of step, by exhaustive ascending search."""
    k = 0
    while k * step <= max_eps:
        if band_holds(ea, eb, k * step):
            return k * step
        k += 1
    raise AssertionError("no feasible band width up to max_eps")


def levy_grid_bisect(ea, eb, step=1e-6):
    """Smallest feasible multiple of step, by bisection on the grid index.

    Gives the same answer as levy_grid_scan because feasibility is monotone
    in eps.  Two CDFs always fit in a band of width 1, so the upper bracket
    starts feasible.
    """
    if band_holds(ea, eb, 0.0):
        return 0.0
    lo, hi = 0, int(1.25 / step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if band_holds(ea, eb, mid * step):
            hi = mid
        else:
            lo = mid
    return hi * step
