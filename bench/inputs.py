"""Seeded inputs for the four workloads, as plain Python data.

Nothing here imports opcurve: inputs are integers, Fractions, lists and
strings, so generating them costs the library nothing and the oracles
can compare results against the data the inputs came from.  The same
seed always gives the same inputs.
"""

from fractions import Fraction
from math import comb, gcd
from random import Random

# frame_roundtrip: module rank n -> (depth, x-degree nx).  The schedule
# repeats three fast n=2 dressings and one slow n=1 dressing, so the
# class boundary sits at the 75th percentile of latency, clear of both
# p50 (inside the n=2 class) and p90 (inside the n=1 class).
FRAME_SHAPES = {1: (3, 6), 2: (2, 4)}
FRAME_SCHEDULE = (2, 2, 2, 1)

# cusp_backward: x-precision of the inputs and depth of the pipeline.
CUSP_XPREC = 24
CUSP_DEPTH = 12

POOL = {"frame_roundtrip": 256, "cusp_backward": 256, "curve_data": 1024,
        "cli_session": 512}


def _rational(rng, top=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def frame_inputs(rng, count):
    """Dressings I + sum_m s_m D^-m with random rational polynomial
    entries, shape classes in the fixed schedule."""
    out = []
    for k in range(count):
        n = FRAME_SCHEDULE[k % len(FRAME_SCHEDULE)]
        depth, nx = FRAME_SHAPES[n]
        terms = {m: [[[_rational(rng) for _ in range(nx)] for _ in range(n)]
                     for _ in range(n)]
                 for m in range(1, depth + 1)}
        out.append({"n": n, "depth": depth, "nx": nx, "terms": terms})
    return out


def inverse_power(c, k, prec):
    """Coefficients of (x + c)^-k = sum_j binom(-k, j) c^(-k-j) x^j."""
    return [Fraction((-1) ** j * comb(k + j - 1, j)) / c ** (k + j)
            for j in range(prec)]


def cusp_inputs(rng, count):
    """Shifted cusp pairs P = D^2 - 2/(x+c)^2,
    Q = D^3 - 3/(x+c)^2 D + 3/(x+c)^3, one seeded shift c != 0 each."""
    out = []
    for _ in range(count):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                     rng.randint(1, 9))
        out.append({"c": c,
                    "inv2": inverse_power(c, 2, CUSP_XPREC),
                    "inv3": inverse_power(c, 3, CUSP_XPREC)})
    return out


def _coprime_pair(rng, lo, hi):
    while True:
        a, b = sorted(rng.sample(range(lo, hi + 1), 2))
        if gcd(a, b) == 1:
            return a, b


def representable_upto(orders, bound):
    """Brute-force count of the integers 0..bound that are nonnegative
    combinations of the orders."""
    reach = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for o in orders:
                w = v + o
                if w <= bound and w not in reach:
                    reach.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(reach)


def _filtration_bound(a, b, target):
    # smallest bound at which the monomials z^-(ia+jb) number at least
    # target, so each filtration query does a similar amount of work
    bound = 0
    while sum((bound - i * a) // b + 1 for i in range(bound // a + 1)) < target:
        bound += 1
    return bound


def curve_inputs(rng, count):
    """One curve-data query set per operation: a coprime order pair and
    triple for semigroup reports, a scalar algebra C[z^-a, z^-b] and a
    cyclic algebra C[J_n] for filtration and condition reports."""
    out = []
    for k in range(count):
        pair = _coprime_pair(rng, 20, 300)
        while True:
            triple = tuple(sorted(rng.sample(range(10, 301), 3)))
            if gcd(*triple) == 1:
                break
        a, b = _coprime_pair(rng, 2, 15)
        out.append({
            "pair": pair,
            "triple": triple,
            "scalar": (a, b),
            "scalar_bound": _filtration_bound(a, b, rng.randint(12, 24)),
            "jn": 2 + k % 3,
            "jn_bound": rng.randint(6, 14),
            "probes": [rng.random() for _ in range(24)],
        })
    return out


def cusp_text(c):
    """The cusp pair shifted by c, as CLI expressions."""
    return (f"Dx^2 - 2*1/((x+{c})^2)",
            f"Dx^3 - 3*1/((x+{c})^2)*Dx + 3*1/((x+{c})^3)")


def cli_initial(rng):
    """Seeded bindings the session file starts with: name -> expression."""
    p, q = cusp_text(rng.randint(1, 4))
    binds = {
        "p": p,
        "q": q,
        # a fixed degree, so building the file costs the same on every seed
        "w": f"x^150 + {rng.randint(1, 9)}",
    }
    scalars = {}
    for i in range(8):
        val = _rational(rng)
        scalars[f"s{i}"] = val
        binds[f"s{i}"] = str(val)
    return binds, scalars


def cli_ops(rng, count, scalars):
    """CLI calls as (argv, expected stdout lines).  Every eighth-cycle
    has three writes and five reads; two of the eight carry an x^k
    operand with k in the hundreds."""
    out = []
    for i in range(count):
        kind = i % 8
        if kind == 0:
            # parenthesized, so a negative value is not read as a flag
            argv = ["session", "set", f"t{i}", f"({_rational(rng)})"]
            want = [f"stored 't{i}' (scalar)"]
        elif kind == 1:
            name = f"s{rng.randrange(len(scalars))}"
            argv = ["session", "show", name]
            want = [str(scalars[name])]
        elif kind == 2:
            argv = ["verify", "commute", "p", "q"]
            want = ["PASS: all commutators zero to precision (Nx=12)"]
        elif kind == 3:
            argv = ["session", "set", f"w{i}",
                    f"x^{rng.randint(200, 300)} + {rng.randint(1, 9)}"]
            want = [f"stored 'w{i}' (xseries)"]
        elif kind == 4:
            a, b = _coprime_pair(rng, 3, 20)
            argv = ["curve", "semigroup", "--orders", f"{a},{b}"]
            want = [f"conductor: {(a - 1) * (b - 1)}",
                    f"genus: {(a - 1) * (b - 1) // 2}"]
        elif kind == 5:
            k = rng.randint(1, 6)
            argv = ["pdo", "rho", f"Dx^{k}", "--store", f"r{i}"]
            want = [f"z^-{k}", f"stored as 'r{i}'"]
        elif kind == 6:
            argv = ["--depth", "3", "pipeline", "backward",
                    *cusp_text(rng.randint(1, 4))]
            want = ["genus: 1", "spectral charpoly: t - z^-2"]
        else:
            k = rng.randint(200, 300)
            argv = ["pdo", "compose", f"x^{k}", "Dx"]
            want = [f"(x^{k})*Dx"]
        out.append((argv, want))
    return out


def generate(workload, seed):
    """The whole seeded input pool of one workload."""
    rng = Random(f"{workload}:{seed}")
    count = POOL[workload]
    if workload == "frame_roundtrip":
        return frame_inputs(rng, count)
    if workload == "cusp_backward":
        return cusp_inputs(rng, count)
    if workload == "curve_data":
        return curve_inputs(rng, count)
    if workload == "cli_session":
        binds, scalars = cli_initial(rng)
        return {"bindings": binds, "ops": cli_ops(rng, count, scalars)}
    raise ValueError(f"unknown workload {workload!r}")
