"""Checks of each operation's result that share no code with the path
being timed.

An oracle reads the result's public fields and compares them with the
inputs it was generated from, with closed formulas, or with a brute-force
computation written here.  It never calls the opcurve function it
checks.  Each returns None when the result is right, else a reason.
"""

from fractions import Fraction

from inputs import representable_upto


def _series_coeffs(s, count):
    return [s.coeffs[k] if k < len(s.coeffs) else Fraction(0)
            for k in range(count)]


def frame(item, back):
    """The recovered dressing equals the generated one, entry by entry."""
    n, depth, nx = item["n"], item["depth"], item["nx"]
    if back.n != n or back.lo is not None:
        return "recovered dressing has the wrong size or is truncated"
    if set(back.terms) - set(range(-depth, 1)):
        return "recovered dressing has terms outside degrees -depth..0"
    for m in range(0, depth + 1):
        mat = back.terms.get(-m)
        for i in range(n):
            for j in range(n):
                if m == 0:
                    want = [Fraction(int(i == j))]
                else:
                    want = item["terms"][m][i][j]
                got = [Fraction(0)] * len(want) if mat is None \
                    else _series_coeffs(mat.rows[i][j], len(want))
                entry = None if mat is None else mat.rows[i][j]
                if got != want or (entry is not None and (
                        entry.prec is not None or len(entry.coeffs) > len(want))):
                    return f"degree -{m} entry ({i}, {j}) differs"
    return None


def _monomial(w, k):
    # z^k exactly, or z^k + O(z^(prec+1)) with the window past k
    return w.coeffs == {k: Fraction(1)} and (w.prec is None or w.prec > k)


def cusp(item, geo):
    """Constants z^-2 and z^-3, genus 1, charpoly t - z^-2."""
    consts = geo.constants
    if len(consts) != 2 or any(c.n != 1 for c in consts):
        return "expected two 1x1 constants"
    if not _monomial(consts[0].rows[0][0], -2):
        return "constant 0 is not z^-2"
    if not _monomial(consts[1].rows[0][0], -3):
        return "constant 1 is not z^-3"
    if geo.semigroup.genus != 1 or geo.semigroup.gaps != [1]:
        return "semigroup of <2, 3> should have genus 1 and gap 1"
    if geo.charpoly is None or len(geo.charpoly) != 1 \
            or not _monomial(geo.charpoly[0], -2):
        return "spectral charpoly is not t - z^-2"
    if geo.condition is None or not geo.condition.satisfied:
        return "condition report not satisfied"
    return None


# -- curve data -----------------------------------------------------------

def _member2(k, a, b):
    # k = i a + j b with i < b covers every residue of k mod b
    return any((k - i * a) % b == 0 for i in range(min(b, k // a + 1)))


def _member3(k, a, b, c):
    return any(_member2(k - i * c, a, b) for i in range(k // c + 1))


def _semigroup(rep, gens, member, probes):
    gaps = set(rep.gaps)
    if len(gaps) != rep.genus or rep.genus != len(rep.gaps):
        return "genus is not the number of gaps"
    top = rep.conductor + min(gens)
    for u in probes:
        k = int(u * top)
        if member(k) != (k >= rep.conductor or k not in gaps):
            return f"membership of {k} disagrees with brute force"
    if rep.conductor and member(rep.conductor - 1):
        return "conductor - 1 is a member"
    for k in range(rep.conductor, top):
        if not member(k):
            return f"{k} past the conductor is a gap"
    return None


def curve(item, res):
    sg2, sg3, filt_s, cond_s, filt_j, cond_j, charpoly, rt = res
    a, b = item["pair"]
    if sg2.genus != (a - 1) * (b - 1) // 2:
        return f"genus of <{a}, {b}> is not (a-1)(b-1)/2"
    if sg2.conductor != (a - 1) * (b - 1):
        return f"conductor of <{a}, {b}> is not (a-1)(b-1)"
    why = _semigroup(sg2, (a, b), lambda k: _member2(k, a, b),
                     item["probes"])
    if why:
        return why
    t = item["triple"]
    why = _semigroup(sg3, t, lambda k: _member3(k, *t), item["probes"])
    if why:
        return why
    sa, sb = item["scalar"]
    if filt_s.dim != representable_upto((sa, sb), item["scalar_bound"]):
        return "scalar filtration dimension disagrees with brute force"
    if filt_j.dim != representable_upto((1,), item["jn_bound"]):
        return "C[J_n] filtration dimension disagrees with brute force"
    if not (cond_s.satisfied and cond_j.satisfied):
        return "condition report not satisfied"
    n = item["jn"]
    if len(charpoly) != n or any(c.coeffs for c in charpoly[:-1]) \
            or charpoly[-1].coeffs != {-1: Fraction((-1) ** (n + 1))}:
        return f"charpoly of J_{n} is not t^{n} - z^-1"
    fwd, back, equal = rt
    if not equal:
        return "round trip on the standard frame did not close"
    got = back.constants[0]
    want = {(0, 1): {0: Fraction(1)}, (1, 0): {-1: Fraction(1)}}
    for i in range(2):
        for j in range(2):
            if got.rows[i][j].coeffs != want.get((i, j), {}):
                return "round trip did not recover J_2"
    return None


def cli(want, code, stdout):
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    for line in want:
        if line not in lines:
            return f"missing output line {line!r}"
    return None
