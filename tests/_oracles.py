"""Independent brute-force oracles: explicit index loops, no shared code
path with the library's transpose/tensordot implementations."""

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np


def fzeros(shape):
    a = np.empty(shape, dtype=object)
    a[...] = Fraction(0)
    return a


def sign(perm):
    s = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def oracle_alt(data):
    """out[J] = sum over permutations of sign * data at permuted J."""
    k = data.ndim
    out = fzeros(data.shape)
    for idx in np.ndindex(data.shape):
        acc = Fraction(0)
        for perm in permutations(range(k)):
            acc += sign(perm) * data[tuple(idx[perm[m]] for m in range(k))]
        out[idx] = acc
    return out


def oracle_bracket(c, x, y):
    n = c.shape[0]
    out = fzeros((n,))
    for i in range(n):
        for j in range(n):
            v = x[i] * y[j]
            if v:
                for k in range(n):
                    out[k] += v * c[i, j, k]
    return out


def coad_a(c, a, l):
    """Covector with <coad_a l, b> = -<l, [a, b]>."""
    n = c.shape[0]
    out = fzeros((n,))
    for i, b, k in product(range(n), repeat=3):
        if a[i] and c[i, b, k]:
            out[b] -= a[i] * c[i, b, k] * l[k]
    return out


def bracket_delta(d, l, m):
    """Covector with <[l,m]_delta, e_i> = <l (x) m, delta(e_i)>."""
    n = d.shape[0]
    out = fzeros((n,))
    for i, j, k in product(range(n), repeat=3):
        if d[i, j, k]:
            out[i] += l[j] * m[k] * d[i, j, k]
    return out


def coad_l(d, l, a):
    """Vector with <coad_l a, m> = -<[l,m]_delta, a>."""
    n = d.shape[0]
    out = fzeros((n,))
    for i, j, k in product(range(n), repeat=3):
        if d[i, j, k]:
            out[k] -= a[i] * l[j] * d[i, j, k]
    return out


def oracle_double_bracket(c, d, phi, x, y):
    """[a + l, b + m] in g + g* (dual part at coordinate n + i) from the
    three bracket rules: [a, b] in g, [a, m] = coad_a m - coad_l a and
    [l, m] = [l, m]_delta - (l (x) m (x) id) phi, extended bilinearly."""
    n = c.shape[0]
    a, l, b, m = x[:n], x[n:], y[:n], y[n:]
    contraction = fzeros((n,))
    for i, j, k in product(range(n), repeat=3):
        if phi[i, j, k]:
            contraction[k] += l[i] * m[j] * phi[i, j, k]
    g_part = oracle_bracket(c, a, b) - coad_l(d, m, a) + coad_l(d, l, b) - contraction
    dual_part = coad_a(c, a, m) - coad_a(c, b, l) + bracket_delta(d, l, m)
    return np.concatenate([g_part, dual_part])


def oracle_ad_tensor(c, x, arr):
    """Leibniz action of ad_x, slot by slot."""
    n = c.shape[0]
    out = fzeros(arr.shape)
    k = arr.ndim
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        if not v:
            continue
        for slot in range(k):
            for i in range(n):
                if x[i]:
                    for m in range(n):
                        target = list(idx)
                        target[slot] = m
                        out[tuple(target)] += x[i] * v * c[i, idx[slot], m]
    return out


def oracle_cyb(c, r):
    """The three bracket placements, expanded term by term."""
    n = r.shape[0]
    out = fzeros((n, n, n))
    for i, j, k, l in product(range(n), repeat=4):
        v = r[i, j] * r[k, l]
        if not v:
            continue
        for m in range(n):
            if c[i, k, m]:
                out[m, j, l] += v * c[i, k, m]
            if c[j, k, m]:
                out[i, m, l] += v * c[j, k, m]
            if c[j, l, m]:
                out[i, k, m] += v * c[j, l, m]
    return out


def oracle_delta_tensor(d, r):
    """(delta (x) id) r without tensordot."""
    n = r.shape[0]
    out = fzeros((n, n, n))
    for i, j in product(range(n), repeat=2):
        if r[i, j]:
            for a, b in product(range(n), repeat=2):
                if d[i, a, b]:
                    out[a, b, j] += r[i, j] * d[i, a, b]
    return out


def oracle_half_alt_delta(d, r):
    return Fraction(1, 2) * oracle_alt(oracle_delta_tensor(d, r))


def oracle_twist_coefficients(c, d, phi):
    """Coefficients of F(r) = CYB(r) - (1/2)Alt(delta (x) id)r - phi in the
    unknowns r_i_j (i < j), by polarization of F at 0, +-E_u and E_u + E_v:
    one {monomial: coefficient} per increasing triple, a monomial being the
    name-sorted tuple of its unknowns."""
    n = c.shape[0]
    pairs = list(combinations(range(n), 2))
    names = ["r_%d_%d" % p for p in pairs]

    def bivector(*units):
        r = fzeros((n, n))
        for sgn, (i, j) in units:
            r[i, j] += sgn
            r[j, i] -= sgn
        return r

    def f(r):
        return oracle_cyb(c, r) - oracle_half_alt_delta(d, r) - phi

    f0 = f(bivector())
    plus = [f(bivector((1, u))) for u in pairs]
    minus = [f(bivector((-1, u))) for u in pairs]
    coefs = {(): f0}
    for a, name in enumerate(names):
        coefs[(name,)] = (plus[a] - minus[a]) / 2
        coefs[(name, name)] = (plus[a] + minus[a]) / 2 - f0
    for (a, u), (b, v) in combinations(enumerate(pairs), 2):
        mono = tuple(sorted((names[a], names[b])))
        coefs[mono] = f(bivector((1, u), (1, v))) - plus[a] - plus[b] + f0
    return [{m: arr[t] for m, arr in coefs.items() if arr[t]}
            for t in combinations(range(n), 3)]


def oracle_pairing(covectors, arr):
    """Full pairing <l1 (x) ... (x) lk, arr>."""
    total = Fraction(0)
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        if not v:
            continue
        for slot, l in enumerate(covectors):
            v = v * l[idx[slot]]
        total += v
    return total


def unit(n, i):
    e = fzeros((n,))
    e[i] = Fraction(1)
    return e


# The certificate oracles below return None when the identity holds, and
# otherwise (witness, residual) at the first failing basis tuple in
# lexicographic order, the residual being what the library reports there.

def oracle_jacobi(c):
    n = c.shape[0]
    e = [unit(n, i) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        acc = fzeros((n,))
        for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
            acc += oracle_bracket(c, oracle_bracket(c, e[a], e[b]), e[cc])
        if acc.any():
            return (i, j, k), acc
    return None


def oracle_jacobi_pass(c):
    return oracle_jacobi(c) is None


def oracle_cocycle(c, d):
    """delta([e_i, e_j]) - ad_{e_i} delta(e_j) + ad_{e_j} delta(e_i), i < j."""
    n = c.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            res = fzeros((n, n))
            for k in range(n):
                if c[i, j, k]:
                    res += c[i, j, k] * d[k]
            res -= oracle_ad_tensor(c, unit(n, i), d[j])
            res += oracle_ad_tensor(c, unit(n, j), d[i])
            if res.any():
                return (i, j), res
    return None


def oracle_quasi_cojacobi(c, d, phi):
    n = c.shape[0]
    for i in range(n):
        res = oracle_half_alt_delta(d, d[i]) - oracle_ad_tensor(c, unit(n, i), phi)
        if res.any():
            return (i,), res
    return None


def oracle_pentagon(d, phi):
    """Alt of t[a,b,j,k] = sum_i d[i,a,b] phi[i,j,k]; the residual is the
    whole array."""
    n = d.shape[0]
    t = fzeros((n,) * 4)
    for i, a, b in product(range(n), repeat=3):
        if d[i, a, b]:
            for j, k in product(range(n), repeat=2):
                t[a, b, j, k] += d[i, a, b] * phi[i, j, k]
    res = oracle_alt(t)
    for idx in np.ndindex(res.shape):
        if res[idx]:
            return idx, res
    return None


def oracle_q_invariance(c, q):
    """Q([e_a, e_b], e_c) + Q(e_b, [e_a, e_c]) for a symmetric q."""
    n = c.shape[0]
    e = [unit(n, i) for i in range(n)]

    def form(u, v):
        return sum((u[i] * q[i, j] * v[j] for i, j in product(range(n), repeat=2)
                    if q[i, j]), Fraction(0))

    for a, b, cc in product(range(n), repeat=3):
        res = (form(oracle_bracket(c, e[a], e[b]), e[cc])
               + form(e[b], oracle_bracket(c, e[a], e[cc])))
        if res:
            return (a, b, cc), res
    return None


def oracle_bracket_map(c_src, c_dst, m):
    """m [e_i, e_j]_src - [m e_i, m e_j]_dst over all pairs."""
    n, n_dst = c_src.shape[0], c_dst.shape[0]
    for i, j in product(range(n), repeat=2):
        res = -oracle_bracket(c_dst, m[:, i], m[:, j])
        for k, v in enumerate(oracle_bracket(c_src, unit(n, i), unit(n, j))):
            for a in range(n_dst):
                res[a] += m[a, k] * v
        if res.any():
            return (i, j), res
    return None


def oracle_reduce(rows, v):
    """v minus the combination of the echelon rows that clears each row's
    leading coordinate, eliminated one row at a time.  The remainder is
    the unique vector of v + span(rows) that vanishes at every leading
    coordinate, so any elimination order gives the same one."""
    v = np.array(v, dtype=object)
    for row in rows:
        lead = next(k for k, x in enumerate(row) if x)
        coef = v[lead] / row[lead]
        if coef:
            for k in range(len(v)):
                v[k] -= coef * row[k]
    return v


def oracle_closure(c, rows):
    """[L_i, L_j] reduced against the rows L of an echelon basis, i < j."""
    for i, j in combinations(range(len(rows)), 2):
        res = oracle_reduce(rows, oracle_bracket(c, rows[i], rows[j]))
        if res.any():
            return (i, j), res
    return None


def oracle_quotient_map(rows, n):
    """g -> g/h for h spanned by the echelon rows, the quotient
    coordinates being the non-leading ones: column k is the remainder of
    e_k read off at those coordinates."""
    leads = {next(k for k, x in enumerate(row) if x) for row in rows}
    free = [k for k in range(n) if k not in leads]
    m = fzeros((len(free), n))
    for k in range(n):
        rem = oracle_reduce(rows, unit(n, k))
        for a, f in enumerate(free):
            m[a, k] = rem[f]
    return m


def oracle_project(m, t):
    """Every slot of t pushed through m, term by term."""
    q = m.shape[0]
    out = fzeros((q,) * t.ndim)
    for idx in np.ndindex(t.shape):
        if not t[idx]:
            continue
        for target in product(range(q), repeat=t.ndim):
            v = t[idx]
            for slot, a in enumerate(target):
                v = v * m[a, idx[slot]]
            out[target] += v
    return out


def oracle_obstruction(c, d, phi, r, h_rows):
    """phi - CYB(r) + (1/2)Alt(delta (x) id)r in the exterior cube of g/h."""
    t = phi - oracle_cyb(c, r) + oracle_half_alt_delta(d, r)
    return oracle_project(oracle_quotient_map(h_rows, c.shape[0]), t)


def oracle_stability(c, d, r, h_rows):
    """delta(a) + ad_a r in the exterior square of g/h, for each row a."""
    n = c.shape[0]
    m = oracle_quotient_map(h_rows, n)
    out = []
    for a in h_rows:
        t = oracle_ad_tensor(c, a, r)
        for i in range(n):
            if a[i]:
                t += a[i] * d[i]
        out.append(oracle_project(m, t))
    return out
