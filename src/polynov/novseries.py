"""Window-truncated Novikov series in one variable: the arithmetic of the
truncated oracle (`homology.truncated_homology_oracle`).

A full Novikov-type completion stores sums that are infinite in the
direction where the class grows. The oracle keeps a window instead. With
a = w / s, w a primitive integer vector, the monomial t^e has height
w . e, and the window of order N keeps the heights <= floor(N * s), the
cutoff. A series is a plain {height: coefficient} dict; coefficients are
ints or Fractions over Z and Q and are reduced mod 2 over Z/2.

Arithmetic computes exactly and then discards the terms above the cutoff.
For data of nonnegative height the discarded terms form an ideal, so
results agree with the untruncated computation modulo the window.

The multivariate series arithmetic these helpers are tested against
(`Truncation`, `TruncatedNovikovSeries`, `geom_inverse`) lives in
`tests/series_reference.py`, on no command's path.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush


def _nonzero(acc, mod2):
    if mod2:
        return {h: 1 for h, c in acc.items() if c & 1}
    return {h: c for h, c in acc.items() if c}


def height_accumulate(acc, a, b, cutoff):
    """Add a*b windowed at `cutoff` into the dict `acc` and return it, not
    reduced; b is given as (height, coefficient) pairs sorted by height.

    A pair of terms lands at height h1 + h2 and nowhere else, so skipping
    the pairs above the cutoff gives the full product windowed afterwards.
    """
    get = acc.get
    for h1, c1 in a.items():
        room = cutoff - h1
        for h2, c2 in b:
            if h2 > room:
                break
            acc[h1 + h2] = get(h1 + h2, 0) + c1 * c2
    return acc


def leading_unit_inverse(p):
    """The inverse of the height dict p with min(p) == 0, in factored
    form (a^-1, u): p = a (1 - u) with lead a = p[0] and u listed as
    (height, coefficient) pairs of increasing positive height, so
    p^-1 = a^-1 sum_j u^j. This is the divisor `height_quotient` takes,
    built once for all the quotients by one p."""
    a = p[0]
    inv = a if a in (1, -1) else 1 / Fraction(a)
    return inv, sorted((h, -c * inv) for h, c in p.items() if h)


def height_quotient(x, divisor, cutoff, mod2):
    """x / p of height dicts, windowed at `cutoff`, for min(x) >= 0 and
    p given as `leading_unit_inverse(p)`; the result is reduced and in
    increasing height order.

    With a = p[0], p = a (1 - u) where u has only positive heights, and
    x / p = a^-1 s with s = x / (1 - u): s_k = x_k + sum_i u_i s_(k-i),
    the power-series long division (Knuth, TAOCP vol. 2, 4.7). Each
    nonzero s_k is pushed forward to the heights k + i, and a heap hands
    out the next height with pending terms, so the work follows the
    nonzero terms, not the window. With x = 1 this is the windowed
    inverse of p.
    """
    inv, u = divisor
    pending = {h: c for h, c in x.items() if h <= cutoff}  # height -> s_k so far
    heap = sorted(pending)
    get = pending.get
    out = {}
    while heap:
        k = heappop(heap)
        c = pending[k]  # final: later terms land above k
        if mod2:
            c &= 1
        if not c:
            continue
        out[k] = inv * c
        for i, ui in u:
            j = k + i
            if j > cutoff:
                break
            s = get(j)
            if s is None:
                pending[j] = ui * c
                heappush(heap, j)
            else:
                pending[j] = s + ui * c
    return out
