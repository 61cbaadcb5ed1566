"""Value-set statistics for constraint-defined polynomial families.

The central object is the per-member root-count histogram: for a member f
(with a_0 = 0) and each shift a_0 in F_q, n(f, a_0) is the number of c with
f(c) + a_0 = 0, i.e. the multiplicity-free fiber size of -f over a_0.  One
Horner sweep per member yields the whole histogram, and everything downstream
is a linear functional of it:

    V(f)            = #{a_0 : n(f, a_0) > 0}
    S_r (fast path) = sum over (f, a_0) of C(n, r)
    ordered distinct-root tuples = sum of n*(n-1)*...*(n-r+1)

The same sweep carries f'(c) along.  Where f'(c) = 0, c is a multiple root
of f - f(c), and repeated synthetic division by (T - c) finds its
multiplicity; the sorted multiplicities of the roots of each such pair
(f, a_0) are counted in `ScanResult.patterns`.  The hermite and coincident
tuple counts (see `incidence`) depend only on these multiplicities, so they
are functionals of the histogram and the patterns too.

The scan also counts the repeated-root loci (deg gcd(f + a_0, f') >= 1, 2)
that `diagnostics.check_discriminant_loci` reads, so it is the one
per-member pass over the family.  With e = deg f' >= 1 and r = f mod f',
deg gcd(f + a_0, f') is the dimension of the kernel of multiplication by
r + a_0 on F_q[T]/(f'), the geometric multiplicity of -a_0 as an eigenvalue
of the e x e matrix M_r of multiplication by r.  So one characteristic
polynomial chi of M_r per member, evaluated at every -a_0, sieves the first
locus (chi(-a_0) is Res(f + a_0, f') up to a unit), and a gcd is needed
only at a multiple root of chi, for the second.  When f' = 0 every shift
lies in both loci; when f' is a nonzero constant none does.

The scan walks one member per orbit of the symmetries the family admits,
weighted by the orbit's size (`orbit_weigher`).  Frobenius a_k -> a_k^p
applies when every constraint coefficient lies in F_p, as integer literals
do, over F_{p^s} with s > 1; scaling a_k -> c^(d-k) a_k, f -> c^d f(T/c),
applies when every constraint is weighted homogeneous with
weight(A_k) = d - k, and is the one used when both apply.  Each maps the
family to itself and only permutes the
shifts a_0 of a member, so V(f), the profile, the patterns, the loci and
the f' = 0 pairs are the same at every member of an orbit.  The scanned
member is the lex-least of its orbit, and members are walked in lex order,
so the first orbit with a nonempty locus is scanned at the full scan's
first member with one, and its least a_0 is the full scan's witness;
`ScanResult.merge` keeps the earliest slice's witness.  When neither
action applies, as over a prime field with a constant term in a
constraint, every member is walked.

Each walked member's kernels then run once per affine class.  The map
f -> c^(-d) f(c(T + b)) + e, c != 0, permutes the points by T -> c(T + b)
and the values by v -> c^(-d) v + e and keeps every repeated root, so
V(f), the profile, the patterns, the loci and the f' = 0 pairs are the
same for f and its image; only the witness is not.  `_affine_key` gives
a normal form: the depressed member (when p does not divide d) with each
coefficient moved to the least discrete log the scalings still allow.
The first walked member of a class is scanned and its contribution
counted for every later one, at most `CLASS_CACHE_MAX` classes per scan.
All members of a class have the same loci, so the first member with a
nonempty locus is the first of its class, and the witness is the one a
scan of every member gives.  `scan_members` is that scan: the plain
loop, and the reference for `scan_family`.

`ScanResult` is the result: every aggregate is an exact big integer, and
the average value-set size is the exact Fraction(sum_values, member_count).
This module is only the scan; the brute-force recounts that check it, the
literal S_r oracle among them, live in `incidence`.
"""

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm, perm

from .errors import ParameterRange
from .families import enumerate_family


def generic_density(d):
    """The alternating factorial sum that a generic degree-d value set tracks."""
    if d < 1:
        raise ParameterRange(f"need d >= 1, got {d}")
    total = Fraction(0)
    fact = 1
    for r in range(1, d + 1):
        fact *= r
        total += Fraction((-1) ** (r - 1), fact)
    return total


def value_set_size(f):
    """|{f(c) : c in F_q}| by exhaustive evaluation."""
    field = f.field
    seen = bytearray(field.q)
    count = 0
    for c in field.indices():
        v = f.eval(c)
        if not seen[v]:
            seen[v] = 1
            count += 1
    return count


def _root_multiplicity(add, mc, coeffs):
    """Multiplicity of c as a root of the polynomial with coefficients
    `coeffs` (highest degree first), by repeated synthetic division by
    (T - c); mc is the mul row of c."""
    e = 0
    while len(coeffs) > 1:
        quo = [coeffs[0]]
        for coef in coeffs[1:]:
            quo.append(add[mc[quo[-1]]][coef])
        if quo.pop():  # the remainder
            break
        coeffs = quo
        e += 1
    return e


def _member_histogram(field, a_desc, profile, patterns):
    """Accumulate one member's root-count histogram into profile.

    a_desc is (a_{d-1}, ..., a_1).  hist[v] counts c with f(c) = v, which
    is the root count of f + a_0 at a_0 = -v; adds the histogram's
    n-distribution into profile[n] and returns V(f) = #nonzero entries.
    Each pair (f, a_0) with a multiple root adds 1 to patterns[key], key
    the sorted multiplicities of all F_q-roots of f + a_0.
    """
    add, mul, neg, _ = field.rows()
    hist = [0] * field.q
    multiple = {}  # v -> multiplicities >= 2 among the roots of f - v
    for c, mc in enumerate(mul):
        # Horner over (1, a_{d-1}, ..., a_1, 0) at the row's point c, with
        # the derivative's Horner sum carried alongside
        acc = 1
        der = 0
        for coef in a_desc:
            der = add[mc[der]][acc]
            acc = add[mc[acc]][coef]
        der = add[mc[der]][acc]
        v = mc[acc]  # constant coefficient of the member is 0
        hist[v] += 1
        if der == 0:
            coeffs = [1, *a_desc, neg[v]]
            multiple.setdefault(v, []).append(_root_multiplicity(add, mc, coeffs))
    vf = 0
    for n in hist:
        profile[n] += 1
        if n:
            vf += 1
    for v, mults in multiple.items():
        patterns[tuple(sorted(mults + [1] * (hist[v] - len(mults))))] += 1
    return vf


def _repeated_root_profile(field, a_desc, loci, witnesses):
    """Accumulate one member's repeated-root pairs.

    a_desc is (a_{d-1}, ..., a_1).  Adds to loci[0] resp. loci[1] the
    shifts a_0 with deg gcd(f + a_0, f') >= 1 resp. >= 2, and q to loci[2]
    when f' vanishes identically; an empty witnesses[i] takes
    (*a_desc, a_0) for the smallest a_0 counted in loci[i].

    With e = deg f' >= 1 and r = f mod f', deg gcd(f + a_0, f') is the
    dimension of the kernel of M_r + a_0, M_r the matrix of multiplication
    by r on F_q[T]/(f'), so a_0 counts in loci[0] exactly when
    chi(-a_0) = 0, chi = det(xI - M_r).  chi is evaluated at every shift in
    ascending order.  At a simple root the eigenspace is a line, so the
    degree is 1; only at a multiple root does `_gcd_degree` decide loci[1].
    Two cases need no chi: when f' = 0 every shift has gcd f + a_0, of
    degree d >= 2, and when deg f' = 0 no shift counts.
    """
    rows = field.rows()
    add, mul, neg, inv = rows
    f = [0] + list(reversed(a_desc)) + [1]
    d = len(f) - 1
    deriv = [mul[field.scalar(j)][f[j]] for j in range(1, d + 1)]
    while deriv and deriv[-1] == 0:
        deriv.pop()
    if not deriv:
        for i in range(3):
            loci[i] += field.q
        for i in range(2):
            if witnesses[i] is None:
                witnesses[i] = (*a_desc, 0)
        return
    e = len(deriv) - 1
    if e == 0:
        return
    # the columns r * T^i mod f' of M_r, as the rows of its transpose, which
    # has the same characteristic polynomial; T^e = sum of reduce[j] T^j
    minus_lead = mul[neg[inv[deriv[-1]]]]
    reduce = [minus_lead[c] for c in deriv[:-1]]
    col = _poly_rem(rows, f, deriv)
    col += [0] * (e - len(col))
    cols = [col]
    for _ in range(e - 1):
        top = mul[col[-1]]
        col = [add[c][top[t]] for c, t in zip([0] + col, reduce)]
        cols.append(col)
    chi = _charpoly(rows, cols)[::-1]  # descending
    for a0 in range(field.q):
        mx = mul[neg[a0]]
        acc = 0
        for coef in chi:
            acc = add[mx[acc]][coef]
        if acc:
            continue
        # chi'(-a_0) != 0 marks a simple root, whose eigenspace is a line
        der = acc = 0
        for coef in chi:
            der = add[mx[der]][acc]
            acc = add[mx[acc]][coef]
        f[0] = a0
        g = 1 if der else _gcd_degree(rows, f, deriv)
        for i in range(min(g, 2)):
            loci[i] += 1
            if witnesses[i] is None:
                witnesses[i] = (*a_desc, a0)


def _poly_rem(rows, a, b):
    """Remainder of a by b, ascending coefficient-index lists, through the
    field's lookup rows; b has a nonzero last entry.  Trailing zeros are
    stripped, so the zero remainder is []."""
    add, mul, neg, inv = rows
    a = a[:]
    db = len(b) - 1
    scale = mul[inv[b[-1]]]
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            minus_c = mul[neg[scale[c]]]
            off = i - db
            for j in range(db):
                a[off + j] = add[a[off + j]][minus_c[b[j]]]
            a[i] = 0
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_degree(rows, a, b):
    """Degree of gcd of two ascending coefficient-index lists, through the
    field's lookup rows; b is nonzero with a nonzero last entry.

    `unipoly.poly_gcd` is the reference implementation that tests compare
    against.
    """
    while b:
        a, b = b, _poly_rem(rows, a, b)
    return len(a) - 1


def _charpoly(rows, m):
    """det(xI - m) as an ascending coefficient-index list, for a square
    matrix m of element indices (a list of rows), through the field's
    lookup rows.

    m is brought to upper Hessenberg form h by similarity: for each column
    k, a nonzero entry below the subdiagonal is swapped onto it, and each
    row i below it loses u times row k+1 while column k+1 gains u times
    column i.  The characteristic polynomials p_j of the leading j x j
    blocks of h then satisfy p_0 = 1 and

        p_j = (x - h[j-1][j-1]) p_{j-1}
              - sum_{i<j} h[i-1][j-1] h[i][i-1] ... h[j-1][j-2] p_{i-1}.

    Only field operations are used, so this holds in every characteristic.
    """
    add, mul, neg, inv = rows
    n = len(m)
    h = [row[:] for row in m]
    for k in range(n - 2):
        pivot = k + 1
        while pivot < n and not h[pivot][k]:
            pivot += 1
        if pivot == n:
            continue
        if pivot != k + 1:
            h[pivot], h[k + 1] = h[k + 1], h[pivot]
            for row in h:
                row[pivot], row[k + 1] = row[k + 1], row[pivot]
        scale = mul[inv[h[k + 1][k]]]
        top = h[k + 1]
        for i in range(k + 2, n):
            u = scale[h[i][k]]
            if u:
                minus_u, plus_u = mul[neg[u]], mul[u]
                hi = h[i]
                for j in range(k, n):  # top[j] = 0 left of column k
                    hi[j] = add[hi[j]][minus_u[top[j]]]
                for row in h:
                    row[k + 1] = add[row[k + 1]][plus_u[row[i]]]
    p = [[1]]
    for j in range(1, n + 1):
        prev = p[-1]
        minus_diag = mul[neg[h[j - 1][j - 1]]]
        nxt = [0] + prev  # x * p_{j-1}
        for t, c in enumerate(prev):
            nxt[t] = add[nxt[t]][minus_diag[c]]
        prod = 1
        for i in range(j - 1, 0, -1):
            prod = mul[prod][h[i][i - 1]]
            if not prod:
                break
            minus_c = mul[neg[mul[h[i - 1][j - 1]][prod]]]
            for t, c in enumerate(p[i - 1]):
                nxt[t] = add[nxt[t]][minus_c[c]]
        p.append(nxt)
    return p[n]


def _hermite_tuples(pattern, r):
    """Ordered r-tuples of roots with multiplicity for one multiplicity pattern.

    These are the words of length r in which root j occurs at most
    pattern[j] times, r! * [x^r] prod_j sum_{k <= pattern[j]} x^k / k!.
    """
    words = [1] + [0] * r  # words[n]: words of length n over the roots so far
    for e in pattern:
        words = [
            sum(comb(n, k) * words[n - k] for k in range(min(e, n) + 1))
            for n in range(r + 1)
        ]
    return words[r]


class ScanResult:
    """Additive partial result of a family scan over one index slice.

    profile[n] counts the (member, a_0) pairs with n roots, n = 0..d;
    patterns maps sorted root multiplicities to the pairs with a multiple
    root; loci counts the pairs with deg gcd(f + a_0, f') >= 1, >= 2 and
    those with f' = 0; witnesses holds the first (a_{d-1}, ..., a_1, a_0)
    in the first two loci, in member order.
    """

    __slots__ = ("d", "member_count", "sum_values", "profile", "patterns", "loci", "witnesses")

    def __init__(self, d, member_count, sum_values, profile, patterns=None, loci=None,
                 witnesses=None):
        self.d = d
        self.member_count = member_count
        self.sum_values = sum_values
        self.profile = profile
        self.patterns = Counter() if patterns is None else patterns
        self.loci = [0, 0, 0] if loci is None else loci
        self.witnesses = [None, None] if witnesses is None else witnesses

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"ScanResult({args})"

    @classmethod
    def empty(cls, d):
        return cls(d, 0, 0, [0] * (d + 1))

    def merge(self, other):
        """The scan of this slice followed by `other`'s slice."""
        if self.d != other.d:
            raise ParameterRange("merging scans of different degree")
        return ScanResult(
            self.d,
            self.member_count + other.member_count,
            self.sum_values + other.sum_values,
            [a + b for a, b in zip(self.profile, other.profile)],
            self.patterns + other.patterns,
            [a + b for a, b in zip(self.loci, other.loci)],
            [w if w is not None else v for w, v in zip(self.witnesses, other.witnesses)],
        )

    def interpolating_count(self, r):
        """S_r from the aggregated histogram."""
        if r < 1:
            raise ParameterRange(f"need r >= 1, got {r}")
        return sum(cnt * comb(n, r) for n, cnt in enumerate(self.profile))

    def distinct_tuple_count(self, r):
        """Ordered r-tuples of pairwise distinct roots, summed over (f, a_0)."""
        if r < 1:
            raise ParameterRange(f"need r >= 1, got {r}")
        return sum(cnt * perm(n, r) for n, cnt in enumerate(self.profile))

    def hermite_count(self, r):
        """Ordered r-tuples of roots with multiplicity, summed over (f, a_0).

        A pair whose n roots are all simple contributes perm(n, r); a pair
        with a multiple root contributes by its multiplicity pattern.
        """
        if r < 1:
            raise ParameterRange(f"need r >= 1, got {r}")
        simple = list(self.profile)
        total = 0
        for pattern, cnt in self.patterns.items():
            simple[len(pattern)] -= cnt
            total += cnt * _hermite_tuples(pattern, r)
        return total + sum(cnt * perm(n, r) for n, cnt in enumerate(simple))

    def coincident_count(self, r):
        """Hermite r-tuples with a repeated node, summed over (f, a_0).

        Only pairs with a multiple root have any.
        """
        if r < 1:
            raise ParameterRange(f"need r >= 1, got {r}")
        return sum(
            cnt * (_hermite_tuples(pattern, r) - perm(len(pattern), r))
            for pattern, cnt in self.patterns.items()
        )


def _discrete_log(field):
    """log[x] with x = g^log[x] for every x != 0, g the first generator of
    F_q^* in index order; log[0] = 0."""
    n = field.q - 1
    mul = field.rows()[1]
    for g in range(1, field.q):
        powers = [1]
        while mul[g][powers[-1]] != 1:
            powers.append(mul[g][powers[-1]])
        if len(powers) == n:
            break
    log = [0] * field.q
    for e, x in enumerate(powers):
        log[x] = e
    return log


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


class _Scaling:
    """Lex-least points of the orbits of F_q^* acting by c . a_k = c^w a_k
    on tuples whose coordinates have the weights w in `weights`.

    Through discrete logs to a generator g: c = g^t moves g^e, of weight
    w, to g^(e + t*w).  Walking the coordinates in order, the shifts that
    fix every nonzero coordinate so far are the multiples of `step`, so a
    nonzero coordinate of weight w can still reach exactly the logs in
    e + delta*Z, delta = gcd(step*w, q-1); least[delta] holds the least
    index of each such coset.  Fixing it too makes step the lcm of step
    and (q-1)/gcd(w, q-1).  At the end step is the orbit size,
    (q-1)/gcd(q-1, h) with h the gcd of the weights of the nonzero
    coordinates.  Each point costs O(len(weights)), not O(q).
    """

    def __init__(self, field, weights):
        n = self.order = field.q - 1
        self.log = log = _discrete_log(field)
        self.least = {}
        for delta in _divisors(n):
            least = [0] * delta
            for x in range(1, field.q):
                if not least[log[x] % delta]:
                    least[log[x] % delta] = x
            self.least[delta] = least
        self.weights = weights

    def size(self, a):
        """The size of a's orbit when a is its lex-least point, else 0."""
        n, log, least = self.order, self.log, self.least
        step = 1
        for w, x in zip(self.weights, a):
            if x:
                delta = gcd(step * w, n)
                if x != least[delta][log[x] % delta]:
                    return 0
                step = lcm(step, n // gcd(w, n))
        return step


def orbit_weigher(spec):
    """The orbit weight of each point `enumerate_family` walks, or None.

    Two actions map a family to itself and keep every aggregate of its
    scan:

    - scaling, a_k -> c^(d-k) a_k for c in F_q^*, when every constraint is
      weighted homogeneous with weight(A_k) = d - k (and q > 2: F_2^* is
      trivial);
    - Frobenius, a_k -> a_k^p, when every constraint coefficient c has
      c^p = c (over F_{p^s}, s > 1).

    The returned function takes the values of the coordinates in
    `spec.walked` (the free ones on the direct walk, the whole member on
    the filter) and gives |orbit| when they are the lex-least point of
    their orbit, else 0.  When both actions apply, only scaling is used:
    its orbits have up to q - 1 points, Frobenius's up to s.  None when
    neither applies.
    """
    field = spec.field
    # variable i is A_{d-1-i}, of weight i + 1
    if field.q > 2 and all(
        len({sum(k * e for k, e in enumerate(exps, 1)) for exps in g.terms}) == 1
        for g in spec.constraints
    ):
        return _Scaling(field, [k + 1 for k in spec.walked]).size
    if field.s == 1:
        return None
    frob = [field.pow(x, field.p) for x in field.indices()]
    if any(frob[c] != c for g in spec.constraints for c in g.terms.values()):
        return None
    images = [frob]
    for _ in range(field.s - 2):
        images.append([frob[x] for x in images[-1]])

    def weigh(a):
        # |orbit| is the least i >= 1 with frob^i(a) = a, and s at most
        for i, image in enumerate(images, 1):
            b = tuple(map(image.__getitem__, a))
            if b < a:
                return 0
            if b == a:
                return i
        return field.s

    return weigh


def _affine_key(field, d):
    """The affine normal form of members (a_{d-1}, ..., a_1) of degree d:
    two members with equal keys are images of each other under
    f -> c^(-d) f(c(T + b)) + e, with c != 0.

    When p does not divide d, T -> T + b with b = -a_{d-1}/d depresses f
    (the shift is a Taylor shift on the lookup rows, and e drops the new
    constant term), so the key reads a_{d-2}, ..., a_1 of the depressed
    member; when p | d no shift moves a_{d-1}, and the key reads the whole
    member, so only scalings are found.  Scaling by c moves a_k by c^(d-k):
    the walk of `_Scaling`, but each nonzero coordinate is moved to the
    least log its coset still allows, and the shift that does so is kept
    for the coordinates after it.  The key is that image, each coordinate
    as 1 + its log, or 0.  Equal keys mean the same orbit under the whole
    affine group when p does not divide d, under scaling when p | d.
    """
    add, mul, neg, inv = field.rows()
    n = field.q - 1
    log = _discrete_log(field)
    minus_inv_d = mul[neg[inv[field.scalar(d)]]]
    depress = d > 1 and field.scalar(d) != 0
    weights = range(2, d) if depress else range(1, d)
    # (step, w) -> (delta, unit, next step): fixing a coordinate of weight
    # w at the least log of its coset changes the shift by k * unit, k the
    # number of deltas its log lies above that least log
    moves = {}
    for step in _divisors(n):
        for w in weights:
            delta = gcd(step * w, n)
            unit = step * pow(step * w // delta, -1, n // delta)
            moves[step, w] = delta, unit, lcm(step, n // gcd(w, n))

    def key(a):
        if depress:
            c = [1, *a, 0]  # descending; c[1] becomes 0
            b = minus_inv_d[a[0]]
            if b:
                mb = mul[b]
                for top in range(d, 1, -1):
                    for j in range(1, top + 1):
                        c[j] = add[c[j]][mb[c[j - 1]]]
            a = c[2:d]
        out = []
        shift, step = 0, 1
        for w, x in zip(weights, a):
            if x:
                delta, unit, step_next = moves[step, w]
                k, least = divmod((log[x] + shift * w) % n, delta)
                shift = (shift - k * unit) % n
                step = step_next
                out.append(least + 1)
            else:
                out.append(0)
        return tuple(out)

    return key


# affine classes kept per scan, at most; a member of a class past the bound
# is scanned and folded in, not stored
CLASS_CACHE_MAX = 1 << 16


def _contribution(field, d, member, witnesses):
    """(V(f), profile, patterns, loci) of one member, by both kernels;
    an empty slot of `witnesses` takes the member's first repeated-root
    pair, as in `_repeated_root_profile`."""
    profile, patterns, loci = [0] * (d + 1), Counter(), [0, 0, 0]
    vf = _member_histogram(field, member, profile, patterns)
    _repeated_root_profile(field, member, loci, witnesses)
    return vf, profile, patterns, loci


def _fold(result, contribution, weight):
    """Add `weight` members of one contribution into result."""
    vf, profile, patterns, loci = contribution
    result.member_count += weight
    result.sum_values += weight * vf
    for n, cnt in enumerate(profile):
        result.profile[n] += weight * cnt
    for key, cnt in patterns.items():
        result.patterns[key] += weight * cnt
    for i, cnt in enumerate(loci):
        result.loci[i] += weight * cnt


def scan_family(spec, partition=None):
    """One pass over (a slice of) the family collecting the histogram sums,
    the multiplicity patterns and the repeated-root loci.

    Where a symmetry applies (`orbit_weigher`), only the lex-least member
    of each orbit is walked, counted |orbit| times; otherwise every member
    is.  The kernels run once per affine class (`_affine_key`), on its
    first walked member, and their contribution is counted for every
    member of the class.  Every member of a class has the same loci, so
    the first member with a nonempty locus is the first of its class and
    is scanned: the witnesses are those of `scan_members`, the reference.
    """
    weigh = orbit_weigher(spec)
    if weigh is None:
        weighted = zip(enumerate_family(spec, partition), repeat(1))
    else:
        weighted = enumerate_family(spec, partition, weigh)
    result = ScanResult.empty(spec.d)
    field, d = spec.field, spec.d
    key_of = _affine_key(field, d)
    classes = {}  # affine key -> [contribution, summed weight]
    for member, weight in weighted:
        key = key_of(member)
        entry = classes.get(key)
        if entry is not None:
            entry[1] += weight
            continue
        contribution = _contribution(field, d, member, result.witnesses)
        if len(classes) < CLASS_CACHE_MAX:
            classes[key] = [contribution, weight]
        else:
            _fold(result, contribution, weight)
    for contribution, weight in classes.values():
        _fold(result, contribution, weight)
    return result


def scan_members(spec, partition=None):
    """The scan of every member of (a slice of) the family, each once: the
    plain loop, and the reference for `scan_family`."""
    result = ScanResult.empty(spec.d)
    for member in enumerate_family(spec, partition):
        _fold(result, _contribution(spec.field, spec.d, member, result.witnesses), 1)
    return result
