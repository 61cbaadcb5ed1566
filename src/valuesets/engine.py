"""Value-set statistics for constraint-defined polynomial families.

The central object is the per-member root-count histogram: for a member f
(with a_0 = 0) and each shift a_0 in F_q, n(f, a_0) is the number of c with
f(c) + a_0 = 0, i.e. the multiplicity-free fiber size of -f over a_0.  One
Horner sweep per member yields the whole histogram, and everything downstream
is a linear functional of it:

    V(f)            = #{a_0 : n(f, a_0) > 0}
    S_r (fast path) = sum over (f, a_0) of C(n, r)
    ordered distinct-root tuples = sum of n*(n-1)*...*(n-r+1)

The same sweep carries f'(c) along.  Where f'(c) = 0, c is a critical
point, a multiple root of f - v with v = f(c), and synthetic division by
(T - c) finds its multiplicity e in f - v and its multiplicity e' in f';
the sorted multiplicities of the roots of each such pair (f, a_0) are
counted in `ScanResult.patterns`.  The hermite and coincident tuple counts
(see `incidence`) depend only on these multiplicities, so they are
functionals of the histogram and the patterns too.

The scan also counts the repeated-root loci N1 and N2, the shifts with
deg gcd(f + a_0, f') >= 1 resp. >= 2, that
`diagnostics.check_discriminant_loci` reads, so it is the one per-member
pass over the family; they are read off the critical points the sweep
finds.  Dividing each (T - c)^e' out of f' leaves u, the part of f' with no
F_q-root, and over F_q

    gcd(f - v, f') = prod over c with f(c) = v of (T - c)^min(e, e')
                     * gcd(f - v, u).

Since e >= 2 and e' >= e - 1, min(e, e') >= 2 exactly when e' >= 2: the
shift -v lies in N1 when a critical point maps to v, and in N2 when those
points count at least twice as roots of f'.  A root of u that f sends into
F_q comes with a conjugate, so gcd(f - v, u) is 1 or of degree >= 2, and
-v lies in both loci when it is not 1, that is when chi_u(v) = 0, chi_u the
characteristic polynomial of multiplication by f on F_q[T]/(u)
(chi_u(v) is Res(u, f - v) up to a unit).  No gcd runs, and this holds in
every characteristic.  When f' = 0 every shift lies in both loci; when f'
is a nonzero constant none does.

The map f -> c^(-d) f(c(T + b)) + e, c != 0, permutes the points by
T -> c(T + b) and the values by v -> c^(-d) v + e and keeps every
repeated root, and the Frobenius a_k -> a_k^p permutes both by x -> x^p;
so V(f), the profile, the patterns, the loci and the f' = 0 pairs, all
but the witness, are the same for f and its image.

The scan walks one member per orbit of the symmetries the family admits,
weighted by the orbit's size (`orbit_weigher`).  Frobenius applies when
every constraint coefficient lies in F_p, as integer literals do, over
F_{p^s} with s > 1; scaling a_k -> c^(d-k) a_k, the affine map with
b = e = 0, applies when every constraint is weighted homogeneous with
weight(A_k) = d - k, and is the one used when both apply.  Each maps the
family to itself.  The scanned member is the lex-least of its orbit.
When neither action applies, as over a prime field with a constant term
in a constraint, every member is walked.

A scan is a sum of one-member scans (`ScanResult.add`), and the witness of
each locus is its lex-least pair (a_{d-1}, ..., a_1, a_0), so scans add up
in any order.  The members of an orbit have the same loci, so an orbit's
lex-least pair is its scanned member's.

Each walked member's kernel then runs once per affine class.  A scaling
orbit has one normal form, its lex-least point by field index
(`_Scaling`): the orbit walk tests a member against it, and `_affine_key`
reads it off the member depressed by T -> T + b (when p does not divide
d).  The first walked member of a class is scanned and its one-member scan
added for every later one, at most `CLASS_CACHE_MAX` classes per scan.
Members are walked in lex order and a class's members have the same loci,
so that first member holds the class's lex-least pair.  `scan_members`
scans every member: the plain loop, and the reference for `scan_family`.

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


def _divide_out(add, mc, coeffs):
    """(e, quotient): the multiplicity e of c as a root of the polynomial
    with coefficients `coeffs`, highest degree first, and its quotient by
    (T - c)^e, by repeated synthetic division; mc is the mul row of c.
    The zero polynomial [] gives (0, [])."""
    e = 0
    while len(coeffs) > 1:
        quo = [coeffs[0]]
        for coef in coeffs[1:]:
            quo.append(add[mc[quo[-1]]][coef])
        if quo.pop():  # the remainder
            break
        coeffs = quo
        e += 1
    return e, coeffs


def _poly_rem(rows, a, b):
    """Remainder of a by b as len(b) - 1 coefficients, for ascending
    coefficient-index lists a, at least as long as b, and b with a nonzero
    last entry, through the field's lookup rows."""
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
    return a[:db]


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
    those with f' = 0; witnesses holds the lex-least (a_{d-1}, ..., a_1,
    a_0) in each of the first two loci.
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

    def add(self, other, weight=1):
        """Add `weight` times `other`'s counts to this scan, in place, and
        keep the lesser witness of each locus; returns self."""
        if self.d != other.d:
            raise ParameterRange("adding scans of different degree")
        self.member_count += weight * other.member_count
        self.sum_values += weight * other.sum_values
        for n, cnt in enumerate(other.profile):
            self.profile[n] += weight * cnt
        for key, cnt in other.patterns.items():
            self.patterns[key] += weight * cnt
        for i, cnt in enumerate(other.loci):
            self.loci[i] += weight * cnt
        for i, w in enumerate(other.witnesses):
            if w is not None and (self.witnesses[i] is None or w < self.witnesses[i]):
                self.witnesses[i] = w
        return self

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
    """The orbits of F_q^* acting by c . a_k = c^w a_k on tuples whose
    coordinates have the weights w in `weights`, and their one normal
    form: the lex-least point of an orbit by field index.

    Through discrete logs to a generator g: c = g^t moves g^e, of weight
    w, to g^(e + t*w).  Walking the coordinates in order, the shifts that
    fix every nonzero coordinate so far are the multiples of `step`, so a
    nonzero coordinate of weight w can still reach exactly the logs in
    e + delta*Z, delta = gcd(step*w, q-1), and in the lex-least point it
    takes least[delta], the least index of its coset.  Fixing it makes
    step the lcm of step and (q-1)/gcd(w, q-1).  At the end step is the
    orbit size, (q-1)/gcd(q-1, h) with h the gcd of the weights of the
    nonzero coordinates.  Each point costs O(len(weights)), not O(q).
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
        # (step, w) -> (delta, unit, next step): the shift t -> t - k*unit, a
        # multiple of step, lowers the log of a coordinate of weight w by k*delta
        self.moves = {}
        for step in _divisors(n):
            for w in set(weights):
                delta = gcd(step * w, n)
                unit = step * pow(step * w // delta, -1, n // delta)
                self.moves[step, w] = delta, unit, lcm(step, n // gcd(w, n))

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

    def least_point(self, a):
        """The lex-least point of a's orbit, one coordinate at a time."""
        n, log, least, moves = self.order, self.log, self.least, self.moves
        out = []
        shift, step = 0, 1
        for w, x in zip(self.weights, a):
            if x:
                delta, unit, step = moves[step, w]
                e = (log[x] + shift * w) % n
                x = least[delta][e % delta]
                shift = (shift - (e - log[x]) // delta * unit) % n
            out.append(x)
        return tuple(out)


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
    equal keys exactly for images under f -> c^(-d) f(c(T + b)) + e, c != 0.

    When p does not divide d, b = -a_{d-1}/d depresses f (a Taylor shift
    on the lookup rows; e drops the new constant term), and the key is the
    `_Scaling` normal form of a_{d-2}, ..., a_1, a_k of weight d - k.  When
    p | d no shift moves a_{d-1}: the key is the normal form of the whole
    member, and equal keys mean images under the scalings alone.
    """
    add, mul, neg, inv = field.rows()
    depress = d > 1 and field.scalar(d) != 0
    least_point = _Scaling(field, range(2, d) if depress else range(1, d)).least_point
    if not depress:
        return least_point
    minus_inv_d = mul[neg[inv[field.scalar(d)]]]

    def key(a):
        c = [1, *a, 0]  # descending; c[1] becomes 0
        b = minus_inv_d[a[0]]
        if b:
            mb = mul[b]
            for top in range(d, 1, -1):
                for j in range(1, top + 1):
                    c[j] = add[c[j]][mb[c[j - 1]]]
        return least_point(c[2:d])

    return key


# affine classes kept per scan, at most; a member of a class past the bound
# is scanned and added, not stored
CLASS_CACHE_MAX = 1 << 16


def _scan_member(field, d, member):
    """The one-member `ScanResult` of a member (a_{d-1}, ..., a_1), by one
    Horner sweep: the histogram, the multiplicity patterns of its critical
    points, and the loci read off those and chi_u, as the module docstring
    derives."""
    rows = field.rows()
    add, mul, neg, _ = rows
    q = field.q
    # f' highest degree first, without leading zeros; each critical point's
    # (T - c)^e' is divided out of u
    u = [mul[field.scalar(k)][a] for k, a in zip(range(d, 0, -1), (1, *member))]
    while u and not u[0]:
        del u[0]
    hist = [0] * q
    critical = {}  # v -> (e, e') of each critical point c with f(c) = v
    for c, mc in enumerate(mul):
        # Horner over (1, a_{d-1}, ..., a_1, 0) at the row's point c, with
        # the derivative's Horner sum carried alongside
        acc = 1
        der = 0
        for coef in member:
            der = add[mc[der]][acc]
            acc = add[mc[acc]][coef]
        der = add[mc[der]][acc]
        v = mc[acc]  # constant coefficient of the member is 0
        hist[v] += 1
        if der == 0:
            e, _ = _divide_out(add, mc, [1, *member, neg[v]])
            e1, u = _divide_out(add, mc, u)
            critical.setdefault(v, []).append((e, e1))
    profile = [0] * (d + 1)
    for n in hist:
        profile[n] += 1
    patterns = Counter(
        tuple(sorted([e for e, _ in points] + [1] * (hist[v] - len(points))))
        for v, points in critical.items()
    )
    result = ScanResult(d, 1, q - profile[0], profile, patterns)
    if not u:  # f' = 0
        result.loci = [q, q, q]
        result.witnesses = [(*member, 0)] * 2
        return result
    level = {}  # shift a_0 -> the number of loci it lies in
    for v, points in critical.items():
        level[neg[v]] = 1 if sum(e1 for _, e1 in points) < 2 else 2
    if len(u) > 1:
        # the columns f T^i mod u of multiplication by f, as the rows of its
        # transpose, which has the same characteristic polynomial
        u.reverse()  # ascending
        cols = [_poly_rem(rows, [0, *reversed(member), 1], u)]
        while len(cols) < len(u) - 1:
            cols.append(_poly_rem(rows, [0, *cols[-1]], u))
        chi = _charpoly(rows, cols)[::-1]  # descending
        for v, mv in enumerate(mul):
            acc = 0
            for coef in chi:
                acc = add[mv[acc]][coef]
            if not acc:
                level[neg[v]] = 2
    for i in range(2):
        shifts = [a0 for a0, depth in level.items() if depth > i]
        if shifts:
            result.loci[i] = len(shifts)
            result.witnesses[i] = (*member, min(shifts))
    return result


def scan_family(spec, partition=None):
    """One pass over (a slice of) the family collecting the histogram sums,
    the multiplicity patterns and the repeated-root loci.

    Where a symmetry applies (`orbit_weigher`), only the lex-least member
    of each orbit is walked, counted |orbit| times; otherwise every member
    is.  The kernel runs once per affine class, keyed by `_affine_key`
    (the `_Scaling` normal form of the depressed member), on its first
    walked member, and its one-member scan is added for every member of
    the class.  The result equals `scan_members`, the reference.
    """
    weigh = orbit_weigher(spec)
    if weigh is None:
        weighted = zip(enumerate_family(spec, partition), repeat(1))
    else:
        weighted = enumerate_family(spec, partition, weigh)
    result = ScanResult.empty(spec.d)
    field, d = spec.field, spec.d
    key_of = _affine_key(field, d)
    classes = {}  # affine key -> [one-member scan, summed weight]
    for member, weight in weighted:
        key = key_of(member)
        entry = classes.get(key)
        if entry is not None:
            entry[1] += weight
        elif len(classes) < CLASS_CACHE_MAX:
            classes[key] = [_scan_member(field, d, member), weight]
        else:
            result.add(_scan_member(field, d, member), weight)
    for scan, weight in classes.values():
        result.add(scan, weight)
    return result


def scan_members(spec, partition=None):
    """The scan of every member of (a slice of) the family, each once: the
    plain loop, and the reference for `scan_family`."""
    result = ScanResult.empty(spec.d)
    for member in enumerate_family(spec, partition):
        result.add(_scan_member(spec.field, spec.d, member))
    return result
