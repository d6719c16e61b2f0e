"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own algorithms: vertex
enumeration by brute-force basis inspection instead of double description,
LP optima by scanning vertices, projection by grid descent in floats and
certified by a vertex scan, moments by direct summation over support points, pair bounds read off the
rays, and Kronecker products formed densely. The one exception is
normalised_rays, which reuses the library's double description and checks
only what follows it: normalisation to densities and the column order.
dense_rays writes the library's sparse rays out in full, so they compare
with the dense scan oracle, and packed_sort_keys is the byte-packed dense
sort key that the library's sparse key must order alike.
scan_double_description is the double description with the quadratic pair
scan and a per-pair adjacency test by Fraction elimination; it shares no
adjacency code with the library, whose pair generation and per-class rank
memo it checks. column_oracle is the linear-minimization oracle that scans
every ray column; run under the library's Wolfe loop, it gives the
projection that the library's vertex-LP oracle must reproduce.
fraction_wolfe is Wolfe's loop in Fraction arithmetic, with the affine
minimizer by Fraction Gauss-Jordan elimination: the reference whose every
decision the library's integer loop must repeat. cold_vertex_oracle is the
library's vertex oracle by its earlier route, one cold two-phase solve_lp on
Fraction rows per call with the answer checked as a Density: the reference
for the oracle that runs phase 1 once and reads each vertex off the tableau.
pair_scale is the per-pair correlation scale computed on demand, the
reference for the scales a class caches.

fraction_margin_rows is the margin cone's rows built as Fractions p_i - x_i
and then cleared to primitive integers, the reference for the library's
closed-form integer rows. corner_theta_from_density and
corner_cdf_from_theta are the step-by-step theta transforms, through the
CDF, a diagonal of corner weights and one stencil per coordinate, with the
Kronecker products formed densely: the references for the library's single
stencils.

build_h2 is an input, not an oracle: the pair-moment cone, a second family
of integer constraint rows for checking the double description against the
vertex oracle beyond margin rows.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, sqrt

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_square(rows, rhs):
    """Exact solve of a square system; None if singular."""
    n = len(rows)
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _row_reduce(rows, rhs):
    """RREF of [rows | rhs]. Returns (reduced_rows, reduced_rhs) with zero
    rows dropped, or None when the system is inconsistent."""
    nrows, ncols = len(rows), len(rows[0])
    aug = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = ONE / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(nrows):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, nrows):
        if aug[r][ncols] != 0:
            return None
    return [row[:ncols] for row in aug[:rank]], [row[ncols] for row in aug[:rank]]


def bfs_vertices(rows, rhs):
    """All vertices of {x >= 0 : rows x = rhs} as exact tuples, by trying
    every column basis of the row-reduced system. Empty set when infeasible."""
    ncols = len(rows[0])
    reduced = _row_reduce(rows, rhs)
    if reduced is None:
        return set()
    rows, rhs = reduced
    nrows = len(rows)
    if nrows == 0:
        # only the trivial constraint 0 = 0 remains; the origin is the sole
        # vertex of {x >= 0}
        return {tuple([ZERO] * ncols)}
    found = set()
    for basis in itertools.combinations(range(ncols), nrows):
        sub = [[rows[i][c] for c in basis] for i in range(nrows)]
        sol = solve_square(sub, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        full = [ZERO] * ncols
        for c, v in zip(basis, sol):
            full[c] = v
        found.add(tuple(full))
    return found


def lp_min_by_vertices(rows, rhs, cost):
    """Exact LP minimum over a bounded polytope by scanning its vertices.
    Returns (value, argmin vertex) or None when infeasible."""
    best = None
    arg = None
    for v in bfs_vertices(rows, rhs):
        val = sum(c * x for c, x in zip(cost, v))
        if best is None or val < best:
            best, arg = val, v
    if best is None:
        return None
    return best, arg


def class_polytope_rows(p):
    """Constraint rows of {f >= 0, margins p, unit mass} over the canonical
    support order, by direct indicator construction."""
    m = len(p)
    n = 1 << m
    rows = []
    for i in range(m):
        # margin row: sum over points with x_i = 1 equals p_i
        rows.append([ONE if (j >> i) & 1 else ZERO for j in range(n)])
    rows.append([ONE] * n)
    rhs = [Fraction(v) for v in p] + [ONE]
    return rows, rhs


def pair_polytope_rows(m, mu2):
    """Constraint rows of {f >= 0, pair moments mu2, unit mass}."""
    n = 1 << m
    rows = []
    rhs = []
    for (i, j), mu in zip(itertools.combinations(range(m), 2), mu2):
        mask = (1 << i) | (1 << j)
        rows.append([ONE if (k & mask) == mask else ZERO for k in range(n)])
        rhs.append(Fraction(mu))
    rows.append([ONE] * n)
    rhs.append(ONE)
    return rows, rhs


def build_h2(m, mu2):
    """Pair-moment constraints as primitive integer rows: at support point x,
    the row for (i, j) is mu_ij - x_i x_j cleared of denominators. Each row
    is mu_ij at points with x_i x_j = 0 and -(1 - mu_ij) at points with
    x_i x_j = 1, scaled; the boundary values mu_ij = 0 and mu_ij = 1
    degenerate to "no mass where x_i x_j = 1" and "no mass where
    x_i x_j = 0"."""
    rows = []
    for (i, j), mu in zip(itertools.combinations(range(m), 2), mu2):
        mask = (1 << i) | (1 << j)
        rows.append([Fraction(mu) - (1 if (k & mask) == mask else 0) for k in range(1 << m)])
    return integer_rows(rows)


def integer_rows(rows):
    """Fraction rows as primitive integer rows: each times the lcm of its
    denominators, then divided by the gcd of the result."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row))
        ints = [int(v * den) for v in row]
        g = gcd(*ints) or 1
        out.append(tuple(v // g for v in ints))
    return out


def fraction_margin_rows(p):
    """The margin cone's rows by way of Fractions: row i at support point x
    is p_i - x_i, then cleared to a primitive integer row."""
    m = len(p)
    return integer_rows([[Fraction(v) - ((j >> i) & 1) for j in range(1 << m)] for i, v in enumerate(p)])


def _kron_matvec(factors, vec):
    """(factors[m-1] kron ... kron factors[0]) @ vec with the product formed
    densely; each factor is a row-major 2x2 (a, b, c, d)."""
    full = [[ONE]]
    for a, b, c, d in factors:
        full = dense_kron([[a, b], [c, d]], full)
    return [sum(x * v for x, v in zip(row, vec)) for row in full]


def _corner_weights(p):
    """Diagonal prod_i q_i^(1 - x_i) over the canonical support order."""
    out = []
    for j in range(1 << len(p)):
        w = ONE
        for i, v in enumerate(p):
            if not (j >> i) & 1:
                w *= 1 - Fraction(v)
        out.append(w)
    return out


def corner_cdf_from_theta(p, theta):
    """The interaction expansion at every support point: the stencils
    (1, p_i; 1, 0), then the corner weights."""
    inner = _kron_matvec([(1, Fraction(v), 1, 0) for v in p], theta)
    return [w * v for w, v in zip(_corner_weights(p), inner)]


def corner_theta_from_density(p, density):
    """Theta of a density through its CDF (running sums per coordinate),
    divided by the corner weights, then the stencils (0, 1; 1/p_i, -1/p_i)."""
    cdf = _kron_matvec([(1, 0, 1, 1)] * len(p), density)
    inner = [v / w for w, v in zip(_corner_weights(p), cdf)]
    return _kron_matvec([(0, 1, 1 / Fraction(v), -1 / Fraction(v)) for v in p], inner)


def direct_margins(values):
    """Margins by direct summation over support points."""
    n = len(values)
    m = n.bit_length() - 1
    return [sum(v for j, v in enumerate(values) if (j >> i) & 1) for i in range(m)]


def direct_subset_moments(values, order):
    """Raw moments of one order by direct summation: each support point adds
    its mass to every subset of that size of its 1-coordinates. Subsets in
    lexicographic order; an order above m gives []."""
    m = len(values).bit_length() - 1
    acc = {subset: ZERO for subset in itertools.combinations(range(m), order)}
    for j, v in enumerate(values):
        on = [i for i in range(m) if (j >> i) & 1]
        for subset in itertools.combinations(on, order):
            acc[subset] += v
    return list(acc.values())


def direct_pair_moments(values):
    """Pair moments by direct summation, lexicographic pair order."""
    n = len(values)
    m = n.bit_length() - 1
    out = []
    for i, j in itertools.combinations(range(m), 2):
        mask = (1 << i) | (1 << j)
        out.append(sum(v for k, v in enumerate(values) if (k & mask) == mask))
    return out


def ray_pair_bounds(p, rays, sqrt):
    """The ray route to pair bounds, as the paper reads them off the rays:
    row min and max of the pair moments of the ray columns (direct
    summation), rendered as correlations (mu - p_i p_j) / sqrt(p_i q_i p_j q_j)
    under the given square-root policy. Returns (moment_lo, moment_hi,
    rho_lo, rho_hi), lexicographic pair order."""
    rows = list(zip(*(direct_pair_moments(list(col)) for col in rays.column_values())))
    lo, hi = [min(r) for r in rows], [max(r) for r in rows]
    rho_lo, rho_hi = [], []
    for (i, j), mn, mx in zip(itertools.combinations(range(len(p)), 2), lo, hi):
        centre = p[i] * p[j]
        scale = sqrt(p[i] * (1 - p[i]) * p[j] * (1 - p[j]))
        rho_lo.append((mn - centre) / scale)
        rho_hi.append((mx - centre) / scale)
    return lo, hi, rho_lo, rho_hi


def pair_scale(p, i, j, sqrt):
    """sqrt(p_i q_i p_j q_j) under the given square-root policy, for the
    zero-based pair (i, j)."""
    return sqrt(p[i] * (1 - p[i]) * p[j] * (1 - p[j]))


def normalised_rays(rows, m):
    """The normalise-and-sort route to the columns of the ray matrix of
    integer rows over 2^m points: every primitive double-description vector
    becomes a unit-mass Density, and the densities are sorted on their
    Fraction values. Returns the sorted value tuples."""
    from bernray import Density
    from bernray.cone import _double_description

    n = 1 << m
    densities = []
    for vec in dense_rays(*_double_description(rows, n), n):
        total = sum(vec)
        densities.append(Density(m, [Fraction(v, total) for v in vec]))
    densities.sort(key=lambda d: d.values)
    return [d.values for d in densities]


def dense_rays(supports, entries, n):
    """The library's sparse rays (support masks and their entries, lowest
    coordinate first) as dense tuples of n integers."""
    rays = []
    for support, ray in zip(supports, entries):
        coords = [c for c in range(n) if support >> c & 1]
        assert len(coords) == len(ray) and support < 1 << n
        vec = [0] * n
        for c, v in zip(coords, ray):
            vec[c] = v
        rays.append(tuple(vec))
    return rays


def packed_sort_keys(vectors, totals, n):
    """One integer per dense ray vector that orders the rays as their
    densities order: the entries of vec * (L // total), L the lcm of the
    totals, packed big-endian into fields of whole bytes that hold L (a
    standard struct field up to 8 bytes). The byte-packed key the library
    used before its rays became sparse."""
    import struct

    scale = lcm(*totals)
    width = (scale.bit_length() + 7) // 8
    if width <= 8:
        # the smallest standard struct field of at least `width` bytes
        layout = struct.Struct(f">{n}{'BHIIQQQQ'[width - 1]}")
        packed = (layout.pack(*vec) for vec in vectors)
    else:
        packed = (b"".join([v.to_bytes(width, "big") for v in vec]) for vec in vectors)
    return [int.from_bytes(p, "big") * (scale // total) for p, total in zip(packed, totals)]


def scan_double_description(int_rows, n):
    """The double description with the all-pairs scan: every positive ray
    meets every negative one, and a pair goes on to its own rank test when
    its support union has at most t + 2 coordinates, t the rows inserted so
    far. The library generates those pairs from shared support subsets and
    computes one rank per set of column classes instead; both must return
    the same rays in the same order."""
    rays = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    supports = [1 << j for j in range(n)]
    processed = []
    for row in int_rows:
        t = len(processed)
        values = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        keep = [k for k, s in enumerate(values) if s == 0]
        pos = [k for k, s in enumerate(values) if s > 0]
        neg = [k for k, s in enumerate(values) if s < 0]
        new_rays = {}
        for ip in pos:
            for ineg in neg:
                union = supports[ip] | supports[ineg]
                width = union.bit_count()
                if width > t + 2:
                    continue
                if t and not _adjacent(processed, union, width):
                    continue
                vp, vn = values[ip], -values[ineg]
                combo = [vp * b + vn * a for a, b in zip(rays[ip], rays[ineg])]
                g = 0
                for v in combo:
                    g = gcd(g, v)
                combo = tuple(v // g for v in combo)
                if combo not in new_rays:
                    mask = 0
                    for k, v in enumerate(combo):
                        if v:
                            mask |= 1 << k
                    new_rays[combo] = mask
        rays = [rays[k] for k in keep] + list(new_rays)
        supports = [supports[k] for k in keep] + list(new_rays.values())
        processed.append(row)
        if not rays:
            break
    return rays


def _adjacent(processed, union, width):
    """Two extreme rays of the current cone span a 2-face iff the constraints
    tight at both (processed hyperplanes plus the shared zero coordinates)
    have rank n - 2; eliminating the unit rows reduces that to the processed
    rows restricted to the support union having rank (union size) - 2. The
    rank is the row count of the Fraction row-reduced form."""
    cols = [c for c in range(union.bit_length()) if (union >> c) & 1]
    sub = [[row[c] for c in cols] for row in processed]
    reduced, _ = _row_reduce(sub, [0] * len(sub))
    return len(reduced) == width - 2


def scan_pairs(pos_supports, neg_supports, width):
    """Index pairs (i, j) whose support masks have a union of at most width
    coordinates, by scanning all of them."""
    return [
        (i, j)
        for i, sp in enumerate(pos_supports)
        for j, sn in enumerate(neg_supports)
        if (sp | sn).bit_count() <= width
    ]


def dense_kron(a, b):
    """Kronecker product of two dense matrices given as lists of rows, a as
    the slow (leading) factor."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def grid_projection_distance(columns, weights, target, resolution=8, shrink_rounds=60):
    """Brute-force projection oracle over the column-weight simplex.

    Full composition grid at the given resolution seeds an incumbent; pairwise
    mass moves with geometrically shrinking step refine around it. Float
    arithmetic; accuracy well below 1e-7 for the smooth quadratics involved.
    Returns the Euclidean distance (in the weighted metric) of the best point.
    """
    ncols = len(columns)
    wf = [float(w) for w in weights]
    tf = [float(t) for t in target]
    cols = [[float(v) for v in col] for col in columns]

    def dist_sq(lam):
        total = 0.0
        for k in range(len(tf)):
            acc = 0.0
            for i in range(ncols):
                if lam[i]:
                    acc += cols[i][k] * lam[i]
            d = acc - tf[k]
            total += wf[k] * d * d
        return total

    best_lam = None
    best_val = None
    for comp in _compositions(resolution, ncols):
        lam = [c / resolution for c in comp]
        val = dist_sq(lam)
        if best_val is None or val < best_val:
            best_val, best_lam = val, lam

    step = 1.0 / resolution
    for _ in range(shrink_rounds):
        improved = True
        while improved:
            improved = False
            for i in range(ncols):
                if best_lam[i] < step - 1e-15:
                    continue
                for j in range(ncols):
                    if i == j:
                        continue
                    cand = list(best_lam)
                    cand[i] -= step
                    cand[j] += step
                    val = dist_sq(cand)
                    if val < best_val - 1e-18:
                        best_val, best_lam = val, cand
                        improved = True
        step *= 0.5
        if step < 1e-12:
            break
    return sqrt(best_val)


def column_oracle(amap):
    """Linear minimization over the ray columns' pair moments, for Wolfe's
    loop: a scan in integers, ties to the lowest index. amap is the order-2
    moment map of a ray matrix; keys are column indices. The cost c is
    integer, and a column comes back as its integer pair sums and total."""
    columns = list(zip(*amap.entries))
    totals = amap.rays.totals
    # column k is sums[k] / totals[k] with integer sums
    sums = [
        [a.numerator * (total // a.denominator) for a in col]
        for col, total in zip(columns, totals)
    ]

    def oracle(c):
        k = min(
            range(len(sums)),
            key=lambda k: Fraction(sum(a * b for a, b in zip(c, sums[k]) if a), totals[k]),
        )
        return k, sums[k], totals[k]

    return oracle


def cold_vertex_oracle(cls, target):
    """Linear minimization over the class polytope, one cold LP per call:
    solve_lp over the margin and unit-sum rows of the direct system, as
    Fractions, with the pair cost spread over each pair's points; the
    answer is checked as a Density and cleared over its least common
    denominator. Returns what the library's _vertex_oracle returns: the
    vertex key (support mask, nonzero entries, total), its integer pair sums
    and its total."""
    from bernray import Density
    from bernray.simplex import solve_lp
    from bernray.solvers import _direct_rows
    from bernray.tensor import over_common_denominator, subset_points

    m = cls.m
    rows, b = _direct_rows(cls, target)
    rows = [[Fraction(v) for v in r] for r in rows[:m] + rows[-1:]]
    b = b[:m] + b[-1:]
    pair_points = subset_points(m, 2)

    def oracle(c):
        cost = [ZERO] * (1 << m)
        for a, points in zip(c, pair_points):
            for j in points:
                cost[j] += a
        vertex, total = over_common_denominator(Density(m, solve_lp(rows, b, c=cost).x).values)
        support = sum(1 << j for j, v in enumerate(vertex) if v)
        key = (support, tuple(v for v in vertex if v), total)
        return key, [sum(vertex[j] for j in points) for points in pair_points], total

    return oracle


def fraction_wolfe(oracle, weights, target):
    """Wolfe's minimum-norm-point loop in Fraction arithmetic. oracle is a
    library-style oracle returning (key, sums, total); it is wrapped to give
    the loop Fraction pair moments. Returns what the library's _wolfe does:
    the corral keys, their weights, x, the major-cycle count and the gap."""

    def fraction_oracle(c):
        key, sums, total = oracle(c)
        return key, [Fraction(v, total) for v in sums]

    def dot(u, v):
        return sum(w * a * b for w, a, b in zip(weights, u, v))

    key, a = fraction_oracle([ZERO] * len(target))  # any vertex starts the corral
    x = [v - t for v, t in zip(a, target)]
    keys, points, lam, gram = [key], [x], [ONE], [[dot(x, x)]]
    cycles = 0
    while True:
        cycles += 1
        key, a = fraction_oracle([w * v for w, v in zip(weights, x)])
        y = [v - t for v, t in zip(a, target)]
        xx, xy = dot(x, x), dot(x, y)
        if xy >= xx:
            return keys, lam, x, cycles, xx - xy
        row = [dot(p, y) for p in points]
        for g, v in zip(gram, row):
            g.append(v)
        gram.append(row + [dot(y, y)])
        keys, points, lam = keys + [key], points + [y], lam + [ZERO]
        while True:
            alpha = fraction_affine_minimizer(gram)
            if all(v > 0 for v in alpha):
                lam = alpha
                break
            theta = min(w / (w - v) for w, v in zip(lam, alpha) if v <= 0)
            lam = [w + theta * (v - w) for w, v in zip(lam, alpha)]
            keep = [k for k, w in enumerate(lam) if w > 0]
            keys = [keys[k] for k in keep]
            points = [points[k] for k in keep]
            lam = [lam[k] for k in keep]
            gram = [[gram[i][j] for j in keep] for i in keep]
        x = [sum(w * p[i] for w, p in zip(lam, points)) for i in range(len(target))]


def fraction_affine_minimizer(gram):
    """Affine weights of the minimum-norm point in the affine hull of
    affinely independent points with Gram matrix gram: the solution alpha of
    [G 1; 1' 0] [alpha; mu] = [0; 1], by exact Gauss-Jordan elimination."""
    n = len(gram)
    rows = [list(g) + [ONE, ZERO] for g in gram] + [[ONE] * n + [ZERO, ONE]]
    for col in range(n + 1):
        piv = next(r for r in range(col, n + 1) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        inv = 1 / pivot_row[col]
        for j in range(col, n + 2):
            pivot_row[j] *= inv
        for r in range(n + 1):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [v - f * pv for v, pv in zip(rows[r], pivot_row)]
    return [rows[k][n + 1] for k in range(n)]


def projection_certified(p, target, mu2_star, vertices):
    """Exact optimality of a projected point in the correlation metric.

    With W = 1/(p_i q_i p_j q_j) per pair and x = mu2_star - target, the
    point is the projection of target onto the convex hull of the vertices'
    pair moments exactly when min over the vertices y of <x, y - target>_W
    equals <x, x>_W (mu2_star itself must lie in the hull; callers check its
    density). vertices are densities in canonical support order."""
    m = len(p)
    weights = [
        1 / (p[i] * (1 - p[i]) * p[j] * (1 - p[j]))
        for i, j in itertools.combinations(range(m), 2)
    ]
    x = [a - t for a, t in zip(mu2_star, target)]

    def inner(u, v):
        return sum(w * a * b for w, a, b in zip(weights, u, v))

    lowest = min(
        inner(x, [y - t for y, t in zip(direct_pair_moments(f), target)]) for f in vertices
    )
    return lowest == inner(x, x)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def witness_bijections(m):
    """Candidate printed-row -> canonical-index bijections: an optional global
    complement composed with a coordinate permutation."""
    for complement in (True, False):
        for perm in itertools.permutations(range(m)):
            mapping = []
            for k in range(1 << m):
                bits = [(k >> i) & 1 for i in range(m)]
                if complement:
                    bits = [1 - b for b in bits]
                permuted = [0] * m
                for i in range(m):
                    permuted[perm[i]] = bits[i]
                idx = 0
                for i, bit in enumerate(permuted):
                    idx |= bit << i
                mapping.append(idx)
            yield complement, perm, mapping


def pair_order_candidates(m, targets):
    """Plausible readings of a printed pair-moment vector: subscripts written
    in lexicographic order, or attached in the moment operator's natural row
    order (colex: sorted by the larger coordinate first). The two coincide
    for m <= 3. Yields target vectors re-expressed in lexicographic order."""
    targets = list(targets)
    lex = list(itertools.combinations(range(1, m + 1), 2))
    colex = sorted(lex, key=lambda ij: (ij[1], ij[0]))
    candidates = [
        targets,
        [targets[colex.index(pair)] for pair in lex],
        [targets[lex.index(pair)] for pair in colex],
    ]
    seen = []
    for reordered in candidates:
        if reordered not in seen:
            seen.append(reordered)
            yield reordered


def witness_check(printed_values, p, mu2_target, tol=Fraction(5, 10**4)):
    """Does some global support bijection make the printed reference density
    hit the class margins and pair-moment targets within tol? Returns the
    first passing (complement, permutation) or None."""
    m = len(p)
    vals = [Fraction(v) for v in printed_values]
    if abs(sum(vals) - 1) > tol:
        return None
    p = [Fraction(v) for v in p]
    t = [Fraction(v) for v in mu2_target]
    for complement, perm, mapping in witness_bijections(m):
        w = [ZERO] * (1 << m)
        for k, v in enumerate(vals):
            w[mapping[k]] += v
        if any(abs(a - b) > tol for a, b in zip(direct_margins(w), p)):
            continue
        if any(abs(a - b) > tol for a, b in zip(direct_pair_moments(w), t)):
            continue
        return complement, perm
    return None
