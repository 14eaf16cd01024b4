"""Seeded job lists of the three workloads, and how each job is run.

A job is ``(kind, params)`` with ``params`` plain data, so a job list can
be compared, printed and hashed.  ``make_jobs(workload, seed)`` is a pure
function of its arguments.  Sizes are stratified: each job list holds a
fixed number of jobs of every kind and size band, and the seed draws the
values inside each band, so different seeds do comparable work.
"""

import json
import random
from fractions import Fraction
from math import gcd

import oracles


# -- ak-family ----------------------------------------------------------------

# (centre, count, jitter) of the scaling tail beyond the paper's k = 1..12.
# Every k of the paper's range runs three times, so the median job is a
# paper row; five A_32 sit where the 90th percentile falls, so that it
# lands inside one band of equal jobs rather than between two sizes; the
# two largest sizes are fixed so that every seed times the same amount of
# A_44 and A_60 work.
AK_TAIL = ((16, 2, 2), (20, 2, 2), (24, 2, 2), (28, 2, 2), (32, 5, 0), (44, 1, 0), (60, 1, 0))


def _ak_jobs(rng):
    ks = list(range(1, 13)) * 3
    for centre, count, jitter in AK_TAIL:
        ks += [centre + rng.randint(-jitter, jitter) for _ in range(count)]
    rng.shuffle(ks)
    return [("ak_row", {"k": k}) for k in ks]


# -- presentations --------------------------------------------------------------

def _next_prime(n):
    while not oracles.is_prime(n):
        n += 1
    return n


def _band_prime(rng, lo_exp, hi_exp):
    return _next_prime(int(10 ** rng.uniform(lo_exp, hi_exp)))


def _unimodular(rng, n, factors=1):
    """A product of random P L R, with unit triangular L, R and a row
    permutation P, so det = +-1; more factors give larger entries."""
    product = None
    for _ in range(factors):
        lower = [[int(i == j) if i <= j else rng.randint(-2, 2) for j in range(n)]
                 for i in range(n)]
        upper = [[int(i == j) if i >= j else rng.randint(-2, 2) for j in range(n)]
                 for i in range(n)]
        factor = _matmul(lower, upper)
        rng.shuffle(factor)
        product = factor if product is None else _matmul(product, factor)
    return product


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _divisor_chain(rng, n, free):
    chain, current = [], 1
    for _ in range(n - free):
        current *= rng.choice((1, 1, 1, 2, 2, 3, 5))
        chain.append(current)
    return chain + [0] * free


def _cokernel_job(rng, n, prime, free, mixing=1):
    """M = U diag(d) V with unimodular U, V, so coker M has invariant factors d."""
    d = _divisor_chain(rng, n, free)
    if prime:
        d[n - free - 1] *= prime
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    m = _matmul(_matmul(_unimodular(rng, n, mixing), diag), _unimodular(rng, n, mixing))
    return ("cokernel", {"matrix": m, "d": d})


def _definite_gram(rng, n):
    """-(A^T A + I) for a random small A: symmetric and negative definite."""
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    ata = _matmul([list(c) for c in zip(*a)], a)
    return [[-(ata[i][j] + (i == j)) for j in range(n)] for i in range(n)]


def _order_chain(rng, length):
    """Cyclic orders d_1 | d_2 | ..., so their direct sum keeps these generators."""
    chain = [rng.choice((2, 3))]
    while len(chain) < length:
        chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
    return chain


def _transport_job(rng):
    src = _order_chain(rng, 8)
    target = _order_chain(rng, 6)
    # Generator i of order src[i] must map to an element of order dividing src[i].
    matrix = [[(t // gcd(d, t)) * rng.randrange(gcd(d, t)) for d in src] for t in target]
    return ("transport", {"packages": [[d] for d in src], "target": target, "matrix": matrix})


def _invertible_mod(rng, n, k):
    while True:
        c = [[rng.randrange(n) for _ in range(k)] for _ in range(k)]
        if gcd(oracles.fraction_det(c), n) == 1:
            return c


def _forms_true_job(rng, n, k):
    """A random nondegenerate form on (Z/n)^k and its transform by a
    random automorphism."""
    while True:
        q = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                q[i][j] = q[j][i] = rng.randrange(n)
        if gcd(oracles.fraction_det(q), n) == 1:
            break
    c = _invertible_mod(rng, n, k)
    ct = [list(col) for col in zip(*c)]
    moved = [[x % n for x in row] for row in _matmul(_matmul(ct, q), c)]
    return ("forms", {"n": n, "k": k, "form1": q, "form2": moved, "isomorphic": True})


def _forms_false_job(rng, p, k):
    """diag(a_i/p) against u * diag(a_i/p) with u a non-square mod the odd prime p:
    for odd k the discriminants differ by a non-square, so the forms differ."""
    a = [rng.randrange(1, p) for _ in range(k)]
    u = rng.choice([x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1])
    q1 = [[a[i] if i == j else 0 for j in range(k)] for i in range(k)]
    q2 = [[u * a[i] % p if i == j else 0 for j in range(k)] for i in range(k)]
    return ("forms", {"n": p, "k": k, "form1": q1, "form2": q2, "isomorphic": False})


def _presentation_jobs(rng):
    jobs = []
    # One prime from each half decade of [1e9, 1e12], so trial division
    # in FGAbGroup.from_orders costs about the same for every seed.
    for band in range(6):
        lo = 9 + band / 2
        jobs.append(_cokernel_job(rng, rng.randint(6, 7), _band_prime(rng, lo, lo + 0.5), 0))
    # Dense presentations whose Smith transforms grow to thousands of bits.
    jobs += [_cokernel_job(rng, 15, 0, 1, mixing=2) for _ in range(8)]
    jobs += [_cokernel_job(rng, rng.randint(6, 8), 0, 1) for _ in range(8)]
    # Twenty discriminant packages of one rank sit at the median latency,
    # so job_p50_ms lands inside one band of similar jobs.
    jobs += [("discriminant", {"gram": _definite_gram(rng, 7)}) for _ in range(20)]
    jobs += [_transport_job(rng) for _ in range(12)]
    for _ in range(16):
        p = rng.randint(10 ** 6, 10 ** 8)
        q = rng.randrange(1, p)
        while gcd(p, q) != 1:
            q = rng.randrange(1, p)
        jobs.append(("lens", {"p": p, "q": q}))
    for _ in range(16):
        arms = []
        for _ in range(rng.randint(3, 4)):
            alpha = rng.randint(2, 60)
            beta = rng.randrange(1, alpha)
            while gcd(alpha, beta) != 1:
                beta = rng.randrange(1, alpha)
            arms.append([alpha, beta])
        b = rng.randint(-3, 0)
        if oracles.seifert_order(b, arms) == 0:
            b -= 1
        jobs.append(("seifert", {"b": b, "arms": arms}))
    # Group types up to the order-64 cap of forms_isomorphic whose search
    # cost varies little with the form drawn; (Z/2)^6 and (Z/4)^3 vary up
    # to fourfold and twofold, so they are left out.
    for n, k in ((64, 1), (64, 1), (2, 5), (2, 5), (3, 3)):
        jobs.append(_forms_true_job(rng, n, k))
    for p, k in ((61, 1), (61, 1), (3, 3)):
        jobs.append(_forms_false_job(rng, p, k))
    # Ten characteristic polynomials of one size form a band of similar
    # latencies, so the 90th percentile falls inside it.
    for n in [10] * 10 + [7, 7, 8, 8]:
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        jobs.append(("charpoly", {"matrix": matrix}))
    rng.shuffle(jobs)
    return jobs


# -- cli-session ----------------------------------------------------------------

D4_GRAM = [[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]]
CLI_AK_BAND = (20, 21, 22, 23, 24)


def _cli(argv, **oracle):
    return ("cli", {"argv": argv, **oracle})


def _cli_jobs(rng):
    jobs = [_cli(["table", "trajectory", "--format", fmt], format=fmt)
            for fmt in ("md", "json", "csv")]
    k = rng.randint(1, 12)
    n = rng.randint(2, 12)
    for which, params in (("a1", []), ("ak", [k]), ("d4", []), ("e8", []),
                          ("brieskorn", []), ("quotient", [n]), ("odp", []), ("quotient", [4])):
        argv = ["singularity", which]
        if which == "ak":
            argv += ["--k", str(k)]
        elif which == "quotient":
            argv += [str(params[0]), "1"]
        jobs.append(_cli(argv, which=which, params=params))
    p = rng.randint(2, 10 ** 6)
    q = rng.randrange(1, p)
    while gcd(p, q) != 1:
        q = rng.randrange(1, p)
    jobs.append(_cli(["link", "lens", str(p), str(q)], order=p))
    # (-1; (2,1), (3,1), (a,1)) has |H_1| = a - 6, so a > 7 gives nonzero H^2.
    arms = [(2, 1), (3, 1), (rng.choice((11, 13, 17, 19, 23)), 1)]
    b = -1
    spec = ";".join(f"{a},{c}" for a, c in arms)
    jobs.append(_cli(["link", "seifert", "--b", str(b), "--arms", spec],
                     order=oracles.seifert_order(b, arms)))
    for genus in (rng.randint(1, 5), rng.randint(1, 5)):
        jobs.append(_cli(["product", "enriques", "--genus", str(genus), "--format", "json"],
                         genus=genus))
    for gram in (D4_GRAM, _definite_gram(rng, rng.randint(3, 5))):
        jobs.append(_cli(["lattice", "--gram", "{gram}", "--format", "json"],
                         gram=gram, det=abs(oracles.fraction_det(gram))))
    # Five larger A_k rows, about half as slow again as the rest: the 90th
    # percentile falls inside this band instead of on the noisy tail of the
    # start-up-bound commands.
    for k in CLI_AK_BAND:
        jobs.append(_cli(["singularity", "ak", "--k", str(k)], which="ak", params=[k]))
    rng.shuffle(jobs)
    return jobs


_MAKERS = {"cli-session": _cli_jobs, "ak-family": _ak_jobs, "presentations": _presentation_jobs}
WORKLOADS = tuple(_MAKERS)


def make_jobs(workload, seed):
    """The job list of a workload for a seed; the same seed gives the same list."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


# -- running in-process jobs --------------------------------------------------

CHECKS = {
    "ak_row": oracles.check_ak_row,
    "cokernel": oracles.check_cokernel,
    "discriminant": oracles.check_discriminant,
    "transport": oracles.check_transport,
    "lens": oracles.check_lens,
    "seifert": oracles.check_seifert,
    "forms": oracles.check_forms,
    "charpoly": oracles.check_charpoly,
    "cli": oracles.check_cli,
}


def prepare(job):
    """Build the library inputs of an in-process job outside the timed call.

    Returns a zero-argument callable that runs the job and returns its
    output.  The callable looks the library function up on its module at
    call time, so that a tracer installed later sees the call.
    """
    from torsiontraj import abgroup, intmat, lattice, links, serialize, trajectory

    kind, params = job
    if kind == "ak_row":
        model = trajectory.SingularityModel.ak(params["k"])
        return lambda: serialize.to_json_text(
            serialize.row_to_json(trajectory.trajectory_row(model)))
    if kind == "cokernel":
        matrix = intmat.IntMatrix(params["matrix"])
        return lambda: abgroup.group_from_cokernel(matrix)
    if kind == "discriminant":
        lat = lattice.IntersectionLattice(intmat.IntMatrix(params["gram"]))
        return lambda: lattice.discriminant_package(lat)
    if kind == "transport":
        group = abgroup.FGAbGroup
        packages = tuple(group.from_orders(orders) for orders in params["packages"])
        source = group.trivial().direct_sum(*packages)
        relation = abgroup.FinAbHom(source, group.from_orders(params["target"]),
                                    intmat.IntMatrix(params["matrix"]))
        problem = trajectory.TransportProblem(packages, relation)
        return lambda: trajectory.transport_kernel(problem)
    if kind == "lens":
        model = links.LensSpace(params["p"], params["q"])
        return lambda: links.link_profile(model)
    if kind == "seifert":
        model = links.Seifert(params["b"], tuple(tuple(arm) for arm in params["arms"]))
        return lambda: links.link_profile(model)
    if kind == "forms":
        n, k = params["n"], params["k"]
        group = abgroup.FGAbGroup(0, (n,) * k)
        p1, p2 = (lattice.abstract_package(group, [[Fraction(x, n) for x in row]
                                                   for row in params[key]])
                  for key in ("form1", "form2"))
        return lambda: lattice.forms_isomorphic(p1, p2)
    if kind == "charpoly":
        matrix = intmat.IntMatrix(params["matrix"])
        return lambda: intmat.char_poly(matrix)
    raise ValueError(f"no in-process runner for job kind {kind!r}")


def _plain(value):
    """A JSON-able rendering of a library result, for the output digest."""
    from torsiontraj.abgroup import FGAbGroup
    from torsiontraj.intmat import RatMatrix
    from torsiontraj.lattice import DiscriminantPackage
    from torsiontraj.links import SpaceProfile

    if isinstance(value, FGAbGroup):
        return [value.free_rank, list(value.invariant_factors)]
    if isinstance(value, RatMatrix):
        return [[str(x) for x in row] for row in value.to_lists()]
    if isinstance(value, DiscriminantPackage):
        return [_plain(value.group), _plain(value.form), _plain(value.generators)]
    if isinstance(value, SpaceProfile):
        return [value.name, sorted((k, _plain(g)) for k, g in value.cohomology.items())]
    if isinstance(value, (list, tuple)):
        return [_plain(x) for x in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def canonical(output):
    """Bytes that identify an output exactly."""
    if isinstance(output, str):
        return output.encode()
    return json.dumps(_plain(output), separators=(",", ":")).encode()
