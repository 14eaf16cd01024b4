"""Answers the benchmark knows independently of the library under test.

Every check takes a job's input and the library's output and returns a
reason string when the output is wrong, or None when it is right.  The
arithmetic here is deliberately different from the library's: plain
Gaussian elimination over ``Fraction`` for determinants, Euclidean
column reduction for image orders, and closed formulas for link orders.
"""

import csv
import io
import json
from fractions import Fraction
from math import prod


def fraction_det(rows):
    """Determinant of a square integer matrix by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(result)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def seifert_order(b, arms):
    """|H_1| of the Seifert space (b; (a_i, b_i)): |b prod a + sum b_i prod_{j != i} a_j|."""
    alphas = [a for a, _ in arms]
    total = b * prod(alphas)
    for i, (_, beta) in enumerate(arms):
        total += beta * prod(alphas[:i] + alphas[i + 1:])
    return abs(total)


def lattice_det(columns, rank):
    """Index in Z^rank of the full-rank lattice the integer columns span,
    by Euclidean column reduction to triangular form."""
    cols = [list(c) for c in columns if any(c)]
    index = 1
    for r in range(rank):
        active = [c for c in cols if c[r]]
        rest = [c for c in cols if not c[r]]
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[r]))
            pivot = active[0]
            for c in active[1:]:
                q = c[r] // pivot[r]
                for i in range(r, rank):
                    c[i] -= q * pivot[i]
            rest += [c for c in active[1:] if not c[r] and any(c)]
            active = [pivot] + [c for c in active[1:] if c[r]]
        if not active:
            return 0
        index *= abs(active[0][r])
        cols = rest
    return index


def image_order(tgt, matrix):
    """|im| of Z/src -> Z/tgt with the given generator images: the image is
    (M Z^n + R Z^m) / R Z^m with R = diag(tgt)."""
    m = len(tgt)
    columns = [[row[i] for row in matrix] for i in range(len(matrix[0]))]
    columns += [[t if i == j else 0 for i in range(m)] for j, t in enumerate(tgt)]
    return prod(tgt) // lattice_det(columns, m)


def _group_is(group, free_rank, factors):
    return group.free_rank == free_rank and tuple(group.invariant_factors) == tuple(factors)


# -- presentations ------------------------------------------------------------

def check_cokernel(job, output):
    _, params = job
    diag = params["d"]
    group, _ = output
    want = tuple(x for x in diag if x > 1)
    if not _group_is(group, diag.count(0), want):
        return f"cokernel {group} != Z^{diag.count(0)} + {want}"
    return None


def check_discriminant(job, output):
    _, params = job
    want = abs(fraction_det(params["gram"]))
    got = output.group.torsion_order()
    if not output.group.is_finite() or got != want:
        return f"|coker| = {got}, |det| = {want}"
    return None


def check_transport(job, output):
    _, params = job
    src = prod(d for orders in params["packages"] for d in orders)
    im = image_order(params["target"], params["matrix"])
    if not output.is_finite() or output.torsion_order() * im != src:
        return f"|ker| |im| = {output.torsion_order()} * {im} != |src| = {src}"
    return None


def check_lens(job, output):
    _, params = job
    if not _group_is(output.group(2), 0, (params["p"],)):
        return f"H^2 of L({params['p']},{params['q']}) is {output.group(2)}"
    return None


def check_seifert(job, output):
    _, params = job
    want = seifert_order(params["b"], params["arms"])
    got = output.torsion(2).torsion_order()
    if got != want or output.group(2).free_rank != 0:
        return f"|H^2| = {got}, expected {want}"
    return None


def check_forms(job, output):
    _, params = job
    if output is not params["isomorphic"]:
        return f"forms_isomorphic returned {output}, constructed answer {params['isomorphic']}"
    return None


def check_charpoly(job, output):
    _, params = job
    rows = params["matrix"]
    n = len(rows)
    want_const = (-1) ** n * fraction_det(rows)
    trace = sum(rows[i][i] for i in range(n))
    if len(output) != n + 1 or output[0] != 1:
        return f"char_poly has shape {output[:1]}... of length {len(output)}"
    if output[1] != -trace:
        return f"t^(n-1) coefficient {output[1]} != -trace {-trace}"
    if output[-1] != want_const:
        return f"constant term {output[-1]} != (-1)^n det = {want_const}"
    return None


# -- ak-family ----------------------------------------------------------------

def check_ak_row(job, text):
    _, params = job
    k = params["k"]
    data = json.loads(text)
    want_group = {"free_rank": 0, "invariant_factors": [k + 1]}
    if data["example"] != ("A_1 surface" if k == 1 else f"A_{k} surface"):
        return f"example {data['example']!r}"
    if data["package"]["group"] != want_group:
        return f"package group {data['package']['group']}"
    # With the first-node generator, q = -k/(k+1) = 1/(k+1) mod 1.
    if data["package"]["form"] != [[f"1/{k + 1}"]]:
        return f"form {data['package']['form']}"
    stations = data["realizations"]["stations"]
    if set(stations) != {"lattice", "link", "pair-sequence", "monodromy"}:
        return f"stations {sorted(stations)}"
    if any(g != want_group for g in stations.values()) or not data["realizations"]["agree"]:
        return "stations disagree"
    return None


# -- cli-session --------------------------------------------------------------

# The paper's trajectory table: Example, E, q and Local columns of every row.
PAPER_ROWS = (
    ("A_1 surface", "Z/2", "1/2 (= -1/2)", "six agree"),
    ("A_3 surface", "Z/4", "1/4 (= -3/4)", "six agree"),
    ("D_4 surface", "(Z/2)^2", "[[0, 1/2], [1/2, 0]]", "six agree"),
    ("E_8 surface", "0", "0", "all vanish"),
    ("x^2+y^3+z^11 (Brieskorn)", "Z/5", "4/5 (= -1/5)", "six agree"),
    ("threefold ODP", "0 (no finite torsion)", "none",
     "torsion stations vanish; free vanishing cycle exists"),
    ("nodal threefold", "0 (no finite torsion at each node)", "none",
     "torsion stations vanish; free vanishing cycles exist"),
    ("Benoist-Ottem S x C", "none on smooth fiber", "none local", "global Enriques 2-torsion"),
    ("Coble boundary 1/4(1,1)", "Z/4", "3/4 (= -1/4)", "3 agree; monodromy n/a"),
)

TABLE_HEADER = "| Example | E | q | Local | Supp. | Global image | Br/res. | Q |"


def _markdown_rows(text):
    lines = text.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        return None
    return [tuple(c.strip() for c in line.strip("|").split(" | ")) for line in lines[2:]]


def expected_singularity_row(which, params):
    """Example, E, q and Local of one ``singularity`` command: the paper's row
    where the table has one, else the A_k or 1/n(1,1) pattern it follows."""
    by_name = {row[0]: row for row in PAPER_ROWS}
    if which == "a1":
        return by_name["A_1 surface"]
    if which == "ak":
        k = params[0]
        name = "A_1 surface" if k == 1 else f"A_{k} surface"
        return (name, f"Z/{k + 1}", f"1/{k + 1} (= -{k}/{k + 1})", "six agree")
    if which == "quotient":
        n = params[0]
        if n == 4:
            return by_name["Coble boundary 1/4(1,1)"]
        name = f"cyclic quotient 1/{n}(1,1)"
        return (name, f"Z/{n}", f"{n - 1}/{n} (= -1/{n})", "3 agree; monodromy n/a")
    return by_name[{"d4": "D_4 surface", "e8": "E_8 surface",
                    "brieskorn": "x^2+y^3+z^11 (Brieskorn)", "odp": "threefold ODP"}[which]]


def check_cli(job, output):
    """``output`` is (exit code, stdout text) of one CLI subprocess."""
    _, params = job
    code, text = output
    if code != 0:
        return f"exit code {code}"
    kind = params["argv"][0]
    if kind == "table":
        fmt = params["format"]
        if fmt == "md":
            rows = _markdown_rows(text)
            rows = rows and [r[:4] for r in rows]
        elif fmt == "csv":
            rows = [tuple(r[:4]) for r in list(csv.reader(io.StringIO(text)))[1:]]
        else:
            rows = [(r["example"],) for r in json.loads(text)]
            return None if rows == [(r[0],) for r in PAPER_ROWS] else f"json table rows {rows}"
        return None if rows == list(PAPER_ROWS) else f"table rows {rows}"
    if kind == "singularity":
        rows = _markdown_rows(text)
        want = expected_singularity_row(params["which"], params["params"])
        if not rows or len(rows) != 1 or rows[0][:4] != want:
            return f"row {rows} != {want}"
        return None
    if kind == "link":
        want = f"| 2 | Z/{params['order']} |"
        return None if want in text.splitlines() else f"link H^2 line {want!r} missing"
    if kind == "product":
        g = params["genus"]
        data = json.loads(text)
        want = {"free_rank": 0, "invariant_factors": [2] * (2 * g + 1)}
        if data["brauer"] != want or data["h02"] != 0:
            return f"Enriques x C_{g}: Brauer {data['brauer']}, h02 {data['h02']}"
        return None
    if kind == "lattice":
        data = json.loads(text)
        order = prod(data["group"]["invariant_factors"])
        if data["group"]["free_rank"] != 0 or order != params["det"]:
            return f"lattice group {data['group']} against |det| {params['det']}"
        return None
    return f"no oracle for {kind}"
