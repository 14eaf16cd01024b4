"""Golden outputs: fixed command groups, one SHA-256 digest per group.

Each command runs in-process through ``cli.run``.  A group's digest
hashes, per command, its argv (with input files shown as ``<tmp>/name``),
its exit code and its stdout.  stderr is left out: argparse words its
messages differently across Python versions.  The ``row-repr`` group
hashes ``repr`` of built-in trajectory rows, which catches field and
dict-order changes that sorted JSON keys hide.

The digests pin today's output.  A change that moves one must say why;
the test passes unchanged under ``python -O``.  The library holds no
``assert`` statement and no ``__debug__`` name, the only constructs that
``-O`` changes.
"""

import ast
import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
from math import gcd

import pytest

import torsiontraj
from torsiontraj.cli import run
from torsiontraj.trajectory import SingularityModel, trajectory_row, trajectory_table

FORMATS = ("md", "json", "csv")

D4_GRAM = [[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]]
BRIESKORN_STAR = [[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -3, 0], [1, 0, 0, -11]]


def random_negative_definite(seed):
    """-(A^T A + I) for a seeded A with entries in [-2, 2], of size 2 to 6."""
    r = random.Random(seed)
    n = r.randint(2, 6)
    a = [[r.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [[-(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)) for j in range(n)]
            for i in range(n)]


INPUTS = {
    "d4.json": {"gram": D4_GRAM},
    "star.json": {"gram": BRIESKORN_STAR},
    **{f"random{seed}.json": {"gram": random_negative_definite(seed)} for seed in range(20)},
    "packages.json": [{"free_rank": 0, "invariant_factors": [n]} for n in (2, 4, 6)],
    "relations.json": {"target": {"free_rank": 0, "invariant_factors": [2, 12]},
                       "matrix": [[1, 0, 1], [6, 6, 5]]},
}


def _commands(tmp):
    def path(name):
        return f"{tmp}/{name}"

    grams = ["d4.json", "star.json", *(f"random{seed}.json" for seed in range(20))]
    return {
        "table": [["table", "trajectory", "--format", fmt, *flag]
                  for fmt in FORMATS for flag in ((), ("--all",))],
        "singularity": [["singularity", *which, "--format", fmt]
                        for which in (["a1"], ["d4"], ["e8"], ["odp"], ["brieskorn"],
                                      ["brieskorn", "2", "3", "11"])
                        for fmt in FORMATS],
        "ak": [["singularity", "ak", "--k", str(k), "--format", "json"] for k in range(1, 61)],
        "quotient": [["singularity", "quotient", str(n), str(q), "--format", "json"]
                     for n in range(2, 31) for q in range(1, n) if gcd(n, q) == 1],
        "lattice": [["lattice", "--gram", path(name), "--format", fmt]
                    for name in grams for fmt in ("md", "json")],
        "link": [argv + ["--format", fmt]
                 for argv in (["link", "lens", "7", "3"],
                              ["link", "seifert", "--b", "-1", "--arms", "2,1;3,1;11,1"],
                              ["link", "plumbing", "--gram", path("d4.json")])
                 for fmt in ("md", "json")],
        "product": [["product", "enriques", "--genus", str(g), "--format", fmt]
                    for g in range(4) for fmt in ("md", "json")],
        "transport": [["transport", "--packages", path("packages.json"),
                       "--relations", path("relations.json"), "--format", fmt]
                      for fmt in ("md", "json")],
    }


GOLDEN = {
    "table": "1edf1c11e1c0638c40722b25b924bc6b2375066ec6094c4297b7b87aa5c79552",
    "singularity": "c2dd666f921c0b72024dc4a4343b77bc89926ad5c8a1d4b9f7c0cc06cd9f4c51",
    "ak": "68747995f8296cc73b50f6b71353a8a0886e9988491a2ca8dba4f01c05b30f16",
    "quotient": "6e0abad192e366b3f74accc307b29b97a89871069d9c65500ea17a34bd07dc9d",
    "lattice": "c1bee66afcc3877b4a2a026d5a7e94aca8f43781b19ab4fed5991062c83b74a6",
    "link": "673095a3c59d949c96e827a1bac5837acd0a0abe56fe0cbc6c2fcc9a9d4ebf3f",
    "product": "493bb85b07b0bd818f10ce67c8d6b0b30b489c5d08bae95fe85471088e665d78",
    "transport": "8008c094881714786f267036eecb50873cf6f9b0219b973a8c7a85224c18fe8b",
    "row-repr": "3e7ef614570a544ed297b137a3deefd8e4ad58a32375122b1c76165420943f88",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    for name, data in INPUTS.items():
        (tmp / name).write_text(json.dumps(data), encoding="utf-8")
    return str(tmp)


@pytest.fixture(autouse=True)
def default_digit_limit():
    """Put back the int/str digit limit that ``run`` lifts for the process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _run_digest(commands, tmp):
    digest = hashlib.sha256()
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        shown = [arg.replace(tmp, "<tmp>") for arg in argv]
        digest.update(json.dumps([shown, code, out.getvalue()]).encode("utf-8") + b"\n")
    return digest.hexdigest()


def _row_reprs():
    rows = trajectory_table()
    rows += [trajectory_row(SingularityModel.ak(k)) for k in range(1, 13)]
    rows += [trajectory_row(SingularityModel.cyclic_quotient(n, q))
             for n in range(2, 13) for q in range(1, n) if gcd(n, q) == 1]
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("group", sorted(set(GOLDEN) - {"row-repr"}))
def test_command_group_output_is_unchanged(group, inputs):
    assert _run_digest(_commands(inputs)[group], inputs) == GOLDEN[group]


def test_row_reprs_are_unchanged():
    assert _row_reprs() == GOLDEN["row-repr"]


def test_library_has_nothing_that_python_O_strips():
    found = []
    for path in sorted(pathlib.Path(torsiontraj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"python -O changes the code at {', '.join(found)}"
