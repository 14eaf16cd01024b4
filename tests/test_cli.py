"""Command-line behaviour: outputs, formats, exit codes."""

import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsiontraj
from torsiontraj import cli, serialize
from torsiontraj.cli import run
from torsiontraj.intmat import IntMatrix, RatMatrix
from torsiontraj.lattice import DiscriminantPackage, IntersectionLattice, discriminant_package


@pytest.fixture(autouse=True)
def default_digit_limit():
    """Run each test with the interpreter's default int/str digit limit in
    force, and put back the limit set before: ``run`` lifts it for the
    whole process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_singularity_ak_json(capsys):
    code, out, _ = invoke(capsys, "singularity", "ak", "--k", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["package"]["group"] == {"free_rank": 0, "invariant_factors": [4]}
    assert data["package"]["form"] == [["1/4"]]


def test_singularity_a1_markdown(capsys):
    code, out, _ = invoke(capsys, "singularity", "a1")
    assert code == 0
    assert "Z/2" in out and "1/2 (= -1/2)" in out


def test_singularity_quotient(capsys):
    code, out, _ = invoke(capsys, "singularity", "quotient", "4", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["package"]["form"] == [["3/4"]]
    assert "2E = Z/2" in data["shadow_note"]


def test_link_lens(capsys):
    code, out, _ = invoke(capsys, "link", "lens", "4", "1")
    assert code == 0
    assert "| 2 | Z/4 |" in out


def test_link_seifert(capsys):
    code, out, _ = invoke(
        capsys, "link", "seifert", "--b", "-1", "--arms", "2,1;3,1;11,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["cohomology"]["2"] == {"free_rank": 0, "invariant_factors": [5]}


def test_link_seifert_infinite_homology_refused(capsys):
    code, _, err = invoke(capsys, "link", "seifert", "--b", "-1", "--arms", "2,1;2,1")
    assert code == 1
    assert "refused" in err


@pytest.mark.parametrize("arms", ["2", "2,1,3", "x,1", "2,1;"])
def test_link_seifert_rejects_malformed_arms(capsys, arms):
    # each of these ended in a ValueError traceback with exit 1
    code, out, err = invoke(capsys, "link", "seifert", "--b", "-1", "--arms", arms)
    assert code == 2
    assert out == ""
    assert "usage error" in err and "--arms" in err


def test_link_seifert_rejects_non_coprime_arm(capsys):
    # printed H^2 = Z/38 with exit 0
    code, out, err = invoke(capsys, "link", "seifert", "--b", "-1", "--arms", "2,0;3,1;11,1")
    assert code == 2
    assert out == ""
    assert "usage error" in err and "gcd" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lens", "4", "1", "--b", "3"),
        ("seifert", "7", "7", "--b", "-1", "--arms", "2,1;3,1;11,1"),
        ("plumbing", "--gram", "G", "--b", "2"),
        ("lens", "4", "1", "--arms", "2,1"),
        ("seifert", "--b", "-1", "--arms", "2,1;3,1;11,1", "--gram", "G"),
    ],
    ids=["lens-b", "seifert-params", "plumbing-b", "lens-arms", "seifert-gram"],
)
def test_link_refuses_options_of_other_kinds(capsys, argv):
    # each option was read only by its own kind and silently ignored by
    # the others, with exit 0
    code, out, err = invoke(capsys, "link", *argv)
    assert (code, out) == (2, "")
    assert "usage error" in err and f"not {argv[0]}" in err


def test_link_plumbing(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -3, 0], [1, 0, 0, -11]]}))
    code, out, _ = invoke(capsys, "link", "plumbing", "--gram", str(gram), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cohomology"]["2"] == {"free_rank": 0, "invariant_factors": [5]}


def test_lattice_command(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[-4]]}))
    code, out, _ = invoke(capsys, "lattice", "--gram", str(gram), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"free_rank": 0, "invariant_factors": [4]}
    assert data["form"] == [["3/4"]]


def test_product_command(capsys):
    code, out, _ = invoke(capsys, "product", "enriques", "--genus", "2", "--degree", "4")
    assert code == 0
    assert "(Z/2)^5" in out


def test_product_json_roundtrip(capsys):
    code, out, _ = invoke(
        capsys, "product", "enriques", "--genus", "1", "--degree", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["total_torsion"] == {"free_rank": 0, "invariant_factors": [2, 2, 2]}
    assert data["brauer"] == {"free_rank": 0, "invariant_factors": [2, 2, 2]}
    assert data["h02"] == 0


def test_transport_command(tmp_path, capsys):
    packages = tmp_path / "packages.json"
    packages.write_text(json.dumps([
        {"free_rank": 0, "invariant_factors": [2]},
        {"free_rank": 0, "invariant_factors": [2]},
    ]))
    relations = tmp_path / "relations.json"
    relations.write_text(json.dumps({
        "target": {"free_rank": 0, "invariant_factors": [2]},
        "matrix": [[1, 1]],
    }))
    code, out, _ = invoke(
        capsys, "transport", "--packages", str(packages), "--relations", str(relations),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["kernel"] == {"free_rank": 0, "invariant_factors": [2]}


def test_table_trajectory(capsys):
    code, out, _ = invoke(capsys, "table", "trajectory", "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| Example | E | q | Local | Supp. | Global image | Br/res. | Q |"
    assert len(lines) == 11


def test_table_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "table", "trajectory", "--all", "--format", "json")
    assert code == 0
    from torsiontraj.serialize import to_json_text

    assert to_json_text(json.loads(out)) == out


def test_usage_errors(capsys):
    code, _, _ = invoke(capsys, "singularity", "nope")
    assert code == 2
    code, _, err = invoke(capsys, "singularity", "ak")
    assert code == 2
    assert "ak requires --k" in err
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2
    code, _, _ = invoke(capsys, "singularity", "quotient", "4", "2")
    assert code == 2
    code, _, _ = invoke(capsys, "lattice", "--gram", "/does/not/exist.json")
    assert code == 2
    # Parameters a kind does not take were dropped with exit 0, and a short
    # Brieskorn triple was padded with default exponents.
    for extra in [("a1", "7"), ("d4", "3", "3"), ("odp", "5"), ("e8", "1"),
                  ("d4", "--k", "5"), ("ak", "3", "--k", "3"),
                  ("brieskorn", "2", "3"), ("quotient", "4")]:
        code, out, err = invoke(capsys, "singularity", *extra)
        assert (code, out) == (2, ""), extra
        assert "usage error" in err


# The counts read "takes 1 integer parameters (k)" and "takes 0 integer
# parameters ()", and a1 with a parameter blamed the ak model.
@pytest.mark.parametrize("params, message", [
    (("a1", "3"), "a1 takes no parameters, got (3,)"),
    (("brieskorn", "2", "3", "5"),
     "the brieskorn model takes no parameters or the exponents 2 3 11, got (2, 3, 5)"),
    (("brieskorn", "2", "3"),
     "the brieskorn model takes no parameters or the exponents 2 3 11, got (2, 3)"),
    (("d4", "5"), "the d4 model takes no parameters, got (5,)"),
    (("ak", "3", "--k", "1"), "the ak model takes 1 integer parameter (k), got (1, 3)"),
], ids=["a1-3", "brieskorn-2-3-5", "brieskorn-2-3", "d4-5", "ak-3"])
def test_arity_refusal_names_what_the_kind_takes(capsys, params, message):
    assert invoke(capsys, "singularity", *params) == (2, "", f"usage error: {message}\n")


def test_singularity_quotient_q(capsys):
    code, out, _ = invoke(capsys, "singularity", "quotient", "7", "3")
    assert code == 0
    cells = out.splitlines()[2].split(" | ")
    assert cells[1:4] == ["Z/7", "4/7 (= -3/7)", "3 agree; monodromy n/a"]
    _, quotient, _ = invoke(capsys, "singularity", "quotient", "4", "3")
    _, ak, _ = invoke(capsys, "singularity", "ak", "--k", "3")
    assert quotient.splitlines()[2].split(" | ")[1:3] == ak.splitlines()[2].split(" | ")[1:3]
    for refused in [("4", "2"), ("4", "4"), ("4",)]:
        code, out, err = invoke(capsys, "singularity", "quotient", *refused)
        assert (code, out) == (2, ""), refused
        assert "usage error" in err
    assert "takes 2 integer parameters (n, q), got (4,)" in err


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "row.json"
    code, out, _ = invoke(
        capsys, "singularity", "d4", "--format", "json", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert data["package"]["group"] == {"free_rank": 0, "invariant_factors": [2, 2]}


SRC = str(pathlib.Path(torsiontraj.__file__).resolve().parents[1])


def entry(*argv):
    """``python -m torsiontraj.cli`` as a process on this source tree:
    (exit code, stdout bytes, stderr text)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-m", "torsiontraj.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr.decode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [*(("singularity", "ak", "--k", "5", "--format", fmt) for fmt in ("md", "json", "csv")),
     ("table", "trajectory", "--format", "json"),
     ("singularity", "d4", "3"),
     ("link", "seifert", "--b", "-1", "--arms", "2,1;2,1")],
    ids=["ak-md", "ak-json", "ak-csv", "table-json", "usage-error", "refusal"],
)
def test_process_entry_prints_what_run_prints(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    process_code, process_out, process_err = entry(*argv)
    assert (process_code, process_out) == (code, out.encode("utf-8"))
    if code == 2:
        assert out == ""
    if code == 1:
        assert out == "" and process_err == err
        assert err.startswith("refused: Seifert space has infinite H_1")


def test_process_entry_writes_to_out_what_it_prints(tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[-2, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0], [1, 0, 0, -2]]}))
    path = tmp_path / "package.json"
    code, printed, _ = entry("lattice", "--gram", str(gram), "--format", "json")
    assert code == 0 and printed
    assert entry("lattice", "--gram", str(gram), "--format", "json", "--out", str(path)) == (0, b"", "")
    assert path.read_bytes() == printed


def test_run_leaves_the_collector_unfrozen(capsys):
    # Freezing pins every object the caller holds, so only main freezes.
    before = gc.get_freeze_count()
    assert invoke(capsys, "singularity", "ak", "--k", "5")[0] == 0
    assert gc.get_freeze_count() == before


def test_main_freezes_the_collector_after_run_returns(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "run", lambda argv: events.append(("run", argv)) or 1)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["torsiontraj", "singularity", "a1"])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 1
    assert events == [("run", ["singularity", "a1"]), "freeze"]


def not_utf8_gram(tmp_path):
    path = tmp_path / "gram.json"
    path.write_bytes(b'{"gram": [[-4]]} \xff')
    return path


# Each ended in a traceback (exit 1): --out was written outside the
# guarded block, and only a missing file was caught.
UNUSABLE_PATHS = {
    "out-missing-dir": lambda tmp: ("singularity", "a1", "--out", tmp / "missing" / "row.md"),
    "out-is-dir": lambda tmp: ("singularity", "a1", "--out", tmp),
    "gram-is-dir": lambda tmp: ("lattice", "--gram", tmp),
    "gram-not-utf8": lambda tmp: ("lattice", "--gram", not_utf8_gram(tmp)),
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_PATHS))
def test_unusable_path_is_a_usage_error(tmp_path, capsys, name):
    argv = [str(arg) for arg in UNUSABLE_PATHS[name](tmp_path)]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error" in err and "Traceback" not in err


def test_lattice_ignores_labels(tmp_path, capsys):
    # Curve labels enter no output, so the key is ignored like any other
    # unknown key; a label list of the wrong length was refused (exit 2).
    gram = [[-2, 1], [1, -2]]
    path = tmp_path / "gram.json"
    for fmt in ("md", "json", "csv"):
        printed = []
        for literal in ({"gram": gram}, {"gram": gram, "labels": ["C1"]}):
            path.write_text(json.dumps(literal))
            printed.append(invoke(capsys, "lattice", "--gram", str(path), "--format", fmt))
        assert printed[0] == printed[1]
        assert printed[0][0] == 0


BAD_MATRICES = {
    "float": [[-2.5]],
    "string": [["-4"]],
    "boolean": [[True]],
    "ragged": [[-2, 1], [1]],
    "empty": [],
    # The wrong shape for the map Z/2 -> Z/2: transport refused it (exit 1).
    "wide": [[1, 0]],
}


@pytest.mark.parametrize("name", sorted(BAD_MATRICES))
def test_lattice_rejects_bad_gram(tmp_path, capsys, name):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": BAD_MATRICES[name]}))
    code, out, err = invoke(capsys, "lattice", "--gram", str(gram))
    assert code == 2
    assert out == ""
    assert "usage error" in err


def test_lattice_singular_gram_is_a_usage_error(tmp_path, capsys):
    # It was refused with exit 1, which is kept for gate and capability refusals.
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[-2, 2], [2, -2]]}))
    for fmt in ("md", "json", "csv"):
        code, out, err = invoke(capsys, "lattice", "--gram", str(gram), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "usage error: gram is singular: its cokernel has free rank 1\n"


def test_library_key_error_propagates(monkeypatch, capsys):
    # A KeyError is a defect, never a usage error: every JSON key is
    # checked before it is read.
    import torsiontraj.cli

    def broken(args):
        raise KeyError("x")
    monkeypatch.setattr(torsiontraj.cli, "cmd_singularity", broken)
    with pytest.raises(KeyError):
        run(["singularity", "a1"])
    assert capsys.readouterr().err == ""


def test_lattice_rejects_top_level_list(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps([[-4]]))
    code, _, err = invoke(capsys, "lattice", "--gram", str(gram))
    assert code == 2
    assert "must be a JSON object" in err


def write_transport_inputs(tmp_path, relations, packages=None):
    if packages is None:
        packages = [{"free_rank": 0, "invariant_factors": [2]}]
    packages_path = tmp_path / "packages.json"
    packages_path.write_text(json.dumps(packages))
    relations_path = tmp_path / "relations.json"
    relations_path.write_text(json.dumps(relations))
    return "--packages", str(packages_path), "--relations", str(relations_path)


@pytest.mark.parametrize("name", sorted(BAD_MATRICES))
def test_transport_rejects_bad_matrix(tmp_path, capsys, name):
    relations = {"target": {"free_rank": 0, "invariant_factors": [2]},
                 "matrix": BAD_MATRICES[name]}
    code, out, err = invoke(capsys, "transport", *write_transport_inputs(tmp_path, relations))
    assert code == 2
    assert out == ""
    assert "usage error" in err


def test_transport_rejects_top_level_list(tmp_path, capsys):
    code, _, err = invoke(capsys, "transport", *write_transport_inputs(tmp_path, [[1]]))
    assert code == 2
    assert "must be a JSON object" in err


BAD_PACKAGES = {
    "float": [{"free_rank": 0.9, "invariant_factors": [2.7]}],
    "string-rank": [{"free_rank": "x", "invariant_factors": [2]}],
    "scalar-factors": [{"free_rank": 0, "invariant_factors": 2}],
    "boolean-factor": [{"free_rank": 0, "invariant_factors": [True]}],
    "not-a-list": 5,
    # A KeyError escaped as "usage error: 'free_rank'", naming no literal.
    "missing-rank": [{"invariant_factors": [2]}],
}


@pytest.mark.parametrize("name", sorted(BAD_PACKAGES))
def test_transport_rejects_bad_packages(tmp_path, capsys, name):
    # Floats were truncated by int() (0.9 -> 0, 2.7 -> 2: a wrong Z/2 and
    # exit 0); a string, a scalar or a non-list crashed with a traceback.
    relations = {"target": {"free_rank": 0, "invariant_factors": [2]}, "matrix": [[1]]}
    argv = write_transport_inputs(tmp_path, relations, BAD_PACKAGES[name])
    code, out, err = invoke(capsys, "transport", *argv)
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("key", ["free_rank", "invariant_factors"])
def test_group_literal_names_a_missing_key(tmp_path, capsys, key):
    literal = {"free_rank": 0, "invariant_factors": [2]}
    del literal[key]
    relations = {"target": {"free_rank": 0, "invariant_factors": [2]}, "matrix": [[1]]}
    code, out, err = invoke(capsys, "transport", *write_transport_inputs(tmp_path, relations,
                                                                         [literal]))
    assert (code, out) == (2, "")
    assert "group literal" in err


Z2_LITERAL = {"free_rank": 0, "invariant_factors": [2]}
TRIVIAL_LITERAL = {"free_rank": 0, "invariant_factors": []}
TRIVIAL_TRANSPORT = {
    # (packages, relation target, side named in the refusal)
    "empty-packages": ([], Z2_LITERAL, "source"),
    "trivial-packages": ([TRIVIAL_LITERAL, TRIVIAL_LITERAL], Z2_LITERAL, "source"),
    "trivial-target": ([Z2_LITERAL], TRIVIAL_LITERAL, "target"),
}


@pytest.mark.parametrize("name", sorted(TRIVIAL_TRANSPORT))
def test_transport_refuses_a_trivial_group_by_name(tmp_path, capsys, name):
    # These asked for a 1x0 (or 0x1) matrix, which no JSON matrix can be.
    packages, target, side = TRIVIAL_TRANSPORT[name]
    relations = {"target": target, "matrix": [[1]]}
    code, out, err = invoke(capsys, "transport", *write_transport_inputs(tmp_path, relations,
                                                                         packages))
    assert (code, out) == (2, "")
    assert f"{side} of a homomorphism is the trivial group" in err
    assert not any(shape in err for shape in ("1x0", "0x1", "0x0"))


def lattice_json(tmp_path, capsys, text):
    path = tmp_path / "gram.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "lattice", "--gram", str(path), "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    # The printed rationals are "num/den" strings, which Fraction reads as they are.
    form, generators = (RatMatrix([[Fraction(x) for x in row] for row in data[key]])
                        for key in ("form", "generators"))
    return DiscriminantPackage(serialize.group_from_json(data["group"]), form, generators)


def test_lattice_prints_exact_results_of_any_size(tmp_path, capsys):
    # The duals of this gram have numerators of about 16k bits, past the
    # 4300-digit limit of str(int); printing them ended in a traceback.
    rng = random.Random(70)
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(i, 8):
            gram[i][j] = gram[j][i] = rng.randint(-2**70, 2**70)
    parsed = lattice_json(tmp_path, capsys, json.dumps({"gram": gram}))
    pkg = discriminant_package(IntersectionLattice(IntMatrix(gram)))
    assert parsed.generators == pkg.generators
    assert max(x.numerator.bit_length() for row in pkg.generators.to_lists() for x in row) > 15000


def test_lattice_reads_entries_of_any_size(tmp_path, capsys):
    # A 5000-digit entry ended in a traceback from json.load.
    digits = "7" * 5000
    parsed = lattice_json(tmp_path, capsys, '{"gram": [[-' + digits + ']]}')
    pkg = discriminant_package(IntersectionLattice(IntMatrix([[-int(digits)]])))
    assert parsed.generators == pkg.generators
    assert parsed.group.invariant_factors == (int(digits),)


# Malformed documents for the CLI boundary: the entry kinds the readers
# must refuse (bools, floats, strings, null) beside small integers, nested
# at random.
JSON_LEAVES = st.one_of(st.integers(-6, 6), st.booleans(), st.floats(), st.text(max_size=3),
                        st.none())
JSON_JUNK = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@st.composite
def json_matrices(draw):
    """Often a symmetric integer matrix, else ragged rows, junk entries or junk."""
    size = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(-6, 6), st.integers(-6, 6), JSON_LEAVES)
    kind = draw(st.sampled_from(["symmetric", "rectangular", "ragged", "junk"]))
    if kind == "symmetric":
        upper = [[draw(st.integers(-6, 6)) for _ in range(size)] for _ in range(size)]
        return [[upper[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    if kind == "rectangular":
        return draw(st.lists(st.lists(entries, min_size=size, max_size=size), max_size=4))
    if kind == "ragged":
        return draw(st.lists(st.lists(entries, max_size=4), max_size=4))
    return draw(JSON_JUNK)


GROUP_LITERALS = st.one_of(
    st.fixed_dictionaries({"free_rank": st.integers(-1, 2),
                           "invariant_factors": st.lists(st.integers(-1, 12), max_size=3)}),
    st.dictionaries(st.sampled_from(["free_rank", "invariant_factors", "x"]), JSON_JUNK,
                    max_size=3),
    JSON_JUNK,
)
LATTICE_CASES = st.builds(
    lambda command, document: ([*command, "--gram", "<gram>"], {"<gram>": document}),
    st.sampled_from([("lattice",), ("link", "plumbing")]),
    st.one_of(st.builds(lambda m: {"gram": m}, json_matrices()),
              st.builds(lambda m: {"matrix": m}, json_matrices()), JSON_JUNK),
)
TRANSPORT_CASES = st.builds(
    lambda packages, relations: (
        ["transport", "--packages", "<packages>", "--relations", "<relations>"],
        {"<packages>": packages, "<relations>": relations}),
    st.one_of(st.lists(GROUP_LITERALS, max_size=3), JSON_JUNK),
    st.one_of(st.fixed_dictionaries({"target": GROUP_LITERALS, "matrix": json_matrices()}),
              st.dictionaries(st.sampled_from(["target", "matrix"]), JSON_JUNK, max_size=2),
              JSON_JUNK),
)
ARMS = st.one_of(
    st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=4).map(
        lambda arms: ";".join(f"{a},{b}" for a, b in arms)),
    st.text(alphabet="0123456789,;- x", max_size=12),
)
SEIFERT_CASES = st.builds(
    lambda b, arms: (["link", "seifert", "--b", str(b), "--arms", arms], {}),
    st.integers(-4, 2), ARMS)
LENS_TOKENS = st.one_of(st.integers(-5, 30).map(str), st.integers(-10**12, 10**12).map(str),
                        st.text(alphabet="0123456789-x.", min_size=1, max_size=4))
LENS_CASES = st.builds(lambda params: (["link", "lens", *params], {}),
                       st.lists(LENS_TOKENS, max_size=3))
SINGULARITY_CASES = st.builds(
    lambda which, params, k: (
        ["singularity", which, *map(str, params), *([] if k is None else ["--k", str(k)])], {}),
    st.sampled_from(["a1", "ak", "d4", "e8", "brieskorn", "quotient", "odp"]),
    st.lists(st.integers(-3, 40), max_size=3),
    st.none() | st.integers(-3, 40),
)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(LATTICE_CASES, TRANSPORT_CASES, SEIFERT_CASES, LENS_CASES, SINGULARITY_CASES),
       st.sampled_from(["md", "json", "csv"]))
def test_malformed_input_ends_in_an_exit_code_never_an_exception(tmp_path, capsys, case, fmt):
    # Each document is written to a new file in a new directory under
    # tmp_path, and its placeholder in argv replaced by the file's path.
    # Files are never rewritten: ext4 writes a truncated and rewritten file
    # back to disk when it is closed (auto_da_alloc), which can take tens
    # of ms a file.
    argv, documents = case
    directory, paths = tempfile.mkdtemp(dir=tmp_path), {}
    for name, document in documents.items():
        paths[name] = os.path.join(directory, f"{name.strip('<>')}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    code = run([str(paths.get(arg, arg)) for arg in argv] + ["--format", fmt])
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
