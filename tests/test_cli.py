"""Command-line behaviour: outputs, formats, exit codes."""

import json
import random
import sys
from fractions import Fraction

import pytest

from torsiontraj import serialize
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
