"""Rendering and parsing: JSON schemas, Markdown tables, CSV.

JSON conventions: rationals are "num/den" strings with the canonical
[0, 1) representative; groups are {"free_rank": n, "invariant_factors":
[...]}; matrices are lists of rows.  Emission uses sorted keys and
two-space indentation.  Only the inputs that a command takes are parsed:
lattices, group lists and transport relations.
"""

import csv
import io
import json
from fractions import Fraction

from .abgroup import FGAbGroup
from .errors import ValidationError
from .intmat import IntMatrix, _integer
from .lattice import IntersectionLattice, geometric_rep
from .trajectory import STATION_MONODROMY, MarkerRow

TABLE_HEADERS = ("Example", "E", "q", "Local", "Supp.", "Global image", "Br/res.", "Q")


def _rational(value):
    """``value`` as a Fraction: a Fraction as it is, anything else only if
    it passes ``_integer``, so a float, bool or string is refused rather
    than converted."""
    if isinstance(value, Fraction):
        return value
    return Fraction(_integer(value, "a rational that is not a Fraction"))


def fraction_str(value):
    """The "num/den" string of a Fraction or an integer."""
    f = _rational(value)
    return f"{f.numerator}/{f.denominator}"


def fraction_display(value):
    """Markdown form: the canonical [0, 1) value with the geometric-sign alias."""
    f = _rational(value) % 1
    geo = geometric_rep(f)
    canonical = str(f)
    if geo != f:
        return f"{canonical} (= {geo})"
    return canonical


def _json_object(data, what):
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, not {type(data).__name__}")
    return data


def group_to_json(group):
    return {"free_rank": group.free_rank, "invariant_factors": list(group.invariant_factors)}


def group_from_json(data):
    """FGAbGroup from a parsed group literal.

    Both keys are required and ``invariant_factors`` must be a list;
    ``FGAbGroup`` itself refuses floats, strings and booleans, so nothing
    is truncated or coerced by ``int``.
    """
    data = _json_object(data, "group literal")
    if "free_rank" not in data or "invariant_factors" not in data:
        raise ValidationError('group literal must have "free_rank" and "invariant_factors" keys')
    factors = data["invariant_factors"]
    if not isinstance(factors, list):
        raise ValidationError("invariant_factors must be a list")
    return FGAbGroup(data["free_rank"], factors)


def int_matrix_from_json(rows, what="matrix"):
    """IntMatrix from parsed JSON rows, checked before any conversion.

    Rows must form a non-empty rectangular list of lists of JSON integers;
    floats, strings and booleans are rejected rather than truncated or
    coerced by ``int``.  ``IntMatrix`` refuses the same entries; each is
    checked here first only so that a refusal names the input, as in
    "gram entry must be an integer, got True".
    """
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) and row for row in rows
    ):
        raise ValidationError(f"{what} must be a non-empty list of non-empty rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValidationError(f"{what} has ragged rows")
    for row in rows:
        for x in row:
            _integer(x, f"{what} entry")
    return IntMatrix(rows)


def _fraction_rows(matrix):
    return [[fraction_str(x) for x in row] for row in matrix.to_lists()]


def lattice_from_json(data):
    data = _json_object(data, "lattice literal")
    # a bare matrix literal is accepted wherever a lattice is expected
    gram = data.get("gram", data.get("matrix"))
    if gram is None:
        raise ValidationError('lattice literal must have a "gram" (or "matrix") key')
    return IntersectionLattice(int_matrix_from_json(gram, "gram"))


def relation_from_json(data):
    """(target group, matrix) of a transport relation literal
    {"target": group, "matrix": [[...]]}."""
    data = _json_object(data, "relation literal")
    if "target" not in data or "matrix" not in data:
        raise ValidationError('relation literal must have "target" and "matrix" keys')
    return group_from_json(data["target"]), int_matrix_from_json(data["matrix"])


def package_to_json(pkg):
    data = {"group": group_to_json(pkg.group)}
    if pkg.form is not None:
        data["form"] = _fraction_rows(pkg.form)
    if pkg.generators is not None:
        data["generators"] = _fraction_rows(pkg.generators)
    return data


def profile_to_json(profile):
    data = {
        "name": profile.name,
        "cohomology": {str(k): group_to_json(g) for k, g in profile.cohomology.items()},
    }
    if profile.hodge_h0q is not None:
        data["hodge_h0q"] = {str(k): v for k, v in profile.hodge_h0q.items()}
    return data


def report_to_json(report):
    return {
        "degree": report.degree,
        "summands": [
            {"a": a, "b": b, "kind": "tensor", "group": group_to_json(g)}
            for a, b, g in report.summands
        ],
        "tor_terms": [
            {"a": a, "b": b, "kind": "tor", "group": group_to_json(g)}
            for a, b, g in report.tor_terms
        ],
        "total": group_to_json(report.total),
        "total_torsion": group_to_json(report.total_torsion),
    }


def form_display(form):
    """Markdown rendering of a pairing matrix; scalars drop the brackets."""
    if form is None:
        return "none"
    if form.rows == 1:
        return fraction_display(form.entry(0, 0))
    return str(form)


def _station_text(row):
    checks = row.realizations
    present = len(checks.stations)
    if row.package is None:
        return "torsion stations vanish; free vanishing cycle exists"
    if row.package.group.is_trivial():
        return "all vanish"
    if checks.agree and STATION_MONODROMY not in checks.stations:
        return f"{present} agree; monodromy n/a"
    if checks.agree:
        return "six agree"
    return "stations disagree"


def row_cells(row):
    """The eight table columns of a trajectory or marker row."""
    if isinstance(row, MarkerRow):
        return (
            row.example,
            row.e_text,
            row.q_text,
            row.local_text,
            row.support_text,
            row.global_image_note,
            row.brauer_text,
            str(row.rational_death),
        )
    group = row.group()
    if group is None:
        e_text = "0 (no finite torsion)"
        q_text = "none"
    elif group.is_trivial():
        e_text = "0"
        q_text = "0"
    else:
        e_text = str(group)
        q_text = form_display(row.package.form)
    support = f"deg. {row.support_degree}" if row.support_degree is not None else "none"
    # Every computed row is local-undefined; a marker row carries its own text.
    brauer = {"local-undefined": "not local in isolated germ"}[row.brauer_residue_status]
    global_image = row.global_image_note
    if row.shadow_note:
        global_image = f"{global_image}; {row.shadow_note}"
    return (
        row.example,
        e_text,
        q_text,
        _station_text(row),
        support,
        global_image,
        brauer,
        str(row.rational_death),
    )


def row_to_json(row):
    if isinstance(row, MarkerRow):
        return {
            "example": row.example,
            "kind": "marker",
            "E": row.e_text,
            "q": row.q_text,
            "local": row.local_text,
            "support": row.support_text,
            "global_image": row.global_image_note,
            "brauer_residue_status": row.brauer_residue_status,
            "rational_death": row.rational_death,
        }
    data = {
        "example": row.example,
        "kind": "computed",
        "package": package_to_json(row.package) if row.package is not None else None,
        "realizations": {
            "stations": {k: group_to_json(g) for k, g in row.realizations.stations.items()},
            "notes": dict(row.realizations.notes),
            "agree": row.realizations.agree,
        },
        "support_degree": row.support_degree,
        "transport_note": row.transport_note,
        "global_image": row.global_image_note,
        "brauer_residue_status": row.brauer_residue_status,
        "rational_death": row.rational_death,
    }
    if row.shadow_note:
        data["shadow_note"] = row.shadow_note
    return data


def to_json_text(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def markdown_table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for cells in rows:
        lines.append("| " + " | ".join(str(c) for c in cells) + " |")
    return "\n".join(lines) + "\n"


def csv_table(headers, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for cells in rows:
        writer.writerow(list(cells))
    return buffer.getvalue()
