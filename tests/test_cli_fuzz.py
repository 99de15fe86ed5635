"""Exit-code contract of `fdqg check|haar|reps` on mutated fixture files.

Each example takes a `fixtures generate` instance or groupoid file, applies
at most one mutation that makes it malformed (a dropped key, a wrong type, a
negative or out-of-range index, NaN or inf, a ragged list, a list where a
name belongs, or a duplicated name) and runs the CLI in-process.  Malformed
input must exit 2 with a one-line error and no traceback; the unmutated
file exits 0 or 1.  An exception escaping `main` fails the example.

A second test sets one entry of an instance file's `mult`, `coproduct`,
`units` or `star` to another finite value with |v| <= 10.  The file stays
well-formed but may break the axioms, which is a failed check: exit 0 or 1,
never 2, and no traceback.  A third does the same for `fdqg check` and
`fdqg haar` at the ends of the float range: values up to +-1e308, whose
products overflow to inf and nan, and subnormals.  A fourth scales every
constant of one `mult` or `coproduct` row (one first index) by a factor up
to +-1e308, so that whole blocks of the sparse products overflow at once.
Each example of these two must also finish within EXAMPLE_SECONDS, so a
stage that stalls on a non-finite intermediate fails rather than passes
slowly, and must raise no RuntimeWarning: an overflow or a nan is reported
as a failed check.  The searches are
seeded and small; together they cost a few seconds, most of it Cesaro runs
that spend their iteration budget on instances with no invariant state.
"""

import contextlib
import copy
import io
import json
import time
import warnings

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pcqg.cli import main

SOURCES = (
    "pair2.groupoid.json",
    "z3.groupoid.json",
    "union_pair_z2.groupoid.json",
    "pair2_fn.json",
    "z3_alg.json",
    "union_pair_z2_alg.json",
    "raum.json",
)
WRONG_TYPES = (None, 3, 2.5, True, "x", "1.0")
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
# one full Cesaro budget takes about 1 s; an example past this has stalled
EXAMPLE_SECONDS = 10.0


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "generate", "--dir", str(root)]) == 0
    return root, {name: json.loads((root / name).read_text()) for name in SOURCES}


def _wrong_type(draw, value):
    """A JSON value that can never stand where `value` does."""
    options = [v for v in WRONG_TYPES + ([], {}) if type(v) is not type(value)]
    return draw(st.sampled_from(options))


def _position(draw, seq):
    return draw(st.integers(0, len(seq) - 1))


# -- instance files: objects, basis, mult, star, units, coproduct ---------------


def _instance_mutations(draw, doc):
    dim = len(doc["basis"])
    tensor = draw(st.sampled_from(["mult", "coproduct"]))
    row = doc[tensor][_position(draw, doc[tensor])]
    star_row = doc["star"][_position(draw, doc["star"])]
    unit = doc["units"][draw(st.sampled_from(sorted(doc["units"])))]
    names = draw(st.sampled_from(["objects", "basis"]))

    def drop_key():
        del doc[draw(st.sampled_from(sorted(doc)))]

    def wrong_type():
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = _wrong_type(draw, doc[key])

    def wrong_entry_type():
        target = draw(st.sampled_from([row, star_row, unit]))
        target[_position(draw, target)] = draw(st.sampled_from([None, True, "x", "1.0", [1.0], {}]))

    def bad_index():
        row[draw(st.integers(0, 2))] = draw(st.sampled_from([-1, dim, dim + 3, 0.5]))

    def non_finite():
        target = draw(st.sampled_from([row, star_row, unit]))
        target[_position(draw, target)] = draw(st.sampled_from(NON_FINITE))

    def ragged():
        target = draw(st.sampled_from([row, star_row, unit]))
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(0.0)

    def list_for_name():
        doc[names][_position(draw, doc[names])] = draw(st.sampled_from([[1, 2], ["a"], []]))

    def duplicate_name():
        if len(doc[names]) < 2 or draw(st.booleans()):
            doc[names].append(doc[names][0])
        else:
            doc[names][1] = doc[names][0]

    def repeated_index():
        doc[tensor].append(row[:3] + [draw(st.sampled_from([row[3], 0.0, 5.0]))])

    return [drop_key, wrong_type, wrong_entry_type, bad_index, non_finite, ragged,
            list_for_name, duplicate_name, repeated_index]


# -- groupoid files: objects, arrows, compose, inverse, identities --------------


def _groupoid_mutations(draw, doc):
    arrow = doc["arrows"][_position(draw, doc["arrows"])]
    row = doc["compose"][_position(draw, doc["compose"])]
    table = draw(st.sampled_from(["inverse", "identities"]))
    entry = draw(st.sampled_from(sorted(doc[table])))

    def drop_key():
        if draw(st.booleans()):
            del doc[draw(st.sampled_from(sorted(doc)))]
        else:
            del arrow[draw(st.sampled_from(["id", "src", "tgt"]))]

    def wrong_type():
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = _wrong_type(draw, doc[key])

    def unknown_name():
        # the groupoid analogue of an out-of-range index
        site = draw(st.sampled_from(["arrow", "compose", "table"]))
        if site == "arrow":
            arrow[draw(st.sampled_from(["src", "tgt"]))] = "nowhere"
        elif site == "compose":
            row[_position(draw, row)] = "nowhere"
        else:
            doc[table][entry] = "nowhere"

    def non_finite():
        row[_position(draw, row)] = draw(st.sampled_from(NON_FINITE))

    def ragged():
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0])

    def list_for_name():
        value = draw(st.sampled_from([[1, 2], ["a"], []]))
        site = draw(st.sampled_from(["objects", "arrow", "compose", "table"]))
        if site == "objects":
            doc["objects"][_position(draw, doc["objects"])] = value
        elif site == "arrow":
            arrow[draw(st.sampled_from(["id", "src", "tgt"]))] = value
        elif site == "compose":
            row[_position(draw, row)] = value
        else:
            doc[table][entry] = value

    def duplicate_name():
        key = draw(st.sampled_from(["objects", "arrows"]))
        doc[key].append(copy.deepcopy(doc[key][0]))

    return [drop_key, wrong_type, unknown_name, non_finite, ragged, list_for_name,
            duplicate_name]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fdqg_exit_code_contract(fixtures, data):
    root, sources = fixtures
    name = data.draw(st.sampled_from(SOURCES), label="file")
    doc = copy.deepcopy(sources[name])
    kind = "groupoid" if "arrows" in doc else "instance"
    mutations = (_groupoid_mutations if kind == "groupoid" else _instance_mutations)(data.draw, doc)
    mutation = data.draw(st.sampled_from([None] + mutations), label="mutation")
    event(f"{kind}: {getattr(mutation, '__name__', 'unmutated')}")
    if mutation is not None:
        mutation()
    path = root / "mutated.json"
    path.write_text(json.dumps(doc))
    mode = data.draw(st.sampled_from(["check", "haar", "reps"]), label="mode")
    form = data.draw(st.sampled_from(["functions", "algebra"]), label="form")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["fdqg", mode, str(path), "--form", form])
    err = err.getvalue()
    assert "Traceback" not in err
    if mutation is None:
        assert code in (0, 1), err
    else:
        assert code == 2, (mutation.__name__, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err


INSTANCES = tuple(name for name in SOURCES if not name.endswith(".groupoid.json"))


def _run_revalued(fixtures, data, values, modes):
    """Set one structure constant of a fixture instance to a drawn value and
    run one `fdqg` mode on it; return the exit code, stderr and seconds."""
    root, sources = fixtures
    name = data.draw(st.sampled_from(INSTANCES), label="file")
    doc = copy.deepcopy(sources[name])
    key = data.draw(st.sampled_from(["mult", "coproduct", "units", "star"]), label="entry")
    value = data.draw(values, label="value")
    if key in ("mult", "coproduct"):
        doc[key][_position(data.draw, doc[key])][3] = value
    else:
        rows = doc["star"] if key == "star" else [doc["units"][k] for k in sorted(doc["units"])]
        row = rows[_position(data.draw, rows)]
        row[_position(data.draw, row)] = value
    return _run_doc(root, data, doc, modes)


def _run_doc(root, data, doc, modes):
    """Run one drawn `fdqg` mode and form on an instance document; return
    the exit code, stderr and seconds."""
    path = root / "revalued.json"
    path.write_text(json.dumps(doc))
    mode = data.draw(st.sampled_from(modes), label="mode")
    form = data.draw(st.sampled_from(["functions", "algebra"]), label="form")
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["fdqg", mode, str(path), "--form", form])
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fdqg_finite_values_are_checks_not_usage_errors(fixtures, data):
    values = st.one_of(st.sampled_from([0.0, 0.5, -1.0, 2.0]), st.floats(-10.0, 10.0))
    code, err, _ = _run_revalued(fixtures, data, values, ["check", "haar", "reps"])
    assert "Traceback" not in err
    assert code in (0, 1), err


EXTREMES = (1e308, -1e308, 1e300, -1e300, 1e155, 5e-324, -5e-324, 1e-310)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fdqg_extreme_values_are_checks_not_usage_errors(fixtures, data):
    values = st.one_of(
        st.sampled_from(EXTREMES),
        st.floats(-1e308, 1e308),
        st.floats(-2.2e-308, 2.2e-308),  # zero and the subnormals
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, seconds = _run_revalued(fixtures, data, values, ["check", "haar"])
    assert "Traceback" not in err
    assert code in (0, 1), err
    assert seconds < EXAMPLE_SECONDS
    # an overflow or a nan is a failed check, not a numpy warning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fdqg_scaled_row_is_a_check_not_a_usage_error(fixtures, data):
    root, sources = fixtures
    doc = copy.deepcopy(sources[data.draw(st.sampled_from(INSTANCES), label="file")])
    key = data.draw(st.sampled_from(["mult", "coproduct"]), label="tensor")
    first = data.draw(st.sampled_from(sorted({r[0] for r in doc[key]})), label="row")
    factor = data.draw(st.one_of(st.sampled_from(EXTREMES), st.floats(-1e308, 1e308)), label="factor")
    for r in doc[key]:
        if r[0] == first:
            r[3] *= factor
    assert all(abs(r[3]) <= 1e308 for r in doc[key])  # the file stays well-formed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, seconds = _run_doc(root, data, doc, ["check", "haar"])
    assert "Traceback" not in err
    assert code in (0, 1), err
    assert seconds < EXAMPLE_SECONDS
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
