"""Finite instances: groupoid generators, axiom checks, Haar families."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pcqg.cli import main
from pcqg.fdpcqg import (
    AXIOM_LABELS,
    ZERO_TOL,
    FiniteGroupoid,
    FinitePQG,
    GradedFunctional,
    convolve,
    cyclic_groupoid,
    disjoint_union,
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    haar_cesaro,
    haar_linear_solve,
    haar_residuals,
    pair_groupoid,
    raum_instance,
    standard_groupoids,
    symmetric_groupoid,
    transitive_groupoid,
    uniform_haar_oracle,
    verify_axioms,
)
from test_fd_blocks import dense


def _zoo():
    pair2 = pair_groupoid(["1", "2"])
    z2 = cyclic_groupoid(2)
    z3 = cyclic_groupoid(3)
    s3x2 = transitive_groupoid(["a", "b"], symmetric_groupoid(3))
    return {
        "pair2": pair2,
        "z2": z2,
        "z3": z3,
        "s3x2": s3x2,
        "union_pair_z2": disjoint_union(pair2, z2),
        "union_z3_s3": disjoint_union(z3, symmetric_groupoid(3)),
    }


GROUPOIDS = _zoo()

INSTANCES = {}
for _name, _g in GROUPOIDS.items():
    INSTANCES[_name + "_fn"] = (from_finite_groupoid_functions(_g), _g)
    INSTANCES[_name + "_alg"] = (from_finite_groupoid_algebra(_g), _g)


def _is_zero(f, tol=ZERO_TOL):
    """Every coefficient of a graded functional within tol of zero."""
    return bool(np.abs(f.vector).max(initial=0.0) <= tol)


def _family_diff(G, fam1, fam2):
    return max(
        np.abs(fam1.phi(k, m).vector - fam2.phi(k, m).vector).max(initial=0.0)
        for k in range(G.n_objects)
        for m in range(G.n_objects)
    )


# -- groupoids ----------------------------------------------------------------


def _hom(g, k, l):
    """The names of the arrows from object k to object l."""
    at = (g.src == g.objects.index(k)) & (g.tgt == g.objects.index(l))
    return [g.arrows[i] for i in np.flatnonzero(at)]


def test_builder_shapes():
    assert len(GROUPOIDS["pair2"].arrows) == 4
    assert len(GROUPOIDS["z3"].arrows) == 3
    assert len(GROUPOIDS["s3x2"].arrows) == 24
    assert len(_hom(GROUPOIDS["s3x2"], "a", "b")) == 6
    assert _hom(GROUPOIDS["pair2"], "1", "2") == ["1>2"]
    # no arrows across the components of a union
    u = GROUPOIDS["union_pair_z2"]
    assert _hom(u, "0.1", "1.*") == []


def _compositions(g):
    """(g, h, gh) by name, for every composable pair."""
    return [[g.arrows[i] for i in idx] for idx in zip(*g.composable())]


def test_builders_compose_by_their_laws():
    # pq maps i to q[p[i]], in the names of the images
    s3 = symmetric_groupoid(3)
    for p, q, pq in _compositions(s3):
        assert pq == "".join(q[int(i)] for i in p)
    for a, b, ab in _compositions(cyclic_groupoid(4)):
        assert int(ab) == (int(a) + int(b)) % 4
    for g, h, gh in _compositions(pair_groupoid(["x", "y", "z"])):
        assert g[-1] == h[0] and gh == g[0] + ">" + h[-1]
    law = {(p, q): pq for p, q, pq in _compositions(s3)}
    for g, h, gh in _compositions(transitive_groupoid(["a", "b"], s3)):
        (i, p, j), (j2, q, k) = g.split(":"), h.split(":")
        assert j == j2 and gh == f"{i}:{law[p, q]}:{k}"


def test_malformed_groupoids_rejected():
    z3 = GROUPOIDS["z3"]
    bad_comp = z3.comp.copy()
    bad_comp[1, 1] = 0  # 1 + 1 = 0
    with pytest.raises(ValueError, match="associative"):
        dataclasses.replace(z3, comp=bad_comp)
    bad_inverse = z3.inverse.copy()
    bad_inverse[1] = 1
    with pytest.raises(ValueError, match="inverse"):
        dataclasses.replace(z3, inverse=bad_inverse)


def _arrow(doc, name):
    return next(a for a in doc["arrows"] if a["id"] == name)


def _row(doc, g, h):
    return next(r for r in doc["compose"] if r[:2] == [g, h])


def _set_composite(g, h, gh):
    def mutate(doc):
        _row(doc, g, h)[2] = gh

    return mutate


def _set_entry(table, key, value):
    def mutate(doc):
        doc[table][key] = value

    return mutate


# (zoo groupoid, one-entry mutation of its JSON document, the loader's
# ValueError text, whether the text is exact or a prefix)
LOADER_ERRORS = {
    "lacks_compose": ("pair2", lambda d: d.pop("compose"), "groupoid file lacks compose", True),
    "no_objects": (
        "pair2", lambda d: d.update(objects=[]), "objects: expected at least one object", True,
    ),
    "objects_not_list": (
        "pair2", lambda d: d.update(objects="12"), "objects: expected a list of names", True,
    ),
    "arrow_not_object": (
        "pair2", lambda d: d["arrows"].__setitem__(0, "1>1"),
        "arrows: expected a list of {id, src, tgt} objects", True,
    ),
    "arrow_lacks_tgt": (
        "pair2", lambda d: _arrow(d, "1>2").pop("tgt"),
        "arrows: every arrow needs a string 'tgt'", True,
    ),
    "short_compose_row": (
        "pair2", lambda d: d["compose"][0].pop(),
        "compose: rows must be [g, h, gh] arrow ids", True,
    ),
    "inverse_not_object": (
        "z3", lambda d: d.update(inverse=["0", "2", "1"]),
        "inverse: expected an object of names", True,
    ),
    "identity_not_name": (
        "z3", _set_entry("identities", "*", 0), "identities: expected an object of names", True,
    ),
    "duplicate_object": (
        "pair2", lambda d: d["objects"].append("1"), "duplicate object names", True,
    ),
    "duplicate_arrow": (
        "pair2", lambda d: d["arrows"].append(dict(_arrow(d, "2>1"))), "duplicate arrow ids", True,
    ),
    "unknown_src": (
        "pair2", lambda d: _arrow(d, "1>2").update(src="nowhere"),
        "arrow '1>2' has missing or unknown endpoints", True,
    ),
    "moved_tgt": (
        "pair2", lambda d: _arrow(d, "1>2").update(tgt="1"),
        "composition table does not match composable pairs", True,
    ),
    "missing_row": (
        "s3x2", lambda d: d["compose"].pop(7),
        "composition table does not match composable pairs", True,
    ),
    "composite_unknown": (
        "z3", _set_composite("1", "1", "nowhere"), "composite of ('1', '1') is not an arrow", True,
    ),
    "composite_endpoints": (
        "pair2", _set_composite("1>2", "2>1", "1>2"),
        "composite of ('1>2', '2>1') has wrong endpoints", True,
    ),
    "not_associative": (
        "z3", _set_composite("1", "1", "0"), "composition not associative at (", False,
    ),
    "identity_missing": (
        "union_pair_z2", lambda d: d["identities"].pop("0.2"),
        "identity table must cover every object", True,
    ),
    "identity_extra": (
        "pair2", _set_entry("identities", "3", "1>1"),
        "identity table must cover every object", True,
    ),
    "identity_unknown": (
        "pair2", _set_entry("identities", "2", "nowhere"),
        "identity of '2' has wrong endpoints", True,
    ),
    "identity_endpoints": (
        "pair2", _set_entry("identities", "1", "1>2"), "identity of '1' has wrong endpoints", True,
    ),
    "left_identity": (
        "s3x2", _set_entry("identities", "a", "a:102:a"), "left identity fails at 'a:012:a'", True,
    ),
    "right_identity": (
        "s3x2", _set_entry("identities", "b", "b:102:b"), "right identity fails at 'a:012:b'", True,
    ),
    "inverse_missing": (
        "z3", lambda d: d["inverse"].pop("2"), "inverse table must cover every arrow", True,
    ),
    "inverse_unknown": (
        "z3", _set_entry("inverse", "1", "nowhere"), "inverse of '1' is not an arrow", True,
    ),
    "inverse_wrong": ("z3", _set_entry("inverse", "1", "1"), "inverse fails at '1'", True),
    "inverse_endpoints": (
        "pair2", _set_entry("inverse", "1>2", "1>1"), "inverse fails at '1>2'", True,
    ),
}


@pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
def test_loader_error_messages(case):
    name, mutate, message, exact = LOADER_ERRORS[case]
    doc = json.loads(json.dumps(GROUPOIDS[name].to_json_dict()))
    mutate(doc)
    with pytest.raises(ValueError) as exc:
        FiniteGroupoid.from_json_dict(doc)
    text = str(exc.value)
    assert text == message if exact else text.startswith(message), text


def test_shuffled_arrow_order():
    """A groupoid file lists its arrows in any order; the instance follows it."""
    g = transitive_groupoid(["a", "b"], symmetric_groupoid(3))
    doc = g.to_json_dict()
    np.random.default_rng(5).shuffle(doc["arrows"])
    shuffled = FiniteGroupoid.from_json_dict(json.loads(json.dumps(doc)))
    perm = np.array([g.arrows.index(a["id"]) for a in doc["arrows"]])
    assert not np.array_equal(perm, np.arange(len(perm)))
    G, ref = from_finite_groupoid_functions(shuffled), from_finite_groupoid_functions(g)
    assert G.objects == ref.objects
    assert G.basis == tuple(ref.basis[p] for p in perm)
    for fld in ("mult", "coproduct"):
        assert np.array_equal(dense(G, fld), dense(ref, fld)[np.ix_(perm, perm, perm)])
    assert np.array_equal(dense(G, "star"), dense(ref, "star")[np.ix_(perm, perm)])
    assert np.array_equal(dense(G, "units"), dense(ref, "units")[:, :, perm])


@pytest.mark.parametrize("name", sorted(standard_groupoids()))
def test_groupoid_json_roundtrip(name):
    g = standard_groupoids()[name]
    back = FiniteGroupoid.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    assert (back.objects, back.arrows) == (g.objects, g.arrows)
    for table in ("src", "tgt", "comp", "inverse", "identities"):
        assert np.array_equal(getattr(back, table), getattr(g, table)), table


# -- instance construction ----------------------------------------------------


def test_function_algebra_basics():
    G, g = INSTANCES["pair2_fn"]
    assert G.dim == 4
    # every unit projection is a rank-one indicator here
    for k in range(2):
        for l in range(2):
            assert np.count_nonzero(dense(G, "units")[k, l]) == 1
    # commutative, pointwise product
    mult = dense(G, "mult")
    assert np.abs(mult - np.transpose(mult, (1, 0, 2))).max() == 0.0


def test_groupoid_algebra_basics():
    G, _ = INSTANCES["z2_alg"]
    assert G.dim == 2
    # group-like coproduct
    for i in range(2):
        m = dense(G, "coproduct")[i]
        assert m[i, i] == 1.0 and np.count_nonzero(m) == 1
    Gp, _ = INSTANCES["pair2_alg"]
    for k in range(2):
        for l in range(2):
            if k != l:
                assert not np.any(dense(Gp, "units")[k, l])


def test_union_has_no_cross_units():
    G, _ = INSTANCES["union_pair_z2_fn"]
    # objects 0 and 1 are the pair component, object 2 the group
    units = dense(G, "units")
    assert not np.any(units[0, 2]) and not np.any(units[2, 0])


@pytest.mark.parametrize("objects", [["x|y", "z"], ["a", "a|b", "b|c", "c"]])
def test_object_names_exclude_the_unit_key_separator(objects):
    """'|' joins the two objects of a unit's key in the file, so a name
    holding it would be written as a key that does not read back: objects
    x|y and z give 'x|y|x|y', and a, a|b, b|c, c give the key 'a|b|a' that
    splits as a and b|a.  Construction names the object instead."""
    gpd = pair_groupoid(objects)
    for build in (from_finite_groupoid_functions, from_finite_groupoid_algebra):
        with pytest.raises(ValueError) as exc:
            build(gpd)
        bad = next(o for o in objects if "|" in o)
        assert str(exc.value) == f"objects: name {bad!r} contains '|', the unit key separator"


def test_instance_json_roundtrip():
    G, _ = INSTANCES["s3x2_alg"]
    back = FinitePQG.from_json_dict(json.loads(json.dumps(G.to_json_dict())))
    assert back.basis == G.basis
    for fld in ("mult", "star", "units", "coproduct"):
        for a, b in zip(getattr(back, fld), getattr(G, fld)):
            assert np.array_equal(a, b), fld


@pytest.mark.parametrize("field", ["mult", "coproduct"])
def test_instance_loader_rejects_repeated_rows(field, tmp_path, capsys):
    """A structure constant given twice is a malformed file, not the last
    row's value: the loader names the field and the index, and the command
    exits 2."""
    G, _ = INSTANCES["z2_fn"]
    doc = json.loads(json.dumps(G.to_json_dict()))
    doc[field].append([0, 0, 0, 5.0])
    with pytest.raises(ValueError) as exc:
        FinitePQG.from_json_dict(doc)
    assert str(exc.value) == f"{field}: repeated index [0, 0, 0]"
    path = tmp_path / "z2_fn.json"
    path.write_text(json.dumps(doc))
    assert main(["fdqg", "check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {field}: repeated index [0, 0, 0]\n"


def _run(argv, capsys):
    """Exit code, stdout and stderr of one in-process CLI call."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# (field, where a boolean replaces a number): an index and a value of a row,
# an entry of a star row and of a unit vector
BOOLEAN_ENTRIES = {
    "mult_index": ("mult", lambda doc: doc["mult"][0].__setitem__(0, True)),
    "mult_value": ("mult", lambda doc: doc["mult"][0].__setitem__(3, True)),
    "coproduct_index": ("coproduct", lambda doc: doc["coproduct"][-1].__setitem__(2, False)),
    "coproduct_value": ("coproduct", lambda doc: doc["coproduct"][-1].__setitem__(3, True)),
    "star": ("star", lambda doc: doc["star"][1].__setitem__(1, True)),
    "units": ("units['1|1']", lambda doc: doc["units"]["1|1"].__setitem__(0, True)),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_ENTRIES))
def test_instance_loader_rejects_booleans(case, tmp_path, capsys):
    """JSON true and false are not numbers: numpy would read them as 1 and
    0, so pair2_fn with `true` in place of a 1.0 would pass its checks."""
    field, mutate = BOOLEAN_ENTRIES[case]
    G, _ = INSTANCES["pair2_fn"]
    doc = json.loads(json.dumps(G.to_json_dict()))
    mutate(doc)
    with pytest.raises(ValueError) as exc:
        FinitePQG.from_json_dict(doc)
    assert str(exc.value) == f"{field}: expected numbers"
    path = tmp_path / "pair2_fn.json"
    path.write_text(json.dumps(doc))
    for mode in ("check", "haar", "reps"):
        result = _run(["fdqg", mode, str(path)], capsys)
        assert result == (2, "", f"error: {field}: expected numbers\n")


# a groupoid file and an instance file, each with a basis, that name no object
NO_OBJECTS = {
    "groupoid": {"objects": [], "arrows": [], "compose": [], "inverse": {}, "identities": {}},
    "instance": {
        "objects": [], "basis": ["e"], "mult": [[0, 0, 0, 1.0]], "star": [[1.0]], "units": {},
        "coproduct": [[0, 0, 0, 1.0]],
    },
}


@pytest.mark.parametrize("mode", ["check", "haar", "reps"])
@pytest.mark.parametrize("kind", sorted(NO_OBJECTS))
def test_files_without_objects_are_rejected(kind, mode, tmp_path, capsys):
    """Nothing to check is a malformed file, not a pass (check, reps) or
    numpy's error from stacking no states (haar)."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(NO_OBJECTS[kind]))
    message = "error: objects: expected at least one object\n"
    assert _run(["fdqg", mode, str(path)], capsys) == (2, "", message)


def test_instance_rows_in_any_order(tmp_path, monkeypatch, capsys):
    """A file with its mult and coproduct rows shuffled and explicit 0.0 and
    -0.0 rows added, -0.0 in the zero slots of its star and of one unit
    vector, and its units keyed in reverse order loads to the canonical
    file's entries, gives its reports byte for byte, and is written back as
    the canonical file."""
    G, _ = INSTANCES["s3x2_alg"]
    doc = json.loads(json.dumps(G.to_json_dict()))
    messy = json.loads(json.dumps(doc))
    for fld in ("mult", "coproduct"):
        taken = {tuple(row[:3]) for row in messy[fld]}
        free = [ijk for ijk in np.ndindex((G.dim,) * 3) if ijk not in taken][:: G.dim**2][:4]
        messy[fld] += [[*ijk, zero] for ijk, zero in zip(free, (0.0, -0.0, -0.0, 0.0))]
        random.Random(fld).shuffle(messy[fld])
        assert messy[fld][: len(doc[fld])] != doc[fld]
    negative_zero = lambda row: [-0.0 if x == 0 else x for x in row]
    messy["star"] = [negative_zero(row) for row in messy["star"]]
    units = list(messy["units"].items())[::-1]
    messy["units"] = {key: negative_zero(vec) if key == units[0][0] else vec for key, vec in units}
    assert json.dumps(messy["star"]).count("-0.0") == G.dim * (G.dim - 1)
    assert list(messy["units"]) != list(doc["units"])
    back = FinitePQG.from_json_dict(messy)
    for fld in ("mult", "coproduct", "star", "units"):
        for a, b in zip(getattr(back, fld), getattr(G, fld)):
            assert a.dtype == b.dtype and np.array_equal(a, b), fld
    assert json.dumps(back.to_json_dict()) == json.dumps(doc)
    reports = []
    for name, content in (("canonical", doc), ("messy", messy)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s3x2_alg.json").write_text(json.dumps(content))
        monkeypatch.chdir(tmp_path / name)
        reports.append([_run(["fdqg", m, "s3x2_alg.json"], capsys) for m in ("check", "haar")])
    assert reports[0] == reports[1]
    assert [code for code, _, _ in reports[0]] == [0, 0]


# -- axioms -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_axioms_pass_on_groupoid_instances(name):
    G, _ = INSTANCES[name]
    report = verify_axioms(G)
    assert report.passed, report.failed_labels()


def test_raum_fails_exactly_d2():
    report = verify_axioms(raum_instance())
    assert report.failed_axioms() == ["D2"]
    for label in AXIOM_LABELS:
        if label != "D2":
            assert report.check(label).passed
    # the lemma-level fact is reported independently and also fails here
    assert not report.check("unit_equivalence_relation").passed
    assert "missing directions" in report.check("D2").detail


def test_axiom_report_shape():
    report = verify_axioms(INSTANCES["z2_fn"][0])
    assert report.passed is True
    labels = [c.label for c in report.checks]
    for a in AXIOM_LABELS + ("unit_equivalence_relation", "assoc"):
        assert a in labels
    # each check serializes as the CLI writes it
    json.dumps([c.to_json_dict() for c in report.checks], sort_keys=True)


# -- convolution --------------------------------------------------------------


def test_convolution_grading_rule():
    G, _ = INSTANCES["pair2_fn"]
    # nonzero graded blocks of the dual are the corners (k, m, k, m)
    corner = {}
    for k in range(2):
        for m in range(2):
            f = GradedFunctional.graded(G, np.ones(4), (k, m, k, m))
            assert not _is_zero(f)
            corner[(k, m)] = f
    matched = convolve(G, corner[(0, 1)], corner[(1, 0)])
    assert matched.grading == (0, 0, 0, 0)
    assert np.abs(matched.vector).max() > 0.5
    mismatched = convolve(G, corner[(0, 1)], corner[(0, 1)])
    assert mismatched.grading == (0, 1, 0, 1)
    assert np.abs(mismatched.vector).max() == 0.0


def test_convolution_grading_rule_all_pairs():
    G, _ = INSTANCES["union_pair_z2_fn"]
    n, d = G.n_objects, G.dim
    funcs = []
    for k in range(n):
        for m in range(n):
            for j in range(d):
                f = GradedFunctional.graded(G, np.eye(d)[j], (k, m, k, m))
                if not _is_zero(f):
                    funcs.append(f)
    for chi in funcs:
        for omega in funcs:
            out = convolve(G, chi, omega)
            if chi.grading[1] != omega.grading[0] or chi.grading[3] != omega.grading[2]:
                assert np.abs(out.vector).max(initial=0.0) < 1e-14
            else:
                assert out.grading == (
                    chi.grading[0],
                    omega.grading[1],
                    chi.grading[2],
                    omega.grading[3],
                )


# -- Haar ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_haar_routes_agree(name):
    G, _ = INSTANCES[name]
    ces = haar_cesaro(G)
    sol = haar_linear_solve(G)
    assert all(c["converged"] for c in ces.diagnostics["corners"].values())
    assert sol.diagnostics["solvable"] and sol.diagnostics["unique"]
    assert _family_diff(G, ces, sol) < 1e-8
    for fam in (ces, sol):
        for r in haar_residuals(G, fam):
            assert r.passed, str(r)


@pytest.mark.parametrize("name", [n for n in sorted(INSTANCES) if n.endswith("_fn")])
def test_haar_matches_uniform_oracle(name):
    G, g = INSTANCES[name]
    sol = haar_linear_solve(G)
    oracle = uniform_haar_oracle(G, g)
    assert _family_diff(G, sol, oracle) < 1e-10


def test_haar_dual_group_algebra():
    # the invariant state of a group algebra evaluates group-likes at identity
    G, _ = INSTANCES["z2_alg"]
    sol = haar_linear_solve(G)
    assert np.allclose(sol.phi(0, 0).vector, [1.0, 0.0], atol=1e-12)


def test_haar_left_only_equals_right_only():
    G, _ = INSTANCES["s3x2_fn"]
    left = haar_linear_solve(G, side="left")
    right = haar_linear_solve(G, side="right")
    assert left.diagnostics["unique"] and right.diagnostics["unique"]
    assert _family_diff(G, left, right) < 1e-9


def test_haar_diagonal_idempotent():
    G, _ = INSTANCES["s3x2_fn"]
    fam = haar_linear_solve(G)
    for k in range(G.n_objects):
        phi = fam.phi(k, k)
        twice = convolve(G, phi, phi)
        assert np.abs(twice.vector - phi.vector).max() < 1e-12


def test_cesaro_iterates_from_skewed_seed():
    G, _ = INSTANCES["z3_fn"]
    seed = GradedFunctional.graded(G, np.array([0.5, 0.3, 0.2]), (0, 0, 0, 0))
    fam = haar_cesaro(G, seed_states={0: seed})
    corner = fam.diagnostics["corners"][0]
    assert corner["converged"]
    assert corner["iterations"] > 0
    assert len(corner["residual_trace"]) > 1
    assert np.abs(fam.phi(0, 0).vector - 1.0 / 3.0).max() < 1e-8


def test_cesaro_seed_validation():
    G, _ = INSTANCES["z3_fn"]
    with pytest.raises(ValueError, match="grading"):
        haar_cesaro(G, seed_states={0: GradedFunctional(np.ones(3) / 3, (0, 0, 0, 1))})


def test_raum_linear_solve_reports_defect():
    sol = haar_linear_solve(raum_instance())
    assert not sol.diagnostics["solvable"]
    assert sol.diagnostics["residual"] > 0.1


@settings(max_examples=15, deadline=None)
@given(hst.lists(hst.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3))
def test_cesaro_limit_independent_of_faithful_seed(weights):
    G, _ = INSTANCES["z3_fn"]
    raw = np.asarray(weights)
    seed = GradedFunctional.graded(G, raw / raw.sum(), (0, 0, 0, 0))
    fam = haar_cesaro(G, seed_states={0: seed})
    assert np.abs(fam.phi(0, 0).vector - 1.0 / 3.0).max() < 1e-8
