import json
import warnings

import numpy as np
import pytest

from polyharm.cli import main
from polyharm.formats import (
    FormatError,
    chain_to_doc,
    load_chain,
    parse_complex,
    value_to_complex,
)
from polyharm.simulate import SimConfig, simulate_hitting

from conftest import random_chain

P4_DOC = {
    "vertices": ["w1", "a", "b", "w2"],
    "boundary": ["w1", "w2"],
    "edges": [
        {"from": "a", "to": "w1", "p": 0.5},
        {"from": "a", "to": "b", "p": 0.5},
        {"from": "b", "to": "a", "p": 0.5},
        {"from": "b", "to": "w2", "p": 0.5},
    ],
}

TREE_DOC = {
    "children": {"o": ["u1", "u2"], "u1": ["v11", "v12"], "u2": ["v21", "v22"]},
    "measure": {"o": 1.0, "u1": 0.5, "u2": 0.5,
                "v11": 0.25, "v12": 0.25, "v21": 0.25, "v22": 0.25},
    "section": ["v11", "v12", "v21", "v22"],
    "depth": 2,
}


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(P4_DOC))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(TREE_DOC))
    return str(path)


def _g(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


def _run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(p4_file, capsys):
    code, doc = _run_json(capsys, ["validate", p4_file])
    assert code == 0
    assert doc["verdicts"]["valid_chain"]
    assert set(doc["results"]["boundary"]) == {"w1", "w2"}
    assert doc["input_digest"]


def test_validate_broken_exit2(tmp_path, capsys):
    doc = json.loads(json.dumps(P4_DOC))
    doc["edges"][0]["p"] = 0.4  # row a sums to 0.9
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "a" in err and "NotStochastic" in err


def test_dirichlet_golden(p4_file, tmp_path, capsys):
    g = _g(tmp_path, "g.json", {"w1": 1.0, "w2": 0.0})
    code, doc = _run_json(capsys, ["dirichlet", p4_file, "--lambda", "1", "--g", g])
    assert code == 0
    assert doc["results"]["values"]["a"] == pytest.approx(2 / 3, abs=1e-9)
    assert doc["results"]["values"]["b"] == pytest.approx(1 / 3, abs=1e-9)
    assert doc["residuals"]["max_residual"] < 1e-9
    assert all(doc["verdicts"].values())


def test_riquier_spectral_lambda_exit1(p4_file, tmp_path, capsys):
    g1 = _g(tmp_path, "g1.json", {"w1": 0.0, "w2": 0.0})
    g2 = _g(tmp_path, "g2.json", {"w1": 1.0, "w2": 0.0})
    code, doc = _run_json(
        capsys, ["riquier", p4_file, "--lambda", "0.5", "--g", f"{g1},{g2}"])
    assert code == 1
    assert not doc["verdicts"]["solved"]
    assert "LambdaInSpectrum" in doc["results"]["solved_error"]


def test_riquier_golden(p4_file, tmp_path, capsys):
    g1 = _g(tmp_path, "g1.json", {"w1": 0.0, "w2": 0.0})
    g2 = _g(tmp_path, "g2.json", {"w1": 1.0, "w2": 0.0})
    code, doc = _run_json(
        capsys, ["riquier", p4_file, "--lambda", "1", "--g", f"{g1},{g2}"])
    assert code == 0
    assert doc["results"]["values"]["a"] == pytest.approx(10 / 9, abs=1e-9)


def test_spectrum(p4_file, capsys):
    code, doc = _run_json(capsys, ["spectrum", p4_file])
    assert code == 0
    assert doc["results"]["rho"] == pytest.approx(0.5, abs=1e-9)
    assert doc["verdicts"]["spectral_radius_below_one"]


def test_spectrum_matches_lapack_on_dense_chain(tmp_path, capsys):
    rng = np.random.default_rng(0)
    random_chain(rng, size=10)
    path = tmp_path / "dense20.json"
    path.write_text(json.dumps(chain_to_doc(random_chain(rng, size=20))))
    code, doc = _run_json(capsys, ["spectrum", str(path)])
    assert code == 0
    chain = load_chain(str(path))
    want = np.linalg.eigvals(chain.trans[np.ix_(chain.interior, chain.interior)])
    got = np.array([value_to_complex(z) for z in doc["results"]["eigenvalues"]])
    assert sum(doc["results"]["multiplicities"]) == want.size
    assert np.abs(got[:, None] - want[None, :]).min(axis=1).max() <= 1e-8
    assert np.abs(got[:, None] - want[None, :]).min(axis=0).max() <= 1e-8


def test_martin(p4_file, capsys):
    code, doc = _run_json(capsys, ["martin", p4_file, "--lambda", "1",
                                   "--origin", "a"])
    assert code == 0
    assert doc["results"]["K(.,w1)"]["b"] == pytest.approx(0.5, abs=1e-9)
    assert doc["verdicts"]["origin_row_is_one"]


def test_martin_res_star_exit1(p4_file, capsys):
    code, doc = _run_json(capsys, ["martin", p4_file, "--lambda", "0",
                                   "--origin", "a"])
    assert code == 1
    assert "NotInResStar" in doc["results"]["kernel_computed_error"]


def test_global_basis_lambda1(p4_file, capsys):
    code, doc = _run_json(capsys, ["global-basis", p4_file, "--lambda", "1",
                                   "--n", "3"])
    assert code == 0
    assert doc["results"]["dimension"] == 2


def test_global_basis_spectral(p4_file, capsys):
    code, doc = _run_json(capsys, ["global-basis", p4_file, "--lambda", "0.5",
                                   "--n", "4"])
    assert code == 0
    assert doc["results"]["dimension"] == 1


def test_simulate_compare(p4_file, capsys):
    code, doc = _run_json(capsys, [
        "simulate", p4_file, "--start", "a", "--trials", "20000",
        "--seed", "5", "--compare"])
    assert code == 0
    assert doc["verdicts"]["z_within_5_sigma"]
    assert doc["results"]["counts"]["w1"] + doc["results"]["counts"]["w2"] == 20000


def test_simulate_has_no_shards_flag(p4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", p4_file, "--start", "a", "--trials", "50", "--seed", "3",
              "--shards", "4"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--shards" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_reports_steps(p4_file, capsys):
    base = ["simulate", p4_file, "--start", "a", "--trials", "200", "--seed", "3"]
    _, doc = _run_json(capsys, base + ["--max-steps", "2"])
    assert doc["results"]["steps"] == 2
    chain = load_chain(p4_file)
    est = simulate_hitting(chain, SimConfig(trials=200, seed=3, max_steps=2, start="a"))
    assert doc["results"]["censored"] == est.censored == est.live[-1]


def test_check_derivative(p4_file, capsys):
    code, doc = _run_json(capsys, ["check-derivative", p4_file,
                                   "--lambda", "2", "--r", "2", "--h", "1e-4"])
    assert code == 0
    assert doc["results"]["max_deviation"] <= 1e-6


def test_tree_green(tree_file, capsys):
    code, doc = _run_json(capsys, ["tree", tree_file, "green", "--lambda", "1",
                                   "--x", "o", "--y", "u1"])
    assert code == 0
    assert doc["results"]["green"] == pytest.approx(0.5)
    assert doc["verdicts"]["closed_form_matches"]


def test_tree_identity_check(tree_file, capsys):
    code, doc = _run_json(capsys, ["tree", tree_file, "identity-check",
                                   "--lambda", "1", "--n", "2", "--w", "v11"])
    assert code == 0
    assert doc["verdicts"]["derived_identity_exact"]
    assert doc["verdicts"]["kernel_expansion_matches"]
    assert doc["results"]["alternate_identity_ok"] is False
    assert "alternate_counterexample" in doc["results"]


def test_tree_eval(tree_file, tmp_path, capsys):
    nu = _g(tmp_path, "nu.json", {v: TREE_DOC["measure"][v] for v in TREE_DOC["measure"]})
    code, doc = _run_json(capsys, ["tree", tree_file, "eval", "--lambda", "2",
                                   "--nu", nu, "--x", "u1"])
    assert code == 0
    assert doc["results"]["value"] == pytest.approx(2.0)


def test_complex_lambda_parsing(p4_file, tmp_path, capsys):
    g = _g(tmp_path, "g.json", {"w1": [1.0, 0.5], "w2": 0.0})
    code, doc = _run_json(capsys, ["dirichlet", p4_file, "--lambda", "1.5,0.25",
                                   "--g", g])
    assert code == 0
    val = doc["results"]["values"]["a"]
    assert isinstance(val, list) and len(val) == 2  # genuinely complex


def test_missing_file_exit2(capsys):
    code = main(["validate", "/nonexistent/nowhere.json"])
    assert code == 2


def test_bad_json_exit2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_emit_round_trip(p4_file, tmp_path, capsys):
    out = str(tmp_path / "emitted.json")
    code, doc1 = _run_json(capsys, ["validate", p4_file, "--emit", out])
    assert code == 0
    code, doc2 = _run_json(capsys, ["validate", out])
    assert code == 0
    # reports agree apart from timing and the digest of the file itself
    for key in ("results", "verdicts"):
        d1 = {k: v for k, v in doc1[key].items() if k != "emitted"}
        d2 = {k: v for k, v in doc2[key].items() if k != "emitted"}
        assert d1 == d2
    # and the emitted file reproduces identical numbers downstream
    g = _g(tmp_path, "g.json", {"w1": 1.0, "w2": 0.0})
    _, r1 = _run_json(capsys, ["dirichlet", p4_file, "--lambda", "1", "--g", g])
    _, r2 = _run_json(capsys, ["dirichlet", out, "--lambda", "1", "--g", g])
    assert r1["results"] == r2["results"]


def test_table_output(p4_file, capsys):
    code = main(["spectrum", p4_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "rho" in out


def test_report_carries_all_fields(p4_file, capsys):
    _, doc = _run_json(capsys, ["spectrum", p4_file])
    for key in ("command", "input_digest", "results", "residuals",
                "tolerances", "verdicts", "elapsed_seconds"):
        assert key in doc
    assert doc["command"].startswith("--json spectrum")


def test_validate_network_file(tmp_path, capsys):
    doc = {"boundary": ["w1", "w2"],
           "edges": [{"u": "w1", "v": "a", "a": 1.0},
                     {"u": "a", "v": "b", "a": 1.0},
                     {"u": "b", "v": "w2", "a": 1.0}]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, rep = _run_json(capsys, ["validate", str(path)])
    assert code == 0
    assert set(rep["results"]["interior"]) == {"a", "b"}


def test_martin_higher_orders(p4_file, capsys):
    code, doc = _run_json(capsys, ["martin", p4_file, "--lambda", "1",
                                   "--origin", "a", "--order", "2"])
    assert code == 0
    # second-order kernel column at w1: G @ K(.,w1) on the interior
    assert doc["results"]["K2(.,w1)"]["a"] == pytest.approx(5 / 3, abs=1e-9)
    assert doc["results"]["K2(.,w1)"]["b"] == pytest.approx(4 / 3, abs=1e-9)


def test_simulate_series_mode(p4_file, capsys):
    code, doc = _run_json(capsys, [
        "simulate", p4_file, "--start", "a", "--trials", "50000",
        "--seed", "9", "--compare", "--compare-lambda", "2"])
    assert code == 0
    assert doc["verdicts"]["series_within_3_sigma"]
    assert doc["results"]["series_w1"]["analytic"] == pytest.approx(4 / 15)


def test_dirichlet_unknown_boundary_ids_exit2(p4_file, tmp_path, capsys):
    g = _g(tmp_path, "g.json", {"w1": 1, "w2": 0, "a": 99, "typo": 5})
    code = main(["dirichlet", p4_file, "--lambda", "1", "--g", g])
    captured = capsys.readouterr()
    assert code == 2
    assert "'a'" in captured.err and "'typo'" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_simulate_huge_step_cap(p4_file, capsys):
    base = ["simulate", p4_file, "--start", "a", "--trials", "10", "--seed", "1"]
    code, huge = _run_json(capsys, base + ["--max-steps", "1000000000"])
    assert code == 0
    _, capped = _run_json(capsys, base + ["--max-steps", "10000"])
    assert huge["results"]["counts"] == capped["results"]["counts"]
    chain = load_chain(p4_file)
    a, b = (simulate_hitting(chain, SimConfig(trials=10, seed=1, max_steps=cap, start="a"))
            for cap in (10**9, 10**4))
    for field in ("counts", "first_visit", "occupancy"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("command", [["validate"], ["tree", "ktr", "--lambda", "1",
                                                    "--x", "o", "--arc", "v11"]])
def test_input_file_read_once_for_parse_and_digest(command, p4_file, tree_file,
                                                   capsys, monkeypatch):
    import builtins
    import hashlib

    path = tree_file if command[0] == "tree" else p4_file
    real, opened = builtins.open, []

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    code, doc = _run_json(capsys, command[:1] + [path] + command[1:])
    assert code == 0
    assert opened.count(path) == 1
    with real(path, "rb") as fh:
        assert doc["input_digest"] == hashlib.sha256(fh.read()).hexdigest()


def _p4_with(**changes):
    doc = json.loads(json.dumps(P4_DOC))
    doc.update(changes)
    return doc


_EDGES = P4_DOC["edges"]
MALFORMED = {
    "edge_is_a_string": _p4_with(edges=["from a to w1"] + _EDGES[1:]),
    "edges_a_number": _p4_with(edges=5),
    "edges_an_object": _p4_with(edges={"0": _EDGES[0]}),
    "vertices_a_number": _p4_with(vertices=4),
    "boundary_a_number": _p4_with(boundary=3),
    "boundary_id_not_a_vertex": _p4_with(boundary=["w1", "w2", "zz"]),
    "p_null": _p4_with(edges=[{**_EDGES[0], "p": None}] + _EDGES[1:]),
    "p_a_list": _p4_with(edges=[{**_EDGES[0], "p": [0.5]}] + _EDGES[1:]),
    "p_a_string": _p4_with(edges=[{**_EDGES[0], "p": "0.5"}] + _EDGES[1:]),
    "p_true": _p4_with(edges=[{**_EDGES[0], "p": True}, {**_EDGES[1], "p": False}]
                       + _EDGES[2:]),
    "network_a_null": {"boundary": ["w1", "w2"],
                       "edges": [{"u": "w1", "v": "a", "a": 1.0},
                                 {"u": "a", "v": "w2", "a": None}]},
    "duplicate_vertex_ids": _p4_with(vertices=["w1", "a", "b", "w2", "a"]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_chain_file_exit2(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert str(path) in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("command", ["dirichlet", "riquier"])
def test_solver_report_shows_min_pivot_ratio(command, p4_file, tmp_path, capsys):
    g = _g(tmp_path, "g.json", {"w1": 1.0, "w2": 0.0})
    code, doc = _run_json(capsys, [command, p4_file, "--lambda", "1", "--g", g])
    assert code == 0
    # lam I - P_int = [[1, -1/2], [-1/2, 1]]: pivots 1 and 3/4, max entry 1
    assert doc["results"]["min_pivot_ratio"] == pytest.approx(0.75, abs=1e-15)
    assert doc["tolerances"]["pivot_rtol"] == 1e-12


NOT_NUMBERS = {
    "g_booleans": ({"w1": True, "w2": False}, "1", "file"),
    "g_nan": ({"w1": float("nan"), "w2": 1}, "1", "file"),
    "lambda_inf": ({"w1": 1, "w2": 0}, "inf,0", "--lambda"),
}


@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_non_finite_or_boolean_input_exit2(name, p4_file, tmp_path, capsys):
    g, lam, where = NOT_NUMBERS[name]
    path = _g(tmp_path, "g.json", g)  # json.dumps writes nan as NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--json", "dirichlet", p4_file, "--lambda", lam, "--g", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no report, so no bare NaN tokens
    assert (path if where == "file" else where) in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("value", [True, False, [True, 1.0], [0.0, False],
                                   float("nan"), float("inf"), [1.0, float("-inf")],
                                   10**400, [0, -10**400]],
                         ids=["true", "false", "pair_true", "pair_false", "nan", "inf",
                              "pair_inf", "huge_int", "pair_huge_int"])
def test_value_to_complex_refuses_non_numbers(value):
    with pytest.raises(FormatError):
        value_to_complex(value)


@pytest.mark.parametrize("text", ["inf", "nan", "1,inf", "-inf,0", "1e999", "nan,nan"])
def test_parse_complex_refuses_non_finite(text):
    with pytest.raises(FormatError, match="not a finite number"):
        parse_complex(text)


def test_finite_scalars_still_read():
    assert value_to_complex(2) == 2 and value_to_complex([1.5, -2]) == 1.5 - 2j
    assert parse_complex("1.5") == 1.5 and parse_complex("1,-0.25") == 1 - 0.25j


BAD_FLOATS = {
    "cluster_tol_nan": (["spectrum", "--cluster-tol", "nan"], "--cluster-tol"),
    "cluster_tol_inf": (["spectrum", "--cluster-tol", "inf"], "--cluster-tol"),
    "cluster_tol_negative": (["spectrum", "--cluster-tol", "-1"], "--cluster-tol"),
    "limit_nan": (["check-derivative", "--lambda", "2", "--r", "2", "--limit", "nan"],
                  "--limit"),
    "h_zero": (["check-derivative", "--lambda", "2", "--r", "2", "--h", "0"], "--h"),
}


@pytest.mark.parametrize("name", sorted(BAD_FLOATS))
def test_float_flags_must_be_positive_and_finite(name, p4_file, capsys):
    (command, *rest), flag = BAD_FLOATS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["--json", command, p4_file] + rest)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err and "positive finite" in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err


UNKNOWN_TREE_IDS = {
    "green": ["--x", "o", "--y", "bogus"],
    "kr": ["--x", "bogus", "--w", "v11"],
    "ktr": ["--x", "o", "--arc", "bogus"],
    "eval": ["--x", "bogus"],
}


@pytest.mark.parametrize("subop", sorted(UNKNOWN_TREE_IDS))
def test_tree_unknown_vertex_id_exit2(subop, tree_file, tmp_path, capsys):
    nu = _g(tmp_path, "nu.json", TREE_DOC["measure"])
    code = main(["tree", tree_file, subop, "--lambda", "1", "--nu", nu]
                + UNKNOWN_TREE_IDS[subop])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'bogus'" in captured.err
    assert "Traceback" not in captured.err
