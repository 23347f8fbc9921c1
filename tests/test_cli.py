import json

import numpy as np
import pytest

from polyharm.cli import main
from polyharm.formats import chain_to_doc, load_chain, value_to_complex
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


def test_simulate_sharded_identical(p4_file, capsys):
    base = ["simulate", p4_file, "--start", "a", "--trials", "5000", "--seed", "3"]
    _, doc1 = _run_json(capsys, base + ["--shards", "1"])
    _, doc4 = _run_json(capsys, base + ["--shards", "4"])
    assert doc1["results"]["counts"] == doc4["results"]["counts"]


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
