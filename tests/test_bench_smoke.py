"""Runs the benchmark's self-test on the ``riquier``, ``montecarlo`` and
``cli`` workloads: every solver answer up to interior size 300, every
simulation (z-scores, the first-visit series, one shard against three
bit for bit) and every CLI report (``polyharm --json`` subprocesses up
to interior size 390) checked against the benchmark's numpy oracle, and
every check shown to reject a perturbed answer.  The ``spectral``
operations are checked against the same oracle in process."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyharm

BENCH = Path(__file__).resolve().parent.parent / "bench"
SELFTEST = BENCH / "selftest.py"


def _selftest(workload):
    proc = subprocess.run([sys.executable, str(SELFTEST), "--workloads", workload],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_selftest_riquier():
    _selftest("riquier")


def test_bench_selftest_montecarlo():
    _selftest("montecarlo")


def test_bench_selftest_cli():
    _selftest("cli")


@pytest.mark.parametrize("seed", [7, 11])
def test_bench_spectral_answers(seed, tmp_path, monkeypatch):
    """Every ``spectral`` operation (Jordan chains and global bases on tree
    sections up to interior 63, LAPACK's second eigenvalue on dense chains
    up to interior 56, network checks up to interior 36) passes the
    benchmark's own check, whatever its ``fault`` tag says."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    for op in workloads.spectral(polyharm, seed, tmp_path).round:
        assert op.check(op.run()) == [], op.name


def test_bench_spectral_network_checks_rank_each_eigenvector_once(tmp_path, monkeypatch):
    """In one ``spectral`` round, the eliminations of each network check
    together see one column per eigenvector: n columns at interior n,
    each elimination on one matrix."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    spectral = polyharm.spectral
    echelon, check = spectral._echelon, spectral.network_spectrum_check
    columns, seen = [0], []

    def counting_echelon(m, tol):
        assert m.ndim == 2
        columns[0] += m.shape[1]
        return echelon(m, tol)

    def counting_check(*args, **kwargs):
        columns[0] = 0
        rep = check(*args, **kwargs)
        seen.append((columns[0], len(rep.chain.interior_ids)))
        return rep

    monkeypatch.setattr(spectral, "_echelon", counting_echelon)
    monkeypatch.setattr(polyharm, "network_spectrum_check", counting_check)
    for op in workloads.spectral(polyharm, 7, tmp_path).round:
        assert op.check(op.run()) == [], op.name
    assert len(seen) == 4
    assert all(cols == n for cols, n in seen), seen


def test_bench_spectral_jordan_bases_eliminate_twice_per_level(tmp_path, monkeypatch):
    """In one ``spectral`` round, each Jordan basis makes two eliminations
    per level of its nested kernels: one for the kernel of B^k and one
    for that level's chain tops.  Each order-n global basis follows the
    Jordan basis on its chain, whose min(n, depth) levels the chain
    keeps, and makes no elimination."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    spectral, linalg = polyharm.spectral, polyharm.linalg
    echelon, null = linalg._echelon, spectral.nullspace_info
    jordan, glob = spectral.jordan_basis, spectral.global_polyharmonic_basis
    calls, kernels, seen, depth, global_seen = [0], [0], [], {}, []

    def counting_echelon(m, tol):
        calls[0] += 1
        return echelon(m, tol)

    def counting_null(a, tol):
        kernels[0] += 1
        return null(a, tol)

    def counting_jordan(chain, *args, **kwargs):
        calls[0] = 0
        jb = jordan(chain, *args, **kwargs)
        seen.append((calls[0], jb.chain_lengths[0]))
        depth[id(chain)] = jb.chain_lengths[0]
        return jb

    def counting_global(chain, lam, n, *args, **kwargs):
        calls[0] = kernels[0] = 0
        basis = glob(chain, lam, n, *args, **kwargs)
        global_seen.append((calls[0], kernels[0], min(n, depth[id(chain)])))
        return basis

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(spectral, "_echelon", counting_echelon)
    monkeypatch.setattr(spectral, "nullspace_info", counting_null)
    monkeypatch.setattr(spectral, "jordan_basis", counting_jordan)
    monkeypatch.setattr(polyharm, "jordan_basis", counting_jordan)
    monkeypatch.setattr(spectral, "global_polyharmonic_basis", counting_global)
    monkeypatch.setattr(polyharm, "global_polyharmonic_basis", counting_global)
    for op in workloads.spectral(polyharm, 7, tmp_path).round:
        assert op.check(op.run()) == [], op.name
    assert len(seen) == 6
    assert all(n == 2 * levels for n, levels in seen), seen
    assert global_seen == [(0, 0, 2)] * 3


def test_bench_spectral_eliminations_are_real_at_real_eigenvalues(tmp_path, monkeypatch):
    """In one ``spectral`` round, every elimination of the tree-section
    Jordan bases and of ``dense13`` (all at real eigenvalues) gets a
    float64 matrix; ``dense35`` and ``dense56``, at complex eigenvalues,
    get complex128.  The tree-section global bases answer from the
    staircase their Jordan bases left on the chain and eliminate
    nothing."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    spectral, linalg = polyharm.spectral, polyharm.linalg
    echelon, dtypes = linalg._echelon, {}

    def recording_echelon(m, tol):
        dtypes.setdefault(current[0], set()).add(m.dtype.name)
        return echelon(m, tol)

    monkeypatch.setattr(linalg, "_echelon", recording_echelon)
    monkeypatch.setattr(spectral, "_echelon", recording_echelon)
    current = [None]
    for op in workloads.spectral(polyharm, 7, tmp_path).round:
        current[0] = op.name
        assert op.check(op.run()) == [], op.name
    jordan = {name: kinds for name, kinds in dtypes.items()
              if name.startswith(("tree", "dense"))}
    assert len(jordan) == 6, sorted(jordan)
    assert not [name for name in dtypes if name.endswith(".global_basis")], sorted(dtypes)
    for name, kinds in jordan.items():
        want = "complex128" if name.startswith(("dense35", "dense56")) else "float64"
        assert kinds == {want}, (name, kinds)


def test_bench_spectral_rounds_keep_each_chains_spectrum(tmp_path, monkeypatch):
    """The first ``spectral`` round computes one spectrum per tree or
    dense chain (six, each one ``np.linalg.eig`` call); the second, on the
    same chains, computes none."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    wl = workloads.spectral(polyharm, 7, tmp_path)
    eig, calls = np.linalg.eig, [0]

    def counting(m):
        calls[0] += 1
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counting)
    per_round = []
    for _ in range(2):
        calls[0] = 0
        for op in wl.round:
            assert op.check(op.run()) == [], op.name
        per_round.append(calls[0])
    assert per_round == [6, 0]


def test_bench_spectral_rounds_keep_each_chains_staircase(tmp_path, monkeypatch):
    """The first ``spectral`` round eliminates the nested kernels of each
    tree or dense chain once (18 levels in all); the second, on the same
    chains and eigenvalues, eliminates none."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    wl = workloads.spectral(polyharm, 7, tmp_path)
    spectral = polyharm.spectral
    null, calls = spectral.nullspace_info, [0]

    def counting(a, tol):
        calls[0] += 1
        return null(a, tol)

    monkeypatch.setattr(spectral, "nullspace_info", counting)
    per_round = []
    for _ in range(2):
        calls[0] = 0
        for op in wl.round:
            assert op.check(op.run()) == [], op.name
        per_round.append(calls[0])
    assert per_round == [18, 0]


def _per_riquier_round(tmp_path, monkeypatch, calls):
    """Two ``riquier`` rounds on one workload, every answer passing the
    benchmark's check: the count in ``calls[0]`` over each."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import workloads

    wl = workloads.riquier(polyharm, 7, tmp_path)
    per_round = []
    for _ in range(2):
        calls[0] = 0
        for op in wl.round:
            assert op.check(op.run()) == [], op.name
        per_round.append(calls[0])
    return per_round


def _calls_per_riquier_round(tmp_path, monkeypatch, owner, attr):
    """The calls to ``owner.attr`` in each of two ``riquier`` rounds."""
    fn, calls = getattr(owner, attr), [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, attr, counting)
    return _per_riquier_round(tmp_path, monkeypatch, calls)


def test_bench_riquier_rounds_share_the_green_factorisations(tmp_path, monkeypatch):
    """The first round factors once per (chain, lam) of its five chains
    and the second, on the same chains, not at all."""
    assert _calls_per_riquier_round(tmp_path, monkeypatch, polyharm.bvp, "lu_factor") == [5, 0]


def test_bench_riquier_rounds_share_the_panel_inverses(tmp_path, monkeypatch):
    """Each kept factorisation inverts its diagonal panels once, on its
    first solve, and never again."""
    assert _calls_per_riquier_round(tmp_path, monkeypatch, polyharm.linalg.LUFactorization,
                                    "_panel_inverses") == [5, 0]


def test_bench_riquier_rounds_hit_the_last_section(tmp_path, monkeypatch):
    """Every closed-form call of a round passes the section whose
    restriction was made at set-up, which each tree keeps, so no round
    walks a section."""
    assert _calls_per_riquier_round(tmp_path, monkeypatch, polyharm.tree,
                                    "_walk_section") == [0, 0]


def test_bench_riquier_rounds_keep_the_nth_interiors(tmp_path, monkeypatch):
    """The first round forms the n-th interior once per chain and order
    asked for: n = 1, 2, 3 on each of the three dense chains and n = 2 on
    each tree section.  The second round, on the same chains, forms none."""
    assert _calls_per_riquier_round(tmp_path, monkeypatch, polyharm.chain,
                                    "_form_nth_layout") == [11, 0]
