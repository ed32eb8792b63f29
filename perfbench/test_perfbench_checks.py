"""Tests of the benchmark's own checks.

Each check is run on hand-computable tiny graphs (a p=1 path and a p=1
star), where the right answer is known exactly, and on a corrupted
output, which it must reject.  Run with::

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Path 0 -> 1 -> 2 -> 3 -> 4, every edge live (p = 1); groups A = {0, 1},
# B = {2, 3, 4}.
PATH_SRC = np.array([0, 1, 2, 3])
PATH_DST = np.array([1, 2, 3, 4])
PATH_GROUPS = np.array([0, 0, 1, 1, 1])

# Star 0 -> 1..4, every edge live; group A = {0}, B = {1, 2, 3, 4}.
STAR_SRC = np.array([0, 0, 0, 0])
STAR_DST = np.array([1, 2, 3, 4])
STAR_GROUPS = np.array([0, 1, 1, 1, 1])


def csr(src, dst, n):
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, np.asarray(dst)[order]


@pytest.mark.parametrize(
    "deadline, expected", [(0, [1, 0]), (1, [2, 0]), (2, [2, 1]), (10, [2, 3])]
)
def test_path_bfs_counts_nodes_within_the_deadline(deadline, expected):
    world = csr(PATH_SRC, PATH_DST, 5)
    got = checks.world_utilities([world, world], 5, [0], deadline, PATH_GROUPS, 2)
    assert got.tolist() == expected


@pytest.mark.parametrize("deadline, expected", [(0, [1, 0]), (1, [1, 4])])
def test_star_bfs_and_monte_carlo_agree_exactly_at_p1(deadline, expected):
    world = csr(STAR_SRC, STAR_DST, 5)
    assert checks.world_utilities([world], 5, [0], deadline, STAR_GROUPS, 2).tolist() \
        == expected
    mean, std = checks.mc_utilities(STAR_SRC, STAR_DST, np.ones(4), 5, [0], deadline,
                                    STAR_GROUPS, 2, sims=50, seed=1)
    assert mean.tolist() == expected and std.tolist() == [0, 0]


def test_monte_carlo_matches_the_closed_form_one_hop_probability():
    # A leaf of a star with p = 0.3 is reached within one hop w.p. 0.3.
    mean, std = checks.mc_utilities(STAR_SRC, STAR_DST, np.full(4, 0.3), 5, [0], 1,
                                    STAR_GROUPS, 2, sims=20000, seed=2)
    assert mean[0] == 1.0
    assert abs(mean[1] - 4 * 0.3) < 4 * std[1] / np.sqrt(20000)


def test_exact_check_rejects_a_corrupted_utility():
    world = csr(PATH_SRC, PATH_DST, 5)
    ours = checks.world_utilities([world], 5, [0], 2, PATH_GROUPS, 2)
    assert checks.check_exact([2.0, 1.0], ours, "ok") == []
    assert checks.check_exact(np.float32([2.0, 1.0]), ours, "float32") == []
    assert checks.check_exact([2.0, 1.01], ours, "corrupt")
    assert checks.check_exact([2.0], ours, "short")


def test_monte_carlo_check_allows_in_sample_optimism_but_not_a_fifth_either_way():
    # A correct RR-set answer of the paper graph (theta = 65536) sits above
    # 2000 cascades by in-sample optimism; 20% above or below it is wrong.
    mean, std = np.array([32.34, 20.24]), np.array([6.5, 2.6])
    good = np.array([33.69, 22.37])
    se = checks.rrset_se(good, 500, 65536)
    assert checks.check_mc(good, mean, std, 2000, se, "optimistic") == []
    assert checks.check_mc(mean, mean, std, 2000, se, "exact") == []
    for shift in (0.8, 1.2):
        shifted = good * shift
        assert checks.check_mc(shifted, mean, std, 2000,
                               checks.rrset_se(shifted, 500, 65536), f"x{shift}")
    minority_low = good * np.array([1.0, 0.8])
    assert checks.check_mc(minority_low, mean, std, 2000, se, "minority low")


def test_rrset_standard_error_is_binomial():
    assert checks.rrset_se([50.0], 100, 100)[0] == pytest.approx(5.0)
    assert checks.rrset_se([0.0, 100.0], 100, 100).tolist() == [0.0, 0.0]


def test_seed_check_rejects_repeats_strangers_and_a_missed_budget():
    assert checks.check_seeds([0, 1, 2], 5, 3, "ok") == []
    assert checks.check_seeds([0, 0, 2], 5, 3, "repeat")
    assert checks.check_seeds([0, 1, 7], 5, 3, "stranger")
    assert checks.check_seeds([0, 1], 5, 3, "short")


def test_cover_check_requires_every_group_when_fair():
    sizes = np.array([2.0, 3.0])
    assert checks.check_cover(np.array([1.0, 1.5]), sizes, 0.5, True, "ok") == []
    assert checks.check_cover(np.array([2.0, 1.0]), sizes, 0.5, True, "fair miss")
    assert checks.check_cover(np.array([2.0, 1.0]), sizes, 0.5, False, "total ok") == []
    assert checks.check_cover(np.array([1.0, 1.0]), sizes, 0.5, False, "total miss")


def test_gain_check_tolerates_float32_rounding_only():
    assert checks.check_gains([5.0, 3.0, 3.0, 1.0], "ok") == []
    assert checks.check_gains([1.7399978, 1.7400015, 1.0], "rounding") == []
    assert checks.check_gains([5.0, 3.0, 3.01, 1.0], "rise")


def test_answer_comparison_names_the_differing_field():
    answer = {"seeds": [1, 2], "objective": 3.0}
    assert checks.check_same(dict(answer), answer, "same") == []
    problems = checks.check_same({"seeds": [1, 3], "objective": 3.0}, answer, "diff")
    assert problems and "seeds" in problems[0]


def test_program_answers_pass_and_corrupted_ones_fail():
    prog = workloads.Program()
    ens = workloads.ensemble(3, 4, params={"n": 60}, n_worlds=10)
    spec = workloads.run_spec(ens, workloads.budget(3, 5.0, True, "log"))
    answer = prog.solve(spec)
    assert workloads.check_answer(prog, answer, "clean") == []

    corrupt = json.loads(json.dumps(answer))
    corrupt["group_utilities"][0] += 0.5
    assert workloads.check_answer(prog, corrupt, "utility")

    corrupt = json.loads(json.dumps(answer))
    corrupt["seeds"][1] = corrupt["seeds"][0]
    assert workloads.check_answer(prog, corrupt, "seeds")

    rr_spec = workloads.run_spec(workloads.ensemble(3, 4, "rrset", {"n": 60}, 10),
                                 workloads.budget(3, 5.0, True, "log"))
    rr_answer = prog.solve(rr_spec)
    assert workloads.check_answer(prog, rr_answer, "rrset") == []
    rr_answer["group_utilities"] = [2 * u + 1 for u in rr_answer["group_utilities"]]
    assert workloads.check_answer(prog, rr_answer, "rrset doubled")


def test_backend_check_rejects_a_dense_sweep(tmp_path):
    def trace(backend):
        path = tmp_path / f"{backend}.json"
        spans = [[1, 0, "influence.store_build", 0.0, 1.0, "r/0", {"backend": backend}]]
        path.write_text(json.dumps({"spans": spans, "facts": {}, "sessions": []}))
        return path

    assert workloads.check_backends([trace("sparse")]) == []
    assert workloads.check_backends([trace("dense")])


def test_layer_self_time_subtracts_children(tmp_path):
    spans = [
        [1, 0, "core.solve", 0.0, 10.0, "op-0", {"evaluations": 8, "seeds": 2}],
        [2, 1, "influence.scalar_oracle", 2.0, 5.0, "op-0", None],
        [3, 0, "graph.edge_arrays", 10.0, 11.0, "setup-0", None],
    ]
    (tmp_path / "a.json").write_text(
        json.dumps({"spans": spans, "facts": {"import_s": 0.5}, "sessions": []}))
    got = layers.per_layer(tmp_path, lambda op: op == "op-0", 1, {}, None, 0.0)
    assert got["core.solve_s"]["value"] == pytest.approx(7.0)
    assert got["influence.scalar_oracle_s"]["value"] == pytest.approx(3.0)
    assert got["graph.edge_arrays_calls"]["value"] == 0  # set-up work is off the clock
    assert got["core.celf_useful_ratio"]["value"] == pytest.approx(0.25)
    assert got["cli.import_s"]["value"] == 0.5


def test_sweep_rows_pass_and_corrupted_ones_fail():
    from repro.sweep import SweepSpec, run_cell

    data = workloads.sweep_spec(5, 0)
    data["base"]["ensemble"]["dataset_params"] = {"n": 80}
    data["base"]["ensemble"]["n_worlds"] = 10
    sweep = SweepSpec.from_dict(data)
    row = run_cell(sweep, sweep.expand()[0].fingerprint())
    prog = workloads.Program()
    assert workloads.check_row(prog, row, "clean") == []

    corrupt = json.loads(json.dumps(row))
    corrupt["methods"]["greedy"]["group_fractions"][0] += 0.05
    assert workloads.check_row(prog, corrupt, "greedy")

    corrupt = json.loads(json.dumps(row))
    corrupt["methods"]["degree"]["group_fractions"] = [
        2 * f + 0.05 for f in corrupt["methods"]["degree"]["group_fractions"]]
    assert workloads.check_row(prog, corrupt, "baseline")

    corrupt = json.loads(json.dumps(row))
    corrupt["methods"]["random"]["seeds"] = []
    assert workloads.check_row(prog, corrupt, "short baseline")
