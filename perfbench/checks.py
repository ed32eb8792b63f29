"""Independent output checks: the benchmark's own arithmetic.

Nothing here calls the program's estimators or solvers.  The checks
take plain arrays (a graph's edge lists, a world's kept-edge CSR, group
indices) and recompute what the program reported:

- :func:`world_utilities` — a frontier BFS, truncated at the deadline,
  over the program's own live-edge worlds.  On the same worlds the
  reported group utilities must match to float32 precision.
- :func:`mc_utilities` — deadline-truncated Monte Carlo independent
  cascades on the graph.  Reported numbers come from a finite sample
  the solver optimised over, so they may sit above the truth (in-sample
  optimism); the tolerance allows for that plus sampling error.
- structural checks (budget met, distinct seeds, cover quota met,
  non-increasing greedy gains) and answer comparisons.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Distances above this are "unreachable" in the program's store, so
#: deadlines are capped here exactly as the estimator caps them.
MAX_DEPTH = 254

#: Relative tolerance for utilities recomputed on the same worlds: the
#: program averages float32 per-world counts.
EXACT_RTOL = 1e-5

#: Monte Carlo check: allowed standard errors, and the allowed relative
#: excess of a reported (in-sample) utility over the Monte Carlo one.
#: Fair log B=30 RR-set answers on the paper graph sat above 2000
#: cascades by 5.5% +- 1.6% (majority group) and 8.2% +- 1.5% (minority
#: group, max 10.2%) over 24 world seeds: the solver optimises over the
#: sample it reports from.
MC_Z = 4.0
MC_OPTIMISM = 0.10


def depth_of(deadline: float) -> int:
    if math.isinf(deadline):
        return MAX_DEPTH
    return max(0, min(int(math.floor(deadline)), MAX_DEPTH))


def _gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """Positions in ``indices`` of every out-edge of ``rows``."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(total), lengths


def reached_within(
    indptr: np.ndarray, indices: np.ndarray, n: int, seeds: Sequence[int], depth: int
) -> np.ndarray:
    """Nodes within ``depth`` hops of ``seeds`` (frontier BFS on a CSR)."""
    seen = np.zeros(n, dtype=bool)
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    seen[frontier] = True
    for _ in range(depth):
        if frontier.size == 0:
            break
        positions, _ = _gather(indptr, indices, frontier)
        if positions.size == 0:
            break
        neighbours = indices[positions]
        frontier = np.unique(neighbours[~seen[neighbours]])
        seen[frontier] = True
    return seen


def world_utilities(
    worlds: Iterable[Tuple[np.ndarray, np.ndarray]],
    n: int,
    seeds: Sequence[int],
    deadline: float,
    group_of: np.ndarray,
    k: int,
) -> np.ndarray:
    """Mean per-group count of nodes reached by the deadline, per world."""
    depth = depth_of(deadline)
    totals = np.zeros(k, dtype=np.float64)
    count = 0
    for indptr, indices in worlds:
        seen = reached_within(indptr, indices, n, seeds, depth)
        totals += np.bincount(group_of[seen], minlength=k)
        count += 1
    return totals / count


def mc_utilities(
    src: np.ndarray,
    dst: np.ndarray,
    prob: np.ndarray,
    n: int,
    seeds: Sequence[int],
    deadline: float,
    group_of: np.ndarray,
    k: int,
    sims: int,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Monte Carlo IC cascades: mean and std of per-group counts.

    All ``sims`` cascades advance together.  At each step every node
    activated in the previous step tries each out-edge once, with the
    edge's probability; a node activated at step ``t <= deadline``
    counts.  Seeds are active at step 0.
    """
    rng = np.random.default_rng(seed)
    order = np.argsort(src, kind="stable")
    e_dst = np.asarray(dst, dtype=np.int64)[order]
    e_prob = np.asarray(prob, dtype=np.float64)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.asarray(src)[order], minlength=n), out=indptr[1:])

    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    active = np.zeros((sims, n), dtype=bool)
    active[:, seeds] = True
    f_sim = np.repeat(np.arange(sims, dtype=np.int64), seeds.size)
    f_node = np.tile(seeds, sims)
    for _ in range(depth_of(deadline)):
        if f_node.size == 0:
            break
        positions, lengths = _gather(indptr, e_dst, f_node)
        if positions.size == 0:
            break
        sim = np.repeat(f_sim, lengths)
        hit = rng.random(positions.size) < e_prob[positions]
        sim, node = sim[hit], e_dst[positions][hit]
        fresh = ~active[sim, node]
        keys = np.unique(sim[fresh] * n + node[fresh])
        f_sim, f_node = keys // n, keys % n
        active[f_sim, f_node] = True
    onehot = np.zeros((n, k), dtype=np.float64)
    onehot[np.arange(n), group_of] = 1.0
    counts = active.astype(np.float64) @ onehot
    return counts.mean(axis=0), counts.std(axis=0, ddof=1)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_exact(reported: Sequence[float], ours: np.ndarray, what: str) -> List[str]:
    reported = np.asarray(reported, dtype=np.float64)
    if reported.shape != ours.shape:
        return [f"{what}: {reported.size} group utilities, expected {ours.size}"]
    bad = np.abs(reported - ours) > EXACT_RTOL * np.maximum(1.0, np.abs(ours))
    if bad.any():
        return [f"{what}: reported {reported.tolist()} but BFS on the same "
                f"worlds gives {ours.tolist()}"]
    return []


def rrset_se(reported: Sequence[float], n: int, theta: int) -> np.ndarray:
    """Standard error of RR-set group utilities.

    A group's utility is ``n / theta`` times the number of ``theta`` RR
    sets, rooted at uniform nodes, that are rooted in the group and hit
    by the seeds: a binomial count, so its standard error is
    ``sqrt(u (n - u) / theta)``.
    """
    u = np.clip(np.asarray(reported, dtype=np.float64), 0.0, n)
    return np.sqrt(u * (n - u) / theta)


def check_mc(
    reported: Sequence[float],
    mc_mean: np.ndarray,
    mc_std: np.ndarray,
    sims: int,
    reported_se: np.ndarray,
    what: str,
) -> List[str]:
    """Reported utilities against Monte Carlo ones.

    A reported utility may sit below the Monte Carlo one by ``MC_Z``
    combined standard errors (the Monte Carlo run's and the reported
    estimate's own, ``reported_se``), and above it by as much plus
    ``MC_OPTIMISM`` of the Monte Carlo value, the room for in-sample
    optimism of seeds chosen on the sample.
    """
    reported = np.asarray(reported, dtype=np.float64)
    if reported.shape != mc_mean.shape:
        return [f"{what}: {reported.size} group utilities, expected {mc_mean.size}"]
    se = np.sqrt(mc_std ** 2 / sims + np.asarray(reported_se) ** 2)
    low = mc_mean - MC_Z * se - 1e-9
    high = mc_mean * (1.0 + MC_OPTIMISM) + MC_Z * se + 1e-9
    if ((reported < low) | (reported > high)).any():
        return [f"{what}: reported {np.round(reported, 4).tolist()} but Monte "
                f"Carlo gives {np.round(mc_mean, 4).tolist()} (allowed "
                f"{np.round(low, 4).tolist()} to {np.round(high, 4).tolist()})"]
    return []


def check_seeds(seeds: Sequence[Any], n: int, budget: Optional[int], what: str) -> List[str]:
    problems = []
    if len(set(seeds)) != len(seeds):
        problems.append(f"{what}: repeated seeds {list(seeds)}")
    if any(not isinstance(s, int) or not 0 <= s < n for s in seeds):
        problems.append(f"{what}: seeds outside the graph's {n} nodes")
    if budget is not None and len(seeds) != budget:
        problems.append(f"{what}: {len(seeds)} seeds for a budget of {budget}")
    return problems


#: Relative slack on the cover quota: the program tests the quota on
#: float32 utilities, these checks recompute them in float64.
COVER_RTOL = 1e-5


def check_cover(
    utilities: np.ndarray, sizes: np.ndarray, quota: float, fair: bool, what: str
) -> List[str]:
    """Cover answers reach the quota: every group (fair) or in total."""
    fractions = utilities / sizes
    reached = fractions if fair else np.asarray([utilities.sum() / sizes.sum()])
    if (reached < quota * (1.0 - COVER_RTOL)).any():
        return [f"{what}: quota {quota} not met, fractions {fractions.tolist()}"]
    return []


#: Allowed rise between consecutive greedy gains.  A real rise on R
#: worlds is at least 1/R nodes; float32 sums of per-world counts move
#: gains by about 1e-5, so anything below GAIN_TOL is rounding.
GAIN_TOL = 1e-3


def check_gains(gains: Sequence[float], what: str) -> List[str]:
    """Greedy on a monotone submodular objective picks non-increasing gains."""
    gains = np.asarray(gains, dtype=np.float64)
    rises = np.diff(gains) > GAIN_TOL
    if rises.any():
        at = int(np.argmax(rises)) + 1
        return [f"{what}: gain rose at step {at} ({gains[at - 1]} -> {gains[at]})"]
    return []


#: Result fields that must match between two computations of one answer.
ANSWER_FIELDS = (
    "problem", "seeds", "seed_count", "groups", "group_sizes",
    "group_utilities", "group_fractions", "total_fraction", "disparity",
    "objective", "stopped_reason",
)


def check_same(
    got: Dict[str, Any], want: Dict[str, Any], what: str,
    fields: Sequence[str] = ANSWER_FIELDS,
) -> List[str]:
    diff = [name for name in fields if got.get(name) != want.get(name)]
    if diff:
        return [f"{what}: differs from the reference in {diff}"]
    return []
