"""Shared test helpers: seeded instance construction and strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from marketsplit.instances import MspInstance, SplitMix64


def seeded_instance(
    seed: int, m: int, n: int, k: int, d_mode: str = "half"
) -> MspInstance:
    """Deterministic random instance with an arbitrary (m, n) shape.

    d_mode "half" uses floor(row sum / 2) targets (the hard family's
    rule); "random" draws each target from [0, row sum].
    """
    rng = SplitMix64(seed)
    rows = [[rng.below(k) for _ in range(n)] for _ in range(m)]
    if d_mode == "half":
        d = [sum(row) // 2 for row in rows]
    elif d_mode == "random":
        d = [rng.below(sum(row) + 1) for row in rows]
    else:
        raise ValueError(d_mode)
    return MspInstance(rows, d, k_bound=k)


def twin_instance(seed: int, m: int = 3, n: int = 20, k: int = 20) -> MspInstance:
    """A planted solution x with columns 0 and 6 equal, x_0 = 1 and x_6 =
    0: swapping them gives a second solution of the same alpha, since
    both columns lie in the left half (blocks A and B for n >= 12).
    Small coefficients keep the sweep's windows narrow and dense."""
    rng = SplitMix64(seed)
    rows = [[rng.below(k) for _ in range(n)] for _ in range(m)]
    for row in rows:
        row[6] = row[0]
    x = [rng.below(2) for _ in range(n)]
    x[0], x[6] = 1, 0
    d = [sum(c for c, xi in zip(row, x) if xi) for row in rows]
    return MspInstance(rows, d, k_bound=k)


@st.composite
def small_instances(
    draw,
    max_m: int = 3,
    min_n: int = 4,
    max_n: int = 12,
    max_coeff: int = 12,
    plant_solution: bool = True,
):
    """Small instances; about half get a planted (feasible) solution."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(min_n, max_n))
    rows = [
        [draw(st.integers(0, max_coeff)) for _ in range(n)] for _ in range(m)
    ]
    if plant_solution and draw(st.booleans()):
        x = [draw(st.integers(0, 1)) for _ in range(n)]
        d = [sum(c for c, xi in zip(row, x) if xi) for row in rows]
    else:
        d = [draw(st.integers(0, sum(row) + 1)) for row in rows]
    return MspInstance(rows, d)


def batch_vectors(tables, batch) -> set[tuple[int, ...]]:
    """Characteristic vectors of every left x right combination of equal
    alpha in a batch."""
    from marketsplit.enumerate1d import assemble_solution

    out = set()
    for part in batch.per_alpha(tables):
        for a_idx, b_idx in part.left_pairs[:]:
            for c_idx, d_idx in part.right_pairs[:]:
                out.add(assemble_solution(tables, a_idx, b_idx, c_idx, d_idx))
    return out


def drain_all_batches(enumerator):
    """Every batch an enumerator emits, grouped batches split per alpha, so
    the list compares alpha by alpha between enumerators."""
    batches = []
    while (batch := enumerator.next_batch()) is not None:
        batches.extend(batch.per_alpha(enumerator.tables))
    return batches
