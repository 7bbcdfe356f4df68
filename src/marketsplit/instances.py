"""Market split instances: data model, text format, generation, reduction.

An instance is a system of m simultaneous subset-sum equations over one
shared vector of n binary variables: find x in {0,1}^n with A x = d, where
A is an m x n matrix of non-negative integers and d an m-vector.

Instance file format (UTF-8 text)::

    # optional comment lines start with '#'
    m n
    a_11 a_12 ... a_1n d_1
    ...
    a_m1 a_m2 ... a_mn d_m

Blank lines and comment lines are skipped on input.  The canonical
rendering produced by :func:`write_instance` uses single spaces,
newline-terminated lines, and no comments.

Random instances follow the classic hard benchmark family: given m, set
n = 10(m - 1), draw every coefficient uniformly from [0, K), and set each
right-hand side to floor(half the row sum).  Draws come from a SplitMix64
stream keyed by the seed (values taken row-major, one rejection-sampled
draw per coefficient), so identical (m, K, seed) is byte-identical across
platforms and library versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

MASK64 = (1 << 64) - 1

#: Parsed values must stay below this bound (keeps signed-width headroom).
VALUE_LIMIT = 1 << 63

#: A solution is a plain tuple of n zeros and ones, x_1 first.
SolutionVector = tuple[int, ...]


class ParseError(ValueError):
    """Malformed instance text; `lineno` is 1-based."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ReductionOverflowError(ValueError):
    """Surrogate reduction would exceed 64-bit range.

    `max_rows` is the largest admissible number of merged rows (1 means
    no reduction is possible at all).
    """

    def __init__(self, requested: int, max_rows: int):
        super().__init__(
            f"reduction overflow: merging {requested} rows exceeds 64-bit "
            f"range; largest admissible r is {max_rows}"
        )
        self.requested = requested
        self.max_rows = max_rows


def _as_u64_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    arr = np.array([[int(v) for v in row] for row in rows], dtype=np.uint64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, repr=False)
class MspInstance:
    """Immutable instance of the m-row subset-sum feasibility problem.

    `k_bound` records the coefficient bound K the instance was drawn from
    (documentation only, 0 = unknown); it is not serialized and does not
    participate in equality.
    """

    a: np.ndarray
    d: np.ndarray
    k_bound: int = 0

    def __init__(self, a, d, k_bound: int = 0):
        rows = [list(row) for row in a]
        dvec = [int(v) for v in d]
        if not rows or not rows[0]:
            raise ValueError("instance needs at least one row and one column")
        n = len(rows[0])
        if any(len(row) != n for row in rows):
            raise ValueError("all coefficient rows must have equal length")
        if len(dvec) != len(rows):
            raise ValueError(
                f"d has {len(dvec)} entries for {len(rows)} rows"
            )
        for i, row in enumerate(rows):
            total = 0
            for v in row:
                v = int(v)
                if v < 0:
                    raise ValueError(f"row {i + 1}: negative coefficient {v}")
                total += v
            if total > MASK64:
                raise ValueError(
                    f"row {i + 1}: coefficient sum {total} overflows 64-bit range"
                )
        for i, v in enumerate(dvec):
            if v < 0:
                raise ValueError(f"d[{i}] is negative")
            if v > MASK64:
                raise ValueError(f"d[{i}] overflows 64-bit range")
        object.__setattr__(self, "a", _as_u64_matrix(rows))
        dd = np.array(dvec, dtype=np.uint64)
        dd.setflags(write=False)
        object.__setattr__(self, "d", dd)
        object.__setattr__(self, "k_bound", int(k_bound))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def row_sums(self) -> list[int]:
        return [int(s) for s in self.a.sum(axis=1, dtype=np.uint64)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MspInstance):
            return NotImplemented
        return (
            self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
            and bool(np.array_equal(self.d, other.d))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MspInstance(m={self.m}, n={self.n}, k_bound={self.k_bound})"


def _is_decimal(tok: str) -> bool:
    """True for ASCII [0-9]+ only; int() also takes '+3', '1_0' and
    non-ASCII digits, which the format does not allow."""
    return tok.isascii() and tok.isdigit()


def parse_instance(text: str | TextIO | Iterable[str]) -> MspInstance:
    """Parse instance text (string, open file, or iterable of lines)."""
    if hasattr(text, "read"):
        text = text.read()  # type: ignore[union-attr]
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [line.rstrip("\n") for line in text]

    content: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((lineno, stripped.split()))

    if not content:
        raise ParseError(1, "empty instance: missing 'm n' header")

    header_lineno, header = content[0]
    if len(header) != 2:
        raise ParseError(
            header_lineno,
            f"malformed header: expected 'm n', found {len(header)} tokens",
        )
    if not all(_is_decimal(tok) for tok in header):
        raise ParseError(header_lineno, "malformed header: non-integer token")
    m, n = int(header[0]), int(header[1])
    if m < 1 or n < 1:
        raise ParseError(header_lineno, f"malformed header: m={m}, n={n} must be positive")

    body = content[1:]
    rows: list[list[int]] = []
    dvec: list[int] = []
    for r, (lineno, tokens) in enumerate(body[:m], start=1):
        if len(tokens) != n + 1:
            raise ParseError(
                lineno, f"row {r}: expected {n + 1} values, found {len(tokens)}"
            )
        values: list[int] = []
        for tok in tokens:
            negative = tok.startswith("-")
            if not _is_decimal(tok[1:] if negative else tok):
                raise ParseError(lineno, f"row {r}: non-integer token '{tok}'")
            v = int(tok)
            if negative or v >= VALUE_LIMIT:
                raise ParseError(
                    lineno,
                    f"row {r}: value {v} out of range (must be in [0, 2**63))",
                )
            values.append(v)
        if sum(values[:-1]) > MASK64:
            raise ParseError(lineno, f"row {r}: row sum overflows 64-bit range")
        rows.append(values[:-1])
        dvec.append(values[-1])
    if len(body) < m:
        raise ParseError(
            body[-1][0] if body else header_lineno,
            f"expected {m} rows, found {len(body)}",
        )
    if len(body) > m:
        raise ParseError(body[m][0], f"unexpected content after {m} rows")
    return MspInstance(rows, dvec)


def write_instance(inst: MspInstance) -> str:
    """Render an instance in canonical text form (re-parses to an equal one)."""
    out = [f"{inst.m} {inst.n}"]
    a = inst.a.tolist()
    d = inst.d.tolist()
    for row, di in zip(a, d):
        out.append(" ".join(str(v) for v in row) + f" {di}")
    return "\n".join(out) + "\n"


class SplitMix64:
    """Tiny deterministic PRNG; bit-stable by construction.

    State update and output mix follow the widely used splitmix64
    reference (Steele/Lea/Flood).  `below(k)` draws uniformly from
    [0, k) via rejection sampling, so draws are exactly uniform.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        if k <= 0:
            raise ValueError("k must be positive")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k


def generate_instance(m: int, k: int, seed: int) -> MspInstance:
    """Draw a random instance of the hard benchmark family.

    n = 10(m - 1) columns, coefficients uniform in [0, k), right-hand
    sides floor(row sum / 2).  Deterministic per (m, k, seed).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    n = 10 * (m - 1)
    rng = SplitMix64(seed)
    rows = [[rng.below(k) for _ in range(n)] for _ in range(m)]
    dvec = [sum(row) // 2 for row in rows]
    return MspInstance(rows, dvec, k_bound=k)


def _merged_row_fits(inst: MspInstance, r: int) -> bool:
    base, weights = _merge_weights(inst, r)
    total = 0
    row_sums = inst.row_sums()
    for i in range(r):
        total += weights[i] * row_sums[i]
    return total <= MASK64


def _merge_weights(inst: MspInstance, r: int) -> tuple[int, list[int]]:
    """Base nD and the per-row weights (nD)^0 .. (nD)^(r-1)."""
    a = inst.a[:r]
    max_coeff = int(a.max())
    max_d = max(int(v) for v in inst.d[:r])
    # D > a_ij makes per-row subset sums single base-(nD) digits; the target
    # digits must be canonical too, hence the max_d term (equal to the first
    # bound whenever every d_i is attainable).
    big_d = max(max_coeff + 1, max_d // inst.n + 1)
    base = inst.n * big_d
    weights = [base**i for i in range(r)]
    return base, weights


def surrogate_reduce(inst: MspInstance, r: int) -> MspInstance:
    """Merge the first r rows into one equivalent aggregated row.

    Row i is scaled by (nD)^(i-1) with D chosen just above every merged
    coefficient; distinct rows then occupy distinct base-(nD) digit
    positions, so a 0/1 vector satisfies the merged row exactly when it
    satisfies every original row.  Rows r+1..m are copied unchanged.
    """
    if r < 2 or r > inst.m:
        raise ValueError(f"r out of range: must have 2 <= r <= m={inst.m}, got {r}")
    _, weights = _merge_weights(inst, r)
    a_list = inst.a.tolist()
    d_list = inst.d.tolist()
    merged = [0] * inst.n
    for i in range(r):
        w = weights[i]
        row = a_list[i]
        for j in range(inst.n):
            merged[j] += w * row[j]
    merged_d = sum(weights[i] * d_list[i] for i in range(r))
    if sum(merged) > MASK64 or merged_d > MASK64:
        max_rows = 1
        for rr in range(r - 1, 1, -1):
            if _merged_row_fits(inst, rr):
                max_rows = rr
                break
        raise ReductionOverflowError(r, max_rows)
    new_a = [merged] + a_list[r:]
    new_d = [merged_d] + d_list[r:]
    return MspInstance(new_a, new_d)


def verify_solution(inst: MspInstance, x: Sequence[int]) -> bool:
    """Exact check that A x = d for a 0/1 vector x of length n."""
    if len(x) != inst.n:
        raise ValueError(f"solution has length {len(x)}, instance has n={inst.n}")
    if any(bit not in (0, 1) for bit in x):
        raise ValueError(f"solution entries must be 0 or 1: {tuple(x)!r}")
    a = inst.a.tolist()
    d = inst.d.tolist()
    for i in range(inst.m):
        row = a[i]
        total = 0
        for j, bit in enumerate(x):
            if bit:
                total += row[j]
        if total != d[i]:
            return False
    return True


def solution_to_string(x: Sequence[int]) -> str:
    return "".join("1" if bit else "0" for bit in x)


def solution_from_string(s: str) -> SolutionVector:
    if any(c not in "01" for c in s):
        raise ValueError(f"solution string must be over {{0,1}}: {s!r}")
    return tuple(int(c) for c in s)


def solution_encoding(x: Sequence[int]) -> int:
    """Integer encoding with x_1 as the most significant bit.

    Ascending encoding order therefore equals lexicographic order of the
    0/1 strings.
    """
    enc = 0
    for bit in x:
        enc = (enc << 1) | (1 if bit else 0)
    return enc
