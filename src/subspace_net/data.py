"""Planted synthetic generators, strict CSV ingestion, seeded splitting,
and the package's file writers.

A plain numeric CSV file (an unquoted header line, then lines of ASCII
numbers and commas) is read by numpy in one call; every other file is
walked a record at a time with the cell rules, which name each bad cell.
Numeric CSV is written one formatted line per row.

All generators draw from named substreams of one seed (one substream per
matrix), so adding a new matrix later cannot perturb earlier draws and a
depth-1 deep instance is bit-identical to the single-layer generator.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import tempfile
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    InvalidArgumentError,
    ParseError,
)


@dataclass
class Dataset:
    """Feature matrix X (N x D) and nonnegative target matrix Y (N x T)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise DimensionError("X and Y must be 2-D")
        if self.X.shape[0] != self.Y.shape[0]:
            raise DimensionError(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}")
        if self.X.shape[0] < 1:
            raise EmptyInputError("dataset must contain at least one sample")
        if not (np.isfinite(self.X).all() and np.isfinite(self.Y).all()):
            raise InvalidArgumentError("dataset contains non-finite entries")
        if np.any(self.Y < 0):
            raise InvalidArgumentError("targets must be nonnegative")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def t(self) -> int:
        return self.Y.shape[1]


@dataclass
class PlantedTruth:
    """Ground-truth factors behind a generated dataset.

    ``us[k]`` and ``vs[k]`` are the basis / sketch pair of planted layer k
    (layer 0 maps the raw features; deeper layers map the previous layer's
    output). ``sigma`` holds the per-task noise scales used at every layer.
    """

    us: list[np.ndarray] = field(default_factory=list)
    vs: list[np.ndarray] = field(default_factory=list)
    sigma: np.ndarray = field(default_factory=lambda: np.array([]))


def _is_int(value) -> bool:
    """Whether ``value`` is an integer (a bool is not). numpy rejects a
    fractional seed, size or count with a bare ValueError or TypeError."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; numpy reads True and "1" as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_seed(seed: int):
    if not (_is_int(seed) and seed >= 0):
        raise InvalidArgumentError(f"seed must be a nonnegative integer, got {seed}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Named substream of ``seed``; distinct keys never share state."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _sub_seed(seed: int, *key: int) -> int:
    """An integer seed derived from ``seed`` and ``key``; distinct keys give
    unrelated seeds."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key)
               .generate_state(1, dtype=np.uint64)[0])


def _check_rank(r: int, t: int, d: int):
    if not (_is_int(r) and 1 <= r <= min(t, d)):
        raise InvalidArgumentError(
            f"rank must be an integer with 1 <= r <= min(t={t}, d={d}), got {r!r}")


def _check_sizes(n, d, t, r, depth):
    for name, val in (("n", n), ("d", d), ("t", t), ("depth", depth)):
        if not (_is_int(val) and val >= 1):
            raise InvalidArgumentError(f"{name} must be a positive integer, got {val!r}")
    _check_rank(r, t, d)


def _generate(n, d, t, r, sigma_row, depth, seed):
    x = _stream(seed, 0).standard_normal((n, d))
    truth = PlantedTruth(sigma=np.array(sigma_row, dtype=np.float64))
    h = x
    for k in range(1, depth + 1):
        d_in = d if k == 1 else t
        u = _stream(seed, 1, k).standard_normal((t, r))
        v = _stream(seed, 2, k).standard_normal((r, d_in))
        eps = _stream(seed, 3, k).standard_normal((n, t)) * sigma_row
        h = np.maximum(h @ v.T @ u.T + eps, 0.0)
        truth.us.append(u)
        truth.vs.append(v)
    return Dataset(X=x, Y=h), truth


def gen_single_layer(n: int, d: int, t: int, r: int, sigma: float,
                     seed: int) -> tuple[Dataset, PlantedTruth]:
    """Plant ``Y = ReLU(X V' U' + E)`` with i.i.d. standard Gaussian factors.

    ``sigma`` is the shared noise scale of E. Deterministic per seed; this
    is `gen_deep` at depth 1.
    """
    return gen_deep(n, d, t, r, sigma, 1, seed)


def gen_deep(n: int, d: int, t: int, r: int, sigma: float, depth: int,
             seed: int) -> tuple[Dataset, PlantedTruth]:
    """Compose the single-layer generator ``depth`` times.

    Each planted layer feeds its ReLU output straight into the next (no skip
    concatenation in generation); the first layer consumes D features, later
    layers consume the T outputs of the previous one.
    """
    _check_sizes(n, d, t, r, depth)
    if not (_is_real(sigma) and 0 <= sigma < math.inf):
        raise InvalidArgumentError(f"sigma must be nonnegative and finite, got {sigma!r}")
    sigma_row = np.full(t, float(sigma))
    return _generate(n, d, t, r, sigma_row, depth, seed)


def gen_heteroscedastic(n: int, d: int, t: int, r: int, sigma_set,
                        seed: int) -> tuple[Dataset, PlantedTruth]:
    """Single-layer plant with per-task noise scales drawn from ``sigma_set``.

    With a singleton set this is bit-identical to `gen_single_layer`.
    """
    _check_sizes(n, d, t, r, 1)
    entries = sigma_set.tolist() if isinstance(sigma_set, np.ndarray) else sigma_set
    if not (isinstance(entries, (list, tuple)) and all(map(_is_real, entries))):
        raise InvalidArgumentError(f"sigma_set must list real numbers, got {sigma_set!r}")
    sigma_set = np.asarray(entries, dtype=np.float64)
    if sigma_set.size == 0:
        raise EmptyInputError("sigma_set must be nonempty")
    if not np.all((sigma_set > 0) & (sigma_set < math.inf)):
        raise InvalidArgumentError(
            f"sigma_set entries must be positive and finite, got {sigma_set.tolist()}")
    sigma_row = _stream(seed, 4).choice(sigma_set, size=t)
    return _generate(n, d, t, r, sigma_row, 1, seed)


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle then partition; train gets ``floor(fraction * N)`` rows.

    The returned datasets keep the shuffled row order, so streaming over the
    training split already consumes samples in seeded random order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidArgumentError(
            f"train_fraction must lie in (0, 1), got {train_fraction}")
    n_train = int(math.floor(train_fraction * data.n))
    if n_train < 1:
        raise InvalidArgumentError(
            f"train_fraction {train_fraction} leaves an empty training set")
    _check_seed(seed)
    perm = np.random.default_rng(seed).permutation(data.n)
    train = Dataset(X=data.X[perm[:n_train]], Y=data.Y[perm[:n_train]])
    valid = Dataset(X=data.X[perm[n_train:]], Y=data.Y[perm[n_train:]])
    return train, valid


def _csv_records(path):
    """The records of a UTF-8 CSV file, read one at a time: each a list of
    strings with the number of the physical line it starts on (a quoted
    cell may span lines)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for record in reader:
                yield line, record
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def _cell_values(raw, where: str, nonnegative: bool):
    """The cell rules, for one record of a file that is not plain (see
    `parse_numeric_csv`): ``(values, None)``, or ``(None, problem)`` naming
    the record's first bad cell. ``where`` is its ``path:line``."""
    values = []
    for col, tok in enumerate(raw, start=1):
        tok = tok.strip()
        if tok == "":
            return None, f"{where}:{col}: missing cell"
        try:
            # float() also takes digit grouping and non-ASCII digits
            if "_" in tok or not tok.isascii():
                raise ValueError(tok)
            val = float(tok)
        except ValueError:
            return None, f"{where}:{col}: non-numeric cell {tok!r}"
        if not math.isfinite(val):
            return None, f"{where}:{col}: non-finite cell {tok!r}"
        if nonnegative and val < 0:
            return None, f"{where}:{col}: negative target {tok!r}"
        values.append(val)
    return values, None


# the bytes a data line of a plain file holds, besides the "\r" of a "\r\n"
_PLAIN_BYTES = b"0123456789+-.eE,\n"


def _plain_table(path, nonnegative: bool):
    """``(header, matrix)`` of a plain file whose every value passes the
    cell rules; None for any other file.

    A file is plain when its header is one UTF-8 line with no ``"`` or
    ``\\r`` in it, and every later line is made of `_PLAIN_BYTES`, ends in
    ``\\n``, ``\\r\\n`` or the end of the file, is not blank, and holds at
    most `csv.field_size_limit()` bytes. `csv.reader` and `np.loadtxt` split
    such a file into the same cells. It is checked in blocks of about 64 KiB,
    then read by `np.loadtxt` in one call; numpy converts each number with
    the routine behind ``float``, so the values are those of the cell rules.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        first = fh.readline(limit + 1)
        names = first[:-2] if first.endswith(b"\r\n") else first.removesuffix(b"\n")
        if not names or len(first) > limit or b'"' in names or b"\r" in names:
            return None
        try:
            header = names.decode("utf-8").split(",")
        except UnicodeDecodeError:
            return None
        rows = 0
        while lines := fh.readlines(1 << 16):
            crlf = sum(line.endswith(b"\r\n") for line in lines)
            if (b"".join(lines).translate(None, _PLAIN_BYTES) != b"\r" * crlf
                    or b"\n" in lines or b"\r\n" in lines
                    or max(map(len, lines)) > limit):
                return None
            rows += len(lines)
    if not rows:
        return None
    try:
        # an open handle, not a path: numpy's path opener loads gzip; and
        # max_rows, so numpy allocates the matrix once instead of growing it
        with open(path, encoding="utf-8") as fh:
            matrix = np.loadtxt(fh, dtype=np.float64, delimiter=",", skiprows=1,
                                comments=None, ndmin=2, max_rows=rows)
    except ValueError:
        return None
    if (matrix.shape != (rows, len(header)) or not np.isfinite(matrix).all()
            or (nonnegative and (matrix < 0).any())):
        return None
    return header, matrix


def parse_numeric_csv(path, *, nonnegative: bool = False):
    """Read one strict CSV: header row, every cell a finite plain ASCII
    decimal number (no ``_`` digit grouping).

    Returns ``(header, matrix)``; any malformed cell rejects the whole file
    with its location, and a file that is not UTF-8 text, or whose header
    row is empty, is rejected too.

    A plain file (see `_plain_table`) whose values all pass is read by
    numpy in one call. Every other file is walked a record at a time, and
    `_cell_values` applies the rules to each cell of each record: it names
    every bad record's first bad cell, and accepts the forms a plain file
    cannot hold, such as quoted cells, lone ``\\r`` line ends, and cells
    that only ``str.strip`` clears (``" 1"``, a trailing ``\\x1f``).
    """
    plain = _plain_table(path, nonnegative)
    if plain is not None:
        return plain
    problems = []
    flat = array("d")
    records = _csv_records(path)
    _, header = next(records, (1, None))
    if header is None:
        raise ParseError(f"{path}: file is empty (header row required)")
    width = len(header)
    if width == 0:
        raise ParseError(f"{path}:1: header row has no columns")
    for line_no, raw in records:
        if len(raw) != width:
            problems.append(f"{path}:{line_no}: expected {width} cells, got {len(raw)}")
            continue
        row, problem = _cell_values(raw, f"{path}:{line_no}", nonnegative)
        if problem is None:
            flat.extend(row)
        else:
            problems.append(problem)
    if problems:
        raise ParseError("rejected rows:\n" + "\n".join(problems))
    if not flat:
        raise ParseError(f"{path}: no data rows")
    return header, np.frombuffer(flat, dtype=np.float64).reshape(-1, width)


def load_csv(features_path, targets_path) -> Dataset:
    """Load a feature table and a target table into one Dataset.

    Both files are comma-separated UTF-8 with a header row and plain decimal
    numbers. Any missing, non-numeric, or non-finite cell, and any negative
    target, rejects the load with the exact file/line/column; nothing is
    imputed. A header sets its file's width; its names are not kept.
    """
    _, x = parse_numeric_csv(features_path)
    _, y = parse_numeric_csv(targets_path, nonnegative=True)
    if x.shape[0] != y.shape[0]:
        raise ParseError(
            f"row-count mismatch: {features_path} has {x.shape[0]} data rows, "
            f"{targets_path} has {y.shape[0]}")
    return Dataset(X=x, Y=y)


def _write_table(path, header, matrix):
    """Write ``header`` and the rows of ``matrix`` as CSV, each value with 17
    significant digits. The bytes are those of `csv.writer` over
    ``f"{v:.17g}"`` cells; each data row is one ``%`` format."""
    line = ",".join(["%.17g"] * matrix.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % tuple(row.tolist()) for row in matrix)


def _atomic_write(path, blob: bytes):
    """Write ``blob`` to ``path`` through a temp file in the same directory
    and a rename, so ``path`` holds either its old content or all of
    ``blob``. The file gets the mode ``open(path, "w")`` would give it under
    the current umask; on any failure the temp file is removed."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_csv(data: Dataset, features_path, targets_path):
    """Write a Dataset as the CSV pair `load_csv` reads.

    Headers are ``x<j>`` and ``y<j>``; values have 17 significant digits,
    so a round trip reproduces the float64 matrices exactly.
    """
    _write_table(features_path, [f"x{j}" for j in range(data.d)], data.X)
    _write_table(targets_path, [f"y{j}" for j in range(data.t)], data.Y)
