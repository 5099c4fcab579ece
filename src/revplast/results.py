"""Result serialization: macro/per-phase CSV series and plot-data extracts.

Components are written as plain tensor components (the Mandel shear scaling is
removed), in full double precision and fixed column order.  Every number,
integer columns included, is written by one block formatter, ``format_rows``,
whose bytes are exactly those of ``b"%.17g" % x`` for each value (an integer
below 2**53 reads as with ``%d``).  The writers hand it blocks of at most
``_BLOCK_VALUES`` values (the per-phase writer whole states, at least one),
so their memory does not grow with the length of the run, and it formats
each block with array operations:

1. the decimal exponent ``k`` comes from ``log10``, corrected once so that the
   17-digit integer ``D = round(|x| 10**(16 - k))`` lies in [10**16, 10**17);
2. Dekker's exact product (Veltkamp split, no FMA) writes ``|x| 10**(16 - k)``
   as ``p + r``, ``p`` an integer-valued double: exactly when ``10**(16 - k)``
   is a double (``16 - k <= 22``), and to about 1e-14 in ``r`` up to
   ``16 - k = 44`` through a two-double power of ten;
3. ``D`` is ``p`` plus ``r`` rounded half to even, which is the correctly
   rounded 17-digit result (Gay, 1990); its digits come from int32 divisions by
   scalars and a table of two-digit strings;
4. the values are sorted by exponent, each exponent group lays its digits out
   in fixed 25-byte fields, and one boolean mask per block drops the sign of
   positive values, the trailing zeros that ``%g`` strips and the padding.

Zeros are written as ``0`` or ``-0`` by the same layout.  Values outside
[1e-28, 1e17), non-finite values and the rare ones the sum cannot settle (an
inexact remainder within 1e-9 of a half, or a ``D`` of 10**16 from a value
below 10**k) are formatted one at a time by ``%``.  ``revplast check`` compares
the formatter with ``%`` on the running platform, since its exactness rests on
IEEE double arithmetic.

Each block's rows are written with one ``write`` into a temporary file beside
the destination, which is then renamed over it.  So repeated runs with the
same input produce byte-identical files, a failed write leaves no partial
file, and the files' permissions follow the umask.
"""
from __future__ import annotations

import os

import numpy as np

from .solver import REVState
from .tensors import COMPONENT_LABELS, MANDEL_SCALE

_UNSCALE = np.tile(1.0 / MANDEL_SCALE, 3)
_UNSCALE.setflags(write=False)

_BLOCK_VALUES = 1 << 14  # values formatted at once; bounds the writers' memory
_FIELD = 25              # bytes per value: the 24 of the longest %.17g, a separator
_EXP_AT = _FIELD - 5     # where "e-XX" stands in an exponent-form field
_LOW, _HIGH = 1e-28, 1e17  # the range the array path formats
_WINDOW = 1e-9           # an inexact remainder this close to a half is left to %
_ZERO, _SCALAR = 17, 18  # group keys of zeros and of values left to %; exponents sort first

# 10**j = _TEN[j] + _TEN_TAIL[j] to about 2**-106 relative, exactly (tail 0) for j <= 22
_TEN = np.array([float(10**j) for j in range(45)])
_TEN_TAIL = np.array([float(10**j - int(float(10**j))) for j in range(45)])
_SLACK = np.where(_TEN_TAIL == 0.0, 0.0, _WINDOW)  # how far from a half a remainder must be


def _split(a):
    """Veltkamp's split: ``a = hi + lo`` with halves of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)
# _KEEP[(start * 2 + exponent_form) * (_FIELD + 1) + cut]: the bytes kept of a field,
# from ``start`` (0 keeps the sign) to ``cut``, then the suffix and separator
_KEEP = ((np.arange(_FIELD) >= np.arange(2)[:, None, None, None])
         & ((np.arange(_FIELD) < np.arange(_FIELD + 1)[:, None])
            | (np.arange(_FIELD) >= np.array([_FIELD - 1, _EXP_AT])[:, None, None])))
_KEEP = _KEEP.reshape(-1, _FIELD).view(f"V{_FIELD}").ravel()
_PAIRS = np.array([b"%02d" % i for i in range(100)]).view(np.uint16)  # two ASCII digits


def _decimal(a):
    """``(k, D, exact)`` with ``D = round(a 10**(16 - k))`` half to even in [10**16,
    10**17) for doubles ``a`` in [1e-28, 1e17); ``exact`` is False where the sum of
    doubles for ``a 10**(16 - k)`` cannot settle ``D`` or ``k``."""
    j = np.minimum(np.maximum(16 - np.floor(np.log10(a)).astype(np.int64), 0), 44)
    p = a * _TEN.take(j)
    k = 16 - j + (p >= 1e17) - (p < 1e16)
    j = np.minimum(np.maximum(16 - k, 0), 44)
    # Dekker's product: p = fl(a 10**j) and its exact error e; then a 10**j = p + r
    ten, ten_hi, ten_lo = _TEN.take(j), _TEN_HI.take(j), _TEN_LO.take(j)
    a_hi, a_lo = _split(a)
    p = a * ten
    e = a_lo * ten_lo - (((p - a_hi * ten_hi) - a_lo * ten_hi) - a_hi * ten_lo)
    r = e + a * _TEN_TAIL.take(j)
    whole = p.astype(np.int64)  # p >= 2**53 is an integer
    floor = np.floor(r)
    half = r - (floor + 0.5)
    below = whole + floor.astype(np.int64)
    d = below + ((half > 0) | (half == 0) & (below & 1 == 1))
    slack = _SLACK.take(j)
    exact = (np.abs(half) >= slack) & (k == 16 - j)
    # D = 10**16 also rounds values just below 10**k, whose exponent is k - 1
    exact &= (d != 10**16) | ((whole - 10**16) + r >= slack)
    exact &= (d >= 10**16) & (d < 10**17)
    return k, d, exact


def _digits(d):
    """The 17 ASCII digits of integers ``d`` in [10**16, 10**17) as an (n, 17) array,
    and how many are left once trailing zeros are stripped."""
    lead = d // 10**16
    rest = d - lead * 10**16
    high = (rest // 10**8).astype(np.int32)
    low = (rest - high * np.int64(10**8)).astype(np.int32)
    pairs = np.empty((len(d), 8), np.int32)
    for col, part in ((0, high), (4, low)):
        top = part // 10000
        bottom = part - top * 10000
        pairs[:, col] = top // 100
        pairs[:, col + 1] = top - pairs[:, col] * 100
        pairs[:, col + 2] = bottom // 100
        pairs[:, col + 3] = bottom - pairs[:, col + 2] * 100
    out = np.empty((len(d), 17), np.uint8)
    out[:, 0] = lead + 48
    out[:, 1:] = _PAIRS.take(pairs).view(np.uint8)
    last = np.where(low == 0, high, low)  # the last non-zero group of eight digits
    zeros = np.where(low == 0, 8, 0)
    for size in (4, 2, 1):
        divisible = last % 10**size == 0
        last = np.where(divisible, last // 10**size, last)
        zeros += divisible * size
    return out, np.where(rest == 0, 1, 17 - zeros)


def _fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.17g`` fields of a (rows, cols) float64 block, each followed by ',' and
    the last of a row by '\\n', as (rows, cols * _FIELD) bytes and a mask of those kept."""
    rows, cols = values.shape
    v = values.ravel()
    a = np.abs(v)
    key = np.where(a == 0.0, _ZERO, _SCALAR).astype(np.int8)
    normal = np.flatnonzero((a >= _LOW) & (a < _HIGH))
    k, d, exact = _decimal(a[normal])
    key[normal] = np.where(exact, k, _SCALAR)
    decimal = np.empty(len(v), np.int64)
    decimal[normal] = d
    order = np.argsort(key, kind="stable")
    group = key[order]
    digits, kept = _digits(decimal[order[:np.searchsorted(group, _ZERO)]])
    bounds = np.searchsorted(group, np.arange(-4, _SCALAR + 2)).tolist()

    # laid out in sorted order: the exponent forms first, then one group per exponent
    chars = np.empty((len(v), _FIELD), np.uint8)
    chars[:, 0] = 45  # '-', dropped by the mask where the value is positive
    cut = np.empty(len(v), np.int16)
    n_exp = bounds[0]
    if n_exp:
        out, dig, g = chars[:n_exp], digits[:n_exp], -group[:n_exp]
        out[:, 1] = dig[:, 0]  # d.ddde-XX
        out[:, 2] = 46
        out[:, 3:19] = dig[:, 1:]
        out[:, _EXP_AT:_EXP_AT + 2] = np.frombuffer(b"e-", np.uint8)
        out[:, _EXP_AT + 2] = g // 10 + 48
        out[:, _EXP_AT + 3] = g % 10 + 48
        cut[:n_exp] = np.where(kept[:n_exp] > 1, kept[:n_exp] + 2, 2) + (_FIELD + 1)
    for g, s, t in zip(range(-4, _SCALAR + 1), bounds, bounds[1:]):
        if s == t:
            continue
        out = chars[s:t]
        if g < 0:  # 0.000ddd
            lead = 1 - g
            out[:, 1:1 + lead] = np.frombuffer(b"0." + b"0" * (lead - 2), np.uint8)
            out[:, 1 + lead:18 + lead] = digits[s:t]
            cut[s:t] = 1 + lead + kept[s:t]
        elif g <= 16:  # ddd.ddd
            dig = digits[s:t]
            out[:, 1:g + 2] = dig[:, :g + 1]
            out[:, g + 2] = 46
            out[:, g + 3:19] = dig[:, g + 1:]
            cut[s:t] = np.where(kept[s:t] > g + 1, kept[s:t] + 2, g + 2)
        elif g == _ZERO:
            out[:, 1] = 48
            cut[s:t] = 2
        else:  # left to %, sign included
            for i, x in enumerate(v[order[s:t]].tolist()):
                text = b"%.17g" % x
                out[i, :len(text)] = np.frombuffer(text, np.uint8)
                cut[s + i] = len(text)

    field = np.empty(len(v), f"V{_FIELD}")
    field[order] = chars.view(f"V{_FIELD}").ravel()
    code = np.empty(len(v), np.int16)
    code[order] = cut
    code += (~np.signbit(v) & (key != _SCALAR)) * np.int16(2 * (_FIELD + 1))
    chars = field.view(np.uint8).reshape(rows, cols, _FIELD)
    chars[:, :, -1] = 44  # ','
    chars[:, -1, -1] = 10  # '\n'
    return (chars.reshape(rows, cols * _FIELD),
            _KEEP.take(code).view(bool).reshape(rows, cols * _FIELD))


def format_rows(values: np.ndarray) -> bytes:
    """Rows of a (rows, cols) float64 array as CSV lines of ``%.17g`` fields."""
    chars, keep = _fields(np.asarray(values, dtype=np.float64))
    return chars[keep].tobytes()


def _write_table(path: str, header: list[str], blocks) -> None:
    """Write the ``header`` line, then each block of row bytes, atomically.

    An ``OSError`` names ``path`` (never the temporary file), which is removed.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_{os.urandom(6).hex()}_{name}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.write((",".join(header) + "\n").encode("utf-8"))
                for block in blocks:
                    handle.write(block)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _spans(n_rows: int, cols: int):
    """Row ranges ``(lo, hi)`` of at most ``_BLOCK_VALUES`` values of ``cols`` each."""
    step = max(1, _BLOCK_VALUES // cols)
    return ((lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step))


def _header(*prefixes: str) -> list[str]:
    return [f"{prefix}_{c}" for prefix in prefixes for c in COMPONENT_LABELS]


def write_macro_csv(states: list[REVState], path: str) -> None:
    """Macroscopic series: step, strain, stress, plastic strain, active count."""
    def blocks():
        for lo, hi in _spans(len(states), 20):
            values = np.empty((hi - lo, 20))
            for row, st in zip(values, states[lo:hi]):
                row[0] = st.step
                row[1:7] = st.macro_strain
                row[7:13] = st.macro_stress
                row[13:19] = st.macro_plastic
                row[19] = np.count_nonzero(st.multipliers > 0.0)
            values[:, 1:19] *= _UNSCALE
            yield format_rows(values)
    _write_table(path, ["step"] + _header("eps", "sig", "epsp") + ["n_active"], blocks())


def write_phase_csv(states: list[REVState], phase_names: list[str], path: str) -> None:
    """Per-phase series in long format: one row per (step, phase).

    Every state must hold one phase per name, and a name holding a comma, a
    double quote or a line break would break its row (names are written
    unquoted); either is refused with ValueError before any file is created.
    """
    n = len(phase_names)
    for st in states:
        if len(st.multipliers) != n:
            raise ValueError(f"{n} phase names for {len(st.multipliers)} phases "
                             f"(state at step {st.step})")
    for name in phase_names:
        if any(c in name for c in ',"\n\r'):
            raise ValueError(f"phase name {name!r} would break the CSV row: "
                             "it holds a comma, a double quote or a line break")
    encoded = [name.encode("utf-8") + b"," for name in phase_names]
    width = max(map(len, encoded), default=1)
    names = np.zeros((n, width), np.uint8)
    for row, text in zip(names, encoded):
        row[:len(text)] = np.frombuffer(text, np.uint8)
    name_keep = np.arange(width) < np.array([len(text) for text in encoded])[:, None]

    def blocks():
        for lo, hi in _spans(len(states), 20 * max(n, 1)):  # n = 0: the header alone
            values = np.empty((hi - lo, n, 20))
            for rows, st in zip(values, states[lo:hi]):
                rows[:, 0] = st.step
                rows[:, 1:7] = st.strain
                rows[:, 7:13] = st.plastic_strain
                rows[:, 13:19] = st.stress
                rows[:, 19] = st.multipliers > 0.0
            values[:, :, 1:19] *= _UNSCALE
            chars, keep = _fields(values.reshape(-1, 20))
            phase = np.tile(np.arange(n), hi - lo)
            split = _FIELD  # after the step field
            yield np.hstack((chars[:, :split], names[phase], chars[:, split:]))[
                np.hstack((keep[:, :split], name_keep[phase], keep[:, split:]))].tobytes()
    _write_table(path, ["step", "phase"] + _header("eps", "epsp", "sig") + ["active"],
                 blocks())


def plot_paths(prefix: str) -> list[str]:
    """The files ``write_plot_data`` writes for ``prefix``."""
    return [f"{prefix}_axial.csv", f"{prefix}_lateral.csv"]


def write_plot_data(states: list[REVState], prefix: str) -> list[str]:
    """Two-column extracts: |axial stress| against axial and lateral strain."""
    def blocks(i):
        for lo, hi in _spans(len(states), 2):
            yield format_rows([(st.macro_strain[i], abs(st.macro_stress[2]))
                               for st in states[lo:hi]])
    paths = plot_paths(prefix)
    for path, i in zip(paths, (2, 0)):
        _write_table(path, [f"eps_{COMPONENT_LABELS[i]}", "abs_sig_33"], blocks(i))
    return paths
