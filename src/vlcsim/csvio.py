"""The one CSV format of every vlcsim output table.

Fields are joined by ',' without quoting and rows end in '\\n'. Floats,
NumPy's included, are written as repr(float(x)), the shortest text that
reads back as the same double; None is an empty field; anything else goes
through str(). Tables are given as consecutive blocks of columns
(write_blocks) or as rows (write_rows); either way the text is built
piecewise and streamed to the file.

Column tables are formatted _CHUNK_ROWS rows at a time, whole columns at
once. The shortest digits of a float column's finite nonzero doubles come
from the Schubfach algorithm (R. Giulietti, "The Schubfach way to render
doubles", 2020) in uint64 arithmetic, +-0.0, inf and nan take fixed text,
and every field is laid out by repr's rules; a float column whose
bits equal an earlier column's in the chunk reuses its text, and an index
range is written as str writes it. Each chunk's fields are placed in
fixed-width slots of one uint8 buffer padded with NUL bytes, which are then
deleted. write_rows formats field by field with repr; tests/test_csvio.py
checks the column path against a row-by-row repr reference of its own.
"""

import functools
import os

import numpy as np

# rows formatted and written per write call by write_blocks. A
# three-column chunk's text takes about 50 bytes a row and each scratch array
# 8. Against 2048 rows, 4096 ran waveform-demo (1000 N = 64 symbols) about 5%
# faster and raised its peak RSS from 39.07 to 39.69 MB (median of 12 runs
# each, 2-core Xeon, Python 3.11.7, NumPy 2.4.6)
_CHUNK_ROWS = 4096

# the one float format: float.__repr__ is repr(float(x)) for a float x
_float_text = float.__repr__


def _field(value) -> str:
    if value is None:
        return ""
    return _float_text(float(value)) if isinstance(value, (float, np.floating)) else str(value)


# Shortest digits by Schubfach, over uint64 arrays. A finite nonzero double
# is c * 2**q. Its rounding interval, scaled by 10**-k, is evaluated at four
# times c: cb = 4c and the ends cbl, cbr. Each value cx * 2**q * 10**-k is
# rounded to odd (floor, with the last bit set if anything was cut) from the
# exact product of cx * 2**h with g, a 126-bit integer just above
# 10**-k * 2**(125 - floor(log2 10**-k)). The digits are the one multiple of
# 10**(k+1) inside the interval, if there is one, else the multiple of 10**k
# nearest the value, ties to even.

_K_MIN, _K_MAX = -324, 292  # floor(log10(2**q)) over every finite double
_POWERS = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2 ** 63 - 1)
_HIDDEN = np.uint64(2 ** 52)


@functools.cache
def _tables():
    """g's low and high words for each k, and k and h per exponent.

    Built on the first formatted chunk, not at import. g comes from Python
    ints; k = floor(log10(2**q)) (floor(log10(3 * 2**(q-2))) for the closer
    lower end) and floor(log2(10**-k)) come from Schubfach's multiply-shift
    forms, exact over every finite double. Rows of k and h are indexed by
    the biased exponent, plus 2048 when the lower end of the rounding
    interval is the closer one (c = 2**52, q > -1074).
    """
    g_words = np.empty((2, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        p = 10 ** abs(k)
        beta = p.bit_length() - 1 if k <= 0 else -p.bit_length()  # floor(log2(10**-k))
        g = (p << 125 >> beta if k <= 0 else (1 << 125 - beta) // p) + 1
        g_words[:, i] = g & 2 ** 64 - 1, g >> 64
    # int64 products stay below 2**50, and >> rounds toward -inf as on Python ints
    closer, biased = np.divmod(np.arange(4096, dtype=np.int64), 2048)
    q = np.maximum(biased, 1) - 1075  # 2047 (inf, nan) gets a row that is never read
    k = (q * 661971961083 - closer * 274743187321) >> 41
    k_row = (k - _K_MIN).astype(np.int16)
    h_row = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint8)
    for table in (g_words, k_row, h_row):
        table.setflags(write=False)
    return g_words, k_row, h_row


def _mul(a, b0, b1):
    """(high, low) 64-bit words of a * b for b = b0 + b1 * 2**32, b0 and b1 < 2**32.

    Written in place on four arrays, so a chunk holds few temporaries.
    """
    a0 = a & _M32
    high = a >> 32
    low = a0 * b0
    mid = high * b0
    high *= b1
    a0 *= b1
    high += mid >> 32
    high += a0 >> 32
    mid &= _M32
    a0 &= _M32
    mid += a0
    mid += low >> 32
    high += mid >> 32
    low &= _M32
    mid <<= 32
    low |= mid
    return high, low


def _round_to_odd(w1, w2):
    """floor(w / 2**127), its last bit set if bits 64..126 of w are not all 0.

    w = g * cx * 2**h exceeds the exact scaled value by less than 2**60, and
    a value that is not an integer leaves far more than 2**64 below the cut,
    so the bits under 2**64 decide nothing; w1 and w2 are w's words 1 and 2.
    """
    odd = (w1 & _M63) != 0
    w1 >>= 63
    w1 |= w2 << 1
    w1 |= odd
    return w1


def _end(g_lo, g_hi, shift, w1, w2, w0_carry, add):
    """Words 1 and 2 of w + (g << shift) if add, else of w - (g << shift).

    2 <= shift <= 6; w0_carry is the carry (or borrow) out of word 0.
    """
    back = 64 - shift
    d1 = g_hi << shift
    d1 |= g_lo >> back
    d2 = g_hi >> back
    if add:
        r1 = w1 + d1
        d2 += r1 < w1
        r1 += w0_carry
        d2 += r1 < w0_carry
        d2 += w2
        return r1, d2
    r1 = w1 - d1
    d2 += w1 < d1
    d2 += r1 < w0_carry
    r1 -= w0_carry
    return r1, w2 - d2


def _shortest(biased, mantissa):
    """(f, e10): the shortest decimal f * 10**e10 that reads back as each double.

    biased and mantissa are the exponent and fraction fields of finite
    nonzero doubles, as uint64 arrays that it overwrites; among the
    shortest decimals the one nearest the double is taken, ties to even f,
    as repr does.
    """
    g_words, k_row, h_row = _tables()
    closer = (mantissa == 0) & (biased > 1)
    normal = biased != 0
    row = biased.view(np.int64)
    np.add(row, 2048, out=row, where=closer)
    k = k_row.take(row)
    h = h_row.take(row)
    c = np.bitwise_or(mantissa, _HIDDEN, out=mantissa, where=normal)
    odd = (c & 1) == 1  # an odd c excludes the interval's ends
    g_lo, g_hi = g_words.take(k, axis=1)
    # w = g * (4c << h) = w0 + w1 2**64 + w2 2**128
    c <<= h + 2
    b0 = c & _M32
    c >>= 32
    x1, w0 = _mul(g_lo, b0, c)
    # the ends are w + (g << (h + 1)) and w - (g << (h + 1)), or - (g << h) for
    # the closer lower end; word 0 of w only decides their carry and borrow
    h += 1
    upper_carry = (w0 + (g_lo << h)) < w0
    h -= closer
    lower_borrow = w0 < (g_lo << h)
    del w0
    w2, w1 = _mul(g_hi, b0, c)
    del b0, c
    w1 += x1
    w2 += w1 < x1
    del x1
    lower = _end(g_lo, g_hi, h, w1, w2, lower_borrow, False)
    h += closer
    upper = _end(g_lo, g_hi, h, w1, w2, upper_carry, True)
    del g_lo, g_hi, h
    vb = _round_to_odd(w1, w2)
    upper = _round_to_odd(*upper)
    upper -= odd
    lower = _round_to_odd(*lower)
    lower += odd
    s4 = vb & ~np.uint64(3)  # 4s, s = floor(x * 10**-k)
    sp = s4 // 40 * 40  # 4 * the multiple of 10**(k+1) at or below x
    up_in = lower <= sp
    sp += 40
    wp_in = sp <= upper
    short = (s4 >= 40) & (up_in != wp_in)
    u_in = lower <= s4
    w_in = s4 + 4 <= upper
    # neither or both of s and s + 1 are in: the nearer, ties to even
    s4 += 2
    nearer = (vb > s4) | ((vb == s4) & ((vb & 4) != 0))
    s4 >>= 2
    s4 += np.where(u_in != w_in, w_in, nearer)
    sp //= 40
    sp -= up_in
    f = np.where(short, sp, s4)
    k += _K_MIN
    k += short
    return f, k


# Layout by repr's rules. A float field is up to 24 characters, each copied
# from one row of a (30, rows) source array: NUL, fixed characters, the 17
# significant digits (zero-padded) and the 3 exponent digits. Which row feeds
# which character depends only on the sign, the notation class and the digit
# count, so one uint8 table maps that key to the field's sources.

_NUL, _MINUS, _DOT, _ZERO, _E, _PLUS, _N, _A, _I, _F = range(10)
_DIGITS = 10  # rows 10..26: the 17 digits
_EXP = 27  # rows 27..29: hundreds, tens and units of the decimal exponent
_SOURCES = 30
_FIXED_CHARS = b"\0-.0e+naif"
_WIDTH = 24  # "-1.2345678901234567e-308"
_E_MIN, _E_MAX = -324, 308  # the leading digit's exponent, 10**E <= |x|
_ZERO_CLASS, _INF_CLASS, _NAN_CLASS = 24, 25, 26
_CLASSES = 27


def _layout(negative: bool, cls: int, n: int) -> list[int]:
    """Source rows of one field with n significant digits.

    Classes 0..19 are fixed notation with E = cls - 4; 20..23 scientific
    with E >= 16 (two or three exponent digits) and E <= -5 (two or three);
    then 0.0, inf and nan.
    """
    digits = [_DIGITS + i for i in range(17)]
    if cls < 20:
        e = cls - 4
        if e >= 0:  # the integral digits, '.', the rest or one '0'
            body = digits[:e + 1] + [_DOT] + digits[e + 1:max(n, e + 2)]
        else:
            body = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits[:n]
    elif cls < 24:
        body = digits[:1] + ([_DOT] + digits[1:n] if n > 1 else [])
        body += [_E, _PLUS if cls < 22 else _MINUS]
        body += [_EXP + 1, _EXP + 2] if cls in (20, 22) else [_EXP, _EXP + 1, _EXP + 2]
    else:
        body = {_ZERO_CLASS: [_ZERO, _DOT, _ZERO], _INF_CLASS: [_I, _N, _F],
                _NAN_CLASS: [_N, _A, _N]}[cls]
    return ([_MINUS] if negative and cls != _NAN_CLASS else []) + body


@functools.cache
def _layouts():
    """(sources, lengths, exponent classes, exponent digits) of the float layouts."""
    count = 2 * _CLASSES * 17
    sources = bytearray(_WIDTH * count)
    lengths = np.empty(count, dtype=np.uint8)
    for key in range(count):
        field = _layout(key >= _CLASSES * 17, key // 17 % _CLASSES, key % 17 + 1)
        sources[_WIDTH * key:_WIDTH * key + len(field)] = bytes(field)
        lengths[key] = len(field)
    sources = np.frombuffer(sources, dtype=np.uint8).reshape(count, _WIDTH).T.copy()
    e = np.arange(_E_MIN, _E_MAX + 1)
    classes = np.where((e >= -4) & (e < 16), e + 4, 20 + 2 * (e < 0) + (abs(e) >= 100))
    exp_digits = np.stack([abs(e) // 100, abs(e) // 10 % 10, abs(e) % 10]) + ord("0")
    exp_digits = exp_digits.astype(np.uint8)
    tables = sources, lengths, classes, exp_digits
    for table in tables:
        table.setflags(write=False)
    return tables


def _digit_planes(values, count, out):
    """out[j] = the ASCII digit of 10**(count-1-j) in each of values (< 10**count).

    out is a (count, rows) uint8 array; each plane first takes its quotient
    mod 256, whose differences are the digits.
    """
    for plane, power in zip(out, _POWERS[count - 1::-1]):
        np.floor_divide(values, values.dtype.type(power), out=plane, casting="unsafe")
    out[1:] -= out[:-1] * np.uint8(10)
    out += ord("0")


class _Formatter:
    """A table's formatting scratch, made once and reused by every chunk."""

    def __init__(self):
        self.rows = _CHUNK_ROWS
        self.sources = np.zeros((_SOURCES, self.rows), dtype=np.uint8)
        self.sources[:_DIGITS] = np.frombuffer(_FIXED_CHARS, dtype=np.uint8)[:, None]
        self.flat_sources = self.sources.reshape(-1)
        self.gather = np.empty(self.rows, dtype=np.intp)  # flat positions in sources
        self.text = np.empty((0, self.rows), dtype=np.uint8)  # one line per character place

    def _lines(self, first: int, count: int, rows: int):
        """Lines first..first+count-1 of the text, cut to rows; grows the text to hold them."""
        if len(self.text) < first + count:
            text = np.empty((first + count, self.rows), dtype=np.uint8)
            text[:len(self.text)] = self.text
            self.text = text
        return self.text[first:first + count, :rows]

    def chunk(self, columns, start: int, stop: int) -> str:
        """Rows start..stop-1 of the columns as CSV text."""
        rows = stop - start
        floats = []  # (bits, first line, line count) of the chunk's float columns
        line = 0
        for col in columns:
            if isinstance(col, range):
                count = self._index(col[start:stop], line)
            else:
                bits = np.ascontiguousarray(col[start:stop], dtype=np.float64).view(np.uint64)
                same = next((f for f in floats if np.array_equal(f[0], bits)), None)
                if same is None:
                    count = self._floats(bits, line)
                    floats.append((bits, line, count))
                else:  # optical equals current under the default LED, say
                    count = same[2]
                    self._lines(line, count, rows)[:] = self.text[same[1]:same[1] + count, :rows]
            line += count
            self._lines(line, 1, rows)[:] = ord(",")
            line += 1
        self.text[line - 1, :rows] = ord("\n")
        return self.text[:line, :rows].T.tobytes().translate(None, b"\0").decode("ascii")

    def _index(self, values: range, line: int) -> int:
        """Write str of each value from text line line on; returns the lines taken."""
        ends = (abs(values[0]), abs(values[-1]))
        count = len(str(max(ends)))
        negative = values[0] < 0 or values[-1] < 0
        out = self._lines(line, negative + count, len(values))
        magnitude = np.arange(values.start, values.stop, values.step, dtype=np.int64)
        if negative:
            out[0] = np.where(magnitude < 0, ord("-"), 0)
            magnitude = np.abs(magnitude)
        magnitude = magnitude.astype(np.uint32 if max(ends) < 2 ** 32 else np.uint64)
        digits = out[negative:]
        _digit_planes(magnitude, count, digits)
        for plane, power in zip(digits[:-1], _POWERS[count - 1:0:-1]):
            plane[magnitude < power] = 0  # leading zeros
        return negative + count

    def _floats(self, bits, line: int) -> int:
        """Write repr of each double from text line line on; returns the lines taken.

        Only finite nonzero doubles get digits, compacted into the first
        columns of sources; the layouts of +-0.0, inf and nan read only fixed
        characters, which every column holds, so they gather from column 0.
        """
        sources, lengths = _layouts()[:2]
        rows = len(bits)
        top = bits >> 52
        negative = top > 0x7FF
        top &= np.uint64(0x7FF)
        mantissa = bits & np.uint64(2 ** 52 - 1)
        nonfinite = top == 0x7FF
        zero = (top == 0) & (mantissa == 0)
        which = np.flatnonzero(~(zero | nonfinite))
        key = np.empty(rows, dtype=np.intp)
        key[which] = self._digits(top[which], mantissa[which])
        key[zero] = _ZERO_CLASS * 17
        key[nonfinite] = _INF_CLASS * 17
        key[nonfinite & (mantissa != 0)] = _NAN_CLASS * 17
        key[negative] += _CLASSES * 17
        offsets = np.zeros(rows, dtype=np.intp)
        offsets[which] = np.arange(len(which))
        width = int(lengths.take(key).max())
        out = self._lines(line, width, rows)
        gather = self.gather[:rows]
        for j in range(width):
            np.multiply(sources[j].take(key), np.intp(self.rows), out=gather)
            gather += offsets
            self.flat_sources.take(gather, out=out[j], mode="clip")
        return width

    def _digits(self, biased, mantissa):
        """Fill the first len(biased) columns of sources with the digits and exponent of
        finite nonzero doubles; returns each one's unsigned layout key."""
        _, _, classes, exp_digits = _layouts()
        f, e10 = _shortest(biased, mantissa)
        count = np.searchsorted(_POWERS[1:17], f, side="right")  # digits - 1
        f *= _POWERS.take(16 - count)  # the digits left-aligned in 17 places
        count += e10  # the leading digit's exponent
        count -= _E_MIN
        chars = self.sources[:, :len(f)]
        _digit_planes(f, 17, chars[_DIGITS:_EXP])
        chars[_EXP:] = exp_digits.take(count, axis=1)
        key = classes.take(count)
        key *= 17
        key += 16  # 17 digits less the trailing zeros
        key -= np.argmax(chars[_EXP - 1:_DIGITS - 1:-1] != ord("0"), axis=0)
        return key


def _chunks(columns, formatter: _Formatter):
    """The table's rows as text, _CHUNK_ROWS rows per piece."""
    rows = min(map(len, columns), default=0)
    for start in range(0, rows, _CHUNK_ROWS):
        yield formatter.chunk(columns, start, min(start + _CHUNK_ROWS, rows))


def _write(path, header, texts):
    with open(path, "w", newline="") as fh:
        try:
            fh.write(",".join(header) + "\n")
            fh.writelines(texts)
        except BaseException:  # a table that fails part-way leaves no partial file
            fh.close()
            os.remove(path)
            raise


def write_blocks(path, header, blocks):
    """Write the header, then the rows of each block of columns in turn.

    Within a block, row i holds the i-th value of every column. A column is
    an index range of int64 values or a sequence of floats (a NumPy array,
    say); the shortest column sets the block's row count, and a block
    without rows may pass no columns. Rows are formatted and written
    _CHUNK_ROWS at a time. blocks is read once, after the file is opened,
    so a table can be produced block by block while it is written and never
    held whole.
    """
    formatter = _Formatter()
    _write(path, header, (text for columns in blocks for text in _chunks(columns, formatter)))


def write_rows(path, header, rows):
    """Write the header, then one line per row; rows is read once, row by row."""
    _write(path, header, (",".join(map(_field, row)) + "\n" for row in rows))
