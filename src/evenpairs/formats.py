"""Text formats: the trigraph line format and graph6.

Trigraph text format (bit-exact round trips after canonical ordering):

    trigraph <n>
    <u> <v> E        # strongly adjacent pair
    <u> <v> S        # switchable pair

Unlisted pairs are strongly antiadjacent.  Lines starting with '#' and blank
lines are ignored.  The serializer writes pairs with u < v in lexicographic
order, so parse -> serialize is the identity on canonically ordered files.

graph6 is the usual printable encoding of a simple graph's upper triangle;
decoding accepts an optional '>>graph6<<' header.
"""

from __future__ import annotations

import os

from .errors import InputError
from .trigraph import (STRONG, SWITCHABLE, Trigraph, _check_vertex_count,
                       bits_of, make_trigraph)

_G6_HEADER = ">>graph6<<"
# each printable graph6 character to its six bits, first bit highest
_G6_BITS = {63 + d: format(d, "06b") for d in range(64)}


def to_text(T: Trigraph) -> str:
    """The trigraph line format, pairs u < v in lexicographic order: each
    row's adjacent partners above u, read off its masks."""
    lines = [f"trigraph {T.n}"]
    for u, (partners, strong) in enumerate(zip(T.adj, T.strong)):
        above = -(2 << u)
        for v in bits_of(partners & above):
            lines.append(f"{u} {v} E" if strong >> v & 1 else f"{u} {v} S")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Trigraph:
    n = None
    entries: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "trigraph":
                raise InputError(f"line {lineno}: expected header 'trigraph <n>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected '<u> <v> <E|S>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: bad vertex in {line!r}") from None
        if parts[2] == "E":
            code = STRONG
        elif parts[2] == "S":
            code = SWITCHABLE
        else:
            raise InputError(f"line {lineno}: pair code must be E or S, got {parts[2]!r}")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InputError(f"line {lineno}: pair ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"line {lineno}: duplicate pair ({key[0]}, {key[1]})")
        seen.add(key)
        entries.append((u, v, code))
    if n is None:
        raise InputError("missing 'trigraph <n>' header")
    return make_trigraph(n, entries)


def to_graph6(G: Trigraph) -> str:
    """Encode a graph in the layout ``from_graph6`` reads: bit k of one
    integer is the k-th pair of the upper triangle, column v holding the
    neighbors u < v of v, read off the strong masks; the padded bits then
    go out six to a character, first bit highest."""
    if not G.is_graph:
        raise InputError("graph6 can only encode graphs (no switchable pairs)")
    n = G.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise InputError("graph6 vertex count out of supported range")
    bits = 0
    for v in range(n - 1, 0, -1):
        bits = bits << v | G.strong[v] & ((1 << v) - 1)
    width = (n * (n - 1) // 2 + 5) // 6 * 6
    row = bin(bits | 1 << width)[3:][::-1]  # bit k at index k
    return prefix + "".join(chr(int(row[k:k + 6], 2) + 63)
                            for k in range(0, width, 6))


def from_graph6(text: str) -> Trigraph:
    """Decode graph6 straight into strong masks.

    One ``str.translate`` turns the characters into their six bits each,
    and the payload becomes one integer whose bit k is the k-th pair of the
    upper triangle, column by column, so column v is the mask of the
    neighbors u < v of v; no edge list is built, and ``Trigraph`` checks
    the masks.  Errors come in a fixed order: the string, its length,
    nonzero padding bits, then the vertex cap (``_check_vertex_count``).
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise InputError("empty graph6 string")
    # a character outside the printable range keeps its one character
    row = s.translate(_G6_BITS)
    if len(row) != 6 * len(s):
        raise InputError("graph6 string has characters outside the printable range")
    if s[0] == "~":
        if len(s) < 4:
            raise InputError("truncated graph6 vertex count")
        if s[1] == "~":
            raise InputError("graph6 vertex count out of supported range")
        n = int(row[6:24], 2)
        body = row[24:]
    else:
        n = ord(s[0]) - 63
        body = row[6:]
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != 6 * need:
        raise InputError(
            f"graph6 length mismatch: n={n} needs {need} payload bytes, got {len(body) // 6}")
    bits = int(body[::-1] or "0", 2)
    if bits >> pairs:
        raise InputError("graph6 padding bits must be zero")
    _check_vertex_count(n)
    strong = [0] * n
    k = 0
    for v in range(1, n):
        column = bits >> k & ((1 << v) - 1)
        k += v
        strong[v] |= column
        while column:
            low = column & -column
            strong[low.bit_length() - 1] |= 1 << v
            column ^= low
    return Trigraph(strong, [0] * n)


def loads(text: str, fmt: str | None = None) -> Trigraph:
    """Parse trigraph text or graph6; sniffs the format when fmt is None."""
    if fmt == "trigraph":
        return from_text(text)
    if fmt == "graph6":
        return from_graph6(text)
    if fmt is not None:
        raise InputError(f"unknown format {fmt!r}")
    stripped = text.lstrip()
    if stripped.startswith("trigraph") or stripped.startswith("#"):
        return from_text(text)
    return from_graph6(text)


def load(path_or_literal: str, fmt: str | None = None) -> Trigraph:
    """Read a trigraph from a file path, or treat the string as a literal."""
    if os.path.exists(path_or_literal):
        with open(path_or_literal, "r", encoding="ascii") as fh:
            return loads(fh.read(), fmt)
    return loads(path_or_literal, fmt)
