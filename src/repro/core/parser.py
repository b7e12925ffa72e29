"""A small text syntax for tgds, queries, and databases.

The syntax mirrors how the paper writes things:

* **Atoms** — ``R(x, y)``; predicates are identifiers starting with an
  uppercase letter, variables start lowercase, constants are integers or
  quoted strings (``'a'`` / ``"a"``).  0-ary atoms are written ``Goal()``
  or just ``Goal``.
* **Tgds** — ``R(x,y), P(y,z) -> T(x,y,w)``; variables appearing only in
  the head (here ``w``) are existentially quantified, matching the paper's
  convention.  Fact tgds use an empty or ``true`` body:
  ``true -> Bit(0)``.
* **CQs** — ``q(x) :- R(x,y), P(y)``; Boolean queries use ``q() :- ...``.
* **UCQs** — disjuncts separated by `` | `` or given on separate lines.
* **Databases** — ``R(a, b). P(b).``; in database context *all* bare
  identifiers are constants.

Lines starting with ``%`` or ``#`` are comments; statements are separated
by newlines or by periods that whitespace or the end of the line follows,
never inside a quoted constant or a comment.
"""

from __future__ import annotations

import re
import string
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .atoms import Atom
from .instance import Instance
from .queries import CQ, UCQ
from .terms import Constant, Term, Variable
from .tgd import TGD


class ParseError(ValueError):
    """Raised on malformed input text."""


#: A token and the whitespace before it.  ``re.split`` over this pattern
#: lists ``[gap, space, token, gap, space, token, ..., gap]``: a gap is
#: text that starts no token, so it is empty unless the text holds an
#: unexpected character (or, last, ends in whitespace).
_TOKEN_RE = re.compile(
    r"(\s*)(->|→|:-|[(),|∨.]|'[^']*'|\"[^\"]*\"|\d+"
    r"|[A-Za-z_][A-Za-z0-9_'@\#]*|[%#][^\n]*)"
)

_IDENT_START = frozenset(string.ascii_letters + "_")
_ARROW = ("->", "→")


def _tokens(parts: List[str]) -> List[str]:
    """The tokens of scanned *parts*, comments dropped; the first
    unexpected character is a ParseError, its offset counted from the
    start of *parts*' text."""
    if any(parts[0::3]):
        offset = 0
        for k, part in enumerate(parts):
            bad = part.lstrip() if k % 3 == 0 else ""
            if bad:
                offset += len(part) - len(bad)
                raise ParseError(
                    f"unexpected character {bad[0]!r} at offset {offset}"
                )
            offset += len(part)
    return [t for t in parts[2::3] if t[0] not in "%#"]


def _cut(parts: List[str], at: List[int]) -> List[List[str]]:
    """Scanned *parts* cut at the tokens at indices *at*, which are dropped;
    each piece keeps the gap-first layout."""
    pieces = []
    start = 0
    for i in at:
        pieces.append(parts[start : i - 1])
        start = i + 1
    pieces.append(parts[start:])
    return pieces


def _trimmed(parts: List[str]) -> Tuple[str, List[str]]:
    """A piece's text, stripped, and its parts with the leading whitespace
    dropped, so offsets count from the first character of the text."""
    text = "".join(parts).strip()
    if parts[0]:
        parts[0] = parts[0].lstrip()
    elif len(parts) > 1:
        parts[1] = ""
    return text, parts


def _ends_statement(parts: List[str], i: int) -> bool:
    """Does whitespace or the end of the text follow the token at *i*?"""
    rest = parts[i + 1] or "".join(parts[i + 2 : i + 4])
    return not rest or rest[0].isspace()


def _statements(lines: Iterable[str]) -> Iterator[Tuple[str, List[str]]]:
    """Split lines into statements ``(text, parts)``: a line's tokens up to
    each period that whitespace or the end of the line follows.  Quoted
    strings and comments are single tokens, so separators inside them
    split nothing, and a comment after a statement's period is no
    statement.  Trailing periods are dropped from the text and the
    parts."""
    for raw_line in lines:
        line = raw_line.strip()
        if not line or line.startswith(("%", "#")):
            continue
        parts = _TOKEN_RE.split(line)
        stops = []
        if "." in line:
            stops = [
                i
                for i in range(2, len(parts), 3)
                if parts[i] == "." and _ends_statement(parts, i)
            ]
        for piece in _cut(parts, stops):
            text, piece = _trimmed(piece)
            text = text.rstrip(".")
            if not text or text.startswith(("%", "#")):
                continue
            while len(piece) > 1 and piece[-2] == "." and not piece[-1]:
                del piece[-3:]
            yield text, piece


def _parse_atom(
    tokens: List[str], i: int, terms: Dict[str, Term], constants_mode: bool
) -> Tuple[Atom, int]:
    """The atom at ``tokens[i]`` and the index after it.

    *terms* maps each term's source text to the term built for it, so a
    document builds each distinct term once.
    """
    try:
        name = tokens[i]
        if name[0] not in _IDENT_START:
            raise ParseError(f"expected ident, got {name!r}")
        i += 1
        args: List[Term] = []
        if i < len(tokens) and tokens[i] == "(":
            i += 1
            if tokens[i] == ")":
                i += 1
            else:
                while True:
                    value = tokens[i]
                    term = terms.get(value)
                    if term is None:
                        first = value[0]
                        if first in _IDENT_START:
                            if constants_mode or first.isupper():
                                term = Constant(value)
                            else:
                                term = Variable(value)
                        elif first.isdecimal():
                            term = Constant(value)
                        elif first in "'\"":
                            term = Constant(value[1:-1])
                        else:
                            raise ParseError(f"expected a term, got {value!r}")
                        terms[value] = term
                    args.append(term)
                    value = tokens[i + 1]
                    i += 2
                    if value == ")":
                        break
                    if value != ",":
                        raise ParseError(f"expected rpar, got {value!r}")
    except IndexError:
        raise ParseError("unexpected end of input") from None
    return Atom(name, tuple(args)), i


def _parse_atoms(
    tokens: List[str], i: int, terms: Dict[str, Term], constants_mode: bool
) -> Tuple[List[Atom], int]:
    """The comma-separated atoms from ``tokens[i]`` and the index after."""
    atom, i = _parse_atom(tokens, i, terms, constants_mode)
    atoms = [atom]
    while i < len(tokens) and tokens[i] == ",":
        atom, i = _parse_atom(tokens, i + 1, terms, constants_mode)
        atoms.append(atom)
    return atoms, i


def _expect(tokens: List[str], i: int, kind: str, spellings: Tuple[str, ...]) -> int:
    if i >= len(tokens):
        raise ParseError("unexpected end of input")
    if tokens[i] not in spellings:
        raise ParseError(f"expected {kind}, got {tokens[i]!r}")
    return i + 1


def _tgd(text: str, tokens: List[str], name: str, terms: Dict[str, Term]) -> TGD:
    body: List[Atom] = []
    i = 0
    if tokens and tokens[0] in ("true", "top"):
        i = 1
    elif tokens and tokens[0] not in _ARROW:
        body, i = _parse_atoms(tokens, 0, terms, False)
    head, i = _parse_atoms(tokens, _expect(tokens, i, "arrow", _ARROW), terms, False)
    if i < len(tokens):
        raise ParseError(f"trailing input after tgd: {text!r}")
    return TGD(tuple(body), tuple(head), name)


def _cq(
    text: str, tokens: List[str], name: Optional[str], terms: Dict[str, Term]
) -> CQ:
    if ":-" in tokens:
        head, i = _parse_atom(tokens, 0, terms, False)
        i = _expect(tokens, i, "entails", (":-",))
        body, i = _parse_atoms(tokens, i, terms, False)
        if i < len(tokens):
            raise ParseError(f"trailing input after CQ: {text!r}")
        return CQ(head.args, tuple(body), name or head.predicate)
    body, i = _parse_atoms(tokens, 0, terms, False)
    if i < len(tokens):
        raise ParseError(f"trailing input after CQ body: {text!r}")
    return CQ((), tuple(body), name or "q")


def _ucq(lines: Iterable[str], name: Optional[str], terms: Dict[str, Term]) -> UCQ:
    disjuncts = []
    for _, parts in _statements(lines):
        pipes = [i for i in range(2, len(parts), 3) if parts[i] in ("|", "∨")]
        for piece in _cut(parts, pipes):
            text, piece = _trimmed(piece)
            if text:
                disjuncts.append(_cq(text, _tokens(piece), None, terms))
    if not disjuncts:
        raise ParseError("empty UCQ")
    return UCQ(tuple(disjuncts), name or disjuncts[0].name)


def _tgds(lines: Iterable[str], terms: Dict[str, Term]) -> List[TGD]:
    return [
        _tgd(text, _tokens(parts), f"r{i}", terms)
        for i, (text, parts) in enumerate(_statements(lines))
    ]


def parse_atom(text: str, constants_mode: bool = False) -> Atom:
    """Parse a single atom."""
    tokens = _tokens(_TOKEN_RE.split(text))
    a, i = _parse_atom(tokens, 0, {}, constants_mode)
    if i < len(tokens):
        raise ParseError(f"trailing input after atom: {text!r}")
    return a


def parse_tgd(text: str, name: str = "") -> TGD:
    """Parse a single tgd ``body -> head`` (``true ->`` for fact tgds)."""
    return _tgd(text, _tokens(_TOKEN_RE.split(text)), name, {})


def parse_tgds(text: str) -> List[TGD]:
    """Parse a program of tgds, one per line (or period-separated)."""
    return _tgds(text.splitlines(), {})


def parse_cq(text: str, name: Optional[str] = None) -> CQ:
    """Parse ``q(x, y) :- R(x,z), P(z,y)`` (or a bare body for Boolean CQs)."""
    return _cq(text, _tokens(_TOKEN_RE.split(text)), name, {})


def parse_ucq(text: str, name: Optional[str] = None) -> UCQ:
    """Parse a UCQ: disjuncts separated by `` | `` or on separate lines."""
    return _ucq(text.splitlines(), name, {})


def parse_omq(text: str, name: str = "Q"):
    """Parse a sectioned OMQ document into an :class:`repro.core.omq.OMQ`.

    Format (sections may appear in any order; ``rules`` is optional)::

        schema: P/1, T/1
        rules:
            P(x) -> R(x, w)
            R(x, y) -> P(y)
        query: q(x) :- R(x, y), P(y)

    A UCQ query uses `` | ``-separated disjuncts or several ``query:``
    lines.
    """
    from .omq import OMQ
    from .schema import Schema

    schema_decl: Optional[str] = None
    rule_lines: List[str] = []
    query_lines: List[str] = []
    section: Optional[str] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        lowered = line[:7].lower()
        if lowered.startswith("schema:"):
            schema_decl = line.split(":", 1)[1].strip()
            section = None
            continue
        if lowered.startswith("rules:"):
            rest = line.split(":", 1)[1].strip()
            if rest:
                rule_lines.append(rest)
            section = "rules"
            continue
        if lowered.startswith("query:"):
            query_lines.append(line.split(":", 1)[1].strip())
            section = "query"
            continue
        if section == "rules":
            rule_lines.append(line)
        elif section == "query":
            query_lines.append(line)
        else:
            raise ParseError(f"line outside any section: {line!r}")
    if schema_decl is None:
        raise ParseError("missing 'schema:' section")
    if not query_lines:
        raise ParseError("missing 'query:' section")
    relations = {}
    for piece in schema_decl.split(","):
        piece = piece.strip()
        if not piece:
            continue
        pred, _, arity = piece.partition("/")
        try:
            relations[pred.strip()] = int(arity)
        except ValueError:
            raise ParseError(
                f"schema entries look like Name/arity: {piece!r}"
            ) from None
    terms: Dict[str, Term] = {}
    sigma = _tgds(rule_lines, terms)
    ucq = _ucq(query_lines, None, terms)
    query = ucq.disjuncts[0] if len(ucq.disjuncts) == 1 else ucq
    return OMQ(Schema(relations), tuple(sigma), query, name)


def parse_database(text: str) -> Instance:
    """Parse a database; every bare identifier is a constant."""
    atoms: List[Atom] = []
    terms: Dict[str, Term] = {}
    for stmt, parts in _statements(text.splitlines()):
        tokens = _tokens(parts)
        parsed, i = _parse_atoms(tokens, 0, terms, True)
        if i < len(tokens):
            raise ParseError(f"trailing input in database statement: {stmt!r}")
        atoms.extend(parsed)
    return Instance.of(atoms)
