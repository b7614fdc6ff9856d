"""The regex lexer against the character loop it replaced.

`parser._lex` reads each line's tokens with one `findall` of a single
compiled pattern, or from its memo of the lines it has lexed, and returns
the kinds, texts and end offsets as three lists.  The reference kept here
is the direct character-by-character loop, changed in one place: an
integer literal is a run of decimal digits (`str.isdecimal`, what `int()`
reads), where the loop once took any `str.isdigit` character, so that `2²`
became an int token that `int()` then rejected with a Python traceback.
Both lexers must give the same tokens, or the same parse error with the
same span, on the corpus, on every string literal in the tests and on
random strings over the characters where the two could part, from an
empty memo and from a warm one.
"""

import ast
import hashlib
import random
from pathlib import Path

import pytest

from polarf import Computation, TypeCheckError, Value, parse_program, pretty
from polarf import parser
from polarf.corpus import ENVIRONMENT, EXAMPLES, STRIPPED
from polarf.errors import SourceSpan
from polarf.parser import KEYWORDS, _lex

PUNCT = {"(", ")", "{", "}", ",", ";", ":", ".", "*", "="}


# -- reference -----------------------------------------------------------------

def ref_lex(src, filename, digit=str.isdecimal):
    """The old loop; tokens are (kind, text, start, end) with kinds
    ident | conid | int | kw | punct | arrow | lambda | tyabs | eof."""
    toks = []
    i = 0
    n = len(src)

    def err(msg, start, end):
        raise TypeCheckError("parse", msg, SourceSpan(filename, start, end))

    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "-":
            if src.startswith("--", i):
                j = src.find("\n", i)
                i = n if j < 0 else j + 1
                continue
            if src.startswith("->", i):
                toks.append(("arrow", "->", i, i + 2))
                i += 2
                continue
            err("unexpected '-' (did you mean '->' or a '--' comment?)", i, i + 1)
        if c == "\\":
            toks.append(("lambda", "\\", i, i + 1))
            i += 1
            continue
        if src.startswith("/\\", i):
            toks.append(("tyabs", "/\\", i, i + 2))
            i += 2
            continue
        if c == "/":
            err("unexpected '/' (did you mean '/\\'?)", i, i + 1)
        if c in PUNCT:
            toks.append(("punct", c, i, i + 1))
            i += 1
            continue
        if digit(c):
            j = i
            while j < n and digit(src[j]):
                j += 1
            toks.append(("int", src[i:j], i, j))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            if text in KEYWORDS:
                toks.append(("kw", text, i, j))
            elif text[0].isupper():
                toks.append(("conid", text, i, j))
            else:
                toks.append(("ident", text, i, j))
            i = j
            continue
        err(f"unexpected character {c!r}", i, i + 1)
    toks.append(("eof", "", n, n))
    return toks


def old_kind(kind):
    """A token's kind in the reference's terms: keywords and punctuation
    carry their text as their kind in `_lex`."""
    if kind in KEYWORDS:
        return "kw"
    if kind in PUNCT:
        return "punct"
    return kind


def outcome(lex, src):
    try:
        return "tokens", lex(src)
    except TypeCheckError as e:
        return "error", (e.kind, e.message, e.span)


def new_lex(src):
    kinds, texts, ends = _lex(src, "f")
    return [(old_kind(kind), text, end - len(text), end)
            for kind, text, end in zip(kinds, texts, ends)]


def assert_same(src):
    assert outcome(new_lex, src) == outcome(lambda s: ref_lex(s, "f"), src), repr(src)


# -- inputs --------------------------------------------------------------------

def test_source_strings():
    strings = [ENVIRONMENT] + [ex.source for ex in EXAMPLES + STRIPPED]
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.append(node.value)
    assert len(strings) > 500
    for src in strings:
        assert_same(src)


ATOMS = (list("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~") +
         ["--", "->", "/\\", "a", "x", "Z", "up", "let", "_", "'", "0", "7",
          " ", "\n", "\t", "\r", "\x0b", "é", "ß", "ǅ", "ª", "ʰ", "́",
          "١", "ⅷ", "½", "²", "\x00"])


def random_strings(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(ATOMS) for _ in range(rng.randint(0, 8)))


def test_random_strings():
    for src in random_strings(31, 100_000):
        assert_same(src)


def test_only_non_decimal_digits_changed():
    """Where the old `isdigit` loop and the reference part, the input holds
    a digit that is not decimal, such as `²`; `int()` rejects those."""
    parted = 0
    for src in random_strings(32, 20_000):
        old = outcome(lambda s: ref_lex(s, "f", digit=str.isdigit), src)
        if old != outcome(lambda s: ref_lex(s, "f"), src):
            parted += 1
            assert any(c.isdigit() and not c.isdecimal() for c in src), repr(src)
    assert parted > 0


def multi_line_strings(seed, count):
    """Inputs of 2 to 6 lines drawn from three random strings, so that a
    line may come back at another offset."""
    rng = random.Random(seed)
    for _ in range(count):
        pool = ["".join(rng.choice(ATOMS) for _ in range(rng.randint(0, 8)))
                for _ in range(3)]
        yield "\n".join(rng.choice(pool) for _ in range(rng.randint(2, 6)))


def test_memo_hits_at_any_offset(monkeypatch):
    """A line's tokens read from the memo, at the line's first offset or
    at another, are the tokens the reference reads there."""
    bad_line = "val x : Int ? Int"
    inputs = ([ENVIRONMENT, f"{bad_line}\nrun return x"]
              + [ex.source for ex in EXAMPLES + STRIPPED]
              + list(multi_line_strings(33, 2_000)))
    for src in inputs:
        monkeypatch.setattr(parser, "_LINE_TOKENS", {})
        for text in (src, src, "run -- a prefix line\n" + src):
            assert_same(text)
    monkeypatch.setattr(parser, "_LINE_TOKENS", {})
    spans = []
    for prefix in ("", "val y : Bool\n"):
        with pytest.raises(TypeCheckError) as e:
            _lex(f"{prefix}{bad_line}\nrun return x", "f")
        spans.append((e.value.message, e.value.span.start, e.value.span.end))
    assert spans == [("unexpected character '?'", 12, 13),
                     ("unexpected character '?'", 25, 26)]


@pytest.mark.parametrize("src, start", [("run return ²", 11),
                                        ("run return 1²", 12),
                                        ("val x : ² Int", 8)])
def test_non_decimal_digit_is_a_parse_error(src, start):
    with pytest.raises(TypeCheckError) as e:
        parse_program(src)
    assert e.value.kind == "parse"
    assert e.value.message == "unexpected character '²'"
    assert (e.value.span.start, e.value.span.end) == (start, start + 1)


def test_decimal_digits_outside_ascii_are_integers():
    assert parse_program("run return ١٢").body.value.value == 12


# -- parsed programs -------------------------------------------------------------

def fingerprint(prog):
    """A digest of the datatypes, the assumptions, the printed body and the
    kind and span of every term node, found through each node's compared
    fields (`_fields`: all but the span)."""
    lines = [repr(d) for d in prog.datatypes]
    lines += [f"val {n} : {pretty(t)}" for n, t in prog.assumptions]
    lines.append(pretty(prog.body))
    stack = [prog.body]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(reversed(node))
        elif isinstance(node, (Value, Computation)):
            lines.append(f"{type(node).__name__} {node.span}")
            stack.extend(reversed([getattr(node, f) for f in node._fields]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# `fingerprint` of each corpus program as parsed by the recursive-descent
# parser with the character-loop lexer and a recursive let continuation
CORPUS_FINGERPRINTS = {
    "A1": "bb2ae36ec29c8514", "A2": "7f7cf050d8251af2",
    "A3": "6c7c369d8c871d35", "A4": "759423c17eaab978",
    "A5": "e6276d07c60879a3", "A6": "73deb262d41f89fd",
    "A7": "3d8847cf106d9201", "A8": "a469fb7b65e3efab",
    "A9": "82c6f8236c049e6c", "A10": "b7fe83409c0d5c57",
    "A11": "2dd50e7dd42ee27c", "A12": "0bfeeab73b8b2057",
    "B1": "1239b7041b4c8eb2", "B2": "d2434eb3694b6cf1",
    "C1": "f849c0fbf8888720", "C2": "b4fcccc68e35a891",
    "C3": "bc5c707da4e370fc", "C4": "f1a5f206e4f6a52d",
    "C5": "8e39f4007b029bbd", "C6": "983b5cc537b227f8",
    "C7": "894d4d174916a015", "C8": "f4a539e413da2af0",
    "C9": "ae3fa5bafe5805ea", "C10": "98dc42a7b972fd6d",
    "D1": "eaacb5e890182bfe", "D2": "2d32edca34cf47d9",
    "D3": "ea9b74725700e800", "D4": "1412ba203060f37a",
    "D5": "576c32332b86c8d2", "E1": "3ef4cd4b4b9e58da",
    "E2": "b7ef5c005dd4e114", "E3": "77eacd77aa9cb24e",
    "A3-stripped": "350296b88ef15feb", "C6-stripped": "0579685ba527c931",
    "A11-stripped": "abce7f36dbdc96fd",
}


@pytest.mark.parametrize("ex", EXAMPLES + STRIPPED, ids=lambda ex: ex.name)
def test_corpus_program_unchanged(ex):
    assert fingerprint(parse_program(ex.source, ex.name)) == \
        CORPUS_FINGERPRINTS[ex.name]
