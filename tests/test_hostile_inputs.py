"""Hostile inputs through the command line.

No input may escape `polarf.cli.main` as a Python exception, and exit code
1 (a type error) must come with a `type-error` record; everything the front
end cannot read is a `parse` error with exit code 2.  `nested too deeply`
always has a span, decided by the input against the stated bounds
(`MAX_TYPE_HEIGHT`, `MAX_TERM_DEPTH`), the same from a caller up to `MARGIN`
frames deep.  Besides the hand-written inputs, a seeded fuzz runs random
bytes and mutations of the corpus programs through `check --json`.
"""

import json
import random
import re
import sys
import threading

import pytest

from polarf import Let, parse_program, parser
from polarf.cli import main
from polarf.corpus import EXAMPLES, STRIPPED
from polarf.parser import MAX_TERM_DEPTH, MAX_TYPE_HEIGHT, _lex

DEEP = 3000


def parens(depth):
    return "(" * depth + "Int" + ")" * depth


def thunks(depth):
    return "run " + "return {" * depth + "return 1" + "}" * depth


def thunked_lambdas(depth):
    return ("run " + "".join(f"return {{\\x{i} : Int. " for i in range(depth))
            + "return 1" + "}" * depth)


def thunk_pairs(depth):
    return "run return " + "({return " * depth + "1" + "}, 1)" * depth


def thunk_argument(depth):
    return ("val f : dn (Int -> up Int)\nrun let x = f(" + "{return " * depth + "1"
            + "}" * depth + "); return x")


# Value types of height exactly `h` (the nodes on the longest path down to a
# leaf), for h >= 3: the five ways a type nests.

def arrow_chain(h):
    return "dn (" + "Int -> " * (h - 3) + "up Int)"


def forall_chain(h):
    return "dn (" + "".join(f"forall a{i}. " for i in range(h - 3)) + "up a0)"


def shift_pairs(h):
    pairs, leaf = ((h - 1) // 2, "Int") if h % 2 else ((h - 2) // 2, "List Int")
    return "dn (up (" * pairs + leaf + "))" * pairs


def nested_lists(h):
    return "List (" * (h - 1) + "Int" + ")" * (h - 1)


def product_chain(h):
    return " * ".join(["Int"] * h)


def let_chain(n):
    lines = ["let i0 = inc(0);"] + [f"let i{j} = inc(i{j - 1});" for j in range(1, n)]
    return ("val inc : dn (Int -> up Int)\nrun " + "\n".join(lines)
            + f"\nreturn i{n - 1}\n")


@pytest.fixture
def source_file(tmp_path):
    def write(data, name="prog.ipf"):
        path = tmp_path / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        return str(path)
    return write


def check_json(path, capsys, *flags):
    """Run `check --json`; the exit code must agree with the one record."""
    code = main(["check", path, "--json", *flags])
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    record = json.loads(out[0])
    assert code == {"ok": 0, "type-error": 1, "parse-error": 2}[record["status"]]
    return code, record


def test_non_decimal_digit(source_file, capsys):
    code, record = check_json(source_file("run return ²"), capsys)
    assert code == 2
    assert record["error"]["message"] == "unexpected character '²'"
    assert record["error"]["span"]["start"] == 11


def test_deep_parens_through_sub(source_file, capsys):
    path = source_file(f"{parens(DEEP)} <: Int\n", "subs.txt")
    assert main(["sub", path]) == 2
    assert capsys.readouterr().out == "1: error: nested too deeply\n"


def test_deep_parens_through_check(source_file, capsys):
    path = source_file(f"val x : {parens(DEEP)}\nrun return x")
    code, record = check_json(path, capsys)
    assert code == 2
    assert record["error"]["message"] == "nested too deeply"


def first_inside(source, opener, level):
    """The span of the first token after the `level`-th `opener`."""
    i = -1
    for _ in range(level):
        i = source.index(opener, i + 1)
    start = i + len(opener)
    start += len(source[start:]) - len(source[start:].lstrip(" "))
    token = re.match(r"/\\|\w+|.", source[start:], re.DOTALL).group()
    return {"start": start, "end": start + len(token)}


def assert_too_deep(record, span):
    assert record["status"] == "parse-error"
    assert record["error"]["message"] == "nested too deeply"
    assert {k: record["error"]["span"][k] for k in ("start", "end")} == span


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
@pytest.mark.parametrize("shape,depth,opener,per_level",
                         [(thunks, 400, "{", 1), (thunked_lambdas, 280, "{", 2),
                          (thunk_pairs, 280, "(", 2), (thunk_argument, 400, "{", 1)],
                         ids=["thunks", "lambdas", "pairs", "argument"])
def test_type_too_deep_to_print_through_check(source_file, capsys, shape, depth, opener,
                                              per_level, flags):
    # deep terms whose types, traces and messages would be tall: the parser
    # stops at the first token nested past the bound (thunks alternate with
    # lambdas, or pairs with thunks)
    source = shape(depth)
    code, record = check_json(source_file(source), capsys, *flags)
    assert code == 2
    level = MAX_TERM_DEPTH // per_level + 1
    assert_too_deep(record, first_inside(source, opener, level))
    assert record["trace"] == ([] if flags else None)


def lambdas_around_deep_argument(depth):
    """An argument whose type nests 197 `List`s (within the height bound),
    checked under `depth` lambdas."""
    t = "List (" * 197 + "Int" + ")" * 197
    return (f"val f : dn ({t} -> up Int)\nval v : {t}\nrun "
            + "".join(f"\\x{i} : Int. " for i in range(depth)) + "let y = f(v); return y")


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
def test_stack_runs_out_while_typing(source_file, capsys, flags):
    # a deep argument check under deep lambdas: the parser stops at the first
    # token of a body past the bound, and up to the bound the check types
    source = lambdas_around_deep_argument(300)
    code, record = check_json(source_file(source), capsys, *flags)
    assert code == 2
    assert_too_deep(record, first_inside(source, ". ", MAX_TERM_DEPTH + 1))
    assert record["trace"] == ([] if flags else None)
    inside = lambdas_around_deep_argument(MAX_TERM_DEPTH)
    code, record = check_json(source_file(inside), capsys, *flags)
    assert (code, record["type"]) == (0, "Int -> " * MAX_TERM_DEPTH + "up Int")


LADDER = [MAX_TYPE_HEIGHT - 1, MAX_TYPE_HEIGHT, MAX_TYPE_HEIGHT + 1, 350, 1500]
SHAPES = [arrow_chain, forall_chain, shift_pairs, nested_lists, product_chain]


@pytest.mark.parametrize("height", LADDER)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.__name__)
def test_type_height_ladder(source_file, capsys, shape, height):
    """Every type up to the bound is checked, every taller one is the parse
    error "nested too deeply", and nothing ends in a traceback.  `height`
    is that of the tallest type in each input."""
    fits = height <= MAX_TYPE_HEIGHT
    t = shape(height)
    code = main(["sub", source_file(f"{t} <: {t}\n", "subs.txt")])
    out = capsys.readouterr().out
    if fits:
        assert code == 0 and out.startswith("1: ok  ") and out.count("\n") == 1
    else:
        assert (code, out) == (2, "1: error: nested too deeply\n")

    low = shape(height - 2)  # g's type puts two nodes above it
    accepted = (f"val f : {low}\nval g : dn ({low} -> up Int)\n"
                "run let x = g(f); return x")
    rejected = f"val f : {t}\nval g : dn (Bool -> up Int)\nrun let x = g(f); return x"
    for source, verdict in ((accepted, "ok"), (rejected, "subtype-failure")):
        code, record = check_json(source_file(source), capsys)
        if not fits:
            assert record["error"]["message"] == "nested too deeply"
        elif verdict == "ok":
            assert record["type"] == "up Int"
        else:
            assert record["error"]["kind"] == verdict


# -- flat let chains ------------------------------------------------------------

def wrap_chain(n, then_length=False):
    """n lets, each wrapping the last in one more `List`: no nesting in the
    term, but the j-th let's type is j + 1 tall."""
    lines = ["let x1 = wrap(1);"] + [f"let x{j} = wrap(x{j - 1});" for j in range(2, n + 1)]
    end = f"let y = length(x{n}); return y" if then_length else f"return x{n}"
    return ("val wrap : dn (forall a. a -> up (List a))\n"
            "val length : dn (forall a. List a -> up Int)\nrun "
            + "\n".join(lines) + "\n" + end + "\n")


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
@pytest.mark.parametrize("n,then_length", [(248, False), (249, False), (328, True),
                                           (329, True)])
def test_flat_let_chain_with_tall_types(source_file, capsys, n, then_length, flags):
    # the lengths at which printing (248 lets) or typing (328) ran out of
    # stack before the typer bounded the types it builds: the first let
    # whose type is taller than the bound is the error
    source = wrap_chain(n, then_length)
    code, record = check_json(source_file(source), capsys, *flags)
    first_too_tall = f"let x{MAX_TYPE_HEIGHT} ="
    assert code == 2
    assert record["error"]["message"] == "nested too deeply"
    assert record["error"]["span"]["start"] == source.index(first_too_tall)
    assert record["error"]["span"]["end"] == len(source.rstrip())
    if flags:
        assert record["trace"]


def test_flat_let_chain_up_to_the_bound(source_file, capsys):
    code, record = check_json(source_file(wrap_chain(MAX_TYPE_HEIGHT - 1, True)), capsys)
    assert (code, record["type"]) == (0, "up Int")


# -- the term depth ladder -------------------------------------------------------

# Frames that a caller of `main` may take: the margin `parser.MAX_TERM_DEPTH`
# is chosen for.
MARGIN = 50


def lambdas(depth):
    return "run " + "".join(f"\\x{i} : Int. " for i in range(depth)) + "return 1"


def type_abstractions(depth):
    return "run " + "".join(f"/\\a{i}. " for i in range(depth)) + "return 1"


def pairs(depth):
    return "run return " + "(1, " * depth + "1" + ")" * depth


def value_parens(depth):
    return "run return " + "(" * depth + "1" + ")" * depth


def type_parens(depth):
    return f"val x : {parens(depth)}\nrun return x"


# each shape, and what opens one level of it
TERM_SHAPES = [(lambdas, "."), (thunks, "{"), (pairs, "("), (value_parens, "("),
               (type_parens, "("), (type_abstractions, ".")]
DEPTHS = [MAX_TERM_DEPTH - 1, MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1, 10 * MAX_TERM_DEPTH]


def stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def in_new_thread(fn, frames):
    """fn() called from a new thread's stack, `frames` deep (or as shallow
    as a thread starts, if that is deeper)."""
    out = []

    def descend():
        if stack_depth() < frames:
            return descend()
        out.append(fn())

    thread = threading.Thread(target=descend)
    thread.start()
    thread.join()
    assert out, "the call raised"
    return out[0]


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("shape,opener", TERM_SHAPES, ids=lambda x: getattr(x, "__name__", ""))
def test_term_depth_ladder(source_file, capsys, shape, opener, depth):
    """Every term nested up to the bound checks, every deeper one is the
    parse error "nested too deeply" at the first token past the bound, and
    the record is the same with the memo of blocks cold or warm, and from
    a new stack or under `MARGIN` frames."""
    source = shape(depth)
    path = source_file(source)

    def cold():
        parser._PRELUDES.clear()
        return check_json(path, capsys)

    code, record = cold()
    if depth <= MAX_TERM_DEPTH:
        assert code == 0 and record["status"] == "ok"
    else:
        assert_too_deep(record, first_inside(source, opener, MAX_TERM_DEPTH + 1))
    assert check_json(path, capsys) == (code, record)  # warm
    for frames in (0, MARGIN):
        for run in (cold, lambda: check_json(path, capsys)):
            assert in_new_thread(run, frames) == (code, record)


def under_thunk_arguments(depth, inner):
    """`inner` (a computation) under `depth` lets, each passing a thunk that
    holds the next to `k`: the shape that costs the typer the most frames
    per level."""
    return "let z = k({" * depth + inner + "}); return z" * depth


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
def test_both_bounds_at_once(source_file, capsys, flags):
    """The deepest terms around the tallest types check from under `MARGIN`
    frames: the let checks an argument of 198 nested `List`s, the lambda
    reads one as its annotation, and the rejected argument's message prints
    a parameter type about twice as tall."""
    t = nested_lists(MAX_TYPE_HEIGHT - 2)
    lists_of_a = "List (" * 190 + "a" + ")" * 190
    env = (f"val k : dn (dn (up Int) -> up Int)\nval f : dn ({t} -> up Int)\nval v : {t}\n"
           f"val g : dn (forall a. a * {lists_of_a} -> up Int)\nrun ")
    depth = MAX_TERM_DEPTH
    programs = [(under_thunk_arguments(depth, "let y = f(v); return y"), "up Int"),
                (under_thunk_arguments(depth - 2, f"let y = {{\\w : {t}. return 1}}(v); "
                                                  "return y"), "up Int"),
                (under_thunk_arguments(depth - 2, "let y = g((v, 1)); return y"), None)]
    for body, result in programs:
        path = source_file(env + body)
        code, record = in_new_thread(lambda: check_json(path, capsys, *flags), MARGIN)
        if result:
            assert (code, record["type"]) == (0, result)
        else:
            assert record["error"]["kind"] == "subtype-failure"
            assert len(record["error"]["message"]) > 2 * 6 * MAX_TYPE_HEIGHT


@pytest.mark.parametrize("depth", DEPTHS)
def test_type_parens_ladder_through_sub(source_file, capsys, depth):
    code = main(["sub", source_file(f"{parens(depth)} <: Int\n", "subs.txt")])
    out = capsys.readouterr().out
    if depth <= MAX_TERM_DEPTH:
        assert (code, out) == (0, "1: ok  Int <: Int\n")
    else:
        assert (code, out) == (2, "1: error: nested too deeply\n")


def test_invalid_utf8_through_check(source_file, capsys):
    code, record = check_json(source_file(b"run return x \xff"), capsys)
    assert code == 2
    assert record["error"]["span"]["start"] == 13
    assert record["error"]["span"]["end"] == 14
    assert "0xff" in record["error"]["message"]


def test_invalid_utf8_through_sub(source_file, capsys):
    path = source_file(b"Int <: Int\n\xff <: Int\n", "subs.txt")
    assert main(["sub", path]) == 2
    assert capsys.readouterr().out.startswith("error[parse] at 11-12: ")


def test_newlines_read_as_in_text_mode(source_file, capsys):
    path = source_file(b"-- CRLF\r\nrun return\r1\r\n")
    code, record = check_json(path, capsys)
    assert (code, record["type"]) == (0, "up Int")


def test_spans_count_characters(source_file, capsys):
    # `é` is two bytes and CRLF one character: the `$` at byte 21 is at 19
    data = "-- café\r\nrun return $".encode("utf-8")
    assert data.index(b"$") == 21
    code, record = check_json(source_file(data), capsys)
    assert code == 2
    assert (record["error"]["span"]["start"], record["error"]["span"]["end"]) == (19, 20)


def test_long_let_chain_parses():
    src = let_chain(1600)
    body = parse_program(src).body
    end = src.rindex("return") + len("return i1599")
    starts = []
    while isinstance(body, Let):
        starts.append(body.span.start)
        assert body.span.end == end
        body = body.cont
    assert len(starts) == 1600
    assert starts[0] == src.index("let i0") and starts[-1] == src.index("let i1599")


def test_long_let_chain_through_check(source_file, capsys):
    code, record = check_json(source_file(let_chain(1600)), capsys)
    assert code == 0 and record["type"] == "up Int"


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
def test_wide_spines_nested(source_file, capsys, flags):
    # 20 lets, each passing the next in a thunk after 150 other arguments:
    # a spine is typed in a loop, so its width takes no stack
    head = "val f : dn (" + "Int -> " * 150 + "dn (up Int) -> up Int)\n"
    source = (head + "run " + ("let z = f(" + "1, " * 150 + "{") * 20 + "return 1"
              + "}); return z" * 20)
    code, record = check_json(source_file(source), capsys, *flags)
    assert (code, record["type"]) == (0, "up Int")


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
def test_long_let_chain_printed_in_a_message(source_file, capsys, flags):
    # the rejected argument is printed with its 1,600 lets, in a loop
    lets = "".join(f"let i{j} = inc({j}); " for j in range(1600))
    source = f"val inc : dn (Int -> up Int)\nrun let x = inc({{{lets}return 1}}); return x"
    code, record = check_json(source_file(source), capsys, *flags)
    assert (code, record["error"]["kind"]) == (1, "subtype-failure")
    assert f"{{{lets}return 1}}" in record["error"]["message"]
    assert record["error"]["span"]["start"] == source.index("{")


# -- integer literals ---------------------------------------------------------

# the most digits `int()` reads; 4,300 unless the interpreter was told otherwise
INT_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("template, start", [("run return {}", 11),
                                             ("data T pos {}\nrun return 1", 11)],
                         ids=["value", "arity"])
def test_integer_literal_too_long(source_file, capsys, template, start):
    digits = "9" * (INT_DIGITS + 700)
    code, record = check_json(source_file(template.format(digits)), capsys)
    assert code == 2
    assert record["error"]["message"] == "integer literal too long"
    assert record["error"]["span"]["start"] == start
    assert record["error"]["span"]["end"] == start + len(digits)


def test_longest_integer_literal_reads(source_file, capsys):
    code, record = check_json(source_file("run return " + "9" * INT_DIGITS), capsys)
    assert (code, record["type"]) == (0, "up Int")


# -- seeded fuzz ----------------------------------------------------------------

def random_bytes(rng):
    """Any bytes, or bytes from a small alphabet of ASCII token characters
    and whitespace."""
    size = rng.randint(0, 120)
    if rng.random() < 0.5:
        return bytes(rng.getrandbits(8) for _ in range(size))
    alphabet = b"()[]{},;:.*=->\\/ \t\r\naxZ09_'"
    return bytes(rng.choice(alphabet) for _ in range(size))


def mutate(rng, source):
    """One edit to the tokens of a corpus program: a token deleted or
    duplicated, a word after `run` turned into a digit run longer than
    `int()` reads, a token nested in parentheses far past the term depth
    bound, a token nested at either bound or one level either side of it
    (in parentheses, or in `List`s as deep as the tallest type), or a `let`
    repeated into a long chain."""
    toks = _lex(source, "<corpus>")[1][:-1]
    body = toks.index("run") + 1
    i = rng.randrange(len(toks))
    edit = rng.choice(("delete", "duplicate", "digits", "nest", "bound", "lets"))
    if edit == "delete":
        del toks[i]
    elif edit == "duplicate":
        toks.insert(i, toks[i])
    elif edit == "digits":
        values = [j for j in range(body, len(toks))
                  if toks[j].isidentifier() or toks[j].isdecimal()]
        toks[rng.choice(values)] = "7" * rng.randint(INT_DIGITS + 1, INT_DIGITS + 2000)
    elif edit == "nest":
        depth = rng.randint(100, 3000)
        toks[i] = "(" * depth + toks[i] + ")" * depth
    elif edit == "bound":
        off = rng.choice((-1, 0, 1))
        if rng.random() < 0.5:
            depth = MAX_TERM_DEPTH + off
            toks[i] = "(" * depth + toks[i] + ")" * depth
        else:
            depth = MAX_TYPE_HEIGHT - 1 + off
            toks[i] = "List (" * depth + toks[i] + ")" * depth
    else:
        lets = [j for j in range(body, len(toks)) if toks[j] == "let"]
        if lets:
            j = rng.choice(lets)
            k = toks.index(";", j) + 1
            toks[j:k] = toks[j:k] * rng.randint(2, 200)
    return " ".join(toks)


def test_fuzz_check_json(source_file, capsys):
    """Every input ends with exit code 0, 1 or 2 and one record whose
    status matches it (`check_json`); an escaping exception fails."""
    rng = random.Random(51)
    sources = [ex.source for ex in EXAMPLES + STRIPPED]
    codes = []
    for n in range(160):
        data = random_bytes(rng) if n % 4 == 0 else mutate(rng, rng.choice(sources))
        code, _ = check_json(source_file(data), capsys)
        codes.append(code)
    assert {0, 1, 2} <= set(codes)
