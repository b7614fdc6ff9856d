"""Hostile inputs through the command line.

No input may escape `polarf.cli.main` as a Python exception, and exit code
1 (a type error) must come with a `type-error` record; everything the front
end cannot read is a `parse` error with exit code 2.
"""

import json

import pytest

from polarf import Let, parse_program
from polarf.cli import main
from polarf.parser import MAX_TYPE_HEIGHT

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


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
@pytest.mark.parametrize("shape,depth", [(thunks, 400), (thunked_lambdas, 280),
                                         (thunk_pairs, 280), (thunk_argument, 400)],
                         ids=["thunks", "lambdas", "pairs", "argument"])
def test_type_too_deep_to_print_through_check(source_file, capsys, shape, depth, flags):
    # the program parses and types (or is rejected); only printing its type,
    # trace or error message runs out of stack
    source = shape(depth)
    parse_program(source)
    code, record = check_json(source_file(source), capsys, *flags)
    assert code == 2
    assert record["error"]["message"] == "nested too deeply"
    assert record["trace"] == ([] if flags else None)


def lambdas_around_deep_argument(depth):
    """An argument whose type nests 197 `List`s (within the height bound),
    checked under `depth` lambdas."""
    t = "List (" * 197 + "Int" + ")" * 197
    return (f"val f : dn ({t} -> up Int)\nval v : {t}\nrun "
            + "".join(f"\\x{i} : Int. " for i in range(depth)) + "let y = f(v); return y")


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["json", "trace"])
def test_stack_runs_out_while_typing(source_file, capsys, flags):
    # the typer takes a frame per lambda and the argument check a few per
    # List level, so typing itself runs out of stack, before any printing
    source = lambdas_around_deep_argument(300)
    parse_program(source)
    code, record = check_json(source_file(source), capsys, *flags)
    assert code == 2
    assert record["error"]["message"] == "nested too deeply"
    assert record["trace"] == ([] if flags else None)


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
