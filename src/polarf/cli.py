"""Command-line front end.

    polarf check FILE [--trace] [--json]   typecheck one .ipf program
    polarf sub FILE                        check `A <: B` lines
    polarf corpus                          run the built-in example suite

Exit codes: 0 accepted, 1 type error, 2 parse or well-formedness error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import corpus
from .errors import InvariantViolation, SourceSpan, TypeCheckError
from .parser import parse_program, parse_type, pretty
from .subtype import subtype_neg, subtype_pos
from .syntax import Context, PosType
from .typecheck import check_program

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL = 3


def _span_json(span):
    if span is None:
        return None
    return {"file": span.file, "start": span.start, "end": span.end}


def _trace_json(trace):
    # steps share their contexts: print each object once, and hold it, so
    # that no id is freed and reused within the call
    shown = {}

    def show(ctx):
        if id(ctx) not in shown:
            shown[id(ctx)] = ctx, pretty(ctx)
        return shown[id(ctx)][1]

    return [{"rule": s.rule, "goal": s.goal, "context_before": show(s.before),
             "context_after": show(s.after)} for s in trace]


def check_source_json(text: str, filename: str = "<input>",
                      with_trace: bool = False) -> str:
    """The machine-readable record for `check --json`, as one JSON line."""
    record, _ = _check_source(text, filename, with_trace)
    return json.dumps(record)


def _check_source(text: str, filename: str, with_trace: bool):
    try:
        program = parse_program(text, filename)
        result = check_program(program, trace=with_trace)
    except TypeCheckError as e:
        return _error_record(e, with_trace)
    return {
        "status": "ok",
        "type": pretty(result.type),
        "error": None,
        "trace": _trace_json(result.trace) if with_trace else None,
    }, EXIT_OK


def _error_record(e: TypeCheckError, with_trace: bool):
    status = "parse-error" if e.kind == "parse" else "type-error"
    record = {
        "status": status,
        "type": None,
        "error": {"kind": e.kind, "message": e.message,
                  "span": _span_json(e.span)},
        "trace": _trace_json(e.trace) if with_trace else None,
    }
    code = EXIT_PARSE_ERROR if e.kind == "parse" else EXIT_TYPE_ERROR
    return record, code


def _read_source(path: str) -> str:
    """The file's text as `open(path, encoding="utf-8").read()` gives it.
    Raises OSError, or TypeCheckError(parse) spanning the first byte that
    is not UTF-8 (the span counts bytes)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise TypeCheckError(
            "parse", f"invalid UTF-8 (byte {data[e.start]:#04x})",
            SourceSpan(path, e.start, e.end)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _cmd_check(args) -> int:
    try:
        record, code = _check_source(_read_source(args.file), args.file, args.trace)
    except OSError as e:
        if not args.json:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        record, code = _error_record(TypeCheckError("parse", str(e)), args.trace)
    except TypeCheckError as e:  # from reading the file; `_check_source` catches its own
        record, code = _error_record(e, args.trace)
    except InvariantViolation as e:
        if not args.json:
            raise
        print(f"internal error: {e}", file=sys.stderr)
        record, code = {"status": "internal-error", "type": None, "error": {
            "kind": "internal", "message": str(e), "span": None}, "trace": None}, EXIT_INTERNAL
    if args.json:
        print(json.dumps(record))
        return code
    if record["status"] == "ok":
        print(f"OK : {record['type']}")
    else:
        err = record["error"]
        where = f" at {err['span']['start']}-{err['span']['end']}" \
            if err["span"] else ""
        print(f"error[{err['kind']}]{where}: {err['message']}")
    if args.trace and record["trace"]:
        print("derivation:")
        for step in record["trace"]:
            print(f"  [{step['rule']}] {step['goal']}")
            print(f"      context: {step['context_before']} => "
                  f"{step['context_after']}")
    return code


def _cmd_sub(args) -> int:
    try:
        lines = _read_source(args.file).split("\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except TypeCheckError as e:
        print(f"error[parse] at {e.span.start}-{e.span.end}: {e.message}")
        return EXIT_PARSE_ERROR
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        if "<:" not in line:
            print(f"{lineno}: error: expected 'A <: B'")
            return EXIT_PARSE_ERROR
        left_src, right_src = line.split("<:", 1)
        try:
            left = parse_type(left_src.strip(), filename=f"{args.file}:{lineno}")
            right = parse_type(right_src.strip(), filename=f"{args.file}:{lineno}")
        except TypeCheckError as e:
            print(f"{lineno}: error: {e.message}")
            return EXIT_PARSE_ERROR
        if isinstance(left, PosType) != isinstance(right, PosType):
            print(f"{lineno}: error: mixed polarities")
            return EXIT_PARSE_ERROR
        check = subtype_pos if isinstance(left, PosType) else subtype_neg
        try:
            check(Context(), left, right)
            verdict = "ok"
        except TypeCheckError:
            verdict = "fail"
        except ValueError as e:
            print(f"{lineno}: error: {e}")
            return EXIT_PARSE_ERROR
        print(f"{lineno}: {verdict}  {pretty(left)} <: {pretty(right)}")
    return EXIT_OK


_MARKS = {"ok": "accept", "ann": "accept (with annotations)", "reject": "reject"}


def _cmd_corpus(_args) -> int:
    started = time.monotonic()
    all_good = True
    counts = {"ok": 0, "ann": 0, "reject": 0}
    for ex in corpus.EXAMPLES:
        record, _ = _check_source(ex.source, ex.name, False)
        accepted = record["status"] == "ok"
        good = accepted == (ex.expected in ("ok", "ann"))
        all_good &= good
        if good:
            counts[ex.expected] += 1
        shown = record["type"] if accepted else record["error"]["kind"]
        flag = "" if good else "  MISMATCH"
        print(f"{ex.name:<4} expected {_MARKS[ex.expected]:<27} "
              f"got {shown}{flag}")
    print("annotation-stripped variants (must reject as ambiguous):")
    for ex in corpus.STRIPPED:
        record, _ = _check_source(ex.source, ex.name, False)
        rejected = (record["status"] == "type-error"
                    and record["error"]["kind"] == "ambiguous-let")
        all_good &= rejected
        got = record["type"] if record["status"] == "ok" \
            else record["error"]["kind"]
        flag = "" if rejected else "  MISMATCH"
        print(f"{ex.name:<12} got {got}{flag}")
    elapsed = time.monotonic() - started
    print(f"{counts['ok']} accepted / {counts['ann']} annotated-accepted / "
          f"{counts['reject']} rejected ({elapsed:.2f}s)")
    return EXIT_OK if all_good else EXIT_TYPE_ERROR


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="polarf",
        description="Typechecker for a polarized System F with local "
                    "impredicative inference")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck one .ipf file")
    p_check.add_argument("file")
    p_check.add_argument("--trace", action="store_true",
                         help="show the rule-by-rule derivation")
    p_check.add_argument("--json", action="store_true",
                         help="emit a machine-readable record")
    p_check.set_defaults(fn=_cmd_check)

    p_sub = sub.add_parser("sub", help="check 'A <: B' lines from a file")
    p_sub.add_argument("file")
    p_sub.set_defaults(fn=_cmd_sub)

    p_corpus = sub.add_parser("corpus", help="run the built-in example suite")
    p_corpus.set_defaults(fn=_cmd_corpus)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
