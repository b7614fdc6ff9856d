"""The built-in example suite: 32 programs over a shared environment.

Each row is one program; the expected outcome is `ok` (accepts as written),
`ann` (accepts, but only because the translation carries annotations the
original surface program did not), or `reject`.  Three extra fixtures strip
the annotation that made an `ann` row check, and must fail with the
ambiguous-let error.
"""

from __future__ import annotations

from .errors import Record

ENVIRONMENT = """\
-- shared environment for the example suite
val head : dn (forall a. List a -> up a)
val tail : dn (forall a. List a -> up (List a))
val nil : dn (forall a. up (List a))
val cons : dn (forall a. a -> List a -> up (List a))
val single : dn (forall a. a -> up (List a))
val append : dn (forall a. List a -> List a -> up (List a))
val length : dn (forall a. List a -> up Int)
val map : dn (forall a b. dn (a -> up b) -> List a -> up (List b))
val id : dn (forall a. a -> up a)
val ids : List (dn (forall a. a -> up a))
val a9 : dn (forall a. dn (a -> up a) -> List a -> up a)
val h : dn (Int -> forall a. a -> up a)
val lst : List (dn (forall a. Int -> a -> up a))
val inc : dn (Int -> up Int)
val choose : dn (forall a. a -> a -> up a)
val poly : dn (dn (forall a. a -> up a) -> up (Int * Bool))
val auto : dn (dn (forall a. a -> up a) -> forall a. a -> up a)
val auto' : dn (forall a. dn (forall b. b -> up b) -> a -> up a)
val app : dn (forall a b. dn (a -> up b) -> a -> up b)
val revapp : dn (forall a b. a -> dn (a -> up b) -> up b)
val flip : dn (forall a b c. dn (a -> b -> up c) -> b -> a -> up c)
val runST : dn (forall a. dn (forall b. ST b a) -> up a)
val argST : dn (forall a. ST a Int)
val c8 : dn (forall a. List a -> List a -> up a)
val k : dn (forall a. a -> List a -> up a)
val r : dn (dn (forall a. a -> forall b. b -> up b) -> up Int)
"""


class Example(Record):
    __slots__ = _fields = ("name", "term", "expected")

    def __init__(self, name: str, term: str, expected: str):  # ok | ann | reject
        self.name, self.term, self.expected = name, term, expected

    @property
    def source(self) -> str:
        return ENVIRONMENT + "\nrun " + self.term + "\n"


EXAMPLES = (
    Example("A1", "let const2 = {return {/\\a. /\\b. \\x : a. \\y : b. return y}}(); "
                  "return const2", "ann"),
    Example("A2", "\\x : dn (forall a. a -> up a). "
                  "let t = choose(id, x); return t", "ann"),
    Example("A3", "let n : List (dn (forall a. a -> up a)) = nil(); "
                  "let t = choose(n, ids); return t", "ann"),
    Example("A4", "\\x : dn (forall a. a -> up a). let y = x(x); return y", "ok"),
    Example("A5", "let t = id(auto); return t", "ok"),
    Example("A6", "let t = id(auto'); return t", "ok"),
    Example("A7", "let t = choose(id, auto); return t", "reject"),
    Example("A8", "let t = choose(id, auto'); return t", "reject"),
    Example("A9", "let f = {return {\\x : dn (forall a. a -> up a). "
                  "let y = choose(id, x); return y}}(); "
                  "let t = a9(f, ids); return t", "ann"),
    Example("A10", "let t = poly(id); return t", "ok"),
    Example("A11", "let t = poly({/\\a. \\x : a. return x}); return t", "ann"),
    Example("A12", "let x = id(poly); "
                   "let t = x({/\\a. \\y : a. return y}); return t", "ann"),
    Example("B1", "\\f : dn (forall a. a -> up a). "
                  "let l = f(1); let r = f(true); return (l, r)", "ann"),
    Example("B2", "\\xs : List (dn (forall a. a -> up a)). "
                  "let x = head(xs); let y = poly(x); return y", "ann"),
    Example("C1", "let t = length(ids); return t", "ok"),
    Example("C2", "let t = tail(ids); return t", "ok"),
    Example("C3", "let t = head(ids); return t", "ok"),
    Example("C4", "let t = single(id); return t", "ok"),
    Example("C5", "let t = cons(id, ids); return t", "ok"),
    Example("C6", "let t = cons({/\\a. \\x : a. return x}, ids); return t", "ann"),
    Example("C7", "let x = single(inc); let y = single(id); "
                  "let t = append(x, y); return t", "reject"),
    Example("C8", "let x = single(id); let t = c8(x, ids); return t", "ok"),
    Example("C9", "let x = single(id); let t = map(poly, x); return t", "ok"),
    Example("C10", "let x = single(ids); let t = map(head, x); return t", "reject"),
    Example("D1", "let t = app(poly, id); return t", "ok"),
    Example("D2", "let t = revapp(id, poly); return t", "ok"),
    Example("D3", "let t = runST(argST); return t", "ok"),
    Example("D4", "let t = app(runST, argST); return t", "reject"),
    Example("D5", "let t = revapp(argST, runST); return t", "reject"),
    Example("E1", "let t = k(h, lst); return t", "reject"),
    Example("E2", "let f = {return {/\\a. \\y : Int. return {\\x : a. "
                  "let z = h(y, x); return z}}}(); "
                  "let t = k(f, lst); return t", "reject"),
    Example("E3", "let t = r({/\\a. /\\b. \\x : a. \\y : b. return y}); "
                  "return t", "reject"),
)

# the `ann` rows whose acceptance hinges on one strippable annotation; with
# it removed, the binding's type is underdetermined and checking must fail
# with the ambiguous-let error
STRIPPED = (
    Example("A3-stripped", "let n = nil(); let t = choose(n, ids); return t",
            "ambiguous"),
    Example("C6-stripped", "let f = {/\\a. return {\\x : a. return x}}(); "
                           "let t = cons(f, ids); return t", "ambiguous"),
    Example("A11-stripped", "let i = {/\\a. return {\\x : a. return x}}(); "
                            "let t = poly(i); return t", "ambiguous"),
)

# hand-derived result types for a few accepted rows
EXPECTED_TYPES = {
    "C1": "up Int",
    "C3": "up (dn (forall a. a -> up a))",
    "C4": "up (List (dn (forall a. a -> up a)))",
    "D1": "up (Int * Bool)",
    "D3": "up Int",
}


def by_name(name: str) -> Example:
    for ex in EXAMPLES + STRIPPED:
        if ex.name == name:
            return ex
    raise KeyError(name)
