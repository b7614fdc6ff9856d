"""The printed traces, byte for byte.

Each corpus program's `check --json --trace` record (accepted or not) is
pinned by its sha256.  A rejection whose subtyping failure happens inside
a typing rule carries the typing steps so far followed by the subtyping
engine's steps; the records pin that order, the goal and context strings
of every step, and every error message.  Regenerate a digest only for a
change that means to alter the printed output.
"""

import hashlib
import json

import pytest

from polarf import Context, TypeCheckError, parse_type, subtype_neg
from polarf.cli import check_source_json
from polarf.corpus import EXAMPLES, STRIPPED

from gen import spine_source

DIGESTS = {
    "A1": "9f5a98a2025a1482505f8601ffa0b64a421a9e8cdf05d335f3abaf4e9973bb2b",
    "A2": "731d2b636ce7f9e9edc0c220b56f403e4b6acef45a4795b4c5946c05ace8b58c",
    "A3": "a665677d3661fdc9aa8c45bdfa7fe26733ff2696a838393c6bb49f46ba7b3aaf",
    "A4": "25e3c13a4e977645857f4c1a2a5e5cb94800b0cf146302e3cfb404254d71241a",
    "A5": "6c7ef8cd65bb4f6f69fb275e8a82738b22d8a28edf4d0d83af4d485c48f90ee7",
    "A6": "76a5cc5bfe669a7c7bd78271db59e4889cbdae86a007dba5bff0a416b5f1b21a",
    "A7": "a7aca90b94954dd72db281e049f9c749b4112747e7f525babf699576f8e8d13d",
    "A8": "b577de08d771f285e4c8123e5021e1ea3e83f6dec1986c9163ac1d460ca238aa",
    "A9": "cbc2eb001bcc4d1b9c5b5e9bce0de92b5e61f0d437b187bbec8cf8f922bc5230",
    "A10": "f30520149704e671bd4b9706c5f461f8ada18f6800094346f67d03848f6b0149",
    "A11": "76e00bb6b337448179b65e0818f5617f8270d8fb5470288c02a3f58941c065c6",
    "A12": "27662ce9c944154913ba7eebbe9870b41e31a6d664b421e64a2d93d5d8b98f6b",
    "B1": "49b2a59c908a303ed2f18b6a905e9e3a25e734ce85c0bf012d8664c86e1ef0fa",
    "B2": "3e7cd61a70ab40146036c0d0c1cbaa931f619718137affffdfe16bbcac362859",
    "C1": "eb1e7cb08a7e9364ae9278bd46908adf46184f3d5a9f190704a913906e444616",
    "C2": "778274fe1f531fc9a937f772abc99ab3fdb190148db873cd3ca463fb66d94365",
    "C3": "81277de265b9a82b993232ded4e83043594578abd888403c34a790b0ed3c0a07",
    "C4": "ba128b0458a67cd3823d5225fc831c523e37205e16d1e9cdc7c7b0dcadeb305f",
    "C5": "393ace2146601a1ff6bfa514fee8fb48c160222180a8430ddeb936829e53779e",
    "C6": "2650e6e47087c33bc29b4012a95556c10045daafb50ce642dce34839ab288ebf",
    "C7": "fc3a956ccaa075ff228a0efafbf782ef05137595d5a4b5812cd1a32d1a05286c",
    "C8": "dc61e92403219995a498f02b601e2a5b24195e15f3edf80a2ab7d32256fd9b42",
    "C9": "fd153017329ef9b1a1044dc090024f835050e226715c91df5d42d941272eca01",
    "C10": "e003499f05d2d197787476e07c341b1e5e5e3340e4729e1daf90e3e2b4c54272",
    "D1": "b4a34be6f1968ab360849675b52ac0f33f343d9da973c57bf4194af86d991a6d",
    "D2": "fc5836329851174af8b825ad4e7a7411ce71ec626b2562428d6ede8173f4f097",
    "D3": "a1139d6c73eff1d1508fb2e27ef558128158446e404fd7d333f932b8b0a4b6d3",
    "D4": "46169be0a64f652026c91c852d9fb6d5b6dff36ca7bc8dc03bcf4c19c1a36011",
    "D5": "47a8f621f0d273a2cd8ecc307725476b730048386a2655951313f19287dcff2d",
    "E1": "2f621ad58112e4462d944bed3f26fd12331fe373a9feca306eb4d6d143a317c8",
    "E2": "58bdc0a89c7d6499a7774047bf3712866f21e90e054fe490632acaad1a897147",
    "E3": "7d696423168e5e427faef2525ebb9a96d1de66564cfc80059924fadf47bb98ba",
    "A3-stripped": "77894bf929fd74500b948a48430ab9ad36d8ff3f4ee6e6bd915c40738ce5c77a",
    "C6-stripped": "f4c9db3637e48d9daa9b2ec8e47ab85e92ae7a8f9b14d97b255bec1744328524",
    "A11-stripped": "8868ef9126dd392b5b2c5cbf865589aaab0c25da86567a570bd0c03a38bf2cec",
}


def test_every_corpus_program_is_pinned():
    assert sorted(DIGESTS) == sorted(ex.name for ex in EXAMPLES + STRIPPED)


@pytest.mark.parametrize("ex", EXAMPLES + STRIPPED, ids=lambda ex: ex.name)
def test_traced_record_digest(ex):
    record = check_source_json(ex.source, ex.name, with_trace=True)
    assert hashlib.sha256(record.encode()).hexdigest() == DIGESTS[ex.name]


# -- wide prenex blocks and long spines ---------------------------------------------
#
# A quantifier block is opened in one pass and a spine's head is read through
# the context, yet the per-quantifier steps print as they did when each
# quantifier was opened on its own and each head was completed first.

LEAVES = ("Int", "Bool", "String")


def prenex_query(k, accepted):
    """`forall a1..ak. a1 -> .. -> ak -> up a1` against a ground arrow that
    fits it, or that differs only in the result."""
    binders = [f"a{i}" for i in range(1, k + 1)]
    quantified = f"forall {' '.join(binders)}. {' -> '.join(binders)} -> up a1"
    ground = " -> ".join(LEAVES[i % 3] for i in range(k))
    return quantified, f"{ground} -> up {'Int' if accepted else 'Bool'}"


PRENEX_DIGESTS = {
    (1, True): "38af8a6ba73768cef6b850fb37e9ae6b799659b411846df058661fd5df264a24",
    (1, False): "84e444c5a212e12151dd6dd2f4ec87a4984f08709489cfc91086069ddfc58b02",
    (2, True): "65ec5e3480685fd88ea22bd2143c9be5f0a04e78cd011cddce8957ba3262e19c",
    (2, False): "c5e2546b82c809326b847c9cda3d279a189ee30fbe7dcf50e10da13701db9ea9",
    (5, True): "6d9bf2e5e5863cbda4c4f84e22d97576eab63f06d300ba308b6a7d651408b35b",
    (5, False): "247588967263d47b3174bca6d8d334c4391258940be3542af8f8112331a4e3cc",
    (16, True): "e6f6f286e487b9836b8c033951dc2b816f06ebedd684ed904f9737b9f0406259",
    (16, False): "df5672ce39feac78e03030e191a9a437c41138f33c6bb79339b610ba66f86fdd",
}
SPINE_DIGESTS = {
    1: "2537cdf51a3074f67a2fdd2b07c6114c877f3bd2aa1ef27426005c06e7b7b99d",
    5: "797fa8fb5cefea602ff79b4c881b149e642b73b3191c161f327dd79cfad30564",
    16: "ddafacc89815a138d877732894e869b4d29a6729c8f61a046da7b2b602ff9bd8",
}


def printed(trace):
    return [[s.rule, s.goal, s.context_before, s.context_after] for s in trace]


@pytest.mark.parametrize("k", [1, 2, 5, 16])
@pytest.mark.parametrize("accepted", [True, False], ids=["accept", "reject"])
def test_prenex_trace_digest(k, accepted):
    left, right = prenex_query(k, accepted)
    n, m = parse_type(left, "-"), parse_type(right, "-")
    try:
        record = {"trace": printed(subtype_neg(Context(), n, m).trace)}
        assert accepted
    except TypeCheckError as e:
        assert not accepted
        record = {"trace": printed(e.trace), "message": e.message}
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == PRENEX_DIGESTS[k, accepted]


@pytest.mark.parametrize("k", [1, 5, 16])
def test_spine_trace_digest(k):
    record = check_source_json(spine_source(k), f"spine{k}.ipf", with_trace=True)
    assert '"status": "ok"' in record
    assert hashlib.sha256(record.encode()).hexdigest() == SPINE_DIGESTS[k]
